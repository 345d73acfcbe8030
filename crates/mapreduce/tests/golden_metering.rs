//! Golden metering: the exact work every execution mode reports for a
//! fixed script of slides and interior splices.
//!
//! Each mode runs initial run → slide → interior insert → interior evict →
//! slide, skipping the steps its window discipline forbids (fixed-width
//! jobs only slide whole buckets; append-only jobs never evict). Every
//! run's foreground/background merges and work, reused nodes, reduced and
//! reused keys, memo bytes read and memo footprint are pinned to a golden
//! transcript, so a refactor of the run path cannot drift any of them
//! unnoticed.

use std::fmt::Write as _;

use slider_core::TreeKind;
use slider_mapreduce::{make_splits, ExecMode, JobConfig, MapReduceApp, RunStats, WindowedJob};

/// Word count whose combine cost and value size depend on the counts, so
/// work and bytes are not just multiples of the merge count.
struct Counts;

impl MapReduceApp for Counts {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = u64;

    fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in line.split_whitespace() {
            emit(word.to_string(), 1);
        }
    }

    fn combine(&self, _key: &String, a: &u64, b: &u64) -> u64 {
        a + b
    }

    fn reduce(&self, _key: &String, parts: &[&u64]) -> u64 {
        parts.iter().copied().sum()
    }

    fn combine_cost(&self, _key: &String, a: &u64, b: &u64) -> u64 {
        1 + (a + b) % 4
    }

    fn value_bytes(&self, _key: &String, v: &u64) -> u64 {
        8 + 4 * v
    }
}

fn corpus(first: u64, n: u64) -> Vec<String> {
    (first..first + n)
        .map(|i| format!("w{} w{} w{}", i % 7, (i * 3) % 5, (i * 5 + 1) % 9))
        .collect()
}

fn line(out: &mut String, mode: ExecMode, step: &str, s: &RunStats) {
    let fg = s.work.contraction_fg;
    let bg = s.work.contraction_bg;
    writeln!(
        out,
        "{mode} {step}: fg {}/{} bg {}/{} reused {} keys {}/{} read {} footprint {}",
        fg.merges,
        fg.work,
        bg.merges,
        bg.work,
        s.nodes_reused,
        s.keys_reduced,
        s.keys_reused,
        s.memo_read_bytes,
        s.memo_footprint_bytes
    )
    .unwrap();
}

/// Runs the script in every mode, handing `each` every run's mode, step
/// and stats, and the job's output key count after the run.
fn script(threads: usize, mut each: impl FnMut(ExecMode, &str, &RunStats, usize)) {
    let modes = [
        ExecMode::Recompute,
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_rotating(false),
        ExecMode::slider_rotating(true),
        ExecMode::slider_coalescing(false),
        ExecMode::slider_coalescing(true),
        ExecMode::slider_two_stack(),
        ExecMode::slider_daba(),
    ];
    for mode in modes {
        let fixed_width = mode.tree_kind() == Some(TreeKind::Rotating);
        let append_only = mode.tree_kind() == Some(TreeKind::Coalescing);
        let config = JobConfig::new(mode)
            .with_partitions(3)
            .with_buckets(6, 2)
            .with_threads(threads);
        let mut job = WindowedJob::new(Counts, config).unwrap();
        let remove = if append_only { 0 } else { 2 };

        let s = job.initial_run(make_splits(0, corpus(0, 12), 1)).unwrap();
        each(mode, "initial", &s, job.output().len());
        let s = job
            .advance(remove, make_splits(100, corpus(12, 2), 1))
            .unwrap();
        each(mode, "slide", &s, job.output().len());
        if !fixed_width {
            let late = vec!["w1 late w3".to_string(), "late w6".to_string()];
            let s = job.insert_splits_at(4, make_splits(200, late, 1)).unwrap();
            each(mode, "insert", &s, job.output().len());
        }
        if !fixed_width && !append_only {
            let s = job.evict_splits_range(3, 4).unwrap();
            each(mode, "evict", &s, job.output().len());
        }
        let s = job
            .advance(remove, make_splits(300, corpus(20, 2), 1))
            .unwrap();
        each(mode, "slide", &s, job.output().len());
    }
}

fn transcript(threads: usize) -> String {
    let mut out = String::new();
    script(threads, |mode, step, s, _| line(&mut out, mode, step, s));
    out
}

const GOLDEN: &str = "\
recompute initial: fg 0/0 bg 0/0 reused 0 keys 9/0 read 0 footprint 0
recompute slide: fg 0/0 bg 0/0 reused 0 keys 9/0 read 0 footprint 0
recompute insert: fg 0/0 bg 0/0 reused 0 keys 10/0 read 0 footprint 0
recompute evict: fg 0/0 bg 0/0 reused 0 keys 8/0 read 0 footprint 0
recompute slide: fg 0/0 bg 0/0 reused 0 keys 8/0 read 0 footprint 0
strawman initial: fg 23/67 bg 0/0 reused 0 keys 9/0 read 0 footprint 888
strawman slide: fg 17/47 bg 0/0 reused 7 keys 7/2 read 144 footprint 904
strawman insert: fg 14/38 bg 0/0 reused 14 keys 4/6 read 288 footprint 1044
strawman evict: fg 13/31 bg 0/0 reused 6 keys 6/2 read 120 footprint 728
strawman slide: fg 17/44 bg 0/0 reused 3 keys 7/1 read 52 footprint 736
slider-folding initial: fg 23/67 bg 0/0 reused 0 keys 9/0 read 0 footprint 888
slider-folding slide: fg 12/38 bg 0/0 reused 13 keys 7/2 read 196 footprint 900
slider-folding insert: fg 10/28 bg 0/0 reused 6 keys 4/6 read 92 footprint 1044
slider-folding evict: fg 8/22 bg 0/0 reused 7 keys 6/2 read 104 footprint 716
slider-folding slide: fg 11/23 bg 0/0 reused 12 keys 7/1 read 184 footprint 748
slider-randomized initial: fg 23/72 bg 0/0 reused 0 keys 9/0 read 0 footprint 804
slider-randomized slide: fg 18/49 bg 0/0 reused 3 keys 7/2 read 52 footprint 772
slider-randomized insert: fg 14/39 bg 0/0 reused 1 keys 4/6 read 16 footprint 960
slider-randomized evict: fg 12/32 bg 0/0 reused 3 keys 6/2 read 52 footprint 620
slider-randomized slide: fg 17/43 bg 0/0 reused 1 keys 7/1 read 20 footprint 572
slider-rotating initial: fg 31/93 bg 0/0 reused 46 keys 9/0 read 728 footprint 824
slider-rotating slide: fg 15/41 bg 0/0 reused 16 keys 7/2 read 220 footprint 852
slider-rotating slide: fg 16/41 bg 0/0 reused 17 keys 7/2 read 240 footprint 856
slider-rotating+split initial: fg 31/93 bg 11/30 reused 66 keys 9/0 read 1008 footprint 1016
slider-rotating+split slide: fg 6/19 bg 27/73 reused 36 keys 7/2 read 496 footprint 1032
slider-rotating+split slide: fg 6/15 bg 27/64 reused 37 keys 7/2 read 520 footprint 1040
slider-coalescing initial: fg 23/64 bg 0/0 reused 0 keys 9/0 read 0 footprint 216
slider-coalescing slide: fg 6/19 bg 0/0 reused 0 keys 6/3 read 0 footprint 240
slider-coalescing insert: fg 19/49 bg 0/0 reused 0 keys 4/6 read 0 footprint 268
slider-coalescing slide: fg 6/17 bg 0/0 reused 0 keys 5/5 read 0 footprint 292
slider-coalescing+split initial: fg 23/64 bg 0/0 reused 0 keys 9/0 read 0 footprint 216
slider-coalescing+split slide: fg 0/0 bg 6/19 reused 6 keys 6/3 read 140 footprint 240
slider-coalescing+split insert: fg 19/49 bg 0/0 reused 0 keys 4/6 read 0 footprint 268
slider-coalescing+split slide: fg 1/3 bg 5/14 reused 5 keys 5/5 read 148 footprint 292
slider-twostack initial: fg 23/64 bg 0/0 reused 0 keys 9/0 read 0 footprint 592
slider-twostack slide: fg 21/60 bg 0/0 reused 5 keys 7/2 read 120 footprint 592
slider-twostack insert: fg 15/41 bg 0/0 reused 0 keys 4/6 read 0 footprint 768
slider-twostack evict: fg 15/40 bg 0/0 reused 0 keys 6/2 read 0 footprint 516
slider-twostack slide: fg 10/27 bg 0/0 reused 5 keys 7/1 read 108 footprint 460
slider-daba initial: fg 23/62 bg 0/0 reused 0 keys 9/0 read 0 footprint 544
slider-daba slide: fg 12/34 bg 0/0 reused 1 keys 7/2 read 24 footprint 568
slider-daba insert: fg 15/41 bg 0/0 reused 0 keys 4/6 read 0 footprint 728
slider-daba evict: fg 15/40 bg 0/0 reused 0 keys 6/2 read 0 footprint 492
slider-daba slide: fg 6/16 bg 0/0 reused 3 keys 7/1 read 72 footprint 468
";

#[test]
fn every_mode_meters_slides_and_splices_exactly() {
    for threads in [1, 2] {
        let got = transcript(threads);
        assert_eq!(got, GOLDEN, "threads={threads}; transcript:\n{got}");
    }
}

#[test]
fn reduced_and_reused_keys_are_the_output_keys() {
    // Every output key is either reduced by the run or reused untouched;
    // a key the run created is reduced, never reused.
    script(1, |mode, step, s, outputs| {
        assert_eq!(
            s.keys_reduced + s.keys_reused,
            outputs,
            "{mode} {step}: keys {}/{}",
            s.keys_reduced,
            s.keys_reused
        );
    });
}
