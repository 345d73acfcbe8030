//! Figure 12: randomized folding tree versus the plain folding tree under
//! drastic window shrinks — the window is reduced by 25% or 50% while a
//! small update (1% additions) arrives, and the *next* small updates' work
//! measures how well each tree re-balanced.
//!
//! Reproduction note (see EXPERIMENTS.md): our folding tree batches change
//! propagation, so contiguous updates share upper tree paths; the
//! randomized tree's height advantage after a 50% shrink therefore does
//! not cross break-even at this scale, though the *trend* — randomized
//! gaining as the imbalance grows — reproduces. The tree heights below
//! show the §3.2 mechanism directly, beside the in-process wall time of
//! one update (printed only, not gated).

use std::time::Instant;

use slider_bench::{banner, fmt_f64, kmeans_spec, matrix_spec, MicrobenchSpec, Table};
use slider_core::{build_contraction_tree, FnCombiner, TreeCx, TreeKind, UpdateStats};
use slider_mapreduce::{ExecMode, JobConfig, MapReduceApp, WindowedJob};

/// Engine-level scenario: initial window → steady slide → shrink with 1%
/// additions → the next 1%-sized update's contraction work.
fn scenario<A: MapReduceApp + Clone>(
    spec: &MicrobenchSpec<A>,
    mode: ExecMode,
    shrink_pct: usize,
) -> u64 {
    let n = spec.initial.len();
    let mut job = WindowedJob::new(spec.app.clone(), JobConfig::new(mode).with_partitions(8))
        .expect("valid config");
    job.initial_run(spec.initial.clone()).expect("initial");

    let steady = n / 10;
    let mut cursor = 0usize;
    let mut take = |k: usize| {
        let s = spec.extra[cursor..cursor + k].to_vec();
        cursor += k;
        s
    };
    job.advance(steady, take(steady)).expect("steady slide");
    let shrink = n * shrink_pct / 100;
    let add = (n / 100).max(1);
    job.advance(shrink, take(add)).expect("shrink");
    let update = job.advance(add, take(add)).expect("follow-up update");
    update.work.contraction_fg.work
}

/// Core-level trend: merges of ten 1% append updates after a `shrink_pct`
/// shrink, plus the resulting tree heights, over a 4096-leaf window.
/// Also returns the wall time of one of those updates in µs, the mean over
/// the ten.
fn core_trend(kind: TreeKind, shrink_pct: u64) -> (usize, u64, f64) {
    let n: u64 = 4096;
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut tree = build_contraction_tree::<u8, u64>(kind, 0);
    let mk = |range: std::ops::Range<u64>| -> Vec<Option<u64>> { range.map(Some).collect() };
    let mut stats = UpdateStats::default();
    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
    tree.rebuild(&mut cx, mk(0..n));
    let mut next = n;
    tree.advance(&mut cx, (n / 10) as usize, mk(next..next + n / 10))
        .unwrap();
    next += n / 10;
    let shrink = n * shrink_pct / 100;
    tree.advance(&mut cx, shrink as usize, mk(next..next + n / 100))
        .unwrap();
    next += n / 100;

    let mut merges = 0;
    let mut elapsed = 0.0;
    for _ in 0..10 {
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let added = mk(next..next + n / 100);
        let start = Instant::now();
        tree.advance(&mut cx, 0, added).unwrap();
        elapsed += start.elapsed().as_secs_f64();
        next += n / 100;
        merges += stats.foreground.merges;
    }
    (tree.height(), merges, elapsed * 1e6 / 10.0)
}

/// [`core_trend`] with the fastest update time of five repetitions; the
/// counts are the same in every repetition.
fn core_trend_best_of_five(kind: TreeKind, shrink_pct: u64) -> (usize, u64, f64) {
    let (height, merges, mut us) = core_trend(kind, shrink_pct);
    for _ in 1..5 {
        us = us.min(core_trend(kind, shrink_pct).2);
    }
    (height, merges, us)
}

fn main() {
    banner("Figure 12: randomized folding tree vs. plain folding tree");

    banner("Fig 12 — per-application work on the small update after a shrink");
    let mut table = Table::new(&[
        "app",
        "scenario",
        "folding work",
        "randomized work",
        "speedup",
    ]);
    let kmeans = kmeans_spec();
    let matrix = matrix_spec();
    for shrink in [25usize, 50] {
        let label = format!("{shrink}% remove, 1% add");
        for (name, fold, rand) in [
            (
                "K-Means",
                scenario(&kmeans, ExecMode::slider_folding(), shrink),
                scenario(&kmeans, ExecMode::slider_randomized(), shrink),
            ),
            (
                "Matrix",
                scenario(&matrix, ExecMode::slider_folding(), shrink),
                scenario(&matrix, ExecMode::slider_randomized(), shrink),
            ),
        ] {
            table.row(vec![
                name.to_string(),
                label.clone(),
                fold.to_string(),
                rand.to_string(),
                fmt_f64(fold as f64 / rand.max(1) as f64),
            ]);
        }
    }
    print!("{}", table.render());

    banner("Fig 12 — §3.2 mechanism: tree height and update merges vs. shrink (4096 leaves)");
    let mut trend = Table::new(&[
        "shrink %",
        "folding height",
        "randomized height",
        "folding merges",
        "randomized merges",
        "speedup",
        "folding µs/update",
        "randomized µs/update",
        "wall speedup",
    ]);
    for shrink in [25u64, 50, 75, 90] {
        let (fh, fm, fus) = core_trend_best_of_five(TreeKind::Folding, shrink);
        let (rh, rm, rus) = core_trend_best_of_five(TreeKind::RandomizedFolding, shrink);
        trend.row(vec![
            shrink.to_string(),
            fh.to_string(),
            rh.to_string(),
            fm.to_string(),
            rm.to_string(),
            fmt_f64(fm as f64 / rm.max(1) as f64),
            fmt_f64(fus),
            fmt_f64(rus),
            fmt_f64(fus / rus),
        ]);
    }
    print!("{}", trend.render());

    println!(
        "\npaper shape: a large imbalance is required for the randomized tree\n\
         to pay off (15-22% gains at 50% removals; slightly behind at 25%).\n\
         Reproduced: the plain tree stays tall after big shrinks (heights\n\
         above) and the randomized tree's relative cost improves\n\
         monotonically with the imbalance; at this scale our batched path\n\
         propagation keeps the plain tree ahead of break-even — see\n\
         EXPERIMENTS.md for the deviation discussion."
    );
}
