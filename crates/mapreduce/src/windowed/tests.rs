//! Unit tests of the windowed job, grouped by the module they exercise.

use std::collections::BTreeMap;

use slider_cluster::SchedulerPolicy;
use slider_core::TreeKind;
use slider_dcache::NodeId;
use slider_trace::TraceSink;

use super::*;
use crate::fault::JobFaultPlan;
use crate::split::make_splits;

/// Word count over whitespace-separated tokens.
struct WordCount;
impl MapReduceApp for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = u64;
    fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in line.split_whitespace() {
            emit(word.to_string(), 1);
        }
    }
    fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 {
        a + b
    }
    fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
        parts.iter().copied().sum()
    }
}

fn lines(texts: &[&str]) -> Vec<String> {
    texts.iter().map(|s| s.to_string()).collect()
}

fn reference_counts(window: &[&str]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in window {
        for word in line.split_whitespace() {
            *out.entry(word.to_string()).or_insert(0) += 1;
        }
    }
    out
}

fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Recompute,
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_rotating(false),
        ExecMode::slider_rotating(true),
        ExecMode::slider_two_stack(),
        ExecMode::slider_daba(),
    ]
}

/// Every mode with a variable-width window: interior splices are
/// defined for all of these (fixed-width rotating geometry is not).
fn variable_width_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Recompute,
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_two_stack(),
        ExecMode::slider_daba(),
    ]
}

// ------------------------------------------------------------------
// The job: construction, accessors and checkpoints (`windowed.rs`)
// ------------------------------------------------------------------

#[test]
fn output_accessors_work() {
    let mut job = WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
    job.initial_run(make_splits(0, lines(&["hello world"]), 1))
        .unwrap();
    assert_eq!(job.window_splits(), 1);
    assert!(job.memo_footprint_bytes() > 0);
    assert!(format!("{job:?}").contains("WindowedJob"));
    assert_eq!(job.config().partitions, 8);
}

#[test]
fn a_checkpoint_holds_no_trace_sink() {
    let config = JobConfig::new(ExecMode::slider_folding()).with_trace(TraceSink::enabled());
    let job = WindowedJob::new(WordCount, config).unwrap();
    assert!(job.trace().is_enabled());
    assert!(!job.config().trace.is_enabled());
    assert!(!job.checkpoint().state.config.trace.is_enabled());
}

#[test]
fn a_rejected_shared_job_allocates_no_namespace() {
    let shared = EngineShared::builder()
        .cache(slider_dcache::CacheConfig::paper_defaults(2))
        .build();
    let bad = JobConfig::new(ExecMode::slider_folding()).with_partitions(0);
    assert!(WindowedJob::with_shared(WordCount, bad, &shared).is_err());
    let config = JobConfig::new(ExecMode::slider_folding());
    let job = WindowedJob::with_shared(WordCount, config, &shared).unwrap();
    assert_eq!(job.cache_namespace(), 1);
}

// ------------------------------------------------------------------
// Modes and config (`config.rs`)
// ------------------------------------------------------------------

#[test]
fn modes_render_the_split_processing_that_runs() {
    let cases = [
        (ExecMode::Recompute, "recompute"),
        (ExecMode::Strawman, "strawman"),
        (ExecMode::slider_folding(), "slider-folding"),
        (ExecMode::slider_randomized(), "slider-randomized"),
        (ExecMode::slider_rotating(false), "slider-rotating"),
        (ExecMode::slider_rotating(true), "slider-rotating+split"),
        (ExecMode::slider_coalescing(false), "slider-coalescing"),
        (ExecMode::slider_coalescing(true), "slider-coalescing+split"),
        (ExecMode::slider_two_stack(), "slider-twostack"),
        (ExecMode::slider_daba(), "slider-daba"),
        // Folding trees have no split processing, so the flag is inert.
        (
            ExecMode::Slider {
                tree: TreeKind::Folding,
                split_processing: true,
            },
            "slider-folding",
        ),
    ];
    for (mode, expected) in cases {
        assert_eq!(mode.to_string(), expected, "{mode:?}");
    }
}

/// Each malformed time setting is rejected when the job is built,
/// instead of panicking in the scheduler later or running with NaN,
/// negative or infinite times.
#[test]
fn malformed_time_settings_are_rejected() {
    type Tweak = fn(&mut SimulationConfig, &mut slider_dcache::CacheConfig);
    let cases: [(&str, Tweak); 8] = [
        ("NaN task_startup_seconds", |s, _| {
            s.cluster.cost.task_startup_seconds = f64::NAN;
        }),
        ("negative task_startup_seconds", |s, _| {
            s.cluster.cost.task_startup_seconds = -1.0;
        }),
        ("zero work_per_second", |s, _| {
            s.cluster.cost.work_per_second = 0.0;
        }),
        ("zero remote_bytes_per_second", |s, _| {
            s.cluster.cost.remote_bytes_per_second = 0.0;
        }),
        ("negative per_op_seconds", |_, c| {
            c.latency.per_op_seconds = -1.0;
        }),
        ("NaN per_op_seconds", |_, c| {
            c.latency.per_op_seconds = f64::NAN;
        }),
        ("NaN migration_threshold", |s, _| {
            s.policy = SchedulerPolicy::Hybrid {
                migration_threshold: f64::NAN,
            };
        }),
        ("negative migration_threshold", |s, _| {
            s.policy = SchedulerPolicy::Hybrid {
                migration_threshold: -3.0,
            };
        }),
    ];
    for (name, tweak) in cases {
        let mut sim = SimulationConfig::paper_defaults();
        let mut cache = slider_dcache::CacheConfig::paper_defaults(4);
        tweak(&mut sim, &mut cache);
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_simulation(sim)
            .with_cache(cache);
        let err = WindowedJob::new(WordCount, config).err();
        assert!(
            matches!(err, Some(JobError::BadConfig(_))),
            "{name}: {err:?}"
        );
    }
}

#[test]
fn fault_plan_validation_catches_bad_targets() {
    let plan = JobFaultPlan::none().crash(0, 99, 1.0);
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_simulation(SimulationConfig::paper_defaults())
        .with_faults(plan.clone());
    let err = WindowedJob::new(WordCount, config).unwrap_err();
    assert!(matches!(err, JobError::BadConfig(ref m) if m.contains("machine m99")));
    // Without a simulation there is no machine to name: the crash is
    // inert.
    let config = JobConfig::new(ExecMode::slider_folding()).with_faults(plan);
    assert!(WindowedJob::new(WordCount, config).is_ok());

    let config = JobConfig::new(ExecMode::slider_folding())
        .with_simulation(SimulationConfig::paper_defaults())
        .with_faults(JobFaultPlan::none().slow(0, 0, f64::NAN));
    assert!(WindowedJob::new(WordCount, config).is_err());

    // The strawman has one spelling.
    let config = JobConfig::new(ExecMode::Slider {
        tree: TreeKind::Strawman,
        split_processing: false,
    });
    let err = WindowedJob::new(WordCount, config).unwrap_err();
    assert!(matches!(err, JobError::BadConfig(ref m) if m.contains("ExecMode::Strawman")));
}

/// Builds a word-count job on 8 partitions, with the paper's simulated
/// cluster and a `nodes`-node cache, under `plan`.
fn job_under(plan: JobFaultPlan, nodes: usize) -> Result<WindowedJob<WordCount>, JobError> {
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_simulation(SimulationConfig::paper_defaults())
        .with_cache(slider_dcache::CacheConfig::paper_defaults(nodes))
        .with_faults(plan);
    WindowedJob::new(WordCount, config)
}

/// The message of the `BadConfig` error `job_under` returns.
fn rejection(plan: JobFaultPlan, nodes: usize) -> String {
    match job_under(plan, nodes) {
        Err(JobError::BadConfig(m)) => m,
        other => panic!("expected BadConfig, got {other:?}"),
    }
}

#[test]
fn a_plan_naming_an_unknown_cache_node_is_rejected() {
    let m = rejection(JobFaultPlan::none().fail_cache_node(2, 99), 4);
    assert!(m.contains("run 2") && m.contains("n99"), "{m}");
}

#[test]
fn a_lost_memo_of_an_unknown_partition_is_rejected() {
    let m = rejection(JobFaultPlan::none().lose_memo(1, vec![99]), 4);
    assert!(m.contains("partition 99"), "{m}");
}

#[test]
fn a_corruption_of_an_unknown_partition_is_rejected() {
    let m = rejection(JobFaultPlan::none().corrupt_object(1, 99, 42), 64);
    assert!(m.contains("partition 99"), "{m}");
}

#[test]
fn a_straggler_factor_above_one_is_rejected() {
    let m = rejection(JobFaultPlan::none().slow(1, 1, 8.0), 4);
    assert!(m.contains("(0, 1]"), "{m}");
}

#[test]
fn a_run_must_crash_fewer_machines_than_a_task_has_attempts() {
    let crash_all = (0..24).fold(JobFaultPlan::none(), |p, m| p.crash(1, m, 0.5));
    assert!(rejection(crash_all, 4).contains("crashes 24 machines"));
    let three = JobFaultPlan::none()
        .crash(1, 0, 0.0)
        .crash(1, 1, 0.0)
        .crash(1, 2, 0.0);
    assert!(rejection(three, 4).contains("crashes 3 machines"));
    // Two machines, one of them crashed twice, fit the budget of three
    // attempts: the run retries the tasks they were running (every
    // task takes at least the 0.5 s startup) and finishes.
    let two = JobFaultPlan::none()
        .crash(1, 0, 0.25)
        .crash(1, 1, 0.25)
        .crash(1, 1, 0.3);
    let mut job = job_under(two, 4).expect("within the budget");
    let corpus: Vec<String> = (0..16).map(|i| format!("w{i} c")).collect();
    job.initial_run(make_splits(0, corpus, 2)).unwrap();
    let stats = job
        .advance(2, make_splits(100, lines(&["x y", "y z"]), 1))
        .unwrap();
    assert!(stats.sim.expect("simulated").retried_tasks > 0);
}

#[test]
fn seeded_plans_fit_a_cache_with_fewer_nodes_than_partitions() {
    for seed in 0..64 {
        let plan = JobFaultPlan::seeded(seed, 6, 24, 8, 4);
        if let Err(err) = job_under(plan, 4) {
            panic!("seed {seed}: {err}");
        }
    }
}

#[test]
fn a_cache_without_nodes_is_a_bad_config() {
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_cache(slider_dcache::CacheConfig::paper_defaults(0));
    let err = WindowedJob::new(WordCount, config).unwrap_err();
    assert!(matches!(err, JobError::BadConfig(ref m) if m.contains("node")));
}

#[test]
fn a_cache_without_replicas_is_a_bad_config() {
    let mut cache = slider_dcache::CacheConfig::paper_defaults(4);
    cache.replicas = 0;
    let config = JobConfig::new(ExecMode::slider_folding()).with_cache(cache);
    let err = WindowedJob::new(WordCount, config).unwrap_err();
    assert!(matches!(err, JobError::BadConfig(ref m) if m.contains("replica")));
}

// ------------------------------------------------------------------
// The run path (`run.rs`)
// ------------------------------------------------------------------

#[test]
fn splice_discipline_and_bounds_are_enforced() {
    // Fixed-width windows reject interior splices outright.
    let config = JobConfig::new(ExecMode::slider_rotating(false))
        .with_partitions(2)
        .with_buckets(4, 1);
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    job.initial_run(make_splits(0, lines(&["a", "b", "c", "d"]), 1))
        .unwrap();
    assert!(matches!(
        job.insert_splits_at(1, make_splits(100, lines(&["z"]), 1)),
        Err(JobError::ModeViolation(_))
    ));
    assert!(matches!(
        job.evict_splits_range(1, 1),
        Err(JobError::ModeViolation(_))
    ));

    // Append-only windows admit late interior inserts (via the rebuild
    // fallback — coalescing trees keep no leaves) but never evict.
    let config = JobConfig::new(ExecMode::slider_coalescing(false)).with_partitions(2);
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    job.initial_run(make_splits(0, lines(&["a", "b"]), 1))
        .unwrap();
    job.insert_splits_at(1, make_splits(100, lines(&["z"]), 1))
        .unwrap();
    assert_eq!(job.output().get("z"), Some(&1));
    assert!(matches!(
        job.evict_splits_range(0, 1),
        Err(JobError::ModeViolation(_))
    ));

    // Out-of-range splices are typed errors that leave the job
    // untouched; so are reused split ids.
    let config = JobConfig::new(ExecMode::slider_folding()).with_partitions(2);
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    job.initial_run(make_splits(0, lines(&["a", "b"]), 1))
        .unwrap();
    let before = job.output().clone();
    assert!(matches!(
        job.insert_splits_at(3, make_splits(100, lines(&["z"]), 1)),
        Err(JobError::SpliceOutOfRange {
            at: 3,
            count: 1,
            window: 2
        })
    ));
    assert!(matches!(
        job.evict_splits_range(1, 2),
        Err(JobError::SpliceOutOfRange {
            at: 1,
            count: 2,
            window: 2
        })
    ));
    assert!(matches!(
        job.evict_splits_range(usize::MAX, 2),
        Err(JobError::SpliceOutOfRange { .. })
    ));
    assert!(matches!(
        job.insert_splits_at(0, make_splits(0, lines(&["z"]), 1)),
        Err(JobError::DuplicateSplit(0))
    ));
    assert_eq!(job.output(), &before);
    assert_eq!(job.window_splits(), 2);
}

#[test]
fn incremental_modes_do_less_map_work() {
    let corpus: Vec<String> = (0..32).map(|i| format!("w{} common", i % 7)).collect();
    let mut vanilla = WindowedJob::new(
        WordCount,
        JobConfig::new(ExecMode::Recompute).with_partitions(2),
    )
    .unwrap();
    let mut slider = WindowedJob::new(
        WordCount,
        JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
    )
    .unwrap();
    vanilla
        .initial_run(make_splits(0, corpus.clone(), 2))
        .unwrap();
    slider
        .initial_run(make_splits(0, corpus.clone(), 2))
        .unwrap();

    let extra: Vec<String> = (0..4).map(|i| format!("x{i} common")).collect();
    let v = vanilla
        .advance(2, make_splits(100, extra.clone(), 2))
        .unwrap();
    let s = slider.advance(2, make_splits(100, extra, 2)).unwrap();
    assert_eq!(vanilla.output(), slider.output());
    assert!(
        s.work.map < v.work.map,
        "slider map work {} should be below vanilla {}",
        s.work.map,
        v.work.map
    );
    assert!(s.map_reused > 0);
    assert!(
        s.work.foreground_total() < v.work.foreground_total(),
        "slider total {} vs vanilla {}",
        s.work.foreground_total(),
        v.work.foreground_total()
    );
}

#[test]
fn window_discipline_is_enforced() {
    // Append-only cannot remove.
    let mut job = WindowedJob::new(
        WordCount,
        JobConfig::new(ExecMode::slider_coalescing(false)),
    )
    .unwrap();
    job.initial_run(make_splits(0, lines(&["a"]), 1)).unwrap();
    assert!(matches!(
        job.advance(1, vec![]),
        Err(JobError::ModeViolation(_))
    ));

    // Fixed-width must slide whole buckets.
    let mut job = WindowedJob::new(
        WordCount,
        JobConfig::new(ExecMode::slider_rotating(false)).with_buckets(4, 2),
    )
    .unwrap();
    job.initial_run(make_splits(
        0,
        lines(&["a", "b", "c", "d", "e", "f", "g", "h"]),
        1,
    ))
    .unwrap();
    assert!(matches!(
        job.advance(1, make_splits(100, lines(&["x"]), 1)),
        Err(JobError::ModeViolation(_))
    ));

    // Duplicate split ids are rejected.
    let mut job = WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
    job.initial_run(make_splits(0, lines(&["a"]), 1)).unwrap();
    assert_eq!(
        job.advance(0, make_splits(0, lines(&["b"]), 1))
            .unwrap_err(),
        JobError::DuplicateSplit(0)
    );

    // Removing beyond the window is rejected.
    assert!(matches!(
        job.advance(5, vec![]),
        Err(JobError::RemoveExceedsWindow {
            requested: 5,
            window: 1
        })
    ));
}

#[test]
fn thread_count_changes_neither_outputs_nor_stats() {
    let corpus: Vec<String> = (0..24).map(|i| format!("w{} shared", i % 5)).collect();
    let run = |threads: usize| {
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_threads(threads);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        let s0 = job.initial_run(make_splits(0, corpus.clone(), 2)).unwrap();
        let adds = vec!["x common".to_string(), "y common".to_string()];
        let s1 = job.advance(2, make_splits(100, adds, 2)).unwrap();
        (job.output().clone(), format!("{s0:?} {s1:?}"))
    };
    let (output_seq, stats_seq) = run(1);
    for threads in [2, 4] {
        let (output, stats) = run(threads);
        assert_eq!(output, output_seq, "outputs at {threads} threads");
        assert_eq!(stats, stats_seq, "work metering at {threads} threads");
    }
}

#[test]
fn trivial_fault_plan_is_bit_identical_to_no_plan() {
    let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
    let base = || {
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(3)
            .with_simulation(SimulationConfig::paper_defaults())
            .with_cache(slider_dcache::CacheConfig::paper_defaults(4))
    };
    let run = |config: JobConfig| {
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        let s0 = job
            .initial_run(make_splits(0, lines(&corpus[0..4]), 1))
            .unwrap();
        let s1 = job
            .advance(2, make_splits(10, lines(&corpus[4..6]), 1))
            .unwrap();
        (job.output().clone(), format!("{s0:?} {s1:?}"))
    };
    let plain = run(base());
    let trivial = run(base().with_faults(JobFaultPlan::none()));
    assert_eq!(plain.0, trivial.0);
    assert_eq!(plain.1, trivial.1, "an empty plan must not perturb stats");
}

#[test]
fn memo_loss_is_rebuilt_bit_identically_in_every_mode() {
    let corpus = [
        "a b c", "b c d", "c d e", "a a b", "e f", "f g a", "b b", "g h a", "h i", "a c e",
        "b d f", "c c c",
    ];
    let plan = JobFaultPlan::none().lose_memo(1, vec![0, 2]);
    for mode in all_modes() {
        let make = |faults: Option<JobFaultPlan>| {
            let mut config = JobConfig::new(mode).with_partitions(3).with_buckets(8, 1);
            if let Some(f) = faults {
                config = config.with_faults(f);
            }
            WindowedJob::new(WordCount, config).unwrap()
        };
        let mut faulty = make(Some(plan.clone()));
        let mut twin = make(None);
        faulty
            .initial_run(make_splits(0, lines(&corpus[0..8]), 1))
            .unwrap();
        twin.initial_run(make_splits(0, lines(&corpus[0..8]), 1))
            .unwrap();

        // Run 1: partitions 0 and 2 lose their memoized trees just
        // before the slide and must rebuild, then slide as usual.
        let stats = faulty
            .advance(2, make_splits(100, lines(&corpus[8..10]), 1))
            .unwrap();
        let twin_stats = twin
            .advance(2, make_splits(100, lines(&corpus[8..10]), 1))
            .unwrap();
        assert_eq!(faulty.output(), twin.output(), "{mode}: run 1 outputs");
        if mode.tree_kind().is_some() {
            assert_eq!(stats.recovery.lost_partitions, 2, "{mode}");
            assert!(stats.recovery.rebuild_work > 0, "{mode}: rebuild metered");
        } else {
            assert!(stats.recovery.is_zero(), "{mode}: nothing memoized");
        }
        // Recovery work never leaks into the regular breakdown. (In
        // split mode the rebuilt tree drops its pending background
        // pre-combinations, so background work may legitimately
        // differ; outputs still cannot.)
        if !mode.split_processing() {
            assert_eq!(stats.work, twin_stats.work, "{mode}: run 1 work");
        }

        // Run 2 is fault-free again: recovery stats return to zero and
        // outputs keep matching.
        let stats = faulty
            .advance(2, make_splits(200, lines(&corpus[10..12]), 1))
            .unwrap();
        twin.advance(2, make_splits(200, lines(&corpus[10..12]), 1))
            .unwrap();
        assert!(stats.recovery.is_zero(), "{mode}: run 2 recovery");
        assert_eq!(faulty.output(), twin.output(), "{mode}: run 2 outputs");
        assert_eq!(faulty.output(), &reference_counts(&corpus[4..12]), "{mode}");
    }
}

// ------------------------------------------------------------------
// The shard: edit, reduce, rotate and preprocess (`shard.rs`)
// ------------------------------------------------------------------

#[test]
fn every_mode_matches_reference_over_slides() {
    // 8 splits of 1 line each; fixed-width geometry 8 buckets × 1.
    let corpus = [
        "a b c", "b c d", "c d e", "a a b", "e f", "f g a", "b b", "g h a", "h i", "a c e",
        "b d f", "c c c",
    ];
    for mode in all_modes() {
        let config = JobConfig::new(mode).with_partitions(3).with_buckets(8, 1);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&corpus[0..8]), 1))
            .unwrap();
        assert_eq!(
            job.output(),
            &reference_counts(&corpus[0..8]),
            "{mode}: initial run mismatch"
        );

        // Slide twice by 2 splits.
        job.advance(2, make_splits(100, lines(&corpus[8..10]), 1))
            .unwrap();
        assert_eq!(
            job.output(),
            &reference_counts(&corpus[2..10]),
            "{mode}: slide 1 mismatch"
        );
        job.advance(2, make_splits(200, lines(&corpus[10..12]), 1))
            .unwrap();
        assert_eq!(
            job.output(),
            &reference_counts(&corpus[4..12]),
            "{mode}: slide 2 mismatch"
        );
    }
}

#[test]
fn append_only_modes_match_reference() {
    let corpus = ["a b", "b c", "c d", "d e a", "e f b"];
    for mode in [
        ExecMode::Recompute,
        ExecMode::slider_coalescing(false),
        ExecMode::slider_coalescing(true),
    ] {
        let config = JobConfig::new(mode).with_partitions(2);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&corpus[0..2]), 1))
            .unwrap();
        job.advance(0, make_splits(10, lines(&corpus[2..4]), 1))
            .unwrap();
        job.advance(0, make_splits(20, lines(&corpus[4..5]), 1))
            .unwrap();
        assert_eq!(job.output(), &reference_counts(&corpus), "{mode}");
    }
}

#[test]
fn interior_insert_matches_reference_for_every_variable_width_mode() {
    let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
    let late = ["z a", "b z"];
    let append_only = [
        ExecMode::slider_coalescing(false),
        ExecMode::slider_coalescing(true),
    ];
    for mode in variable_width_modes().into_iter().chain(append_only) {
        let config = JobConfig::new(mode).with_partitions(3);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&corpus), 1)).unwrap();

        // Two late splits land between window positions 1 and 2.
        let stats = job
            .insert_splits_at(2, make_splits(100, lines(&late), 1))
            .unwrap();
        let logical = [
            "a b c", "b c d", "z a", "b z", "c d e", "a a b", "e f", "f g a",
        ];
        assert_eq!(job.output(), &reference_counts(&logical), "{mode}");
        assert_eq!(job.window_splits(), 8, "{mode}");
        assert_eq!(stats.run, 1, "{mode}: a splice is a full run");
        assert_eq!(
            stats.map_tasks,
            if mode == ExecMode::Recompute { 8 } else { 2 },
            "{mode}: only the late splits map incrementally"
        );

        // Ordinary slides keep working on the spliced window.
        if !mode.is_append_only() {
            job.advance(2, make_splits(200, lines(&["q q"]), 1))
                .unwrap();
            let after = ["z a", "b z", "c d e", "a a b", "e f", "f g a", "q q"];
            assert_eq!(
                job.output(),
                &reference_counts(&after),
                "{mode}: slide after splice"
            );
        }
    }
}

#[test]
fn interior_evict_matches_reference_for_every_variable_width_mode() {
    let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
    for mode in variable_width_modes() {
        let config = JobConfig::new(mode).with_partitions(3);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&corpus), 1)).unwrap();

        // Bulk-evict window positions [2, 5) from the interior. Every
        // occurrence of "e" goes with them, so the key must vanish.
        job.evict_splits_range(2, 3).unwrap();
        let logical = ["a b c", "b c d", "f g a"];
        assert_eq!(job.output(), &reference_counts(&logical), "{mode}");
        assert_eq!(job.window_splits(), 3, "{mode}");
        assert_eq!(job.output().get("e"), None, "{mode}: emptied key dropped");

        // Ordinary slides keep working on the spliced window.
        job.advance(1, make_splits(200, lines(&["q q"]), 1))
            .unwrap();
        let after = ["b c d", "f g a", "q q"];
        assert_eq!(
            job.output(),
            &reference_counts(&after),
            "{mode}: slide after evict"
        );
    }
}

#[test]
fn native_splices_beat_rebuild_fallback_on_contraction_work() {
    // The same interior insert through a folding tree (native splice)
    // and a two-stack aggregator (rebuild fallback): outputs agree,
    // but the fallback pays for re-merging the whole window.
    let corpus: Vec<String> = (0..64).map(|i| format!("k{} every", i % 5)).collect();
    let run = |mode: ExecMode| {
        let mut job = WindowedJob::new(WordCount, JobConfig::new(mode).with_partitions(1)).unwrap();
        job.initial_run(make_splits(0, corpus.clone(), 1)).unwrap();
        let stats = job
            .insert_splits_at(7, make_splits(100, lines(&["k1 every"]), 1))
            .unwrap();
        (job, stats)
    };
    let (native_job, native) = run(ExecMode::slider_folding());
    let (fallback_job, fallback) = run(ExecMode::slider_two_stack());
    assert_eq!(native_job.output(), fallback_job.output());
    assert!(
        native.work.contraction_fg.merges < fallback.work.contraction_fg.merges,
        "native splice merges {} should undercut rebuild fallback {}",
        native.work.contraction_fg.merges,
        fallback.work.contraction_fg.merges
    );
}

#[test]
fn split_processing_shifts_work_to_background() {
    let corpus: Vec<String> = (0..16).map(|i| format!("k{} shared", i % 3)).collect();
    let make_job = |split| {
        let config = JobConfig::new(ExecMode::slider_rotating(split))
            .with_partitions(2)
            .with_buckets(8, 1);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, corpus.clone(), 2)).unwrap();
        job
    };
    let mut plain = make_job(false);
    let mut split = make_job(true);

    let mut fg_plain = 0u64;
    let mut fg_split = 0u64;
    let mut bg_split = 0u64;
    for round in 0..4u64 {
        let adds: Vec<String> = (0..2).map(|i| format!("k{} fresh{round}", i)).collect();
        let p = plain
            .advance(1, make_splits(1000 + round * 10, adds.clone(), 2))
            .unwrap();
        let s = split
            .advance(1, make_splits(2000 + round * 10, adds, 2))
            .unwrap();
        assert_eq!(plain.output(), split.output(), "round {round}");
        fg_plain += p.work.contraction_fg.work;
        fg_split += s.work.contraction_fg.work;
        bg_split += s.work.contraction_bg.work;
        assert_eq!(p.work.contraction_bg.work, 0);
    }
    assert!(bg_split > 0, "split mode must offload to background");
    assert!(
        fg_split < fg_plain,
        "split foreground {fg_split} should undercut plain {fg_plain}"
    );
}

#[test]
fn strawman_pays_more_contraction_work_than_folding_on_front_removal() {
    let corpus: Vec<String> = (0..64).map(|_| "k".to_string()).collect();
    let run = |mode: ExecMode| {
        let mut job = WindowedJob::new(WordCount, JobConfig::new(mode).with_partitions(1)).unwrap();
        job.initial_run(make_splits(0, corpus.clone(), 1)).unwrap();
        let stats = job
            .advance(1, make_splits(100, vec!["k".to_string()], 1))
            .unwrap();
        stats.work.contraction_fg.merges
    };
    let strawman = run(ExecMode::Strawman);
    let folding = run(ExecMode::slider_folding());
    assert!(
        strawman > 2 * folding.max(1),
        "strawman {strawman} merges vs folding {folding}"
    );
}

// ------------------------------------------------------------------
// The simulation and the cache replay (`sim.rs`)
// ------------------------------------------------------------------

#[test]
fn simulation_produces_time_metrics() {
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(4)
        .with_simulation(SimulationConfig::paper_defaults());
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    let corpus: Vec<String> = (0..16).map(|i| format!("w{i} c")).collect();
    let stats = job.initial_run(make_splits(0, corpus, 2)).unwrap();
    let sim = stats.sim.as_ref().expect("simulation configured");
    assert!(sim.makespan_ns > 0);
    assert_eq!(sim.stages.len(), 2);
    assert!(stats.map_ns().unwrap() > 0);
}

#[test]
fn cache_model_records_traffic_and_failures() {
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(2)
        .with_cache(slider_dcache::CacheConfig::paper_defaults(4));
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    job.initial_run(make_splits(0, lines(&["a b", "b c"]), 1))
        .unwrap();
    let stats = job.advance(1, make_splits(10, lines(&["c d"]), 1)).unwrap();
    let cache = stats.cache.expect("cache configured");
    assert!(
        cache.memory_hits > 0,
        "memoized state should be read from memory"
    );

    // Crash the node holding partition 0's state: next run reads fall
    // back to disk replicas but still succeed.
    job.fail_cache_node(0).unwrap();
    let stats = job.advance(1, make_splits(11, lines(&["d e"]), 1)).unwrap();
    let cache = stats.cache.expect("cache configured");
    assert!(cache.disk_reads > 0, "failure must fall back to replicas");
    assert_eq!(cache.failed_reads(), 0);
    assert_eq!(job.output(), &reference_counts(&["c d", "d e"]));
}

#[test]
fn out_of_range_cache_nodes_are_job_errors() {
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(2)
        .with_cache(slider_dcache::CacheConfig::paper_defaults(4));
    let mut job = WindowedJob::new(WordCount, config).unwrap();
    job.initial_run(make_splits(0, lines(&["a b", "b c"]), 1))
        .unwrap();
    let unknown = JobError::Cache(slider_dcache::CacheError::UnknownNode(NodeId(4)));
    assert_eq!(job.fail_cache_node(4), Err(unknown.clone()));
    assert_eq!(job.recover_cache_node(4), Err(unknown));

    // A fault plan scripting the bad node is rejected when the job is
    // built.
    let plan = JobFaultPlan::none().fail_cache_node(1, 9);
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(2)
        .with_cache(slider_dcache::CacheConfig::paper_defaults(4))
        .with_faults(plan);
    let err = WindowedJob::new(WordCount, config).unwrap_err();
    assert!(matches!(err, JobError::BadConfig(_)), "{err}");
    assert!(err.to_string().contains("cache node n9"), "{err}");

    // Without a cache there is no node to name: a no-op, as before.
    let mut job = WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
    assert_eq!(job.fail_cache_node(99), Ok(()));
}
