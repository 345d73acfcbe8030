//! Cross-crate integration for the `slider-trace` observability subsystem.
//!
//! The load-bearing invariants:
//!
//! * **Exact reconciliation** — span totals on every track equal the
//!   engine's own statistics (`WorkBreakdown`, `RecoveryStats`,
//!   `RepairStats`, `SimReport`), per run, for every execution mode and
//!   thread count. Not approximately: work and simulated time are both
//!   `u64` sums.
//! * **One source of counts** — every `engine.*`, `recovery.*` and
//!   `dcache.*` counter is the sum of one `RunStats` field over the runs
//!   that completed.
//! * **Zero observable overhead** — enabling tracing leaves job outputs
//!   and `RunStats` bit-identical to an untraced run.
//! * **Determinism** — the three profile exports are byte-identical for
//!   any `threads` value, because the virtual clock counts modeled work,
//!   never wall time.

use std::collections::BTreeMap;

use slider_apps::Hct;
use slider_dcache::{CacheConfig, CacheStats, GcPolicy};
use slider_mapreduce::{
    make_splits, EngineShared, ExecMode, JobConfig, JobFaultPlan, RunStats, SimulationConfig,
    TraceSink, WindowedJob,
};
use slider_trace::{validate_chrome_trace, SpanKind, TraceSnapshot};
use slider_workloads::text::{generate_documents, TextConfig};

fn records(count: usize) -> Vec<String> {
    generate_documents(
        7,
        count,
        &TextConfig {
            vocabulary: 60,
            zipf_exponent: 1.0,
            words_per_doc: 8,
        },
    )
}

fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Recompute,
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_rotating(true),
        ExecMode::slider_coalescing(true),
        ExecMode::slider_daba(),
    ]
}

/// Builds a traced, cached job and drives the same 4-run history every
/// test uses: an 8-split initial window plus three slides. Returns the
/// per-run stats.
fn drive(mode: ExecMode, threads: usize, trace: TraceSink) -> (Vec<RunStats>, WindowedJob<Hct>) {
    let splits = make_splits(0, records(70), 5);
    let mut config = JobConfig::new(mode)
        .with_partitions(3)
        .with_simulation(SimulationConfig::paper_defaults())
        .with_cache(CacheConfig::paper_defaults(4))
        .with_threads(threads)
        .with_trace(trace);
    if mode.tree_kind() == Some(slider_core::TreeKind::Rotating) {
        config = config.with_buckets(8, 1);
    }
    let mut job = WindowedJob::new(Hct::new(), config).expect("valid config");
    let mut stats = vec![job.initial_run(splits[..8].to_vec()).expect("initial")];
    let append_only = mode.tree_kind() == Some(slider_core::TreeKind::Coalescing);
    for i in 0..3 {
        let added = splits[8 + i..9 + i].to_vec();
        let remove = if append_only { 0 } else { 1 };
        stats.push(job.advance(remove, added).expect("slide"));
    }
    (stats, job)
}

type RunField = fn(&RunStats) -> u64;

fn cache(s: &RunStats) -> CacheStats {
    s.cache.unwrap_or_default()
}

/// Every `engine.*`, `recovery.*` and `dcache.*` counter with the
/// `RunStats` field it sums.
const RUN_COUNTERS: &[(&str, RunField)] = &[
    ("engine.map_tasks", |s| s.map_tasks as u64),
    ("engine.map_reused", |s| s.map_reused as u64),
    ("engine.shuffle_bytes", |s| s.shuffle_bytes),
    ("engine.keys_reduced", |s| s.keys_reduced as u64),
    ("engine.keys_reused", |s| s.keys_reused as u64),
    ("engine.nodes_reused", |s| s.nodes_reused),
    ("engine.merges_fg", |s| s.work.contraction_fg.merges),
    ("engine.merges_bg", |s| s.work.contraction_bg.merges),
    ("engine.memo_read_bytes", |s| s.memo_read_bytes),
    ("engine.memo_written_bytes", |s| s.memo_written_bytes),
    ("recovery.lost_partitions", |s| {
        s.recovery.lost_partitions as u64
    }),
    ("recovery.keys_recomputed", |s| {
        s.recovery.keys_recomputed as u64
    }),
    ("recovery.cache_misses_recovered", |s| {
        s.recovery.cache_misses_recovered
    }),
    ("recovery.cache_not_found", |s| s.recovery.cache_not_found),
    ("recovery.cache_unavailable", |s| {
        s.recovery.cache_unavailable
    }),
    ("recovery.read_retries", |s| s.recovery.read_retries),
    ("dcache.memory_hits", |s| cache(s).memory_hits),
    ("dcache.disk_reads", |s| cache(s).disk_reads),
    ("dcache.not_found_reads", |s| cache(s).not_found_reads),
    ("dcache.unavailable_reads", |s| cache(s).unavailable_reads),
    ("dcache.bytes_read", |s| cache(s).bytes_read),
    ("dcache.collected", |s| cache(s).collected),
    ("dcache.puts", |s| cache(s).puts),
    ("dcache.put_bytes", |s| cache(s).put_bytes),
    ("dcache.repair.enqueued", |s| s.repair.enqueued),
    ("dcache.repair.repaired_objects", |s| {
        s.repair.repaired_objects
    }),
    ("dcache.repair.copies_restored", |s| {
        s.repair.copies_restored
    }),
    ("dcache.repair.bytes", |s| s.repair.repair_bytes),
    ("dcache.scrub.passes", |s| s.repair.scrub_passes),
    ("dcache.scrub.copies", |s| s.repair.scrubbed_copies),
    ("dcache.scrub.bytes", |s| s.repair.scrub_bytes),
    ("dcache.corruptions_detected", |s| {
        s.repair.corruptions_detected
    }),
    ("dcache.stale_copies_purged", |s| {
        s.repair.stale_copies_purged
    }),
    ("dcache.master.rebuilds", |s| s.repair.master_rebuilds),
    ("dcache.master.reindexed", |s| s.repair.objects_reindexed),
    ("dcache.node_failures", |s| s.repair.node_failures),
    ("dcache.node_recoveries", |s| s.repair.node_recoveries),
];

/// Asserts every counter of [`RUN_COUNTERS`] equals the sum of its field
/// over `runs`, and that the trace holds no other counter of those
/// families.
fn assert_counters_sum_runs(snap: &TraceSnapshot, runs: &[RunStats], cx: &str) {
    for (name, field) in RUN_COUNTERS {
        let expected: u64 = runs.iter().map(field).sum();
        assert_eq!(snap.counter(name), expected, "{cx}: counter {name}");
    }
    for (name, _) in &snap.counters {
        if ["engine.", "recovery.", "dcache."]
            .iter()
            .any(|family| name.starts_with(family))
        {
            assert!(
                RUN_COUNTERS.iter().any(|(known, _)| known == name),
                "{cx}: counter {name} has no RunStats field"
            );
        }
    }
}

fn assert_run_reconciles(snap: &TraceSnapshot, stats: &RunStats, mode: ExecMode, threads: usize) {
    let run = Some(stats.run);
    let cx = format!("mode={mode} threads={threads} run={}", stats.run);
    assert_eq!(
        snap.work_total("engine", SpanKind::Map, run),
        stats.work.map,
        "{cx}: map work"
    );
    assert_eq!(
        snap.work_total("engine", SpanKind::ContractionFg, run),
        stats.work.contraction_fg.work,
        "{cx}: foreground contraction work"
    );
    assert_eq!(
        snap.work_total("engine", SpanKind::Reduce, run),
        stats.work.reduce,
        "{cx}: reduce work"
    );
    assert_eq!(
        snap.work_total("engine", SpanKind::Movement, run),
        stats.work.movement,
        "{cx}: movement work"
    );
    assert_eq!(
        snap.work_total("background", SpanKind::ContractionBg, run),
        stats.work.contraction_bg.work,
        "{cx}: background contraction work"
    );
    assert_eq!(
        snap.arg_total("engine", SpanKind::Shuffle, "bytes", run),
        stats.shuffle_bytes,
        "{cx}: shuffle bytes"
    );
    assert_eq!(
        snap.work_total("recovery", SpanKind::Recovery, run),
        stats.recovery.rebuild_work,
        "{cx}: recovery rebuild work"
    );
    assert_time_reconciles(snap, stats, &cx);
}

/// Asserts that each simulated time of run `stats` equals the nanoseconds
/// of its spans: the dcache track's reads, repairs and scrubs, the
/// recovery track's backoff leaves, and the cluster track's stage leaves
/// (foreground and background schedules).
fn assert_time_reconciles(snap: &TraceSnapshot, stats: &RunStats, cx: &str) {
    let ns = |track: &str, kind| snap.ns_total(track, kind, Some(stats.run));
    let pairs = [
        (
            "dcache reads",
            ns("dcache", SpanKind::CacheRead),
            cache(stats).read_ns,
        ),
        (
            "dcache repairs",
            ns("dcache", SpanKind::Repair),
            stats.repair.repair_ns,
        ),
        (
            "dcache scrubs",
            ns("dcache", SpanKind::Scrub),
            stats.repair.scrub_ns,
        ),
        (
            "recovery backoff",
            ns("recovery", SpanKind::Recovery),
            stats.recovery.backoff_ns,
        ),
        (
            "simulated stages",
            ns("cluster", SpanKind::SimStage),
            stats
                .sim
                .iter()
                .chain(&stats.sim_background)
                .flat_map(|sim| &sim.stages)
                .map(|stage| stage.duration_ns)
                .sum(),
        ),
    ];
    for (what, spans, stat) in pairs {
        assert_eq!(spans, stat, "{cx} run {}: {what} ns", stats.run);
    }
}

#[test]
fn span_totals_reconcile_with_run_stats_across_modes_and_threads() {
    for mode in all_modes() {
        for threads in [1usize, 2, 4] {
            let sink = TraceSink::enabled();
            let (stats, _job) = drive(mode, threads, sink.clone());
            let snap = sink.snapshot().expect("sink is enabled");
            for run_stats in &stats {
                assert_run_reconciles(&snap, run_stats, mode, threads);
            }
            assert!(
                mode == ExecMode::Recompute || stats.iter().any(|s| cache(s).read_ns > 0),
                "mode={mode}: the slides read memoized state"
            );
            assert_counters_sum_runs(&snap, &stats, &format!("mode={mode} threads={threads}"));
            // The run-span totals cover the whole engine track: one Run
            // span per advance, each enclosing the run's engine phases.
            assert_eq!(
                snap.span_count("engine", SpanKind::Run, None),
                stats.len(),
                "mode={mode}: one Run span per advance"
            );
        }
    }
}

#[test]
fn recovery_and_repair_tracks_reconcile_under_faults() {
    let plan = JobFaultPlan::none()
        .lose_memo(1, vec![0, 2])
        .fail_cache_node(2, 1)
        .corrupt_object(2, 0, 2)
        .crash(3, 0, 0.2);
    let sink = TraceSink::enabled();
    let splits = make_splits(0, records(70), 5);
    // Disk-only cache (Table-2 style) so persistent-tier loss is visible;
    // a scrub every run keeps the background self-healing path hot.
    let mut cache = CacheConfig::paper_defaults(4)
        .with_repair()
        .with_scrub_interval(1);
    cache.memory_enabled = false;
    let config = JobConfig::new(ExecMode::slider_rotating(false))
        .with_partitions(4)
        .with_buckets(8, 1)
        .with_cache(cache)
        .with_simulation(SimulationConfig::paper_defaults())
        .with_faults(plan)
        .with_trace(sink.clone());
    let mut job = WindowedJob::new(Hct::new(), config).expect("valid config");
    let mut stats = vec![job.initial_run(splits[..8].to_vec()).expect("initial")];
    for i in 0..4 {
        stats.push(
            job.advance(1, splits[8 + i..9 + i].to_vec())
                .expect("slide"),
        );
    }
    let snap = sink.snapshot().expect("sink is enabled");

    assert!(
        stats.iter().any(|s| s.recovery.rebuild_work > 0),
        "the fault plan must force memo rebuilds"
    );
    assert!(
        stats
            .iter()
            .any(|s| s.repair.repair_ns > 0 || s.repair.scrub_ns > 0),
        "the fault plan must trigger self-healing work"
    );
    assert!(
        stats.iter().any(|s| s.recovery.backoff_ns > 0),
        "the fault plan must make a read back off"
    );
    assert!(
        stats
            .iter()
            .any(|s| s.sim.as_ref().is_some_and(|sim| sim.recovery_ns > 0)),
        "the crash must cost the schedule recovery time"
    );
    assert_counters_sum_runs(&snap, &stats, "faulted rotating job");
    for s in &stats {
        let run = Some(s.run);
        assert_eq!(
            snap.work_total("recovery", SpanKind::Recovery, run),
            s.recovery.rebuild_work,
            "run {}: rebuild work",
            s.run
        );
        assert_time_reconciles(&snap, s, "faulted rotating job");
        // The run-summary repair/scrub spans carry the deltas stored in
        // `RunStats::repair`.
        assert_eq!(
            snap.ns_total("repair", SpanKind::Repair, run),
            s.repair.repair_ns,
            "run {}: repair ns",
            s.run
        );
        assert_eq!(
            snap.ns_total("repair", SpanKind::Scrub, run),
            s.repair.scrub_ns,
            "run {}: scrub ns",
            s.run
        );
        assert_eq!(
            snap.arg_total("repair", SpanKind::Repair, "repair_bytes", run),
            s.repair.repair_bytes,
            "run {}: repair bytes",
            s.run
        );
    }
}

#[test]
fn tracing_leaves_outputs_and_stats_bit_identical() {
    for mode in all_modes() {
        let run = |trace: TraceSink| {
            let (stats, job) = drive(mode, 2, trace);
            let debug: Vec<String> = stats.iter().map(|s| format!("{s:?}")).collect();
            (job.output().clone(), debug)
        };
        let (out_off, stats_off) = run(TraceSink::disabled());
        let (out_on, stats_on) = run(TraceSink::enabled());
        assert_eq!(out_off, out_on, "mode={mode}: outputs must not change");
        assert_eq!(
            stats_off, stats_on,
            "mode={mode}: RunStats must be bit-identical under tracing"
        );
    }
}

#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let export = |threads: usize| {
        let sink = TraceSink::enabled();
        drive(ExecMode::slider_rotating(true), threads, sink.clone());
        let snap = sink.snapshot().expect("sink is enabled");
        (
            snap.chrome_trace(),
            snap.folded_flamegraph(),
            snap.metrics_json(),
        )
    };
    let base = export(1);
    let events = validate_chrome_trace(&base.0).expect("valid Chrome trace");
    assert!(events > 0, "trace must contain complete events");
    assert!(!base.1.is_empty(), "flamegraph must have frames");
    for threads in [2usize, 4] {
        let other = export(threads);
        assert_eq!(base.0, other.0, "chrome trace, 1 vs {threads} threads");
        assert_eq!(base.1, other.1, "flamegraph, 1 vs {threads} threads");
        assert_eq!(base.2, other.2, "metrics, 1 vs {threads} threads");
    }
}

#[test]
fn dcache_counters_reconcile_with_cache_stats() {
    // Disk-only, self-healing, scrubbed every run, and a GC budget below
    // the job's footprint, so collection and recompute-on-miss run too.
    let mut config = CacheConfig::paper_defaults(4)
        .with_repair()
        .with_scrub_interval(1);
    config.memory_enabled = false;
    config.gc = GcPolicy::Aggressive {
        max_total_bytes: 2500,
    };
    let sink = TraceSink::enabled();
    let shared = EngineShared::builder()
        .cache(config)
        .trace(sink.clone())
        .build();
    // Before run 2 node 3 fails and partition 1's other copy rots, so
    // that read fails over, retries and drains repairs; the master is
    // rebuilt before run 3, node 3 rejoins with stale copies before run 4,
    // and partition 1's memo is lost before run 5.
    let plan = JobFaultPlan::none()
        .fail_cache_node(2, 3)
        .corrupt_object(2, 1, 2)
        .lose_master(3)
        .recover_cache_node(4, 3)
        .lose_memo(5, vec![1]);
    let job_config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(4)
        .with_faults(plan);
    let mut job = WindowedJob::with_shared(Hct::new(), job_config, &shared).expect("valid config");
    let splits = make_splits(0, records(70), 5);
    let mut runs = vec![job.initial_run(splits[..8].to_vec()).expect("initial")];
    for i in 0..5 {
        runs.push(
            job.advance(1, splits[8 + i..9 + i].to_vec())
                .expect("slide"),
        );
    }

    // Every cache operation happened inside a completed run, so the
    // counters equal the cache's own cumulative stats as well as the sum
    // of the per-run deltas.
    let snap = sink.snapshot().expect("sink is enabled");
    assert_counters_sum_runs(&snap, &runs, "faulted shared-cache job");
    let cache = shared.cache().expect("cache configured");
    let stats = cache.stats();
    let repair = cache.with(|c| c.repair_stats());
    let checks: Vec<(&str, u64)> = vec![
        ("dcache.memory_hits", stats.memory_hits),
        ("dcache.disk_reads", stats.disk_reads),
        ("dcache.not_found_reads", stats.not_found_reads),
        ("dcache.unavailable_reads", stats.unavailable_reads),
        ("dcache.bytes_read", stats.bytes_read),
        ("dcache.collected", stats.collected),
        ("dcache.puts", stats.puts),
        ("dcache.put_bytes", stats.put_bytes),
        ("dcache.repair.enqueued", repair.enqueued),
        ("dcache.repair.repaired_objects", repair.repaired_objects),
        ("dcache.repair.copies_restored", repair.copies_restored),
        ("dcache.repair.bytes", repair.repair_bytes),
        ("dcache.scrub.passes", repair.scrub_passes),
        ("dcache.scrub.copies", repair.scrubbed_copies),
        ("dcache.scrub.bytes", repair.scrub_bytes),
        ("dcache.corruptions_detected", repair.corruptions_detected),
        ("dcache.stale_copies_purged", repair.stale_copies_purged),
        ("dcache.master.rebuilds", repair.master_rebuilds),
        ("dcache.master.reindexed", repair.objects_reindexed),
        ("dcache.node_failures", 1),
        ("dcache.node_recoveries", 1),
    ];
    for (counter, expected) in checks {
        assert_eq!(
            snap.counter(counter),
            expected,
            "counter {counter} must equal the cache's own stat"
        );
    }
    for exercised in [
        "dcache.disk_reads",
        "dcache.not_found_reads",
        "dcache.unavailable_reads",
        "dcache.collected",
        "dcache.puts",
        "dcache.repair.copies_restored",
        "dcache.scrub.copies",
        "dcache.corruptions_detected",
        "dcache.stale_copies_purged",
        "dcache.master.reindexed",
        "recovery.lost_partitions",
        "recovery.cache_not_found",
        "recovery.read_retries",
    ] {
        assert!(snap.counter(exercised) > 0, "{exercised} must be exercised");
    }
}

#[test]
fn a_failed_run_closes_its_run_span() {
    // Job A's cache has no node 99, so its run #1 fails while applying
    // faults; job B shares A's sink and keeps running.
    let sink = TraceSink::enabled();
    let splits = make_splits(0, records(70), 5);
    let config = |faults: JobFaultPlan| {
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(3)
            .with_cache(CacheConfig::paper_defaults(4))
            .with_faults(faults)
            .with_trace(sink.clone())
    };
    let mut a = WindowedJob::new(
        Hct::new(),
        config(JobFaultPlan::none().fail_cache_node(1, 99)),
    )
    .expect("valid config");
    let mut b = WindowedJob::new(Hct::new(), config(JobFaultPlan::none())).expect("valid config");
    let mut completed = vec![
        a.initial_run(splits[..8].to_vec()).expect("initial A"),
        b.initial_run(splits[..8].to_vec()).expect("initial B"),
    ];
    assert!(
        a.advance(1, splits[8..9].to_vec()).is_err(),
        "A's run #1 fails"
    );
    completed.push(b.advance(1, splits[9..10].to_vec()).expect("slide B"));
    completed.push(b.advance(1, splits[10..11].to_vec()).expect("slide B"));

    let snap = sink.snapshot().expect("sink is enabled");
    let engine = snap
        .tracks
        .iter()
        .position(|t| t == "engine")
        .expect("engine track");
    let runs: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.track.0 == engine && s.kind == SpanKind::Run)
        .collect();
    assert_eq!(
        runs.len(),
        5,
        "two initial runs, A's failed run, two slides"
    );
    for span in runs {
        assert_eq!(
            span.parent, None,
            "{} (run {}) must not nest under another run",
            span.name, span.run
        );
    }
    // The failed run adds nothing to the counters.
    assert_counters_sum_runs(&snap, &completed, "two jobs, one failed run");
}

#[test]
fn perfbench_counters_are_nonzero_and_match_their_stats() {
    // `perfbench` derives per-layer metrics from these seven counters and
    // reads a missing one as 0, so each must be emitted under its name.
    // Node 0's failure before run 2 forces disk reads; losing partition
    // 1's memo before run 3 forces a not-found read.
    let partitions = 3usize;
    let sink = TraceSink::enabled();
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(partitions)
        .with_simulation(SimulationConfig::paper_defaults())
        .with_cache(CacheConfig::paper_defaults(4))
        .with_faults(
            JobFaultPlan::none()
                .fail_cache_node(2, 0)
                .lose_memo(3, vec![1]),
        )
        .with_trace(sink.clone());
    let mut job = WindowedJob::new(Hct::new(), config).expect("valid config");
    let splits = make_splits(0, records(70), 5);
    let mut runs = vec![job.initial_run(splits[..8].to_vec()).expect("initial")];
    for i in 0..4 {
        runs.push(
            job.advance(1, splits[8 + i..9 + i].to_vec())
                .expect("slide"),
        );
    }
    let snap = sink.snapshot().expect("sink is enabled");

    // Each run maps its new splits in one batch and edits its shards in
    // another.
    let tasks_run: usize = runs
        .iter()
        .flat_map(|s| s.sim.iter().chain(&s.sim_background))
        .map(|sim| sim.tasks_run)
        .sum();
    let expected: [(&str, u64); 7] = [
        ("runtime.batches", 2 * runs.len() as u64),
        (
            "runtime.items",
            runs.iter().map(|s| (s.map_tasks + partitions) as u64).sum(),
        ),
        (
            "dcache.memory_hits",
            runs.iter().map(|s| cache(s).memory_hits).sum(),
        ),
        (
            "dcache.disk_reads",
            runs.iter().map(|s| cache(s).disk_reads).sum(),
        ),
        (
            "dcache.not_found_reads",
            runs.iter().map(|s| cache(s).not_found_reads).sum(),
        ),
        (
            "dcache.put_bytes",
            runs.iter().map(|s| cache(s).put_bytes).sum(),
        ),
        ("cluster.tasks_run", tasks_run as u64),
    ];
    for (name, value) in expected {
        assert!(value > 0, "{name}: the scenario must exercise it");
        assert_eq!(snap.counter(name), value, "counter {name}");
    }
}

#[test]
fn pipeline_and_query_tracks_reconcile() {
    use slider_query::{AggFn, Query};

    let sink = TraceSink::enabled();
    let query = Query::load()
        .group_by(vec![0], vec![AggFn::Count])
        .group_by(vec![1], vec![AggFn::Count]);
    let mut exec = query
        .compile(
            JobConfig::new(ExecMode::slider_folding())
                .with_partitions(2)
                .with_trace(sink.clone()),
            4,
        )
        .expect("compiles");
    let data: Vec<slider_query::Row> = (0..40)
        .map(|i| {
            vec![
                slider_query::Field::Int(i % 5),
                slider_query::Field::Int(i % 3),
            ]
        })
        .collect();
    let mut runs = vec![exec
        .initial_run(make_splits(0, data[..30].to_vec(), 5))
        .unwrap()];
    runs.push(
        exec.advance(1, make_splits(100, data[30..].to_vec(), 5))
            .unwrap(),
    );

    let snap = sink.snapshot().expect("sink is enabled");
    for r in &runs {
        let run = Some(r.first.run);
        let inner_map: u64 = r.inner.iter().map(|s| s.map_work).sum();
        let inner_fg: u64 = r.inner.iter().map(|s| s.tree.foreground.work).sum();
        let inner_reduce: u64 = r.inner.iter().map(|s| s.reduce_work).sum();
        assert_eq!(
            snap.work_total("pipeline", SpanKind::Map, run),
            inner_map,
            "pipeline map work"
        );
        assert_eq!(
            snap.work_total("pipeline", SpanKind::ContractionFg, run),
            inner_fg,
            "pipeline contraction work"
        );
        assert_eq!(
            snap.work_total("pipeline", SpanKind::Reduce, run),
            inner_reduce,
            "pipeline reduce work"
        );
        let query_total = r.first.work.foreground_total()
            + r.inner
                .iter()
                .map(slider_mapreduce::InnerStageStats::total_work)
                .sum::<u64>();
        assert_eq!(
            snap.work_total("query", SpanKind::Stage, run),
            query_total,
            "query per-job work"
        );
    }
    assert_eq!(snap.counter("query.runs"), runs.len() as u64);

    // A second compile of the same query against the same sink would share
    // the tracer; outputs stay plain data either way.
    let rows: BTreeMap<String, String> = exec
        .rows()
        .iter()
        .map(|r| (format!("{:?}", r[0]), format!("{:?}", r[1])))
        .collect();
    assert!(!rows.is_empty());
}
