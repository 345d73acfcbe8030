//! Cross-crate integration for the `slider-trace` observability subsystem.
//!
//! The load-bearing invariants:
//!
//! * **Exact reconciliation** — span totals on every track equal the
//!   engine's own statistics (`WorkBreakdown`, `RecoveryStats`,
//!   `RepairStats`, `SimReport`), per run, for every execution mode and
//!   thread count. Not approximately: work and simulated time are both
//!   `u64` sums.
//! * **One source of counts** — every `engine.*`, `recovery.*`,
//!   `cluster.*` and `dcache.*` counter is the sum of one `RunStats` field
//!   over the runs that completed, and every `serve.*` counter the sum of
//!   one `TenantStats` field over the tenants; pinned hashes of the
//!   counter registries catch a count that moves.
//! * **Zero observable overhead** — enabling tracing leaves job outputs
//!   and `RunStats` bit-identical to an untraced run.
//! * **Determinism** — the three profile exports are byte-identical for
//!   any `threads` value, because the virtual clock counts modeled work,
//!   never wall time.

use std::collections::BTreeMap;

use slider_apps::Hct;
use slider_cluster::{ClusterSpec, CostModel, MachineSpec, SchedulerPolicy, SimReport};
use slider_dcache::{CacheConfig, CacheStats, GcPolicy};
use slider_mapreduce::{
    make_splits, stable_hash, EngineShared, EventTimeConfig, ExecMode, JobConfig, JobFaultPlan,
    RunStats, SimulationConfig, Stamped, TraceSink, WindowedJob,
};
use slider_query::{AggFn, Field, Query, QueryExecutor, QueryRunStats, Row};
use slider_serve::{
    BreakerConfig, Decision, DispatchFaultPlan, OverloadConfig, RateLimit, ServeStats,
    ServiceRuntime, TenantSpec, TenantStats,
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

/// The run's foreground and background schedules.
fn schedules(s: &RunStats) -> impl Iterator<Item = &SimReport> {
    s.sim.iter().chain(&s.sim_background)
}

/// Every `engine.*`, `recovery.*`, `cluster.*` and `dcache.*` counter
/// with the `RunStats` field it sums.
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
    ("cluster.tasks_run", |s| {
        schedules(s).map(|sim| sim.tasks_run as u64).sum()
    }),
    ("cluster.retried_tasks", |s| {
        schedules(s).map(|sim| sim.retried_tasks).sum()
    }),
    ("cluster.speculative_tasks", |s| {
        schedules(s).map(|sim| sim.speculative_tasks).sum()
    }),
    ("cluster.migrations", |s| {
        schedules(s).map(|sim| sim.migrations).sum()
    }),
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
        if ["engine.", "recovery.", "cluster.", "dcache."]
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

/// Runs a cached, simulated rotating job through memo loss, a cache-node
/// failure, a corrupt copy and a machine crash, tracing into `sink`.
/// Returns the per-run stats.
fn faulted_cached_job(sink: &TraceSink) -> Vec<RunStats> {
    let plan = JobFaultPlan::none()
        .lose_memo(1, vec![0, 2])
        .fail_cache_node(2, 1)
        .corrupt_object(2, 0, 2)
        .crash(3, 0, 0.2);
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
    stats
}

#[test]
fn recovery_and_repair_tracks_reconcile_under_faults() {
    let sink = TraceSink::enabled();
    let stats = faulted_cached_job(&sink);
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
        // Each re-replication leaf on the dcache track carries the bytes
        // it copied.
        assert_eq!(
            snap.arg_total("dcache", SpanKind::Repair, "bytes", run),
            s.repair.repair_bytes,
            "run {}: repair bytes",
            s.run
        );
    }
    assert!(
        stats.iter().any(|s| s.repair.repair_bytes > 0),
        "the fault plan must re-replicate a copy"
    );
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
    // Job A's plan fails its run #1; job B shares A's sink and keeps
    // running.
    let sink = TraceSink::enabled();
    let splits = make_splits(0, records(70), 5);
    let config = |faults: JobFaultPlan| {
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(3)
            .with_cache(CacheConfig::paper_defaults(4))
            .with_faults(faults)
            .with_trace(sink.clone())
    };
    let mut a = WindowedJob::new(Hct::new(), config(JobFaultPlan::none().fail_run(1)))
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
        .flat_map(schedules)
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

/// Compiles a two-job query (two chained `group_by`s) traced into `sink`
/// and runs an initial window and one slide. Returns the executor and the
/// per-run stats.
fn two_job_query(sink: &TraceSink) -> (QueryExecutor, Vec<QueryRunStats>) {
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
    let data: Vec<Row> = (0..40)
        .map(|i| vec![Field::Int(i % 5), Field::Int(i % 3)])
        .collect();
    let mut runs = vec![exec
        .initial_run(make_splits(0, data[..30].to_vec(), 5))
        .unwrap()];
    runs.push(
        exec.advance(1, make_splits(100, data[30..].to_vec(), 5))
            .unwrap(),
    );
    (exec, runs)
}

#[test]
fn query_runs_reconcile_with_engine_and_pipeline_tracks() {
    let sink = TraceSink::enabled();
    let (exec, runs) = two_job_query(&sink);
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
        // The first job's foreground work is on the engine track and the
        // inner jobs' on the pipeline track: together, the query's work.
        let engine: u64 = [
            SpanKind::Map,
            SpanKind::ContractionFg,
            SpanKind::Reduce,
            SpanKind::Movement,
        ]
        .map(|kind| snap.work_total("engine", kind, run))
        .iter()
        .sum();
        assert_eq!(
            engine + inner_map + inner_fg + inner_reduce,
            r.total_work(),
            "query work"
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

/// Drives a service on one engine with a cache, a clock and simulation
/// through every per-request outcome: admitted requests, each reject kind,
/// a retried dispatch, an exhausted dispatch that trips a breaker, and a
/// deregistration. Returns the service, the departed tenant's final stats
/// and the decisions in request order (`None` for the failed dispatch).
fn serve_every_outcome(
    sink: &TraceSink,
) -> (ServiceRuntime<Hct>, TenantStats, Vec<Option<Decision>>) {
    let shared = EngineShared::builder()
        .cache(CacheConfig::paper_defaults(4))
        .clock()
        .faults(JobFaultPlan::none().with_speculation())
        .trace(sink.clone())
        .build();
    let mut service = ServiceRuntime::new(shared)
        .with_overload(OverloadConfig::new(6, 1_000))
        .expect("valid overload config");
    let event = EventTimeConfig {
        epoch_len: 10,
        records_per_split: 2,
        window_epochs: Some(2),
        lateness: 0,
    };
    // Two one-slot workers, one straggling, and a hybrid scheduler that
    // migrates a task as soon as its preferred worker is busy: the healthy
    // worker steals the straggler's reduces and duplicates its last ones.
    let worker = |speed| MachineSpec {
        map_slots: 1,
        reduce_slots: 1,
        speed,
    };
    let sim = SimulationConfig {
        cluster: ClusterSpec {
            machines: vec![worker(1.0), worker(0.000_01)],
            cost: CostModel::paper_defaults(),
        },
        policy: SchedulerPolicy::Hybrid {
            migration_threshold: 0.0,
        },
    };
    let spec = |name: &str| {
        TenantSpec::new(name, ExecMode::slider_folding(), event)
            .with_partitions(4)
            .with_simulation(sim.clone())
    };
    let steady = service
        .register(
            Hct::new(),
            spec("steady")
                .with_max_request_records(4)
                .with_rate_limit(RateLimit::new(3, 1_000))
                .with_record_quota(10),
        )
        .expect("register");
    let flaky = service
        .register(
            Hct::new(),
            spec("flaky")
                .with_breaker(BreakerConfig {
                    failure_threshold: 1,
                    cooldown_ticks: 10,
                    ..BreakerConfig::default()
                })
                // Dispatch 0 recovers on its one retry; dispatch 1 fails
                // more attempts than the retry budget allows.
                .with_dispatch_faults(DispatchFaultPlan::new().fail(0, 1).fail(1, 9)),
        )
        .expect("register");
    let low = service
        .register(Hct::new(), spec("low").with_priority(0))
        .expect("register");
    let budget = service
        .register(Hct::new(), spec("budget").with_pressure_budget(1))
        .expect("register");
    let lines = |times: &[u64]| -> Vec<Stamped<String>> {
        times
            .iter()
            .map(|&t| Stamped::new(t, t, format!("w{} w{}", t % 7, t % 3)))
            .collect()
    };
    let requests = [
        (steady, 0, lines(&[0, 5, 12, 18])),
        (steady, 1, lines(&[20, 21, 22, 23, 24])),
        (steady, 2, lines(&[25, 31, 38, 44])),
        (steady, 3, lines(&[45, 46, 47])),
        (steady, 4, lines(&[52, 61])),
        (steady, 5, lines(&[70])),
        (flaky, 6, lines(&[0, 15, 27])),
        (flaky, 7, lines(&[30])),
        (flaky, 8, lines(&[31])),
        (low, 9, lines(&[0])),
        (budget, 10, lines(&[0, 1])),
    ];
    let mut decisions = Vec::new();
    for (id, arrival, records) in requests {
        decisions.push(
            service
                .ingest(id, arrival, records)
                .ok()
                .map(|out| out.decision),
        );
    }
    let departed = service.deregister(steady).expect("deregister").stats;
    (service, departed, decisions)
}

/// The spans of every `tenant:<name>` track, as hashable tuples.
fn tenant_leaves(snap: &TraceSnapshot) -> Vec<(String, String, SpanKind, u64, u64, u64, u64)> {
    snap.spans
        .iter()
        .filter(|s| snap.tracks[s.track.0].starts_with("tenant:"))
        .map(|s| {
            (
                snap.tracks[s.track.0].clone(),
                s.name.clone(),
                s.kind,
                s.run,
                s.start,
                s.end,
                s.work,
            )
        })
        .collect()
}

/// Pins the counter registries of a served request mix, a faulted cached
/// job and a two-job query, and the served tenants' track leaves, by hash:
/// moving where a counter is written must not move any count.
#[test]
fn counter_registries_match_their_pinned_hashes() {
    let serve_sink = TraceSink::enabled();
    let (_, _, decisions) = serve_every_outcome(&serve_sink);
    let job_sink = TraceSink::enabled();
    faulted_cached_job(&job_sink);
    let query_sink = TraceSink::enabled();
    two_job_query(&query_sink);
    let snaps = [&serve_sink, &job_sink, &query_sink].map(|s| s.snapshot().expect("enabled"));

    let kinds: Vec<&str> = decisions
        .iter()
        .map(|d| match d {
            None => "failed",
            Some(Decision::Admitted { .. }) => "admitted",
            Some(Decision::TooLarge { .. }) => "too-large",
            Some(Decision::RateLimited { .. }) => "rate-limited",
            Some(Decision::OverQuota { .. }) => "over-quota",
            Some(Decision::BreakerOpen { .. }) => "breaker-open",
            Some(Decision::DeadlineExceeded { .. }) => "deadline",
            Some(Decision::Shed { .. }) => "shed",
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "admitted",
            "too-large",
            "admitted",
            "over-quota",
            "admitted",
            "rate-limited",
            "admitted",
            "failed",
            "breaker-open",
            "shed",
            "deadline",
        ]
    );
    for name in [
        "serve.requests",
        "serve.request",
        "serve.reject:too-large",
        "serve.reject:rate-limited",
        "serve.reject:over-quota",
        "serve.reject:breaker-open",
        "serve.reject:deadline",
        "serve.reject:shed",
        "serve.dispatch-retry",
        "serve.dispatch-failed",
        "serve.breaker-trip",
        "serve.deregistered",
        "cluster.tasks_run",
        "cluster.retried_tasks",
        "cluster.speculative_tasks",
        "cluster.migrations",
    ] {
        assert!(
            snaps.iter().any(|snap| snap.counter(name) > 0),
            "{name} must be exercised"
        );
    }

    let hashes = [
        stable_hash(&snaps[0].counters),
        stable_hash(&tenant_leaves(&snaps[0])),
        stable_hash(&snaps[1].counters),
        stable_hash(&snaps[2].counters),
    ];
    assert_eq!(
        hashes,
        [
            0xd717_ad1d_c48c_1849,
            0xcbad_019c_a9b5_f26a,
            0x8a29_ca27_6998_b4a1,
            0xa186_dfe7_a017_ddd7,
        ],
        "served, tenant leaves, job, query"
    );
}

/// Every `serve.*` counter equals its `TenantStats` field summed over the
/// live and the departed tenants, and `ServeStats` is that sum field by
/// field: the roll-up and the counters are both folded from the tenants'
/// own stats.
#[test]
fn serve_counters_and_roll_up_equal_the_tenant_sums() {
    let sink = TraceSink::enabled();
    let (service, departed, _) = serve_every_outcome(&sink);
    let live = service
        .tenants()
        .into_iter()
        .map(|(id, _)| *service.tenant_stats(id).expect("live"));
    let mut sum = ServeStats {
        tenants_registered: 4,
        tenants_deregistered: 1,
        ..ServeStats::default()
    };
    for t in live.chain([departed]) {
        sum.requests += t.requests;
        sum.admitted += t.admitted;
        sum.rate_limited += t.rate_limited;
        sum.over_quota += t.over_quota;
        sum.too_large += t.too_large;
        sum.breaker_open += t.breaker_open;
        sum.shed += t.shed;
        sum.deadline_exceeded += t.deadline_exceeded;
        sum.dispatch_failures += t.dispatch_failures;
        sum.dispatch_retries += t.dispatch_retries;
        sum.breaker_trips += t.breaker_trips;
        sum.records_admitted += t.records_admitted;
        sum.records_rejected += t.records_rejected;
        sum.runs += t.runs;
        sum.work_foreground += t.work_foreground;
        sum.work_grand += t.work_grand;
    }
    assert_eq!(*service.serve_stats(), sum);

    let snap = sink.snapshot().expect("sink is enabled");
    let counters = [
        ("serve.requests", sum.requests),
        ("serve.request", sum.admitted - sum.dispatch_failures),
        ("serve.reject:too-large", sum.too_large),
        ("serve.reject:rate-limited", sum.rate_limited),
        ("serve.reject:over-quota", sum.over_quota),
        ("serve.reject:breaker-open", sum.breaker_open),
        ("serve.reject:deadline", sum.deadline_exceeded),
        ("serve.reject:shed", sum.shed),
        ("serve.dispatch-retry", sum.dispatch_retries),
        ("serve.dispatch-failed", sum.dispatch_failures),
        ("serve.breaker-trip", sum.breaker_trips),
        ("serve.deregistered", sum.tenants_deregistered),
    ];
    for (name, expected) in counters {
        assert!(expected > 0, "{name}: the scenario must exercise it");
        assert_eq!(snap.counter(name), expected, "counter {name}");
    }
    for (name, _) in &snap.counters {
        if name.starts_with("serve.") {
            assert!(
                counters.iter().any(|(known, _)| known == name),
                "counter {name} has no stats field"
            );
        }
    }
}
