//! Per-run statistics folded over the measured phase, trace counters, and
//! the per-layer metrics every workload reports.

use std::collections::BTreeMap;

use slider_mapreduce::{EventTimeStats, RunStats, TraceSink};

use crate::measure::{percentile, secs};
use crate::Report;

/// Tree kinds of the `serve_tenants` tenants; suffixes of the per-kind
/// core metrics.
pub(crate) const KINDS: [&str; 4] = ["folding", "daba", "strawman", "randomized"];

/// Per-layer metric names, in `BENCHMARK.json` order. Every traced run
/// reports all of them; a layer a workload bypasses reads 0. `run.py`
/// fills the `alloc.*`, `raw.*` and `host.*` metrics, the wall shares and
/// the trace overhead from its other passes.
pub const PER_LAYER: &[&str] = &[
    "serve.buffer_ingest_p50_us",
    "serve.query_p50_us",
    "serve.admitted_ratio",
    "serve.runs_per_request",
    "event.late_admitted_ratio",
    "event.late_dropped",
    "event.splice_runs_per_poll",
    "event.buffered_records_p50",
    "windowed.map_work_per_record",
    "windowed.reduce_work_per_record",
    "windowed.movement_work_per_record",
    "windowed.shuffle_bytes_per_record",
    "windowed.keys_reduced_per_run",
    "windowed.memo_footprint_mb",
    "runtime.batches_per_run",
    "runtime.items_per_batch",
    "runtime.map_call_2w_us",
    "runtime.parallel_efficiency",
    "core.merges_per_slide_p50",
    "core.merges_per_slide_p99",
    "core.merges_per_slide_max",
    "core.merges_per_slide_p50.folding",
    "core.merges_per_slide_p99.folding",
    "core.merges_per_slide_max.folding",
    "core.merges_per_slide_p50.daba",
    "core.merges_per_slide_p99.daba",
    "core.merges_per_slide_max.daba",
    "core.merges_per_slide_p50.strawman",
    "core.merges_per_slide_p99.strawman",
    "core.merges_per_slide_max.strawman",
    "core.merges_per_slide_p50.randomized",
    "core.merges_per_slide_p99.randomized",
    "core.merges_per_slide_max.randomized",
    "core.nodes_reused_per_slide",
    "core.contraction_work_per_record",
    "core.wall_us_per_merge.folding",
    "core.wall_us_per_merge.daba",
    "core.wall_us_per_merge.strawman",
    "core.wall_us_per_merge.randomized",
    "alloc.allocs_per_record",
    "alloc.bytes_per_record",
    "dcache.memory_hit_ratio",
    "dcache.disk_reads_per_run",
    "dcache.put_bytes_per_run",
    "dcache.wall_share",
    "cluster.tasks_per_run",
    "cluster.makespan_s_per_run",
    "cluster.wall_share",
    "join.probes_per_record",
    "join.probe_work_per_record",
    "join.side_work_per_record",
    "join.pairs_changed_per_poll",
    "trace.overhead_ratio",
    "update_p99_ms",
    "update_max_ms",
    "update_samples",
    "self_share.client",
    "self_share.ingest",
    "self_share.query",
    "self_share.ingest_left",
    "self_share.ingest_right",
    "self_share.poll",
    "raw.records_per_s",
    "raw.cpu_us_per_record",
    "raw.update_p50_ms",
    "raw.update_p90_ms",
    "raw.setup_s",
    "host.speed_factor",
];

/// The deterministic subset of [`RunStats`], folded over runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunTally {
    pub runs: u64,
    /// Foreground merges of each run, in run order.
    pub merges: Vec<u64>,
    pub nodes_reused: u64,
    pub map_work: u64,
    pub reduce_work: u64,
    pub movement_work: u64,
    pub contraction_work: u64,
    pub shuffle_bytes: u64,
    pub keys_reduced: u64,
    /// Simulated makespan summed over runs, seconds.
    pub makespan_s: f64,
}

impl RunTally {
    pub fn absorb(&mut self, run: &RunStats) {
        self.runs += 1;
        self.merges.push(run.work.contraction_fg.merges);
        self.nodes_reused += run.nodes_reused;
        self.map_work += run.work.map;
        self.reduce_work += run.work.reduce;
        self.movement_work += run.work.movement;
        self.contraction_work += run.work.contraction_fg.work;
        self.shuffle_bytes += run.shuffle_bytes;
        self.keys_reduced += run.keys_reduced as u64;
        self.makespan_s += run.time_seconds().unwrap_or(0.0);
    }

    pub fn extend(&mut self, other: &RunTally) {
        self.runs += other.runs;
        self.merges.extend_from_slice(&other.merges);
        self.nodes_reused += other.nodes_reused;
        self.map_work += other.map_work;
        self.reduce_work += other.reduce_work;
        self.movement_work += other.movement_work;
        self.contraction_work += other.contraction_work;
        self.shuffle_bytes += other.shuffle_bytes;
        self.keys_reduced += other.keys_reduced;
        self.makespan_s += other.makespan_s;
    }

    pub fn merges_total(&self) -> u64 {
        self.merges.iter().sum()
    }

    /// Per-slide merge percentile `q`.
    pub fn merges_at(&self, q: f64) -> f64 {
        let merges: Vec<f64> = self.merges.iter().map(|&m| m as f64).collect();
        percentile(&merges, q)
    }

    /// Adds this tally's counts to `out`, each name prefixed by `prefix`.
    pub fn counts(&self, prefix: &str, out: &mut BTreeMap<String, u64>) {
        let mut put = |name: &str, value: u64| {
            out.insert(format!("{prefix}{name}"), value);
        };
        put("runs", self.runs);
        put("merges", self.merges_total());
        put("merges_max", self.merges.iter().copied().max().unwrap_or(0));
        put("nodes_reused", self.nodes_reused);
        put("map_work", self.map_work);
        put("reduce_work", self.reduce_work);
        put("movement_work", self.movement_work);
        put("contraction_work", self.contraction_work);
        put("shuffle_bytes", self.shuffle_bytes);
        put("keys_reduced", self.keys_reduced);
    }
}

/// Adds an [`EventTimeStats`]'s counters to `out` under `prefix`.
pub(crate) fn event_counts(prefix: &str, s: &EventTimeStats, out: &mut BTreeMap<String, u64>) {
    for (name, value) in [
        ("ingested", s.ingested),
        ("late_admitted", s.late_admitted),
        ("late_dropped", s.late_dropped),
        ("epochs_closed", s.epochs_closed),
        ("epochs_evicted", s.epochs_evicted),
        ("splice_runs", s.splice_runs),
    ] {
        out.insert(format!("{prefix}{name}"), value);
    }
}

/// `a + b`, counter by counter.
pub(crate) fn event_sum(a: EventTimeStats, b: EventTimeStats) -> EventTimeStats {
    EventTimeStats {
        ingested: a.ingested + b.ingested,
        late_admitted: a.late_admitted + b.late_admitted,
        late_dropped: a.late_dropped + b.late_dropped,
        epochs_closed: a.epochs_closed + b.epochs_closed,
        epochs_evicted: a.epochs_evicted + b.epochs_evicted,
        splice_runs: a.splice_runs + b.splice_runs,
    }
}

/// `after - before`, counter by counter.
pub(crate) fn event_delta(after: EventTimeStats, before: EventTimeStats) -> EventTimeStats {
    EventTimeStats {
        ingested: after.ingested - before.ingested,
        late_admitted: after.late_admitted - before.late_admitted,
        late_dropped: after.late_dropped - before.late_dropped,
        epochs_closed: after.epochs_closed - before.epochs_closed,
        epochs_evicted: after.epochs_evicted - before.epochs_evicted,
        splice_runs: after.splice_runs - before.splice_runs,
    }
}

/// The deterministic trace's counters so far (empty when tracing is off).
pub(crate) fn trace_counters(trace: &TraceSink) -> BTreeMap<String, u64> {
    trace.with(|t| t.counters().clone()).unwrap_or_default()
}

/// `after - before`, counter by counter.
pub(crate) fn counter_delta(
    after: &BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median wall time of one `Runtime::map` call at two workers over
/// `items` items with a trivial closure, in microseconds.
pub(crate) fn map_call_2w_us(items: usize, spans: &mut crate::measure::Spans) -> f64 {
    const CALLS: usize = 400;
    let runtime = slider_mapreduce::Runtime::new(2);
    let input: Vec<u64> = (0..items as u64).collect();
    let mut samples = Vec::with_capacity(CALLS);
    for call in 0..CALLS {
        let t = std::time::Instant::now();
        let out = spans.time("runtime.map", call as u64, None, || {
            runtime.map(&input, |_, &x| std::hint::black_box(x + 1))
        });
        samples.push(secs(t) * 1e6);
        std::hint::black_box(out);
    }
    percentile(&samples, 0.5)
}

/// Fills the per-layer metrics every workload derives the same way: the
/// windowed, runtime, core, alloc, dcache and cluster layers, the update
/// tail, and the span self-time shares. `trace` holds the measured
/// phase's trace counter deltas.
pub(crate) fn fill_common(report: &mut Report, tally: &RunTally, trace: &BTreeMap<String, u64>) {
    let records = report.records as f64;
    let runs = tally.runs as f64;
    let counter = |name: &str| trace.get(name).copied().unwrap_or(0) as f64;
    let updates_ms: Vec<f64> = report
        .times(&report.updates, true)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let layer = &mut report.layer;
    let mut set = |name: &str, value: f64| {
        layer.insert(name.to_string(), value);
    };
    set(
        "windowed.map_work_per_record",
        ratio(tally.map_work as f64, records),
    );
    set(
        "windowed.reduce_work_per_record",
        ratio(tally.reduce_work as f64, records),
    );
    set(
        "windowed.movement_work_per_record",
        ratio(tally.movement_work as f64, records),
    );
    set(
        "windowed.shuffle_bytes_per_record",
        ratio(tally.shuffle_bytes as f64, records),
    );
    set(
        "windowed.keys_reduced_per_run",
        ratio(tally.keys_reduced as f64, runs),
    );
    set(
        "runtime.batches_per_run",
        ratio(counter("runtime.batches"), runs),
    );
    set(
        "runtime.items_per_batch",
        ratio(counter("runtime.items"), counter("runtime.batches")),
    );
    // Every workload runs one worker.
    set(
        "runtime.parallel_efficiency",
        ratio(report.cpu_s, report.wall_s),
    );
    set("core.merges_per_slide_p50", tally.merges_at(0.5));
    set("core.merges_per_slide_p99", tally.merges_at(0.99));
    set("core.merges_per_slide_max", tally.merges_at(1.0));
    set(
        "core.nodes_reused_per_slide",
        ratio(tally.nodes_reused as f64, runs),
    );
    set(
        "core.contraction_work_per_record",
        ratio(tally.contraction_work as f64, records),
    );
    set(
        "alloc.allocs_per_record",
        ratio(report.allocs.0 as f64, records),
    );
    set(
        "alloc.bytes_per_record",
        ratio(report.allocs.1 as f64, records),
    );
    let reads = counter("dcache.memory_hits") + counter("dcache.disk_reads");
    set(
        "dcache.memory_hit_ratio",
        ratio(
            counter("dcache.memory_hits"),
            reads + counter("dcache.not_found_reads"),
        ),
    );
    set(
        "dcache.disk_reads_per_run",
        ratio(counter("dcache.disk_reads"), runs),
    );
    set(
        "dcache.put_bytes_per_run",
        ratio(counter("dcache.put_bytes"), runs),
    );
    set(
        "cluster.tasks_per_run",
        ratio(counter("cluster.tasks_run"), runs),
    );
    set("cluster.makespan_s_per_run", ratio(tally.makespan_s, runs));
    set("update_p99_ms", percentile(&updates_ms, 0.99));
    set("update_max_ms", percentile(&updates_ms, 1.0));
    set("update_samples", updates_ms.len() as f64);
    let wall = report.wall_s;
    for (name, own) in &report.self_s {
        let key = format!("self_share.{name}");
        if PER_LAYER.contains(&key.as_str()) {
            layer.insert(key, ratio(*own, wall));
        }
    }
    for (name, value) in trace {
        report.counts.insert(format!("trace.{name}"), *value);
    }
    tally.counts("tally.", &mut report.counts);
}
