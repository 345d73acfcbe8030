//! Ablation: the self-healing memoization layer under cache faults.
//!
//! Replays the staggered-failure scenario from the integration suite at
//! benchmark scale (200-split window, 20 buckets, 5% slides) on a disk-only
//! cache: node 1 dies before run 1, a replica of partition 1's object is
//! corrupted before run 2, and node 2 dies before run 3.
//!
//! * repair **off**: the second failure takes out the last replica of the
//!   objects homed between the failed nodes — reads degrade to
//!   recomputation (`recomputed` > 0). Corrupt copies are still detected
//!   and never served (checksums are a safety property, not a knob), but
//!   no background healing happens.
//! * repair **+ scrub**: failures enqueue the under-replicated objects,
//!   placement re-homes every rewrite onto live nodes, and a periodic
//!   scrub walks the copies — so the second failure finds healed replicas
//!   and recomputation stays at zero. All healing cost lands in the
//!   background columns, off the foreground read path.
//! * fault-free, repair on: every self-healing column is zero — with no
//!   faults and no scrub cadence configured, the layer is free.
//!
//! Outputs are compared against a fault-free twin in every row; faults are
//! never allowed to change answers, only costs.

use slider_bench::datasets::{MicrobenchSpec, FIXED_BUCKETS, WINDOW_SPLITS};
use slider_bench::{banner, fmt_f64, hct_spec, substr_spec, Table};
use slider_dcache::CacheConfig;
use slider_mapreduce::{ExecMode, JobConfig, JobFaultPlan, MapReduceApp, RunStats, WindowedJob};
use slider_trace::ticks_to_seconds;

/// Cache-cluster size. Matching the partition count gives every partition's
/// object a distinct home, so the plan below can take out both persistent
/// replicas of one home's object across two runs.
const NODES: usize = 4;
/// Slides driven after the initial window (5% of the buckets each).
const SLIDES: usize = 4;
/// Scrub cadence for the self-healing configuration (every other run).
const SCRUB_INTERVAL: u64 = 2;

/// Node 1 dies before run 1, one replica of partition 1's object is
/// flipped before run 2, node 2 dies before run 3. With 4 nodes and 2
/// replicas, objects homed on node 0 replicate to exactly {1, 2}: without
/// repair the second failure orphans them; with repair every rewrite after
/// run 1 has already re-homed the lost copies.
fn fault_plan() -> JobFaultPlan {
    JobFaultPlan::none()
        .fail_cache_node(1, 1)
        .corrupt_object(2, 1, 2)
        .fail_cache_node(3, 2)
}

/// Disk-only cache (Table-2 style) so persistent-tier loss is visible:
/// with the memory tier on, the home node would mask replica failures.
fn cache_config(repair: bool) -> CacheConfig {
    let mut cache = CacheConfig::paper_defaults(NODES);
    cache.memory_enabled = false;
    if repair {
        cache = cache.with_repair();
    }
    cache
}

/// Runs the initial window plus `SLIDES` single-bucket slides and returns
/// the finished job with its per-run stats.
fn drive<A: MapReduceApp + Clone>(
    spec: &MicrobenchSpec<A>,
    cache: CacheConfig,
    plan: Option<JobFaultPlan>,
) -> (WindowedJob<A>, Vec<RunStats>) {
    let per_bucket = WINDOW_SPLITS / FIXED_BUCKETS;
    let mut config = JobConfig::new(ExecMode::slider_rotating(false))
        .with_partitions(NODES)
        .with_buckets(FIXED_BUCKETS, per_bucket)
        .with_cache(cache);
    if let Some(plan) = plan {
        config = config.with_faults(plan);
    }
    let mut job = WindowedJob::new(spec.app.clone(), config).expect("valid config");
    let mut stats = vec![job.initial_run(spec.initial.clone()).expect("initial run")];
    for i in 0..SLIDES {
        let fresh = spec.extra[i * per_bucket..(i + 1) * per_bucket].to_vec();
        stats.push(job.advance(per_bucket, fresh).expect("slide"));
    }
    (job, stats)
}

fn row(table: &mut Table, app: &str, config: &str, stats: &[RunStats], matches: bool) {
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>();
    let recomputed = sum(|s| s.recovery.cache_misses_recovered);
    let unavailable = sum(|s| s.recovery.cache_unavailable);
    let retries = sum(|s| s.recovery.read_retries);
    let enqueued = sum(|s| s.repair.enqueued);
    let corrupt = sum(|s| s.repair.corruptions_detected);
    let scrubbed = sum(|s| s.repair.scrubbed_copies);
    let bg_ns = sum(|s| s.repair.repair_ns + s.repair.scrub_ns);
    table.row(vec![
        app.to_string(),
        config.to_string(),
        recomputed.to_string(),
        unavailable.to_string(),
        retries.to_string(),
        enqueued.to_string(),
        corrupt.to_string(),
        scrubbed.to_string(),
        fmt_f64(ticks_to_seconds(bg_ns) * 1e3),
        if matches { "yes" } else { "NO" }.to_string(),
    ]);
}

fn sweep<A>(table: &mut Table, spec: &MicrobenchSpec<A>)
where
    A: MapReduceApp + Clone,
    A::Output: PartialEq,
{
    let (twin, _) = drive(spec, cache_config(false), None);

    let (clean, clean_stats) = drive(spec, cache_config(true), None);
    row(
        table,
        spec.name,
        "fault-free, repair on",
        &clean_stats,
        clean.output() == twin.output(),
    );

    let (degraded, degraded_stats) = drive(spec, cache_config(false), Some(fault_plan()));
    row(
        table,
        spec.name,
        "faults, repair off",
        &degraded_stats,
        degraded.output() == twin.output(),
    );

    let healed_cache = cache_config(true).with_scrub_interval(SCRUB_INTERVAL);
    let (healed, healed_stats) = drive(spec, healed_cache, Some(fault_plan()));
    row(
        table,
        spec.name,
        "faults, repair+scrub",
        &healed_stats,
        healed.output() == twin.output(),
    );
}

fn main() {
    banner("Ablation: self-healing repair under staggered cache faults");
    println!(
        "Disk-only cache, {NODES} nodes: node 1 fails before run 1, one replica \
         is corrupted before run 2, node 2 fails before run 3. 'recomputed' \
         counts fault-induced recomputation; enqueued/corrupt/scrubbed/bg meter \
         the self-healing layer's background work."
    );
    let mut table = Table::new(&[
        "app",
        "config",
        "recomputed",
        "unavailable",
        "retries",
        "enqueued",
        "corrupt",
        "scrubbed",
        "bg ms",
        "output ok",
    ]);
    sweep(&mut table, &hct_spec());
    sweep(&mut table, &substr_spec());
    println!("{}", table.render());
}
