//! Self-healing integration: re-replication, corruption detection, and
//! master rebuild end to end.
//!
//! The healing invariant on top of PR 2's recovery invariant: with at most
//! `replicas` concurrent cache-node failures and repair enabled, a faulted
//! run performs **zero** fault-induced recomputation and its outputs stay
//! bit-identical to the fault-free twin. All repair/scrub work is metered
//! in `RepairStats`, apart from foreground reads, so fault-free runs
//! report zero self-healing cost.

use slider_apps::Hct;
use slider_dcache::{CacheConfig, RepairStats};
use slider_mapreduce::{make_splits, ExecMode, JobConfig, JobFaultPlan, Split, WindowedJob};
use slider_workloads::text::{generate_documents, TextConfig};

fn varied_records(count: usize) -> Vec<String> {
    generate_documents(
        1,
        count,
        &TextConfig {
            vocabulary: 40,
            zipf_exponent: 1.0,
            words_per_doc: 6,
        },
    )
}

/// Disk-only cache (Table-2 style) so persistent-tier loss is visible:
/// with the memory tier on, the home node would mask replica failures.
fn disk_only_cache(repair: bool) -> CacheConfig {
    let mut cache = CacheConfig::paper_defaults(4);
    cache.memory_enabled = false;
    if repair {
        cache = cache.with_repair();
    }
    cache
}

fn job_with(cache: CacheConfig, plan: Option<JobFaultPlan>) -> WindowedJob<Hct> {
    let mut config = JobConfig::new(ExecMode::slider_rotating(false))
        .with_partitions(4)
        .with_buckets(8, 1)
        .with_cache(cache);
    if let Some(plan) = plan {
        config = config.with_faults(plan);
    }
    WindowedJob::new(Hct::new(), config).unwrap()
}

fn drive(
    job: &mut WindowedJob<Hct>,
    splits: &[Split<String>],
    runs: usize,
) -> Vec<slider_mapreduce::RunStats> {
    let mut all = vec![job.initial_run(splits[..8].to_vec()).unwrap()];
    for i in 0..runs {
        all.push(job.advance(1, splits[8 + i..9 + i].to_vec()).unwrap());
    }
    all
}

fn total_repair(stats: &[slider_mapreduce::RunStats]) -> RepairStats {
    let mut sum = RepairStats::default();
    for s in stats {
        sum.enqueued += s.repair.enqueued;
        sum.repaired_objects += s.repair.repaired_objects;
        sum.copies_restored += s.repair.copies_restored;
        sum.repair_bytes += s.repair.repair_bytes;
        sum.corruptions_detected += s.repair.corruptions_detected;
        sum.master_rebuilds += s.repair.master_rebuilds;
        sum.objects_reindexed += s.repair.objects_reindexed;
    }
    sum
}

/// The headline scenario: node 1 fails, repair heals the under-replicated
/// objects, then node 2 fails. With repair the second failure costs zero
/// recomputation; without it, partition 0's object (originally replicated
/// on exactly nodes 1 and 2) degrades to recompute-on-miss.
#[test]
fn repair_prevents_fault_induced_recomputation() {
    let splits = make_splits(0, varied_records(120), 5); // 24 splits
    let plan = JobFaultPlan::none()
        .fail_cache_node(1, 1)
        .fail_cache_node(3, 2);

    let mut twin = job_with(disk_only_cache(true), None);
    let mut healed = job_with(disk_only_cache(true), Some(plan.clone()));
    let mut degraded = job_with(disk_only_cache(false), Some(plan));

    let twin_stats = drive(&mut twin, &splits, 4);
    let healed_stats = drive(&mut healed, &splits, 4);
    let degraded_stats = drive(&mut degraded, &splits, 4);

    // Faults never change answers — healed or not.
    assert_eq!(healed.output(), twin.output(), "healed run diverged");
    assert_eq!(degraded.output(), twin.output(), "degraded run diverged");
    for (s, t) in healed_stats.iter().zip(&twin_stats) {
        assert_eq!(s.work, t.work, "run {}: faults changed modeled work", s.run);
    }

    // With repair: zero fault-induced recomputation across every run, and
    // the healing work is visible in RepairStats.
    for s in &healed_stats {
        assert!(
            s.recovery.is_zero(),
            "run {}: self-healing must avoid recomputation, got {:?}",
            s.run,
            s.recovery
        );
    }
    let healed_repair = total_repair(&healed_stats);
    assert!(
        healed_repair.enqueued >= 1,
        "node failures must enqueue under-replicated objects"
    );
    assert!(
        healed_stats.iter().any(|s| !s.repair.is_zero()),
        "RepairStats must be nonzero under this plan"
    );

    // Without repair the same plan degrades to recomputation: the object
    // whose two replicas sat exactly on the failed nodes reads
    // Unavailable (indexed but unreachable — the counter split in action).
    let degraded_recovery: u64 = degraded_stats
        .iter()
        .map(|s| s.recovery.cache_misses_recovered)
        .sum();
    assert!(
        degraded_recovery > 0,
        "without repair the second failure must force recomputation"
    );
    let unavailable: u64 = degraded_stats
        .iter()
        .map(|s| s.recovery.cache_unavailable)
        .sum();
    let not_found: u64 = degraded_stats
        .iter()
        .map(|s| s.recovery.cache_not_found)
        .sum();
    assert!(unavailable > 0, "the miss is an availability loss");
    assert_eq!(not_found, 0, "the object never left the index");
    assert_eq!(
        total_repair(&degraded_stats),
        RepairStats::default(),
        "repair disabled must do no background work"
    );
}

/// Corrupted copies are detected by read-path verification and never
/// served; the clean replica answers and nothing is recomputed.
#[test]
fn corruption_fails_over_to_a_clean_replica() {
    let splits = make_splits(0, varied_records(120), 5);
    // Partition 1's object lives on nodes 2 and 3; flip node 2's copy.
    let plan = JobFaultPlan::none().corrupt_object(2, 1, 2);
    let mut twin = job_with(disk_only_cache(true), None);
    let mut faulty = job_with(disk_only_cache(true).with_scrub_interval(1), Some(plan));

    let _ = drive(&mut twin, &splits, 4);
    let stats = drive(&mut faulty, &splits, 4);

    assert_eq!(faulty.output(), twin.output(), "corruption changed answers");
    for s in &stats {
        assert!(
            s.recovery.is_zero(),
            "run {}: failover to the clean replica is not recovery",
            s.run
        );
    }
    assert!(
        total_repair(&stats).corruptions_detected >= 1,
        "the flipped copy must be caught"
    );
    let run2 = &stats[2];
    assert!(
        run2.repair.corruptions_detected >= 1,
        "detection happens on the corrupted run's reads"
    );
    // The scrub cadence is metered as background work.
    assert!(stats.iter().all(|s| s.repair.scrub_passes == 1));
    assert!(stats.iter().any(|s| s.repair.scrubbed_copies > 0));
}

/// Corrupting every replica exhausts failover: the read degrades to
/// recomputation (the last resort) — but still never serves bad data and
/// never changes the output.
#[test]
fn corrupting_every_replica_recomputes_as_last_resort() {
    let splits = make_splits(0, varied_records(120), 5);
    let plan = JobFaultPlan::none()
        .corrupt_object(2, 1, 2)
        .corrupt_object(2, 1, 3);
    let mut twin = job_with(disk_only_cache(true), None);
    let mut faulty = job_with(disk_only_cache(true), Some(plan));

    let _ = drive(&mut twin, &splits, 4);
    let stats = drive(&mut faulty, &splits, 4);

    assert_eq!(faulty.output(), twin.output(), "corruption changed answers");
    let run2 = &stats[2];
    assert_eq!(run2.repair.corruptions_detected, 2, "both copies caught");
    assert_eq!(run2.recovery.cache_misses_recovered, 1);
    assert_eq!(run2.recovery.cache_unavailable, 1);
    assert!(
        run2.recovery.read_retries > 0 && run2.recovery.backoff_ns > 0,
        "unavailable reads retry with backoff before giving up"
    );
    // The re-put after recomputation heals the object for later runs.
    assert!(stats[3].recovery.is_zero() && stats[4].recovery.is_zero());
}

/// Losing the master index is survivable: the index rebuilds
/// deterministically from the node inventories and the run proceeds with
/// zero recomputation.
#[test]
fn master_loss_rebuilds_from_node_inventories() {
    let splits = make_splits(0, varied_records(120), 5);
    let plan = JobFaultPlan::none().lose_master(2);
    let base_cache = || CacheConfig::paper_defaults(4).with_repair();
    let mut twin = job_with(base_cache(), None);
    let mut faulty = job_with(base_cache(), Some(plan));

    let _ = drive(&mut twin, &splits, 4);
    let stats = drive(&mut faulty, &splits, 4);

    assert_eq!(
        faulty.output(),
        twin.output(),
        "master loss changed answers"
    );
    let run2 = &stats[2];
    assert_eq!(run2.repair.master_rebuilds, 1);
    assert!(
        run2.repair.objects_reindexed >= 1,
        "the index must come back from the disks"
    );
    for s in &stats {
        assert!(
            s.recovery.is_zero(),
            "run {}: a rebuilt index needs no recomputation",
            s.run
        );
    }
}

/// Fault-free runs pay nothing for self-healing: every run reports a zero
/// `RepairStats` and the full per-run stats are bit-identical with the
/// feature on and off.
#[test]
fn fault_free_runs_pay_zero_self_healing_cost() {
    let splits = make_splits(0, varied_records(120), 5);
    let mut with_repair = job_with(CacheConfig::paper_defaults(4).with_repair(), None);
    let mut without = job_with(CacheConfig::paper_defaults(4), None);

    let on = drive(&mut with_repair, &splits, 4);
    let off = drive(&mut without, &splits, 4);

    assert_eq!(with_repair.output(), without.output());
    for (s, t) in on.iter().zip(&off) {
        assert!(
            s.repair.is_zero(),
            "run {}: fault-free self-healing cost must be zero, got {:?}",
            s.run,
            s.repair
        );
        assert_eq!(
            format!("{s:?}"),
            format!("{t:?}"),
            "run {}: repair knob changed fault-free stats",
            s.run
        );
    }
}
