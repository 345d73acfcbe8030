//! Fault-injection integration: the recovery invariant end to end.
//!
//! For any scripted fault plan — machine crashes mid-stage, forced
//! memo-cache loss, straggler slowdowns with speculation — a windowed job
//! must produce outputs bit-identical to its fault-free twin. Only the
//! work/time metrics may move, and recovery work must be metered apart
//! from regular work.

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    make_splits, ExecMode, JobConfig, JobFaultPlan, SimulationConfig, Split, WindowedJob,
};
use slider_trace::ticks_to_seconds;
use slider_workloads::text::{generate_documents, TextConfig};

/// Records with *uniform* per-split work so every simulated map task has
/// the same duration: a crash at half the map-stage duration is then
/// guaranteed to land mid-flight on whichever machine it targets.
fn uniform_records(count: usize) -> Vec<String> {
    vec!["alpha beta gamma delta epsilon".to_string(); count]
}

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

fn job(config: JobConfig) -> WindowedJob<Hct> {
    WindowedJob::new(Hct::new(), config).unwrap()
}

#[test]
fn machine_crash_mid_stage_recovers_with_identical_outputs() {
    let splits = make_splits(0, uniform_records(100), 5); // 20 splits
    let base = || {
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_buckets(20, 1)
            .with_simulation(SimulationConfig::paper_defaults())
    };

    // Fault-free twin first: its map-stage duration tells us when "mid
    // stage" is.
    let mut twin = job(base());
    let twin_s0 = twin.initial_run(splits.clone()).unwrap();
    let crash_at = ticks_to_seconds(twin_s0.map_ns().expect("simulation configured")) * 0.5;
    assert!(crash_at > 0.0, "map stage must take simulated time");

    // Machine 1 runs one of the 20 equal-duration maps from t=0; killing
    // it at half the stage duration interrupts that attempt mid-flight.
    let plan = JobFaultPlan::none().crash(0, 1, crash_at);
    let mut faulty = job(base().with_faults(plan));
    let s0 = faulty.initial_run(splits).unwrap();

    assert_eq!(faulty.output(), twin.output(), "crash changed the output");
    assert_eq!(
        s0.work, twin_s0.work,
        "crashes must not change modeled work"
    );
    let sim = s0.sim.as_ref().expect("simulation configured");
    let twin_sim = twin_s0.sim.as_ref().unwrap();
    assert!(sim.retried_tasks >= 1, "the killed attempt must be retried");
    assert!(
        sim.recovery_ns > 0,
        "the interrupted attempt's partial run is recovery time"
    );
    assert!(
        sim.makespan_ns >= twin_sim.makespan_ns,
        "recovery cannot make the run faster ({} vs {})",
        sim.makespan_ns,
        twin_sim.makespan_ns
    );

    // The next run is fault-free again and must match the twin exactly —
    // crashed machines do not leak across runs.
    let adds = make_splits(1000, uniform_records(5), 5);
    let s1 = faulty.advance(1, adds.clone()).unwrap();
    let twin_s1 = twin.advance(1, adds).unwrap();
    assert_eq!(faulty.output(), twin.output());
    assert_eq!(format!("{s1:?}"), format!("{twin_s1:?}"));
}

#[test]
fn memo_loss_and_cache_failover_recover_with_identical_outputs() {
    let records = varied_records(120);
    let splits = make_splits(0, records, 5); // 24 splits
    let plan = JobFaultPlan::none()
        .fail_cache_node(1, 0)
        .lose_memo(2, vec![1])
        .recover_cache_node(3, 0);
    let base = || {
        JobConfig::new(ExecMode::slider_rotating(false))
            .with_partitions(4)
            .with_buckets(8, 1)
            .with_cache(CacheConfig::paper_defaults(4))
    };
    let mut faulty = job(base().with_faults(plan));
    let mut twin = job(base());

    faulty.initial_run(splits[..8].to_vec()).unwrap();
    twin.initial_run(splits[..8].to_vec()).unwrap();

    let advance = |j: &mut WindowedJob<Hct>, i: usize| {
        let adds: Vec<Split<String>> = splits[8 + i..9 + i].to_vec();
        j.advance(1, adds).unwrap()
    };

    for run in 1..=4usize {
        let s = advance(&mut faulty, run - 1);
        let t = advance(&mut twin, run - 1);
        assert_eq!(
            faulty.output(),
            twin.output(),
            "run {run}: faults changed the output"
        );
        let cache = s.cache.expect("cache configured");
        let twin_cache = t.cache.unwrap();
        match run {
            2 => {
                // Partition 1's trees and replicated object vanished just
                // before this slide: the engine rebuilds from the window
                // and meters every bit of it as recovery, not work.
                assert_eq!(s.recovery.lost_partitions, 1);
                assert!(s.recovery.rebuild_work > 0, "rebuild must be metered");
                assert!(s.recovery.keys_recomputed > 0);
                assert!(
                    s.recovery.cache_misses_recovered >= 1,
                    "the lost object's read must degrade to recomputation"
                );
                assert!(
                    cache.failed_reads() >= 1,
                    "losing every replica is a failed read"
                );
            }
            1 => {
                // Cache node 0 is down: reads fail over to disk replicas,
                // succeed, and are not recovery.
                assert!(s.recovery.is_zero(), "failover alone is not recovery");
                assert!(
                    cache.disk_reads > twin_cache.disk_reads,
                    "failover must hit the persistent tier"
                );
                assert_eq!(cache.failed_reads(), 0, "replication must mask the failure");
            }
            _ => {
                assert!(s.recovery.is_zero(), "run {run} is fault-free");
                assert_eq!(cache.failed_reads(), 0);
            }
        }
    }
}

#[test]
fn straggler_speculation_is_metered_and_harmless() {
    let splits = make_splits(0, uniform_records(100), 5);
    let base = || {
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_buckets(20, 1)
            .with_simulation(SimulationConfig::paper_defaults())
    };
    let mut twin = job(base());
    let twin_s0 = twin.initial_run(splits.clone()).unwrap();

    // Machine 3 runs 20x slow; with speculation a duplicate of its map
    // launches on an idle machine and wins.
    let plan = JobFaultPlan::none().slow(0, 3, 0.05).with_speculation();
    let mut faulty = job(base().with_faults(plan));
    let s0 = faulty.initial_run(splits).unwrap();

    assert_eq!(
        faulty.output(),
        twin.output(),
        "straggler changed the output"
    );
    assert_eq!(
        s0.work, twin_s0.work,
        "stragglers must not change modeled work"
    );
    let sim = s0.sim.as_ref().unwrap();
    assert!(sim.speculative_tasks >= 1, "a duplicate must have launched");
    assert!(
        sim.recovery_ns > 0,
        "the losing attempt's run is recovery time"
    );
}

#[test]
fn seeded_plans_uphold_the_invariant_across_runs() {
    let records = varied_records(90);
    let splits = make_splits(0, records, 3); // 30 splits
    for seed in [3, 7, 11, 19] {
        let plan = JobFaultPlan::seeded(seed, 6, 24, 4, 4);
        let base = || {
            JobConfig::new(ExecMode::slider_folding())
                .with_partitions(4)
                .with_buckets(10, 1)
                .with_simulation(SimulationConfig::paper_defaults())
                .with_cache(CacheConfig::paper_defaults(4))
        };
        let mut faulty = job(base().with_faults(plan));
        let mut twin = job(base());
        faulty.initial_run(splits[..10].to_vec()).unwrap();
        twin.initial_run(splits[..10].to_vec()).unwrap();
        for i in 0..5 {
            let adds: Vec<Split<String>> = splits[10 + 4 * i..10 + 4 * (i + 1)].to_vec();
            faulty.advance(4, adds.clone()).unwrap();
            twin.advance(4, adds).unwrap();
            assert_eq!(
                faulty.output(),
                twin.output(),
                "seed {seed}, slide {i}: outputs diverged"
            );
        }
    }
}

#[test]
fn constant_time_aggregators_recover_from_seeded_plans() {
    // The twin-stack aggregators memoize running partial sums instead of
    // subtree handles; memo loss must still rebuild them bit-identically
    // from the surviving window.
    let records = varied_records(90);
    let splits = make_splits(0, records, 3); // 30 splits
    for mode in [ExecMode::slider_two_stack(), ExecMode::slider_daba()] {
        let plan = JobFaultPlan::seeded(13, 6, 24, 4, 4);
        let base = || {
            JobConfig::new(mode)
                .with_partitions(4)
                .with_buckets(10, 1)
                .with_simulation(SimulationConfig::paper_defaults())
                .with_cache(CacheConfig::paper_defaults(4))
        };
        let mut faulty = job(base().with_faults(plan));
        let mut twin = job(base());
        faulty.initial_run(splits[..10].to_vec()).unwrap();
        twin.initial_run(splits[..10].to_vec()).unwrap();
        for i in 0..5 {
            let adds: Vec<Split<String>> = splits[10 + 4 * i..10 + 4 * (i + 1)].to_vec();
            faulty.advance(4, adds.clone()).unwrap();
            twin.advance(4, adds).unwrap();
            assert_eq!(
                faulty.output(),
                twin.output(),
                "{mode}, slide {i}: outputs diverged under faults"
            );
        }
    }
}
