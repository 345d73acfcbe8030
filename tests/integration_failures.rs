//! Failure injection and scheduling integration: cache node crashes must
//! not affect results, and the hybrid scheduler must beat strict
//! memoization-aware placement under stragglers.

use slider_apps::Hct;
use slider_cluster::{simulate, ClusterSpec, MachineId, SchedulerPolicy, Task};
use slider_dcache::CacheConfig;
use slider_mapreduce::{make_splits, ExecMode, JobConfig, WindowedJob};
use slider_workloads::text::{generate_documents, TextConfig};

fn docs() -> Vec<String> {
    generate_documents(
        1,
        200,
        &TextConfig {
            vocabulary: 50,
            zipf_exponent: 1.0,
            words_per_doc: 8,
        },
    )
}

#[test]
fn cache_failures_never_change_results() {
    let records = docs();
    let splits = make_splits(0, records, 5);

    let run = |failures: &[usize]| {
        let mut job = WindowedJob::new(
            Hct::new(),
            JobConfig::new(ExecMode::slider_folding())
                .with_partitions(4)
                .with_cache(CacheConfig::paper_defaults(6)),
        )
        .unwrap();
        job.initial_run(splits[..20].to_vec()).unwrap();
        let mut disk_reads = 0;
        for i in 0..8 {
            if failures.contains(&i) {
                job.fail_cache_node(i % 6).unwrap();
            }
            let stats = job.advance(1, splits[20 + i..21 + i].to_vec()).unwrap();
            let cache = stats.cache.expect("cache configured");
            assert_eq!(cache.failed_reads(), 0, "replication must mask failures");
            disk_reads += cache.disk_reads;
        }
        (job.output().clone(), disk_reads)
    };

    let (healthy_out, healthy_disk) = run(&[]);
    let (faulty_out, faulty_disk) = run(&[1, 3, 5]);
    assert_eq!(healthy_out, faulty_out, "failures changed the result");
    assert!(
        faulty_disk > healthy_disk,
        "crashes must force persistent-tier fallbacks ({faulty_disk} vs {healthy_disk})"
    );
}

#[test]
fn recovering_a_node_restores_memory_hits() {
    let records = docs();
    let splits = make_splits(0, records, 5);
    let mut job = WindowedJob::new(
        Hct::new(),
        JobConfig::new(ExecMode::slider_folding())
            .with_partitions(2)
            .with_cache(CacheConfig::paper_defaults(2)),
    )
    .unwrap();
    job.initial_run(splits[..10].to_vec()).unwrap();
    job.advance(1, splits[10..11].to_vec()).unwrap();

    job.fail_cache_node(0).unwrap();
    let during = job.advance(1, splits[11..12].to_vec()).unwrap();
    assert!(during.cache.unwrap().disk_reads > 0);

    job.recover_cache_node(0).unwrap();
    // First post-recovery run re-warms memory; the next one hits it.
    job.advance(1, splits[12..13].to_vec()).unwrap();
    let after = job.advance(1, splits[13..14].to_vec()).unwrap();
    assert!(
        after.cache.unwrap().memory_hits > 0,
        "memory tier should re-warm"
    );
}

#[test]
fn hybrid_scheduler_beats_strict_placement_under_stragglers() {
    // All reduce tasks prefer machine 0, which is a heavy straggler.
    let spec = ClusterSpec::with_stragglers(1, 0.05);
    let reduces: Vec<Task> = (0..8)
        .map(|i| {
            Task::reduce(i, 50_000)
                .prefer(MachineId(0))
                .with_input_bytes(1 << 20)
        })
        .collect();

    let strict = simulate(
        &spec,
        SchedulerPolicy::MemoizationAware,
        std::slice::from_ref(&reduces),
    );
    let hybrid = simulate(
        &spec,
        SchedulerPolicy::Hybrid {
            migration_threshold: 2.0,
        },
        &[reduces],
    );
    assert!(
        hybrid.makespan_ns < strict.makespan_ns / 2,
        "hybrid {} should be far below strict {}",
        hybrid.makespan_ns,
        strict.makespan_ns
    );
    assert!(hybrid.migrations > 0);
}

#[test]
fn vanilla_reduce_placement_pays_remote_reads() {
    // The same windowed run under vanilla vs. memoization-aware reduce
    // placement: vanilla lands reduces off their memoized state.
    let spec = ClusterSpec::paper_cluster();
    let reduces: Vec<Task> = (0..24)
        .map(|i| {
            Task::reduce(i, 1_000)
                .prefer(MachineId(i as usize))
                .with_input_bytes(200 << 20)
        })
        .collect();
    let vanilla = simulate(
        &spec,
        SchedulerPolicy::Vanilla,
        std::slice::from_ref(&reduces),
    );
    let aware = simulate(&spec, SchedulerPolicy::MemoizationAware, &[reduces]);
    assert!(aware.makespan_ns < vanilla.makespan_ns);
    assert_eq!(aware.stages[0].remote_placements, 0);
    assert!(vanilla.stages[0].remote_placements > 0);
}
