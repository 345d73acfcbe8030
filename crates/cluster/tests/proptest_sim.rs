//! Property tests for the discrete-event simulator: conservation laws that
//! must hold for any task set under any scheduling policy.

use proptest::prelude::*;
use slider_cluster::{
    simulate, ClusterSpec, CostModel, MachineId, MachineSpec, SchedulerPolicy, SlotKind, Task,
};

fn task_strategy(machines: usize) -> impl Strategy<Value = Task> {
    (
        proptest::bool::ANY,
        1u64..5_000,
        proptest::option::of(0..machines),
        0u64..1_000_000,
    )
        .prop_map(move |(is_map, work, preferred, bytes)| {
            let mut t = if is_map {
                Task::map(0, work)
            } else {
                Task::reduce(0, work)
            };
            if let Some(m) = preferred {
                t = t.prefer(MachineId(m));
            }
            t.with_input_bytes(bytes)
        })
}

fn policies() -> Vec<SchedulerPolicy> {
    vec![
        SchedulerPolicy::Vanilla,
        SchedulerPolicy::MemoizationAware,
        SchedulerPolicy::Hybrid {
            migration_threshold: 1.0,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy must run every task; the makespan is bounded below by
    /// the longest single task and above by serial execution, and busy
    /// time is invariant to scheduling given equal placement locality.
    #[test]
    fn conservation_laws_hold(
        machines in 1usize..6,
        stage1 in proptest::collection::vec(task_strategy(6), 0..20),
        stage2 in proptest::collection::vec(task_strategy(6), 0..10),
    ) {
        let spec = ClusterSpec {
            machines: vec![MachineSpec::healthy(); machines],
            cost: CostModel::paper_defaults(),
        };
        // Clamp preferences into range and assign unique ids.
        let clamp = |tasks: &[Task], base: u64| -> Vec<Task> {
            tasks
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut t = match t.kind {
                        SlotKind::Map => Task::map(base + i as u64, t.work),
                        SlotKind::Reduce => Task::reduce(base + i as u64, t.work),
                    }
                    .with_input_bytes(t.input_bytes);
                    if let Some(MachineId(m)) = t.preferred {
                        t = t.prefer(MachineId(m % machines));
                    }
                    t
                })
                .collect()
        };
        let stage1 = clamp(&stage1, 0);
        let stage2 = clamp(&stage2, 1_000);
        let total = stage1.len() + stage2.len();

        // The fastest any single task can run (local, healthy machine).
        let min_any_task = stage1
            .iter()
            .chain(&stage2)
            .map(|t| spec.cost.task_ns(t.work, t.input_bytes, 1.0, true))
            .max()
            .unwrap_or(0);
        // Serial worst case: every task remote, one after another.
        let serial: u64 = stage1
            .iter()
            .chain(&stage2)
            .map(|t| spec.cost.task_ns(t.work, t.input_bytes, 1.0, false))
            .sum();

        for policy in policies() {
            let report = simulate(&spec, policy, &[stage1.clone(), stage2.clone()]);
            prop_assert_eq!(report.tasks_run, total);
            prop_assert_eq!(report.stages.len(), 2);
            prop_assert!(report.makespan_ns >= min_any_task,
                "{policy:?}: makespan below longest task");
            prop_assert!(report.makespan_ns <= serial,
                "{policy:?}: makespan {} exceeds serial bound {}", report.makespan_ns, serial);
            prop_assert!(report.busy_ns <= report.makespan_ns * (machines as u64 * 4),
                "{policy:?}: busy time exceeds slot capacity");
            let stage_sum: u64 = report.stages.iter().map(|s| s.duration_ns).sum();
            prop_assert_eq!(stage_sum, report.makespan_ns,
                "{policy:?}: stage durations sum to the makespan");
        }
    }

    /// The memoization-aware policy never places a preferring task remotely.
    #[test]
    fn strict_policy_never_migrates(
        machines in 2usize..6,
        tasks in proptest::collection::vec(task_strategy(6), 1..16),
    ) {
        let spec = ClusterSpec {
            machines: vec![MachineSpec::healthy(); machines],
            cost: CostModel::paper_defaults(),
        };
        let tasks: Vec<Task> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut out = Task::reduce(i as u64, t.work).with_input_bytes(t.input_bytes);
                if let Some(MachineId(m)) = t.preferred {
                    out = out.prefer(MachineId(m % machines));
                }
                out
            })
            .collect();
        let report = simulate(&spec, SchedulerPolicy::MemoizationAware, &[tasks]);
        let remote: u64 = report.stages.iter().map(|s| s.remote_placements).sum();
        prop_assert_eq!(remote, 0, "strict placement must never go remote");
    }
}
