//! Deterministic run-level fault plans for windowed jobs.
//!
//! A [`JobFaultPlan`] scripts every fault the engine may encounter across a
//! job's lifetime, in one entry per run it touches: that run's simulated
//! machine crashes and stragglers (a [`FaultPlan`] handed to
//! [`slider_cluster::simulate_with_faults`] for the run's schedule),
//! memoization-cache node failures and recoveries, corrupted copies, a lost
//! master index, forced memo-state loss per reduce partition, and a failure
//! of the whole run. Because the plan is pure data and every consumer
//! applies it at a fixed point of the run loop, a `(workload, plan)` pair
//! always yields the same recovery behaviour — and the recovery invariant
//! holds: outputs are bit-identical to the fault-free run, only work/time
//! metrics may differ.
//!
//! The builders record what they are given. The job checks every setting
//! once, when it is built, against the simulated cluster, the cache and the
//! partitions it runs with (see [`crate::WindowedJob::new`]); a fault aimed
//! at a simulation or a cache the job does not have is inert.

use std::collections::BTreeMap;

use slider_cluster::FaultPlan;

/// The faults scripted for one run. Each list keeps plan order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct RunFaults {
    /// Machine crashes and stragglers in the run's foreground schedule.
    pub(crate) cluster: FaultPlan,
    /// Cache nodes brought back before the run.
    pub(crate) cache_recoveries: Vec<usize>,
    /// Cache nodes whose memory tier is lost before the run.
    pub(crate) cache_failures: Vec<usize>,
    /// `(partition, node)`: the partition's persistent copy on the node is
    /// silently corrupted before the run. The cache's checksums must catch
    /// it on the next read, scrub or rebuild that touches it.
    pub(crate) corruptions: Vec<(usize, usize)>,
    /// Reduce partitions whose trees (and cached objects) are lost before
    /// the run, sorted and deduplicated.
    pub(crate) lost_partitions: Vec<usize>,
    /// The cache master index is dropped before the run and rebuilt from
    /// the surviving node inventories.
    pub(crate) loses_master: bool,
    /// The run fails with [`crate::JobError::Injected`] before any of its
    /// other faults apply.
    pub(crate) fails: bool,
}

/// Scripted faults for a windowed job, one entry per run it touches.
///
/// Build one with the fluent helpers and pass it via
/// [`crate::JobConfig::with_faults`]; [`JobFaultPlan::seeded`] derives a
/// reproducible random plan from a seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobFaultPlan {
    /// Each scripted run's faults, by run index (0 = initial run).
    pub(crate) runs: BTreeMap<u64, RunFaults>,
    /// Speculative re-execution of stragglers in every run's simulation.
    pub(crate) speculation: bool,
}

impl JobFaultPlan {
    /// An empty plan: behaves exactly like no plan at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_trivial(&self) -> bool {
        self.runs.is_empty() && !self.speculation
    }

    /// Run `run`'s entry, created empty on first use.
    fn run_mut(&mut self, run: u64) -> &mut RunFaults {
        self.runs.entry(run).or_default()
    }

    /// Adds a machine crash at `at_seconds` into run `run`. Builder-style.
    pub fn crash(mut self, run: u64, machine: usize, at_seconds: f64) -> Self {
        let cluster = &mut self.run_mut(run).cluster;
        *cluster = std::mem::take(cluster).crash(machine, at_seconds);
        self
    }

    /// Runs `machine` at `factor` (in `(0, 1]`) times its speed in run
    /// `run`: `0.1` is ten times slower. Builder-style.
    pub fn slow(mut self, run: u64, machine: usize, factor: f64) -> Self {
        let cluster = &mut self.run_mut(run).cluster;
        *cluster = std::mem::take(cluster).slow(machine, factor);
        self
    }

    /// Fails cache node `node` before run `run`. Builder-style.
    pub fn fail_cache_node(mut self, run: u64, node: usize) -> Self {
        self.run_mut(run).cache_failures.push(node);
        self
    }

    /// Recovers cache node `node` before run `run`. Builder-style.
    pub fn recover_cache_node(mut self, run: u64, node: usize) -> Self {
        self.run_mut(run).cache_recoveries.push(node);
        self
    }

    /// Drops the memoized state of `partitions` before run `run`.
    /// Builder-style.
    pub fn lose_memo(mut self, run: u64, partitions: Vec<usize>) -> Self {
        let lost = &mut self.run_mut(run).lost_partitions;
        lost.extend(partitions);
        lost.sort_unstable();
        lost.dedup();
        self
    }

    /// Silently corrupts partition `partition`'s cached copy on cache node
    /// `node` before run `run`. Builder-style.
    pub fn corrupt_object(mut self, run: u64, partition: usize, node: usize) -> Self {
        self.run_mut(run).corruptions.push((partition, node));
        self
    }

    /// Drops the cache master index before run `run`; the engine rebuilds
    /// it from the surviving node inventories. Builder-style.
    pub fn lose_master(mut self, run: u64) -> Self {
        self.run_mut(run).loses_master = true;
        self
    }

    /// Fails run `run` with [`crate::JobError::Injected`] before any of its
    /// faults apply. A failed run leaves the job where it was, so every
    /// later attempt of the run fails the same way. Builder-style.
    pub fn fail_run(mut self, run: u64) -> Self {
        self.run_mut(run).fails = true;
        self
    }

    /// Enables speculative execution in the simulator. Builder-style.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Derives a reproducible random plan from `seed` for a job expected to
    /// span `runs` runs on `machines` simulated machines with `partitions`
    /// reduce partitions and a `cache_nodes`-node cache. The same arguments
    /// always produce the same plan.
    pub fn seeded(
        seed: u64,
        runs: u64,
        machines: usize,
        partitions: usize,
        cache_nodes: usize,
    ) -> Self {
        let mut state = seed;
        let mut plan = JobFaultPlan::default();
        if runs == 0 || machines == 0 || partitions == 0 {
            return plan;
        }
        // At most one crash and one straggler per plan, each in a random
        // run, always sparing machine 0 so work can complete.
        if machines > 1 && next(&mut state).is_multiple_of(2) {
            let run = next(&mut state) % runs;
            let machine = 1 + bounded(next(&mut state), machines - 1);
            let at = 0.5 + (next(&mut state) % 100) as f64 / 10.0;
            plan = plan.crash(run, machine, at);
        }
        if machines > 1 && next(&mut state).is_multiple_of(2) {
            let run = next(&mut state) % runs;
            let machine = 1 + bounded(next(&mut state), machines - 1);
            let factor = 0.2 + 0.6 * (next(&mut state) % 1000) as f64 / 1000.0;
            plan = plan.slow(run, machine, factor);
            if next(&mut state).is_multiple_of(2) {
                plan = plan.with_speculation();
            }
        }
        // Up to two memo losses, never before run 1 (there is nothing to
        // lose ahead of the initial run).
        if runs > 1 {
            for _ in 0..(next(&mut state) % 3) {
                let run = 1 + next(&mut state) % (runs - 1);
                let count = 1 + bounded(next(&mut state), partitions);
                let start = bounded(next(&mut state), partitions);
                let parts: Vec<usize> = (0..count).map(|i| (start + i) % partitions).collect();
                plan = plan.lose_memo(run, parts);
            }
            // A cache-node failure with a later recovery.
            if next(&mut state).is_multiple_of(2) {
                let node = bounded(next(&mut state), cache_nodes);
                let run = 1 + next(&mut state) % (runs - 1);
                plan = plan.fail_cache_node(run, node);
                if run + 1 < runs {
                    plan = plan.recover_cache_node(run + 1, node);
                }
            }
        }
        plan
    }
}

/// xorshift64: small, deterministic, dependency-free.
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Reduces a raw draw into `0..modulo` — in u64 before narrowing, so the
/// conversion can never truncate (the result is bounded by `modulo`).
fn bounded(value: u64, modulo: usize) -> usize {
    usize::try_from(value % modulo.max(1) as u64).expect("bounded by a usize modulo")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = JobFaultPlan::seeded(42, 5, 8, 4, 4);
        let b = JobFaultPlan::seeded(42, 5, 8, 4, 4);
        assert_eq!(a, b);
        // Some seed in a small range must produce a non-trivial plan.
        assert!((0..16).any(|s| !JobFaultPlan::seeded(s, 5, 8, 4, 4).is_trivial()));
    }

    #[test]
    fn seeded_plans_never_crash_machine_zero() {
        for seed in 0..64 {
            let plan = JobFaultPlan::seeded(seed, 6, 4, 3, 3);
            for (&run, planned) in &plan.runs {
                // Crashing machine 0 as well adds a machine: it was spared.
                let crashed = planned.cluster.crashed_machines();
                let with_zero = planned.cluster.clone().crash(0, 0.0);
                assert_eq!(with_zero.crashed_machines(), crashed + 1, "seed {seed}");
                assert!(run > 0 || planned.lost_partitions.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn per_run_projection_selects_only_that_run() {
        let plan = JobFaultPlan::none()
            .crash(1, 2, 3.0)
            .crash(2, 1, 1.0)
            .slow(1, 3, 0.5)
            .lose_memo(2, vec![1, 0, 1])
            .fail_cache_node(1, 0)
            .recover_cache_node(2, 0)
            .fail_run(4)
            .with_speculation();
        assert_eq!(plan.runs.keys().copied().collect::<Vec<_>>(), [1, 2, 4]);
        let run1 = &plan.runs[&1];
        assert_eq!(run1.cluster, FaultPlan::none().crash(2, 3.0).slow(3, 0.5));
        assert_eq!(run1.cache_failures, [0]);
        assert!(run1.lost_partitions.is_empty() && !run1.fails);
        let run2 = &plan.runs[&2];
        assert_eq!(run2.cluster, FaultPlan::none().crash(1, 1.0));
        assert_eq!(run2.lost_partitions, [0, 1]);
        assert_eq!(run2.cache_recoveries, [0]);
        assert!(plan.runs[&4].fails);
        assert!(plan.speculation);
    }

    #[test]
    fn self_healing_faults_project_per_run() {
        let plan = JobFaultPlan::none()
            .corrupt_object(2, 1, 3)
            .corrupt_object(2, 0, 2)
            .corrupt_object(3, 1, 1)
            .lose_master(3);
        assert!(!plan.is_trivial());
        assert_eq!(plan.runs[&2].corruptions, [(1, 3), (0, 2)]);
        assert!(!plan.runs.contains_key(&1));
        assert!(plan.runs[&3].loses_master);
        assert!(!plan.runs[&2].loses_master);
    }
}
