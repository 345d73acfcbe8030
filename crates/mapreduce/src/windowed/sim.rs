//! The cluster simulation of a run (the *time* metric) and the replay of
//! its memoization traffic through the cache model.

use slider_cluster::{simulate_with_faults, FaultPlan, MachineId, Task};
use slider_dcache::{CacheError, CacheStats, NodeId};
use slider_trace::{seconds_to_ticks, SpanKind};

use super::map::SplitEntry;
use super::run::PhaseOutcome;
use super::{ExecMode, SimulationConfig, WindowedJob};
use crate::app::MapReduceApp;
use crate::error::JobError;
use crate::retry::RetryPolicy;
use crate::stats::RecoveryStats;

impl<A: MapReduceApp> WindowedJob<A> {
    /// Crashes a memoization-cache node (failure injection): its memory
    /// tier is lost; reads transparently fall back to persistent replicas.
    /// No-op when no cache is configured.
    ///
    /// # Errors
    ///
    /// [`JobError::Cache`] if `node` is outside the cache cluster.
    pub fn fail_cache_node(&mut self, node: usize) -> Result<(), JobError> {
        match &self.cache {
            Some(cache) => cache
                .with(|c| c.fail_node(NodeId(node)))
                .map_err(JobError::Cache),
            None => Ok(()),
        }
    }

    /// Recovers a previously failed cache node. No-op without a cache.
    ///
    /// # Errors
    ///
    /// [`JobError::Cache`] if `node` is outside the cache cluster.
    pub fn recover_cache_node(&mut self, node: usize) -> Result<(), JobError> {
        match &self.cache {
            Some(cache) => cache
                .with(|c| c.recover_node(NodeId(node)))
                .map_err(JobError::Cache),
            None => Ok(()),
        }
    }

    /// Builds and runs the cluster simulation for this run.
    pub(super) fn build_sim(
        &self,
        sim: &SimulationConfig,
        new_entries: &[SplitEntry<A::Key, A::Value>],
        outcome: &PhaseOutcome,
    ) -> (slider_cluster::SimReport, Option<slider_cluster::SimReport>) {
        let machines = sim.cluster.len().max(1);
        let mut next_id = 0u64;
        let mut id = || {
            next_id += 1;
            next_id
        };

        // Stage 1: map tasks — all splits for vanilla, new splits otherwise.
        let map_entries: Vec<&SplitEntry<A::Key, A::Value>> =
            if self.state.config.mode == ExecMode::Recompute {
                self.state.window.iter().collect()
            } else {
                new_entries.iter().collect()
            };
        let maps: Vec<Task> = map_entries
            .iter()
            .map(|e| {
                let machine =
                    usize::try_from(e.id.0 % machines as u64).expect("bounded by machine count");
                Task::map(id(), e.map_work)
                    .prefer(MachineId(machine))
                    .with_input_bytes(e.input_bytes)
            })
            .collect();

        // Stage 2: one contraction+reduce task per partition with its
        // actual metered work and input bytes.
        let reduces: Vec<Task> = outcome
            .per_partition
            .iter()
            .enumerate()
            .map(|(p, pw)| {
                let mut t = Task::reduce(id(), pw.fg_work + pw.reduce_work)
                    .with_input_bytes(pw.shuffle_bytes + pw.memo_read_bytes);
                if self.state.config.mode != ExecMode::Recompute {
                    // Memoized state lives where this partition reduced
                    // last; the scheduler decides whether to honour that.
                    t = t.prefer(MachineId(p % machines));
                }
                t
            })
            .collect();

        // This run's scripted machine faults (a trivial plan reproduces
        // the fault-free schedule bit for bit).
        let faults = self.state.config.faults.as_ref();
        let mut cluster_plan = faults
            .and_then(|f| f.runs.get(&self.state.run_index))
            .map_or_else(FaultPlan::none, |planned| planned.cluster.clone());
        if faults.is_some_and(|f| f.speculation) {
            cluster_plan = cluster_plan.with_speculation();
        }
        let fg_report =
            simulate_with_faults(&sim.cluster, sim.policy, &[maps, reduces], &cluster_plan);

        // Background pre-processing runs off the critical path, simulated
        // as its own single-stage schedule.
        let bg_total: u64 = outcome.per_partition.iter().map(|pw| pw.bg_work).sum();
        let bg_report = if bg_total > 0 {
            let bg_tasks: Vec<Task> = outcome
                .per_partition
                .iter()
                .enumerate()
                .filter(|(_, pw)| pw.bg_work > 0)
                .map(|(p, pw)| Task::reduce(id(), pw.bg_work).prefer(MachineId(p % machines)))
                .collect();
            Some(simulate_with_faults(
                &sim.cluster,
                sim.policy,
                &[bg_tasks],
                &FaultPlan::none(),
            ))
        } else {
            None
        };

        // One container span per schedule on the `cluster` track, with one
        // timed leaf per stage whose nanoseconds are that stage's duration.
        self.trace.with(|t| {
            let tr = t.track("cluster");
            let schedules =
                std::iter::once(("fg", &fg_report)).chain(bg_report.iter().map(|r| ("bg", r)));
            for (label, report) in schedules {
                let parent = t.begin(tr, SpanKind::SimStage, format!("{label} schedule"));
                for (i, stage) in report.stages.iter().enumerate() {
                    let s = t.leaf_ns(
                        tr,
                        SpanKind::SimStage,
                        format!("{label} stage {i}"),
                        stage.duration_ns,
                    );
                    t.arg(s, "tasks", stage.tasks as u64);
                    t.arg(s, "retried", stage.retried_tasks);
                    t.arg(s, "speculative", stage.speculative_tasks);
                    t.arg(s, "remote_placements", stage.remote_placements);
                }
                t.end(parent);
            }
        });
        (fg_report, bg_report)
    }

    /// Replays this run's memoization traffic through the cache model and
    /// returns the stats delta.
    pub(super) fn play_cache_traffic(&mut self, recovery: &mut RecoveryStats) -> CacheStats {
        // Bounded retries of an `Unavailable` read (self-healing cache
        // only): each retry backs off in simulated time and drains
        // pending repairs, so a re-replicated copy can serve the retry
        // instead of degrading to recomputation. The bound and backoff
        // are the default `RetryPolicy` (2 retries, doubling backoff).
        let policy = RetryPolicy::default();
        let cache = self.cache.clone().expect("caller checked");
        let (nodes, repair_on, per_op_seconds) = cache.with(|c| {
            (
                c.config().nodes.max(1),
                c.config().repair,
                c.config().latency.per_op_seconds,
            )
        });
        let before = cache.stats();
        for p in 0..self.state.config.partitions {
            let node = NodeId(p % nodes);
            let object = self.object_id(p);
            // The contraction phase reads the partition's memoized state
            // from the previous run (if one was ever written), then writes
            // the updated state back. A read that fails over every replica
            // and still misses means the state was recomputed in the
            // foreground instead (recompute-on-miss): meter it as
            // recovery, never an error.
            if self.state.cached_objects[p] {
                let mut outcome = cache.with(|c| c.read(object, node));
                let mut retries = 0u32;
                while matches!(outcome, Err(CacheError::Unavailable(_)))
                    && repair_on
                    && retries < policy.max_retries
                {
                    retries += 1;
                    recovery.read_retries += 1;
                    let backoff =
                        seconds_to_ticks(per_op_seconds * policy.backoff_multiplier(retries));
                    recovery.backoff_ns += backoff;
                    self.trace.with(|t| {
                        let tr = t.track("recovery");
                        let leaf = t.leaf_ns(
                            tr,
                            SpanKind::Recovery,
                            format!("backoff partition {p}"),
                            backoff,
                        );
                        t.arg(leaf, "retry", u64::from(retries));
                    });
                    outcome = cache.with(|c| {
                        c.drain_repairs();
                        c.read(object, node)
                    });
                }
                match outcome {
                    Ok(_) => {}
                    Err(CacheError::NotFound(_)) => {
                        recovery.cache_not_found += 1;
                        recovery.cache_misses_recovered += 1;
                    }
                    Err(_) => {
                        recovery.cache_unavailable += 1;
                        recovery.cache_misses_recovered += 1;
                    }
                }
            }
            let footprint = self.state.shards[p].memo_footprint;
            if footprint > 0 {
                cache.with(|c| c.put(object, footprint, node, self.state.run_index));
            }
            self.state.cached_objects[p] = footprint > 0;
        }
        // Standalone jobs sweep the whole cache as before; namespaced jobs
        // sweep only their own objects — each tenant advances through
        // epochs at its own pace, so a global sweep at this job's epoch
        // would reap siblings' still-live state.
        if self.state.cache_ns == 0 {
            cache.with(|c| c.collect_garbage(self.state.run_index));
        } else {
            let ns = self.state.cache_ns;
            let run = self.state.run_index;
            cache.with(|c| c.collect_garbage_scoped(ns, run));
        }
        cache.stats().delta_since(&before)
    }

    /// End-of-run cache maintenance, the paper's split-processing idea
    /// applied to the storage layer: a scrub pass at the configured
    /// cadence, then a drain of the repair queue — all background work
    /// metered in [`slider_dcache::RepairStats`], never in the foreground
    /// read stats.
    pub(super) fn run_cache_maintenance(&mut self) {
        let cache = self.cache.as_ref().expect("caller checked");
        let run = self.state.run_index;
        cache.with(|c| {
            let interval = c.config().scrub_interval;
            if interval > 0 && run.is_multiple_of(interval) {
                c.scrub();
            }
            c.drain_repairs();
        });
    }
}
