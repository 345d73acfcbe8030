//! Per-run metrics: the reproduction's *work* metric and its breakdown.

use slider_cluster::SimReport;
use slider_core::PhaseWork;
use slider_dcache::{CacheStats, RepairStats};
use slider_trace::{ticks_to_seconds, Tracer};

/// Work performed by one run, split by phase (the paper's Figure 9
/// breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkBreakdown {
    /// Map-phase compute work (including map-side combining).
    pub map: u64,
    /// Foreground contraction-phase work (combiner invocations on the
    /// critical path).
    pub contraction_fg: PhaseWork,
    /// Background pre-processing work (split mode).
    pub contraction_bg: PhaseWork,
    /// Reduce-phase compute work.
    pub reduce: u64,
    /// Work-unit equivalent of data movement (shuffle plus memo reads and
    /// writes), one unit per whole KiB moved.
    pub movement: u64,
}

impl WorkBreakdown {
    /// Total foreground work: what the paper's *work* metric counts for the
    /// incremental run itself.
    pub fn foreground_total(&self) -> u64 {
        self.map + self.contraction_fg.work + self.reduce + self.movement
    }

    /// Total including background pre-processing.
    pub fn grand_total(&self) -> u64 {
        self.foreground_total() + self.contraction_bg.work
    }
}

/// Recovery work of one run, metered separately from regular work so
/// fault overheads are visible (the paper's fault-tolerance evaluation):
/// lost memoized state degrades to extra foreground computation, never a
/// wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Reduce partitions whose memoized trees were lost and rebuilt.
    pub lost_partitions: usize,
    /// Work units spent rebuilding lost contraction state.
    pub rebuild_work: u64,
    /// Combiner merges performed during rebuilds.
    pub rebuild_merges: u64,
    /// Keys whose contraction state was recomputed only because of a loss.
    pub keys_recomputed: usize,
    /// Memo-cache reads that failed outright and degraded to
    /// recomputation (replica failover exhausted).
    pub cache_misses_recovered: u64,
    /// Failed cache reads whose object was missing from the index
    /// entirely — recomputation is the only way back.
    pub cache_not_found: u64,
    /// Failed cache reads whose object was indexed but unreachable — a
    /// node recovery or background repair can restore it without
    /// recomputation.
    pub cache_unavailable: u64,
    /// `Unavailable` cache reads retried after draining pending repairs.
    pub read_retries: u64,
    /// Simulated nanoseconds spent backing off between read retries.
    pub backoff_ns: u64,
}

impl RecoveryStats {
    /// True when this run performed no recovery work at all.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Everything measured about one run of a windowed job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Monotonic run index (0 = initial run).
    pub run: u64,
    /// Work breakdown.
    pub work: WorkBreakdown,
    /// Map tasks executed this run.
    pub map_tasks: usize,
    /// Splits whose map output was reused from memoization.
    pub map_reused: usize,
    /// Memoized contraction sub-computations reused.
    pub nodes_reused: u64,
    /// Keys whose output was recomputed by Reduce.
    pub keys_reduced: usize,
    /// Keys whose previous output was reused untouched.
    pub keys_reused: usize,
    /// Bytes of fresh map output shuffled to reducers.
    pub shuffle_bytes: u64,
    /// Bytes of memoized state read by the contraction phase.
    pub memo_read_bytes: u64,
    /// Bytes of memoized state written by the contraction phase.
    pub memo_written_bytes: u64,
    /// Total memoization footprint after the run (Figure 13(c)).
    pub memo_footprint_bytes: u64,
    /// Input bytes currently in the window.
    pub window_input_bytes: u64,
    /// Simulated cluster schedule (when simulation is configured).
    pub sim: Option<SimReport>,
    /// Simulated background-processing schedule, separate from the
    /// foreground makespan (split mode).
    pub sim_background: Option<SimReport>,
    /// Memoization-cache statistics delta for this run (when a cache is
    /// configured).
    pub cache: Option<CacheStats>,
    /// Recovery work of this run (all zero for fault-free runs).
    pub recovery: RecoveryStats,
    /// Background self-healing work of this run — re-replication, scrub,
    /// master rebuild (all zero for fault-free runs and whenever the cache
    /// has repair and scrubbing disabled).
    pub repair: RepairStats,
}

impl RunStats {
    /// End-to-end simulated runtime of the foreground run in seconds, if
    /// simulated. For display; the time itself is
    /// [`SimReport::makespan_ns`].
    pub fn time_seconds(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| ticks_to_seconds(s.makespan_ns))
    }

    /// Simulated map-stage duration in nanoseconds, if simulated.
    pub fn map_ns(&self) -> Option<u64> {
        self.sim
            .as_ref()
            .and_then(|s| s.stages.first())
            .map(|s| s.duration_ns)
    }

    /// Simulated background pre-processing duration in nanoseconds (0 when
    /// none ran).
    pub fn background_ns(&self) -> u64 {
        self.sim_background.as_ref().map_or(0, |s| s.makespan_ns)
    }

    /// Adds this run to the `engine.*`, `recovery.*`, `cluster.*` (from
    /// `sim` and `sim_background`) and `dcache.*` counters of `t`. The
    /// engine calls it once per completed run, so each counter is the sum
    /// of its field over the runs that returned.
    pub fn trace_counters(&self, t: &mut Tracer) {
        t.add("engine.map_tasks", self.map_tasks as u64);
        t.add("engine.map_reused", self.map_reused as u64);
        t.add("engine.shuffle_bytes", self.shuffle_bytes);
        t.add("engine.keys_reduced", self.keys_reduced as u64);
        t.add("engine.keys_reused", self.keys_reused as u64);
        t.add("engine.nodes_reused", self.nodes_reused);
        t.add("engine.merges_fg", self.work.contraction_fg.merges);
        t.add("engine.merges_bg", self.work.contraction_bg.merges);
        t.add("engine.memo_read_bytes", self.memo_read_bytes);
        t.add("engine.memo_written_bytes", self.memo_written_bytes);
        let recovery = &self.recovery;
        t.add("recovery.lost_partitions", recovery.lost_partitions as u64);
        t.add("recovery.keys_recomputed", recovery.keys_recomputed as u64);
        t.add(
            "recovery.cache_misses_recovered",
            recovery.cache_misses_recovered,
        );
        t.add("recovery.cache_not_found", recovery.cache_not_found);
        t.add("recovery.cache_unavailable", recovery.cache_unavailable);
        t.add("recovery.read_retries", recovery.read_retries);
        for sim in self.sim.iter().chain(&self.sim_background) {
            t.add("cluster.tasks_run", sim.tasks_run as u64);
            t.add("cluster.retried_tasks", sim.retried_tasks);
            t.add("cluster.speculative_tasks", sim.speculative_tasks);
            t.add("cluster.migrations", sim.migrations);
        }
        if let Some(cache) = &self.cache {
            cache.trace_counters(t);
        }
        self.repair.trace_counters(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut w = WorkBreakdown {
            map: 10,
            reduce: 5,
            movement: 2,
            ..Default::default()
        };
        w.contraction_fg.record(3);
        w.contraction_bg.record(4);
        assert_eq!(w.foreground_total(), 20);
        assert_eq!(w.grand_total(), 24);
    }

    #[test]
    fn time_accessors_handle_missing_sim() {
        let stats = RunStats::default();
        assert!(stats.time_seconds().is_none());
        assert_eq!(stats.background_ns(), 0);
    }
}
