//! Execution modes and the job configuration, checked once when the job
//! is built.

use std::fmt;

use slider_cluster::{ClusterSpec, SchedulerPolicy};
use slider_core::TreeKind;
use slider_dcache::CacheConfig;
use slider_trace::TraceSink;

use crate::app::MapReduceApp;
use crate::error::JobError;
use crate::fault::{JobFaultPlan, RunFaults};
use crate::shared::EngineShared;

/// How a windowed job processes slides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Vanilla Hadoop: recompute the whole window from scratch every run.
    Recompute,
    /// Memoization-only incremental baseline (paper §2).
    Strawman,
    /// Self-adjusting contraction trees (§3–§4).
    Slider {
        /// Which tree family member structures the contraction phase. Not
        /// [`TreeKind::Strawman`]: that is [`ExecMode::Strawman`], and
        /// [`WindowedJob::new`](crate::WindowedJob::new) rejects this spelling of it.
        tree: TreeKind,
        /// Enable split background/foreground processing (§4; only
        /// meaningful for rotating and coalescing trees).
        split_processing: bool,
    },
}

impl ExecMode {
    /// Slider with folding trees (variable-width windows).
    pub fn slider_folding() -> Self {
        ExecMode::Slider {
            tree: TreeKind::Folding,
            split_processing: false,
        }
    }

    /// Slider with randomized folding trees.
    pub fn slider_randomized() -> Self {
        ExecMode::Slider {
            tree: TreeKind::RandomizedFolding,
            split_processing: false,
        }
    }

    /// Slider with rotating trees (fixed-width windows).
    pub fn slider_rotating(split_processing: bool) -> Self {
        ExecMode::Slider {
            tree: TreeKind::Rotating,
            split_processing,
        }
    }

    /// Slider with coalescing trees (append-only windows).
    pub fn slider_coalescing(split_processing: bool) -> Self {
        ExecMode::Slider {
            tree: TreeKind::Coalescing,
            split_processing,
        }
    }

    /// Slider with the amortized-O(1) two-stack aggregator.
    pub fn slider_two_stack() -> Self {
        ExecMode::Slider {
            tree: TreeKind::TwoStack,
            split_processing: false,
        }
    }

    /// Slider with the worst-case-O(1) DABA twin-stack aggregator.
    pub fn slider_daba() -> Self {
        ExecMode::Slider {
            tree: TreeKind::Daba,
            split_processing: false,
        }
    }

    /// The aggregation structure driving the contraction phase, if any.
    pub fn tree_kind(&self) -> Option<TreeKind> {
        match self {
            ExecMode::Recompute => None,
            ExecMode::Strawman => Some(TreeKind::Strawman),
            ExecMode::Slider { tree, .. } => Some(*tree),
        }
    }

    /// Whether split processing is active.
    pub fn split_processing(&self) -> bool {
        matches!(self, ExecMode::Slider { split_processing: true, tree }
            if tree.supports_split_processing())
    }

    pub(super) fn is_fixed_width(&self) -> bool {
        self.tree_kind() == Some(TreeKind::Rotating)
    }

    pub(super) fn is_append_only(&self) -> bool {
        self.tree_kind() == Some(TreeKind::Coalescing)
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Recompute => f.write_str("recompute"),
            ExecMode::Strawman => f.write_str("strawman"),
            ExecMode::Slider { tree, .. } if self.split_processing() => {
                write!(f, "slider-{tree}+split")
            }
            ExecMode::Slider { tree, .. } => write!(f, "slider-{tree}"),
        }
    }
}

/// Cluster-simulation settings for the *time* metric.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Scheduling policy for task placement.
    pub policy: SchedulerPolicy,
}

impl SimulationConfig {
    /// The paper's 24-worker cluster (§7.1) with Slider's hybrid scheduler.
    pub fn paper_defaults() -> Self {
        SimulationConfig {
            cluster: ClusterSpec::paper_cluster(),
            policy: SchedulerPolicy::hybrid_default(),
        }
    }

    /// Checks the cost model's rates and startup latency and the hybrid
    /// migration threshold (see [`CostModel::validate`] and
    /// [`SchedulerPolicy::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    ///
    /// [`CostModel::validate`]: slider_cluster::CostModel::validate
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.cost.validate()?;
        self.policy.validate()
    }
}

/// Windowed-job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Number of reduce partitions.
    pub partitions: usize,
    /// Splits per bucket (`w` in §4.1). Only used by fixed-width jobs.
    pub bucket_width: usize,
    /// Bucket slots in a fixed-width window (`N` in §4.1).
    pub window_buckets: usize,
    /// Optional cluster simulation (the *time* metric).
    pub simulation: Option<SimulationConfig>,
    /// Optional distributed memoization cache model.
    pub cache: Option<CacheConfig>,
    /// Optional scripted fault injection: simulated machine crashes and
    /// stragglers (applied to each run's schedule), cache-node failures,
    /// and forced memo-state loss. Outputs never change under any plan;
    /// only work/time metrics and [`RunStats::recovery`](crate::RunStats::recovery) do.
    pub faults: Option<JobFaultPlan>,
    /// Worker threads for the parallel runtime. `0` means automatic: the
    /// `SLIDER_THREADS` environment variable if set, else the machine's
    /// available parallelism. Thread count never affects outputs or the
    /// modeled work/time metrics — only wall-clock speed.
    pub threads: usize,
    /// Trace sink for the deterministic observability subsystem
    /// ([`slider_trace`]). Disabled by default: a disabled sink costs one
    /// branch per instrumentation site and the job behaves bit-identically
    /// to an uninstrumented build.
    pub trace: TraceSink,
}

impl JobConfig {
    /// A configuration with sensible defaults for `mode`: 8 partitions,
    /// 1-split buckets, 8-bucket fixed windows, no simulation, no cache.
    pub fn new(mode: ExecMode) -> Self {
        JobConfig {
            mode,
            partitions: 8,
            bucket_width: 1,
            window_buckets: 8,
            simulation: None,
            cache: None,
            faults: None,
            threads: 0,
            trace: TraceSink::disabled(),
        }
    }

    /// Sets the number of reduce partitions. Builder-style.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the fixed-width window geometry: `buckets` slots of `width`
    /// splits each. Builder-style.
    pub fn with_buckets(mut self, buckets: usize, width: usize) -> Self {
        self.window_buckets = buckets;
        self.bucket_width = width;
        self
    }

    /// Enables cluster simulation. Builder-style.
    pub fn with_simulation(mut self, sim: SimulationConfig) -> Self {
        self.simulation = Some(sim);
        self
    }

    /// Enables the memoization-cache model. Builder-style.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a scripted fault plan. Builder-style.
    pub fn with_faults(mut self, faults: JobFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the worker-thread count (`0` = automatic). Builder-style.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Installs a trace sink (see [`slider_trace::TraceSink`]).
    /// Builder-style. Pass [`TraceSink::enabled`] to collect spans and
    /// counters; clones of the sink share one collector, so the caller
    /// can export after running the job.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Checks this configuration as [`WindowedJob::with_shared`] checks it
    /// when it builds a job for `app` on `shared`, with the shared default
    /// fault plan in place of none, but builds nothing and allocates no
    /// cache namespace. A caller that builds several jobs checks them all
    /// before it builds any.
    ///
    /// # Errors
    ///
    /// The [`JobError::BadConfig`] that `with_shared` would return.
    ///
    /// [`WindowedJob::with_shared`]: crate::WindowedJob::with_shared
    pub fn validate_shared<A: MapReduceApp>(
        &self,
        app: &A,
        shared: &EngineShared,
    ) -> Result<(), JobError> {
        let faults = self.faults.as_ref().or(shared.fault_plan());
        self.validate(app.is_commutative(), Some(shared), faults)
    }

    /// Checks every setting once, when the job is built, against the
    /// cluster, cache and partitions it runs with: its own cache, or the
    /// cache of `shared` for a job attached to one. `commutative` says
    /// whether the app's combiner is; `faults` is the plan the job runs.
    pub(super) fn validate(
        &self,
        commutative: bool,
        shared: Option<&EngineShared>,
        faults: Option<&JobFaultPlan>,
    ) -> Result<(), JobError> {
        let bad = |m: &str| Err(JobError::BadConfig(m.into()));
        if let ExecMode::Slider {
            tree: TreeKind::Strawman,
            ..
        } = self.mode
        {
            return bad("the strawman tree runs as ExecMode::Strawman");
        }
        if self.partitions == 0 {
            return bad("partitions must be positive");
        }
        if self.bucket_width == 0 || self.window_buckets == 0 {
            return bad("bucket geometry must be positive");
        }
        if self.mode.is_fixed_width() && !commutative {
            return bad("fixed-width (rotating) windows require a commutative combiner");
        }
        if let Some(sim) = &self.simulation {
            sim.validate()
                .map_err(|m| JobError::BadConfig(format!("simulation: {m}")))?;
        }
        let shared_cache = shared.and_then(EngineShared::cache);
        if let Some(cache) = &self.cache {
            if shared_cache.is_some() {
                return bad("shared-infrastructure jobs must not configure a private cache");
            }
            cache.validate().map_err(JobError::BadConfig)?;
        }
        let cache_nodes = match &self.cache {
            Some(cache) => Some(cache.nodes),
            None => shared_cache.map(|c| c.with(|c| c.config().nodes)),
        };
        for (run, planned) in faults.iter().flat_map(|f| &f.runs) {
            self.validate_run(planned, cache_nodes)
                .map_err(|m| JobError::BadConfig(format!("fault plan, run {run}: {m}")))?;
        }
        Ok(())
    }

    /// Checks one run's scripted faults: machine faults against the
    /// simulated cluster, cache-node ids against the cache's `cache_nodes`
    /// and partition ids against `partitions`. A fault aimed at a
    /// simulation or a cache the job does not have is inert, and unchecked.
    fn validate_run(&self, planned: &RunFaults, cache_nodes: Option<usize>) -> Result<(), String> {
        if let Some(sim) = &self.simulation {
            let machines = sim.cluster.len();
            planned.cluster.validate(machines)?;
            // Each crashed machine kills at most one attempt of a task, so
            // this budget lets every task of the run finish.
            let crashed = planned.cluster.crashed_machines();
            let attempts = planned.cluster.max_attempts() as usize;
            if crashed >= machines.min(attempts) {
                return Err(format!(
                    "crashes {crashed} machines; a run must spare one of the \
                     {machines} and crash fewer than the {attempts} attempts a task has"
                ));
            }
        }
        if let Some(nodes) = cache_nodes {
            let named = planned
                .cache_recoveries
                .iter()
                .chain(&planned.cache_failures)
                .chain(planned.corruptions.iter().map(|(_, node)| node));
            if let Some(node) = named.copied().find(|&node| node >= nodes) {
                return Err(format!(
                    "cache node n{node} is outside a {nodes}-node cache"
                ));
            }
        }
        let partitions = planned
            .lost_partitions
            .iter()
            .chain(planned.corruptions.iter().map(|(partition, _)| partition));
        if let Some(p) = partitions.copied().find(|&p| p >= self.partitions) {
            return Err(format!(
                "partition {p} is outside the job's {} partitions",
                self.partitions
            ));
        }
        Ok(())
    }
}
