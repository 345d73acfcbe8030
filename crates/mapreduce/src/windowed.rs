//! The windowed job driver: initial runs, incremental slides, work
//! metering, cluster simulation and memoization-cache integration.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use slider_cluster::{
    simulate_traced, ClusterSpec, FaultPlan, MachineId, SchedulerPolicy, SharedClock, Task,
};
use slider_core::{build_tree, Phase, TreeCx, TreeError, TreeKind, UpdateStats, WindowAggregator};
use slider_dcache::{
    CacheConfig, CacheError, CacheStats, DistributedCache, NodeId, ObjectId, RepairStats,
    SharedCache,
};
use slider_trace::{SpanId, SpanKind, TraceSink};

use crate::app::{AppCombiner, MapReduceApp};
use crate::error::JobError;
use crate::fault::JobFaultPlan;
use crate::retry::RetryPolicy;
use crate::runtime::Runtime;
use crate::shared::EngineShared;
use crate::shuffle::partition_of;
use crate::split::{Split, SplitId};
use crate::stats::{RecoveryStats, RunStats};

/// How a windowed job processes slides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Vanilla Hadoop: recompute the whole window from scratch every run.
    Recompute,
    /// Memoization-only incremental baseline (paper §2).
    Strawman,
    /// Self-adjusting contraction trees (§3–§4).
    Slider {
        /// Which tree family member structures the contraction phase.
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

    /// Slider with the memory-lean DABA Lite aggregator.
    pub fn slider_daba_lite() -> Self {
        ExecMode::Slider {
            tree: TreeKind::DabaLite,
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

    fn is_fixed_width(&self) -> bool {
        self.tree_kind() == Some(TreeKind::Rotating)
    }

    fn is_append_only(&self) -> bool {
        self.tree_kind() == Some(TreeKind::Coalescing)
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Recompute => f.write_str("recompute"),
            ExecMode::Strawman => f.write_str("strawman"),
            ExecMode::Slider {
                tree,
                split_processing,
            } => {
                write!(
                    f,
                    "slider-{tree}{}",
                    if *split_processing { "+split" } else { "" }
                )
            }
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
    /// Work units charged per byte of data movement (shuffle plus
    /// memoization reads/writes). Encodes that data-intensive applications
    /// pay for I/O even when compute is memoized.
    pub work_per_byte: f64,
    /// Optional cluster simulation (the *time* metric).
    pub simulation: Option<SimulationConfig>,
    /// Optional distributed memoization cache model.
    pub cache: Option<CacheConfig>,
    /// Optional scripted fault injection: simulated machine crashes and
    /// stragglers (applied to each run's schedule), cache-node failures,
    /// and forced memo-state loss. Outputs never change under any plan;
    /// only work/time metrics and [`RunStats::recovery`] do.
    pub faults: Option<JobFaultPlan>,
    /// Worker threads for the parallel runtime. `0` means automatic: the
    /// `SLIDER_THREADS` environment variable if set, else the machine's
    /// available parallelism. Thread count never affects outputs or the
    /// modeled work/time metrics — only wall-clock speed.
    pub threads: usize,
    /// Trace sink for the deterministic observability subsystem
    /// ([`slider_trace`]). Disabled by default: a disabled sink costs one
    /// branch per instrumentation site and the job behaves bit-identically
    /// to an uninstrumented build. A disabled sink is still upgraded at
    /// job construction when the `SLIDER_TRACE` environment variable is
    /// truthy (mirroring `SLIDER_THREADS`).
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
            work_per_byte: 1.0 / 1024.0,
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

    /// Sets the data-movement work rate. Builder-style.
    pub fn with_work_per_byte(mut self, rate: f64) -> Self {
        self.work_per_byte = rate;
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

    fn validate(&self) -> Result<(), JobError> {
        if self.partitions == 0 {
            return Err(JobError::BadConfig("partitions must be positive".into()));
        }
        if self.bucket_width == 0 || self.window_buckets == 0 {
            return Err(JobError::BadConfig(
                "bucket geometry must be positive".into(),
            ));
        }
        if self.work_per_byte < 0.0 || !self.work_per_byte.is_finite() {
            return Err(JobError::BadConfig(
                "work_per_byte must be finite and >= 0".into(),
            ));
        }
        if let Some(faults) = &self.faults {
            faults
                .validate()
                .map_err(|m| JobError::BadConfig(format!("fault plan: {m}")))?;
            if let Some(sim) = &self.simulation {
                let machines = sim.cluster.len();
                let bad = faults
                    .crashes
                    .iter()
                    .map(|c| c.machine)
                    .chain(faults.stragglers.iter().map(|s| s.machine))
                    .find(|&m| m >= machines);
                if let Some(machine) = bad {
                    return Err(JobError::BadConfig(format!(
                        "fault plan targets machine {machine} but the cluster has {machines}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One mapped split held in the window.
struct SplitEntry<A: MapReduceApp> {
    id: SplitId,
    /// Map output, pre-partitioned: `by_partition[p]` holds this split's
    /// map-side-combined values destined for reduce partition `p`.
    by_partition: Arc<Vec<BTreeMap<A::Key, A::Value>>>,
    map_work: u64,
    input_bytes: u64,
    /// Map-output bytes per partition (shuffle accounting).
    out_bytes: Arc<Vec<u64>>,
}

impl<A: MapReduceApp> SplitEntry<A> {
    fn output_bytes(&self) -> u64 {
        self.out_bytes.iter().sum()
    }
}

impl<A: MapReduceApp> Clone for SplitEntry<A> {
    fn clone(&self) -> Self {
        SplitEntry {
            id: self.id,
            by_partition: Arc::clone(&self.by_partition),
            map_work: self.map_work,
            input_bytes: self.input_bytes,
            out_bytes: Arc::clone(&self.out_bytes),
        }
    }
}

/// Per-reduce-partition incremental state, self-contained so the shared
/// [`Runtime`] can hand every shard to a different worker: the trees of
/// this shard's keys (keys are hash-partitioned in [`crate::shuffle`], so
/// shard key sets are disjoint), their memo footprint as of the last run,
/// and nothing borrowed from the job. Outputs live only in the job's merged
/// view; shards report theirs as deltas.
struct PartitionShard<A: MapReduceApp> {
    #[allow(clippy::type_complexity)]
    trees: HashMap<A::Key, Box<dyn WindowAggregator<A::Key, A::Value>>>,
    memo_footprint: u64,
}

impl<A: MapReduceApp> Default for PartitionShard<A> {
    fn default() -> Self {
        PartitionShard {
            trees: HashMap::new(),
            memo_footprint: 0,
        }
    }
}

// Deep copy for checkpoints. Rebuilding a tree from the retained window
// would reproduce the *answers* but not the memoization statistics
// (merges, nodes_reused, memo footprint) of later runs, so checkpoints
// clone the aggregator state exactly via `WindowAggregator::boxed_clone`.
impl<A: MapReduceApp> Clone for PartitionShard<A> {
    fn clone(&self) -> Self {
        PartitionShard {
            trees: self
                .trees
                .iter()
                .map(|(k, tree)| (k.clone(), tree.boxed_clone()))
                .collect(),
            memo_footprint: self.memo_footprint,
        }
    }
}

/// Per-partition work of one run, used for precise task construction in the
/// cluster simulation.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionWork {
    fg_work: u64,
    bg_work: u64,
    reduce_work: u64,
    memo_read_bytes: u64,
    shuffle_bytes: u64,
}

/// Aggregate outcome of the contraction+reduce phase.
#[derive(Default)]
struct PhaseOutcome {
    tree_stats: UpdateStats,
    reduce_work: u64,
    keys_reduced: usize,
    keys_reused: usize,
    per_partition: Vec<PartitionWork>,
}

/// What one shard reports back from a contraction+reduce run. Everything is
/// owned, so workers never touch shared job state; the job folds these in
/// shard-index order, which keeps all metering deterministic.
struct ShardOutcome<A: MapReduceApp> {
    tree_stats: UpdateStats,
    work: PartitionWork,
    keys_reduced: usize,
    keys_reused: usize,
    /// Output changes (`Some` = upsert, `None` = delete), applied to the
    /// merged read view in shard order. Shard key sets are disjoint, so the
    /// application order across shards cannot change the result — only the
    /// iteration order, which is fixed.
    deltas: Vec<(A::Key, Option<A::Output>)>,
}

impl<A: MapReduceApp> Default for ShardOutcome<A> {
    fn default() -> Self {
        ShardOutcome {
            tree_stats: UpdateStats::default(),
            work: PartitionWork::default(),
            keys_reduced: 0,
            keys_reused: 0,
            deltas: Vec::new(),
        }
    }
}

/// Shared read-only inputs of one run's window edit, borrowed by every
/// shard worker: the window *after* the edit, and the entries that left
/// and entered it.
struct EditCx<'a, A: MapReduceApp> {
    app: &'a A,
    combiner: &'a AppCombiner<A>,
    config: &'a JobConfig,
    window: &'a VecDeque<SplitEntry<A>>,
    removed: &'a [SplitEntry<A>],
    added: &'a [SplitEntry<A>],
    /// Window position of an interior splice (0 = oldest split; the
    /// removed entries were drained from `at`, the added ones sit at
    /// `window[at..]`). `None` for a slide, which edits the window's ends.
    splice_at: Option<usize>,
    /// Whether a fixed-width window held all its buckets before the slide.
    was_full_buckets: bool,
    kind: TreeKind,
    /// Run split-mode background pre-processing after the foreground edit.
    split_processing: bool,
}

/// A sliding-window MapReduce job.
///
/// See the crate-level docs for a complete example.
pub struct WindowedJob<A: MapReduceApp> {
    app: Arc<A>,
    combiner: AppCombiner<A>,
    config: JobConfig,
    runtime: Runtime,
    window: VecDeque<SplitEntry<A>>,
    shards: Vec<PartitionShard<A>>,
    /// Merged read view over the shard outputs (see [`WindowedJob::output`]).
    output: BTreeMap<A::Key, A::Output>,
    used_split_ids: HashSet<u64>,
    run_index: u64,
    /// Env-resolved copy of `config.trace`; every instrumentation site in
    /// the job goes through this sink. All emission happens on the control
    /// thread, in deterministic fold order, so traces are bit-identical
    /// across thread counts and reruns.
    trace: TraceSink,
    /// The memoization cache. Standalone jobs wrap a private cache here
    /// (namespace 0); jobs built with [`WindowedJob::with_shared`] hold a
    /// clone of the service-wide handle instead.
    cache: Option<SharedCache>,
    /// Object-id namespace this job's memoized state lives under. `0` for
    /// standalone jobs — `ObjectId::namespaced(0, p) == ObjectId(p)`, so
    /// legacy cache contents and stats are bit-identical.
    cache_ns: u32,
    /// Shared simulated-cluster clock, advanced by each run's makespan
    /// when the cluster simulation is on. `None` for standalone jobs.
    clock: Option<SharedClock>,
    /// Per-partition flag: the partition's memoized state was written to
    /// the cache by a previous run, so the next run is expected to read it
    /// back. Reads are only issued (and can only fail) for such objects.
    cached_objects: Vec<bool>,
}

/// Deep, self-contained checkpoint of a job's mutable state: the retained
/// window, every shard's aggregator trees (cloned exactly — see
/// [`WindowedJob::checkpoint`]), the output view, split-id ledger, run
/// counter, and the job's cache namespace and per-partition cached-object
/// flags. It does **not** capture infrastructure (runtime, trace sink,
/// cache *contents*, clock): those are service-level state, checkpointed
/// once by the host rather than once per job.
///
/// A checkpoint is a value: restoring never consumes it, so one checkpoint
/// can seed any number of resumed twins.
pub struct JobCheckpoint<A: MapReduceApp> {
    app: Arc<A>,
    config: JobConfig,
    window: VecDeque<SplitEntry<A>>,
    shards: Vec<PartitionShard<A>>,
    output: BTreeMap<A::Key, A::Output>,
    used_split_ids: HashSet<u64>,
    run_index: u64,
    cache_ns: u32,
    cached_objects: Vec<bool>,
}

impl<A: MapReduceApp> JobCheckpoint<A> {
    /// Runs completed at capture time.
    #[must_use]
    pub fn run_index(&self) -> u64 {
        self.run_index
    }

    /// Splits retained in the captured window.
    #[must_use]
    pub fn window_splits(&self) -> usize {
        self.window.len()
    }

    /// The cache namespace the captured job's memoized objects live under.
    #[must_use]
    pub fn cache_namespace(&self) -> u32 {
        self.cache_ns
    }
}

impl<A: MapReduceApp> Clone for JobCheckpoint<A> {
    fn clone(&self) -> Self {
        JobCheckpoint {
            app: Arc::clone(&self.app),
            config: self.config.clone(),
            window: self.window.clone(),
            shards: self.shards.clone(),
            output: self.output.clone(),
            used_split_ids: self.used_split_ids.clone(),
            run_index: self.run_index,
            cache_ns: self.cache_ns,
            cached_objects: self.cached_objects.clone(),
        }
    }
}

/// Converts modeled data movement into work units: `bytes × work_per_byte`
/// floored into u64. The truncation is the point — work is an integral
/// unit count — and Rust's saturating float casts make the conversion
/// total, so the narrowing is deliberate here.
fn movement_work(moved_bytes: u64, work_per_byte: f64) -> u64 {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let work = (moved_bytes as f64 * work_per_byte) as u64;
    work
}

/// Runs one Map task: maps every record of `split`, combining map-side per
/// partition, and meters the work.
fn map_one_split<A: MapReduceApp>(app: &A, parts: usize, split: &Split<A::Input>) -> SplitEntry<A> {
    let mut by_partition: Vec<BTreeMap<A::Key, A::Value>> =
        (0..parts).map(|_| BTreeMap::new()).collect();
    let mut map_work = 0u64;
    let mut input_bytes = 0u64;
    for record in split.records() {
        map_work += app.map_cost(record);
        input_bytes += app.record_bytes(record);
        let mut emit = |key: A::Key, value: A::Value| {
            let p = partition_of(&key, parts);
            match by_partition[p].entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // Map-side combine, charged to map work.
                    let key = e.key().clone();
                    map_work += app.combine_cost(&key, e.get(), &value);
                    let merged = app.combine(&key, e.get(), &value);
                    *e.get_mut() = merged;
                }
            }
        };
        app.map(record, &mut emit);
    }
    let out_bytes: Vec<u64> = by_partition
        .iter()
        .map(|m| m.iter().map(|(k, v)| app.value_bytes(k, v)).sum())
        .collect();
    SplitEntry {
        id: split.id(),
        by_partition: Arc::new(by_partition),
        map_work,
        input_bytes,
        out_bytes: Arc::new(out_bytes),
    }
}

impl<A: MapReduceApp> fmt::Debug for WindowedJob<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowedJob")
            .field("mode", &self.config.mode)
            .field("window_splits", &self.window.len())
            .field("keys", &self.output.len())
            .field("run", &self.run_index)
            .finish()
    }
}

impl<A: MapReduceApp> WindowedJob<A> {
    /// Creates a job for `app` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::BadConfig`] for inconsistent configurations
    /// (zero partitions, zero bucket geometry, or a non-commutative
    /// combiner with a fixed-width window).
    pub fn new(app: A, config: JobConfig) -> Result<Self, JobError> {
        let trace = config.trace.clone().resolve_env();
        let cache = config.cache.clone().map(|cache_config| {
            let mut cache = DistributedCache::new(cache_config);
            cache.attach_trace(trace.clone());
            SharedCache::new(cache)
        });
        let runtime = Runtime::auto(config.threads).with_trace(trace.clone());
        Self::build(app, config, runtime, trace, cache, 0, None)
    }

    /// Creates a job attached to service-wide infrastructure: the shared
    /// runtime, trace sink, memoization cache (under a freshly allocated
    /// object-id namespace) and simulator clock of `shared`, instead of
    /// private per-job instances. A job whose config scripts no fault
    /// plan inherits the shared default plan.
    ///
    /// `config.threads` and `config.trace` are ignored — the shared
    /// runtime and sink win; see [`EngineShared`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::BadConfig`] for inconsistent configurations
    /// (as [`WindowedJob::new`]), or when `config.cache` requests a
    /// private cache alongside the shared one.
    pub fn with_shared(app: A, config: JobConfig, shared: &EngineShared) -> Result<Self, JobError> {
        if config.cache.is_some() && shared.cache().is_some() {
            return Err(JobError::BadConfig(
                "shared-infrastructure jobs must not configure a private cache".into(),
            ));
        }
        let mut config = config;
        if config.faults.is_none() {
            config.faults = shared.fault_plan().cloned();
        }
        let trace = shared.trace().clone();
        let cache = shared.cache().cloned();
        let cache_ns = if cache.is_some() {
            shared.allocate_namespace()
        } else {
            0
        };
        let private_cache = config.cache.clone().map(|cache_config| {
            let mut cache = DistributedCache::new(cache_config);
            cache.attach_trace(trace.clone());
            SharedCache::new(cache)
        });
        Self::build(
            app,
            config,
            shared.runtime().clone(),
            trace,
            cache.or(private_cache),
            cache_ns,
            shared.clock().cloned(),
        )
    }

    fn build(
        app: A,
        config: JobConfig,
        runtime: Runtime,
        trace: TraceSink,
        cache: Option<SharedCache>,
        cache_ns: u32,
        clock: Option<SharedClock>,
    ) -> Result<Self, JobError> {
        config.validate()?;
        if config.mode.is_fixed_width() && !app.is_commutative() {
            return Err(JobError::BadConfig(
                "fixed-width (rotating) windows require a commutative combiner".into(),
            ));
        }
        let app = Arc::new(app);
        let combiner = AppCombiner::new(Arc::clone(&app));
        let shards = (0..config.partitions)
            .map(|_| PartitionShard::default())
            .collect();
        let cached_objects = vec![false; config.partitions];
        Ok(WindowedJob {
            app,
            combiner,
            config,
            runtime,
            window: VecDeque::new(),
            shards,
            output: BTreeMap::new(),
            used_split_ids: HashSet::new(),
            run_index: 0,
            trace,
            cache,
            cache_ns,
            clock,
            cached_objects,
        })
    }

    /// The object id partition `p`'s memoized state is cached under —
    /// namespaced so jobs sharing one cache never collide.
    fn object_id(&self, partition: usize) -> ObjectId {
        ObjectId::namespaced(self.cache_ns, partition as u64)
    }

    /// The cache namespace this job's objects live under (`0` standalone).
    pub fn cache_namespace(&self) -> u32 {
        self.cache_ns
    }

    /// The current per-key output of the job.
    pub fn output(&self) -> &BTreeMap<A::Key, A::Output> {
        &self.output
    }

    /// The configuration in use.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// The parallel runtime executing this job's per-shard phases. Shared
    /// with downstream pipeline stages so the whole query inherits it.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The trace sink this job emits to (env-resolved at construction).
    /// Disabled unless [`JobConfig::with_trace`] installed an enabled sink
    /// or `SLIDER_TRACE` was truthy when the job was built.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Number of splits currently in the window.
    pub fn window_splits(&self) -> usize {
        self.window.len()
    }

    /// Total memoization footprint, in modeled bytes.
    pub fn memo_footprint_bytes(&self) -> u64 {
        self.shards.iter().map(|p| p.memo_footprint).sum()
    }

    /// Captures a deep checkpoint of the job's mutable state.
    ///
    /// Aggregator trees are cloned *exactly* (not rebuilt from the window):
    /// a rebuild would reproduce the answers but diverge on memoization
    /// statistics of later runs, breaking the restored-twin bit-identity
    /// contract. Cache contents, the runtime, trace sink and clock are not
    /// captured — the host checkpoints those once, at service level.
    #[must_use]
    pub fn checkpoint(&self) -> JobCheckpoint<A> {
        JobCheckpoint {
            app: Arc::clone(&self.app),
            config: self.config.clone(),
            window: self.window.clone(),
            shards: self.shards.clone(),
            output: self.output.clone(),
            used_split_ids: self.used_split_ids.clone(),
            run_index: self.run_index,
            cache_ns: self.cache_ns,
            cached_objects: self.cached_objects.clone(),
        }
    }

    /// Reconstructs a job from `checkpoint`, attached to `shared`
    /// infrastructure — the restore counterpart of
    /// [`WindowedJob::with_shared`]. The checkpoint's cache namespace is
    /// reused verbatim (nothing is allocated), so the job finds its
    /// memoized objects exactly where the captured job left them; the host
    /// is responsible for restoring the shared cache's contents and
    /// namespace watermark first.
    ///
    /// The checkpoint is borrowed, not consumed: its shards are deep-cloned
    /// again, so one checkpoint restores any number of twins.
    ///
    /// # Errors
    ///
    /// [`JobError::BadConfig`] if the captured config fails validation
    /// (possible only for checkpoints doctored by hand) or requests a
    /// private cache alongside the shared one.
    pub fn restore_with_shared(
        checkpoint: &JobCheckpoint<A>,
        shared: &EngineShared,
    ) -> Result<Self, JobError> {
        if checkpoint.config.cache.is_some() && shared.cache().is_some() {
            return Err(JobError::BadConfig(
                "shared-infrastructure jobs must not configure a private cache".into(),
            ));
        }
        checkpoint.config.validate()?;
        Ok(WindowedJob {
            app: Arc::clone(&checkpoint.app),
            combiner: AppCombiner::new(Arc::clone(&checkpoint.app)),
            config: checkpoint.config.clone(),
            runtime: shared.runtime().clone(),
            window: checkpoint.window.clone(),
            shards: checkpoint.shards.clone(),
            output: checkpoint.output.clone(),
            used_split_ids: checkpoint.used_split_ids.clone(),
            run_index: checkpoint.run_index,
            trace: shared.trace().clone(),
            cache: shared.cache().cloned(),
            cache_ns: checkpoint.cache_ns,
            clock: shared.clock().cloned(),
            cached_objects: checkpoint.cached_objects.clone(),
        })
    }

    /// Runs the initial computation over `splits` (the whole first window).
    ///
    /// # Errors
    ///
    /// Fails if the job already ran, a split id repeats, or the splits
    /// violate the window geometry.
    pub fn initial_run(&mut self, splits: Vec<Split<A::Input>>) -> Result<RunStats, JobError> {
        if self.run_index != 0 || !self.window.is_empty() {
            return Err(JobError::ModeViolation(
                "initial_run may only run once".into(),
            ));
        }
        self.advance(0, splits)
    }

    /// Slides the window: drops the oldest `remove_splits` splits, appends
    /// `added`, and updates the output incrementally (or from scratch in
    /// [`ExecMode::Recompute`]).
    ///
    /// # Errors
    ///
    /// Fails on window-discipline violations (see [`JobError`]); the job
    /// state is unchanged on error.
    pub fn advance(
        &mut self,
        remove_splits: usize,
        added: Vec<Split<A::Input>>,
    ) -> Result<RunStats, JobError> {
        self.validate_slide(remove_splits, &added)?;
        self.run_edit(None, remove_splits, Some(added))
    }

    /// Splices late splits into the *interior* of the window so that the
    /// first inserted split lands at window position `at` (0 = oldest;
    /// `at == window_splits()` appends), updating the output incrementally.
    ///
    /// This is the event-time late-data path: a record admitted after its
    /// epoch already closed belongs between splits that are both still in
    /// the window, where [`WindowedJob::advance`] cannot put it. Trees with
    /// native interior splices ([`TreeKind::supports_splice`]) absorb the
    /// insertion in one bulk splice; every other aggregator rebuilds the
    /// affected keys from the post-splice window, with the rebuild work
    /// charged to this run's foreground contraction breakdown — outputs are
    /// identical either way, only the metered work differs.
    ///
    /// # Errors
    ///
    /// [`JobError::SpliceOutOfRange`] if `at` exceeds the window;
    /// [`JobError::ModeViolation`] for fixed-width (rotating) jobs, whose
    /// positional bucket geometry admits no interior splices;
    /// [`JobError::DuplicateSplit`] for reused split ids. The job state is
    /// unchanged on error.
    pub fn insert_splits_at(
        &mut self,
        at: usize,
        added: Vec<Split<A::Input>>,
    ) -> Result<RunStats, JobError> {
        self.check_splice_mode(false)?;
        if at > self.window.len() {
            return Err(JobError::SpliceOutOfRange {
                at,
                count: added.len(),
                window: self.window.len(),
            });
        }
        self.check_fresh_ids(&added)?;
        self.run_edit(Some(at), 0, Some(added))
    }

    /// Evicts the contiguous split range `[at, at + count)` from the
    /// *interior* of the window in one bulk splice (0 = oldest), updating
    /// the output incrementally.
    ///
    /// Bursty event-time streams close several epochs at once; the stale
    /// region they displace need not start at the window's front, which is
    /// all [`WindowedJob::advance`] can drop. Trees with native interior
    /// splices ([`TreeKind::supports_splice`]) excise the range in one bulk
    /// splice; every other aggregator rebuilds the affected keys from the
    /// post-splice window (work charged to this run's foreground
    /// contraction breakdown).
    ///
    /// # Errors
    ///
    /// [`JobError::SpliceOutOfRange`] if the range exceeds the window;
    /// [`JobError::ModeViolation`] for fixed-width (rotating) jobs and for
    /// append-only (coalescing) jobs, which never evict. The job state is
    /// unchanged on error.
    pub fn evict_splits_range(&mut self, at: usize, count: usize) -> Result<RunStats, JobError> {
        self.check_splice_mode(true)?;
        if at
            .checked_add(count)
            .is_none_or(|end| end > self.window.len())
        {
            return Err(JobError::SpliceOutOfRange {
                at,
                count,
                window: self.window.len(),
            });
        }
        self.run_edit(Some(at), count, None)
    }

    // ------------------------------------------------------------------
    // The run body shared by slides and splices
    // ------------------------------------------------------------------

    /// One run: begin it, map `added`, edit the window, meter the map
    /// phase, recompute or update every shard, and finish the run.
    ///
    /// The edit drains `evict` splits and inserts the mapped `added` at
    /// the window's ends (from the front, onto the back) when `splice_at`
    /// is `None`, or at interior position `splice_at`. `added` is `None`
    /// for an interior eviction, which has no map phase at all.
    fn run_edit(
        &mut self,
        splice_at: Option<usize>,
        evict: usize,
        added: Option<Vec<Split<A::Input>>>,
    ) -> Result<RunStats, JobError> {
        let (run_span, recovery, repair_before) = self.begin_run()?;
        let was_full_buckets = self.config.mode.is_fixed_width()
            && self.window.len() == self.config.window_buckets * self.config.bucket_width;

        // ---- Map phase: run Map tasks for the new splits. ---------------
        let new_entries = match &added {
            Some(splits) => self.map_splits(splits),
            None => Vec::new(),
        };
        let at = splice_at.unwrap_or(0);
        let removed: Vec<SplitEntry<A>> = self.window.drain(at..at + evict).collect();
        let insert_at = splice_at.unwrap_or(self.window.len());
        for (offset, entry) in new_entries.iter().enumerate() {
            self.window.insert(insert_at + offset, entry.clone());
        }
        for split in added.iter().flatten() {
            self.used_split_ids.insert(split.id().0);
        }

        let stats = self.map_phase_stats(&new_entries);
        self.trace_map_phase(&stats, &new_entries);

        // ---- Contraction + Reduce phase. ---------------------------------
        let outcome = match self.config.mode.tree_kind() {
            None => self.run_recompute(),
            Some(kind) => {
                let cx = EditCx {
                    app: &*self.app,
                    combiner: &self.combiner,
                    config: &self.config,
                    window: &self.window,
                    removed: &removed,
                    added: &new_entries,
                    splice_at,
                    was_full_buckets,
                    kind,
                    // Splices run entirely in the foreground: background
                    // pre-processing follows the bucket-cadenced slides.
                    split_processing: splice_at.is_none() && self.config.mode.split_processing(),
                };
                // Every shard edits its trees, reduces its dirty keys and
                // pre-processes on the shared runtime; outcomes fold in
                // shard-index order, so all metering is identical for any
                // thread count.
                let results = self
                    .runtime
                    .map_mut(&mut self.shards, |p, shard| shard.run_edit(p, &cx));
                let mut outcome = PhaseOutcome::default();
                for result in results {
                    self.fold_shard_outcome(&mut outcome, result?);
                }
                outcome
            }
        };
        Ok(self.finish_run(
            stats,
            outcome,
            &new_entries,
            recovery,
            repair_before,
            run_span,
        ))
    }

    /// Opens this run's trace span and applies its scripted faults
    /// (recovery is metered apart from the regular work breakdown).
    /// Returns the span, the recovery accumulator seeded by fault
    /// handling, and the repair-stats baseline for the end-of-run delta.
    fn begin_run(&mut self) -> Result<(Option<SpanId>, RecoveryStats, RepairStats), JobError> {
        let run_span = self.trace.with(|t| {
            t.set_run(self.run_index);
            let tr = t.track("engine");
            t.begin(tr, SpanKind::Run, format!("run #{}", self.run_index))
        });
        let mut recovery = RecoveryStats::default();
        let repair_before = self
            .cache
            .as_ref()
            .map(|cache| cache.with(|c| c.repair_stats()))
            .unwrap_or_default();
        self.apply_planned_faults(&mut recovery)?;
        Ok((run_span, recovery, repair_before))
    }

    /// Map-phase statistics shared by slides and splices: `new_entries`
    /// were mapped this run, everything else in the (already updated)
    /// window is reused — except under [`ExecMode::Recompute`], which
    /// re-maps and re-shuffles the whole window every run.
    fn map_phase_stats(&self, new_entries: &[SplitEntry<A>]) -> RunStats {
        let mut stats = RunStats {
            run: self.run_index,
            ..Default::default()
        };
        stats.map_tasks = new_entries.len();
        stats.work.map = new_entries.iter().map(|e| e.map_work).sum();
        stats.shuffle_bytes = new_entries.iter().map(|e| e.output_bytes()).sum();
        if self.config.mode == ExecMode::Recompute {
            stats.map_tasks = self.window.len();
            stats.work.map = self.window.iter().map(|e| e.map_work).sum();
            stats.shuffle_bytes = self.window.iter().map(|e| e.output_bytes()).sum();
        } else {
            stats.map_reused = self.window.len() - new_entries.len();
        }
        stats
    }

    /// Emits the map-phase spans and counters: one Map leaf per executed
    /// map task, in deterministic task order; leaf works sum exactly to
    /// `stats.work.map`, the shuffle leaf carries `stats.shuffle_bytes`.
    fn trace_map_phase(&self, stats: &RunStats, new_entries: &[SplitEntry<A>]) {
        self.trace.with(|t| {
            let tr = t.track("engine");
            let map_span = t.begin(tr, SpanKind::Map, "map");
            let mapped: Vec<(u64, u64, u64)> = if self.config.mode == ExecMode::Recompute {
                self.window
                    .iter()
                    .map(|e| (e.id.0, e.map_work, e.input_bytes))
                    .collect()
            } else {
                new_entries
                    .iter()
                    .map(|e| (e.id.0, e.map_work, e.input_bytes))
                    .collect()
            };
            for (id, map_work, input_bytes) in mapped {
                let leaf = t.leaf(tr, SpanKind::Map, format!("split {id}"), map_work);
                t.arg(leaf, "input_bytes", input_bytes);
            }
            t.end(map_span);
            let shuffle = t.leaf(tr, SpanKind::Shuffle, "shuffle", 0);
            t.arg(shuffle, "bytes", stats.shuffle_bytes);
            t.add("engine.map_tasks", stats.map_tasks as u64);
            t.add("engine.map_reused", stats.map_reused as u64);
            t.add("engine.shuffle_bytes", stats.shuffle_bytes);
        });
    }

    /// Shared tail of every run (slide or splice): folds the contraction
    /// outcome into `stats`, emits the contraction/reduce/background
    /// spans, refreshes footprints, charges data movement, runs the
    /// cluster simulation and cache model, meters recovery and repair,
    /// closes the run span and bumps the run index.
    fn finish_run(
        &mut self,
        mut stats: RunStats,
        outcome: PhaseOutcome,
        new_entries: &[SplitEntry<A>],
        mut recovery: RecoveryStats,
        repair_before: RepairStats,
        run_span: Option<SpanId>,
    ) -> RunStats {
        let trace = self.trace.clone();
        stats.work.contraction_fg = outcome.tree_stats.foreground;
        stats.work.contraction_bg = outcome.tree_stats.background;
        stats.nodes_reused = outcome.tree_stats.reused;
        stats.work.reduce = outcome.reduce_work;
        stats.keys_reduced = outcome.keys_reduced;
        stats.keys_reused = outcome.keys_reused;
        stats.memo_read_bytes = outcome.tree_stats.bytes_read;

        // Per-partition contraction and reduce leaves (shard-fold order).
        // Foreground leaf works sum to `stats.work.contraction_fg.work`,
        // reduce leaves to `stats.work.reduce`, background leaves (their
        // own track: off the critical path) to `contraction_bg.work`.
        trace.with(|t| {
            let tr = t.track("engine");
            let fg = t.begin(tr, SpanKind::ContractionFg, "contraction-fg");
            for (p, pw) in outcome.per_partition.iter().enumerate() {
                if pw.fg_work > 0 {
                    t.leaf(
                        tr,
                        SpanKind::ContractionFg,
                        format!("partition {p}"),
                        pw.fg_work,
                    );
                }
            }
            t.end(fg);
            let reduce = t.begin(tr, SpanKind::Reduce, "reduce");
            for (p, pw) in outcome.per_partition.iter().enumerate() {
                if pw.reduce_work > 0 {
                    t.leaf(
                        tr,
                        SpanKind::Reduce,
                        format!("partition {p}"),
                        pw.reduce_work,
                    );
                }
            }
            t.end(reduce);
            if outcome.per_partition.iter().any(|pw| pw.bg_work > 0) {
                let bg_track = t.track("background");
                let bg = t.begin(bg_track, SpanKind::ContractionBg, "contraction-bg");
                for (p, pw) in outcome.per_partition.iter().enumerate() {
                    if pw.bg_work > 0 {
                        t.leaf(
                            bg_track,
                            SpanKind::ContractionBg,
                            format!("partition {p}"),
                            pw.bg_work,
                        );
                    }
                }
                t.end(bg);
            }
            t.add("engine.keys_reduced", stats.keys_reduced as u64);
            t.add("engine.keys_reused", stats.keys_reused as u64);
            t.add("engine.nodes_reused", stats.nodes_reused);
            t.add("engine.merges_fg", outcome.tree_stats.foreground.merges);
            t.add("engine.merges_bg", outcome.tree_stats.background.merges);
            t.add("engine.memo_read_bytes", outcome.tree_stats.bytes_read);
            t.add(
                "engine.memo_written_bytes",
                outcome.tree_stats.bytes_written,
            );
        });

        // Refresh shard footprints: every tree keeps its own current, so
        // this is a sum of O(1) reads.
        for shard in &mut self.shards {
            shard.refresh_footprint();
        }
        stats.memo_footprint_bytes = self.memo_footprint_bytes();
        stats.window_input_bytes = self.window.iter().map(|e| e.input_bytes).sum();

        // Data movement charged as work.
        let moved_bytes =
            stats.shuffle_bytes + stats.memo_read_bytes + outcome.tree_stats.bytes_written;
        stats.work.movement = movement_work(moved_bytes, self.config.work_per_byte);
        trace.with(|t| {
            let tr = t.track("engine");
            let movement = t.leaf(tr, SpanKind::Movement, "movement", stats.work.movement);
            t.arg(movement, "moved_bytes", moved_bytes);
            t.gauge(
                "engine.memo_footprint_bytes",
                stats.memo_footprint_bytes as f64,
            );
            t.gauge("engine.window_splits", self.window.len() as f64);
        });

        // ---- Cluster simulation (time metric). ---------------------------
        if let Some(sim) = self.config.simulation.clone() {
            let (fg, bg) = self.build_sim(&sim, new_entries, &outcome);
            stats.sim = Some(fg);
            stats.sim_background = bg;
        }

        // ---- Memoization-cache model. -------------------------------------
        if self.cache.is_some() {
            stats.cache = Some(self.play_cache_traffic(&mut recovery));
            self.run_cache_maintenance();
        }
        stats.recovery = recovery;
        trace.with(|t| {
            t.add(
                "recovery.lost_partitions",
                stats.recovery.lost_partitions as u64,
            );
            t.add(
                "recovery.keys_recomputed",
                stats.recovery.keys_recomputed as u64,
            );
            t.add(
                "recovery.cache_misses_recovered",
                stats.recovery.cache_misses_recovered,
            );
            t.add("recovery.cache_not_found", stats.recovery.cache_not_found);
            t.add(
                "recovery.cache_unavailable",
                stats.recovery.cache_unavailable,
            );
            t.add("recovery.read_retries", stats.recovery.read_retries);
        });
        if let Some(cache) = &self.cache {
            stats.repair = cache.with(|c| c.repair_stats()).delta_since(&repair_before);
            // Repair traffic rides the same network as the job; account it
            // in the simulated schedule as off-critical-path background
            // bytes/seconds so makespans stay comparable.
            if let Some(sim) = &mut stats.sim {
                sim.attach_repair_traffic(
                    stats.repair.repair_bytes,
                    stats.repair.repair_seconds + stats.repair.scrub_seconds,
                );
            }
            // Run-level repair/scrub summary spans carry the exact f64
            // deltas stored in `stats.repair`, so span seconds reconcile
            // bit-for-bit with `RepairStats` (the fine-grained dcache-track
            // spans reconcile via u64 counters instead: float telescoping
            // deltas are not exactly refoldable).
            trace.with(|t| {
                let tr = t.track("repair");
                let repair =
                    t.leaf_seconds(tr, SpanKind::Repair, "repair", stats.repair.repair_seconds);
                t.arg(repair, "enqueued", stats.repair.enqueued);
                t.arg(repair, "repaired_objects", stats.repair.repaired_objects);
                t.arg(repair, "copies_restored", stats.repair.copies_restored);
                t.arg(repair, "repair_bytes", stats.repair.repair_bytes);
                let scrub =
                    t.leaf_seconds(tr, SpanKind::Scrub, "scrub", stats.repair.scrub_seconds);
                t.arg(scrub, "scrubbed_copies", stats.repair.scrubbed_copies);
                t.arg(scrub, "scrub_bytes", stats.repair.scrub_bytes);
            });
        }
        trace.with(|t| {
            if let Some(span) = run_span {
                t.end(span);
            }
        });

        // A shared simulator clock accrues each run's foreground makespan:
        // the cluster was busy for that long in virtual time.
        if let (Some(clock), Some(sim)) = (&self.clock, &stats.sim) {
            clock.advance(sim.makespan);
        }

        self.run_index += 1;
        stats
    }

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

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Applies this run's scripted faults before the slide: cache-node
    /// recoveries, then failures, then forced memo loss. Lost partitions
    /// rebuild their contraction state immediately by replaying the
    /// current (pre-slide) window through the initial-run path, so the
    /// slide that follows proceeds exactly as in a fault-free job — the
    /// combiner's associativity makes the rebuilt trees answer-equivalent
    /// even where their internal shape differs. All rebuild work lands in
    /// [`RecoveryStats`], never in the regular work breakdown.
    fn apply_planned_faults(&mut self, recovery: &mut RecoveryStats) -> Result<(), JobError> {
        let Some(plan) = self.config.faults.clone() else {
            return Ok(());
        };
        let run = self.run_index;
        for node in plan.cache_recoveries_for_run(run) {
            self.recover_cache_node(node)?;
        }
        for node in plan.cache_failures_for_run(run) {
            self.fail_cache_node(node)?;
        }
        if let Some(cache) = &self.cache {
            for (partition, node) in plan.corruptions_for_run(run) {
                if partition < self.config.partitions {
                    let object = ObjectId::namespaced(self.cache_ns, partition as u64);
                    cache.with(|c| {
                        if node < c.config().nodes {
                            c.corrupt_object(object, NodeId(node));
                        }
                    });
                }
            }
            if plan.loses_master_before(run) {
                // The master crashes and restarts: the index is gone and is
                // rebuilt synchronously from the live nodes' inventories
                // before the run proceeds. Objects with no surviving copy
                // read NotFound below and recompute in the foreground.
                cache.with(|c| {
                    c.lose_master();
                    c.rebuild_master();
                });
            }
        }
        let lost: Vec<usize> = plan
            .lost_partitions(run)
            .into_iter()
            .filter(|&p| p < self.shards.len())
            .collect();
        if lost.is_empty() || self.config.mode.tree_kind().is_none() {
            // Nothing scripted, or vanilla recompute holds no memoized
            // state a loss could destroy.
            return Ok(());
        }
        self.rebuild_lost_shards(&lost, recovery)
    }

    /// Drops and rebuilds the memoized state of `lost` partitions from the
    /// pre-slide window. The job's output view is left untouched: it was
    /// correct before the loss and the rebuild reproduces equivalent
    /// trees, so recomputing the outputs could only confirm the same values.
    fn rebuild_lost_shards(
        &mut self,
        lost: &[usize],
        recovery: &mut RecoveryStats,
    ) -> Result<(), JobError> {
        let kind = self
            .config
            .mode
            .tree_kind()
            .expect("caller checked incremental mode");
        let window_entries: Vec<SplitEntry<A>> = self.window.iter().cloned().collect();
        // Replaying the whole window as a slide with nothing removed
        // re-enters the initial-fill path of every tree family (`rotate`
        // sees zero pre-existing buckets, the others only additions).
        let cx = EditCx {
            app: &*self.app,
            combiner: &self.combiner,
            config: &self.config,
            window: &self.window,
            removed: &[],
            added: &window_entries,
            splice_at: None,
            was_full_buckets: false,
            kind,
            split_processing: false,
        };
        for &p in lost {
            let shard = &mut self.shards[p];
            if shard.trees.is_empty() {
                // Nothing memoized yet (e.g. a loss scripted before the
                // initial run): nothing to recover.
                continue;
            }
            shard.trees.clear();
            shard.memo_footprint = 0;
            if let Some(cache) = &self.cache {
                // The replicated object is gone too; the next cache read
                // fails over and ultimately misses, metered below.
                let object = ObjectId::namespaced(self.cache_ns, p as u64);
                cache.with(|c| c.lose_object(object));
            }
            let mut stats = UpdateStats::default();
            let recomputed = shard.edit(p, &cx, &mut stats)?;
            recovery.lost_partitions += 1;
            recovery.keys_recomputed += recomputed.len();
            let rebuild_work = stats.foreground.work + stats.background.work;
            let rebuild_merges = stats.foreground.merges + stats.background.merges;
            recovery.rebuild_work += rebuild_work;
            recovery.rebuild_merges += rebuild_merges;
            // Rebuild leaves carry the same work operand accumulated into
            // `RecoveryStats::rebuild_work`, so the recovery track
            // reconciles exactly.
            self.trace.with(|t| {
                let tr = t.track("recovery");
                let leaf = t.leaf(
                    tr,
                    SpanKind::Recovery,
                    format!("rebuild partition {p}"),
                    rebuild_work,
                );
                t.arg(leaf, "keys", recomputed.len() as u64);
                t.arg(leaf, "merges", rebuild_merges);
            });
        }
        Ok(())
    }

    fn validate_slide(
        &self,
        remove_splits: usize,
        added: &[Split<A::Input>],
    ) -> Result<(), JobError> {
        if remove_splits > self.window.len() {
            return Err(JobError::RemoveExceedsWindow {
                requested: remove_splits,
                window: self.window.len(),
            });
        }
        self.check_fresh_ids(added)?;
        self.check_slide_mode(remove_splits, added.len())
    }

    /// Window discipline of a slide that drops `remove_splits` splits and
    /// appends `added`: append-only (coalescing) jobs never remove, and
    /// fixed-width (rotating) jobs move in whole buckets within capacity.
    pub(crate) fn check_slide_mode(
        &self,
        remove_splits: usize,
        added: usize,
    ) -> Result<(), JobError> {
        let mode = self.config.mode;
        if mode.is_append_only() && remove_splits != 0 {
            return Err(JobError::ModeViolation(
                "append-only (coalescing) jobs cannot remove splits".into(),
            ));
        }
        if mode.is_fixed_width() {
            let w = self.config.bucket_width;
            if !remove_splits.is_multiple_of(w) || !added.is_multiple_of(w) {
                return Err(JobError::ModeViolation(format!(
                    "fixed-width slides must be whole buckets of {w} splits"
                )));
            }
            let capacity = self.config.window_buckets * w;
            let full = self.window.len() == capacity;
            if full && remove_splits != added {
                return Err(JobError::ModeViolation(
                    "a full fixed-width window must remove as many buckets as it adds".into(),
                ));
            }
            if !full {
                if remove_splits != 0 {
                    return Err(JobError::ModeViolation(
                        "fixed-width windows cannot shrink while filling".into(),
                    ));
                }
                if self.window.len() + added > capacity {
                    return Err(JobError::ModeViolation(format!(
                        "fixed-width window capacity is {capacity} splits"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Rejects split ids already used within this job's lifetime (or
    /// repeated within `added` itself).
    fn check_fresh_ids(&self, added: &[Split<A::Input>]) -> Result<(), JobError> {
        let mut fresh = HashSet::new();
        for split in added {
            if self.used_split_ids.contains(&split.id().0) || !fresh.insert(split.id().0) {
                return Err(JobError::DuplicateSplit(split.id().0));
            }
        }
        Ok(())
    }

    /// Window discipline shared by both interior-splice entry points:
    /// fixed-width (rotating) windows are positional bucket grids with no
    /// notion of an interior split range, and append-only (coalescing)
    /// jobs never evict.
    pub(crate) fn check_splice_mode(&self, evicting: bool) -> Result<(), JobError> {
        let mode = self.config.mode;
        if mode.is_fixed_width() {
            return Err(JobError::ModeViolation(
                "fixed-width (rotating) windows are positional: interior splices \
                 are not defined; use whole-bucket advances"
                    .into(),
            ));
        }
        if evicting && mode.is_append_only() {
            return Err(JobError::ModeViolation(
                "append-only (coalescing) jobs cannot evict splits".into(),
            ));
        }
        Ok(())
    }

    /// Folds one shard's outcome into `outcome` and applies its output
    /// deltas to the merged read view.
    fn fold_shard_outcome(&mut self, outcome: &mut PhaseOutcome, shard_out: ShardOutcome<A>) {
        outcome.keys_reduced += shard_out.keys_reduced;
        outcome.keys_reused += shard_out.keys_reused;
        outcome.reduce_work += shard_out.work.reduce_work;
        outcome.tree_stats.merge_from(&shard_out.tree_stats);
        outcome.per_partition.push(shard_out.work);
        for (key, value) in shard_out.deltas {
            match value {
                Some(out) => {
                    self.output.insert(key, out);
                }
                None => {
                    self.output.remove(&key);
                }
            }
        }
    }

    /// Executes Map tasks for `splits` on the runtime's worker pool, with
    /// deterministic (input-order) assembly of the pre-partitioned,
    /// map-side-combined outputs.
    fn map_splits(&self, splits: &[Split<A::Input>]) -> Vec<SplitEntry<A>> {
        let app = &*self.app;
        let parts = self.config.partitions;
        self.runtime
            .map(splits, |_, split| map_one_split(app, parts, split))
    }

    /// Vanilla recomputation: every shard discards its incremental state
    /// and re-reduces every key over all per-split values, one runtime
    /// worker per shard. Each shard returns every output it computed as a
    /// delta, so the view starts empty and keys that left the window drop.
    fn run_recompute(&mut self) -> PhaseOutcome {
        let app = &*self.app;
        let window = &self.window;
        let results = self.runtime.map_mut(&mut self.shards, |p, shard| {
            shard.run_recompute(p, app, window)
        });
        self.output.clear();
        let mut outcome = PhaseOutcome::default();
        for shard_out in results {
            self.fold_shard_outcome(&mut outcome, shard_out);
        }
        outcome
    }

    /// Builds and runs the cluster simulation for this run.
    fn build_sim(
        &self,
        sim: &SimulationConfig,
        new_entries: &[SplitEntry<A>],
        outcome: &PhaseOutcome,
    ) -> (slider_cluster::SimReport, Option<slider_cluster::SimReport>) {
        let machines = sim.cluster.len().max(1);
        let mut next_id = 0u64;
        let mut id = || {
            next_id += 1;
            next_id
        };

        // Stage 1: map tasks — all splits for vanilla, new splits otherwise.
        let map_entries: Vec<&SplitEntry<A>> = if self.config.mode == ExecMode::Recompute {
            self.window.iter().collect()
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
                if self.config.mode != ExecMode::Recompute {
                    // Memoized state lives where this partition reduced
                    // last; the scheduler decides whether to honour that.
                    t = t.prefer(MachineId(p % machines));
                }
                t
            })
            .collect();

        // This run's scripted machine faults (a trivial plan reproduces
        // the fault-free schedule bit for bit).
        let cluster_plan = self
            .config
            .faults
            .as_ref()
            .map(|f| f.cluster_plan_for_run(self.run_index))
            .unwrap_or_else(FaultPlan::none);
        let fg_report = simulate_traced(
            &sim.cluster,
            sim.policy,
            &[maps, reduces],
            &cluster_plan,
            &self.trace,
            "fg",
        );

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
            Some(simulate_traced(
                &sim.cluster,
                sim.policy,
                &[bg_tasks],
                &FaultPlan::none(),
                &self.trace,
                "bg",
            ))
        } else {
            None
        };
        (fg_report, bg_report)
    }

    /// Replays this run's memoization traffic through the cache model and
    /// returns the stats delta.
    fn play_cache_traffic(&mut self, recovery: &mut RecoveryStats) -> CacheStats {
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
        for p in 0..self.config.partitions {
            let node = NodeId(p % nodes);
            let object = self.object_id(p);
            // The contraction phase reads the partition's memoized state
            // from the previous run (if one was ever written), then writes
            // the updated state back. A read that fails over every replica
            // and still misses means the state was recomputed in the
            // foreground instead (recompute-on-miss): meter it as
            // recovery, never an error.
            if self.cached_objects[p] {
                let mut outcome = cache.with(|c| c.read(object, node));
                let mut retries = 0u32;
                while matches!(outcome, Err(CacheError::Unavailable(_)))
                    && repair_on
                    && retries < policy.max_retries
                {
                    retries += 1;
                    recovery.read_retries += 1;
                    let backoff = per_op_seconds * policy.backoff_multiplier(retries);
                    recovery.backoff_seconds += backoff;
                    // Backoff leaves carry the exact f64 operand added to
                    // `RecoveryStats::backoff_seconds`; refolding them in
                    // emission order reproduces the accumulator bit-exactly.
                    self.trace.with(|t| {
                        let tr = t.track("recovery");
                        let leaf = t.leaf_seconds(
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
            let footprint = self.shards[p].memo_footprint;
            if footprint > 0 {
                cache.with(|c| c.put(object, footprint, node, self.run_index));
            }
            self.cached_objects[p] = footprint > 0;
        }
        // Standalone jobs sweep the whole cache as before; namespaced jobs
        // sweep only their own objects — each tenant advances through
        // epochs at its own pace, so a global sweep at this job's epoch
        // would reap siblings' still-live state.
        if self.cache_ns == 0 {
            cache.with(|c| c.collect_garbage(self.run_index));
        } else {
            let ns = self.cache_ns;
            let run = self.run_index;
            cache.with(|c| c.collect_garbage_scoped(ns, run));
        }
        let after = cache.stats();
        CacheStats {
            memory_hits: after.memory_hits - before.memory_hits,
            disk_reads: after.disk_reads - before.disk_reads,
            not_found_reads: after.not_found_reads - before.not_found_reads,
            unavailable_reads: after.unavailable_reads - before.unavailable_reads,
            read_seconds: after.read_seconds - before.read_seconds,
            bytes_read: after.bytes_read - before.bytes_read,
            collected: after.collected - before.collected,
            evictions: after.evictions - before.evictions,
        }
    }

    /// End-of-run cache maintenance, the paper's split-processing idea
    /// applied to the storage layer: a scrub pass at the configured
    /// cadence, then a drain of the repair queue — all background work
    /// metered in [`slider_dcache::RepairStats`], never in the foreground
    /// read stats.
    fn run_cache_maintenance(&mut self) {
        let cache = self.cache.as_ref().expect("caller checked");
        let run = self.run_index;
        cache.with(|c| {
            let interval = c.config().scrub_interval;
            if interval > 0 && run.is_multiple_of(interval) {
                c.scrub();
            }
            c.drain_repairs();
        });
    }
}

impl<A: MapReduceApp> PartitionShard<A> {
    /// Recomputes this shard from scratch over the whole window: incremental
    /// state is discarded and every key re-reduces over all its per-split
    /// values.
    fn run_recompute(
        &mut self,
        p: usize,
        app: &A,
        window: &VecDeque<SplitEntry<A>>,
    ) -> ShardOutcome<A> {
        self.trees.clear();
        self.memo_footprint = 0;
        // Gather all values per key, window-ordered.
        let mut per_key: BTreeMap<A::Key, Vec<A::Value>> = BTreeMap::new();
        for entry in window {
            for (k, v) in &entry.by_partition[p] {
                per_key.entry(k.clone()).or_default().push(v.clone());
            }
        }
        let mut outcome = ShardOutcome::default();
        for (key, values) in per_key {
            let refs: Vec<&A::Value> = values.iter().collect();
            outcome.work.reduce_work += app.reduce_cost(&key, &refs);
            outcome.keys_reduced += 1;
            let out = app.reduce(&key, &refs);
            outcome.deltas.push((key, Some(out)));
        }
        outcome.work.shuffle_bytes = window.iter().map(|e| e.out_bytes[p]).sum();
        outcome
    }

    /// One shard's share of a run: the window edit of its trees, a
    /// dirty-key reduce into output deltas, and split-mode background
    /// pre-processing.
    fn run_edit(&mut self, p: usize, cx: &EditCx<'_, A>) -> Result<ShardOutcome<A>, JobError> {
        let live_before = self.trees.len();
        let mut outcome = ShardOutcome::default();
        let mut tree_stats = UpdateStats::default();
        let dirty = self.edit(p, cx, &mut tree_stats)?;
        let reduce_work = self.reduce_dirty(cx.app, &dirty, &mut outcome);

        // Split mode: background pre-processing for the next run.
        if cx.split_processing {
            self.preprocess(p, cx, &dirty, &mut tree_stats);
        }

        outcome.keys_reused = live_before.saturating_sub(dirty.len());
        outcome.work.fg_work = tree_stats.foreground.work;
        outcome.work.bg_work = tree_stats.background.work;
        outcome.work.reduce_work = reduce_work;
        outcome.work.memo_read_bytes = tree_stats.bytes_read;
        outcome.work.shuffle_bytes = cx.added.iter().map(|e| e.out_bytes[p]).sum();
        outcome.tree_stats = tree_stats;
        Ok(outcome)
    }

    /// Reduces the dirty keys into output deltas; keys whose window
    /// emptied are dropped. Every other output is reused untouched in the
    /// job's view. Returns the metered reduce work.
    fn reduce_dirty(&mut self, app: &A, dirty: &[A::Key], outcome: &mut ShardOutcome<A>) -> u64 {
        let mut reduce_work = 0u64;
        for key in dirty {
            let Some(tree) = self.trees.get_mut(key) else {
                continue;
            };
            if tree.is_empty() {
                self.trees.remove(key);
                outcome.deltas.push((key.clone(), None));
                continue;
            }
            let parts = tree.reduce_parts();
            let refs: Vec<&A::Value> = parts.iter().map(|a| a.as_ref()).collect();
            reduce_work += app.reduce_cost(key, &refs);
            outcome.keys_reduced += 1;
            let out = app.reduce(key, &refs);
            outcome.deltas.push((key.clone(), Some(out)));
        }
        reduce_work
    }

    /// Applies the run's window edit to this shard's trees and returns the
    /// dirty keys, sorted. Fixed-width jobs rotate whole buckets. Every
    /// other kind edits the tree of each key that lost or gained leaves:
    /// a slide advances it; an interior splice evicts or inserts at the
    /// key's leaf-space splice point, or rebuilds the key from the
    /// post-splice window when its aggregator has no native splice
    /// ([`TreeError::SpliceUnsupported`]). The rebuild work flows through
    /// the same [`TreeCx`], so it lands in this run's foreground breakdown
    /// rather than vanishing from the work model.
    fn edit(
        &mut self,
        p: usize,
        cx: &EditCx<'_, A>,
        stats: &mut UpdateStats,
    ) -> Result<Vec<A::Key>, JobError> {
        if cx.kind == TreeKind::Rotating {
            return self.rotate(p, cx, stats);
        }
        // Per-key removed leaf counts and added values, window-ordered. A
        // splice passes one or the other, never both.
        let mut removals: HashMap<A::Key, usize> = HashMap::new();
        for entry in cx.removed {
            for key in entry.by_partition[p].keys() {
                *removals.entry(key.clone()).or_default() += 1;
            }
        }
        let mut additions: BTreeMap<A::Key, Vec<Arc<A::Value>>> = BTreeMap::new();
        for entry in cx.added {
            for (key, value) in &entry.by_partition[p] {
                additions
                    .entry(key.clone())
                    .or_default()
                    .push(Arc::new(value.clone()));
            }
        }

        let mut dirty: Vec<A::Key> = removals.keys().cloned().collect();
        for key in additions.keys() {
            if !removals.contains_key(key) {
                dirty.push(key.clone());
            }
        }
        dirty.sort_unstable();

        // A key's leaf-space splice point is its occurrence count in the
        // unchanged window prefix `window[..at]`, identical before and after
        // the splice. Only shards that hold a spliced key count it: keys are
        // hash-partitioned, so a splice of a few keys scans the prefix in a
        // few shards, not all.
        let mut splice_points: HashMap<&A::Key, usize> = HashMap::new();
        if let Some(at) = cx.splice_at.filter(|_| !dirty.is_empty()) {
            splice_points = dirty.iter().map(|key| (key, 0)).collect();
            for entry in cx.window.iter().take(at) {
                for key in entry.by_partition[p].keys() {
                    if let Some(n) = splice_points.get_mut(key) {
                        *n += 1;
                    }
                }
            }
        }

        for key in &dirty {
            let remove = removals.get(key).copied().unwrap_or(0);
            let values = additions.remove(key).unwrap_or_default();
            let tree = self
                .trees
                .entry(key.clone())
                .or_insert_with(|| Self::fresh_tree(cx.kind, cx.config.mode));
            let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
            match splice_points.get(key) {
                // A splice that only adds to a brand-new key is an append
                // into an empty window, which the slide arm below builds.
                Some(&at) if remove > 0 || !tree.is_empty() => {
                    let spliced = if remove > 0 {
                        tree.evict_range(&mut tree_cx, at, remove)
                    } else {
                        tree.insert_at(&mut tree_cx, at, values)
                    };
                    match spliced {
                        Err(TreeError::SpliceUnsupported { .. }) => {
                            // Evicted leaves leave the window for good; the
                            // rebuild re-notes every surviving leaf it re-adds.
                            tree_cx.note_removed(remove as u64);
                            let leaves: Vec<Option<Arc<A::Value>>> = cx
                                .window
                                .iter()
                                .filter_map(|e| e.by_partition[p].get(key))
                                .map(|v| Some(Arc::new(v.clone())))
                                .collect();
                            tree.rebuild(&mut tree_cx, leaves);
                        }
                        other => other?,
                    }
                }
                _ => tree.advance(&mut tree_cx, remove, values.into_iter().map(Some).collect())?,
            }
        }

        // The strawman's change propagation has no window-aware structure:
        // it visits *every* memoized sub-computation to decide whether it
        // can be reused (paper §2/§9 — "they require visiting all tasks in
        // a computation even if the task is not affected by the modified
        // data"), splices included. Clean keys re-pair entirely from the
        // memo cache — no fresh merges, but the visit reads every memoized
        // node.
        if cx.kind == TreeKind::Strawman {
            let dirty_set: HashSet<&A::Key> = dirty.iter().collect();
            for (key, tree) in &mut self.trees {
                if !dirty_set.contains(key) {
                    let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                    tree.advance(&mut tree_cx, 0, Vec::new())?;
                }
            }
        }
        Ok(dirty)
    }

    /// Builds a fresh per-key tree honouring the split-processing flag.
    fn fresh_tree(kind: TreeKind, mode: ExecMode) -> Box<dyn WindowAggregator<A::Key, A::Value>> {
        if kind == TreeKind::Coalescing && mode.split_processing() {
            Box::new(slider_core::CoalescingTree::with_split_processing())
        } else {
            build_tree::<A::Key, A::Value>(kind, 0)
        }
    }

    /// Fixed-width bucket rotation of this shard.
    fn rotate(
        &mut self,
        p: usize,
        cx: &EditCx<'_, A>,
        stats: &mut UpdateStats,
    ) -> Result<Vec<A::Key>, JobError> {
        let w = cx.config.bucket_width;
        let n = cx.config.window_buckets;
        let was_full = cx.was_full_buckets;
        let out_buckets: Vec<&[SplitEntry<A>]> = cx.removed.chunks(w).collect();
        let in_buckets: Vec<&[SplitEntry<A>]> = cx.added.chunks(w).collect();
        let steps = in_buckets.len().max(out_buckets.len());
        // Buckets present before this advance (the window deque was already
        // updated by the caller).
        let mut buckets_now = (cx.window.len() + cx.removed.len() - cx.added.len()) / w;

        let mut dirty: HashSet<A::Key> = HashSet::new();
        for step in 0..steps {
            let out_keys: HashSet<&A::Key> = if was_full {
                out_buckets
                    .get(step)
                    .map(|b| b.iter().flat_map(|e| e.by_partition[p].keys()).collect())
                    .unwrap_or_default()
            } else {
                HashSet::new()
            };
            // Per-key incoming values in this bucket, window-ordered.
            let mut incoming: BTreeMap<A::Key, Vec<Arc<A::Value>>> = BTreeMap::new();
            if let Some(bucket) = in_buckets.get(step) {
                for entry in *bucket {
                    for (key, value) in &entry.by_partition[p] {
                        incoming
                            .entry(key.clone())
                            .or_default()
                            .push(Arc::new(value.clone()));
                    }
                }
            }
            if !was_full {
                buckets_now += 1;
            }

            let live_keys: Vec<A::Key> = self.trees.keys().cloned().collect();
            for key in live_keys {
                let leaf = match incoming.remove(&key) {
                    Some(values) => {
                        let mut tree_cx = TreeCx::new(cx.combiner, &key, stats);
                        tree_cx.fold(Phase::Foreground, values)
                    }
                    None => None,
                };
                let outgoing = out_keys.contains(&key);
                let tree = self.trees.get_mut(&key).expect("live key has a tree");
                let mut tree_cx = TreeCx::new(cx.combiner, &key, stats);
                if outgoing || leaf.is_some() {
                    dirty.insert(key.clone());
                    tree.advance(&mut tree_cx, usize::from(was_full), vec![leaf])?;
                } else {
                    tree.advance_absent(&mut tree_cx)?;
                }
            }
            // Brand-new keys in this bucket.
            for (key, values) in incoming {
                dirty.insert(key.clone());
                let mut tree = build_tree::<A::Key, A::Value>(TreeKind::Rotating, n);
                let mut tree_cx = TreeCx::new(cx.combiner, &key, stats);
                let leaf = tree_cx.fold(Phase::Foreground, values);
                let occupied = if was_full { n } else { buckets_now };
                let mut leaves: Vec<Option<Arc<A::Value>>> = vec![None; occupied - 1];
                leaves.push(leaf);
                tree.rebuild(&mut tree_cx, leaves);
                self.trees.insert(key, tree);
            }
        }
        let mut dirty: Vec<A::Key> = dirty.into_iter().collect();
        dirty.sort_unstable();
        Ok(dirty)
    }

    /// Background pre-processing after the foreground result was produced.
    fn preprocess(
        &mut self,
        p: usize,
        cx: &EditCx<'_, A>,
        dirty: &[A::Key],
        stats: &mut UpdateStats,
    ) {
        match cx.kind {
            TreeKind::Coalescing => {
                // Coalesce the pending delta of every key touched this run.
                for key in dirty {
                    if let Some(tree) = self.trees.get_mut(key) {
                        let mut tree_cx = TreeCx::new(cx.combiner, key, stats);
                        tree.preprocess(&mut tree_cx);
                    }
                }
            }
            TreeKind::Rotating => {
                // Prepare off-path aggregates for keys in the bucket that
                // rotates out next (the oldest in the new window), and
                // finish deferred insertions for keys touched this run.
                let w = cx.config.bucket_width;
                let mut keys: HashSet<A::Key> = dirty.iter().cloned().collect();
                for entry in cx.window.iter().take(w) {
                    keys.extend(entry.by_partition[p].keys().cloned());
                }
                let mut keys: Vec<A::Key> = keys.into_iter().collect();
                keys.sort_unstable();
                for key in keys {
                    if let Some(tree) = self.trees.get_mut(&key) {
                        let mut tree_cx = TreeCx::new(cx.combiner, &key, stats);
                        tree.preprocess(&mut tree_cx);
                    }
                }
            }
            _ => {}
        }
    }

    /// Sums the live trees' maintained footprints.
    fn refresh_footprint(&mut self) {
        self.memo_footprint = self.trees.values().map(|tree| tree.memo_bytes()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::make_splits;

    /// Word count over whitespace-separated tokens.
    struct WordCount;
    impl MapReduceApp for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
            for word in line.split_whitespace() {
                emit(word.to_string(), 1);
            }
        }
        fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 {
            a + b
        }
        fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
            parts.iter().copied().sum()
        }
    }

    fn lines(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|s| s.to_string()).collect()
    }

    fn reference_counts(window: &[&str]) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for line in window {
            for word in line.split_whitespace() {
                *out.entry(word.to_string()).or_insert(0) += 1;
            }
        }
        out
    }

    fn all_modes() -> Vec<ExecMode> {
        vec![
            ExecMode::Recompute,
            ExecMode::Strawman,
            ExecMode::slider_folding(),
            ExecMode::slider_randomized(),
            ExecMode::slider_rotating(false),
            ExecMode::slider_rotating(true),
            ExecMode::slider_two_stack(),
            ExecMode::slider_daba(),
            ExecMode::slider_daba_lite(),
        ]
    }

    #[test]
    fn every_mode_matches_reference_over_slides() {
        // 8 splits of 1 line each; fixed-width geometry 8 buckets × 1.
        let corpus = [
            "a b c", "b c d", "c d e", "a a b", "e f", "f g a", "b b", "g h a", "h i", "a c e",
            "b d f", "c c c",
        ];
        for mode in all_modes() {
            let config = JobConfig::new(mode).with_partitions(3).with_buckets(8, 1);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            job.initial_run(make_splits(0, lines(&corpus[0..8]), 1))
                .unwrap();
            assert_eq!(
                job.output(),
                &reference_counts(&corpus[0..8]),
                "{mode}: initial run mismatch"
            );

            // Slide twice by 2 splits.
            job.advance(2, make_splits(100, lines(&corpus[8..10]), 1))
                .unwrap();
            assert_eq!(
                job.output(),
                &reference_counts(&corpus[2..10]),
                "{mode}: slide 1 mismatch"
            );
            job.advance(2, make_splits(200, lines(&corpus[10..12]), 1))
                .unwrap();
            assert_eq!(
                job.output(),
                &reference_counts(&corpus[4..12]),
                "{mode}: slide 2 mismatch"
            );
        }
    }

    #[test]
    fn append_only_modes_match_reference() {
        let corpus = ["a b", "b c", "c d", "d e a", "e f b"];
        for mode in [
            ExecMode::Recompute,
            ExecMode::slider_coalescing(false),
            ExecMode::slider_coalescing(true),
        ] {
            let config = JobConfig::new(mode).with_partitions(2);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            job.initial_run(make_splits(0, lines(&corpus[0..2]), 1))
                .unwrap();
            job.advance(0, make_splits(10, lines(&corpus[2..4]), 1))
                .unwrap();
            job.advance(0, make_splits(20, lines(&corpus[4..5]), 1))
                .unwrap();
            assert_eq!(job.output(), &reference_counts(&corpus), "{mode}");
        }
    }

    /// Every mode with a variable-width window: interior splices are
    /// defined for all of these (fixed-width rotating geometry is not).
    fn variable_width_modes() -> Vec<ExecMode> {
        vec![
            ExecMode::Recompute,
            ExecMode::Strawman,
            ExecMode::slider_folding(),
            ExecMode::slider_randomized(),
            ExecMode::slider_two_stack(),
            ExecMode::slider_daba(),
            ExecMode::slider_daba_lite(),
        ]
    }

    #[test]
    fn interior_insert_matches_reference_for_every_variable_width_mode() {
        let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
        let late = ["z a", "b z"];
        let append_only = [
            ExecMode::slider_coalescing(false),
            ExecMode::slider_coalescing(true),
        ];
        for mode in variable_width_modes().into_iter().chain(append_only) {
            let config = JobConfig::new(mode).with_partitions(3);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            job.initial_run(make_splits(0, lines(&corpus), 1)).unwrap();

            // Two late splits land between window positions 1 and 2.
            let stats = job
                .insert_splits_at(2, make_splits(100, lines(&late), 1))
                .unwrap();
            let logical = [
                "a b c", "b c d", "z a", "b z", "c d e", "a a b", "e f", "f g a",
            ];
            assert_eq!(job.output(), &reference_counts(&logical), "{mode}");
            assert_eq!(job.window_splits(), 8, "{mode}");
            assert_eq!(stats.run, 1, "{mode}: a splice is a full run");
            assert_eq!(
                stats.map_tasks,
                if mode == ExecMode::Recompute { 8 } else { 2 },
                "{mode}: only the late splits map incrementally"
            );

            // Ordinary slides keep working on the spliced window.
            if !mode.is_append_only() {
                job.advance(2, make_splits(200, lines(&["q q"]), 1))
                    .unwrap();
                let after = ["z a", "b z", "c d e", "a a b", "e f", "f g a", "q q"];
                assert_eq!(
                    job.output(),
                    &reference_counts(&after),
                    "{mode}: slide after splice"
                );
            }
        }
    }

    #[test]
    fn interior_evict_matches_reference_for_every_variable_width_mode() {
        let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
        for mode in variable_width_modes() {
            let config = JobConfig::new(mode).with_partitions(3);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            job.initial_run(make_splits(0, lines(&corpus), 1)).unwrap();

            // Bulk-evict window positions [2, 5) from the interior. Every
            // occurrence of "e" goes with them, so the key must vanish.
            job.evict_splits_range(2, 3).unwrap();
            let logical = ["a b c", "b c d", "f g a"];
            assert_eq!(job.output(), &reference_counts(&logical), "{mode}");
            assert_eq!(job.window_splits(), 3, "{mode}");
            assert_eq!(job.output().get("e"), None, "{mode}: emptied key dropped");

            // Ordinary slides keep working on the spliced window.
            job.advance(1, make_splits(200, lines(&["q q"]), 1))
                .unwrap();
            let after = ["b c d", "f g a", "q q"];
            assert_eq!(
                job.output(),
                &reference_counts(&after),
                "{mode}: slide after evict"
            );
        }
    }

    #[test]
    fn splice_discipline_and_bounds_are_enforced() {
        // Fixed-width windows reject interior splices outright.
        let config = JobConfig::new(ExecMode::slider_rotating(false))
            .with_partitions(2)
            .with_buckets(4, 1);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a", "b", "c", "d"]), 1))
            .unwrap();
        assert!(matches!(
            job.insert_splits_at(1, make_splits(100, lines(&["z"]), 1)),
            Err(JobError::ModeViolation(_))
        ));
        assert!(matches!(
            job.evict_splits_range(1, 1),
            Err(JobError::ModeViolation(_))
        ));

        // Append-only windows admit late interior inserts (via the rebuild
        // fallback — coalescing trees keep no leaves) but never evict.
        let config = JobConfig::new(ExecMode::slider_coalescing(false)).with_partitions(2);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a", "b"]), 1))
            .unwrap();
        job.insert_splits_at(1, make_splits(100, lines(&["z"]), 1))
            .unwrap();
        assert_eq!(job.output().get("z"), Some(&1));
        assert!(matches!(
            job.evict_splits_range(0, 1),
            Err(JobError::ModeViolation(_))
        ));

        // Out-of-range splices are typed errors that leave the job
        // untouched; so are reused split ids.
        let config = JobConfig::new(ExecMode::slider_folding()).with_partitions(2);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a", "b"]), 1))
            .unwrap();
        let before = job.output().clone();
        assert!(matches!(
            job.insert_splits_at(3, make_splits(100, lines(&["z"]), 1)),
            Err(JobError::SpliceOutOfRange {
                at: 3,
                count: 1,
                window: 2
            })
        ));
        assert!(matches!(
            job.evict_splits_range(1, 2),
            Err(JobError::SpliceOutOfRange {
                at: 1,
                count: 2,
                window: 2
            })
        ));
        assert!(matches!(
            job.evict_splits_range(usize::MAX, 2),
            Err(JobError::SpliceOutOfRange { .. })
        ));
        assert!(matches!(
            job.insert_splits_at(0, make_splits(0, lines(&["z"]), 1)),
            Err(JobError::DuplicateSplit(0))
        ));
        assert_eq!(job.output(), &before);
        assert_eq!(job.window_splits(), 2);
    }

    #[test]
    fn native_splices_beat_rebuild_fallback_on_contraction_work() {
        // The same interior insert through a folding tree (native splice)
        // and a two-stack aggregator (rebuild fallback): outputs agree,
        // but the fallback pays for re-merging the whole window.
        let corpus: Vec<String> = (0..64).map(|i| format!("k{} every", i % 5)).collect();
        let run = |mode: ExecMode| {
            let mut job =
                WindowedJob::new(WordCount, JobConfig::new(mode).with_partitions(1)).unwrap();
            job.initial_run(make_splits(0, corpus.clone(), 1)).unwrap();
            let stats = job
                .insert_splits_at(7, make_splits(100, lines(&["k1 every"]), 1))
                .unwrap();
            (job, stats)
        };
        let (native_job, native) = run(ExecMode::slider_folding());
        let (fallback_job, fallback) = run(ExecMode::slider_two_stack());
        assert_eq!(native_job.output(), fallback_job.output());
        assert!(
            native.work.contraction_fg.merges < fallback.work.contraction_fg.merges,
            "native splice merges {} should undercut rebuild fallback {}",
            native.work.contraction_fg.merges,
            fallback.work.contraction_fg.merges
        );
    }

    #[test]
    fn incremental_modes_do_less_map_work() {
        let corpus: Vec<String> = (0..32).map(|i| format!("w{} common", i % 7)).collect();
        let mut vanilla = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::Recompute).with_partitions(2),
        )
        .unwrap();
        let mut slider = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
        )
        .unwrap();
        vanilla
            .initial_run(make_splits(0, corpus.clone(), 2))
            .unwrap();
        slider
            .initial_run(make_splits(0, corpus.clone(), 2))
            .unwrap();

        let extra: Vec<String> = (0..4).map(|i| format!("x{i} common")).collect();
        let v = vanilla
            .advance(2, make_splits(100, extra.clone(), 2))
            .unwrap();
        let s = slider.advance(2, make_splits(100, extra, 2)).unwrap();
        assert_eq!(vanilla.output(), slider.output());
        assert!(
            s.work.map < v.work.map,
            "slider map work {} should be below vanilla {}",
            s.work.map,
            v.work.map
        );
        assert!(s.map_reused > 0);
        assert!(
            s.work.foreground_total() < v.work.foreground_total(),
            "slider total {} vs vanilla {}",
            s.work.foreground_total(),
            v.work.foreground_total()
        );
    }

    #[test]
    fn split_processing_shifts_work_to_background() {
        let corpus: Vec<String> = (0..16).map(|i| format!("k{} shared", i % 3)).collect();
        let make_job = |split| {
            let config = JobConfig::new(ExecMode::slider_rotating(split))
                .with_partitions(2)
                .with_buckets(8, 1);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            job.initial_run(make_splits(0, corpus.clone(), 2)).unwrap();
            job
        };
        let mut plain = make_job(false);
        let mut split = make_job(true);

        let mut fg_plain = 0u64;
        let mut fg_split = 0u64;
        let mut bg_split = 0u64;
        for round in 0..4u64 {
            let adds: Vec<String> = (0..2).map(|i| format!("k{} fresh{round}", i)).collect();
            let p = plain
                .advance(1, make_splits(1000 + round * 10, adds.clone(), 2))
                .unwrap();
            let s = split
                .advance(1, make_splits(2000 + round * 10, adds, 2))
                .unwrap();
            assert_eq!(plain.output(), split.output(), "round {round}");
            fg_plain += p.work.contraction_fg.work;
            fg_split += s.work.contraction_fg.work;
            bg_split += s.work.contraction_bg.work;
            assert_eq!(p.work.contraction_bg.work, 0);
        }
        assert!(bg_split > 0, "split mode must offload to background");
        assert!(
            fg_split < fg_plain,
            "split foreground {fg_split} should undercut plain {fg_plain}"
        );
    }

    #[test]
    fn window_discipline_is_enforced() {
        // Append-only cannot remove.
        let mut job = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::slider_coalescing(false)),
        )
        .unwrap();
        job.initial_run(make_splits(0, lines(&["a"]), 1)).unwrap();
        assert!(matches!(
            job.advance(1, vec![]),
            Err(JobError::ModeViolation(_))
        ));

        // Fixed-width must slide whole buckets.
        let mut job = WindowedJob::new(
            WordCount,
            JobConfig::new(ExecMode::slider_rotating(false)).with_buckets(4, 2),
        )
        .unwrap();
        job.initial_run(make_splits(
            0,
            lines(&["a", "b", "c", "d", "e", "f", "g", "h"]),
            1,
        ))
        .unwrap();
        assert!(matches!(
            job.advance(1, make_splits(100, lines(&["x"]), 1)),
            Err(JobError::ModeViolation(_))
        ));

        // Duplicate split ids are rejected.
        let mut job =
            WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
        job.initial_run(make_splits(0, lines(&["a"]), 1)).unwrap();
        assert_eq!(
            job.advance(0, make_splits(0, lines(&["b"]), 1))
                .unwrap_err(),
            JobError::DuplicateSplit(0)
        );

        // Removing beyond the window is rejected.
        assert!(matches!(
            job.advance(5, vec![]),
            Err(JobError::RemoveExceedsWindow {
                requested: 5,
                window: 1
            })
        ));
    }

    #[test]
    fn simulation_produces_time_metrics() {
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_partitions(4)
            .with_simulation(SimulationConfig::paper_defaults());
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        let corpus: Vec<String> = (0..16).map(|i| format!("w{i} c")).collect();
        let stats = job.initial_run(make_splits(0, corpus, 2)).unwrap();
        let sim = stats.sim.as_ref().expect("simulation configured");
        assert!(sim.makespan > 0.0);
        assert_eq!(sim.stages.len(), 2);
        assert!(stats.map_seconds().unwrap() > 0.0);
    }

    #[test]
    fn cache_model_records_traffic_and_failures() {
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_partitions(2)
            .with_cache(slider_dcache::CacheConfig::paper_defaults(4));
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a b", "b c"]), 1))
            .unwrap();
        let stats = job.advance(1, make_splits(10, lines(&["c d"]), 1)).unwrap();
        let cache = stats.cache.expect("cache configured");
        assert!(
            cache.memory_hits > 0,
            "memoized state should be read from memory"
        );

        // Crash the node holding partition 0's state: next run reads fall
        // back to disk replicas but still succeed.
        job.fail_cache_node(0).unwrap();
        let stats = job.advance(1, make_splits(11, lines(&["d e"]), 1)).unwrap();
        let cache = stats.cache.expect("cache configured");
        assert!(cache.disk_reads > 0, "failure must fall back to replicas");
        assert_eq!(cache.failed_reads(), 0);
        assert_eq!(job.output(), &reference_counts(&["c d", "d e"]));
    }

    #[test]
    fn out_of_range_cache_nodes_are_job_errors() {
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_partitions(2)
            .with_cache(slider_dcache::CacheConfig::paper_defaults(4));
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a b", "b c"]), 1))
            .unwrap();
        let unknown = JobError::Cache(slider_dcache::CacheError::UnknownNode(NodeId(4)));
        assert_eq!(job.fail_cache_node(4), Err(unknown.clone()));
        assert_eq!(job.recover_cache_node(4), Err(unknown));

        // A fault plan scripting the bad node fails its run with the same
        // typed error instead of panicking.
        let plan = JobFaultPlan::none().fail_cache_node(1, 9);
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_partitions(2)
            .with_cache(slider_dcache::CacheConfig::paper_defaults(4))
            .with_faults(plan);
        let mut job = WindowedJob::new(WordCount, config).unwrap();
        job.initial_run(make_splits(0, lines(&["a b", "b c"]), 1))
            .unwrap();
        let err = job
            .advance(1, make_splits(10, lines(&["c d"]), 1))
            .unwrap_err();
        assert!(matches!(err, JobError::Cache(_)), "{err}");
        assert!(err.to_string().contains("unknown node n9"), "{err}");

        // Without a cache there is no node to name: a no-op, as before.
        let mut job =
            WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
        assert_eq!(job.fail_cache_node(99), Ok(()));
    }

    #[test]
    fn strawman_pays_more_contraction_work_than_folding_on_front_removal() {
        let corpus: Vec<String> = (0..64).map(|_| "k".to_string()).collect();
        let run = |mode: ExecMode| {
            let mut job =
                WindowedJob::new(WordCount, JobConfig::new(mode).with_partitions(1)).unwrap();
            job.initial_run(make_splits(0, corpus.clone(), 1)).unwrap();
            let stats = job
                .advance(1, make_splits(100, vec!["k".to_string()], 1))
                .unwrap();
            stats.work.contraction_fg.merges
        };
        let strawman = run(ExecMode::Strawman);
        let folding = run(ExecMode::slider_folding());
        assert!(
            strawman > 2 * folding.max(1),
            "strawman {strawman} merges vs folding {folding}"
        );
    }

    #[test]
    fn thread_count_changes_neither_outputs_nor_stats() {
        let corpus: Vec<String> = (0..24).map(|i| format!("w{} shared", i % 5)).collect();
        let run = |threads: usize| {
            let config = JobConfig::new(ExecMode::slider_folding())
                .with_partitions(4)
                .with_threads(threads);
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            let s0 = job.initial_run(make_splits(0, corpus.clone(), 2)).unwrap();
            let adds = vec!["x common".to_string(), "y common".to_string()];
            let s1 = job.advance(2, make_splits(100, adds, 2)).unwrap();
            (job.output().clone(), format!("{s0:?} {s1:?}"))
        };
        let (output_seq, stats_seq) = run(1);
        for threads in [2, 4] {
            let (output, stats) = run(threads);
            assert_eq!(output, output_seq, "outputs at {threads} threads");
            assert_eq!(stats, stats_seq, "work metering at {threads} threads");
        }
    }

    #[test]
    fn output_accessors_work() {
        let mut job =
            WindowedJob::new(WordCount, JobConfig::new(ExecMode::slider_folding())).unwrap();
        job.initial_run(make_splits(0, lines(&["hello world"]), 1))
            .unwrap();
        assert_eq!(job.window_splits(), 1);
        assert!(job.memo_footprint_bytes() > 0);
        assert!(format!("{job:?}").contains("WindowedJob"));
        assert_eq!(job.config().partitions, 8);
    }

    #[test]
    fn trivial_fault_plan_is_bit_identical_to_no_plan() {
        let corpus = ["a b c", "b c d", "c d e", "a a b", "e f", "f g a"];
        let base = || {
            JobConfig::new(ExecMode::slider_folding())
                .with_partitions(3)
                .with_simulation(SimulationConfig::paper_defaults())
                .with_cache(slider_dcache::CacheConfig::paper_defaults(4))
        };
        let run = |config: JobConfig| {
            let mut job = WindowedJob::new(WordCount, config).unwrap();
            let s0 = job
                .initial_run(make_splits(0, lines(&corpus[0..4]), 1))
                .unwrap();
            let s1 = job
                .advance(2, make_splits(10, lines(&corpus[4..6]), 1))
                .unwrap();
            (job.output().clone(), format!("{s0:?} {s1:?}"))
        };
        let plain = run(base());
        let trivial = run(base().with_faults(JobFaultPlan::none()));
        assert_eq!(plain.0, trivial.0);
        assert_eq!(plain.1, trivial.1, "an empty plan must not perturb stats");
    }

    #[test]
    fn memo_loss_is_rebuilt_bit_identically_in_every_mode() {
        let corpus = [
            "a b c", "b c d", "c d e", "a a b", "e f", "f g a", "b b", "g h a", "h i", "a c e",
            "b d f", "c c c",
        ];
        let plan = JobFaultPlan::none().lose_memo(1, vec![0, 2]);
        for mode in all_modes() {
            let make = |faults: Option<JobFaultPlan>| {
                let mut config = JobConfig::new(mode).with_partitions(3).with_buckets(8, 1);
                if let Some(f) = faults {
                    config = config.with_faults(f);
                }
                WindowedJob::new(WordCount, config).unwrap()
            };
            let mut faulty = make(Some(plan.clone()));
            let mut twin = make(None);
            faulty
                .initial_run(make_splits(0, lines(&corpus[0..8]), 1))
                .unwrap();
            twin.initial_run(make_splits(0, lines(&corpus[0..8]), 1))
                .unwrap();

            // Run 1: partitions 0 and 2 lose their memoized trees just
            // before the slide and must rebuild, then slide as usual.
            let stats = faulty
                .advance(2, make_splits(100, lines(&corpus[8..10]), 1))
                .unwrap();
            let twin_stats = twin
                .advance(2, make_splits(100, lines(&corpus[8..10]), 1))
                .unwrap();
            assert_eq!(faulty.output(), twin.output(), "{mode}: run 1 outputs");
            if mode.tree_kind().is_some() {
                assert_eq!(stats.recovery.lost_partitions, 2, "{mode}");
                assert!(stats.recovery.rebuild_work > 0, "{mode}: rebuild metered");
            } else {
                assert!(stats.recovery.is_zero(), "{mode}: nothing memoized");
            }
            // Recovery work never leaks into the regular breakdown. (In
            // split mode the rebuilt tree drops its pending background
            // pre-combinations, so background work may legitimately
            // differ; outputs still cannot.)
            if !mode.split_processing() {
                assert_eq!(stats.work, twin_stats.work, "{mode}: run 1 work");
            }

            // Run 2 is fault-free again: recovery stats return to zero and
            // outputs keep matching.
            let stats = faulty
                .advance(2, make_splits(200, lines(&corpus[10..12]), 1))
                .unwrap();
            twin.advance(2, make_splits(200, lines(&corpus[10..12]), 1))
                .unwrap();
            assert!(stats.recovery.is_zero(), "{mode}: run 2 recovery");
            assert_eq!(faulty.output(), twin.output(), "{mode}: run 2 outputs");
            assert_eq!(faulty.output(), &reference_counts(&corpus[4..12]), "{mode}");
        }
    }

    #[test]
    fn fault_plan_validation_catches_bad_targets() {
        let plan = JobFaultPlan::none().crash(0, 99, 1.0);
        let config = JobConfig::new(ExecMode::slider_folding())
            .with_simulation(SimulationConfig::paper_defaults())
            .with_faults(plan);
        let err = WindowedJob::new(WordCount, config).unwrap_err();
        assert!(matches!(err, JobError::BadConfig(ref m) if m.contains("machine 99")));

        let config = JobConfig::new(ExecMode::slider_folding())
            .with_faults(JobFaultPlan::none().slow(0, 0, f64::NAN));
        assert!(WindowedJob::new(WordCount, config).is_err());
    }
}
