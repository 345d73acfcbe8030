//! The windowed job driver: initial runs, incremental slides, work
//! metering, cluster simulation and memoization-cache integration.
//!
//! Its code is split by concern:
//!
//! - `config`: execution modes and the job configuration, checked once
//!   when the job is built;
//! - `run`: the job's run path, from a slide or splice through the map
//!   phase and every shard's edit to the run's statistics, with scripted
//!   faults and lost-shard rebuilds;
//! - `map`: map tasks and the map output a window holds per split;
//! - `shard`: one reduce partition's edit, reduce, rotate and preprocess;
//! - `sim`: the cluster simulation and the memoization-cache replay.
//!
//! This module holds the job, its state and checkpoints, and their
//! constructors and accessors.

mod config;
mod map;
mod run;
mod shard;
mod sim;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use slider_cluster::SharedClock;
use slider_dcache::{CacheConfig, DistributedCache, ObjectId, SharedCache};
use slider_trace::TraceSink;

use crate::app::{AppCombiner, MapReduceApp};
use crate::error::JobError;
use crate::runtime::Runtime;
use crate::shared::EngineShared;

pub use config::{ExecMode, JobConfig, SimulationConfig};
use map::SplitEntry;
use shard::PartitionShard;

/// A sliding-window MapReduce job.
///
/// See the crate-level docs for a complete example.
pub struct WindowedJob<A: MapReduceApp> {
    app: Arc<A>,
    combiner: AppCombiner<A>,
    /// Everything the job's runs change. A checkpoint is a clone of it.
    state: JobState<A::Key, A::Value, A::Output>,
    runtime: Runtime,
    /// The env-resolved `config.trace` of a standalone job, the shared
    /// sink otherwise; every instrumentation site in the job goes through
    /// this sink. All emission happens on the control
    /// thread, in deterministic fold order, so traces are bit-identical
    /// across thread counts and reruns.
    trace: TraceSink,
    /// The memoization cache. Standalone jobs wrap a private cache here
    /// (namespace 0); jobs built with [`WindowedJob::with_shared`] hold a
    /// clone of the service-wide handle instead.
    cache: Option<SharedCache>,
    /// Shared simulated-cluster clock, advanced by each run's makespan
    /// when the cluster simulation is on. `None` for standalone jobs.
    clock: Option<SharedClock>,
}

/// A job's state apart from its app and engine handles: the config, the
/// retained window, every shard's aggregator trees, the output view, the
/// split-id ledger, the run counter and the cache bookkeeping. No field
/// holds an engine handle, so a clone is a self-contained checkpoint.
#[derive(Clone)]
struct JobState<K: Eq + Hash, V, O> {
    config: JobConfig,
    window: VecDeque<SplitEntry<K, V>>,
    shards: Vec<PartitionShard<K, V>>,
    /// Merged read view over the shard outputs (see [`WindowedJob::output`]).
    output: BTreeMap<K, O>,
    used_split_ids: HashSet<u64>,
    run_index: u64,
    /// Object-id namespace this job's memoized state lives under. `0` for
    /// standalone jobs — `ObjectId::namespaced(0, p) == ObjectId(p)`, so
    /// legacy cache contents and stats are bit-identical.
    cache_ns: u32,
    /// Per-partition flag: the partition's memoized state was written to
    /// the cache by a previous run, so the next run is expected to read it
    /// back. Reads are only issued (and can only fail) for such objects.
    cached_objects: Vec<bool>,
}

impl<K: Eq + Hash, V, O> JobState<K, V, O> {
    /// The state of a job that has not run yet. The config's trace sink is
    /// dropped: the job holds the sink it resolved as an engine handle.
    fn new(mut config: JobConfig, cache_ns: u32) -> Self {
        config.trace = TraceSink::disabled();
        JobState {
            window: VecDeque::new(),
            shards: (0..config.partitions)
                .map(|_| PartitionShard::default())
                .collect(),
            output: BTreeMap::new(),
            used_split_ids: HashSet::new(),
            run_index: 0,
            cache_ns,
            cached_objects: vec![false; config.partitions],
            config,
        }
    }
}

/// Deep, self-contained checkpoint of a job: its app and a clone of its
/// state — the retained window, every shard's aggregator trees (cloned
/// exactly — see [`WindowedJob::checkpoint`]), the output view, split-id
/// ledger, run counter, and the job's cache namespace and per-partition
/// cached-object flags. It does **not** capture infrastructure (runtime,
/// trace sink, cache *contents*, clock): those are service-level state,
/// checkpointed once by the host rather than once per job.
///
/// A checkpoint is a value: restoring never consumes it, so one checkpoint
/// can seed any number of resumed twins.
pub struct JobCheckpoint<A: MapReduceApp> {
    app: Arc<A>,
    state: JobState<A::Key, A::Value, A::Output>,
}

impl<A: MapReduceApp> JobCheckpoint<A> {
    /// Runs completed at capture time.
    #[must_use]
    pub fn run_index(&self) -> u64 {
        self.state.run_index
    }

    /// Splits retained in the captured window.
    #[must_use]
    pub fn window_splits(&self) -> usize {
        self.state.window.len()
    }

    /// The cache namespace the captured job's memoized objects live under.
    #[must_use]
    pub fn cache_namespace(&self) -> u32 {
        self.state.cache_ns
    }
}

impl<A: MapReduceApp> Clone for JobCheckpoint<A> {
    fn clone(&self) -> Self {
        JobCheckpoint {
            app: Arc::clone(&self.app),
            state: self.state.clone(),
        }
    }
}

/// A private memoization cache whose spans go to `trace`.
fn private_cache(config: CacheConfig, trace: &TraceSink) -> SharedCache {
    let mut cache = DistributedCache::new(config);
    cache.attach_trace(trace.clone());
    SharedCache::new(cache)
}

impl<A: MapReduceApp> fmt::Debug for WindowedJob<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowedJob")
            .field("mode", &self.state.config.mode)
            .field("window_splits", &self.state.window.len())
            .field("keys", &self.state.output.len())
            .field("run", &self.state.run_index)
            .finish()
    }
}

impl<A: MapReduceApp> WindowedJob<A> {
    /// Creates a job for `app` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::BadConfig`] for inconsistent configurations
    /// (zero partitions, zero bucket geometry, a non-commutative combiner
    /// with a fixed-width window, the strawman spelled as a
    /// [`ExecMode::Slider`] tree, a simulation or cache setting that is not
    /// finite or out of range, or a fault plan naming a machine, cache node
    /// or partition the job does not have).
    pub fn new(app: A, config: JobConfig) -> Result<Self, JobError> {
        config.validate(app.is_commutative(), None, config.faults.as_ref())?;
        let trace = config.trace.clone();
        let cache = config.cache.clone().map(|c| private_cache(c, &trace));
        let runtime = Runtime::auto(config.threads).with_trace(trace.clone());
        let state = JobState::new(config, 0);
        Ok(Self::build(
            Arc::new(app),
            state,
            runtime,
            trace,
            cache,
            None,
        ))
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
    /// (as [`WindowedJob::new`], with fault plans checked against the
    /// shared cache), or when `config.cache` requests a private cache
    /// alongside the shared one. A rejected job allocates no namespace.
    pub fn with_shared(app: A, config: JobConfig, shared: &EngineShared) -> Result<Self, JobError> {
        config.validate_shared(&app, shared)?;
        let mut config = config;
        if config.faults.is_none() {
            config.faults = shared.fault_plan().cloned();
        }
        let cache_ns = shared.cache().map_or(0, |_| shared.allocate_namespace());
        Ok(Self::attach(
            Arc::new(app),
            JobState::new(config, cache_ns),
            shared,
        ))
    }

    /// Attaches a job's app and state to the runtime, trace sink, cache
    /// and clock of `shared`: the step fresh construction
    /// ([`WindowedJob::with_shared`]) and restore
    /// ([`WindowedJob::restore_with_shared`]) share.
    fn attach(
        app: Arc<A>,
        state: JobState<A::Key, A::Value, A::Output>,
        shared: &EngineShared,
    ) -> Self {
        let trace = shared.trace().clone();
        let private = state.config.cache.clone().map(|c| private_cache(c, &trace));
        Self::build(
            app,
            state,
            shared.runtime().clone(),
            trace,
            shared.cache().cloned().or(private),
            shared.clock().cloned(),
        )
    }

    fn build(
        app: Arc<A>,
        state: JobState<A::Key, A::Value, A::Output>,
        runtime: Runtime,
        trace: TraceSink,
        cache: Option<SharedCache>,
        clock: Option<SharedClock>,
    ) -> Self {
        WindowedJob {
            combiner: AppCombiner::new(Arc::clone(&app)),
            app,
            state,
            runtime,
            trace,
            cache,
            clock,
        }
    }

    /// The object id partition `p`'s memoized state is cached under —
    /// namespaced so jobs sharing one cache never collide.
    fn object_id(&self, partition: usize) -> ObjectId {
        ObjectId::namespaced(self.state.cache_ns, partition as u64)
    }

    /// The cache namespace this job's objects live under (`0` standalone).
    pub fn cache_namespace(&self) -> u32 {
        self.state.cache_ns
    }

    /// The current per-key output of the job.
    pub fn output(&self) -> &BTreeMap<A::Key, A::Output> {
        &self.state.output
    }

    /// The configuration in use. Its `trace` is always disabled: the job
    /// keeps the sink it resolved at construction (see
    /// [`WindowedJob::trace`]).
    pub fn config(&self) -> &JobConfig {
        &self.state.config
    }

    /// The parallel runtime executing this job's per-shard phases. Shared
    /// with downstream pipeline stages so the whole query inherits it.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The trace sink this job emits to: disabled unless
    /// [`JobConfig::with_trace`] installed an enabled sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Number of splits currently in the window.
    pub fn window_splits(&self) -> usize {
        self.state.window.len()
    }

    /// Total memoization footprint, in modeled bytes.
    pub fn memo_footprint_bytes(&self) -> u64 {
        self.state.shards.iter().map(|p| p.memo_footprint).sum()
    }

    /// Captures a deep checkpoint of the job: its app and a clone of its
    /// state.
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
            state: self.state.clone(),
        }
    }

    /// Reconstructs a job from `checkpoint`, attached to `shared`
    /// infrastructure exactly as [`WindowedJob::with_shared`] attaches a
    /// fresh one. The checkpoint's cache namespace is reused verbatim
    /// (nothing is allocated), so the job finds its memoized objects
    /// exactly where the captured job left them; the host is responsible
    /// for restoring the shared cache's contents and namespace watermark.
    ///
    /// The checkpoint is borrowed, not consumed: its state is cloned
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
        let JobCheckpoint { app, state } = checkpoint;
        let config = &state.config;
        config.validate(app.is_commutative(), Some(shared), config.faults.as_ref())?;
        Ok(Self::attach(Arc::clone(app), state.clone(), shared))
    }
}
