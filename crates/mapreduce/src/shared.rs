//! Shared engine infrastructure for multi-job hosts.
//!
//! A standalone [`WindowedJob`](crate::WindowedJob) builds its own world:
//! a runtime, a trace sink, optionally a private memoization cache. That
//! is the wrong shape for a long-running service multiplexing many
//! tenants — the paper's architecture has *one* cluster, *one*
//! memoization layer, and every job's memoized state lives (and is
//! garbage-collected) inside it.
//!
//! [`EngineShared`] bundles the pieces that must be one-per-service:
//!
//! * the [`Runtime`] (thread budget) every job's parallel phases use;
//! * the [`TraceSink`] all jobs emit into (per-job spans stay separable
//!   by track);
//! * an optional [`SharedCache`], with a fresh object-id **namespace**
//!   allocated per registered job so tenants never collide on keys;
//! * an optional [`SharedClock`] accumulating the simulated cluster's
//!   virtual uptime across every tenant's runs;
//! * an optional default [`JobFaultPlan`] inherited by jobs that do not
//!   script their own.
//!
//! Jobs built with [`WindowedJob::with_shared`](crate::WindowedJob::with_shared)
//! attach to these; jobs built with `WindowedJob::new` keep the legacy
//! private world (namespace 0) bit-for-bit.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use slider_cluster::SharedClock;
use slider_dcache::{CacheConfig, DistributedCache, SharedCache};
use slider_trace::TraceSink;

use crate::fault::JobFaultPlan;
use crate::runtime::Runtime;

#[derive(Debug)]
struct SharedParts {
    runtime: Runtime,
    trace: TraceSink,
    cache: Option<SharedCache>,
    clock: Option<SharedClock>,
    faults: Option<JobFaultPlan>,
    /// Next cache namespace to hand out; 0 is reserved for standalone
    /// jobs, so allocation starts at 1.
    next_namespace: AtomicU32,
}

/// Cloneable bundle of engine infrastructure shared by every job of one
/// service (see the module docs). Build with [`EngineShared::builder`].
#[derive(Debug, Clone)]
pub struct EngineShared {
    inner: Arc<SharedParts>,
}

impl EngineShared {
    /// Starts building shared infrastructure.
    #[must_use]
    pub fn builder() -> EngineSharedBuilder {
        EngineSharedBuilder {
            threads: 0,
            trace: TraceSink::disabled(),
            cache: None,
            clock: false,
            faults: None,
        }
    }

    /// The shared parallel runtime.
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.inner.runtime
    }

    /// The shared trace sink (env-resolved at build time).
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        &self.inner.trace
    }

    /// The shared memoization cache, if one was configured.
    #[must_use]
    pub fn cache(&self) -> Option<&SharedCache> {
        self.inner.cache.as_ref()
    }

    /// The shared simulated-cluster clock, if one was configured.
    #[must_use]
    pub fn clock(&self) -> Option<&SharedClock> {
        self.inner.clock.as_ref()
    }

    /// The default fault plan jobs inherit when they script none.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&JobFaultPlan> {
        self.inner.faults.as_ref()
    }

    /// Hands out the next cache namespace (1, 2, 3, …). Deterministic as
    /// long as the host registers jobs in a deterministic order — which a
    /// sequential service control loop guarantees.
    #[must_use]
    pub fn allocate_namespace(&self) -> u32 {
        self.inner.next_namespace.fetch_add(1, Ordering::Relaxed)
    }

    /// The namespace the next [`EngineShared::allocate_namespace`] call
    /// would hand out. Checkpoints record this so a restored service
    /// resumes allocation exactly where the crashed one stopped (restored
    /// tenants keep their original namespaces; later registrations must
    /// not collide with them).
    #[must_use]
    pub fn namespace_watermark(&self) -> u32 {
        self.inner.next_namespace.load(Ordering::Relaxed)
    }

    /// Reimposes a captured namespace watermark on this (typically fresh)
    /// bundle. The counterpart of [`EngineShared::namespace_watermark`].
    pub fn restore_namespace_watermark(&self, next: u32) {
        self.inner.next_namespace.store(next, Ordering::Relaxed);
    }
}

/// Builder for [`EngineShared`].
#[derive(Debug)]
pub struct EngineSharedBuilder {
    threads: usize,
    trace: TraceSink,
    cache: Option<CacheConfig>,
    clock: bool,
    faults: Option<JobFaultPlan>,
}

impl EngineSharedBuilder {
    /// Thread budget for the shared runtime (`0` = auto, overridable via
    /// `SLIDER_THREADS` exactly like a standalone job).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Trace sink every job emits into.
    #[must_use]
    pub fn trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Configures one shared memoization cache for all jobs.
    #[must_use]
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Installs a shared simulated-cluster clock; jobs that run the
    /// cluster simulation advance it by each run's makespan.
    #[must_use]
    pub fn clock(mut self) -> Self {
        self.clock = true;
        self
    }

    /// Default fault plan inherited by jobs whose config scripts none.
    #[must_use]
    pub fn faults(mut self, plan: JobFaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the shared bundle.
    #[must_use]
    pub fn build(self) -> EngineShared {
        let trace = self.trace;
        let runtime = Runtime::auto(self.threads).with_trace(trace.clone());
        let cache = self.cache.map(|config| {
            let mut cache = DistributedCache::new(config);
            cache.attach_trace(trace.clone());
            SharedCache::new(cache)
        });
        let clock = self.clock.then(SharedClock::new);
        EngineShared {
            inner: Arc::new(SharedParts {
                runtime,
                trace,
                cache,
                clock,
                faults: self.faults,
                next_namespace: AtomicU32::new(1),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_start_at_one_and_increment() {
        let shared = EngineShared::builder().build();
        assert_eq!(shared.allocate_namespace(), 1);
        assert_eq!(shared.allocate_namespace(), 2);
        let clone = shared.clone();
        assert_eq!(clone.allocate_namespace(), 3, "clones share the counter");
    }

    #[test]
    fn optional_parts_default_off() {
        let shared = EngineShared::builder().build();
        assert!(shared.cache().is_none());
        assert!(shared.clock().is_none());
        assert!(shared.fault_plan().is_none());
        assert!(!shared.trace().is_enabled());
    }

    #[test]
    fn cache_and_clock_are_shared_across_clones() {
        let shared = EngineShared::builder()
            .cache(CacheConfig::paper_defaults(2))
            .clock()
            .build();
        let clone = shared.clone();
        shared.clock().unwrap().advance(2_000_000_000);
        assert_eq!(clone.clock().unwrap().ns(), 2_000_000_000);
        shared.cache().unwrap().with(|c| {
            c.put(
                slider_dcache::ObjectId::namespaced(1, 0),
                64,
                slider_dcache::NodeId(0),
                0,
            );
        });
        assert_eq!(clone.cache().unwrap().namespace_stats(1).puts, 1);
    }
}
