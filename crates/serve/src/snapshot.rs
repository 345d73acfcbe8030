//! Deterministic service checkpoints.
//!
//! A [`ServiceSnapshot`] is a deep, versioned capture of everything a
//! [`ServiceRuntime`](crate::ServiceRuntime) would need to resume after a
//! crash as if the crash never happened. Every layer keeps its mutable
//! state in one value beside its engine handles, and a capture is a clone
//! of each such value:
//!
//! * the shared engine's mutable state — the simulated clock, the
//!   memoization cache *contents* (a full [`DistributedCache`] image,
//!   detached from the engine's trace sink), and the cache-namespace
//!   watermark;
//! * the service's own state — the roll-up statistics, the overload
//!   gauge, and the tenant-id counter;
//! * every live tenant — its service-side state (the
//!   [`TenantSpec`](crate::TenantSpec), the admission gate's DGIM limiter
//!   and quota ledger, the circuit breaker, the dispatch sequence counter
//!   and the folded statistics) and a [`FeederCheckpoint`]: the
//!   event-time feeder's reorder buffer, late queue and window map, and
//!   the job's aggregator trees cloned *exactly* (see
//!   [`WindowedJob::checkpoint`](slider_mapreduce::WindowedJob::checkpoint)).
//!
//! A restore feeds clones of these values through the same attach steps
//! fresh construction uses, so the capture holds no handle to the crashed
//! engine and the resumed service shares nothing with it.
//!
//! The restore invariant (proved by `tests/integration_resilience.rs`):
//! crash at *any* ingest boundary, restore onto a fresh engine, replay
//! the remaining requests — and every output, query, and metrics render
//! is bit-identical to an uninterrupted twin, at any thread count.
//!
//! Snapshots are in-memory values (this reproduction models durability,
//! it does not serialize to disk — no serde in the dependency set), but
//! they are *byte-stable*: [`ServiceSnapshot::describe`] renders a
//! deterministic manifest, identical across twins, reruns and thread
//! counts, which is what an on-disk format would checksum.

use std::fmt::Write as _;

use slider_cluster::SimClock;
use slider_dcache::DistributedCache;
use slider_mapreduce::{FeederCheckpoint, MapReduceApp};
use slider_trace::ticks_to_seconds;

use crate::admission::DGIM_EPSILON;
use crate::breaker::CircuitBreaker;
use crate::service::{ServiceState, TenantState};
use crate::tenant::TenantId;

/// The snapshot-format version this build writes and the only version
/// [`ServiceRuntime::restore`](crate::ServiceRuntime::restore) accepts;
/// a mismatch is the typed error
/// [`ServeError::SnapshotVersion`](crate::ServeError::SnapshotVersion),
/// never a panic.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One live tenant's captured state.
pub(crate) struct TenantSnapshot<A: MapReduceApp> {
    pub(crate) id: TenantId,
    pub(crate) state: TenantState,
    pub(crate) feeder: FeederCheckpoint<A>,
}

/// A versioned, deep checkpoint of a whole service (see the module
/// docs). Build with
/// [`ServiceRuntime::snapshot`](crate::ServiceRuntime::snapshot); resume
/// with [`ServiceRuntime::restore`](crate::ServiceRuntime::restore). A
/// snapshot is a value — restoring borrows it, so one capture can seed
/// any number of resumed twins.
pub struct ServiceSnapshot<A: MapReduceApp> {
    pub(crate) version: u32,
    pub(crate) clock: Option<SimClock>,
    pub(crate) cache: Option<DistributedCache>,
    pub(crate) namespace_watermark: u32,
    pub(crate) service: ServiceState,
    pub(crate) tenants: Vec<TenantSnapshot<A>>,
}

impl<A: MapReduceApp> ServiceSnapshot<A> {
    /// The snapshot-format version this capture carries.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Overrides the carried version — a forward-compatibility testing
    /// hook, used to prove that restoring a snapshot from a different
    /// format version fails with a typed error instead of corrupting
    /// state or panicking.
    #[must_use]
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Live tenants captured.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A byte-stable manifest of the capture: every field that defines
    /// the resumed service's behavior, rendered deterministically. Two
    /// snapshots taken at the same logical point of twin services render
    /// identically — across reruns and worker-thread counts — so this is
    /// the string an on-disk checkpoint format would checksum.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# slider-serve snapshot v{}", self.version);
        match self.clock {
            Some(clock) => {
                let _ = writeln!(
                    out,
                    "clock seconds={:.6} advances={}",
                    ticks_to_seconds(clock.ns),
                    clock.advances
                );
            }
            None => {
                let _ = writeln!(out, "clock none");
            }
        }
        match &self.cache {
            Some(cache) => {
                let _ = writeln!(
                    out,
                    "cache objects={} indexed_bytes={}",
                    cache.len(),
                    cache.indexed_bytes()
                );
            }
            None => {
                let _ = writeln!(out, "cache none");
            }
        }
        let _ = writeln!(
            out,
            "service namespace_watermark={} next_tenant_id={} tenants={}",
            self.namespace_watermark,
            self.service.next_id,
            self.tenants.len()
        );
        let _ = writeln!(out, "stats {:?}", self.service.stats);
        match &self.service.overload {
            Some(o) => {
                let _ = writeln!(
                    out,
                    "overload limit={} window={} epsilon={} last_arrival={} gauge={:?}",
                    o.config.record_limit, o.config.window, DGIM_EPSILON, o.last_arrival, o.gauge
                );
            }
            None => {
                let _ = writeln!(out, "overload none");
            }
        }
        for t in &self.tenants {
            let state = &t.state;
            let breaker = state
                .breaker
                .as_ref()
                .map_or_else(|| "none".to_string(), CircuitBreaker::describe);
            let _ = writeln!(
                out,
                "tenant id={} name={} ns={} runs={} window_splits={} buffered={} \
                 dispatch_seq={} gate_used={} breaker={}",
                t.id,
                state.spec.name,
                t.feeder.job().cache_namespace(),
                t.feeder.job().run_index(),
                t.feeder.job().window_splits(),
                t.feeder.buffered_records(),
                state.dispatch_seq,
                state.gate.used(),
                breaker
            );
            let _ = writeln!(out, "tenant id={} event={:?}", t.id, t.feeder.stats());
            if let Some(limiter) = state.gate.limiter() {
                let _ = writeln!(out, "tenant id={} limiter={limiter:?}", t.id);
            }
            let _ = writeln!(out, "tenant id={} stats={:?}", t.id, state.stats);
        }
        out
    }
}
