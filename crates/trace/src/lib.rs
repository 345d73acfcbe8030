//! # slider-trace — deterministic tracing, metrics & profile export
//!
//! The Slider paper argues almost entirely through per-phase breakdowns
//! (Figure 9's map / contraction / reduce / movement split). This crate
//! gives the reproduction the same visibility: a span tree per windowed
//! run, a counters/gauges registry, and exporters for Chrome
//! `trace_event` JSON, folded-flamegraph text, and a metrics JSON blob
//! consumed by `slider-bench` reports.
//!
//! Three properties make it a correctness tool rather than logging:
//!
//! 1. **Virtual clock.** Spans are timestamped in modeled work units and
//!    simulated nanoseconds — never wall-clock — so a trace is
//!    bit-identical across thread counts and reruns.
//! 2. **Exact reconciliation.** Every span is emitted at the same site
//!    that accumulates the engine's own statistics, carrying identical
//!    integer operands, so span totals reconcile *exactly* with
//!    `WorkBreakdown`, `SimReport`, `CacheStats`, `RecoveryStats` and
//!    `RepairStats`, and each number sits on one track only. Counters are
//!    not bumped where the work happens: each stats type (`RunStats`,
//!    which also writes `cluster.*` from its `SimReport`s, `CacheStats`,
//!    `RepairStats`, `JoinStats`, and serve's `TenantStats`) has one
//!    `trace_counters` emitter, called once per completed run or settled
//!    request, so a counter is the sum of its stats field over the runs
//!    that returned and activity outside a run is not counted (both
//!    enforced by `tests/integration_trace.rs`). Only the runtime's
//!    `runtime.*` counters and a few one-site counters (`pipeline.*`,
//!    `query.runs`, `serve.deregistered`, `serve.restored`) are written
//!    where they happen.
//! 3. **Zero overhead when disabled.** The [`TraceSink`] handle threaded
//!    through the engine is an `Option` internally; the disabled sink
//!    costs one branch per call site and never locks or allocates.
//!
//! ```
//! use slider_trace::{SpanKind, TraceSink};
//!
//! let sink = TraceSink::enabled();
//! sink.with(|t| {
//!     let tr = t.track("engine");
//!     let run = t.begin(tr, SpanKind::Run, "run #0");
//!     t.leaf(tr, SpanKind::Map, "split 0", 42);
//!     t.end(run);
//!     t.add("engine.map_tasks", 1);
//! });
//! let snap = sink.snapshot().unwrap();
//! assert_eq!(snap.work_total("engine", SpanKind::Map, None), 42);
//! assert!(TraceSink::disabled().snapshot().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

pub mod json;

mod export;
mod span;

use std::sync::{Arc, Mutex};

pub use export::TraceSnapshot;
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue};
pub use span::{
    seconds_to_ticks, ticks_to_seconds, Span, SpanId, SpanKind, Tracer, TrackId, TICKS_PER_SECOND,
};

/// A cheap, cloneable handle to a shared [`Tracer`] — or to nothing.
///
/// The engine threads one of these through `JobConfig`, the runtime, the
/// distributed cache and the cluster simulator. When disabled (the
/// default) every operation is a single `Option` branch; when enabled,
/// clones share the same tracer, so a job, its cache and its simulator
/// all write into one coherent trace.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<Tracer>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceSink {
    /// The no-op sink: records nothing, costs one branch per call site.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A live sink backed by a fresh, empty [`Tracer`].
    pub fn enabled() -> Self {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(Tracer::new()))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the shared tracer when enabled; returns `None`
    /// without locking when disabled. All engine emission goes through
    /// this, always from the control thread.
    pub fn with<R>(&self, f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut tracer = inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(f(&mut tracer))
    }

    /// Captures a frozen [`TraceSnapshot`] of everything recorded so far.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.with(|t| TraceSnapshot::capture(t))
    }

    /// Convenience: the Chrome `trace_event` JSON export.
    pub fn chrome_trace(&self) -> Option<String> {
        self.snapshot().map(|s| s.chrome_trace())
    }

    /// Convenience: the folded-flamegraph export.
    pub fn folded_flamegraph(&self) -> Option<String> {
        self.snapshot().map(|s| s.folded_flamegraph())
    }

    /// Convenience: the metrics JSON blob.
    pub fn metrics_json(&self) -> Option<String> {
        self.snapshot().map(|s| s.metrics_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.with(|_| 1), None);
        assert!(sink.snapshot().is_none());
        assert!(sink.chrome_trace().is_none());
    }

    #[test]
    fn clones_share_one_tracer() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        clone.with(|t| {
            let tr = t.track("engine");
            t.leaf(tr, SpanKind::Map, "x", 3);
        });
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.work_total("engine", SpanKind::Map, None), 3);
    }
}
