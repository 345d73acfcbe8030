//! The service runtime: tenant registry, admission, dispatch, and the
//! health/metrics surface.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use slider_core::SlidingWindowCounter;
use slider_mapreduce::{
    EngineShared, EventFeeder, JobConfig, JobError, MapReduceApp, RunStats, Stamped, WindowedJob,
};
use slider_trace::{SpanKind, TrackId};

use crate::admission::{AdmissionGate, Decision, OverloadConfig};
use crate::breaker::CircuitBreaker;
use crate::error::ServeError;
use crate::snapshot::{OverloadSnapshot, ServiceSnapshot, TenantSnapshot, SNAPSHOT_VERSION};
use crate::stats::{ServeStats, TenantStats};
use crate::tenant::{TenantId, TenantReport, TenantSpec, WindowView};

/// What one front-door request produced: the admission verdict and, for
/// admitted requests, the runs the dispatch executed (closed epochs and
/// late-record splices the new records unlocked).
#[derive(Debug)]
pub struct IngestOutcome {
    /// The admission chain's verdict.
    pub decision: Decision,
    /// Runs executed by this dispatch (empty for rejected requests).
    pub runs: Vec<RunStats>,
}

struct TenantEntry<A: MapReduceApp> {
    name: String,
    /// The registering spec, retained verbatim: snapshots capture it so a
    /// restored service can recompile the tenant, and the overload path
    /// reads priority / pressure budget from it on every request.
    spec: TenantSpec,
    feeder: EventFeeder<A>,
    gate: AdmissionGate,
    breaker: Option<CircuitBreaker>,
    /// Admitted dispatches so far — the sequence number scripted
    /// [`DispatchFaultPlan`](crate::DispatchFaultPlan)s key on.
    dispatch_seq: u64,
    stats: TenantStats,
    track: Option<TrackId>,
}

/// Service-wide overload state: the DGIM gauge over admitted records.
struct OverloadState {
    config: OverloadConfig,
    gauge: SlidingWindowCounter,
    /// Highest arrival tick seen, so metrics can render the gauge
    /// estimate without a caller-supplied clock.
    last_arrival: u64,
}

/// A multi-tenant streaming service over one shared engine.
///
/// Tenants register at runtime with a [`TenantSpec`]; each is compiled
/// into an [`EventFeeder`]-backed windowed job attached to the service's
/// [`EngineShared`] (one runtime, one trace sink, one memoization cache
/// with a private namespace per tenant, one simulated-cluster clock).
/// Requests pass the deterministic admission chain before dispatch; the
/// window of any tenant can be queried between requests while other
/// tenants' slides are in flight.
///
/// Determinism contract: the same registration order, request sequence
/// and seeds produce bit-identical per-tenant outputs, [`ServeStats`]
/// and trace exports at every worker-thread count.
pub struct ServiceRuntime<A: MapReduceApp> {
    shared: EngineShared,
    tenants: BTreeMap<TenantId, TenantEntry<A>>,
    names: BTreeMap<String, TenantId>,
    next_id: u64,
    stats: ServeStats,
    overload: Option<OverloadState>,
}

impl<A: MapReduceApp> ServiceRuntime<A> {
    /// Creates an empty service over `shared`.
    pub fn new(shared: EngineShared) -> Self {
        ServiceRuntime {
            shared,
            tenants: BTreeMap::new(),
            names: BTreeMap::new(),
            next_id: 1,
            stats: ServeStats::default(),
            overload: None,
        }
    }

    /// Installs service-wide overload shedding (see [`OverloadConfig`]).
    /// Builder-style; install before serving traffic.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] for a zero window or an epsilon outside
    /// `(0, 1]`.
    pub fn with_overload(mut self, config: OverloadConfig) -> Result<Self, ServeError> {
        config.validate().map_err(ServeError::BadSpec)?;
        self.overload = Some(OverloadState {
            gauge: SlidingWindowCounter::new(config.window, config.epsilon),
            config,
            last_arrival: 0,
        });
        Ok(self)
    }

    /// The shared engine infrastructure this service multiplexes.
    pub fn shared(&self) -> &EngineShared {
        &self.shared
    }

    /// Registers a tenant: validates `spec`, compiles it into an
    /// event-time windowed job on the shared engine, and opens the
    /// tenant's trace track (`tenant:<name>`).
    pub fn register(&mut self, app: A, spec: TenantSpec) -> Result<TenantId, ServeError> {
        spec.validate()?;
        if self.names.contains_key(&spec.name) {
            return Err(ServeError::DuplicateTenant(spec.name));
        }
        let mut config = JobConfig::new(spec.mode).with_partitions(spec.partitions);
        if let Some(sim) = spec.simulation.clone() {
            config = config.with_simulation(sim);
        }
        if let Some(rate) = spec.work_per_byte {
            config = config.with_work_per_byte(rate);
        }
        let job = WindowedJob::with_shared(app, config, &self.shared)?;
        let feeder = EventFeeder::new(job, spec.event)?;
        let id = TenantId(self.next_id);
        self.next_id += 1;
        let track = self
            .shared
            .trace()
            .with(|t| t.track(&format!("tenant:{}", spec.name)));
        self.names.insert(spec.name.clone(), id);
        self.tenants.insert(
            id,
            TenantEntry {
                name: spec.name.clone(),
                gate: AdmissionGate::new(&spec),
                breaker: spec.breaker.clone().map(CircuitBreaker::new),
                dispatch_seq: 0,
                feeder,
                stats: TenantStats::default(),
                track,
                spec,
            },
        );
        self.stats.tenants_registered += 1;
        Ok(id)
    }

    /// Deregisters a tenant: drains its reorder buffer and open epochs
    /// (running any final slides), folds the final runs into the
    /// statistics, and removes it from the registry. Other tenants are
    /// untouched — their outputs and stats do not depend on who else
    /// comes or goes.
    pub fn deregister(&mut self, id: TenantId) -> Result<TenantReport<A>, ServeError> {
        let mut entry = self
            .tenants
            .remove(&id)
            .ok_or(ServeError::UnknownTenant(id.0))?;
        self.names.remove(&entry.name);
        let final_runs = match entry.feeder.close_all() {
            Ok(runs) => runs,
            Err(e) => {
                // Registry state stays consistent: the tenant is gone
                // either way, only its drain failed.
                self.stats.tenants_deregistered += 1;
                return Err(e.into());
            }
        };
        for run in &final_runs {
            entry.stats.absorb(run);
            self.stats.absorb(run);
        }
        self.stats.tenants_deregistered += 1;
        self.shared.trace().with(|t| {
            t.add("serve.deregistered", 1);
        });
        Ok(TenantReport {
            name: entry.name,
            stats: entry.stats,
            event: entry.feeder.stats(),
            output: entry.feeder.output().clone(),
            final_runs,
        })
    }

    /// Serves one request through the full resilience pipeline, in a
    /// fixed deterministic order:
    ///
    /// 1. **Circuit breaker** — an open breaker bounces first; a
    ///    quarantined tenant must not consume rate or overload capacity.
    /// 2. **Overload** — when the service-wide admitted-record gauge is
    ///    at or above the configured limit, requests over the tenant's
    ///    pressure budget bounce, then tenants whose priority does not
    ///    clear the overflow are shed (lowest priority first).
    /// 3. **Admission chain** — per-request cap, DGIM rate limit, quota.
    /// 4. **Dispatch** — scripted faults (if any) are retried under the
    ///    tenant's [`BreakerConfig::retry`](crate::BreakerConfig::retry)
    ///    policy with backoff charged to the shared simulated clock;
    ///    exhausted retries charge the breaker and surface as
    ///    [`JobError::Injected`](slider_mapreduce::JobError::Injected).
    ///    Real flush errors charge the breaker the same way. Successful
    ///    dispatches close the breaker.
    ///
    /// `arrival` is the service-clock tick the request arrived at; the
    /// DGIM limiter and gauge window over it and breaker cool-downs are
    /// measured on it. Per tenant it should be non-decreasing (the
    /// counters clamp regressions).
    pub fn ingest(
        &mut self,
        id: TenantId,
        arrival: u64,
        records: Vec<Stamped<A::Input>>,
    ) -> Result<IngestOutcome, ServeError> {
        let entry = self
            .tenants
            .get_mut(&id)
            .ok_or(ServeError::UnknownTenant(id.0))?;
        let count = records.len();

        // 1. Circuit breaker.
        if let Some(remaining) = entry.breaker.as_mut().and_then(|b| b.check(arrival)) {
            let decision = Decision::BreakerOpen { remaining };
            entry.stats.count(&decision, count);
            self.stats.count(&decision, count);
            Self::trace_decision(&self.shared, entry, decision, count);
            return Ok(IngestOutcome {
                decision,
                runs: Vec::new(),
            });
        }

        // 2. Overload pressure.
        let mut verdict = None;
        if let Some(overload) = &mut self.overload {
            overload.last_arrival = overload.last_arrival.max(arrival);
            let estimate = overload.gauge.count(arrival);
            if estimate >= overload.config.record_limit {
                let overflow = estimate - overload.config.record_limit;
                if let Some(budget) = entry.spec.pressure_budget {
                    if count > budget {
                        verdict = Some(Decision::DeadlineExceeded { budget, got: count });
                    }
                }
                if verdict.is_none() && u64::from(entry.spec.priority) <= overflow {
                    verdict = Some(Decision::Shed {
                        priority: entry.spec.priority,
                        overflow,
                    });
                }
            }
        }

        // 3. Per-tenant admission chain (skipped for overload verdicts —
        //    bounced requests must not consume rate slots or quota).
        let decision = verdict.unwrap_or_else(|| entry.gate.admit(arrival, count));
        entry.stats.count(&decision, count);
        self.stats.count(&decision, count);
        if !decision.is_admitted() {
            Self::trace_decision(&self.shared, entry, decision, count);
            return Ok(IngestOutcome {
                decision,
                runs: Vec::new(),
            });
        }
        if let Some(overload) = &mut self.overload {
            overload.gauge.record_n(arrival, count as u64);
        }

        // 4. Dispatch. Scripted faults fail the first `failing` attempts
        //    of this admitted dispatch; each retry charges deterministic
        //    backoff to the shared clock before trying again.
        let seq = entry.dispatch_seq;
        entry.dispatch_seq += 1;
        let failing = entry
            .spec
            .dispatch_faults
            .as_ref()
            .map_or(0, |plan| plan.failing_attempts(seq));
        if failing > 0 {
            let policy = entry.spec.breaker.clone().unwrap_or_default();
            // Attempt `a` (1-based) fails while a ≤ failing; after a
            // failed attempt `a` the dispatch may retry while
            // a ≤ max_retries, and retry number `a` charges
            // backoff × multiplier(a).
            let mut attempt: u32 = 1;
            while attempt <= failing && attempt <= policy.retry.max_retries {
                entry.stats.dispatch_retries += 1;
                self.stats.dispatch_retries += 1;
                if let Some(clock) = self.shared.clock() {
                    clock.advance(
                        policy.retry_backoff_seconds * policy.retry.backoff_multiplier(attempt),
                    );
                }
                self.shared
                    .trace()
                    .with(|t| t.add("serve.dispatch-retry", 1));
                attempt += 1;
            }
            if attempt <= failing {
                // Retries exhausted with the fault still firing.
                let error = JobError::Injected(format!(
                    "dispatch {seq} failed {failing} scripted attempts \
                     (retry budget {})",
                    policy.retry.max_retries
                ));
                Self::fail_dispatch(&self.shared, &mut self.stats, entry, arrival, count);
                return Err(ServeError::Job(error));
            }
        }
        entry.feeder.ingest(records);
        let runs = match entry.feeder.flush() {
            Ok(runs) => runs,
            Err(e) => {
                // A real dispatch failure charges the breaker exactly
                // like an injected one.
                Self::fail_dispatch(&self.shared, &mut self.stats, entry, arrival, count);
                return Err(e.into());
            }
        };
        if let Some(breaker) = entry.breaker.as_mut() {
            breaker.on_success();
        }
        for run in &runs {
            entry.stats.absorb(run);
            self.stats.absorb(run);
        }
        Self::trace_decision(&self.shared, entry, decision, count);
        Ok(IngestOutcome { decision, runs })
    }

    /// Emits the per-request trace record (the tenant-track leaf and the
    /// service counters) for a settled decision.
    fn trace_decision(
        shared: &EngineShared,
        entry: &TenantEntry<A>,
        decision: Decision,
        count: usize,
    ) {
        shared.trace().with(|t| {
            let name = match decision {
                Decision::Admitted { .. } => "request",
                Decision::TooLarge { .. } => "reject:too-large",
                Decision::RateLimited { .. } => "reject:rate-limited",
                Decision::OverQuota { .. } => "reject:over-quota",
                Decision::BreakerOpen { .. } => "reject:breaker-open",
                Decision::DeadlineExceeded { .. } => "reject:deadline",
                Decision::Shed { .. } => "reject:shed",
            };
            if let Some(track) = entry.track {
                t.leaf(track, SpanKind::Stage, name, count as u64);
            }
            t.add("serve.requests", 1);
            t.add(&format!("serve.{name}"), 1);
        });
    }

    /// Books an exhausted dispatch: failure counters, breaker charge
    /// (counting a trip when this failure opens it), trace records.
    fn fail_dispatch(
        shared: &EngineShared,
        stats: &mut ServeStats,
        entry: &mut TenantEntry<A>,
        arrival: u64,
        count: usize,
    ) {
        let tripped = entry
            .breaker
            .as_mut()
            .is_some_and(|b| b.on_failure(arrival));
        entry.stats.dispatch_failures += 1;
        stats.dispatch_failures += 1;
        if tripped {
            entry.stats.breaker_trips += 1;
            stats.breaker_trips += 1;
        }
        shared.trace().with(|t| {
            if let Some(track) = entry.track {
                t.leaf(track, SpanKind::Stage, "dispatch-failed", count as u64);
            }
            t.add("serve.requests", 1);
            t.add("serve.dispatch-failed", 1);
            if tripped {
                t.add("serve.breaker-trip", 1);
            }
        });
    }

    /// Captures a deep, versioned checkpoint of the whole service: every
    /// tenant's spec, feeder and job state, admission and breaker
    /// positions, the service roll-up, the overload gauge, and the shared
    /// engine's mutable state (clock, cache contents, namespace
    /// watermark). See [`ServiceSnapshot`]. The capture is a value —
    /// restoring borrows it, so one snapshot can seed many resumed twins.
    #[must_use]
    pub fn snapshot(&self) -> ServiceSnapshot<A> {
        ServiceSnapshot {
            version: SNAPSHOT_VERSION,
            clock: self
                .shared
                .clock()
                .map(slider_cluster::SharedClock::snapshot),
            cache: self
                .shared
                .cache()
                .map(slider_dcache::SharedCache::snapshot_cache),
            namespace_watermark: self.shared.namespace_watermark(),
            next_id: self.next_id,
            stats: self.stats,
            overload: self.overload.as_ref().map(|o| OverloadSnapshot {
                config: o.config.clone(),
                gauge: o.gauge.snapshot(),
                last_arrival: o.last_arrival,
            }),
            tenants: self
                .tenants
                .iter()
                .map(|(id, entry)| TenantSnapshot {
                    id: *id,
                    name: entry.name.clone(),
                    spec: entry.spec.clone(),
                    feeder: entry.feeder.checkpoint(),
                    gate: entry.gate.snapshot(),
                    breaker: entry.breaker.as_ref().map(CircuitBreaker::state),
                    dispatch_seq: entry.dispatch_seq,
                    stats: entry.stats,
                })
                .collect(),
        }
    }

    /// Resumes a service from `snapshot` onto `shared` — typically a
    /// fresh engine standing in for a restarted process. Restores, in
    /// order: the simulated clock, the memoization cache contents, the
    /// namespace watermark, then every tenant (in id order, so trace
    /// tracks are recreated deterministically) with its job, feeder,
    /// gate, breaker and counters exactly where the capture left them.
    ///
    /// # Errors
    ///
    /// * [`ServeError::SnapshotVersion`] when the snapshot carries a
    ///   different format version — checked first, before any state is
    ///   touched.
    /// * [`ServeError::Snapshot`] when the snapshot needs engine parts
    ///   `shared` was built without (clock, cache).
    /// * [`ServeError::Job`] when a tenant's job rejects reconstruction.
    pub fn restore(
        shared: EngineShared,
        snapshot: &ServiceSnapshot<A>,
    ) -> Result<Self, ServeError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(ServeError::SnapshotVersion {
                expected: SNAPSHOT_VERSION,
                got: snapshot.version,
            });
        }
        if let Some(clock) = snapshot.clock {
            let Some(target) = shared.clock() else {
                return Err(ServeError::Snapshot(
                    "snapshot carries a simulated clock but the engine has none".into(),
                ));
            };
            target.restore(clock);
        }
        if let Some(cache) = &snapshot.cache {
            let Some(target) = shared.cache() else {
                return Err(ServeError::Snapshot(
                    "snapshot carries cache contents but the engine has no cache".into(),
                ));
            };
            // The captured image shares the crashed service's trace sink;
            // swap in this engine's before installing it.
            let mut cache = cache.clone();
            cache.attach_trace(shared.trace().clone());
            target.restore_cache(cache);
        }
        shared.restore_namespace_watermark(snapshot.namespace_watermark);
        let mut tenants = BTreeMap::new();
        let mut names = BTreeMap::new();
        for t in &snapshot.tenants {
            let feeder = EventFeeder::restore_with_shared(&t.feeder, &shared)?;
            let track = shared
                .trace()
                .with(|tr| tr.track(&format!("tenant:{}", t.name)));
            names.insert(t.name.clone(), t.id);
            tenants.insert(
                t.id,
                TenantEntry {
                    name: t.name.clone(),
                    gate: AdmissionGate::restore(&t.spec, &t.gate),
                    breaker: t.breaker.map(|state| {
                        CircuitBreaker::restore(t.spec.breaker.clone().unwrap_or_default(), state)
                    }),
                    dispatch_seq: t.dispatch_seq,
                    feeder,
                    stats: t.stats,
                    track,
                    spec: t.spec.clone(),
                },
            );
        }
        shared.trace().with(|t| t.add("serve.restored", 1));
        Ok(ServiceRuntime {
            shared,
            tenants,
            names,
            next_id: snapshot.next_id,
            stats: snapshot.stats,
            overload: snapshot.overload.as_ref().map(|o| OverloadState {
                config: o.config.clone(),
                gauge: SlidingWindowCounter::restore(&o.gauge),
                last_arrival: o.last_arrival,
            }),
        })
    }

    /// Point-in-time view of a tenant's window: output, watermark, and
    /// feeder state, consistent as of the last dispatch.
    pub fn query(&self, id: TenantId) -> Result<WindowView<'_, A>, ServeError> {
        let entry = self
            .tenants
            .get(&id)
            .ok_or(ServeError::UnknownTenant(id.0))?;
        Ok(WindowView {
            output: entry.feeder.output(),
            watermark: entry.feeder.watermark(),
            window_epochs: entry.feeder.window_epochs(),
            buffered_records: entry.feeder.buffered_records(),
            event: entry.feeder.stats(),
        })
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.names.get(name).copied()
    }

    /// Registered tenants, in id order.
    pub fn tenants(&self) -> Vec<(TenantId, &str)> {
        self.tenants
            .iter()
            .map(|(id, e)| (*id, e.name.as_str()))
            .collect()
    }

    /// A tenant's folded statistics.
    pub fn tenant_stats(&self, id: TenantId) -> Result<&TenantStats, ServeError> {
        self.tenants
            .get(&id)
            .map(|e| &e.stats)
            .ok_or(ServeError::UnknownTenant(id.0))
    }

    /// The service-wide roll-up (includes deregistered tenants).
    pub fn serve_stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The health endpoint: one line per tenant, in id order. A tenant is
    /// `ok` when its job is live; the service line leads with totals.
    pub fn health(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "service tenants={} requests={} runs={}",
            self.tenants.len(),
            self.stats.requests,
            self.stats.runs
        );
        if let Some(o) = &self.overload {
            let estimate = o.gauge.count(o.last_arrival);
            let _ = write!(
                out,
                " pressure={}/{}{}",
                estimate,
                o.config.record_limit,
                if estimate >= o.config.record_limit {
                    " overloaded"
                } else {
                    ""
                }
            );
        }
        out.push('\n');
        for (id, entry) in &self.tenants {
            let watermark = entry
                .feeder
                .watermark()
                .map_or_else(|| "-".to_string(), |w| w.to_string());
            let _ = write!(
                out,
                "ok tenant={} id={} watermark={} window_epochs={} buffered={}",
                entry.name,
                id,
                watermark,
                entry.feeder.window_epochs().len(),
                entry.feeder.buffered_records()
            );
            if let Some(breaker) = &entry.breaker {
                let _ = write!(out, " breaker={}", breaker.describe());
            }
            out.push('\n');
        }
        out
    }

    /// The metrics endpoint: a deterministic text rendering of
    /// [`ServeStats`], the per-tenant folds, per-namespace cache
    /// accounting, and the shared simulated clock. Byte-identical across
    /// reruns and worker-thread counts.
    pub fn metrics(&self) -> String {
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(out, "# slider-serve metrics");
        let _ = writeln!(
            out,
            "service tenants_active={} tenants_registered={} tenants_deregistered={}",
            self.tenants.len(),
            s.tenants_registered,
            s.tenants_deregistered
        );
        let _ = writeln!(
            out,
            "requests total={} admitted={} rate_limited={} over_quota={} too_large={} \
             breaker_open={} shed={} deadline_exceeded={}",
            s.requests,
            s.admitted,
            s.rate_limited,
            s.over_quota,
            s.too_large,
            s.breaker_open,
            s.shed,
            s.deadline_exceeded
        );
        let _ = writeln!(
            out,
            "dispatch failures={} retries={} breaker_trips={}",
            s.dispatch_failures, s.dispatch_retries, s.breaker_trips
        );
        let _ = writeln!(
            out,
            "records admitted={} rejected={}",
            s.records_admitted, s.records_rejected
        );
        if let Some(o) = &self.overload {
            let _ = writeln!(
                out,
                "overload limit={} window={} estimate={} last_arrival={}",
                o.config.record_limit,
                o.config.window,
                o.gauge.count(o.last_arrival),
                o.last_arrival
            );
        }
        let _ = writeln!(
            out,
            "engine runs={} work_fg={} work_grand={}",
            s.runs, s.work_foreground, s.work_grand
        );
        for (id, entry) in &self.tenants {
            let t = &entry.stats;
            let _ = write!(
                out,
                "tenant id={} name={} requests={} admitted={} rate_limited={} \
                 over_quota={} too_large={} breaker_open={} shed={} \
                 deadline_exceeded={} dispatch_failures={} records={} runs={} \
                 work_fg={} work_grand={} footprint={}",
                id,
                entry.name,
                t.requests,
                t.admitted,
                t.rate_limited,
                t.over_quota,
                t.too_large,
                t.breaker_open,
                t.shed,
                t.deadline_exceeded,
                t.dispatch_failures,
                t.records_admitted,
                t.runs,
                t.work_foreground,
                t.work_grand,
                t.memo_footprint_bytes
            );
            if let Some(breaker) = &entry.breaker {
                let _ = write!(out, " breaker={}", breaker.describe());
            }
            out.push('\n');
        }
        if let Some(cache) = self.shared.cache() {
            for (id, entry) in &self.tenants {
                let ns = entry.feeder.job().cache_namespace();
                let n = cache.namespace_stats(ns);
                let _ = writeln!(
                    out,
                    "cache ns={} tenant={} puts={} put_bytes={} evictions={} \
                     collected={} live_objects={} live_bytes={}",
                    ns,
                    id,
                    n.puts,
                    n.put_bytes,
                    n.evictions,
                    n.collected,
                    n.live_objects,
                    n.live_bytes
                );
            }
        }
        if let Some(clock) = self.shared.clock() {
            let _ = writeln!(
                out,
                "clock seconds={:.6} advances={}",
                clock.seconds(),
                clock.advances()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, DispatchFaultPlan};
    use crate::tenant::RateLimit;
    use slider_mapreduce::{EventTimeConfig, ExecMode};

    /// Tiny word-count app so the service tests need no other crate.
    #[derive(Clone, Default)]
    struct Count;

    impl MapReduceApp for Count {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = u64;

        fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
            for token in line.split_whitespace() {
                emit(token.to_string(), 1);
            }
        }

        fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 {
            a + b
        }

        fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
            parts.iter().copied().sum()
        }
    }

    fn event() -> EventTimeConfig {
        EventTimeConfig {
            epoch_len: 10,
            records_per_split: 2,
            window_epochs: Some(2),
            lateness: 0,
        }
    }

    fn spec(name: &str) -> TenantSpec {
        TenantSpec::new(name, ExecMode::slider_folding(), event()).with_partitions(2)
    }

    fn stamped(time: u64, seq: u64, line: &str) -> Stamped<String> {
        Stamped::new(time, seq, line.to_string())
    }

    #[test]
    fn register_ingest_query_deregister_roundtrip() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        let id = service.register(Count, spec("alpha")).unwrap();
        assert_eq!(service.tenant_id("alpha"), Some(id));

        let out = service
            .ingest(
                id,
                0,
                vec![
                    stamped(0, 0, "a b"),
                    stamped(5, 1, "b"),
                    stamped(12, 2, "c"),
                    stamped(25, 3, "a"),
                ],
            )
            .unwrap();
        assert!(out.decision.is_admitted());
        assert!(!out.runs.is_empty(), "closed epochs must run");

        let view = service.query(id).unwrap();
        assert_eq!(view.watermark, Some(25));
        assert!(view.output.contains_key("a"));

        let report = service.deregister(id).unwrap();
        assert_eq!(report.name, "alpha");
        assert_eq!(report.stats.records_admitted, 4);
        assert!(report.stats.runs >= out.runs.len() as u64);
        // Closing drained epoch 2 into the 2-epoch window, evicting
        // epoch 0 (and with it the first "a" and both "b"s).
        assert_eq!(report.output.get("a"), Some(&1));
        assert_eq!(report.output.get("b"), None);
        assert_eq!(report.output.get("c"), Some(&1));
        assert!(service.query(id).is_err(), "gone after deregistration");
        assert_eq!(service.serve_stats().tenants_deregistered, 1);
    }

    #[test]
    fn duplicate_and_invalid_specs_are_rejected() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        service.register(Count, spec("alpha")).unwrap();
        assert!(matches!(
            service.register(Count, spec("alpha")),
            Err(ServeError::DuplicateTenant(_))
        ));
        assert!(matches!(
            service.register(Count, spec("")),
            Err(ServeError::BadSpec(_))
        ));
        assert!(matches!(
            service.register(
                Count,
                TenantSpec::new("rot", ExecMode::slider_rotating(false), event())
            ),
            Err(ServeError::BadSpec(_))
        ));
        assert!(matches!(
            service.register(
                Count,
                spec("limited").with_rate_limit(RateLimit::new(0, 10))
            ),
            Err(ServeError::BadSpec(_))
        ));
    }

    #[test]
    fn rejected_requests_do_not_touch_the_window() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        let id = service
            .register(
                Count,
                spec("alpha")
                    .with_rate_limit(RateLimit::new(1, 100))
                    .with_max_request_records(8),
            )
            .unwrap();
        assert!(service
            .ingest(id, 0, vec![stamped(0, 0, "a")])
            .unwrap()
            .decision
            .is_admitted());
        let bounced = service.ingest(id, 1, vec![stamped(1, 1, "b")]).unwrap();
        assert!(matches!(bounced.decision, Decision::RateLimited { .. }));
        assert!(bounced.runs.is_empty());
        let view = service.query(id).unwrap();
        assert_eq!(
            view.watermark,
            Some(0),
            "the rejected record never reached the feeder"
        );
        let stats = service.tenant_stats(id).unwrap();
        assert_eq!((stats.admitted, stats.rate_limited), (1, 1));
    }

    #[test]
    fn serve_stats_reconcile_with_per_run_stats() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        let a = service.register(Count, spec("alpha")).unwrap();
        let b = service.register(Count, spec("bravo")).unwrap();
        let mut runs = Vec::new();
        for (i, id) in [(0u64, a), (1, b), (2, a), (3, b)] {
            let records = (0..6)
                .map(|j| stamped(i * 20 + j * 4, i * 10 + j, "w x"))
                .collect();
            runs.extend(service.ingest(id, i, records).unwrap().runs);
        }
        runs.extend(service.deregister(a).unwrap().final_runs);
        runs.extend(service.deregister(b).unwrap().final_runs);

        let mut expected = ServeStats::default();
        for run in &runs {
            expected.absorb(run);
        }
        let got = service.serve_stats();
        assert_eq!(
            (got.runs, got.work_foreground, got.work_grand),
            (expected.runs, expected.work_foreground, expected.work_grand),
            "the roll-up is the exact fold of every run the engine reported"
        );
    }

    #[test]
    fn scripted_faults_within_the_retry_budget_recover_transparently() {
        let shared = EngineShared::builder().clock().build();
        let mut service = ServiceRuntime::new(shared);
        let id = service
            .register(
                Count,
                // Default policy: 2 retries, so 2 failing attempts recover.
                spec("flaky")
                    .with_breaker(BreakerConfig::default())
                    .with_dispatch_faults(DispatchFaultPlan::new().fail(0, 2)),
            )
            .unwrap();
        let out = service.ingest(id, 0, vec![stamped(0, 0, "a"), stamped(15, 1, "b")]);
        let out = out.unwrap();
        assert!(out.decision.is_admitted());
        assert!(!out.runs.is_empty(), "the recovered dispatch ran");
        let stats = service.tenant_stats(id).unwrap();
        assert_eq!(stats.dispatch_retries, 2);
        assert_eq!(stats.dispatch_failures, 0);
        // Each retry charged deterministic backoff to the shared clock:
        // 0.05 × 2 + 0.05 × 4.
        let clock = service.shared().clock().unwrap();
        assert!(clock.seconds() >= 0.3 - 1e-9);
        assert!(clock.advances() >= 2);
    }

    #[test]
    fn exhausted_faults_trip_the_breaker_and_quarantine_the_tenant() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        let breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 10,
            ..BreakerConfig::default()
        };
        let id = service
            .register(
                Count,
                spec("faulty")
                    .with_breaker(breaker)
                    // 3 failing attempts > 2 retries: both dispatches fail.
                    .with_dispatch_faults(DispatchFaultPlan::new().fail(0, 9).fail(1, 9)),
            )
            .unwrap();
        assert!(matches!(
            service.ingest(id, 0, vec![stamped(0, 0, "a")]),
            Err(ServeError::Job(JobError::Injected(_)))
        ));
        assert!(matches!(
            service.ingest(id, 1, vec![stamped(1, 1, "b")]),
            Err(ServeError::Job(JobError::Injected(_)))
        ));
        let stats = service.tenant_stats(id).unwrap();
        assert_eq!(stats.dispatch_failures, 2);
        assert_eq!(stats.breaker_trips, 1, "second failure tripped it");

        // Open: requests bounce without touching the window.
        let bounced = service.ingest(id, 5, vec![stamped(5, 2, "c")]).unwrap();
        assert!(matches!(
            bounced.decision,
            Decision::BreakerOpen { remaining: 6 }
        ));
        assert_eq!(service.query(id).unwrap().watermark, None);

        // Cool-down elapsed: the half-open probe passes and closes it.
        let probe = service.ingest(id, 11, vec![stamped(11, 3, "d")]).unwrap();
        assert!(probe.decision.is_admitted());
        let healthy = service.ingest(id, 12, vec![stamped(12, 4, "e")]).unwrap();
        assert!(healthy.decision.is_admitted());
        assert!(service.health().contains("breaker=closed:0"));
    }

    #[test]
    fn overload_sheds_lowest_priority_first_and_deadline_bounces_big_requests() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build())
            .with_overload(OverloadConfig::new(4, 100))
            .unwrap();
        let low = service
            .register(Count, spec("low").with_priority(0))
            .unwrap();
        let high = service
            .register(
                Count,
                spec("high").with_priority(200).with_pressure_budget(2),
            )
            .unwrap();

        // Fill the gauge past the limit.
        let records: Vec<_> = (0..6).map(|j| stamped(j * 30, j, "x")).collect();
        assert!(service
            .ingest(high, 0, records)
            .unwrap()
            .decision
            .is_admitted());

        // Under pressure: the low-priority tenant is shed...
        let shed = service.ingest(low, 1, vec![stamped(200, 10, "y")]).unwrap();
        assert!(matches!(shed.decision, Decision::Shed { priority: 0, .. }));
        // ...the high-priority tenant's oversized request bounces on its
        // deadline budget...
        let big: Vec<_> = (0..3).map(|j| stamped(210 + j, 20 + j, "z")).collect();
        let bounced = service.ingest(high, 2, big).unwrap();
        assert!(matches!(
            bounced.decision,
            Decision::DeadlineExceeded { budget: 2, got: 3 }
        ));
        // ...but its small requests still flow.
        let ok = service
            .ingest(high, 3, vec![stamped(220, 30, "w")])
            .unwrap();
        assert!(ok.decision.is_admitted());

        let s = service.serve_stats();
        assert_eq!((s.shed, s.deadline_exceeded), (1, 1));
        assert_eq!(
            s.requests,
            s.admitted + s.shed + s.deadline_exceeded,
            "every request is accounted to exactly one counter"
        );
        assert!(service.metrics().contains("overload limit=4 window=100"));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_mid_stream() {
        let build = || {
            let shared = EngineShared::builder()
                .cache(slider_dcache::CacheConfig::paper_defaults(2))
                .clock()
                .build();
            let mut service = ServiceRuntime::new(shared)
                .with_overload(OverloadConfig::new(1_000, 100))
                .unwrap();
            let a = service.register(Count, spec("alpha")).unwrap();
            let b = service
                .register(
                    Count,
                    spec("bravo").with_rate_limit(RateLimit::new(8, 1_000)),
                )
                .unwrap();
            (service, a, b)
        };
        let prefix = |service: &mut ServiceRuntime<Count>, a: TenantId, b: TenantId| {
            for i in 0..4u64 {
                let recs = vec![
                    stamped(i * 12, i * 2, "a b"),
                    stamped(i * 12 + 6, i * 2 + 1, "c"),
                ];
                service.ingest(a, i, recs).unwrap();
                service
                    .ingest(b, i, vec![stamped(i * 9, 100 + i, "d e f")])
                    .unwrap();
            }
        };
        let suffix = |service: &mut ServiceRuntime<Count>, a: TenantId, b: TenantId| {
            for i in 4..8u64 {
                let recs = vec![
                    stamped(i * 12, i * 2, "a b"),
                    stamped(i * 12 + 6, i * 2 + 1, "c"),
                ];
                service.ingest(a, i, recs).unwrap();
                service
                    .ingest(b, i, vec![stamped(i * 9, 100 + i, "d e f")])
                    .unwrap();
            }
        };

        // The uninterrupted twin.
        let (mut straight, a, b) = build();
        prefix(&mut straight, a, b);
        suffix(&mut straight, a, b);

        // The crashed twin: checkpoint mid-stream, restore onto a fresh
        // engine, replay the remainder.
        let (mut crashed, a2, b2) = build();
        assert_eq!((a2, b2), (a, b));
        prefix(&mut crashed, a, b);
        let snap = crashed.snapshot();
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.tenant_count(), 2);
        drop(crashed);
        let fresh = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .clock()
            .build();
        let mut restored = ServiceRuntime::restore(fresh, &snap).unwrap();
        suffix(&mut restored, a, b);

        for id in [a, b] {
            assert_eq!(
                restored.query(id).unwrap().output,
                straight.query(id).unwrap().output
            );
            assert_eq!(
                format!("{:?}", restored.query(id).unwrap().event),
                format!("{:?}", straight.query(id).unwrap().event)
            );
            assert_eq!(
                restored.tenant_stats(id).unwrap(),
                straight.tenant_stats(id).unwrap()
            );
        }
        assert_eq!(restored.serve_stats(), straight.serve_stats());
        assert_eq!(restored.health(), straight.health());
        assert_eq!(restored.metrics(), straight.metrics());
        // The snapshot manifest itself is byte-stable: the same logical
        // point renders identically from either twin.
        assert!(!restored.snapshot().describe().is_empty());
        assert_eq!(straight.snapshot().describe(), {
            let (mut again, a3, b3) = build();
            prefix(&mut again, a3, b3);
            suffix(&mut again, a3, b3);
            again.snapshot().describe()
        });
    }

    #[test]
    fn restore_rejects_version_mismatch_and_missing_engine_parts() {
        let mut service = ServiceRuntime::new(EngineShared::builder().clock().build());
        service.register(Count, spec("alpha")).unwrap();
        let snap = service.snapshot().with_version(99);
        assert!(matches!(
            ServiceRuntime::<Count>::restore(EngineShared::builder().clock().build(), &snap),
            Err(ServeError::SnapshotVersion {
                expected: SNAPSHOT_VERSION,
                got: 99
            })
        ));
        // Same snapshot at the right version, but onto a clockless engine.
        let snap = service.snapshot();
        assert!(matches!(
            ServiceRuntime::<Count>::restore(EngineShared::builder().build(), &snap),
            Err(ServeError::Snapshot(_))
        ));
    }

    #[test]
    fn empty_service_renders_a_stable_zero_tenant_document() {
        let mut service = ServiceRuntime::new(EngineShared::builder().build());
        let id = service.register(Count, spec("alpha")).unwrap();
        service
            .ingest(id, 0, vec![stamped(0, 0, "a b"), stamped(15, 1, "c")])
            .unwrap();
        service.deregister(id).unwrap();

        let health = service.health();
        let metrics = service.metrics();
        assert!(health.starts_with("service tenants=0 "));
        assert_eq!(health.lines().count(), 1, "no tenant lines remain");
        assert!(metrics.contains("tenants_active=0"));
        assert!(metrics.contains("tenants_deregistered=1"));
        // The roll-up survives the departure; renders stay byte-stable.
        assert!(metrics.contains("requests total=1 admitted=1"));
        assert_eq!(service.health(), health);
        assert_eq!(service.metrics(), metrics);
        // And the empty service still snapshots and restores cleanly.
        let snap = service.snapshot();
        assert_eq!(snap.tenant_count(), 0);
        let restored =
            ServiceRuntime::<Count>::restore(EngineShared::builder().build(), &snap).unwrap();
        assert_eq!(restored.health(), health);
        assert_eq!(restored.metrics(), metrics);
    }

    #[test]
    fn metrics_and_health_render_deterministically() {
        let render = || {
            let mut service = ServiceRuntime::new(EngineShared::builder().build());
            let id = service.register(Count, spec("alpha")).unwrap();
            service
                .ingest(id, 0, vec![stamped(0, 0, "a b"), stamped(15, 1, "c")])
                .unwrap();
            (service.health(), service.metrics())
        };
        let (h1, m1) = render();
        let (h2, m2) = render();
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
        assert!(h1.contains("ok tenant=alpha"));
        assert!(m1.contains("tenant id=1 name=alpha"));
    }
}
