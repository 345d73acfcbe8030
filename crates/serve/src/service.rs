//! The service runtime: tenant registry, admission, dispatch, and the
//! health/metrics surface.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use slider_cluster::SharedClock;
use slider_core::SlidingWindowCounter;
use slider_dcache::SharedCache;
use slider_mapreduce::{
    EngineShared, EventFeeder, JobConfig, JobError, MapReduceApp, RunStats, Stamped, WindowedJob,
};
use slider_trace::{seconds_to_ticks, ticks_to_seconds, SpanKind, TrackId};

use crate::admission::{AdmissionGate, Decision, OverloadConfig, DGIM_EPSILON};
use crate::breaker::CircuitBreaker;
use crate::error::ServeError;
use crate::snapshot::{ServiceSnapshot, TenantSnapshot, SNAPSHOT_VERSION};
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
    /// Everything the service keeps for the tenant besides its feeder. A
    /// snapshot clones it.
    state: TenantState,
    feeder: EventFeeder<A>,
    track: Option<TrackId>,
}

/// One tenant's service-side state. No field holds an engine handle, so a
/// clone is a self-contained checkpoint.
#[derive(Clone)]
pub(crate) struct TenantState {
    /// The registering spec, retained verbatim: it names the tenant, and
    /// the overload and dispatch paths read priority, pressure budget,
    /// fault plan and retry policy from it on every request.
    pub(crate) spec: TenantSpec,
    pub(crate) gate: AdmissionGate,
    pub(crate) breaker: Option<CircuitBreaker>,
    /// Admitted dispatches so far — the sequence number scripted
    /// [`DispatchFaultPlan`](crate::DispatchFaultPlan)s key on.
    pub(crate) dispatch_seq: u64,
    pub(crate) stats: TenantStats,
}

impl TenantState {
    /// The state of a tenant that has served no request yet.
    fn new(spec: TenantSpec) -> Self {
        TenantState {
            gate: AdmissionGate::new(&spec),
            breaker: spec.breaker.clone().map(CircuitBreaker::new),
            dispatch_seq: 0,
            stats: TenantStats::default(),
            spec,
        }
    }

    /// Books an exhausted dispatch: a failure, charged to the breaker, and
    /// a trip when this failure opens it.
    fn fail_dispatch(&mut self, arrival: u64) {
        let tripped = self.breaker.as_mut().is_some_and(|b| b.on_failure(arrival));
        self.stats.dispatch_failures += 1;
        self.stats.breaker_trips += u64::from(tripped);
    }
}

/// Folds a tenant's change since `before` into the service roll-up and
/// writes the `serve.*` counters from that change: the one writer of both.
fn book_change(
    stats: &mut ServeStats,
    shared: &EngineShared,
    before: &TenantStats,
    after: &TenantStats,
) {
    let change = after.delta_since(before);
    stats.fold(&change);
    shared.trace().with(|t| change.trace_counters(t));
}

/// The service's own state, apart from its engine and tenants. A snapshot
/// clones it.
#[derive(Clone)]
pub(crate) struct ServiceState {
    pub(crate) next_id: u64,
    pub(crate) stats: ServeStats,
    pub(crate) overload: Option<OverloadState>,
}

/// Service-wide overload state: the DGIM gauge over admitted records.
#[derive(Clone)]
pub(crate) struct OverloadState {
    pub(crate) config: OverloadConfig,
    pub(crate) gauge: SlidingWindowCounter,
    /// Highest arrival tick seen, so metrics can render the gauge
    /// estimate without a caller-supplied clock.
    pub(crate) last_arrival: u64,
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
    state: ServiceState,
    tenants: BTreeMap<TenantId, TenantEntry<A>>,
    names: BTreeMap<String, TenantId>,
}

impl<A: MapReduceApp> ServiceRuntime<A> {
    /// Creates an empty service over `shared`.
    pub fn new(shared: EngineShared) -> Self {
        ServiceRuntime {
            shared,
            state: ServiceState {
                next_id: 1,
                stats: ServeStats::default(),
                overload: None,
            },
            tenants: BTreeMap::new(),
            names: BTreeMap::new(),
        }
    }

    /// Installs service-wide overload shedding (see [`OverloadConfig`]).
    /// Builder-style; install before serving traffic.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] for a zero window.
    pub fn with_overload(mut self, config: OverloadConfig) -> Result<Self, ServeError> {
        config.validate().map_err(ServeError::BadSpec)?;
        self.state.overload = Some(OverloadState {
            gauge: SlidingWindowCounter::new(config.window, DGIM_EPSILON),
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
        let job = WindowedJob::with_shared(app, config, &self.shared)?;
        let feeder = EventFeeder::new(job, spec.event)?;
        let id = TenantId(self.state.next_id);
        self.state.next_id += 1;
        self.attach(id, feeder, TenantState::new(spec));
        self.state.stats.tenants_registered += 1;
        Ok(id)
    }

    /// Opens the tenant's trace track (`tenant:<name>`) and enters it in
    /// the registry: the step registration and restore share.
    fn attach(&mut self, id: TenantId, feeder: EventFeeder<A>, state: TenantState) {
        let track = self
            .shared
            .trace()
            .with(|t| t.track(&format!("tenant:{}", state.spec.name)));
        self.names.insert(state.spec.name.clone(), id);
        self.tenants.insert(
            id,
            TenantEntry {
                state,
                feeder,
                track,
            },
        );
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
        self.names.remove(&entry.state.spec.name);
        // The tenant is gone whether or not its drain succeeds, so both
        // outcomes count the deregistration.
        self.state.stats.tenants_deregistered += 1;
        self.shared.trace().with(|t| t.add("serve.deregistered", 1));
        let final_runs = entry.feeder.close_all()?;
        let before = entry.state.stats;
        for run in &final_runs {
            entry.state.stats.absorb(run);
        }
        book_change(
            &mut self.state.stats,
            &self.shared,
            &before,
            &entry.state.stats,
        );
        Ok(TenantReport {
            name: entry.state.spec.name,
            stats: entry.state.stats,
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
    ///
    /// The request writes only its tenant's [`TenantStats`]; the
    /// [`ServeStats`] roll-up and the `serve.*` trace counters are folded
    /// from that change once the request settles.
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
        let before = entry.state.stats;
        let decision = Self::admit(&mut entry.state, &mut self.state.overload, arrival, count);
        entry.state.stats.count(&decision, count);
        let dispatched = if decision.is_admitted() {
            Self::dispatch(&self.shared, entry, arrival, records)
        } else {
            Ok(Vec::new())
        };
        if let Some(track) = entry.track {
            let leaf = match decision {
                _ if dispatched.is_err() => "dispatch-failed",
                Decision::Admitted { .. } => "request",
                Decision::TooLarge { .. } => "reject:too-large",
                Decision::RateLimited { .. } => "reject:rate-limited",
                Decision::OverQuota { .. } => "reject:over-quota",
                Decision::BreakerOpen { .. } => "reject:breaker-open",
                Decision::DeadlineExceeded { .. } => "reject:deadline",
                Decision::Shed { .. } => "reject:shed",
            };
            self.shared
                .trace()
                .with(|t| t.leaf(track, SpanKind::Stage, leaf, count as u64));
        }
        book_change(
            &mut self.state.stats,
            &self.shared,
            &before,
            &entry.state.stats,
        );
        dispatched.map(|runs| IngestOutcome { decision, runs })
    }

    /// Steps 1–3 of [`ServiceRuntime::ingest`]: the request's admission
    /// verdict. An admitted request's records enter the overload gauge.
    fn admit(
        state: &mut TenantState,
        overload: &mut Option<OverloadState>,
        arrival: u64,
        count: usize,
    ) -> Decision {
        // 1. Circuit breaker.
        if let Some(remaining) = state.breaker.as_mut().and_then(|b| b.check(arrival)) {
            return Decision::BreakerOpen { remaining };
        }

        // 2. Overload pressure.
        let mut verdict = None;
        if let Some(overload) = overload.as_mut() {
            overload.last_arrival = overload.last_arrival.max(arrival);
            let estimate = overload.gauge.count(arrival);
            if estimate >= overload.config.record_limit {
                let overflow = estimate - overload.config.record_limit;
                if let Some(budget) = state.spec.pressure_budget {
                    if count > budget {
                        verdict = Some(Decision::DeadlineExceeded { budget, got: count });
                    }
                }
                if verdict.is_none() && u64::from(state.spec.priority) <= overflow {
                    verdict = Some(Decision::Shed {
                        priority: state.spec.priority,
                        overflow,
                    });
                }
            }
        }

        // 3. Per-tenant admission chain (skipped for overload verdicts —
        //    bounced requests must not consume rate slots or quota).
        let decision = verdict.unwrap_or_else(|| state.gate.admit(arrival, count));
        if let (true, Some(overload)) = (decision.is_admitted(), overload.as_mut()) {
            overload.gauge.record_n(arrival, count as u64);
        }
        decision
    }

    /// Step 4 of [`ServiceRuntime::ingest`]: dispatches an admitted
    /// request and folds its runs into the tenant's stats. Scripted faults
    /// fail the first `failing` attempts of the dispatch; each retry
    /// charges deterministic backoff to the shared clock before trying
    /// again.
    fn dispatch(
        shared: &EngineShared,
        entry: &mut TenantEntry<A>,
        arrival: u64,
        records: Vec<Stamped<A::Input>>,
    ) -> Result<Vec<RunStats>, ServeError> {
        let state = &mut entry.state;
        let seq = state.dispatch_seq;
        state.dispatch_seq += 1;
        let failing = state
            .spec
            .dispatch_faults
            .as_ref()
            .map_or(0, |plan| plan.failing_attempts(seq));
        if failing > 0 {
            let policy = state.spec.breaker.clone().unwrap_or_default();
            // Attempt `a` (1-based) fails while a ≤ failing; after a
            // failed attempt `a` the dispatch may retry while
            // a ≤ max_retries, and retry number `a` charges
            // backoff × multiplier(a).
            let mut attempt: u32 = 1;
            while attempt <= failing && attempt <= policy.retry.max_retries {
                state.stats.dispatch_retries += 1;
                if let Some(clock) = shared.clock() {
                    clock.advance(seconds_to_ticks(
                        policy.retry_backoff_seconds * policy.retry.backoff_multiplier(attempt),
                    ));
                }
                attempt += 1;
            }
            if attempt <= failing {
                // Retries exhausted with the fault still firing.
                state.fail_dispatch(arrival);
                return Err(ServeError::Job(JobError::Injected(format!(
                    "dispatch {seq} failed {failing} scripted attempts \
                     (retry budget {})",
                    policy.retry.max_retries
                ))));
            }
        }
        entry.feeder.ingest(records);
        let runs = entry.feeder.flush().map_err(|e| {
            // A real dispatch failure charges the breaker exactly like an
            // injected one.
            state.fail_dispatch(arrival);
            ServeError::from(e)
        })?;
        if let Some(breaker) = state.breaker.as_mut() {
            breaker.on_success();
        }
        for run in &runs {
            state.stats.absorb(run);
        }
        Ok(runs)
    }

    /// Captures a deep, versioned checkpoint of the whole service: the
    /// service's own state and every tenant's state and feeder checkpoint,
    /// each a clone, plus the shared engine's mutable state (clock, cache
    /// contents, namespace watermark). See [`ServiceSnapshot`]. The
    /// capture is a value that holds no handle to this engine — restoring
    /// borrows it, so one snapshot can seed many resumed twins.
    #[must_use]
    pub fn snapshot(&self) -> ServiceSnapshot<A> {
        ServiceSnapshot {
            version: SNAPSHOT_VERSION,
            clock: self.shared.clock().map(SharedClock::snapshot),
            cache: self.shared.cache().map(SharedCache::snapshot_cache),
            namespace_watermark: self.shared.namespace_watermark(),
            service: self.state.clone(),
            tenants: self
                .tenants
                .iter()
                .map(|(id, entry)| TenantSnapshot {
                    id: *id,
                    state: entry.state.clone(),
                    feeder: entry.feeder.checkpoint(),
                })
                .collect(),
        }
    }

    /// Resumes a service from `snapshot` onto `shared` — typically a
    /// fresh engine standing in for a restarted process. Every check comes
    /// first: the version, the engine parts the snapshot needs, and every
    /// tenant's job. Only then does the restore write the engine — the
    /// simulated clock, the memoization cache contents and the namespace
    /// watermark — and attach every tenant (in id order, so trace tracks
    /// are recreated deterministically) with a clone of its captured
    /// state, exactly where the capture left it.
    ///
    /// # Errors
    ///
    /// A failed restore leaves `shared` untouched.
    ///
    /// * [`ServeError::SnapshotVersion`] when the snapshot carries a
    ///   different format version.
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
        if snapshot.clock.is_some() && shared.clock().is_none() {
            return Err(ServeError::Snapshot(
                "snapshot carries a simulated clock but the engine has none".into(),
            ));
        }
        if snapshot.cache.is_some() && shared.cache().is_none() {
            return Err(ServeError::Snapshot(
                "snapshot carries cache contents but the engine has no cache".into(),
            ));
        }
        let feeders = snapshot
            .tenants
            .iter()
            .map(|t| EventFeeder::restore_with_shared(&t.feeder, &shared))
            .collect::<Result<Vec<_>, _>>()?;

        if let (Some(clock), Some(target)) = (snapshot.clock, shared.clock()) {
            target.restore(clock);
        }
        if let (Some(cache), Some(target)) = (&snapshot.cache, shared.cache()) {
            let mut cache = cache.clone();
            cache.attach_trace(shared.trace().clone());
            target.restore_cache(cache);
        }
        shared.restore_namespace_watermark(snapshot.namespace_watermark);
        let mut service = Self::new(shared);
        service.state = snapshot.service.clone();
        for (t, feeder) in snapshot.tenants.iter().zip(feeders) {
            service.attach(t.id, feeder, t.state.clone());
        }
        service.shared.trace().with(|t| t.add("serve.restored", 1));
        Ok(service)
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
            .map(|(id, e)| (*id, e.state.spec.name.as_str()))
            .collect()
    }

    /// A tenant's folded statistics.
    pub fn tenant_stats(&self, id: TenantId) -> Result<&TenantStats, ServeError> {
        self.tenants
            .get(&id)
            .map(|e| &e.state.stats)
            .ok_or(ServeError::UnknownTenant(id.0))
    }

    /// The service-wide roll-up (includes deregistered tenants).
    pub fn serve_stats(&self) -> &ServeStats {
        &self.state.stats
    }

    /// The health endpoint: one line per tenant, in id order. A tenant is
    /// `ok` when its job is live; the service line leads with totals.
    pub fn health(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "service tenants={} requests={} runs={}",
            self.tenants.len(),
            self.state.stats.requests,
            self.state.stats.runs
        );
        if let Some(o) = &self.state.overload {
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
                entry.state.spec.name,
                id,
                watermark,
                entry.feeder.window_epochs().len(),
                entry.feeder.buffered_records()
            );
            if let Some(breaker) = &entry.state.breaker {
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
        let s = &self.state.stats;
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
        if let Some(o) = &self.state.overload {
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
            let t = &entry.state.stats;
            let _ = write!(
                out,
                "tenant id={} name={} requests={} admitted={} rate_limited={} \
                 over_quota={} too_large={} breaker_open={} shed={} \
                 deadline_exceeded={} dispatch_failures={} records={} runs={} \
                 work_fg={} work_grand={} footprint={}",
                id,
                entry.state.spec.name,
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
            if let Some(breaker) = &entry.state.breaker {
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
                ticks_to_seconds(clock.ns()),
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
    use slider_mapreduce::{EventTimeConfig, ExecMode, SimulationConfig};

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
    fn a_failed_drain_still_counts_the_deregistration() {
        // The plan fails run #2, the drain's first.
        let trace = slider_trace::TraceSink::enabled();
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .faults(slider_mapreduce::JobFaultPlan::none().fail_run(2))
            .trace(trace.clone())
            .build();
        let mut service = ServiceRuntime::new(shared);
        let id = service.register(Count, spec("alpha")).unwrap();
        let out = service
            .ingest(
                id,
                0,
                vec![stamped(0, 0, "a"), stamped(12, 1, "b"), stamped(25, 2, "c")],
            )
            .unwrap();
        assert_eq!(out.runs.len(), 2, "epochs 0 and 1 closed");
        assert!(service.deregister(id).is_err(), "the drain's run fails");
        assert!(service.query(id).is_err(), "gone either way");
        assert_eq!(service.serve_stats().tenants_deregistered, 1);
        let snap = trace.snapshot().expect("trace enabled");
        assert_eq!(snap.counter("serve.deregistered"), 1);
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
        let mut sim = SimulationConfig::paper_defaults();
        sim.cluster.cost.task_startup_seconds = f64::NAN;
        assert!(matches!(
            service.register(Count, spec("timed").with_simulation(sim)),
            Err(ServeError::Job(JobError::BadConfig(_)))
        ));
    }

    #[test]
    fn a_default_plan_naming_an_unknown_shared_cache_node_is_rejected() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .faults(slider_mapreduce::JobFaultPlan::none().fail_cache_node(2, 99))
            .build();
        let mut service = ServiceRuntime::new(shared);
        let err = service.register(Count, spec("alpha")).unwrap_err();
        assert!(
            matches!(err, ServeError::Job(JobError::BadConfig(ref m)) if m.contains("n99")),
            "{err}"
        );
    }

    #[test]
    fn a_rejected_tenant_allocates_no_namespace() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .build();
        let mut service = ServiceRuntime::new(shared);
        let mut sim = SimulationConfig::paper_defaults();
        sim.cluster.cost.task_startup_seconds = f64::NAN;
        assert!(service
            .register(Count, spec("timed").with_simulation(sim))
            .is_err());
        assert_eq!(service.shared().namespace_watermark(), 1);
        let mut epochless = spec("epochless");
        epochless.event.epoch_len = 0;
        assert!(matches!(
            service.register(Count, epochless),
            Err(ServeError::Job(JobError::BadConfig(_)))
        ));
        assert_eq!(service.shared().namespace_watermark(), 1);
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

        let mut expected = TenantStats::default();
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
        assert!(clock.ns() >= 300_000_000);
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
    fn a_failed_restore_leaves_the_target_engine_untouched() {
        let shared = EngineShared::builder()
            .cache(slider_dcache::CacheConfig::paper_defaults(2))
            .clock()
            .build();
        let mut service = ServiceRuntime::new(shared);
        let id = service
            .register(
                Count,
                spec("alpha").with_simulation(SimulationConfig::paper_defaults()),
            )
            .unwrap();
        service
            .ingest(id, 0, vec![stamped(0, 0, "a b"), stamped(25, 1, "c")])
            .unwrap();
        let snap = service.snapshot();
        assert!(service.shared().clock().unwrap().advances() > 0);

        // The target has a clock but no cache: the restore must fail
        // before it writes anything.
        let target = EngineShared::builder().clock().build();
        assert!(matches!(
            ServiceRuntime::restore(target.clone(), &snap),
            Err(ServeError::Snapshot(_))
        ));
        let clock = target.clock().unwrap();
        assert_eq!((clock.ns(), clock.advances()), (0, 0));
        assert_eq!(target.namespace_watermark(), 1);
    }

    #[test]
    fn a_restored_service_is_detached_from_its_source_engine() {
        let engine = || {
            let trace = slider_trace::TraceSink::enabled();
            let shared = EngineShared::builder()
                .cache(slider_dcache::CacheConfig::paper_defaults(2))
                .clock()
                .trace(trace.clone())
                .build();
            (shared, trace)
        };
        let build = |shared: EngineShared| {
            let mut service = ServiceRuntime::new(shared)
                .with_overload(OverloadConfig::new(1_000, 100))
                .unwrap();
            let sim = SimulationConfig::paper_defaults();
            let a = service
                .register(Count, spec("alpha").with_simulation(sim.clone()))
                .unwrap();
            let b = service
                .register(
                    Count,
                    spec("bravo")
                        .with_simulation(sim)
                        .with_rate_limit(RateLimit::new(8, 1_000)),
                )
                .unwrap();
            (service, a, b)
        };
        let serve = |service: &mut ServiceRuntime<Count>, ids: [TenantId; 2], steps| {
            for i in steps {
                let recs = vec![
                    stamped(i * 12, i * 2, "a b"),
                    stamped(i * 12 + 6, i * 2 + 1, "c"),
                ];
                service.ingest(ids[0], i, recs).unwrap();
                service
                    .ingest(ids[1], i, vec![stamped(i * 9, 100 + i, "d e f")])
                    .unwrap();
            }
        };

        // The twin serves prefix and suffix without a crash.
        let (mut twin, a, b) = build(engine().0);
        serve(&mut twin, [a, b], 0..4u64);
        serve(&mut twin, [a, b], 4..8u64);

        // Engine A serves the prefix, is captured, then serves traffic the
        // capture must not see.
        let (engine_a, trace_a) = engine();
        let (mut source, _, _) = build(engine_a.clone());
        serve(&mut source, [a, b], 0..4u64);
        let snap = source.snapshot();
        serve(&mut source, [a, b], 10..13u64);
        let cache_a = engine_a.cache().unwrap();
        let clock_a = engine_a.clock().unwrap();
        let before = trace_a.snapshot().unwrap();
        let cache_before = cache_a.stats();
        let clock_before = clock_a.snapshot();

        // Engine B resumes from the capture and serves the suffix.
        let (engine_b, trace_b) = engine();
        let mut restored = ServiceRuntime::restore(engine_b, &snap).unwrap();
        serve(&mut restored, [a, b], 4..8u64);

        for id in [a, b] {
            assert_eq!(
                restored.query(id).unwrap().output,
                twin.query(id).unwrap().output
            );
            assert_eq!(
                restored.tenant_stats(id).unwrap(),
                twin.tenant_stats(id).unwrap()
            );
        }
        assert_eq!(restored.serve_stats(), twin.serve_stats());
        assert_eq!(restored.metrics(), twin.metrics());
        assert_eq!(restored.snapshot().describe(), twin.snapshot().describe());
        // B traces its own traffic...
        let b_trace = trace_b.snapshot().unwrap();
        assert_eq!(b_trace.counter("serve.requests"), 8);
        assert!(b_trace.counter("engine.map_tasks") > 0);
        // Nothing B did reached engine A.
        let after = trace_a.snapshot().unwrap();
        assert_eq!(after.counters, before.counters);
        assert_eq!(after.spans.len(), before.spans.len());
        assert_eq!(cache_a.stats(), cache_before);
        assert_eq!(clock_a.snapshot(), clock_before);
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
