//! Tenant identity and specification.

use std::collections::BTreeMap;

use slider_core::TreeKind;
use slider_mapreduce::{
    EventTimeConfig, EventTimeStats, ExecMode, MapReduceApp, RunStats, SimulationConfig,
};

use crate::breaker::{BreakerConfig, DispatchFaultPlan};
use crate::error::ServeError;
use crate::stats::TenantStats;

/// Opaque tenant handle, assigned at registration (1, 2, 3, … in
/// registration order). The tenant's cache namespace is allocated
/// separately by the shared engine; the metrics surface reports both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// DGIM-windowed request-rate limit: at most `requests` admitted requests
/// inside any trailing `window` arrival ticks, estimated within the
/// service's DGIM ε of 0.5 (at most a factor-1.5 overcount).
#[derive(Debug, Clone, PartialEq)]
pub struct RateLimit {
    /// Maximum admitted requests per trailing window.
    pub requests: u64,
    /// Width of the trailing window, in arrival ticks.
    pub window: u64,
}

impl RateLimit {
    /// A limit of `requests` per `window` ticks.
    pub fn new(requests: u64, window: u64) -> Self {
        RateLimit { requests, window }
    }
}

/// Everything the service needs to compile one tenant into an event-time
/// windowed job on the shared engine.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name; unique within a service, and the name
    /// of the tenant's trace track (`tenant:<name>`).
    pub name: String,
    /// Execution mode of the tenant's job. Fixed-width rotating trees are
    /// rejected: variable request sizes cannot guarantee the uniform
    /// epochs they require.
    pub mode: ExecMode,
    /// Reduce partitions of the tenant's job.
    pub partitions: usize,
    /// Event-time window geometry (epochs, lateness bound).
    pub event: EventTimeConfig,
    /// Optional cluster simulation for this tenant's runs; when the shared
    /// engine carries a clock, simulated makespans accumulate into it.
    pub simulation: Option<SimulationConfig>,
    /// Optional DGIM-windowed request-rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Optional lifetime record budget.
    pub record_quota: Option<u64>,
    /// Optional per-request record cap (admission control).
    pub max_request_records: Option<usize>,
    /// Shedding priority under service-wide overload: a request is shed
    /// when the admitted-record estimate exceeds the overload limit by
    /// more than this value — so *lower*-priority tenants are shed first
    /// as pressure mounts. Default 100.
    pub priority: u8,
    /// Optional per-request record budget enforced only while the
    /// service is under overload pressure ("deadline budget"): larger
    /// requests bounce with
    /// [`Decision::DeadlineExceeded`](crate::Decision::DeadlineExceeded).
    pub pressure_budget: Option<usize>,
    /// Optional circuit breaker guarding this tenant's dispatches.
    pub breaker: Option<BreakerConfig>,
    /// Optional scripted dispatch faults (chaos testing).
    pub dispatch_faults: Option<DispatchFaultPlan>,
}

impl TenantSpec {
    /// A spec with the service defaults: 8 partitions, no simulation, no
    /// limits.
    pub fn new(name: impl Into<String>, mode: ExecMode, event: EventTimeConfig) -> Self {
        TenantSpec {
            name: name.into(),
            mode,
            partitions: 8,
            event,
            simulation: None,
            rate_limit: None,
            record_quota: None,
            max_request_records: None,
            priority: 100,
            pressure_budget: None,
            breaker: None,
            dispatch_faults: None,
        }
    }

    /// Sets the reduce-partition count. Builder-style.
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Enables cluster simulation for this tenant. Builder-style.
    #[must_use]
    pub fn with_simulation(mut self, sim: SimulationConfig) -> Self {
        self.simulation = Some(sim);
        self
    }

    /// Installs a request-rate limit. Builder-style.
    #[must_use]
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// Installs a lifetime record quota. Builder-style.
    #[must_use]
    pub fn with_record_quota(mut self, quota: u64) -> Self {
        self.record_quota = Some(quota);
        self
    }

    /// Installs a per-request record cap. Builder-style.
    #[must_use]
    pub fn with_max_request_records(mut self, max: usize) -> Self {
        self.max_request_records = Some(max);
        self
    }

    /// Sets the shedding priority under overload. Builder-style.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Installs an under-pressure per-request record budget.
    /// Builder-style.
    #[must_use]
    pub fn with_pressure_budget(mut self, budget: usize) -> Self {
        self.pressure_budget = Some(budget);
        self
    }

    /// Installs a circuit breaker. Builder-style.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Installs scripted dispatch faults (chaos testing). Builder-style.
    #[must_use]
    pub fn with_dispatch_faults(mut self, plan: DispatchFaultPlan) -> Self {
        self.dispatch_faults = Some(plan);
        self
    }

    /// Validates the spec (the checks the underlying job cannot make for
    /// us) and its event-time config, before registration builds any job.
    /// Job-level config errors, the event-time config's included, surface
    /// from registration as [`ServeError::Job`].
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.name.is_empty() {
            return Err(ServeError::BadSpec("tenant name must be non-empty".into()));
        }
        self.event.validate()?;
        if let ExecMode::Slider {
            tree: TreeKind::Rotating,
            ..
        } = self.mode
        {
            return Err(ServeError::BadSpec(
                "rotating trees need uniform epochs, which variable-size \
                 requests cannot guarantee"
                    .into(),
            ));
        }
        if let Some(limit) = &self.rate_limit {
            if limit.requests == 0 {
                return Err(ServeError::BadSpec(
                    "rate limit must allow at least one request".into(),
                ));
            }
            if limit.window == 0 {
                return Err(ServeError::BadSpec("rate window must be positive".into()));
            }
        }
        if self.max_request_records == Some(0) {
            return Err(ServeError::BadSpec(
                "per-request cap must allow at least one record".into(),
            ));
        }
        if self.pressure_budget == Some(0) {
            return Err(ServeError::BadSpec(
                "pressure budget must allow at least one record".into(),
            ));
        }
        if let Some(breaker) = &self.breaker {
            breaker
                .validate()
                .map_err(|m| ServeError::BadSpec(format!("breaker: {m}")))?;
        }
        if let Some(plan) = &self.dispatch_faults {
            plan.validate()
                .map_err(|m| ServeError::BadSpec(format!("dispatch faults: {m}")))?;
        }
        Ok(())
    }
}

/// Point-in-time view of one tenant's window, readable between requests
/// while other tenants' slides are in flight.
#[derive(Debug)]
pub struct WindowView<'a, A: MapReduceApp> {
    /// The tenant's current reduced output.
    pub output: &'a BTreeMap<A::Key, A::Output>,
    /// Event-time watermark (None before the first record).
    pub watermark: Option<u64>,
    /// Closed epochs currently inside the window, oldest first.
    pub window_epochs: Vec<u64>,
    /// Records buffered ahead of the watermark (not yet in any run).
    pub buffered_records: usize,
    /// Event-time feeder counters.
    pub event: EventTimeStats,
}

/// Everything a deregistration returns: the tenant's drained state.
#[derive(Debug)]
pub struct TenantReport<A: MapReduceApp> {
    /// The tenant's name.
    pub name: String,
    /// Folded service-side statistics, final.
    pub stats: TenantStats,
    /// Event-time feeder counters, final.
    pub event: EventTimeStats,
    /// Runs executed while draining the reorder buffer and open epochs.
    pub final_runs: Vec<RunStats>,
    /// The final window output.
    pub output: BTreeMap<A::Key, A::Output>,
}
