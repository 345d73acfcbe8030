//! Per-tenant fault domains: bounded dispatch retries and a circuit
//! breaker that quarantines a persistently failing tenant without
//! touching its siblings.
//!
//! Dispatch failures are rare but must not be contagious: one tenant
//! whose job keeps erroring (or whose scripted [`DispatchFaultPlan`]
//! keeps injecting failures) may not consume service capacity forever.
//! Each tenant therefore owns an optional [`CircuitBreaker`]:
//!
//! * **Closed** — requests flow; consecutive dispatch failures are
//!   counted. A success resets the count.
//! * **Open** — after [`BreakerConfig::failure_threshold`] consecutive
//!   failures the breaker trips: every request bounces with
//!   [`Decision::BreakerOpen`](crate::Decision::BreakerOpen) until
//!   [`BreakerConfig::cooldown_ticks`] arrival ticks have passed. The
//!   cool-down is measured on the *service clock* (request arrival
//!   ticks), so it is deterministic by construction.
//! * **HalfOpen** — after the cool-down the next request is a probe: a
//!   success closes the breaker, a failure re-opens it for another full
//!   cool-down.
//!
//! Before a failure is charged, the dispatch is retried under the
//! engine-shared [`RetryPolicy`]: each retry's exponential backoff is
//! charged to the shared simulated clock (never a wall-clock sleep), so
//! the whole recovery path replays bit-identically at any thread count.

use slider_mapreduce::RetryPolicy;

/// Circuit-breaker and retry configuration for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive dispatch failures that trip the breaker.
    pub failure_threshold: u32,
    /// Arrival ticks the breaker stays open before a half-open probe.
    pub cooldown_ticks: u64,
    /// Bounded-retry policy applied to a failing dispatch before the
    /// failure is charged to the breaker.
    pub retry: RetryPolicy,
    /// Base backoff per retry, in simulated seconds; retry `n` charges
    /// `retry_backoff_seconds × retry.backoff_multiplier(n)`, rounded once
    /// to whole nanoseconds, to the shared clock (when one is configured).
    pub retry_backoff_seconds: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 16,
            retry: RetryPolicy::default(),
            retry_backoff_seconds: 0.05,
        }
    }
}

impl BreakerConfig {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.failure_threshold == 0 {
            return Err("breaker failure threshold must be at least 1".into());
        }
        if !self.retry_backoff_seconds.is_finite() || self.retry_backoff_seconds < 0.0 {
            return Err(format!(
                "retry backoff seconds must be finite and >= 0, got {}",
                self.retry_backoff_seconds
            ));
        }
        self.retry.validate()
    }
}

/// One scripted dispatch failure: the first `attempts` tries of the
/// tenant's admitted request number `request` (0-based, counted over
/// admitted dispatches only) fail with
/// [`JobError::Injected`](slider_mapreduce::JobError::Injected) before
/// reaching the feeder. With `attempts` ≤ the retry budget the request
/// recovers transparently; beyond it the dispatch fails and charges the
/// breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchFault {
    /// 0-based admitted-dispatch sequence number this fault targets.
    pub request: u64,
    /// Attempts (initial try + retries) that fail.
    pub attempts: u32,
}

/// A tenant's scripted dispatch faults, for chaos testing. Failures are
/// injected *before* the records touch the feeder, so a faulted tenant's
/// window state stays exactly what its successful dispatches built — and
/// sibling tenants are untouched by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchFaultPlan {
    /// The scripted faults, in any order.
    pub faults: Vec<DispatchFault>,
}

impl DispatchFaultPlan {
    /// An empty plan (no injected failures).
    #[must_use]
    pub fn new() -> Self {
        DispatchFaultPlan::default()
    }

    /// Scripts the first `attempts` tries of admitted dispatch `request`
    /// to fail. Builder-style.
    #[must_use]
    pub fn fail(mut self, request: u64, attempts: u32) -> Self {
        self.faults.push(DispatchFault { request, attempts });
        self
    }

    /// Failing attempts scripted for dispatch `request` (the maximum over
    /// matching entries; 0 = no fault).
    #[must_use]
    pub fn failing_attempts(&self, request: u64) -> u32 {
        self.faults
            .iter()
            .filter(|f| f.request == request)
            .map(|f| f.attempts)
            .max()
            .unwrap_or(0)
    }

    /// Validates the plan.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.faults.iter().any(|f| f.attempts == 0) {
            return Err("a dispatch fault must fail at least one attempt".into());
        }
        Ok(())
    }
}

/// The breaker's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; `failures` consecutive dispatch failures so far.
    Closed {
        /// Consecutive failures since the last success.
        failures: u32,
    },
    /// Tripped at arrival tick `since`; requests bounce until the
    /// cool-down elapses.
    Open {
        /// Arrival tick the breaker tripped at.
        since: u64,
    },
    /// Cool-down elapsed; the next request is a probe.
    HalfOpen,
}

/// Per-tenant circuit breaker (see the module docs for the state
/// machine). All transitions are driven by request arrival ticks and
/// dispatch outcomes — both deterministic — so twin services agree on
/// every state change. A clone is an exact checkpoint of the breaker.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed { failures: 0 },
        }
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Gate for a request arriving at tick `now`: `None` lets it through
    /// (Closed, or an Open breaker whose cool-down elapsed — which moves
    /// to HalfOpen and lets the probe pass); `Some(remaining)` bounces it
    /// with the ticks left in the cool-down.
    pub(crate) fn check(&mut self, now: u64) -> Option<u64> {
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => None,
            BreakerState::Open { since } => {
                let reopens = since.saturating_add(self.config.cooldown_ticks);
                if now >= reopens {
                    self.state = BreakerState::HalfOpen;
                    None
                } else {
                    Some(reopens - now)
                }
            }
        }
    }

    /// A dispatch succeeded: the breaker closes and the failure streak
    /// resets.
    pub(crate) fn on_success(&mut self) {
        self.state = BreakerState::Closed { failures: 0 };
    }

    /// A dispatch failed (after its retries were exhausted) at tick
    /// `now`. Returns `true` when this failure *trips* the breaker
    /// (Closed → Open on reaching the threshold, or a failed HalfOpen
    /// probe re-opening it).
    pub(crate) fn on_failure(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open { since: now };
                    true
                } else {
                    self.state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen | BreakerState::Open { .. } => {
                self.state = BreakerState::Open { since: now };
                true
            }
        }
    }

    /// Stable single-token rendering for health/metrics key=value lines.
    pub(crate) fn describe(&self) -> String {
        match self.state {
            BreakerState::Closed { failures } => format!("closed:{failures}"),
            BreakerState::Open { since } => format!("open:{since}"),
            BreakerState::HalfOpen => "half-open".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 10,
            ..BreakerConfig::default()
        });
        assert_eq!(b.check(0), None);
        assert!(!b.on_failure(0), "first failure does not trip");
        assert!(b.on_failure(1), "second failure trips");
        assert_eq!(b.state(), BreakerState::Open { since: 1 });
        assert_eq!(b.check(5), Some(6), "cool-down remaining is exact");
        assert_eq!(b.check(11), None, "cool-down elapsed: probe passes");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed { failures: 0 });
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 4,
            ..BreakerConfig::default()
        });
        assert!(b.on_failure(0));
        assert_eq!(b.check(4), None, "probe");
        assert!(b.on_failure(4), "failed probe counts as a trip");
        assert_eq!(b.check(7), Some(1));
        assert_eq!(b.check(8), None);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            ..BreakerConfig::default()
        });
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        assert!(!b.on_failure(2), "streak restarted after the success");
    }

    #[test]
    fn restore_resumes_mid_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 8,
            ..BreakerConfig::default()
        });
        assert!(b.on_failure(10));
        let mut twin = b.clone();
        assert_eq!(twin.check(12), b.check(12));
        assert_eq!(twin.check(18), b.check(18));
        assert_eq!(twin.state(), b.state());
    }

    #[test]
    fn fault_plans_take_the_max_over_duplicates() {
        let plan = DispatchFaultPlan::new().fail(3, 1).fail(3, 4).fail(7, 2);
        assert_eq!(plan.failing_attempts(3), 4);
        assert_eq!(plan.failing_attempts(7), 2);
        assert_eq!(plan.failing_attempts(0), 0);
        assert!(plan.validate().is_ok());
        assert!(DispatchFaultPlan::new().fail(1, 0).validate().is_err());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut cfg = BreakerConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.failure_threshold = 0;
        assert!(cfg.validate().is_err());
        let cfg = BreakerConfig {
            retry_backoff_seconds: f64::NAN,
            ..BreakerConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = BreakerConfig {
            retry: RetryPolicy::new(1, 0.25),
            ..BreakerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn descriptions_are_stable() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        assert_eq!(b.describe(), "closed:0");
        b.on_failure(9);
        assert_eq!(b.describe(), "open:9");
        b.check(100);
        assert_eq!(b.describe(), "half-open");
    }
}
