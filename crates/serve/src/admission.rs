//! The deterministic admission chain.
//!
//! Every request passes three gates, in a fixed order, before its records
//! reach the tenant's windowed job:
//!
//! 1. **Admission control** — request-shape limits
//!    ([`TenantSpec::max_request_records`](crate::TenantSpec::max_request_records)).
//! 2. **Rate limiting** — a DGIM sliding-window counter
//!    ([`slider_core::SlidingWindowCounter`]) estimates how many requests
//!    the tenant admitted inside the trailing rate window; at or above the
//!    limit the request bounces. The estimate is approximate (within
//!    ε = 0.5) but *deterministic*: the same request sequence is accepted
//!    and rejected identically on every run.
//! 3. **Quota enforcement** — a lifetime record budget.
//!
//! Only admitted requests count toward the rate window and the quota, so
//! a rejected burst does not starve a tenant forever.

use std::fmt;

use slider_core::SlidingWindowCounter;

use crate::tenant::TenantSpec;

/// The relative error bound of every DGIM counter the service keeps (rate
/// limiters and the overload gauge): classic DGIM, at most a factor-1.5
/// overcount.
pub(crate) const DGIM_EPSILON: f64 = 0.5;

/// The front door's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The request was dispatched to the tenant's job.
    Admitted {
        /// Records handed to the event-time feeder.
        records: usize,
    },
    /// The request exceeded the per-request record cap.
    TooLarge {
        /// Configured cap.
        max: usize,
        /// Records the request carried.
        got: usize,
    },
    /// The DGIM estimate of recent admissions was at or above the limit.
    RateLimited {
        /// Configured requests-per-window limit.
        limit: u64,
        /// DGIM estimate of admissions in the trailing window.
        estimate: u64,
    },
    /// Admitting the request would exceed the lifetime record quota.
    OverQuota {
        /// Configured lifetime record budget.
        quota: u64,
        /// Records admitted so far.
        used: u64,
    },
    /// The tenant's circuit breaker is open (see
    /// [`BreakerConfig`](crate::BreakerConfig)).
    BreakerOpen {
        /// Arrival ticks left in the cool-down.
        remaining: u64,
    },
    /// Overload: the request exceeded the tenant's under-pressure record
    /// budget ([`TenantSpec::pressure_budget`](crate::TenantSpec::pressure_budget)).
    DeadlineExceeded {
        /// The configured per-request budget under pressure.
        budget: usize,
        /// Records the request carried.
        got: usize,
    },
    /// Overload: the service shed this request because the tenant's
    /// priority did not clear the current overflow (lowest-priority
    /// tenants shed first; see [`OverloadConfig`]).
    Shed {
        /// The tenant's configured priority.
        priority: u8,
        /// Admitted-record estimate above the overload limit.
        overflow: u64,
    },
}

impl Decision {
    /// True for [`Decision::Admitted`].
    pub fn is_admitted(&self) -> bool {
        matches!(self, Decision::Admitted { .. })
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Admitted { records } => write!(f, "admitted records={records}"),
            Decision::TooLarge { max, got } => write!(f, "too-large max={max} got={got}"),
            Decision::RateLimited { limit, estimate } => {
                write!(f, "rate-limited limit={limit} estimate={estimate}")
            }
            Decision::OverQuota { quota, used } => {
                write!(f, "over-quota quota={quota} used={used}")
            }
            Decision::BreakerOpen { remaining } => {
                write!(f, "breaker-open remaining={remaining}")
            }
            Decision::DeadlineExceeded { budget, got } => {
                write!(f, "deadline-exceeded budget={budget} got={got}")
            }
            Decision::Shed { priority, overflow } => {
                write!(f, "shed priority={priority} overflow={overflow}")
            }
        }
    }
}

/// Service-wide overload configuration: a DGIM gauge estimates the
/// admitted records inside the trailing `window` arrival ticks; once the
/// estimate reaches `record_limit` the service is under pressure and
/// degrades *deterministically* — requests larger than their tenant's
/// pressure budget bounce ([`Decision::DeadlineExceeded`]), and tenants
/// whose priority does not exceed the overflow are shed entirely
/// ([`Decision::Shed`]), lowest priority first.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Admitted records per trailing window before pressure sets in.
    pub record_limit: u64,
    /// Width of the trailing window, in arrival ticks.
    pub window: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::new(1024, 64)
    }
}

impl OverloadConfig {
    /// A gauge of `record_limit` records per trailing `window` ticks.
    #[must_use]
    pub fn new(record_limit: u64, window: u64) -> Self {
        OverloadConfig {
            record_limit,
            window,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("overload window must be positive".into());
        }
        Ok(())
    }
}

/// Per-tenant admission state: the DGIM limiter plus quota bookkeeping.
/// A clone is an exact checkpoint of the gate.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionGate {
    limiter: Option<(SlidingWindowCounter, u64)>,
    quota: Option<u64>,
    used: u64,
    max_request: Option<usize>,
}

impl AdmissionGate {
    /// Builds the gate for a validated spec.
    pub(crate) fn new(spec: &TenantSpec) -> Self {
        AdmissionGate {
            limiter: spec.rate_limit.as_ref().map(|limit| {
                (
                    SlidingWindowCounter::new(limit.window, DGIM_EPSILON),
                    limit.requests,
                )
            }),
            quota: spec.record_quota,
            used: 0,
            max_request: spec.max_request_records,
        }
    }

    /// Runs the chain for a request of `records` records arriving at tick
    /// `now`. Mutates the gate only when the request is admitted.
    pub(crate) fn admit(&mut self, now: u64, records: usize) -> Decision {
        if let Some(max) = self.max_request {
            if records > max {
                return Decision::TooLarge { max, got: records };
            }
        }
        if let Some((limiter, limit)) = &self.limiter {
            let estimate = limiter.count(now);
            if estimate >= *limit {
                return Decision::RateLimited {
                    limit: *limit,
                    estimate,
                };
            }
        }
        if let Some(quota) = self.quota {
            if self.used + records as u64 > quota {
                return Decision::OverQuota {
                    quota,
                    used: self.used,
                };
            }
        }
        if let Some((limiter, _)) = &mut self.limiter {
            limiter.record(now);
        }
        self.used += records as u64;
        Decision::Admitted { records }
    }

    /// Records admitted so far (quota consumption).
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// The DGIM rate limiter, if the tenant has a rate limit.
    pub(crate) fn limiter(&self) -> Option<&SlidingWindowCounter> {
        self.limiter.as_ref().map(|(counter, _)| counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::RateLimit;

    fn spec() -> TenantSpec {
        TenantSpec::new(
            "t",
            slider_mapreduce::ExecMode::slider_folding(),
            slider_mapreduce::EventTimeConfig {
                epoch_len: 10,
                records_per_split: 2,
                window_epochs: Some(2),
                lateness: 0,
            },
        )
    }

    #[test]
    fn unlimited_gate_admits_everything() {
        let mut gate = AdmissionGate::new(&spec());
        for now in 0..100 {
            assert!(gate.admit(now, 1_000).is_admitted());
        }
        assert_eq!(gate.used(), 100_000);
    }

    #[test]
    fn request_cap_is_checked_first() {
        let mut gate = AdmissionGate::new(
            &spec()
                .with_max_request_records(4)
                .with_rate_limit(RateLimit::new(1, 100))
                .with_record_quota(2),
        );
        // Oversized: rejected by the cap, not by the (also violated) quota.
        assert_eq!(gate.admit(0, 9), Decision::TooLarge { max: 4, got: 9 });
        assert_eq!(gate.used(), 0, "rejections must not consume quota");
    }

    #[test]
    fn rate_limit_counts_only_admitted_requests() {
        let mut gate = AdmissionGate::new(&spec().with_rate_limit(RateLimit::new(2, 10)));
        assert!(gate.admit(0, 1).is_admitted());
        assert!(gate.admit(1, 1).is_admitted());
        // Third request inside the window bounces...
        assert_eq!(
            gate.admit(2, 1),
            Decision::RateLimited {
                limit: 2,
                estimate: 2
            }
        );
        // ...and bouncing did not record, so the window drains on schedule.
        assert!(gate.admit(12, 1).is_admitted());
    }

    #[test]
    fn quota_is_a_lifetime_budget() {
        let mut gate = AdmissionGate::new(&spec().with_record_quota(5));
        assert!(gate.admit(0, 3).is_admitted());
        assert_eq!(gate.admit(1, 3), Decision::OverQuota { quota: 5, used: 3 });
        // A smaller request that still fits is fine.
        assert!(gate.admit(2, 2).is_admitted());
        assert_eq!(gate.admit(3, 1), Decision::OverQuota { quota: 5, used: 5 });
    }

    #[test]
    fn decisions_render_stably() {
        assert_eq!(
            Decision::RateLimited {
                limit: 2,
                estimate: 3
            }
            .to_string(),
            "rate-limited limit=2 estimate=3"
        );
        assert_eq!(
            Decision::Admitted { records: 7 }.to_string(),
            "admitted records=7"
        );
    }
}
