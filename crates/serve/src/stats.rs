//! Service-side statistics: per-tenant and service-wide counters that
//! reconcile bit-exactly with the per-run [`RunStats`] the engine
//! returns.
//!
//! A request or a drain writes only its tenant's [`TenantStats`], folding
//! the *deterministic* subset of [`RunStats`] — work, task and key counts,
//! byte counters — with plain integer addition, so `sum(per-run) ==
//! folded` is an exact invariant, not an approximation. The service then
//! folds the tenant's change into [`ServeStats`] and
//! `TenantStats::trace_counters` writes the `serve.*` trace counters from
//! the same change: one writer per count.

use slider_mapreduce::RunStats;
use slider_trace::Tracer;

use crate::admission::Decision;

/// Folded statistics for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests seen at the front door.
    pub requests: u64,
    /// Requests admitted and dispatched.
    pub admitted: u64,
    /// Requests bounced by the DGIM rate limiter.
    pub rate_limited: u64,
    /// Requests bounced by the lifetime record quota.
    pub over_quota: u64,
    /// Requests bounced by the per-request record cap.
    pub too_large: u64,
    /// Requests bounced by an open circuit breaker.
    pub breaker_open: u64,
    /// Requests shed under service-wide overload.
    pub shed: u64,
    /// Requests bounced by the under-pressure record budget.
    pub deadline_exceeded: u64,
    /// Admitted dispatches that failed after exhausting their retries.
    pub dispatch_failures: u64,
    /// Dispatch retries performed (backoff charged to the shared clock).
    pub dispatch_retries: u64,
    /// Times the circuit breaker tripped (Closed → Open, or a failed
    /// half-open probe re-opening it).
    pub breaker_trips: u64,
    /// Records carried by admitted requests.
    pub records_admitted: u64,
    /// Records carried by rejected requests.
    pub records_rejected: u64,
    /// Runs the tenant's job executed.
    pub runs: u64,
    /// Total foreground work across all runs.
    pub work_foreground: u64,
    /// Total work including background pre-processing.
    pub work_grand: u64,
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Splits whose map output was reused from memoization.
    pub map_reused: u64,
    /// Keys recomputed by Reduce.
    pub keys_reduced: u64,
    /// Keys whose previous output was reused untouched.
    pub keys_reused: u64,
    /// Bytes of fresh map output shuffled.
    pub shuffle_bytes: u64,
    /// Bytes of memoized state read.
    pub memo_read_bytes: u64,
    /// Memoization footprint after the most recent run.
    pub memo_footprint_bytes: u64,
}

impl TenantStats {
    /// Folds one run's metrics in.
    pub fn absorb(&mut self, run: &RunStats) {
        self.runs += 1;
        self.work_foreground += run.work.foreground_total();
        self.work_grand += run.work.grand_total();
        self.map_tasks += run.map_tasks as u64;
        self.map_reused += run.map_reused as u64;
        self.keys_reduced += run.keys_reduced as u64;
        self.keys_reused += run.keys_reused as u64;
        self.shuffle_bytes += run.shuffle_bytes;
        self.memo_read_bytes += run.memo_read_bytes;
        self.memo_footprint_bytes = run.memo_footprint_bytes;
    }

    /// Counts one front-door decision.
    pub(crate) fn count(&mut self, decision: &Decision, records: usize) {
        self.requests += 1;
        match decision {
            Decision::Admitted { .. } => {
                self.admitted += 1;
                self.records_admitted += records as u64;
            }
            Decision::RateLimited { .. } => {
                self.rate_limited += 1;
                self.records_rejected += records as u64;
            }
            Decision::OverQuota { .. } => {
                self.over_quota += 1;
                self.records_rejected += records as u64;
            }
            Decision::TooLarge { .. } => {
                self.too_large += 1;
                self.records_rejected += records as u64;
            }
            Decision::BreakerOpen { .. } => {
                self.breaker_open += 1;
                self.records_rejected += records as u64;
            }
            Decision::Shed { .. } => {
                self.shed += 1;
                self.records_rejected += records as u64;
            }
            Decision::DeadlineExceeded { .. } => {
                self.deadline_exceeded += 1;
                self.records_rejected += records as u64;
            }
        }
    }

    /// Field-wise `self - before`: the tenant's change over one request or
    /// drain. `memo_footprint_bytes` holds the last value, not a count, so
    /// the change carries `self`'s.
    pub(crate) fn delta_since(&self, before: &TenantStats) -> TenantStats {
        TenantStats {
            requests: self.requests - before.requests,
            admitted: self.admitted - before.admitted,
            rate_limited: self.rate_limited - before.rate_limited,
            over_quota: self.over_quota - before.over_quota,
            too_large: self.too_large - before.too_large,
            breaker_open: self.breaker_open - before.breaker_open,
            shed: self.shed - before.shed,
            deadline_exceeded: self.deadline_exceeded - before.deadline_exceeded,
            dispatch_failures: self.dispatch_failures - before.dispatch_failures,
            dispatch_retries: self.dispatch_retries - before.dispatch_retries,
            breaker_trips: self.breaker_trips - before.breaker_trips,
            records_admitted: self.records_admitted - before.records_admitted,
            records_rejected: self.records_rejected - before.records_rejected,
            runs: self.runs - before.runs,
            work_foreground: self.work_foreground - before.work_foreground,
            work_grand: self.work_grand - before.work_grand,
            map_tasks: self.map_tasks - before.map_tasks,
            map_reused: self.map_reused - before.map_reused,
            keys_reduced: self.keys_reduced - before.keys_reduced,
            keys_reused: self.keys_reused - before.keys_reused,
            shuffle_bytes: self.shuffle_bytes - before.shuffle_bytes,
            memo_read_bytes: self.memo_read_bytes - before.memo_read_bytes,
            memo_footprint_bytes: self.memo_footprint_bytes,
        }
    }

    /// Adds these stats to the `serve.*` request counters of `t`. A failed
    /// dispatch was admitted, so `serve.request` counts the admitted
    /// requests that did not fail.
    pub(crate) fn trace_counters(&self, t: &mut Tracer) {
        t.add("serve.requests", self.requests);
        t.add("serve.request", self.admitted - self.dispatch_failures);
        t.add("serve.reject:too-large", self.too_large);
        t.add("serve.reject:rate-limited", self.rate_limited);
        t.add("serve.reject:over-quota", self.over_quota);
        t.add("serve.reject:breaker-open", self.breaker_open);
        t.add("serve.reject:deadline", self.deadline_exceeded);
        t.add("serve.reject:shed", self.shed);
        t.add("serve.dispatch-retry", self.dispatch_retries);
        t.add("serve.dispatch-failed", self.dispatch_failures);
        t.add("serve.breaker-trip", self.breaker_trips);
    }
}

/// Service-wide roll-up: the exact sum of every tenant's folded stats,
/// including tenants that have since deregistered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Tenants ever registered.
    pub tenants_registered: u64,
    /// Tenants deregistered again.
    pub tenants_deregistered: u64,
    /// Requests seen at the front door.
    pub requests: u64,
    /// Requests admitted and dispatched.
    pub admitted: u64,
    /// Requests bounced by rate limiting.
    pub rate_limited: u64,
    /// Requests bounced by quota enforcement.
    pub over_quota: u64,
    /// Requests bounced by the per-request cap.
    pub too_large: u64,
    /// Requests bounced by open circuit breakers.
    pub breaker_open: u64,
    /// Requests shed under service-wide overload.
    pub shed: u64,
    /// Requests bounced by under-pressure record budgets.
    pub deadline_exceeded: u64,
    /// Admitted dispatches that failed after exhausting their retries.
    pub dispatch_failures: u64,
    /// Dispatch retries performed across all tenants.
    pub dispatch_retries: u64,
    /// Circuit-breaker trips across all tenants.
    pub breaker_trips: u64,
    /// Records carried by admitted requests.
    pub records_admitted: u64,
    /// Records carried by rejected requests.
    pub records_rejected: u64,
    /// Runs executed across all tenants.
    pub runs: u64,
    /// Total foreground work across all tenants' runs.
    pub work_foreground: u64,
    /// Total work including background pre-processing.
    pub work_grand: u64,
}

impl ServeStats {
    /// Folds one tenant's change (see `TenantStats::delta_since`) in.
    pub(crate) fn fold(&mut self, change: &TenantStats) {
        self.requests += change.requests;
        self.admitted += change.admitted;
        self.rate_limited += change.rate_limited;
        self.over_quota += change.over_quota;
        self.too_large += change.too_large;
        self.breaker_open += change.breaker_open;
        self.shed += change.shed;
        self.deadline_exceeded += change.deadline_exceeded;
        self.dispatch_failures += change.dispatch_failures;
        self.dispatch_retries += change.dispatch_retries;
        self.breaker_trips += change.breaker_trips;
        self.records_admitted += change.records_admitted;
        self.records_rejected += change.records_rejected;
        self.runs += change.runs;
        self.work_foreground += change.work_foreground;
        self.work_grand += change.work_grand;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_folds_exactly() {
        let mut run = RunStats::default();
        run.work.map = 10;
        run.work.reduce = 5;
        run.work.movement = 1;
        run.work.contraction_bg.work = 4;
        run.map_tasks = 3;
        run.shuffle_bytes = 100;
        run.memo_footprint_bytes = 77;

        let mut tenant = TenantStats::default();
        tenant.absorb(&run);
        tenant.absorb(&run);
        assert_eq!(tenant.runs, 2);
        assert_eq!(tenant.work_foreground, 32);
        assert_eq!(tenant.work_grand, 40);
        assert_eq!(tenant.map_tasks, 6);
        assert_eq!(tenant.shuffle_bytes, 200);
        assert_eq!(tenant.memo_footprint_bytes, 77, "footprint is last-value");

        let mut serve = ServeStats::default();
        serve.fold(&tenant.delta_since(&TenantStats::default()));
        assert_eq!(
            (serve.runs, serve.work_foreground, serve.work_grand),
            (tenant.runs, tenant.work_foreground, tenant.work_grand),
            "the roll-up folds the identical sums"
        );
        let mut later = tenant;
        later.absorb(&run);
        let change = later.delta_since(&tenant);
        assert_eq!((change.runs, change.map_tasks), (1, 3));
        assert_eq!(
            change.memo_footprint_bytes, 77,
            "footprint is not differenced"
        );
    }

    #[test]
    fn decisions_are_counted_by_kind() {
        let mut s = TenantStats::default();
        s.count(&Decision::Admitted { records: 4 }, 4);
        s.count(
            &Decision::RateLimited {
                limit: 1,
                estimate: 1,
            },
            2,
        );
        s.count(&Decision::OverQuota { quota: 1, used: 1 }, 3);
        s.count(&Decision::TooLarge { max: 1, got: 9 }, 9);
        assert_eq!(s.requests, 4);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.records_admitted, 4);
        assert_eq!(s.records_rejected, 14);
    }
}
