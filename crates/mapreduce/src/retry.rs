//! Shared retry/backoff policy for transient-failure recovery.
//!
//! Two layers of the stack retry deterministically: the engine's
//! contraction phase retries `Unavailable` dcache reads while background
//! re-replication catches up ([`WindowedJob`](crate::WindowedJob), metered
//! in [`RecoveryStats`](crate::RecoveryStats)), and `slider-serve` retries
//! a tenant's failed request dispatch before charging its circuit breaker.
//! Both use [`RetryPolicy`]. Engine reads always use the default policy;
//! `slider-serve` tunes its own per tenant.
//!
//! Backoff is *simulated* time: attempt `n` costs
//! `base × backoff_factor^n` virtual seconds, rounded once to whole
//! nanoseconds and charged to the recovery stats and (when present) the
//! shared [`SimClock`]. Nothing ever sleeps.
//!
//! [`SimClock`]: slider_cluster::SimClock

/// Bounded-retry policy with deterministic exponential backoff.
///
/// The default (2 retries, factor 2.0) reproduces the engine's historical
/// hard-coded dcache-read behavior bit-for-bit: retry `n` backs off by
/// `2^n ×` the base delay, matching the former `1 << retries` multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Per-retry backoff growth factor; retry `n` (1-based) waits
    /// `backoff_factor^n` times the caller's base delay.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` attempts and `backoff_factor` growth.
    #[must_use]
    pub fn new(max_retries: u32, backoff_factor: f64) -> Self {
        RetryPolicy {
            max_retries,
            backoff_factor,
        }
    }

    /// Backoff multiplier for 1-based retry `attempt`:
    /// `backoff_factor^attempt`. Computed by binary exponentiation
    /// (`f64::powi`), which for integral factors like 2.0 is exact and
    /// bit-identical to the legacy `(1 << attempt)` table.
    #[must_use]
    pub fn backoff_multiplier(&self, attempt: u32) -> f64 {
        self.backoff_factor
            .powi(i32::try_from(attempt).unwrap_or(i32::MAX))
    }

    /// Checks the policy is usable: the factor must be finite and at
    /// least 1 (backoff may not shrink).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(format!(
                "retry backoff factor must be finite and >= 1, got {}",
                self.backoff_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_legacy_shift_table() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_retries, 2);
        for attempt in 1u32..=10 {
            let legacy = f64::from(1u32 << attempt);
            assert_eq!(
                policy.backoff_multiplier(attempt).to_bits(),
                legacy.to_bits(),
                "attempt {attempt} must be bit-identical to the old table"
            );
        }
    }

    #[test]
    fn validation_rejects_shrinking_or_non_finite_factors() {
        assert!(RetryPolicy::new(1, 0.5).validate().is_err());
        assert!(RetryPolicy::new(1, f64::NAN).validate().is_err());
        assert!(RetryPolicy::new(1, f64::INFINITY).validate().is_err());
        assert!(RetryPolicy::new(1, 1.0).validate().is_ok());
    }
}
