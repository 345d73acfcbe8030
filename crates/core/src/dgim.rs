//! DGIM exponential-histogram sliding-window counter.
//!
//! Counts how many events fell inside the last `window` time units using
//! O((1/ε) · log² N) space instead of remembering every event, at the cost
//! of a bounded relative error ε on the estimate (Datar, Gionis, Indyk,
//! Motwani — "Maintaining stream statistics over sliding windows",
//! SODA 2002).
//!
//! The structure keeps *buckets* of power-of-two event counts, newest
//! first. Each bucket records the timestamp of its most recent event, and
//! bucket sizes are non-decreasing with age. At most `k` buckets of each
//! size are retained: when a `(k + 1)`-th accumulates, the two **oldest**
//! of that size merge into one bucket of twice the size. Buckets whose
//! timestamp has slid out of the window expire wholesale.
//!
//! Only the oldest retained bucket is uncertain — it straddles the window
//! boundary, so anywhere from one to all of its events may still be in
//! range. The estimate counts half of it, which bounds the relative error
//! by `1 / (k - 1)`; [`SlidingWindowCounter::new`] picks
//! `k = ⌈1/ε⌉ + 1` so the estimate is within a `(1 ± ε)` factor of the
//! true count.
//!
//! The counter is fully deterministic — same event sequence, same buckets,
//! same estimates — which is what lets `slider-serve` use it for
//! reproducible per-tenant rate limiting.

use std::collections::VecDeque;

/// One DGIM bucket: `size` events (a power of two), the newest of which
/// happened at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    /// Timestamp of the most recent event folded into this bucket.
    time: u64,
    /// Number of events in the bucket; always a power of two.
    size: u64,
}

/// Approximate count of events in a sliding time window, with relative
/// error at most ε (see the module docs for the guarantee).
///
/// Timestamps must be fed in non-decreasing order; [`record`] clamps any
/// regressing timestamp up to the latest one seen, so a slightly jittery
/// clock degrades gracefully instead of corrupting the histogram.
///
/// A clone is an exact checkpoint: it is `==` to the original and makes
/// the same estimates, merges and expirations on any future event
/// sequence.
///
/// [`record`]: SlidingWindowCounter::record
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindowCounter {
    /// Window length in time units; an event at time `t` is in the window
    /// of a query at `now` when `t > now - window`.
    window: u64,
    /// Maximum buckets retained per size class before the two oldest merge.
    per_class: usize,
    /// Buckets, newest first. Sizes are non-decreasing from front to back.
    buckets: VecDeque<Bucket>,
    /// Latest event timestamp seen (the monotonic clamp).
    latest: u64,
}

impl SlidingWindowCounter {
    /// Creates a counter for the trailing `window` time units with
    /// relative-error bound `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0` or `epsilon` is not in `(0, 1]`.
    #[must_use]
    pub fn new(window: u64, epsilon: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        // k = ceil(1/epsilon) + 1 buckets per size class bounds the
        // relative error by 1/(k-1) <= epsilon. Avoid float ceil: for
        // epsilon in (0, 1], 1/epsilon <= 2^53 so the loop terminates
        // immediately in practice; use integer search over the recip.
        let recip = (1.0 / epsilon).ceil();
        assert!(recip.is_finite(), "epsilon too small");
        // recip >= 1 and is an integral float; convert without `as` to
        // honor the crate-wide truncation lint.
        let mut k = 1usize;
        while (k as f64) < recip {
            k += 1;
        }
        SlidingWindowCounter {
            window,
            per_class: k + 1,
            buckets: VecDeque::new(),
            latest: 0,
        }
    }

    /// The window length this counter was built with.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Maximum buckets kept per size class (`⌈1/ε⌉ + 1`).
    #[must_use]
    pub fn buckets_per_class(&self) -> usize {
        self.per_class
    }

    /// Number of live buckets — the space actually used.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Latest event timestamp recorded.
    #[must_use]
    pub fn latest(&self) -> u64 {
        self.latest
    }

    /// Records one event at `time` (clamped up to the latest timestamp
    /// seen, keeping the histogram monotone).
    pub fn record(&mut self, time: u64) {
        self.record_n(time, 1);
    }

    /// Records `n` simultaneous events at `time`.
    pub fn record_n(&mut self, time: u64, n: u64) {
        let time = time.max(self.latest);
        self.latest = time;
        self.expire(time);
        for _ in 0..n {
            self.buckets.push_front(Bucket { time, size: 1 });
            self.carry();
        }
    }

    /// Drops buckets that ended at or before `now - window`.
    fn expire(&mut self, now: u64) {
        let horizon = now.saturating_sub(self.window);
        while let Some(oldest) = self.buckets.back() {
            if oldest.time <= horizon && now >= self.window {
                self.buckets.pop_back();
            } else {
                break;
            }
        }
    }

    /// Restores the ≤ `per_class` invariant by cascading merges: whenever
    /// a size class overflows, its two oldest buckets combine into one of
    /// the next class (keeping the newer of the two timestamps).
    fn carry(&mut self) {
        let mut size = 1u64;
        loop {
            // Buckets are ordered newest-first with non-decreasing sizes,
            // so each class occupies one contiguous range.
            let start = self.buckets.iter().position(|b| b.size == size);
            let Some(start) = start else { return };
            let count = self
                .buckets
                .iter()
                .skip(start)
                .take_while(|b| b.size == size)
                .count();
            if count <= self.per_class {
                return;
            }
            // Merge the two oldest of this class (largest indices in the
            // range). The merged bucket keeps the newer timestamp — that
            // of the second-oldest — and lands at the front of the next
            // class, which is exactly where index `start + count - 2`
            // already is once the oldest is removed.
            let oldest = start + count - 1;
            let newer = start + count - 2;
            self.buckets[newer].size = size * 2;
            self.buckets.remove(oldest);
            size *= 2;
        }
    }

    /// Estimated number of events with timestamps in `(now - window, now]`:
    /// every full bucket inside the window plus half the one straddling
    /// the boundary. Within a `(1 ± ε)` factor of the true count.
    #[must_use]
    pub fn count(&self, now: u64) -> u64 {
        let (inner, straddling) = self.split(now);
        inner + straddling.div_ceil(2)
    }

    /// Smallest count consistent with the histogram: all full buckets plus
    /// one event from the straddling bucket (its newest event is in range
    /// by construction).
    #[must_use]
    pub fn lower_bound(&self, now: u64) -> u64 {
        let (inner, straddling) = self.split(now);
        inner + u64::from(straddling > 0)
    }

    /// Largest count consistent with the histogram: every retained bucket
    /// in full.
    #[must_use]
    pub fn upper_bound(&self, now: u64) -> u64 {
        let (inner, straddling) = self.split(now);
        inner + straddling
    }

    /// Sums bucket sizes for a query at `now`, splitting off the oldest
    /// in-window bucket (the only one that may straddle the boundary).
    /// Buckets wholly outside the window are skipped, not mutated, so
    /// queries never perturb the structure.
    fn split(&self, now: u64) -> (u64, u64) {
        let now = now.max(self.latest);
        let horizon = now.saturating_sub(self.window);
        let mut inner = 0u64;
        let mut straddling = 0u64;
        for bucket in &self.buckets {
            if bucket.time <= horizon && now >= self.window {
                break;
            }
            inner += straddling;
            straddling = bucket.size;
        }
        (inner, straddling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact reference: remembers every event timestamp.
    struct ExactCounter {
        window: u64,
        events: Vec<u64>,
    }

    impl ExactCounter {
        fn new(window: u64) -> Self {
            ExactCounter {
                window,
                events: Vec::new(),
            }
        }
        fn record_n(&mut self, time: u64, n: u64) {
            let time = time.max(self.events.last().copied().unwrap_or(0));
            for _ in 0..n {
                self.events.push(time);
            }
        }
        fn count(&self, now: u64) -> u64 {
            let now = now.max(self.events.last().copied().unwrap_or(0));
            let horizon = now.saturating_sub(self.window);
            self.events
                .iter()
                .filter(|&&t| t > horizon || now < self.window)
                .count() as u64
        }
    }

    #[test]
    fn empty_counter_is_zero() {
        let c = SlidingWindowCounter::new(16, 0.5);
        assert_eq!(c.count(0), 0);
        assert_eq!(c.count(1_000), 0);
        assert_eq!(c.lower_bound(9), 0);
        assert_eq!(c.upper_bound(9), 0);
        assert_eq!(c.bucket_count(), 0);
    }

    #[test]
    fn small_counts_are_exact() {
        // With fewer events than buckets-per-class, no merge ever
        // happens and every bucket holds one event: counts are exact.
        let mut c = SlidingWindowCounter::new(100, 0.5);
        for t in [1u64, 2, 3] {
            c.record(t);
        }
        assert_eq!(c.count(3), 3);
        assert_eq!(c.lower_bound(3), 3);
        assert_eq!(c.upper_bound(3), 3);
    }

    #[test]
    fn events_expire_with_the_window() {
        let mut c = SlidingWindowCounter::new(10, 0.5);
        c.record(1);
        c.record(2);
        assert_eq!(c.count(2), 2);
        // At now = 12 the horizon is 2: both events (t <= 2) are out.
        assert_eq!(c.count(12), 0);
        c.record(20);
        assert_eq!(c.count(20), 1);
        assert_eq!(c.bucket_count(), 1, "expired buckets are dropped");
    }

    #[test]
    fn early_window_keeps_time_zero_events() {
        // Before `now` reaches the window length the horizon is clamped:
        // an event at t = 0 is still inside the first window.
        let mut c = SlidingWindowCounter::new(10, 0.5);
        c.record(0);
        assert_eq!(c.count(0), 1);
        assert_eq!(c.count(9), 1);
        assert_eq!(c.count(10), 0, "t = 0 leaves at now = window");
    }

    #[test]
    fn regressing_timestamps_clamp_monotone() {
        let mut c = SlidingWindowCounter::new(100, 0.5);
        c.record(50);
        c.record(10); // clamped to 50
        assert_eq!(c.latest(), 50);
        assert_eq!(c.count(50), 2);
    }

    #[test]
    fn merges_keep_per_class_invariant() {
        let mut c = SlidingWindowCounter::new(u64::MAX, 1.0); // k+1 = 2 per class
        for t in 0..64 {
            c.record(t);
            let mut sizes: Vec<u64> = c.buckets.iter().map(|b| b.size).collect();
            for w in sizes.windows(2) {
                assert!(w[0] <= w[1], "sizes non-decreasing with age: {sizes:?}");
            }
            sizes.dedup();
            for &s in &sizes {
                let n = c.buckets.iter().filter(|b| b.size == s).count();
                assert!(n <= c.buckets_per_class(), "class {s} holds {n}");
                assert!(s.is_power_of_two());
            }
        }
        // 64 events in ~log buckets, not 64.
        assert!(c.bucket_count() <= 2 * 7);
    }

    #[test]
    fn space_is_logarithmic() {
        let mut c = SlidingWindowCounter::new(u64::MAX, 0.1);
        for t in 0..100_000u64 {
            c.record(t);
        }
        let classes = 100_000u64.ilog2() + 1;
        let cap = c.buckets_per_class() * usize::try_from(classes).unwrap();
        assert!(
            c.bucket_count() <= cap,
            "{} buckets exceeds {} (k per class × classes)",
            c.bucket_count(),
            cap
        );
    }

    #[test]
    fn deterministic_across_reruns() {
        let build = || {
            let mut c = SlidingWindowCounter::new(1_000, 0.2);
            for t in 0..5_000u64 {
                c.record_n(t / 3, 1 + t % 4);
            }
            c
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.count(5_000), b.count(5_000));
    }

    /// Checks the (1 ± ε) guarantee of `dgim` against `exact` at `now`.
    fn assert_error_bound(dgim: &SlidingWindowCounter, exact: &ExactCounter, now: u64, eps: f64) {
        let est = dgim.count(now);
        let truth = exact.count(now);
        assert!(
            dgim.lower_bound(now) <= truth && truth <= dgim.upper_bound(now),
            "true count {truth} outside [{}, {}] at now={now}",
            dgim.lower_bound(now),
            dgim.upper_bound(now),
        );
        let err = est.abs_diff(truth);
        // err <= eps * truth, checked in integers scaled by 2^32 to keep
        // the comparison exact-ish; add 1 for the half-bucket rounding.
        let bound = (eps * truth_to_f64(truth)).floor() + 1.0;
        assert!(
            truth_to_f64(err) <= bound,
            "estimate {est} vs true {truth}: error {err} exceeds ε·N + 1 = {bound} at now={now}",
        );
    }

    fn truth_to_f64(x: u64) -> f64 {
        // u64 -> f64 is lossy only above 2^53; test counts stay far below.
        assert!(x < (1u64 << 53));
        let mut acc = 0.0f64;
        let mut rem = x;
        while rem > 0 {
            let chunk = rem.min(1 << 30);
            acc += f64::from(u32::try_from(chunk).unwrap());
            rem -= chunk;
        }
        acc
    }

    proptest! {
        #[test]
        fn estimate_stays_within_epsilon(
            seed_steps in proptest::collection::vec((0u64..8, 1u64..4), 1..400),
            window in 1u64..512,
            eps_tenths in 1u32..10,
        ) {
            let eps = f64::from(eps_tenths) / 10.0;
            let mut dgim = SlidingWindowCounter::new(window, eps);
            let mut exact = ExactCounter::new(window);
            let mut now = 0u64;
            for (gap, n) in seed_steps {
                now += gap;
                dgim.record_n(now, n);
                exact.record_n(now, n);
                assert_error_bound(&dgim, &exact, now, eps);
            }
            // Probe the future too: counts decay identically.
            for probe in [now + window / 2, now + window, now + 2 * window] {
                assert_error_bound(&dgim, &exact, probe, eps);
            }
        }

        #[test]
        fn snapshot_restore_round_trips_mid_stream(
            steps in proptest::collection::vec((0u64..8, 1u64..4), 2..300),
            window in 1u64..512,
            eps_tenths in 1u32..10,
            cut_permille in 0u32..1000,
        ) {
            // Feed a prefix, checkpoint mid-stream, and drive the restored
            // counter through the suffix alongside the original: the clone
            // must be bit-identical at the cut and the pair must stay
            // `==` (same buckets, merges, expirations) ever after, while
            // the restored counter keeps honoring the (1 ± ε) envelope.
            let eps = f64::from(eps_tenths) / 10.0;
            let cut = (steps.len() * cut_permille as usize) / 1000;
            let mut original = SlidingWindowCounter::new(window, eps);
            let mut exact = ExactCounter::new(window);
            let mut now = 0u64;
            for &(gap, n) in &steps[..cut] {
                now += gap;
                original.record_n(now, n);
                exact.record_n(now, n);
            }
            let image = original.clone();
            prop_assert_eq!(&image, &image.clone(), "snapshot must be value-stable");
            let mut restored = image.clone();
            prop_assert_eq!(&restored, &original, "restore must be bit-exact");
            for &(gap, n) in &steps[cut..] {
                now += gap;
                original.record_n(now, n);
                restored.record_n(now, n);
                exact.record_n(now, n);
                prop_assert_eq!(&restored, &original, "divergence after restore");
                assert_error_bound(&restored, &exact, now, eps);
            }
            prop_assert_eq!(restored.clone(), original.clone());
        }

        #[test]
        fn bounds_bracket_the_estimate(
            times in proptest::collection::vec(0u64..2_000, 1..200),
            window in 1u64..256,
        ) {
            let mut dgim = SlidingWindowCounter::new(window, 0.3);
            let mut sorted = times.clone();
            sorted.sort_unstable();
            for &t in &sorted {
                dgim.record(t);
            }
            let now = *sorted.last().unwrap();
            prop_assert!(dgim.lower_bound(now) <= dgim.count(now));
            prop_assert!(dgim.count(now) <= dgim.upper_bound(now));
        }
    }
}
