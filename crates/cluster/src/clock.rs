//! Shared simulated-cluster clock.
//!
//! The simulator itself is stateless — each [`simulate`](crate::simulate)
//! call reports a makespan and forgets it. A long-running service that
//! multiplexes many jobs over one simulated cluster needs the opposite: a
//! single clock that accumulates virtual time as runs complete, so
//! "cluster uptime" and per-tenant run timestamps come from one place and
//! stay identical across host thread counts.
//!
//! [`SimClock`] is that accumulator; [`SharedClock`] is the cloneable
//! handle engines hold. Virtual time is counted in integer nanoseconds and
//! only ever advances by explicit [`SharedClock::advance`] calls (there is
//! no wall-clock coupling), so a run schedule replayed with the same
//! inputs lands the clock on the same instant, whatever order the
//! advances came in.

use std::sync::{Arc, Mutex};

/// Accumulated virtual time of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimClock {
    /// Virtual nanoseconds elapsed since the cluster came up.
    pub ns: u64,
    /// Number of advances applied (one per completed run).
    pub advances: u64,
}

impl SimClock {
    /// A clock at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Advances the clock by `ns` nanoseconds of virtual time.
    pub fn advance(&mut self, ns: u64) {
        self.ns += ns;
        self.advances += 1;
    }
}

/// Cloneable handle to a [`SimClock`] shared by every job on one simulated
/// cluster. All clones advance and read the same underlying clock.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    inner: Arc<Mutex<SimClock>>,
}

impl SharedClock {
    /// A fresh shared clock at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        SharedClock::default()
    }

    /// Advances the shared clock by `ns` nanoseconds of virtual time.
    pub fn advance(&self, ns: u64) {
        self.lock().advance(ns);
    }

    /// Current virtual time in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.lock().ns
    }

    /// Number of advances applied so far.
    #[must_use]
    pub fn advances(&self) -> u64 {
        self.lock().advances
    }

    /// A point-in-time copy of the clock state.
    #[must_use]
    pub fn snapshot(&self) -> SimClock {
        *self.lock()
    }

    /// Reimposes a previously captured [`snapshot`] on this clock,
    /// overwriting the current state. Checkpoint restore uses this to put
    /// a fresh engine's clock exactly where the crashed one stood, so
    /// subsequent advances replay through the same sequence of instants.
    ///
    /// [`snapshot`]: SharedClock::snapshot
    pub fn restore(&self, state: SimClock) {
        *self.lock() = state;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimClock> {
        self.inner.lock().expect("sim clock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_accumulate() {
        let clock = SharedClock::new();
        clock.advance(1_500);
        clock.advance(2_500);
        assert_eq!(clock.ns(), 4_000);
        assert_eq!(clock.advances(), 2);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedClock::new();
        let b = a.clone();
        a.advance(3);
        assert_eq!(b.ns(), 3);
        b.advance(1);
        assert_eq!(a.snapshot(), SimClock { ns: 4, advances: 2 });
    }

    #[test]
    fn restore_reimposes_a_snapshot() {
        let crashed = SharedClock::new();
        crashed.advance(2_500);
        crashed.advance(500);
        let image = crashed.snapshot();

        let fresh = SharedClock::new();
        fresh.restore(image);
        assert_eq!(fresh.snapshot(), image);
        // Replaying the same advance lands both clocks on the same state.
        crashed.advance(1_250);
        fresh.advance(1_250);
        assert_eq!(fresh.snapshot(), crashed.snapshot());
    }
}
