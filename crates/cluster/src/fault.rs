//! Deterministic fault plans consumed by the simulator.
//!
//! A [`FaultPlan`] describes *when* machines crash and *which* machines run
//! slow, plus how the simulator recovers: attempts killed by a crash are
//! retried on surviving machines (bounded by [`FaultPlan::max_attempts`]),
//! and — when speculation is enabled — attempts stuck on slowed machines
//! are duplicated on faster ones with the first finisher winning (the
//! paper's §6 hybrid straggler mitigation).
//!
//! Plans are plain data: the same plan against the same task stages yields
//! the same schedule, so every injected fault is fully reproducible.

/// A machine crash at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCrash {
    /// Index of the machine that dies.
    pub machine: usize,
    /// Simulated seconds (since simulation start) at which it dies.
    pub at_seconds: f64,
}

/// A machine running at a fraction of its configured speed for the whole
/// simulation (a persistent straggler).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Index of the affected machine.
    pub machine: usize,
    /// Multiplier applied to the machine's speed (`0 < factor <= 1`).
    pub factor: f64,
}

/// A deterministic fault-injection plan for one simulation.
///
/// The empty plan ([`FaultPlan::none`], also the `Default`) makes
/// [`crate::simulate_with_faults`] behave exactly like [`crate::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Machines that crash, with their crash times. A crashed machine stays
    /// dead for the rest of the simulation (across stage barriers).
    pub crashes: Vec<MachineCrash>,
    /// Machines that straggle for the whole simulation.
    pub slowdowns: Vec<Slowdown>,
    /// Attempts allowed per task (first run plus crash retries) before the
    /// simulator declares the run unrecoverable. Must be at least 1.
    pub max_attempts: u32,
    /// Speculatively duplicate attempts running on straggling machines onto
    /// faster idle ones; the first finisher wins.
    pub speculation: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no crashes, no slowdowns, no speculation.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            max_attempts: 3,
            speculation: false,
        }
    }

    /// True when the plan cannot change a simulation's behaviour.
    pub fn is_trivial(&self) -> bool {
        self.crashes.is_empty() && self.slowdowns.is_empty() && !self.speculation
    }

    /// Adds a machine crash. Builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `at_seconds` is not finite and non-negative.
    pub fn crash(mut self, machine: usize, at_seconds: f64) -> Self {
        assert!(
            at_seconds.is_finite() && at_seconds >= 0.0,
            "crash time must be finite and non-negative"
        );
        self.crashes.push(MachineCrash {
            machine,
            at_seconds,
        });
        self
    }

    /// Adds a persistent slowdown. Builder-style.
    pub fn slow(mut self, machine: usize, factor: f64) -> Self {
        self.slowdowns.push(Slowdown { machine, factor });
        self
    }

    /// Sets the per-task attempt bound. Builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1, "a task needs at least one attempt");
        self.max_attempts = attempts;
        self
    }

    /// Enables speculative re-execution of straggling attempts.
    /// Builder-style.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// A reproducible pseudo-random plan over a `machines`-worker cluster:
    /// up to two crashes within `horizon_seconds` and up to two slowdowns,
    /// all derived from `seed`. At least one machine is always spared so
    /// recovery has somewhere to run.
    pub fn seeded(seed: u64, machines: usize, horizon_seconds: f64) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(
            horizon_seconds.is_finite() && horizon_seconds > 0.0,
            "horizon must be positive"
        );
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut plan = FaultPlan::none();
        let crashes = (next(&mut state) % 3).min(machines as u64 - 1);
        let mut crashed = Vec::new();
        for _ in 0..crashes {
            let machine = usize::try_from(next(&mut state) % machines as u64)
                .expect("bounded by machine count");
            if crashed.contains(&machine) {
                continue;
            }
            crashed.push(machine);
            // Strictly inside (0, horizon).
            let frac = (1 + next(&mut state) % 998) as f64 / 1000.0;
            plan = plan.crash(machine, frac * horizon_seconds);
        }
        let slowdowns = next(&mut state) % 3;
        for _ in 0..slowdowns {
            let machine = usize::try_from(next(&mut state) % machines as u64)
                .expect("bounded by machine count");
            if crashed.contains(&machine) {
                continue;
            }
            // Factors in [0.25, 1.0).
            let factor = 0.25 + 0.75 * ((next(&mut state) % 1000) as f64 / 1000.0);
            plan = plan.slow(machine, factor);
        }
        if next(&mut state).is_multiple_of(2) {
            plan = plan.with_speculation();
        }
        plan
    }
}

/// xorshift64: a tiny deterministic generator so the cluster crate needs no
/// external randomness.
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_trivial() {
        assert!(FaultPlan::none().is_trivial());
        assert!(FaultPlan::default().is_trivial());
        assert!(!FaultPlan::none().crash(0, 1.0).is_trivial());
        assert!(!FaultPlan::none().slow(0, 0.5).is_trivial());
        assert!(!FaultPlan::none().with_speculation().is_trivial());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 8, 100.0);
        let b = FaultPlan::seeded(42, 8, 100.0);
        assert_eq!(a, b);
        // Different seeds eventually differ.
        let other = (0..32)
            .map(|s| FaultPlan::seeded(s, 8, 100.0))
            .collect::<Vec<_>>();
        assert!(other.iter().any(|p| *p != a) || !a.is_trivial());
    }

    #[test]
    fn seeded_plans_spare_a_machine() {
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed, 2, 50.0);
            assert!(plan.crashes.len() < 2, "seed {seed} kills the cluster");
            for c in &plan.crashes {
                assert!(c.machine < 2);
                assert!(c.at_seconds > 0.0 && c.at_seconds < 50.0);
            }
            for s in &plan.slowdowns {
                assert!(s.factor >= 0.25 && s.factor < 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = FaultPlan::none().with_max_attempts(0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn non_finite_crash_time_rejected() {
        let _ = FaultPlan::none().crash(0, f64::NAN);
    }
}
