//! Deterministic fault plans consumed by the simulator.
//!
//! A [`FaultPlan`] describes *when* machines crash and *which* machines run
//! slow, plus how the simulator recovers: attempts killed by a crash are
//! retried on surviving machines (bounded by the plan's attempt budget,
//! [`FaultPlan::max_attempts`]), and — when speculation is enabled —
//! attempts stuck on slowed machines are duplicated on faster ones with the
//! first finisher winning (the paper's §6 hybrid straggler mitigation).
//!
//! Plans are plain data: the same plan against the same task stages yields
//! the same schedule, so every injected fault is fully reproducible. The
//! builders record what they are given; [`FaultPlan::validate`] checks every
//! setting against the cluster, and [`crate::simulate_with_faults`] asserts
//! it.

/// A machine crash at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MachineCrash {
    /// Index of the machine that dies.
    pub(crate) machine: usize,
    /// Simulated seconds (since simulation start) at which it dies.
    pub(crate) at_seconds: f64,
}

/// A machine running at a fraction of its configured speed for the whole
/// simulation (a persistent straggler).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slowdown {
    /// Index of the affected machine.
    pub(crate) machine: usize,
    /// Multiplier applied to the machine's speed (`0 < factor <= 1`).
    pub(crate) factor: f64,
}

/// A deterministic fault-injection plan for one simulation.
///
/// The empty plan ([`FaultPlan::none`], also the `Default`) makes
/// [`crate::simulate_with_faults`] behave exactly like [`crate::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Machines that crash, with their crash times. A crashed machine stays
    /// dead for the rest of the simulation (across stage barriers).
    pub(crate) crashes: Vec<MachineCrash>,
    /// Machines that straggle for the whole simulation.
    pub(crate) slowdowns: Vec<Slowdown>,
    /// Attempts allowed per task (first run plus crash retries) before the
    /// simulator declares the run unrecoverable.
    pub(crate) max_attempts: u32,
    /// Speculatively duplicate attempts running on straggling machines onto
    /// faster idle ones; the first finisher wins.
    pub(crate) speculation: bool,
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

    /// Adds a crash of `machine` at `at_seconds` of simulated time.
    /// Builder-style.
    pub fn crash(mut self, machine: usize, at_seconds: f64) -> Self {
        self.crashes.push(MachineCrash {
            machine,
            at_seconds,
        });
        self
    }

    /// Runs `machine` at `factor` times its speed. Builder-style.
    pub fn slow(mut self, machine: usize, factor: f64) -> Self {
        self.slowdowns.push(Slowdown { machine, factor });
        self
    }

    /// Sets the per-task attempt bound (3 by default). Builder-style.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Enables speculative re-execution of straggling attempts.
    /// Builder-style.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Attempts allowed per task: the first run plus crash retries.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// How many distinct machines the plan crashes. A dead machine stays
    /// dead, so each of them kills at most one attempt of a task: a plan
    /// that crashes fewer machines than [`FaultPlan::max_attempts`] and
    /// than the cluster holds lets every task finish.
    pub fn crashed_machines(&self) -> usize {
        let mut machines: Vec<usize> = self.crashes.iter().map(|c| c.machine).collect();
        machines.sort_unstable();
        machines.dedup();
        machines.len()
    }

    /// Checks every setting against a cluster of `machines` workers: each
    /// machine id below `machines`, crash times finite and non-negative,
    /// slowdown factors in `(0, 1]` and at least one attempt per task.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("a task needs at least one attempt".into());
        }
        for &MachineCrash {
            machine,
            at_seconds,
        } in &self.crashes
        {
            if machine >= machines {
                return Err(format!(
                    "crashes unknown machine m{machine} of a {machines}-machine cluster"
                ));
            }
            if !(at_seconds.is_finite() && at_seconds >= 0.0) {
                return Err(format!(
                    "crash time {at_seconds} of machine m{machine} must be finite and non-negative"
                ));
            }
        }
        for &Slowdown { machine, factor } in &self.slowdowns {
            if machine >= machines {
                return Err(format!(
                    "slows unknown machine m{machine} of a {machines}-machine cluster"
                ));
            }
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(format!(
                    "slowdown factor {factor} of machine m{machine} must be in (0, 1]"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_with_faults, ClusterSpec, SchedulerPolicy, Task};

    /// Simulates one map task on the paper cluster under `plan`.
    fn simulate_one(plan: &FaultPlan) {
        let _ = simulate_with_faults(
            &ClusterSpec::paper_cluster(),
            SchedulerPolicy::Vanilla,
            &[vec![Task::map(0, 100)]],
            plan,
        );
    }

    #[test]
    fn empty_plan_is_trivial() {
        assert!(FaultPlan::none().is_trivial());
        assert!(FaultPlan::default().is_trivial());
        assert!(!FaultPlan::none().crash(0, 1.0).is_trivial());
        assert!(!FaultPlan::none().slow(0, 0.5).is_trivial());
        assert!(!FaultPlan::none().with_speculation().is_trivial());
    }

    #[test]
    fn validation_checks_every_setting_against_the_cluster() {
        let ok = FaultPlan::none()
            .crash(1, 0.0)
            .crash(1, 2.5)
            .slow(0, 1.0)
            .slow(1, 0.25);
        assert_eq!(ok.validate(2), Ok(()));
        assert_eq!(ok.crashed_machines(), 1);
        assert_eq!(ok.max_attempts(), 3);
        for (plan, needle) in [
            (FaultPlan::none().crash(2, 1.0), "unknown machine m2"),
            (FaultPlan::none().slow(2, 0.5), "unknown machine m2"),
            (FaultPlan::none().crash(0, -1.0), "finite and non-negative"),
            (
                FaultPlan::none().crash(0, f64::NAN),
                "finite and non-negative",
            ),
            (FaultPlan::none().crash(0, f64::INFINITY), "finite"),
            (FaultPlan::none().slow(0, 0.0), "(0, 1]"),
            (FaultPlan::none().slow(0, 8.0), "(0, 1]"),
            (FaultPlan::none().slow(0, f64::NAN), "(0, 1]"),
            (
                FaultPlan::none().with_max_attempts(0),
                "at least one attempt",
            ),
        ] {
            let err = plan.validate(2).unwrap_err();
            assert!(err.contains(needle), "{plan:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        simulate_one(&FaultPlan::none().with_max_attempts(0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn non_finite_crash_time_rejected() {
        simulate_one(&FaultPlan::none().crash(0, f64::NAN));
    }
}
