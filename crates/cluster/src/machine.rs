//! Worker machines: slots and relative speed.

use std::fmt;

/// Identifies a worker machine in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Static description of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Concurrent Map tasks this worker can run.
    pub map_slots: usize,
    /// Concurrent Reduce (contraction + reduce) tasks this worker can run.
    pub reduce_slots: usize,
    /// Relative execution speed; `1.0` is a healthy worker, values below
    /// `1.0` model stragglers (§6: tasks on loaded machines run slowly).
    pub speed: f64,
}

impl MachineSpec {
    /// A healthy worker with the paper-like 2 map + 2 reduce slots.
    pub fn healthy() -> Self {
        MachineSpec {
            map_slots: 2,
            reduce_slots: 2,
            speed: 1.0,
        }
    }

    /// A straggling worker running at `speed` (< 1.0) of a healthy one.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive and finite.
    pub fn straggler(speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "straggler speed must be positive"
        );
        MachineSpec {
            speed,
            ..Self::healthy()
        }
    }

    /// This worker running at `factor` of its current speed (fault-plan
    /// slowdowns compose multiplicatively with any configured straggling).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn slowed_by(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be positive"
        );
        MachineSpec {
            speed: self.speed * factor,
            ..self
        }
    }

    /// Slots available for the given kind.
    pub fn slots(&self, kind: crate::task::SlotKind) -> usize {
        match kind {
            crate::task::SlotKind::Map => self.map_slots,
            crate::task::SlotKind::Reduce => self.reduce_slots,
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::healthy()
    }
}

/// Runtime view of a machine during a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// The machine's identity.
    pub id: MachineId,
    /// Its static description.
    pub spec: MachineSpec,
}

impl Machine {
    /// True if this machine runs slower than a healthy worker.
    pub fn is_straggler(&self) -> bool {
        self.spec.speed < 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SlotKind;

    #[test]
    fn healthy_matches_paper_defaults() {
        let spec = MachineSpec::healthy();
        assert_eq!(spec.map_slots, 2);
        assert_eq!(spec.reduce_slots, 2);
        assert_eq!(spec.speed, 1.0);
        assert_eq!(spec.slots(SlotKind::Map), 2);
        assert_eq!(spec.slots(SlotKind::Reduce), 2);
    }

    #[test]
    fn straggler_is_detected() {
        let m = Machine {
            id: MachineId(3),
            spec: MachineSpec::straggler(0.25),
        };
        assert!(m.is_straggler());
        assert!(!Machine {
            id: MachineId(0),
            spec: MachineSpec::healthy()
        }
        .is_straggler());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_is_rejected() {
        let _ = MachineSpec::straggler(0.0);
    }

    #[test]
    fn slowdowns_compose_multiplicatively() {
        let spec = MachineSpec::straggler(0.5).slowed_by(0.5);
        assert_eq!(spec.speed, 0.25);
        assert_eq!(spec.map_slots, 2, "slots are unaffected");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slowdown_factor_is_rejected() {
        let _ = MachineSpec::healthy().slowed_by(0.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(MachineId(7).to_string(), "m7");
    }
}
