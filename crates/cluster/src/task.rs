//! Simulated tasks: the unit of scheduling.

use crate::machine::{Machine, MachineId};

/// Identifies a task within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Which slot pool a task occupies (MapReduce distinguishes map slots from
/// reduce slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Map-phase task.
    Map,
    /// Contraction + Reduce phase task.
    Reduce,
}

/// A schedulable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique id within the simulation.
    pub id: TaskId,
    /// Slot pool the task occupies.
    pub kind: SlotKind,
    /// Modeled compute cost in abstract work units.
    pub work: u64,
    /// Machine where the task's input (split replica or memoized state)
    /// lives; `None` if the task has no placement preference.
    pub preferred: Option<MachineId>,
    /// Bytes the task must read as input. Read locally when scheduled on
    /// `preferred`, fetched over the network otherwise.
    pub input_bytes: u64,
}

impl Task {
    /// A map task with the given work and no placement preference.
    pub fn map(id: u64, work: u64) -> Self {
        Task {
            id: TaskId(id),
            kind: SlotKind::Map,
            work,
            preferred: None,
            input_bytes: 0,
        }
    }

    /// A reduce task with the given work and no placement preference.
    pub fn reduce(id: u64, work: u64) -> Self {
        Task {
            id: TaskId(id),
            kind: SlotKind::Reduce,
            work,
            preferred: None,
            input_bytes: 0,
        }
    }

    /// Sets the preferred (data-local) machine. Builder-style.
    pub fn prefer(mut self, machine: MachineId) -> Self {
        self.preferred = Some(machine);
        self
    }

    /// Sets the input size in bytes. Builder-style.
    pub fn with_input_bytes(mut self, bytes: u64) -> Self {
        self.input_bytes = bytes;
        self
    }

    /// Re-points a preference at a machine that can never run this task —
    /// dead, or without a slot of the task's kind — to the next alive
    /// machine with such a slot (wrap-around), mirroring where the
    /// memoization layer's replicas live (`home + 1 + i`). A preference at
    /// a machine that can run the task — or no preference — is left
    /// untouched; if no machine can, the preference is also left untouched
    /// (the simulation is doomed either way and reports a deadlock).
    pub fn repoint_preference(&mut self, alive: &[bool], machines: &[Machine]) {
        let Some(MachineId(m)) = self.preferred else {
            return;
        };
        let runs = |i: usize| alive[i] && machines[i].spec.slots(self.kind) > 0;
        if m < alive.len() && runs(m) {
            return;
        }
        let n = alive.len();
        if let Some(next) = (1..=n).map(|i| (m + i) % n).find(|&i| runs(i)) {
            self.preferred = Some(MachineId(next));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    #[test]
    fn builders_compose() {
        let t = Task::map(1, 500)
            .prefer(MachineId(3))
            .with_input_bytes(64 << 20);
        assert_eq!(t.kind, SlotKind::Map);
        assert_eq!(t.preferred, Some(MachineId(3)));
        assert_eq!(t.input_bytes, 64 << 20);
        assert_eq!(t.work, 500);
    }

    #[test]
    fn reduce_has_reduce_kind() {
        assert_eq!(Task::reduce(2, 1).kind, SlotKind::Reduce);
    }

    fn machines(specs: &[MachineSpec]) -> Vec<Machine> {
        let ids = (0..).map(MachineId);
        ids.zip(specs)
            .map(|(id, &spec)| Machine { id, spec })
            .collect()
    }

    #[test]
    fn repoint_moves_to_next_alive_machine() {
        let healthy = machines(&[MachineSpec::healthy(); 4]);
        let mut t = Task::reduce(0, 1).prefer(MachineId(1));
        // Preferred machine dead, next alive is 3 (2 is dead too).
        t.repoint_preference(&[true, false, false, true], &healthy);
        assert_eq!(t.preferred, Some(MachineId(3)));
        // Wrap-around past the end.
        let mut t = Task::reduce(0, 1).prefer(MachineId(3));
        t.repoint_preference(&[true, false, false, false], &healthy);
        assert_eq!(t.preferred, Some(MachineId(0)));
    }

    #[test]
    fn repoint_skips_machines_without_a_slot_of_the_kind() {
        let no_reduce = MachineSpec {
            reduce_slots: 0,
            ..MachineSpec::healthy()
        };
        let specs = machines(&[MachineSpec::healthy(), no_reduce, no_reduce]);
        let alive = [true; 3];
        let mut t = Task::reduce(0, 1).prefer(MachineId(1));
        t.repoint_preference(&alive, &specs);
        assert_eq!(t.preferred, Some(MachineId(0)));
        // A map task may stay: machine 1 has map slots.
        let mut t = Task::map(0, 1).prefer(MachineId(1));
        t.repoint_preference(&alive, &specs);
        assert_eq!(t.preferred, Some(MachineId(1)));
    }

    #[test]
    fn repoint_leaves_alive_and_preference_free_tasks_alone() {
        let healthy = machines(&[MachineSpec::healthy(); 2]);
        let mut t = Task::reduce(0, 1).prefer(MachineId(1));
        t.repoint_preference(&[true, true], &healthy);
        assert_eq!(t.preferred, Some(MachineId(1)));
        let mut t = Task::map(0, 1);
        t.repoint_preference(&[false, false], &healthy);
        assert_eq!(t.preferred, None);
    }
}
