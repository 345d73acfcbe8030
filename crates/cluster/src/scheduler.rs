//! Scheduling policies (paper §6) and the pending queue that applies them.
//!
//! * [`SchedulerPolicy::Vanilla`] — Hadoop's stock behaviour: Map tasks
//!   honour input-split locality when possible, Reduce tasks go to the
//!   first available machine with no regard for where memoized state lives.
//! * [`SchedulerPolicy::MemoizationAware`] — Slider's strict policy: a task
//!   with a placement preference waits for a slot on that machine so it can
//!   read memoized sub-computations locally.
//! * [`SchedulerPolicy::Hybrid`] — the straggler-mitigating variant: like
//!   the strict policy, but a task that has waited longer than a threshold
//!   migrates to any free slot, fetching its memoized data remotely.
//!
//! A stage's waiting tasks live in one [`PendingQueue`]. Besides the tasks
//! in enqueue order it keeps, per slot kind, lanes of the tasks each
//! policy asks for — all tasks, crash retries, preference-free tasks, and
//! one lane per preferred machine — so every choice is the first live
//! entry of a lane or two. Lanes are linked lists threaded through the
//! entries; a taken task stays linked and is skipped when it reaches a
//! lane's head (lazy deletion), so each entry costs O(1) per lane over the
//! stage.

use slider_trace::seconds_to_ticks;

use crate::task::{SlotKind, Task};

/// Which scheduling policy the simulator applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerPolicy {
    /// Stock Hadoop scheduling (locality for maps only).
    Vanilla,
    /// Strict memoization-aware placement (§6).
    MemoizationAware,
    /// Memoization-aware with straggler mitigation: migrate after waiting
    /// `migration_threshold` simulated seconds.
    Hybrid {
        /// Seconds a preferred task may wait before migrating.
        migration_threshold: f64,
    },
}

impl SchedulerPolicy {
    /// The hybrid policy with the default 5-second migration threshold.
    pub fn hybrid_default() -> Self {
        SchedulerPolicy::Hybrid {
            migration_threshold: 5.0,
        }
    }

    /// Checks the policy is usable: a hybrid threshold must be finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedulerPolicy::Hybrid {
                migration_threshold: t,
            } if !(t.is_finite() && t >= 0.0) => Err(format!(
                "migration_threshold must be finite and >= 0, got {t}"
            )),
            _ => Ok(()),
        }
    }
}

/// A task waiting for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    /// Stage-local index of the task, stable across retries.
    pub index: usize,
    /// Simulation time, in nanoseconds, at which the task became runnable.
    pub enqueued_at: u64,
    /// How many earlier attempts of this task were killed by machine
    /// crashes; `0` for a task's first run.
    pub attempt: u32,
}

/// The end of a lane.
const NIL: usize = usize::MAX;

/// Lane offsets within a slot kind's block of lanes: all tasks, crash
/// retries, preference-free tasks, then one lane per preferred machine.
const ALL: usize = 0;
const RETRIES: usize = 1;
const UNPREFERRED: usize = 2;
const PREFERRING: usize = 3;

/// A queued task and, for each lane it sits in, the next entry there:
/// `next[ALL]`, `next[RETRIES]`, and `next[UNPREFERRED]` for its
/// preference-free or preferred-machine lane (a task is in one of those).
#[derive(Debug, Clone, Copy)]
struct Entry {
    pending: Pending,
    taken: bool,
    next: [usize; 3],
}

/// Entries in enqueue order, linked through `next[link]`. A taken entry
/// stays linked and is skipped once it reaches the head.
#[derive(Debug, Clone, Copy)]
struct Lane {
    head: usize,
    tail: usize,
    link: usize,
}

/// The waiting tasks of one stage, indexed for every policy's choice.
///
/// Enqueue times never decrease along the queue: a stage's tasks enter at
/// its start and crash retries at their (sorted) crash times. The oldest
/// waiting task is therefore the first live entry of a lane, for the
/// hybrid policy's migration and for [`PendingQueue::oldest`] alike.
#[derive(Debug)]
pub(crate) struct PendingQueue {
    policy: SchedulerPolicy,
    /// The hybrid policy's migration threshold in nanoseconds.
    threshold: Option<u64>,
    entries: Vec<Entry>,
    /// Entries before this one are all taken.
    head: usize,
    waiting: usize,
    /// The Map block of lanes, then the Reduce block.
    lanes: Vec<Lane>,
    /// Placement-preferring tasks the hybrid policy moved off their
    /// preferred machine (Table 1 diagnostics).
    pub migrations: u64,
}

impl PendingQueue {
    /// An empty queue for a cluster of `machines` workers, with room for
    /// `capacity` tasks before it grows.
    pub fn new(policy: SchedulerPolicy, machines: usize, capacity: usize) -> Self {
        let block = (0..PREFERRING + machines).map(|offset| Lane {
            head: NIL,
            tail: NIL,
            link: offset.min(UNPREFERRED),
        });
        let threshold = match policy {
            SchedulerPolicy::Hybrid {
                migration_threshold,
            } => Some(seconds_to_ticks(migration_threshold)),
            _ => None,
        };
        PendingQueue {
            policy,
            threshold,
            entries: Vec::with_capacity(capacity),
            head: 0,
            waiting: 0,
            lanes: block.clone().chain(block).collect(),
            migrations: 0,
        }
    }

    /// Empties the queue for the next stage, keeping its allocations and
    /// its migration count.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.waiting = 0;
        self.lanes.iter_mut().for_each(|lane| lane.head = NIL);
    }

    /// Tasks still waiting.
    pub fn len(&self) -> usize {
        self.waiting
    }

    /// True when no task waits.
    pub fn is_empty(&self) -> bool {
        self.waiting == 0
    }

    /// Index of `kind`'s lane at `offset`.
    fn lane(&self, kind: SlotKind, offset: usize) -> usize {
        match kind {
            SlotKind::Map => offset,
            SlotKind::Reduce => self.lanes.len() / 2 + offset,
        }
    }

    /// Appends entry `id` to `lane`.
    fn link(&mut self, lane: usize, id: usize) {
        let Lane { head, tail, link } = self.lanes[lane];
        self.entries[id].next[link] = NIL;
        if head == NIL {
            self.lanes[lane].head = id;
        } else {
            self.entries[tail].next[link] = id;
        }
        self.lanes[lane].tail = id;
    }

    /// The first entry of `lane` not yet taken.
    fn first(&mut self, lane: usize) -> Option<usize> {
        let Lane { mut head, link, .. } = self.lanes[lane];
        while head != NIL && self.entries[head].taken {
            head = self.entries[head].next[link];
        }
        self.lanes[lane].head = head;
        (head != NIL).then_some(head)
    }

    /// Appends `pending`, whose task (`task`) decides its lanes.
    pub fn push(&mut self, pending: Pending, task: &Task) {
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|last| last.pending.enqueued_at <= pending.enqueued_at),
            "enqueue times never decrease along the queue"
        );
        self.entries.push(Entry {
            pending,
            taken: false,
            next: [NIL; 3],
        });
        self.waiting += 1;
        self.index(self.entries.len() - 1, task);
    }

    fn index(&mut self, id: usize, task: &Task) {
        self.link(self.lane(task.kind, ALL), id);
        if self.entries[id].pending.attempt > 0 {
            self.link(self.lane(task.kind, RETRIES), id);
        }
        let place = task.preferred.map_or(UNPREFERRED, |m| PREFERRING + m.0);
        self.link(self.lane(task.kind, place), id);
    }

    /// Rebuilds every lane from the waiting tasks, after a crash moved
    /// preferences (`tasks` holds each task's current preference).
    pub fn relane(&mut self, tasks: &[Task]) {
        self.lanes.iter_mut().for_each(|lane| lane.head = NIL);
        for id in self.head..self.entries.len() {
            if !self.entries[id].taken {
                self.index(id, &tasks[self.entries[id].pending.index]);
            }
        }
    }

    /// The instant from which the hybrid policy may migrate the
    /// longest-waiting task, or `None` under another policy or with no
    /// task waiting.
    pub fn next_migration(&mut self) -> Option<u64> {
        let threshold = self.threshold?;
        self.oldest().map(|p| p.enqueued_at + threshold)
    }

    /// The longest-waiting task, without taking it.
    pub fn oldest(&mut self) -> Option<Pending> {
        while self.head < self.entries.len() {
            if !self.entries[self.head].taken {
                return Some(self.entries[self.head].pending);
            }
            self.head += 1;
        }
        None
    }

    /// Takes the task the policy runs in a free `kind` slot on `machine`
    /// at `now`, or `None` to leave the slot idle until the next event.
    ///
    /// Crash retries come first under every policy and on any machine: the
    /// killed attempt's partial run is sunk cost and the stage barrier
    /// waits on the re-execution, so recovery placement trumps
    /// memoization locality.
    pub fn choose(&mut self, now: u64, machine: usize, kind: SlotKind) -> Option<Pending> {
        let [all, retries, unpreferred, local] =
            [ALL, RETRIES, UNPREFERRED, PREFERRING + machine].map(|offset| self.lane(kind, offset));
        let mut migrated = false;
        let id = self.first(retries).or_else(|| match (kind, self.policy) {
            // Map placement is Hadoop's under every policy: run a split-local
            // map if one is queued, else the oldest map.
            (SlotKind::Map, _) => self.first(local).or_else(|| self.first(all)),
            // ...but vanilla reduces go to the first available machine.
            (SlotKind::Reduce, SchedulerPolicy::Vanilla) => self.first(all),
            // Strict placement waits for the machine holding the memoized
            // state; preference-free tasks fill leftover slots.
            (SlotKind::Reduce, SchedulerPolicy::MemoizationAware) => {
                self.first(local).or_else(|| self.first(unpreferred))
            }
            // Hybrid migration: failing those, steal the longest-waiting task
            // once its preferred machine has not picked it up within the
            // threshold.
            (SlotKind::Reduce, SchedulerPolicy::Hybrid { .. }) => self
                .first(local)
                .or_else(|| self.first(unpreferred))
                .or_else(|| {
                    let oldest = self.first(all)?;
                    migrated = self.waited_out(oldest, now);
                    migrated.then_some(oldest)
                }),
        })?;
        self.migrations += u64::from(migrated);
        self.waiting -= 1;
        let entry = &mut self.entries[id];
        entry.taken = true;
        Some(entry.pending)
    }

    /// True when the hybrid policy would migrate a task at `now`: the
    /// oldest waiting reduce has waited out the threshold. Until then
    /// waiting time alone gives no machine a new candidate.
    pub fn migration_due(&mut self, now: u64) -> bool {
        let all = self.lane(SlotKind::Reduce, ALL);
        self.first(all).is_some_and(|id| self.waited_out(id, now))
    }

    /// True when entry `id` has waited out the hybrid policy's threshold
    /// at `now` (never under another policy).
    fn waited_out(&self, id: usize, now: u64) -> bool {
        self.threshold
            .is_some_and(|threshold| now >= self.entries[id].pending.enqueued_at + threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineId, MachineSpec};

    const SECOND: u64 = 1_000_000_000;

    /// A queue holding `tasks` in order, all enqueued at `at`.
    fn queue(policy: SchedulerPolicy, tasks: &[Task], at: u64) -> PendingQueue {
        let mut q = PendingQueue::new(policy, 6, tasks.len());
        for (index, task) in tasks.iter().enumerate() {
            let pending = Pending {
                index,
                enqueued_at: at,
                attempt: 0,
            };
            q.push(pending, task);
        }
        q
    }

    fn pick(q: &mut PendingQueue, now: u64, machine: usize, kind: SlotKind) -> Option<usize> {
        q.choose(now, machine, kind).map(|p| p.index)
    }

    #[test]
    fn vanilla_reduce_is_fifo() {
        let tasks = [
            Task::reduce(0, 10).prefer(MachineId(5)),
            Task::reduce(1, 10),
        ];
        let mut q = queue(SchedulerPolicy::Vanilla, &tasks, 0);
        // Machine 2 is not the preferred machine, but vanilla ignores
        // preferences for reduces and picks the first queued task.
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Reduce), Some(0));
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Reduce), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn vanilla_map_prefers_local() {
        let tasks = [
            Task::map(0, 10).prefer(MachineId(1)),
            Task::map(1, 10).prefer(MachineId(2)),
        ];
        let mut q = queue(SchedulerPolicy::Vanilla, &tasks, 0);
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Map), Some(1));
        // With no local map left, machine 2 takes the oldest one.
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Map), Some(0));
    }

    #[test]
    fn memo_aware_waits_for_preferred_machine() {
        let tasks = [Task::reduce(0, 10).prefer(MachineId(5))];
        let mut q = queue(SchedulerPolicy::MemoizationAware, &tasks, 0);
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Reduce), None);
        assert!(
            !q.migration_due(100 * SECOND),
            "strict placement never migrates"
        );
        assert_eq!(pick(&mut q, 0, 5, SlotKind::Reduce), Some(0));
    }

    #[test]
    fn memo_aware_fills_slots_with_unpreferring_tasks() {
        let tasks = [
            Task::reduce(0, 10).prefer(MachineId(5)),
            Task::reduce(1, 10),
        ];
        let mut q = queue(SchedulerPolicy::MemoizationAware, &tasks, 0);
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Reduce), Some(1));
    }

    #[test]
    fn hybrid_migrates_after_threshold() {
        let tasks = [Task::reduce(0, 10).prefer(MachineId(5))];
        let mut q = queue(SchedulerPolicy::hybrid_default(), &tasks, 0);
        // Before the threshold the task waits like the strict policy.
        assert_eq!(pick(&mut q, SECOND, 2, SlotKind::Reduce), None);
        assert!(!q.migration_due(SECOND));
        assert_eq!(q.migrations, 0);
        // After the threshold it migrates.
        assert!(q.migration_due(6 * SECOND));
        assert_eq!(pick(&mut q, 6 * SECOND, 2, SlotKind::Reduce), Some(0));
        assert_eq!(q.migrations, 1);
    }

    #[test]
    fn retried_tasks_jump_the_queue_on_any_machine() {
        // A crash-retried reduce preferring a (dead) machine 5 must run
        // immediately, even under the strict memoization-aware policy and
        // even on a non-preferred machine.
        let tasks = [
            Task::reduce(1, 10),
            Task::reduce(7, 10).prefer(MachineId(5)),
        ];
        let retried = Pending {
            index: 1,
            enqueued_at: 3 * SECOND,
            attempt: 1,
        };
        for policy in [
            SchedulerPolicy::MemoizationAware,
            SchedulerPolicy::Vanilla,
            SchedulerPolicy::hybrid_default(),
        ] {
            let mut q = queue(policy, &tasks[..1], 0);
            q.push(retried, &tasks[1]);
            assert_eq!(
                pick(&mut q, 3 * SECOND, 2, SlotKind::Reduce),
                Some(1),
                "{policy:?}"
            );
            assert_eq!(q.migrations, 0, "retry placement is not a migration");
        }
    }

    #[test]
    fn slot_kinds_are_respected() {
        let tasks = [Task::map(0, 10)];
        let mut q = queue(SchedulerPolicy::Vanilla, &tasks, 0);
        assert_eq!(pick(&mut q, 0, 0, SlotKind::Reduce), None);
        assert_eq!(pick(&mut q, 0, 0, SlotKind::Map), Some(0));
    }

    #[test]
    fn relane_follows_moved_preferences() {
        let mut tasks = vec![
            Task::reduce(0, 10).prefer(MachineId(1)),
            Task::reduce(1, 10).prefer(MachineId(3)),
        ];
        let mut q = queue(SchedulerPolicy::MemoizationAware, &tasks, 0);
        assert_eq!(pick(&mut q, 0, 3, SlotKind::Reduce), Some(1));
        // Machine 1 dies: its waiting task now prefers machine 2.
        let alive = [true, false, true, true, true, true];
        let machines: Vec<Machine> = (0..alive.len())
            .map(|m| Machine {
                id: MachineId(m),
                spec: MachineSpec::healthy(),
            })
            .collect();
        for task in &mut tasks {
            task.repoint_preference(&alive, &machines);
        }
        q.relane(&tasks);
        assert_eq!(pick(&mut q, 0, 1, SlotKind::Reduce), None);
        assert_eq!(pick(&mut q, 0, 2, SlotKind::Reduce), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn oldest_is_the_longest_waiting_task() {
        let tasks = [Task::map(0, 10), Task::reduce(1, 10).prefer(MachineId(0))];
        let mut q = queue(SchedulerPolicy::hybrid_default(), &tasks, 2 * SECOND);
        assert_eq!(q.oldest().map(|p| p.index), Some(0));
        assert_eq!(pick(&mut q, 2 * SECOND, 4, SlotKind::Map), Some(0));
        assert_eq!(q.oldest().map(|p| p.index), Some(1));
        assert_eq!(pick(&mut q, 2 * SECOND, 0, SlotKind::Reduce), Some(1));
        assert_eq!(q.oldest(), None);
    }
}
