//! The discrete-event list-scheduling simulator.
//!
//! Tasks are organized in *stages* with a barrier between consecutive
//! stages (MapReduce's map → shuffle → reduce structure). Within a stage,
//! whenever a slot frees up the [`SchedulerPolicy`] picks a pending task
//! for it; the task's duration follows the [`CostModel`] given the
//! machine's speed and whether the task's input is local.
//!
//! [`simulate_with_faults`] additionally consumes a [`FaultPlan`]: machines
//! crash at planned times (killing their in-flight attempts, which retry on
//! survivors within a bounded attempt budget), planned slowdowns turn
//! machines into stragglers, and — with speculation enabled — straggling
//! attempts are duplicated onto faster idle machines with the first
//! finisher winning. Recovery work (partial runs lost to crashes and
//! cancelled speculative duplicates) is metered separately in
//! [`StageReport::recovery_ns`]; with the empty plan the simulation is
//! bit-identical to [`simulate`].
//!
//! Every instant and duration is an integer count of nanoseconds: a
//! task's duration is rounded once, when [`CostModel::task_ns`] makes it,
//! and crash times once, when the simulation starts; everything after is
//! exact integer arithmetic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slider_trace::seconds_to_ticks;

use crate::fault::FaultPlan;
use crate::machine::{Machine, MachineId, MachineSpec};
use crate::scheduler::{Pending, PendingQueue, SchedulerPolicy};
use crate::task::{SlotKind, Task};
use crate::topology::CostModel;

#[cfg(test)]
mod reference;

/// A cluster to simulate: workers plus the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Worker machines (the master is not modeled as a compute resource).
    pub machines: Vec<MachineSpec>,
    /// Unit conversion rates.
    pub cost: CostModel,
}

impl ClusterSpec {
    /// The paper's evaluation cluster: 24 healthy workers (§7.1), with the
    /// default cost model.
    pub fn paper_cluster() -> Self {
        ClusterSpec {
            machines: vec![MachineSpec::healthy(); 24],
            cost: CostModel::paper_defaults(),
        }
    }

    /// A paper cluster where `count` workers straggle at the given relative
    /// speed.
    pub fn with_stragglers(count: usize, speed: f64) -> Self {
        let mut spec = Self::paper_cluster();
        for m in spec.machines.iter_mut().take(count) {
            *m = MachineSpec::straggler(speed);
        }
        spec
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when the cluster has no workers.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

/// Per-stage outcome. Times are simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageReport {
    /// Time from stage start to the last task completion.
    pub duration_ns: u64,
    /// Sum of task durations (active machine time) in this stage.
    pub busy_ns: u64,
    /// Tasks that ran off their preferred machine.
    pub remote_placements: u64,
    /// Bytes fetched over the network by remote placements.
    pub remote_bytes: u64,
    /// Tasks executed.
    pub tasks: usize,
    /// Tasks re-executed after a machine crash killed an attempt.
    pub retried_tasks: u64,
    /// Speculative duplicate attempts launched against stragglers.
    pub speculative_tasks: u64,
    /// Machine time spent on attempts that did not produce their task's
    /// winning completion: partial runs lost to crashes plus cancelled
    /// speculative duplicates. Always included in `busy_ns`.
    pub recovery_ns: u64,
}

/// Whole-run outcome. Times are simulated nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimReport {
    /// End-to-end simulated runtime across all stages.
    pub makespan_ns: u64,
    /// Per-stage breakdown, in input order.
    pub stages: Vec<StageReport>,
    /// Total tasks executed.
    pub tasks_run: usize,
    /// Total active machine time.
    pub busy_ns: u64,
    /// Placement-preferring tasks migrated by the hybrid scheduler.
    pub migrations: u64,
    /// Tasks re-executed after machine crashes, across all stages.
    pub retried_tasks: u64,
    /// Speculative duplicate attempts launched, across all stages.
    pub speculative_tasks: u64,
    /// Recovery machine time (see [`StageReport::recovery_ns`]), across
    /// all stages.
    pub recovery_ns: u64,
    /// Network bytes moved by background cache re-replication attached to
    /// this run (off the critical path; never part of `makespan_ns`).
    pub repair_network_bytes: u64,
    /// Time of background repair and scrub I/O attached to this run (off
    /// the critical path; never part of `makespan_ns`).
    pub repair_ns: u64,
}

impl SimReport {
    /// Attaches background self-healing traffic (re-replication bytes and
    /// repair/scrub nanoseconds) to this run's accounting. The work shares
    /// the cluster's network but runs off the critical path, so
    /// `makespan_ns` is untouched.
    pub fn attach_repair_traffic(&mut self, bytes: u64, ns: u64) {
        self.repair_network_bytes += bytes;
        self.repair_ns += ns;
    }
}

/// A scheduled event. The heap pops the smallest `(time, seq)` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    seq: u64,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Payload {
    Done {
        attempt: usize,
    },
    Retry,
    /// A planned machine crash falls due (the crash schedule cursor decides
    /// which crashes actually apply).
    Crash,
}

#[derive(Default)]
struct SlotState {
    free_map: usize,
    free_reduce: usize,
}

impl SlotState {
    fn free(&mut self, kind: SlotKind) -> &mut usize {
        match kind {
            SlotKind::Map => &mut self.free_map,
            SlotKind::Reduce => &mut self.free_reduce,
        }
    }

    fn available(&self, kind: SlotKind) -> usize {
        match kind {
            SlotKind::Map => self.free_map,
            SlotKind::Reduce => self.free_reduce,
        }
    }
}

/// One execution attempt of a task on a machine. Tasks normally have one
/// attempt; crashes and speculation create more. At most one attempt per
/// task ever completes.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// Stage-local task index.
    task: usize,
    machine: usize,
    kind: SlotKind,
    start: u64,
    duration: u64,
    /// Cleared when the attempt completes, is killed by a crash, or is
    /// cancelled because a duplicate finished first; its `Done` event is
    /// then stale and ignored.
    alive: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaskState {
    completed: bool,
    /// Live attempts currently running.
    live: u32,
    /// Attempts killed by machine crashes so far.
    failures: u32,
}

/// Simulates `stages` of tasks on `spec` under `policy`, fault-free.
///
/// Each inner `Vec<Task>` is released only after the previous stage fully
/// completes (the shuffle barrier). Equivalent to
/// [`simulate_with_faults`] with the empty [`FaultPlan`].
///
/// # Panics
///
/// Panics if a task prefers a machine id outside the cluster, or if the
/// cluster has no workers while tasks exist — both are host-engine bugs.
pub fn simulate(spec: &ClusterSpec, policy: SchedulerPolicy, stages: &[Vec<Task>]) -> SimReport {
    simulate_with_faults(spec, policy, stages, &FaultPlan::default())
}

/// Simulates `stages` of tasks on `spec` under `policy` while injecting the
/// crashes, slowdowns, and speculation of `plan`.
///
/// Faults change only the schedule — which machine runs what, when, and how
/// much work is wasted — never which tasks logically complete: every task
/// eventually finishes exactly once (or the simulator panics when
/// [`FaultPlan::max_attempts`] is exhausted or no machine survives).
///
/// # Panics
///
/// Panics on host-engine bugs (out-of-range machine indices in tasks, an
/// empty cluster with tasks), on a plan [`FaultPlan::validate`] rejects,
/// and on unrecoverable plans: a task crashing more than `max_attempts`
/// times, or every machine dead while tasks remain.
pub fn simulate_with_faults(
    spec: &ClusterSpec,
    policy: SchedulerPolicy,
    stages: &[Vec<Task>],
    plan: &FaultPlan,
) -> SimReport {
    let total_tasks: usize = stages.iter().map(Vec::len).sum();
    assert!(
        total_tasks == 0 || !spec.is_empty(),
        "cannot simulate {total_tasks} tasks on an empty cluster"
    );
    for task in stages.iter().flatten() {
        if let Some(MachineId(m)) = task.preferred {
            assert!(
                m < spec.len(),
                "task {:?} prefers unknown machine m{m}",
                task.id
            );
        }
    }
    if let Err(m) = plan.validate(spec.len()) {
        panic!("fault plan: {m}");
    }

    let mut machines: Vec<Machine> = spec
        .machines
        .iter()
        .enumerate()
        .map(|(i, &spec)| Machine {
            id: MachineId(i),
            spec,
        })
        .collect();
    for slow in &plan.slowdowns {
        machines[slow.machine].spec = machines[slow.machine].spec.slowed_by(slow.factor);
    }
    let crashes = crash_schedule(plan);
    let mut alive = vec![true; machines.len()];
    let mut next_crash = 0usize;
    let largest_stage = stages.iter().map(Vec::len).max().unwrap_or(0);
    let mut pending = PendingQueue::new(policy, machines.len(), largest_stage);

    let mut report = SimReport {
        stages: Vec::with_capacity(stages.len()),
        ..Default::default()
    };
    let mut now = 0u64;

    for stage_tasks in stages {
        let stage_start = now;
        pending.clear();
        let mut run = StageRun {
            spec,
            plan,
            machines: &machines,
            alive: &mut alive,
            crashes: &crashes,
            next_crash: &mut next_crash,
            tasks: stage_tasks.clone(),
            task_state: vec![TaskState::default(); stage_tasks.len()],
            pending: &mut pending,
            slots: machines
                .iter()
                .map(|m| SlotState {
                    free_map: m.spec.map_slots,
                    free_reduce: m.spec.reduce_slots,
                })
                .collect(),
            freed: None,
            rescan: true,
            events: BinaryHeap::new(),
            attempts: Vec::new(),
            seq: 0,
            running: 0,
            retry_scheduled: false,
            stage: StageReport {
                tasks: stage_tasks.len(),
                ..Default::default()
            },
        };
        // Machines that died in (or before) an earlier stage stay dead:
        // apply any crash that has already happened, zero the dead
        // machines' slots, and move placement preferences off them — and
        // off machines without a slot of the task's kind, which would
        // leave a memoization-aware reduce waiting forever.
        run.apply_crashes_until(stage_start);
        for mi in 0..run.slots.len() {
            if !run.alive[mi] {
                run.slots[mi] = SlotState::default();
            }
        }
        for task in &mut run.tasks {
            task.repoint_preference(run.alive, run.machines);
        }
        for (index, task) in run.tasks.iter().enumerate() {
            let pending = Pending {
                index,
                enqueued_at: stage_start,
                attempt: 0,
            };
            run.pending.push(pending, task);
        }
        // Future crashes become events so the machine dies — and its tasks
        // re-dispatch — at the planned time, not at the next completion.
        // Crashes the stage never reaches stay in the schedule (the cursor
        // only advances when a crash is applied) and re-arm next stage.
        for &(at, _) in &run.crashes[*run.next_crash..] {
            run.seq += 1;
            run.events.push(Reverse(Event {
                time: at,
                seq: run.seq,
                payload: Payload::Crash,
            }));
        }

        run.dispatch(stage_start);
        run.schedule_retry(stage_start);

        // The stage ends at the last task completion; a pending hybrid
        // retry wake-up past that point must not stretch the stage.
        let mut last_done = stage_start;
        while let Some(Reverse(event)) = run.events.pop() {
            now = event.time;
            match event.payload {
                Payload::Done { attempt } => {
                    if run.complete(attempt, now) {
                        last_done = now;
                    }
                }
                Payload::Retry => {
                    run.retry_scheduled = false;
                }
                // Crash events sort before same-time completions (earlier
                // seq), so an attempt whose machine dies the instant it
                // would finish never completes.
                Payload::Crash => {
                    run.apply_crashes_until(now);
                }
            }
            if run.running == 0 && run.pending.is_empty() {
                break;
            }
            run.dispatch(now);
            run.schedule_retry(now);
        }

        assert!(
            run.pending.is_empty(),
            "scheduler deadlock: {} tasks stranded (policy {:?}, {} of {} machines alive)",
            run.pending.len(),
            policy,
            run.alive.iter().filter(|a| **a).count(),
            run.alive.len()
        );
        now = last_done;
        run.stage.duration_ns = now - stage_start;
        report.stages.push(run.stage);
    }

    report.makespan_ns = now;
    report.tasks_run = total_tasks;
    report.busy_ns = report.stages.iter().map(|s| s.busy_ns).sum();
    report.migrations = pending.migrations;
    report.retried_tasks = report.stages.iter().map(|s| s.retried_tasks).sum();
    report.speculative_tasks = report.stages.iter().map(|s| s.speculative_tasks).sum();
    report.recovery_ns = report.stages.iter().map(|s| s.recovery_ns).sum();
    report
}

/// The plan's crashes as `(time in ns, machine)`, in the order they fall
/// due (ties by machine).
fn crash_schedule(plan: &FaultPlan) -> Vec<(u64, usize)> {
    let mut crashes: Vec<(u64, usize)> = plan
        .crashes
        .iter()
        .map(|c| (seconds_to_ticks(c.at_seconds), c.machine))
        .collect();
    crashes.sort_unstable();
    crashes
}

/// All mutable state of one stage's event loop.
struct StageRun<'a> {
    spec: &'a ClusterSpec,
    plan: &'a FaultPlan,
    machines: &'a [Machine],
    alive: &'a mut [bool],
    /// Whole-simulation crash schedule (see [`crash_schedule`]).
    crashes: &'a [(u64, usize)],
    /// Cursor into `crashes`, shared across stages.
    next_crash: &'a mut usize,
    /// This stage's tasks, with preferences re-pointed off dead machines.
    tasks: Vec<Task>,
    task_state: Vec<TaskState>,
    /// Waiting tasks; one queue serves every stage of a simulation.
    pending: &'a mut PendingQueue,
    slots: Vec<SlotState>,
    /// The machine that gained a free slot since the last dispatch.
    freed: Option<usize>,
    /// Set at stage start, by a crash, and when slots came free on two
    /// machines: the next dispatch visits every machine.
    rescan: bool,
    events: BinaryHeap<Reverse<Event>>,
    attempts: Vec<Attempt>,
    seq: u64,
    running: usize,
    retry_scheduled: bool,
    stage: StageReport,
}

impl StageRun<'_> {
    /// Fills free slots with pending tasks in machine order, then (when the
    /// plan enables it) launches speculative duplicates of straggling
    /// attempts.
    ///
    /// One pass suffices: an assignment only takes a slot and removes a
    /// waiting task, so it never gives a machine visited earlier a
    /// candidate. After a dispatch every alive machine therefore has, per
    /// slot kind, no free slot or no candidate. Until the next dispatch
    /// only a freed slot, a crash (new retries, moved preferences) or the
    /// clock (a hybrid task waiting out its threshold) can change that, so
    /// unless the stage just started, a machine crashed or a migration is
    /// due, only the machine that gained a free slot is visited.
    fn dispatch(&mut self, now: u64) {
        let freed = self.freed.take();
        if std::mem::take(&mut self.rescan) || self.pending.migration_due(now) {
            for mi in 0..self.machines.len() {
                self.fill(now, mi);
            }
        } else if let Some(mi) = freed {
            self.fill(now, mi);
        }
        if self.plan.speculation {
            self.speculate(now);
        }
    }

    /// Notes that machine `mi` gained a free slot. One such machine is
    /// visited alone; a second (a cancelled duplicate's) asks for a full
    /// scan, which visits both in machine order.
    fn mark_freed(&mut self, mi: usize) {
        match self.freed {
            None => self.freed = Some(mi),
            Some(m) if m == mi => {}
            Some(_) => self.rescan = true,
        }
    }

    /// Fills machine `mi`'s free slots, Map slots first.
    fn fill(&mut self, now: u64, mi: usize) {
        if !self.alive[mi] {
            return;
        }
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            while *self.slots[mi].free(kind) > 0 {
                let Some(picked) = self.pending.choose(now, mi, kind) else {
                    break;
                };
                self.start_attempt(now, picked.index, mi);
            }
        }
    }

    /// Starts one attempt of the stage's task `index` on machine `mi`.
    /// The full duration is charged to `busy_ns` up front; a crash or
    /// cancellation refunds the un-run remainder.
    fn start_attempt(&mut self, now: u64, index: usize, mi: usize) {
        let machine = &self.machines[mi];
        let task = &self.tasks[index];
        let kind = task.kind;
        let local = task.preferred.is_none_or(|p| p == machine.id);
        if !local {
            self.stage.remote_placements += 1;
            self.stage.remote_bytes += task.input_bytes;
        }
        let duration =
            self.spec
                .cost
                .task_ns(task.work, task.input_bytes, machine.spec.speed, local);
        self.stage.busy_ns += duration;
        *self.slots[mi].free(kind) -= 1;
        self.seq += 1;
        let attempt = self.attempts.len();
        self.attempts.push(Attempt {
            task: index,
            machine: mi,
            kind,
            start: now,
            duration,
            alive: true,
        });
        self.task_state[index].live += 1;
        self.events.push(Reverse(Event {
            time: now + duration,
            seq: self.seq,
            payload: Payload::Done { attempt },
        }));
        self.running += 1;
    }

    /// Handles a `Done` event. Returns true for a real completion, false
    /// for a stale event of a killed or cancelled attempt.
    fn complete(&mut self, attempt: usize, now: u64) -> bool {
        if !self.attempts[attempt].alive {
            return false;
        }
        let a = self.attempts[attempt];
        self.attempts[attempt].alive = false;
        *self.slots[a.machine].free(a.kind) += 1;
        self.mark_freed(a.machine);
        self.running -= 1;
        self.task_state[a.task].live -= 1;
        self.task_state[a.task].completed = true;
        // First finisher wins: cancel the task's other live attempts and
        // refund their unspent time; what they did run is recovery waste.
        if self.task_state[a.task].live > 0 {
            for other in 0..self.attempts.len() {
                let o = self.attempts[other];
                if other == attempt || !o.alive || o.task != a.task {
                    continue;
                }
                self.attempts[other].alive = false;
                *self.slots[o.machine].free(o.kind) += 1;
                self.mark_freed(o.machine);
                self.running -= 1;
                self.task_state[a.task].live -= 1;
                let wasted = now - o.start;
                self.stage.busy_ns -= o.duration - wasted;
                self.stage.recovery_ns += wasted;
            }
        }
        true
    }

    /// Applies every planned crash due at or before `t`: the machine goes
    /// (and stays) dead, its live attempts die with it, and their tasks
    /// re-enter the queue — bounded by the plan's attempt budget.
    fn apply_crashes_until(&mut self, t: u64) {
        while *self.next_crash < self.crashes.len() && self.crashes[*self.next_crash].0 <= t {
            let (at, machine) = self.crashes[*self.next_crash];
            *self.next_crash += 1;
            if !self.alive[machine] {
                continue;
            }
            self.alive[machine] = false;
            self.rescan = true;
            self.slots[machine] = SlotState::default();
            for ai in 0..self.attempts.len() {
                let a = self.attempts[ai];
                if !a.alive || a.machine != machine {
                    continue;
                }
                self.attempts[ai].alive = false;
                self.running -= 1;
                let elapsed = at - a.start;
                self.stage.busy_ns -= a.duration - elapsed;
                self.stage.recovery_ns += elapsed;
                let state = &mut self.task_state[a.task];
                state.live -= 1;
                if state.completed || state.live > 0 {
                    // A duplicate attempt survives elsewhere; no retry.
                    continue;
                }
                state.failures += 1;
                assert!(
                    state.failures < self.plan.max_attempts,
                    "task {:?} lost {} attempts to crashes; max_attempts is {}",
                    self.tasks[a.task].id,
                    state.failures,
                    self.plan.max_attempts
                );
                self.stage.retried_tasks += 1;
                let retry = Pending {
                    index: a.task,
                    enqueued_at: at,
                    attempt: state.failures,
                };
                self.pending.push(retry, &self.tasks[a.task]);
            }
            // Strict memoization-aware placement would wait forever for a
            // dead machine; preferences follow the replica chain instead.
            for task in &mut self.tasks {
                task.repoint_preference(self.alive, self.machines);
            }
            self.pending.relane(&self.tasks);
        }
    }

    /// Launches speculative duplicates: when nothing is queued, a task
    /// whose only attempt runs on a straggling machine is duplicated onto
    /// the machine that would finish it soonest — if that beats the
    /// straggler's projected finish.
    fn speculate(&mut self, now: u64) {
        if !self.pending.is_empty() {
            return;
        }
        loop {
            let mut launched = false;
            for ai in 0..self.attempts.len() {
                let a = self.attempts[ai];
                if !a.alive || !self.machines[a.machine].is_straggler() {
                    continue;
                }
                let state = self.task_state[a.task];
                if state.completed || state.live != 1 {
                    continue;
                }
                let task = &self.tasks[a.task];
                let finish = a.start + a.duration;
                let mut best: Option<(usize, u64)> = None;
                for mi in 0..self.machines.len() {
                    if mi == a.machine || !self.alive[mi] || self.slots[mi].available(a.kind) == 0 {
                        continue;
                    }
                    let local = task.preferred.is_none_or(|p| p == MachineId(mi));
                    let d = self.spec.cost.task_ns(
                        task.work,
                        task.input_bytes,
                        self.machines[mi].spec.speed,
                        local,
                    );
                    if now + d < finish && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((mi, d));
                    }
                }
                if let Some((mi, _)) = best {
                    self.stage.speculative_tasks += 1;
                    self.start_attempt(now, a.task, mi);
                    launched = true;
                }
            }
            if !launched {
                break;
            }
        }
    }

    /// Ensures the hybrid scheduler gets a wake-up once its migration
    /// threshold expires even if no completion event occurs in the
    /// meantime.
    fn schedule_retry(&mut self, now: u64) {
        if self.retry_scheduled {
            return;
        }
        // Enqueue times never decrease along the queue, so the first
        // waiting task is the one whose threshold expires first.
        let Some(earliest) = self.pending.next_migration() else {
            return;
        };
        // A wake-up is only useful when the oldest pending task has NOT yet
        // crossed the migration threshold: once it has, it is already
        // eligible and only a freed slot (a Done event) can unblock it —
        // re-dispatching on a timer would spin the event loop.
        if earliest > now {
            self.seq += 1;
            self.events.push(Reverse(Event {
                time: earliest,
                seq: self.seq,
                payload: Payload::Retry,
            }));
            self.retry_scheduled = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    fn tiny_cost() -> CostModel {
        CostModel {
            work_per_second: 1.0,
            local_bytes_per_second: 1.0,
            remote_bytes_per_second: 0.5,
            task_startup_seconds: 0.0,
        }
    }

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec {
            machines: vec![MachineSpec::healthy(); n],
            cost: tiny_cost(),
        }
    }

    #[test]
    fn single_task_runs_for_its_duration() {
        let spec = cluster(1);
        let report = simulate(&spec, SchedulerPolicy::Vanilla, &[vec![Task::map(0, 10)]]);
        assert_eq!(report.makespan_ns, 10 * SECOND);
        assert_eq!(report.tasks_run, 1);
        assert_eq!(report.busy_ns, 10 * SECOND);
    }

    #[test]
    fn parallel_tasks_share_the_cluster() {
        // 4 machines × 2 map slots = 8-way parallelism; 16 unit tasks of
        // 10s take exactly two waves.
        let spec = cluster(4);
        let tasks: Vec<Task> = (0..16).map(|i| Task::map(i, 10)).collect();
        let report = simulate(&spec, SchedulerPolicy::Vanilla, &[tasks]);
        assert_eq!(report.makespan_ns, 20 * SECOND);
        assert_eq!(report.busy_ns, 160 * SECOND);
    }

    #[test]
    fn stages_are_barriers() {
        let spec = cluster(2);
        let report = simulate(
            &spec,
            SchedulerPolicy::Vanilla,
            &[vec![Task::map(0, 5)], vec![Task::reduce(1, 7)]],
        );
        assert_eq!(report.makespan_ns, 12 * SECOND);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].duration_ns, 5 * SECOND);
        assert_eq!(report.stages[1].duration_ns, 7 * SECOND);
    }

    #[test]
    fn remote_placement_pays_transfer_cost() {
        let spec = cluster(2);
        // Vanilla ignores reduce preferences: the task may land anywhere,
        // but with 1 task and FIFO it lands on machine 0 while preferring
        // machine 1 → remote read at 0.5 B/s.
        let task = Task::reduce(0, 10).prefer(MachineId(1)).with_input_bytes(5);
        let report = simulate(&spec, SchedulerPolicy::Vanilla, &[vec![task.clone()]]);
        assert_eq!(report.makespan_ns, 20 * SECOND);
        assert_eq!(report.stages[0].remote_placements, 1);

        // The memoization-aware policy waits for machine 1 → local read.
        let report = simulate(&spec, SchedulerPolicy::MemoizationAware, &[vec![task]]);
        assert_eq!(report.makespan_ns, 15 * SECOND);
        assert_eq!(report.stages[0].remote_placements, 0);
    }

    #[test]
    fn memo_aware_waits_for_busy_preferred_machine() {
        let mut spec = cluster(2);
        spec.machines[1].reduce_slots = 1;
        // A long filler occupies machine 1's only reduce slot; the
        // preferring task must wait for it.
        let filler = Task::reduce(0, 100).prefer(MachineId(1));
        let preferrer = Task::reduce(1, 10).prefer(MachineId(1));
        let report = simulate(
            &spec,
            SchedulerPolicy::MemoizationAware,
            &[vec![filler, preferrer]],
        );
        assert_eq!(report.makespan_ns, 110 * SECOND);
    }

    #[test]
    fn hybrid_migrates_off_stragglers() {
        let mut spec = cluster(2);
        spec.machines[1].reduce_slots = 1;
        let filler = Task::reduce(0, 100).prefer(MachineId(1));
        let preferrer = Task::reduce(1, 10).prefer(MachineId(1)).with_input_bytes(2);
        let report = simulate(
            &spec,
            SchedulerPolicy::Hybrid {
                migration_threshold: 5.0,
            },
            &[vec![filler, preferrer]],
        );
        // The preferring task migrates to machine 0 at ~t=5 and finishes at
        // ~t=19 (10 compute + 4 remote read), well before the filler.
        assert!(
            report.makespan_ns < 110 * SECOND,
            "makespan = {}",
            report.makespan_ns
        );
        assert_eq!(report.migrations, 1);
        assert_eq!(report.stages[0].remote_bytes, 2);
    }

    /// The hybrid wake-up fires at `enqueued_at + threshold`; at that
    /// instant the waiting task must count as due, or the short reduce
    /// waits 100 s for the long one instead of migrating. A stage 1 ending
    /// at 3.00322 s is one where a float clock puts `now - enqueued_at`
    /// just below the 5-s threshold at the wake-up.
    #[test]
    fn hybrid_migrates_at_its_own_wake_up() {
        let spec = ClusterSpec {
            machines: vec![
                MachineSpec {
                    reduce_slots: 1,
                    ..MachineSpec::healthy()
                };
                2
            ],
            cost: CostModel {
                work_per_second: 100_000.0,
                ..tiny_cost()
            },
        };
        let run = |map_work| {
            let reduces = vec![
                Task::reduce(1, 10_000_000).prefer(MachineId(0)),
                Task::reduce(2, 50_000).prefer(MachineId(0)),
            ];
            let stages = [vec![Task::map(0, map_work)], reduces];
            simulate(&spec, SchedulerPolicy::hybrid_default(), &stages)
        };
        for (map_work, stage_one_end) in [(300_000, 3_000_000_000), (300_322, 3_003_220_000)] {
            let report = run(map_work);
            assert_eq!(report.migrations, 1, "stage 1 ends at {stage_one_end} ns");
            assert_eq!(report.makespan_ns, stage_one_end + 100 * SECOND);
        }
    }

    #[test]
    fn stragglers_stretch_vanilla_makespan() {
        let healthy = ClusterSpec {
            machines: vec![MachineSpec::healthy(); 4],
            cost: tiny_cost(),
        };
        let degraded = ClusterSpec {
            machines: {
                let mut m = vec![MachineSpec::healthy(); 4];
                m[0] = MachineSpec::straggler(0.1);
                m
            },
            cost: tiny_cost(),
        };
        let tasks: Vec<Task> = (0..8).map(|i| Task::map(i, 10)).collect();
        let fast = simulate(
            &healthy,
            SchedulerPolicy::Vanilla,
            std::slice::from_ref(&tasks),
        );
        let slow = simulate(&degraded, SchedulerPolicy::Vanilla, &[tasks]);
        assert!(slow.makespan_ns > fast.makespan_ns);
    }

    #[test]
    fn empty_stage_list_is_fine() {
        let report = simulate(&cluster(2), SchedulerPolicy::Vanilla, &[]);
        assert_eq!(report.makespan_ns, 0);
        assert_eq!(report.tasks_run, 0);
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn unknown_preferred_machine_panics() {
        let _ = simulate(
            &cluster(1),
            SchedulerPolicy::Vanilla,
            &[vec![Task::map(0, 1).prefer(MachineId(9))]],
        );
    }

    #[test]
    fn paper_cluster_shape() {
        let spec = ClusterSpec::paper_cluster();
        assert_eq!(spec.len(), 24);
        let with = ClusterSpec::with_stragglers(3, 0.5);
        assert_eq!(with.machines.iter().filter(|m| m.speed < 1.0).count(), 3);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_fault_free() {
        let spec = cluster(3);
        let stages: Vec<Vec<Task>> = vec![
            (0..7).map(|i| Task::map(i, 10 + i)).collect(),
            (0..4)
                .map(|i| {
                    Task::reduce(100 + i, 25).prefer(MachineId(usize::try_from(i % 3).unwrap()))
                })
                .collect(),
        ];
        for policy in [
            SchedulerPolicy::Vanilla,
            SchedulerPolicy::MemoizationAware,
            SchedulerPolicy::hybrid_default(),
        ] {
            let plain = simulate(&spec, policy, &stages);
            let faulted = simulate_with_faults(&spec, policy, &stages, &FaultPlan::none());
            assert_eq!(plain, faulted);
            assert_eq!(plain.retried_tasks, 0);
            assert_eq!(plain.recovery_ns, 0);
        }
    }

    #[test]
    fn crash_mid_stage_retries_on_survivors() {
        // One 10s task per machine; machine 1 dies at t=4 with its task
        // half-run. The task retries on a survivor, so the stage stretches
        // and the lost 4 seconds are metered as recovery.
        let spec = cluster(3);
        let tasks: Vec<Task> = (0..3)
            .map(|i| Task::map(i, 10).prefer(MachineId(usize::try_from(i).unwrap())))
            .collect();
        let plan = FaultPlan::none().crash(1, 4.0);
        let report = simulate_with_faults(&spec, SchedulerPolicy::Vanilla, &[tasks], &plan);
        assert_eq!(report.retried_tasks, 1);
        assert_eq!(report.recovery_ns, 4 * SECOND);
        // The retry re-dispatches at the crash time onto an idle survivor
        // slot: 10 fresh seconds from t=4.
        assert_eq!(report.makespan_ns, 14 * SECOND);
        // Busy time: two clean 10s runs + 4 wasted + 10 rerun.
        assert_eq!(report.busy_ns, 34 * SECOND);
    }

    #[test]
    fn crash_repoints_memo_aware_preferences() {
        // Strict placement would wait forever for dead machine 1; the
        // preference follows the replica chain to machine 2 instead.
        let spec = cluster(3);
        let stages = vec![
            vec![Task::map(0, 10)],
            vec![
                Task::reduce(1, 10).prefer(MachineId(1)),
                Task::reduce(2, 10).prefer(MachineId(2)),
            ],
        ];
        let plan = FaultPlan::none().crash(1, 5.0);
        let report = simulate_with_faults(&spec, SchedulerPolicy::MemoizationAware, &stages, &plan);
        assert_eq!(report.tasks_run, 3);
        assert!(report.makespan_ns >= 20 * SECOND);
    }

    #[test]
    fn dead_machine_stays_dead_across_stages() {
        let spec = cluster(2);
        let stages = vec![vec![Task::map(0, 10)], vec![Task::reduce(1, 10)]];
        // Machine 0 dies during stage 1; stage 2 must run on machine 1.
        let plan = FaultPlan::none().crash(0, 2.0);
        let report = simulate_with_faults(&spec, SchedulerPolicy::Vanilla, &stages, &plan);
        assert_eq!(report.retried_tasks, 1);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.tasks_run, 2);
    }

    #[test]
    fn speculation_beats_a_straggler() {
        // Two machines, one very slow. The straggler's 10s task would take
        // 100s; with speculation a duplicate launches on the idle fast
        // machine and wins.
        let spec = ClusterSpec {
            machines: vec![MachineSpec::healthy(), MachineSpec::healthy()],
            cost: tiny_cost(),
        };
        let tasks = vec![Task::map(0, 10), Task::map(1, 10)];
        let plan = FaultPlan::none().slow(0, 0.1).with_speculation();
        let slow_plan = FaultPlan::none().slow(0, 0.1);
        let with = simulate_with_faults(
            &spec,
            SchedulerPolicy::Vanilla,
            std::slice::from_ref(&tasks),
            &plan,
        );
        let without = simulate_with_faults(&spec, SchedulerPolicy::Vanilla, &[tasks], &slow_plan);
        assert!(with.speculative_tasks >= 1);
        assert!(
            with.makespan_ns < without.makespan_ns,
            "speculation ({}) should beat the straggler ({})",
            with.makespan_ns,
            without.makespan_ns
        );
        assert!(with.recovery_ns > 0, "the loser's run is waste");
    }

    #[test]
    fn a_preference_for_a_machine_without_the_slot_kind_moves_on() {
        // Machine 1 has no reduce slot, so a reduce task that prefers it
        // must not wait for one under memoization-aware placement: its
        // preference moves to machine 0, as a dead machine's would.
        let no_reduce = MachineSpec {
            reduce_slots: 0,
            ..MachineSpec::healthy()
        };
        let spec = ClusterSpec {
            machines: vec![MachineSpec::healthy(), no_reduce],
            cost: tiny_cost(),
        };
        let stages = [vec![Task::reduce(0, 10).prefer(MachineId(1))]];
        for policy in [
            SchedulerPolicy::Vanilla,
            SchedulerPolicy::MemoizationAware,
            SchedulerPolicy::hybrid_default(),
        ] {
            let report = simulate_with_faults(&spec, policy, &stages, &FaultPlan::none());
            assert_eq!(report.tasks_run, 1, "{policy:?}");
            assert_eq!(report.makespan_ns, 10 * SECOND, "{policy:?}");
            assert_eq!(report.stages[0].remote_placements, 0, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn attempt_budget_is_enforced() {
        // Both machines die mid-run; with max_attempts = 1 the first kill
        // already exceeds the budget.
        let spec = cluster(2);
        let tasks = vec![Task::map(0, 100), Task::map(1, 100)];
        let plan = FaultPlan::none()
            .crash(0, 5.0)
            .crash(1, 6.0)
            .with_max_attempts(1);
        let _ = simulate_with_faults(&spec, SchedulerPolicy::Vanilla, &[tasks], &plan);
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn crash_on_unknown_machine_panics() {
        let plan = FaultPlan::none().crash(9, 1.0);
        let _ = simulate_with_faults(
            &cluster(1),
            SchedulerPolicy::Vanilla,
            &[vec![Task::map(0, 1)]],
            &plan,
        );
    }
}
