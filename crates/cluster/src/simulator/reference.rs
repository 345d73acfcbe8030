//! The linear-scan scheduler the indexed [`PendingQueue`] replaced, kept
//! as a test oracle: pending tasks in one `Vec`, every choice a scan of it,
//! and a dispatch that repeats its pass over all machines until a pass
//! assigns nothing. [`simulate_with_faults`] here must report exactly what
//! [`super::simulate_with_faults`] reports.
//!
//! [`PendingQueue`]: crate::scheduler::PendingQueue

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slider_trace::seconds_to_ticks;

use super::{
    crash_schedule, Attempt, ClusterSpec, Event, Payload, SimReport, SlotState, StageReport,
    TaskState,
};
use crate::fault::FaultPlan;
use crate::machine::{Machine, MachineId};
use crate::scheduler::SchedulerPolicy;
use crate::task::{SlotKind, Task};

#[derive(Debug, Clone)]
struct PendingTask {
    task: Task,
    enqueued_at: u64,
    attempt: u32,
    index: usize,
}

fn first(pending: &[PendingTask], pred: impl Fn(&PendingTask) -> bool) -> Option<usize> {
    pending.iter().position(pred)
}

/// The three policies' `choose`, one linear scan per question. `threshold`
/// is the hybrid policy's migration threshold in nanoseconds.
fn choose(
    policy: SchedulerPolicy,
    threshold: u64,
    migrations: &mut u64,
    now: u64,
    machine: &Machine,
    kind: SlotKind,
    pending: &[PendingTask],
) -> Option<usize> {
    let of_kind = |p: &PendingTask| p.task.kind == kind;
    if let Some(i) = first(pending, |p| of_kind(p) && p.attempt > 0) {
        return Some(i);
    }
    let preferring = first(pending, |p| {
        of_kind(p) && p.task.preferred == Some(machine.id)
    });
    let unpreferring = || first(pending, |p| of_kind(p) && p.task.preferred.is_none());
    match (kind, policy) {
        (SlotKind::Map, _) => preferring.or_else(|| first(pending, of_kind)),
        (SlotKind::Reduce, SchedulerPolicy::Vanilla) => first(pending, of_kind),
        (SlotKind::Reduce, SchedulerPolicy::MemoizationAware) => preferring.or_else(unpreferring),
        (SlotKind::Reduce, SchedulerPolicy::Hybrid { .. }) => {
            preferring.or_else(unpreferring).or_else(|| {
                let stale = pending
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| of_kind(p) && now >= p.enqueued_at + threshold)
                    .min_by_key(|(_, p)| p.enqueued_at)
                    .map(|(i, _)| i);
                *migrations += u64::from(stale.is_some());
                stale
            })
        }
    }
}

/// The fault-injecting simulation, scheduled by linear scans.
pub(super) fn simulate_with_faults(
    spec: &ClusterSpec,
    policy: SchedulerPolicy,
    stages: &[Vec<Task>],
    plan: &FaultPlan,
) -> SimReport {
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
    let threshold = match policy {
        SchedulerPolicy::Hybrid {
            migration_threshold,
        } => seconds_to_ticks(migration_threshold),
        _ => 0,
    };
    let mut alive = vec![true; machines.len()];
    let mut next_crash = 0usize;
    let mut migrations = 0u64;
    let mut report = SimReport::default();
    let mut now = 0u64;

    for stage_tasks in stages {
        let stage_start = now;
        let mut run = StageRun {
            spec,
            plan,
            policy,
            threshold,
            machines: &machines,
            alive: &mut alive,
            crashes: &crashes,
            next_crash: &mut next_crash,
            migrations: &mut migrations,
            tasks: stage_tasks.clone(),
            task_state: vec![TaskState::default(); stage_tasks.len()],
            pending: Vec::new(),
            slots: machines
                .iter()
                .map(|m| SlotState {
                    free_map: m.spec.map_slots,
                    free_reduce: m.spec.reduce_slots,
                })
                .collect(),
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
        run.apply_crashes_until(stage_start);
        for mi in 0..run.slots.len() {
            if !run.alive[mi] {
                run.slots[mi] = SlotState::default();
            }
        }
        for task in &mut run.tasks {
            task.repoint_preference(run.alive, run.machines);
        }
        run.pending = run
            .tasks
            .iter()
            .cloned()
            .enumerate()
            .map(|(index, task)| PendingTask {
                task,
                enqueued_at: stage_start,
                attempt: 0,
                index,
            })
            .collect();
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
        let mut last_done = stage_start;
        while let Some(Reverse(event)) = run.events.pop() {
            now = event.time;
            match event.payload {
                Payload::Done { attempt } => {
                    if run.complete(attempt, now) {
                        last_done = now;
                    }
                }
                Payload::Retry => run.retry_scheduled = false,
                Payload::Crash => run.apply_crashes_until(now),
            }
            if run.running == 0 && run.pending.is_empty() {
                break;
            }
            run.dispatch(now);
            run.schedule_retry(now);
        }
        assert!(run.pending.is_empty(), "reference scheduler deadlock");
        now = last_done;
        run.stage.duration_ns = now - stage_start;
        report.stages.push(run.stage);
    }

    report.makespan_ns = now;
    report.tasks_run = stages.iter().map(Vec::len).sum();
    report.busy_ns = report.stages.iter().map(|s| s.busy_ns).sum();
    report.migrations = migrations;
    report.retried_tasks = report.stages.iter().map(|s| s.retried_tasks).sum();
    report.speculative_tasks = report.stages.iter().map(|s| s.speculative_tasks).sum();
    report.recovery_ns = report.stages.iter().map(|s| s.recovery_ns).sum();
    report
}

struct StageRun<'a> {
    spec: &'a ClusterSpec,
    plan: &'a FaultPlan,
    policy: SchedulerPolicy,
    threshold: u64,
    machines: &'a [Machine],
    alive: &'a mut [bool],
    crashes: &'a [(u64, usize)],
    next_crash: &'a mut usize,
    migrations: &'a mut u64,
    tasks: Vec<Task>,
    task_state: Vec<TaskState>,
    pending: Vec<PendingTask>,
    slots: Vec<SlotState>,
    events: BinaryHeap<Reverse<Event>>,
    attempts: Vec<Attempt>,
    seq: u64,
    running: usize,
    retry_scheduled: bool,
    stage: StageReport,
}

impl StageRun<'_> {
    fn dispatch(&mut self, now: u64) {
        loop {
            let mut assigned = false;
            for mi in 0..self.machines.len() {
                if !self.alive[mi] {
                    continue;
                }
                for kind in [SlotKind::Map, SlotKind::Reduce] {
                    while *self.slots[mi].free(kind) > 0 && !self.pending.is_empty() {
                        let Some(i) = choose(
                            self.policy,
                            self.threshold,
                            self.migrations,
                            now,
                            &self.machines[mi],
                            kind,
                            &self.pending,
                        ) else {
                            break;
                        };
                        let picked = self.pending.remove(i);
                        self.start_attempt(now, picked.task, picked.index, mi, kind);
                        assigned = true;
                    }
                }
            }
            if !assigned {
                break;
            }
        }
        if self.plan.speculation {
            self.speculate(now);
        }
    }

    fn start_attempt(&mut self, now: u64, task: Task, index: usize, mi: usize, kind: SlotKind) {
        let machine = &self.machines[mi];
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

    fn complete(&mut self, attempt: usize, now: u64) -> bool {
        if !self.attempts[attempt].alive {
            return false;
        }
        let a = self.attempts[attempt];
        self.attempts[attempt].alive = false;
        *self.slots[a.machine].free(a.kind) += 1;
        self.running -= 1;
        self.task_state[a.task].live -= 1;
        self.task_state[a.task].completed = true;
        if self.task_state[a.task].live > 0 {
            for other in 0..self.attempts.len() {
                let o = self.attempts[other];
                if other == attempt || !o.alive || o.task != a.task {
                    continue;
                }
                self.attempts[other].alive = false;
                *self.slots[o.machine].free(o.kind) += 1;
                self.running -= 1;
                self.task_state[a.task].live -= 1;
                let wasted = now - o.start;
                self.stage.busy_ns -= o.duration - wasted;
                self.stage.recovery_ns += wasted;
            }
        }
        true
    }

    fn apply_crashes_until(&mut self, t: u64) {
        while *self.next_crash < self.crashes.len() && self.crashes[*self.next_crash].0 <= t {
            let (at, machine) = self.crashes[*self.next_crash];
            *self.next_crash += 1;
            if !self.alive[machine] {
                continue;
            }
            self.alive[machine] = false;
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
                    continue;
                }
                state.failures += 1;
                assert!(state.failures < self.plan.max_attempts, "max_attempts");
                self.stage.retried_tasks += 1;
                let mut task = self.tasks[a.task].clone();
                task.repoint_preference(self.alive, self.machines);
                self.pending.push(PendingTask {
                    task,
                    enqueued_at: at,
                    attempt: state.failures,
                    index: a.task,
                });
            }
            for task in &mut self.tasks {
                task.repoint_preference(self.alive, self.machines);
            }
            for p in &mut self.pending {
                p.task.repoint_preference(self.alive, self.machines);
            }
        }
    }

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
                let task = self.tasks[a.task].clone();
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
                    self.start_attempt(now, task, a.task, mi, a.kind);
                    launched = true;
                }
            }
            if !launched {
                break;
            }
        }
    }

    fn schedule_retry(&mut self, now: u64) {
        let SchedulerPolicy::Hybrid { .. } = self.policy else {
            return;
        };
        if self.retry_scheduled {
            return;
        }
        let Some(earliest) = self.pending.iter().map(|p| p.enqueued_at).min() else {
            return;
        };
        let earliest = earliest + self.threshold;
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

mod tests {
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::machine::MachineSpec;
    use crate::topology::CostModel;

    /// A random cluster, 1–3 stages and a recoverable fault plan. Half the
    /// cases use unit rates and whole-second crash times, so completions,
    /// crashes and migration thresholds tie often. Machine 0 has slots of
    /// both kinds and never crashes; any other machine may lack a slot
    /// kind, and then crashes at some point in half the cases. Either way
    /// the tasks that prefer it move on instead of waiting forever.
    fn case(seed: u64) -> (ClusterSpec, Vec<Vec<Task>>, FaultPlan, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let unit = rng.gen_bool(0.5);
        let n = rng.gen_range(1usize..=8);
        let speeds = [1.0, 1.0, 1.0, 0.5, 0.2, 1.5];
        let machines: Vec<MachineSpec> = (0..n)
            .map(|m| MachineSpec {
                map_slots: rng.gen_range(usize::from(m == 0)..=3),
                reduce_slots: rng.gen_range(usize::from(m == 0)..=3),
                speed: speeds[rng.gen_range(0..speeds.len())],
            })
            .collect();
        let crash_time = |rng: &mut SmallRng| {
            if unit {
                f64::from(rng.gen_range(0u32..30))
            } else {
                rng.gen::<f64>() * 12.0
            }
        };
        let mut plan = FaultPlan::none();
        for (m, spec) in machines.iter().enumerate() {
            if (spec.map_slots == 0 || spec.reduce_slots == 0) && rng.gen_bool(0.5) {
                plan = plan.crash(m, crash_time(&mut rng));
            }
        }
        for _ in 0..rng.gen_range(0..n) {
            let m = rng.gen_range(1..n);
            plan = plan.crash(m, crash_time(&mut rng));
        }
        let cost = if unit {
            CostModel {
                work_per_second: 1.0,
                local_bytes_per_second: 1.0,
                remote_bytes_per_second: 0.5,
                task_startup_seconds: f64::from(rng.gen_range(0u32..=1)),
            }
        } else {
            CostModel::paper_defaults()
        };
        let (max_work, max_bytes) = if unit { (12, 6) } else { (300_000, 1 << 28) };
        let mut id = 0u64;
        let stages = (0..rng.gen_range(1usize..=3))
            .map(|_| {
                let reduce_share = [0.0, 1.0, 0.5][rng.gen_range(0usize..3)];
                (0..rng.gen_range(0usize..=24))
                    .map(|_| {
                        id += 1;
                        let work = rng.gen_range(0..max_work);
                        let mut task = if rng.gen_bool(reduce_share) {
                            Task::reduce(id, work)
                        } else {
                            Task::map(id, work)
                        };
                        if rng.gen_bool(0.75) {
                            task = task.prefer(MachineId(rng.gen_range(0..n)));
                        }
                        task.with_input_bytes(rng.gen_range(0..max_bytes))
                    })
                    .collect()
            })
            .collect();
        // The budget covers one kill per crash.
        let budget = u32::try_from(plan.crashes.len()).unwrap() + 1;
        plan = plan.with_max_attempts(budget);
        for _ in 0..rng.gen_range(0..=2) {
            let factor = [0.5, 0.25, 0.1][rng.gen_range(0usize..3)];
            plan = plan.slow(rng.gen_range(0..n), factor);
        }
        if rng.gen_bool(0.5) {
            plan = plan.with_speculation();
        }
        let thresholds = [0.0, 0.5, 1.0, 2.0, 5.0, rng.gen::<f64>() * 4.0];
        let threshold = thresholds[rng.gen_range(0..thresholds.len())];
        (ClusterSpec { machines, cost }, stages, plan, threshold)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The indexed queue and one-pass dispatch schedule exactly like
        /// the linear scans: whole reports equal.
        #[test]
        fn queue_matches_the_linear_scan_reference(seed in 0u64..u64::MAX) {
            let (spec, stages, plan, threshold) = case(seed);
            for policy in [
                SchedulerPolicy::Vanilla,
                SchedulerPolicy::MemoizationAware,
                SchedulerPolicy::Hybrid { migration_threshold: threshold },
            ] {
                let fast = super::super::simulate_with_faults(&spec, policy, &stages, &plan);
                let slow = simulate_with_faults(&spec, policy, &stages, &plan);
                prop_assert_eq!(fast, slow, "seed {} {:?}", seed, policy);
            }
        }
    }
}
