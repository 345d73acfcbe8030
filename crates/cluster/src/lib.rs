//! # slider-cluster — discrete-event cluster simulation substrate
//!
//! The Slider paper (§7.1) evaluates on a 25-machine Hadoop cluster (one
//! master plus 24 workers) and reports two metrics: **work** (the sum of
//! active time over all tasks) and **time** (end-to-end job runtime). This
//! crate reproduces the *time* metric: given the task graph an engine run
//! produces (stages of tasks with modeled costs, data sizes and placement
//! preferences), it simulates list-scheduling those tasks onto a cluster of
//! multi-slot machines and reports the makespan. Simulated time is an
//! integer count of nanoseconds throughout (the trace's tick). The crate
//! records no trace itself: a [`SimReport`] is the one source of its
//! numbers, and the engine derives the `cluster` track's spans and the
//! `cluster.*` counters from it.
//!
//! It also implements the scheduling policies of §6 as the three
//! [`SchedulerPolicy`] values — Hadoop's vanilla placement, Slider's
//! memoization-aware placement, and the hybrid straggler-mitigating
//! placement (Table 1) — plus straggler injection. Each stage's waiting
//! tasks sit in a queue indexed by what the policies ask for, so a
//! simulation costs about as much as its events.
//!
//! ```
//! use slider_cluster::{ClusterSpec, SchedulerPolicy, SlotKind, Task, simulate};
//!
//! let spec = ClusterSpec::paper_cluster(); // 24 workers, 2+2 slots
//! let maps: Vec<Task> = (0..48).map(|i| Task::map(i, 1_000)).collect();
//! let reduces: Vec<Task> = (0..24).map(|i| Task::reduce(100 + i, 2_000)).collect();
//! let report = simulate(&spec, SchedulerPolicy::Vanilla, &[maps, reduces]);
//! assert!(report.makespan_ns > 0);
//! assert_eq!(report.tasks_run, 72);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

mod clock;
mod fault;
mod machine;
mod scheduler;
mod simulator;
mod task;
mod topology;

pub use clock::{SharedClock, SimClock};
pub use fault::FaultPlan;
pub use machine::{Machine, MachineId, MachineSpec};
pub use scheduler::SchedulerPolicy;
pub use simulator::{simulate, simulate_with_faults, SimReport, StageReport};
pub use task::{SlotKind, Task, TaskId};
pub use topology::CostModel;

/// Convenience re-export: cluster + cost model in one spec.
pub use simulator::ClusterSpec;
