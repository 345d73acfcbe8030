//! # slider-mapreduce — a MapReduce engine with transparent incremental
//! sliding-window execution
//!
//! This crate is the reproduction's stand-in for the Hadoop 0.20.2 fork the
//! Slider paper builds on. It executes *real* MapReduce computations
//! in-process (map → shuffle/partition → contraction → reduce) over a
//! sliding window of input splits, while metering the modeled *work* of
//! every phase and (optionally) simulating the cluster schedule to obtain
//! the *time* metric.
//!
//! The [`WindowedJob`] driver supports four execution modes
//! ([`ExecMode`]):
//!
//! * `Recompute` — vanilla Hadoop: reprocess the whole window from scratch.
//! * `Strawman` — memoization-only incremental baseline (paper §2).
//! * `Slider { tree, split_processing }` — self-adjusting contraction trees
//!   (§3–4), optionally with split background/foreground processing.
//!
//! Applications implement [`MapReduceApp`] exactly as they would for plain
//! batch processing — the paper's transparency claim — and the engine picks
//! the incremental machinery.
//!
//! ```
//! use slider_mapreduce::{ExecMode, JobConfig, MapReduceApp, Split, WindowedJob};
//!
//! /// Word count, written with no incremental logic whatsoever.
//! struct WordCount;
//! impl MapReduceApp for WordCount {
//!     type Input = String;
//!     type Key = String;
//!     type Value = u64;
//!     type Output = u64;
//!     fn map(&self, line: &String, emit: &mut dyn FnMut(String, u64)) {
//!         for word in line.split_whitespace() {
//!             emit(word.to_string(), 1);
//!         }
//!     }
//!     fn combine(&self, _k: &String, a: &u64, b: &u64) -> u64 { a + b }
//!     fn reduce(&self, _k: &String, parts: &[&u64]) -> u64 {
//!         parts.iter().copied().sum()
//!     }
//! }
//!
//! let config = JobConfig::new(ExecMode::slider_folding()).with_partitions(4);
//! let mut job = WindowedJob::new(WordCount, config)?;
//! job.initial_run(vec![
//!     Split::from_records(0, vec!["a b a".to_string()]),
//!     Split::from_records(1, vec!["b c".to_string()]),
//! ])?;
//! assert_eq!(job.output().get("a"), Some(&2));
//!
//! // Slide: drop the first split, append a new one.
//! job.advance(1, vec![Split::from_records(2, vec!["c c".to_string()])])?;
//! assert_eq!(job.output().get("a"), None);
//! assert_eq!(job.output().get("c"), Some(&3));
//! # Ok::<(), slider_mapreduce::JobError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Work metering mixes u64 byte/work counters with usize collection sizes
// and f64 cost models; every narrowing must be explicit and checked.
#![deny(clippy::cast_possible_truncation)]

mod app;
mod error;
mod event;
mod fault;
mod pipeline;
mod retry;
mod runtime;
mod shared;
mod shuffle;
mod split;
mod stats;
mod windowed;

pub use app::{AppCombiner, MapReduceApp};
pub use error::JobError;
pub use event::{
    EventFeeder, EventTimeConfig, EventTimeStats, FeedEvent, FeederCheckpoint, Stamped,
};
pub use fault::JobFaultPlan;
pub use pipeline::{InnerStageStats, Pipeline, PipelineRunResult, StageApp};
pub use retry::RetryPolicy;
pub use runtime::{Runtime, THREADS_ENV};
pub use shared::{EngineShared, EngineSharedBuilder};
pub use shuffle::{partition_of, stable_hash, StableStdHasher};
pub use split::{make_splits, Split, SplitId};
pub use stats::{RecoveryStats, RunStats, WorkBreakdown};
pub use windowed::{ExecMode, JobCheckpoint, JobConfig, SimulationConfig, WindowedJob};

// Re-export the trace surface jobs are configured with, so engine users
// need no direct `slider-trace` dependency for the common path.
pub use slider_trace::{SpanKind, TraceSink, TraceSnapshot};
