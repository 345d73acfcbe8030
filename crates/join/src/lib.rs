//! slider-join: incremental windowed stream joins over the sharded
//! Slider runtime.
//!
//! A [`JoinedJob`] joins two event-time record streams over aligned
//! sliding windows. Each side's window is indexed by join key through an
//! [`IndexApp`] — an ordinary `MapReduceApp` run as a `WindowedJob` on the
//! shared engine — so the indexes inherit the engine's contraction trees,
//! dcache memoization (one namespace per side), and fault recovery with
//! no join-specific plumbing. A key's index is an [`IndexSeq`]: its
//! in-window records in window order, in runs shared between the tree
//! levels, so a merge costs the records it copies or one link, never the
//! key's whole posting list. Above the indexes, the operator maintains a
//! materialized per-key view ([`JoinCell`]) and updates it on each joint
//! advance by probing only the records that *entered or left* a window
//! against the opposite index — never by recomputing the cross product.
//!
//! The two sides advance under a **joint watermark** (the minimum of
//! their per-side event-time watermarks), so one stalled input holds both
//! windows back instead of producing join results against data the other
//! side may still deliver or reorder.
//!
//! A probe costs what it writes. Probes are sharded by key hash and run
//! via `Runtime::map` (input-order results); each returns a handle to the
//! opposite key's [`IndexSeq`], not a copy of its pairs. The control
//! thread folds the handles in shard order: one [`PairDelta`] per pair,
//! and one view-cell update per delta record, with each pair's checksum
//! extending a hash state kept for its delta.
//!
//! Everything is deterministic, so the view, the emitted [`PairDelta`]
//! stream, and all [`JoinStats`] are bit-identical at any thread count.
//! The brute-force [`reference_view`] ground truth and per-cell pair
//! checksums make that claim checkable on every slide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

mod app;
mod job;
mod reference;
mod seq;
mod stats;

pub use app::{IndexApp, IndexRecord, JoinApp};
pub use job::{JoinConfig, JoinError, JoinMode, JoinRun, JoinRunOf, JoinedJob};
pub use reference::reference_view;
pub use seq::IndexSeq;
pub use stats::{pair_hash, JoinCell, JoinStats, PairDelta};
