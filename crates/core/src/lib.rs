//! # slider-core — self-adjusting contraction trees
//!
//! This crate implements the primary contribution of *"Slider: Incremental
//! Sliding Window Analytics"* (Bhatotia, Acar, Junqueira, Rodrigues —
//! Middleware 2014): a family of **self-adjusting contraction trees** that
//! structure the reduce side of a data-parallel computation as a shallow,
//! balanced dependence graph through which sliding-window input changes are
//! propagated in time proportional to the *delta*, not the window.
//!
//! The trees operate on *partial aggregates* produced by an associative
//! [`Combiner`]. The application's reduce function (`MapReduceApp::reduce`
//! in `slider-mapreduce`) turns a tree root into the job output.
//!
//! ## Tree family
//!
//! | Type | Paper section | Window variant |
//! |------|---------------|----------------|
//! | [`StrawmanTree`] | §2.2 | any — memoization-only baseline |
//! | [`FoldingTree`] | §3.1 | variable-width (arbitrary shrink/grow) |
//! | [`RandomizedFoldingTree`] | §3.2 | variable-width with drastic resizes |
//! | [`RotatingTree`] | §4.1 | fixed-width, with split processing |
//! | [`CoalescingTree`] | §4.2 | append-only, with split processing |
//!
//! [`StrawmanTree`] and [`RandomizedFoldingTree`] are one memoized
//! re-pairing tree: it keeps its levels between edits, re-cuts each level
//! only around the change, and reuses each group whose identity the
//! previous tree held. The strawman pairs a level by position, so its
//! identities shift when the window slides; the randomized tree closes
//! groups on coin flips keyed by node identity, so only the groups at the
//! edges change.
//!
//! ## Constant-time aggregators
//!
//! Alongside the O(log n) contraction trees, the crate provides the
//! twin-stack family for in-order FIFO windows (after Tangwongsan & Hirzel,
//! arXiv 2009.13768), which memoizes running partial sums instead of
//! interior tree nodes:
//!
//! | Type | Per-update merges | Notes |
//! |------|-------------------|-------|
//! | [`TwoStackTree`] | amortized O(1) | whole-back flip when front runs dry |
//! | [`DabaTree`] | worst-case O(1)\* | incrementally repaired flip |
//!
//! \* worst-case for balanced in-order slides; amortized under adversarial
//! insert floods (see the `daba` module docs).
//!
//! Both keep the memory-lean layout (DABA Lite's): a repaired entry is only
//! its suffix aggregate, and every value is held once.
//!
//! All structures implement the object-safe [`WindowAggregator`] contract
//! so a host engine (see the `slider-mapreduce` crate) can drive them
//! uniformly. Leaves cross it by value and each structure owns what it
//! holds: the folding and rotating trees run on one binary-tree core and
//! keep their values, like the memo trees, in a per-tree slab. Tree-shaped
//! structures additionally implement the [`ContractionTree`] extension. The
//! [`TreeKind`] enum plus [`build_tree`] provide a factory, and `TreeKind`
//! parses from its `Display` form for env/config selection.
//!
//! ## Example
//!
//! ```
//! use slider_core::{build_tree, FnCombiner, TreeCx, TreeKind, UpdateStats};
//!
//! // Word-count style combiner: partial aggregates are u64 counts.
//! let combiner = FnCombiner::new(|_k: &String, a: &u64, b: &u64| a + b);
//! let mut tree = build_tree::<String, u64>(TreeKind::Folding, 0);
//! let mut stats = UpdateStats::default();
//! let key = "the".to_string();
//! let mut cx = TreeCx::new(&combiner, &key, &mut stats);
//!
//! // Initial run: the window holds four splits, each contributing a count.
//! tree.rebuild(&mut cx, vec![Some(1), Some(2), Some(3), Some(4)]);
//! assert_eq!(*tree.root().unwrap(), 10);
//!
//! // The window slides: drop the oldest split, append one with count 5.
//! tree.advance(&mut cx, 1, vec![Some(5)])?;
//! assert_eq!(*tree.root().unwrap(), 14);
//! # Ok::<(), slider_core::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tree arithmetic mixes u64 leaf counts with usize indexing; every
// narrowing must be explicit and checked, never a silent `as` truncation.
#![deny(clippy::cast_possible_truncation)]

mod coalescing;
mod combiner;
mod daba;
mod dgim;
mod error;
mod folding;
mod hash;
mod levels;
mod memo;
mod randomized;
mod rotating;
mod slab;
mod stats;
mod strawman;
mod tree;

pub use coalescing::CoalescingTree;
pub use combiner::{Combiner, FnCombiner, Merged};
pub use daba::{DabaTree, TwoStackTree};
pub use dgim::SlidingWindowCounter;
pub use error::TreeError;
pub use folding::FoldingTree;
pub use hash::{hash_one, hash_pair, StableHasher};
#[cfg(feature = "oracle")]
pub use memo::reference::RecontractingTree;
pub use randomized::RandomizedFoldingTree;
pub use rotating::RotatingTree;
pub use stats::{Phase, PhaseWork, UpdateStats};
pub use strawman::StrawmanTree;
#[cfg(feature = "oracle")]
pub use tree::MemoLayout;
pub use tree::{
    build_contraction_tree, build_tree, ContractionTree, ParseTreeKindError, TreeCx, TreeKind,
    WindowAggregator,
};
