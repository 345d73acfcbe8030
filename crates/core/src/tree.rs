//! The layered window-aggregation interface: the structure-agnostic
//! [`WindowAggregator`] contract shared by every sliding-window structure,
//! the [`ContractionTree`] extension for the self-adjusting tree family,
//! and the [`TreeKind`] factory used by the host engine.

use std::fmt;
use std::str::FromStr;

use crate::coalescing::CoalescingTree;
use crate::combiner::Combiner;
use crate::daba::{DabaTree, TwoStackTree};
use crate::error::TreeError;
use crate::folding::FoldingTree;
use crate::randomized::RandomizedFoldingTree;
use crate::rotating::RotatingTree;
use crate::stats::{Phase, UpdateStats};
use crate::strawman::StrawmanTree;

/// Selects a window-aggregation structure: a member of the self-adjusting
/// contraction tree family, or one of the constant-time twin-stack
/// aggregators (DABA line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// §2.2 memoization-only baseline.
    Strawman,
    /// §3.1 folding tree for variable-width windows.
    Folding,
    /// §3.2 randomized (skip-list style) folding tree.
    RandomizedFolding,
    /// §4.1 rotating tree for fixed-width windows.
    Rotating,
    /// §4.2 coalescing tree for append-only windows.
    Coalescing,
    /// Amortized-O(1) twin-stack aggregator: back stack of raw leaves plus a
    /// running prefix aggregate, front stack of suffix aggregates, whole-back
    /// flip when the front runs dry.
    TwoStack,
    /// De-amortized twin-stack (DABA, arXiv 2009.13768): the flip is repaired
    /// incrementally, a bounded number of merges per operation, for
    /// worst-case O(1) in-order sliding-window aggregation. Its repaired
    /// entries keep only their partial sums (the DABA Lite layout).
    Daba,
}

impl TreeKind {
    /// All kinds, in paper order; the constant-time aggregators follow the
    /// contraction tree family.
    pub const ALL: [TreeKind; 7] = [
        TreeKind::Strawman,
        TreeKind::Folding,
        TreeKind::RandomizedFolding,
        TreeKind::Rotating,
        TreeKind::Coalescing,
        TreeKind::TwoStack,
        TreeKind::Daba,
    ];

    /// Short lowercase name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::Strawman => "strawman",
            TreeKind::Folding => "folding",
            TreeKind::RandomizedFolding => "randomized",
            TreeKind::Rotating => "rotating",
            TreeKind::Coalescing => "coalescing",
            TreeKind::TwoStack => "twostack",
            TreeKind::Daba => "daba",
        }
    }

    /// Whether this kind supports split (background/foreground) processing.
    pub fn supports_split_processing(self) -> bool {
        matches!(self, TreeKind::Rotating | TreeKind::Coalescing)
    }

    /// Whether this kind is a self-adjusting contraction tree (O(log n) per
    /// update, interior-node memo handles) as opposed to a constant-time
    /// twin-stack aggregator (partial-sum memoization).
    pub fn is_contraction_tree(self) -> bool {
        !self.is_constant_time()
    }

    /// Whether this kind performs O(1) merges per in-order window update
    /// (amortized for [`TreeKind::TwoStack`], worst-case for
    /// [`TreeKind::Daba`]).
    pub fn is_constant_time(self) -> bool {
        matches!(self, TreeKind::TwoStack | TreeKind::Daba)
    }

    /// Whether this kind implements the interior bulk-splice operations
    /// ([`WindowAggregator::insert_at`]/[`WindowAggregator::evict_range`])
    /// natively. For the other kinds those methods return
    /// [`TreeError::SpliceUnsupported`] and the host engine falls back to a
    /// targeted rebuild.
    pub fn supports_splice(self) -> bool {
        matches!(
            self,
            TreeKind::Strawman | TreeKind::Folding | TreeKind::RandomizedFolding
        )
    }
}

impl fmt::Display for TreeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a [`TreeKind`] fails to parse from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTreeKindError {
    input: String,
}

impl fmt::Display for ParseTreeKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown tree kind {:?} (expected one of: {})",
            self.input,
            TreeKind::ALL.map(TreeKind::name).join(", ")
        )
    }
}

impl std::error::Error for ParseTreeKindError {}

impl FromStr for TreeKind {
    type Err = ParseTreeKindError;

    /// Parses the `Display`/`name()` form of every kind, plus the spellings
    /// that show up in env vars and config files: case-insensitive, `_`
    /// treated as `-`, and the long aliases `randomized-folding` and
    /// `two-stack`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        match norm.as_str() {
            "strawman" => Ok(TreeKind::Strawman),
            "folding" => Ok(TreeKind::Folding),
            "randomized" | "randomized-folding" => Ok(TreeKind::RandomizedFolding),
            "rotating" => Ok(TreeKind::Rotating),
            "coalescing" => Ok(TreeKind::Coalescing),
            "twostack" | "two-stack" => Ok(TreeKind::TwoStack),
            "daba" => Ok(TreeKind::Daba),
            _ => Err(ParseTreeKindError {
                input: s.to_string(),
            }),
        }
    }
}

/// Per-operation context handed to a tree: the application combiner, the key
/// the tree aggregates, and the statistics accumulator.
///
/// All combiner invocations made by a tree flow through [`TreeCx::merge`] so
/// that every unit of work is attributed to the right [`Phase`].
pub struct TreeCx<'a, K, V> {
    combiner: &'a dyn Combiner<K, V>,
    key: &'a K,
    stats: &'a mut UpdateStats,
}

impl<'a, K, V> TreeCx<'a, K, V> {
    /// Bundles a combiner, key and statistics sink.
    pub fn new(combiner: &'a dyn Combiner<K, V>, key: &'a K, stats: &'a mut UpdateStats) -> Self {
        TreeCx {
            combiner,
            key,
            stats,
        }
    }

    /// The key this tree aggregates.
    pub fn key(&self) -> &K {
        self.key
    }

    /// Whether the application combiner is commutative.
    pub fn is_commutative(&self) -> bool {
        self.combiner.is_commutative()
    }

    /// Executes one combiner invocation, charging its cost to `phase` and
    /// recording the memoization bytes the fresh aggregate occupies. Returns
    /// the aggregate and those bytes.
    pub fn merge(&mut self, phase: Phase, a: &V, b: &V) -> (V, u64) {
        let merged = self.combiner.merge(self.key, a, b);
        self.stats.phase_mut(phase).record(merged.cost);
        self.stats.bytes_written += merged.bytes;
        (merged.value, merged.bytes)
    }

    /// Left-folds a sequence of aggregates into one, charging to `phase`.
    /// Returns `None` for an empty sequence.
    pub fn fold(&mut self, phase: Phase, parts: impl IntoIterator<Item = V>) -> Option<V> {
        let mut iter = parts.into_iter();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, part| self.merge(phase, &acc, &part).0))
    }

    /// Records reuse of one memoized aggregate, including the bytes the
    /// contraction phase reads to consume it.
    pub fn reuse(&mut self, v: &V) {
        self.stats.reused += 1;
        self.stats.bytes_read += self.combiner.value_bytes(self.key, v);
    }

    /// Records `count` memoized aggregates reused without being visited,
    /// `bytes` their modeled sizes in total.
    pub fn reuse_many(&mut self, count: u64, bytes: u64) {
        self.stats.reused += count;
        self.stats.bytes_read += bytes;
    }

    /// Records `n` appended leaves.
    pub fn note_added(&mut self, n: u64) {
        self.stats.leaves_added += n;
    }

    /// Records `n` dropped leaves.
    pub fn note_removed(&mut self, n: u64) {
        self.stats.leaves_removed += n;
    }

    /// Modeled byte size of a partial aggregate: what storing `v` adds to
    /// a structure's [`WindowAggregator::memo_bytes`].
    pub fn value_bytes(&self, v: &V) -> u64 {
        self.combiner.value_bytes(self.key, v)
    }
}

impl<K, V> fmt::Debug for TreeCx<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreeCx")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Object-safe core contract implemented by every sliding-window
/// aggregation structure: insert/evict at the window edges, query an
/// equivalent root, and meter every combiner invocation deterministically
/// through [`TreeCx`] (feeding the engine's `WorkBreakdown`).
///
/// An aggregator holds the per-split partial values of **one key**. Leaves
/// are ordered oldest-to-newest; the window only ever shrinks at the front
/// and grows at the back (arbitrary amounts for the variable-width
/// structures). This layer makes **no** assumption about internal shape:
/// implementors may be contraction trees (interior-node memo handles,
/// O(log n) per update) or flat twin-stack aggregators (partial-sum
/// memoization, O(1) per update). Tree-shaped structure is exposed by the
/// [`ContractionTree`] extension trait.
///
/// Leaves cross this boundary by value, as `Option<V>`: a `None` leaf is a
/// window slot in which this key did not appear (relevant for the
/// slot-addressed rotating tree; the other structures simply skip absent
/// leaves). Each structure owns what it is handed: the folding, rotating
/// and memo trees move each leaf into their own slab (see
/// [`FoldingTree`](crate::FoldingTree)), where a pass-through node shares
/// its child's slot, and the twin stacks and the coalescing tree hold plain
/// values. Every aggregate leaves a structure as a borrow
/// ([`WindowAggregator::root`], [`WindowAggregator::reduce_parts`]).
pub trait WindowAggregator<K, V>: fmt::Debug + Send {
    /// Discards all state and rebuilds from `leaves` (the paper's *initial
    /// run*). All construction work is charged to the foreground phase.
    fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>);

    /// Slides the window: drops `remove` leaves from the front and appends
    /// `added` at the back, then propagates the change to the root.
    ///
    /// For the rotating tree `remove`/`added` are counted in bucket *slots*;
    /// for all other trees `None` additions are skipped and `remove` counts
    /// present leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the slide violates the tree's window
    /// discipline (see the error variants); the tree is left unchanged.
    fn advance(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError>;

    /// Notifies the tree that the window slid by one slot *without touching
    /// this key*: the dropped slot and the added slot are both absent for
    /// it.
    ///
    /// Only the slot-addressed rotating tree has state to update (its victim
    /// pointer rotates); for every other tree this is a no-op because absent
    /// leaves are never stored.
    ///
    /// # Errors
    ///
    /// The rotating tree returns an error if its victim slot actually holds
    /// a leaf for this key — the host engine failed to report a removal.
    fn advance_absent(&mut self, _cx: &mut TreeCx<'_, K, V>) -> Result<(), TreeError> {
        Ok(())
    }

    /// Splices `values` into the interior of the window so that the first
    /// inserted leaf becomes present-leaf `at` (0 = oldest; `at == len()`
    /// appends). Used for event-time late records: a straggler that belongs
    /// between leaves already aggregated is folded in at its event-time
    /// position instead of the window edge.
    ///
    /// The default declines with [`TreeError::SpliceUnsupported`]; the host
    /// engine then rebuilds the structure from the authoritative window
    /// contents, charging that work to its breakdown. Structures that can do
    /// better (the folding family, strawman) override it with a real range
    /// splice. A declined or out-of-range splice leaves the tree unchanged.
    ///
    /// # Errors
    ///
    /// [`TreeError::SpliceUnsupported`] if the structure has no native
    /// splice; [`TreeError::SpliceOutOfRange`] if `at > len()`.
    fn insert_at(
        &mut self,
        _cx: &mut TreeCx<'_, K, V>,
        _at: usize,
        _values: Vec<V>,
    ) -> Result<(), TreeError> {
        Err(TreeError::SpliceUnsupported {
            kind: self.kind().name(),
        })
    }

    /// Evicts the contiguous range of present leaves `[at, at + count)` from
    /// the interior of the window in one bulk splice (0 = oldest;
    /// `at == 0` degenerates to a front eviction). The event-time engine
    /// uses this for bursty evictions and for retracting late-arrived spans.
    ///
    /// Defaults to [`TreeError::SpliceUnsupported`] exactly like
    /// [`WindowAggregator::insert_at`]; a declined or out-of-range splice
    /// leaves the tree unchanged.
    ///
    /// # Errors
    ///
    /// [`TreeError::SpliceUnsupported`] if the structure has no native
    /// splice; [`TreeError::SpliceOutOfRange`] if `at + count > len()`.
    fn evict_range(
        &mut self,
        _cx: &mut TreeCx<'_, K, V>,
        _at: usize,
        _count: usize,
    ) -> Result<(), TreeError> {
        Err(TreeError::SpliceUnsupported {
            kind: self.kind().name(),
        })
    }

    /// Background pre-processing (§4 split mode): performs deferred and
    /// anticipatory merges off the critical path. A no-op for trees without
    /// split support.
    fn preprocess(&mut self, _cx: &mut TreeCx<'_, K, V>) {}

    /// The single aggregate equivalent to combining the whole window, or
    /// `None` for an empty window.
    ///
    /// In split mode this may force deferred merges conceptually; trees keep
    /// it cheap by returning the most recently produced equivalent root.
    fn root(&self) -> Option<&V>;

    /// The partial aggregates to hand the Reduce task. Usually one part
    /// (the root); the coalescing tree in split mode returns the previous
    /// root plus the fresh delta (§4.2). Empty if the window is empty.
    fn reduce_parts(&self) -> Vec<&V> {
        self.root().into_iter().collect()
    }

    /// Number of present leaves in the window.
    fn len(&self) -> usize;

    /// True if the window holds no present leaves.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memoization footprint in bytes, per the combiner's `value_bytes`:
    /// every distinct memoized allocation counted once. Maintained as the
    /// structure mutates (each write charges [`TreeCx::value_bytes`] of the
    /// value it stores, each drop returns what its write charged), so this
    /// is an O(1) read.
    fn memo_bytes(&self) -> u64;

    /// Every memoized allocation, laid out so the footprint can be recounted
    /// from scratch (the property tests' oracle for
    /// [`WindowAggregator::memo_bytes`]).
    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V>;

    /// Which family member this is.
    fn kind(&self) -> TreeKind;

    /// Deep copy behind the object-safe interface.
    ///
    /// The copy duplicates all state — slot layout, slab, memo caches,
    /// pending repairs — so that the clone and the original **meter
    /// identical work on identical future slides**. Every structure copies
    /// its values.
    ///
    /// This is the checkpoint primitive: rebuilding from window contents
    /// via `rebuild` is answer-equivalent but not stats-canonical (the
    /// reconstructed shape reuses different nodes), so restore paths clone
    /// instead.
    fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>>;
}

/// The memoized allocations of one aggregator, grouped by how its footprint
/// counts them. Built only with the `oracle` feature, for tests that recount
/// [`WindowAggregator::memo_bytes`] from scratch.
#[cfg(feature = "oracle")]
#[derive(Debug)]
pub enum MemoLayout<'a, V> {
    /// Values each counted once per listing (strawman, randomized folding
    /// tree: window leaves and memo-cache entries; coalescing tree: the
    /// root and the pending delta; twin stacks: leaves, suffix aggregates
    /// and running totals).
    Each(Vec<&'a V>),
    /// A binary tree and a value held beside it (folding and rotating
    /// trees).
    Levels {
        /// The levels, leaves first: node `i` of level `h` has the children
        /// `2i` and `2i + 1` of level `h - 1`, and names its slab slot beside
        /// its value. A node that shares a child's slot (a pass-through) is
        /// not counted again.
        levels: Vec<Vec<Option<(u32, &'a V)>>>,
        /// The rotating tree's prepared off-path aggregate, counted whenever
        /// it is prepared.
        prepared: Option<&'a V>,
    },
}

/// Extension contract for aggregators that really are self-adjusting
/// contraction trees: leaf-to-root merge structure with interior nodes that
/// memoize sub-window aggregates.
///
/// Everything the host engine needs lives in [`WindowAggregator`]; this
/// trait carries what only a tree can answer — its current height — and is
/// the hook for future per-level introspection. The constant-time twin-stack
/// aggregators ([`TreeKind::TwoStack`], [`TreeKind::Daba`]) deliberately do
/// **not** implement it.
pub trait ContractionTree<K, V>: WindowAggregator<K, V> {
    /// Current tree height in levels (a single leaf has height 1; an empty
    /// tree has height 0).
    fn height(&self) -> usize;
}

/// Builds a fresh aggregator of the requested kind.
///
/// `capacity` is the number of bucket slots for [`TreeKind::Rotating`]
/// (ignored by the other kinds; pass 0).
pub fn build_tree<K, V>(kind: TreeKind, capacity: usize) -> Box<dyn WindowAggregator<K, V>>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    match kind {
        TreeKind::Strawman => Box::new(StrawmanTree::new()),
        TreeKind::Folding => Box::new(FoldingTree::new()),
        TreeKind::RandomizedFolding => Box::new(RandomizedFoldingTree::new()),
        TreeKind::Rotating => Box::new(RotatingTree::new(capacity.max(1))),
        TreeKind::Coalescing => Box::new(CoalescingTree::new()),
        TreeKind::TwoStack => Box::new(TwoStackTree::new()),
        TreeKind::Daba => Box::new(DabaTree::new()),
    }
}

/// Like [`build_tree`], but restricted to the contraction-tree family, for
/// callers that need tree-only introspection such as
/// [`ContractionTree::height`].
///
/// # Panics
///
/// Panics if `kind` is a constant-time aggregator
/// (`kind.is_constant_time()`) — those have no tree shape to report.
pub fn build_contraction_tree<K, V>(
    kind: TreeKind,
    capacity: usize,
) -> Box<dyn ContractionTree<K, V>>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    match kind {
        TreeKind::Strawman => Box::new(StrawmanTree::new()),
        TreeKind::Folding => Box::new(FoldingTree::new()),
        TreeKind::RandomizedFolding => Box::new(RandomizedFoldingTree::new()),
        TreeKind::Rotating => Box::new(RotatingTree::new(capacity.max(1))),
        TreeKind::Coalescing => Box::new(CoalescingTree::new()),
        TreeKind::TwoStack | TreeKind::Daba => {
            panic!("{kind} is not a contraction tree; use build_tree")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;

    #[test]
    fn kind_names_are_unique() {
        let names: std::collections::HashSet<_> = TreeKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), TreeKind::ALL.len());
    }

    #[test]
    fn split_support_matches_paper() {
        assert!(TreeKind::Rotating.supports_split_processing());
        assert!(TreeKind::Coalescing.supports_split_processing());
        assert!(!TreeKind::Folding.supports_split_processing());
        assert!(!TreeKind::RandomizedFolding.supports_split_processing());
        assert!(!TreeKind::Strawman.supports_split_processing());
        assert!(!TreeKind::TwoStack.supports_split_processing());
        assert!(!TreeKind::Daba.supports_split_processing());
    }

    #[test]
    fn layering_split_matches_family() {
        for kind in TreeKind::ALL {
            assert_ne!(
                kind.is_contraction_tree(),
                kind.is_constant_time(),
                "{kind} must be exactly one of the two layers"
            );
        }
        assert!(TreeKind::Folding.is_contraction_tree());
        assert!(TreeKind::Daba.is_constant_time());
    }

    #[test]
    fn every_kind_round_trips_through_display_and_fromstr() {
        for kind in TreeKind::ALL {
            let shown = kind.to_string();
            assert_eq!(shown, kind.name());
            let parsed: TreeKind = shown.parse().expect("Display form must parse");
            assert_eq!(parsed, kind, "round trip failed for {shown}");
            // Env/config spellings: upper case, underscores, whitespace.
            let env = format!("  {}  ", shown.to_ascii_uppercase().replace('-', "_"));
            assert_eq!(env.parse::<TreeKind>(), Ok(kind), "env form {env:?}");
        }
    }

    #[test]
    fn fromstr_accepts_long_aliases_and_rejects_garbage() {
        assert_eq!(
            "randomized-folding".parse::<TreeKind>(),
            Ok(TreeKind::RandomizedFolding)
        );
        assert_eq!("two-stack".parse::<TreeKind>(), Ok(TreeKind::TwoStack));
        assert!("daba-lite".parse::<TreeKind>().is_err());
        let err = "splay".parse::<TreeKind>().unwrap_err();
        assert!(err.to_string().contains("splay"));
        assert!(err.to_string().contains("daba"));
    }

    #[test]
    fn cx_merge_counts_work() {
        let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b);
        let mut stats = UpdateStats::default();
        let key = 0u8;
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let (out, bytes) = cx.merge(Phase::Foreground, &1, &2);
        assert_eq!((out, bytes), (3, 16));
        assert_eq!(stats.foreground.merges, 1);
        assert_eq!(stats.bytes_written, 16);
    }

    #[test]
    fn cx_fold_handles_empty_and_single() {
        let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b);
        let mut stats = UpdateStats::default();
        let key = 0u8;
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        assert!(cx.fold(Phase::Foreground, Vec::new()).is_none());
        let one = cx.fold(Phase::Foreground, vec![9]).unwrap();
        assert_eq!(one, 9);
        assert_eq!(stats.foreground.merges, 0, "single element folds for free");
    }

    #[test]
    fn splice_support_matches_kind_and_default_declines() {
        let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b);
        for kind in TreeKind::ALL {
            let mut tree = build_tree::<u8, u64>(kind, 4);
            let mut stats = UpdateStats::default();
            let key = 0u8;
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let insert = tree.insert_at(&mut cx, 0, vec![1]);
            let evict = tree.evict_range(&mut cx, 0, 0);
            if kind.supports_splice() {
                assert!(insert.is_ok(), "{kind} insert_at");
                assert!(evict.is_ok(), "{kind} evict_range");
            } else {
                let want = TreeError::SpliceUnsupported { kind: kind.name() };
                assert_eq!(insert, Err(want.clone()), "{kind} insert_at");
                assert_eq!(evict, Err(want), "{kind} evict_range");
                assert!(tree.is_empty(), "{kind} declined splice must not mutate");
            }
        }
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in TreeKind::ALL {
            let tree = build_tree::<u8, u64>(kind, 4);
            assert_eq!(tree.kind(), kind);
            assert_eq!(tree.len(), 0);
            assert!(tree.is_empty());
            assert!(tree.root().is_none());
        }
    }
}
