//! The self-adjusting folding contraction tree (paper §3.1): the general
//! variable-width sliding-window structure.
//!
//! The tree is a complete binary tree over a power-of-two array of leaf
//! slots. Live leaves occupy a contiguous slot range; slots to the left of
//! the range are *void* (dropped by earlier slides) and slots to the right
//! are void slots awaiting future appends. Appending past the last slot
//! *unfolds* the tree (a fresh complete tree of equal size is merged in as
//! the right child of a new root, increasing the height by one); when the
//! entire left half of the leaf level becomes void the tree *folds* (the
//! right child of the root is promoted, decreasing the height by one).
//!
//! Because live leaves never move between slots, a slide only dirties the
//! slots it touches and change propagation recomputes exactly the paths
//! from dirtied slots to the root — `O(delta · log window)` combiner
//! invocations — while every off-path node is reused from its in-place
//! memoized value.
//!
//! The levels, their slab and the change propagation are the binary-tree
//! core this tree shares with the rotating tree (see the `levels` module);
//! this module keeps the slot policy: the live range, unfolding, folding,
//! the rebuild factor and the splices.

use std::fmt;

use crate::error::TreeError;
use crate::levels::Levels;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{ContractionTree, TreeCx, TreeKind, WindowAggregator};

/// Variable-width self-adjusting contraction tree. See the module docs.
#[derive(Clone)]
pub struct FoldingTree<V> {
    /// The binary tree and the slab of its values.
    core: Levels<V>,
    /// First live slot: slots `start..start+len` hold the window.
    start: usize,
    /// Number of live leaves.
    len: usize,
    /// If set, a full rebuild (fresh initial run) is triggered whenever the
    /// slot capacity exceeds `factor × window size` — the simple rebalancing
    /// strategy §3.2 describes for workloads where drastic shrinks are rare.
    rebuild_factor: Option<u32>,
}

impl<V> FoldingTree<V> {
    /// Creates an empty folding tree that never voluntarily rebuilds.
    pub fn new() -> Self {
        FoldingTree {
            core: Levels::new(1),
            start: 0,
            len: 0,
            rebuild_factor: None,
        }
    }

    /// Creates a folding tree that performs a fresh initial run whenever the
    /// leaf capacity grows beyond `factor` times the live window size
    /// (paper §3.2 suggests 8 or 16).
    pub fn with_rebuild_factor(factor: u32) -> Self {
        let mut tree = Self::new();
        tree.rebuild_factor = Some(factor.max(2));
        tree
    }

    /// Current leaf-slot capacity (always a power of two).
    pub fn capacity(&self) -> usize {
        self.core.width()
    }

    fn end(&self) -> usize {
        self.start + self.len
    }

    /// Resets to the canonical empty state.
    fn clear(&mut self) {
        self.core.clear();
        self.start = 0;
        self.len = 0;
    }

    /// Doubles the capacity: the current tree becomes the left child of a
    /// new root; the right half starts void.
    fn unfold(&mut self) {
        let cap = self.capacity();
        let core = &mut self.core;
        for level in &mut core.levels {
            level.resize(2 * level.len(), None);
        }
        // New root level: left child is the old root, right child void, so
        // the new root passes the old one through.
        let old_root = core.levels.last().and_then(|l| l[0]);
        let root = old_root.map(|h| core.slab.share(h));
        core.levels.push(vec![root]);
        debug_assert_eq!(self.capacity(), cap * 2);
    }

    /// Halves the capacity by promoting the right child of the root, valid
    /// only when the whole left half of the leaf level is void. The dropped
    /// nodes (possibly stale until the caller propagates) release their
    /// values, and the dirty slots shift with the kept half.
    fn fold(&mut self) {
        let half = self.capacity() / 2;
        debug_assert!(self.start >= half, "fold requires a void left half");
        let core = &mut self.core;
        let root = core.levels.pop().expect("a tree has a root level");
        for handle in root.into_iter().flatten() {
            core.slab.release(handle);
        }
        for level in &mut core.levels {
            let keep = level.len() / 2;
            for handle in level.drain(..keep).flatten() {
                core.slab.release(handle);
            }
        }
        // Voided slots in the dropped half no longer exist: their removal
        // is subsumed by discarding the root that referenced them.
        core.dirty
            .retain_mut(|i| i.checked_sub(half).map(|shifted| *i = shifted).is_some());
        self.start -= half;
    }

    /// Brings the interior up to date after a slide or an eviction: folds
    /// while the whole left half of the leaf level is void, then rebuilds
    /// if the rebuild factor calls for it, or else propagates the dirty
    /// slots.
    fn settle<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        while self.capacity() > 1 && self.start >= self.capacity() / 2 {
            self.fold();
        }
        // Simple rebalancing strategy (§3.2): rebuild when the tree is far
        // taller than the window warrants. The live leaves keep their slab
        // slots; every interior node is made afresh.
        if let Some(factor) = self.rebuild_factor {
            let factor = usize::try_from(factor).unwrap_or(usize::MAX);
            if self.capacity() > factor.saturating_mul(self.len.max(1)) {
                let live = self.start..self.end();
                let core = &mut self.core;
                core.dirty.clear();
                for level in core.levels.drain(1..) {
                    for handle in level.into_iter().flatten() {
                        core.slab.release(handle);
                    }
                }
                let leaves = core.levels[0][live].to_vec();
                core.build(cx, leaves, self.len.max(1).next_power_of_two());
                self.start = 0;
                return;
            }
        }
        self.core.propagate(cx, Phase::Foreground);
    }
}

impl<V> Default for FoldingTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for FoldingTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldingTree")
            .field("capacity", &self.capacity())
            .field("start", &self.start)
            .field("len", &self.len)
            .field("levels", &self.core.levels.len())
            .finish()
    }
}

impl<K, V> WindowAggregator<K, V> for FoldingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
        Box::new(self.clone())
    }

    fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, mut leaves: Vec<Option<V>>) {
        leaves.retain(Option::is_some);
        cx.note_added(leaves.len() as u64);
        self.start = 0;
        self.len = leaves.len();
        let width = self.len.max(1).next_power_of_two();
        self.core.rebuild(cx, leaves, width);
    }

    fn advance(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError> {
        if remove > self.len {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: self.len,
            });
        }
        let count = added.iter().flatten().count();
        cx.note_removed(remove as u64);
        cx.note_added(count as u64);

        // Drop the oldest `remove` leaves: mark their slots void.
        for i in self.start..self.start + remove {
            self.core.set_leaf(cx, i, None);
        }
        self.start += remove;
        self.len -= remove;

        if self.len == 0 && count == 0 {
            self.clear();
            return Ok(());
        }

        // Append new leaves, unfolding whenever the slots run out. Unfolding
        // preserves existing slot indices, so pending dirty entries stay
        // valid.
        for value in added.into_iter().flatten() {
            if self.end() == self.capacity() {
                self.unfold();
            }
            self.core.set_leaf(cx, self.end(), Some(value));
            self.len += 1;
        }
        self.settle(cx);
        Ok(())
    }

    fn insert_at(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        values: Vec<V>,
    ) -> Result<(), TreeError> {
        if at > self.len {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count: values.len(),
                window: self.len,
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        let k = values.len();
        cx.note_added(k as u64);
        let a = self.start;
        let suffix = self.len - at;
        if a >= k && at <= suffix {
            // Shift the (smaller) prefix left by `k`: the vacated gap
            // `[a - k + at, a + at)` receives the new leaves. Ascending
            // order is safe because every target slot precedes its source.
            for i in a..a + at {
                self.core.move_leaf(i, i - k);
            }
            for (j, v) in values.into_iter().enumerate() {
                self.core.set_leaf(cx, a - k + at + j, Some(v));
            }
            self.start = a - k;
            self.len += k;
        } else {
            // Shift the suffix right by `k`, unfolding for room. Descending
            // order is safe because every target slot follows its source.
            while self.end() + k > self.capacity() {
                self.unfold();
            }
            for i in (a + at..a + self.len).rev() {
                self.core.move_leaf(i, i + k);
            }
            for (j, v) in values.into_iter().enumerate() {
                self.core.set_leaf(cx, a + at + j, Some(v));
            }
            self.len += k;
        }
        self.core.propagate(cx, Phase::Foreground);
        Ok(())
    }

    fn evict_range(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        count: usize,
    ) -> Result<(), TreeError> {
        if at.checked_add(count).is_none_or(|end| end > self.len) {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count,
                window: self.len,
            });
        }
        if count == 0 {
            return Ok(());
        }
        cx.note_removed(count as u64);
        let a = self.start;
        let suffix = self.len - at - count;
        // Void the evicted range, then close the gap by shifting whichever
        // side is smaller.
        for i in a + at..a + at + count {
            self.core.set_leaf(cx, i, None);
        }
        if at <= suffix {
            for i in (a..a + at).rev() {
                self.core.move_leaf(i, i + count);
            }
            self.start = a + count;
        } else {
            for i in a + at + count..a + self.len {
                self.core.move_leaf(i, i - count);
            }
        }
        self.len -= count;
        if self.len == 0 {
            self.clear();
            return Ok(());
        }
        // A prefix shift may push `start` across the midpoint: `settle`
        // folds as `advance` does.
        self.settle(cx);
        Ok(())
    }

    fn root(&self) -> Option<&V> {
        if self.len == 0 {
            None
        } else {
            self.core.root()
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memo_bytes(&self) -> u64 {
        self.core.slab.bytes()
    }

    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V> {
        self.core.memo_layout(None)
    }

    fn kind(&self) -> TreeKind {
        TreeKind::Folding
    }
}

impl<K, V> ContractionTree<K, V> for FoldingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn height(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.core.levels.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::slab::Handle;
    use crate::stats::UpdateStats;

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<u64>> {
        values.iter().copied().map(Some).collect()
    }

    fn root_of(tree: &FoldingTree<u64>) -> u64 {
        *WindowAggregator::<u8, u64>::root(tree).unwrap()
    }

    #[test]
    fn initial_run_pads_to_power_of_two() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
        assert_eq!(tree.capacity(), 4);
        assert_eq!(root_of(&tree), 6);
        assert_eq!(ContractionTree::<u8, u64>::height(&tree), 3);
    }

    #[test]
    fn paper_figure_2_scenario() {
        // T1: add {0,1,2}; T2: add {3,4}, remove {0}; T3: add {5,6,7},
        // remove {1,2,3}.
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();

        tree.rebuild(&mut cx, leaves(&[10, 11, 12])); // values for items 0,1,2
        assert_eq!(tree.capacity(), 4);
        assert_eq!(root_of(&tree), 33);

        // T2: insert 3 & 4 — node 4 forces an unfold to capacity 8.
        tree.advance(&mut cx, 1, leaves(&[13, 14])).unwrap();
        assert_eq!(tree.capacity(), 8);
        assert_eq!(ContractionTree::<u8, u64>::height(&tree), 4);
        assert_eq!(root_of(&tree), 11 + 12 + 13 + 14);

        // T3: remove items 1,2,3 — left half all void, tree folds.
        tree.advance(&mut cx, 3, leaves(&[15, 16, 17])).unwrap();
        assert_eq!(tree.capacity(), 4);
        assert_eq!(ContractionTree::<u8, u64>::height(&tree), 3);
        assert_eq!(root_of(&tree), 14 + 15 + 16 + 17);
    }

    #[test]
    fn incremental_update_is_logarithmic() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        let values: Vec<u64> = (0..1024).collect();
        tree.rebuild(&mut cx, leaves(&values));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, leaves(&[5000])).unwrap();
        assert_eq!(root_of(&tree), (1..1024).sum::<u64>() + 5000);
        // Two touched paths of height ≤ 11 each.
        assert!(
            stats.foreground.merges <= 22,
            "merges = {}",
            stats.foreground.merges
        );
        assert!(stats.reused > 0);
    }

    #[test]
    fn matches_reference_under_random_slides() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = FoldingTree::new();
        let mut reference: std::collections::VecDeque<u64> = std::collections::VecDeque::new();

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, vec![]);

        let mut next = 0u64;
        for _ in 0..200 {
            let remove = rng.gen_range(0..=reference.len());
            let add = rng.gen_range(0..8usize);
            let added: Vec<u64> = (0..add)
                .map(|_| {
                    next += 1;
                    next
                })
                .collect();
            for _ in 0..remove {
                reference.pop_front();
            }
            reference.extend(added.iter().copied());

            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, remove, leaves(&added)).unwrap();
            let expected: u64 = reference.iter().sum();
            match WindowAggregator::<u8, u64>::root(&tree) {
                Some(root) => assert_eq!(*root, expected),
                None => assert_eq!(expected, 0),
            }
            assert_eq!(WindowAggregator::<u8, u64>::len(&tree), reference.len());
        }
    }

    #[test]
    fn drastic_shrink_leaves_tree_tall_without_rebuild_factor() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);

        let mut tree = FoldingTree::new();
        let values: Vec<u64> = (0..1024).collect();
        tree.rebuild(&mut cx, leaves(&values));
        // Slide into steady state so the window is not left-aligned.
        tree.advance(&mut cx, 512, leaves(&(0..512).collect::<Vec<_>>()))
            .unwrap();
        // Now shrink hard: 1008 of 1024 leaves removed.
        tree.advance(&mut cx, 1008, vec![]).unwrap();
        let height = ContractionTree::<u8, u64>::height(&tree);
        let optimal = usize::try_from(16usize.ilog2()).unwrap() + 1;
        assert!(
            height > optimal,
            "plain folding tree should stay imbalanced: height {height} vs optimal {optimal}"
        );
    }

    #[test]
    fn rebuild_factor_restores_balance() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);

        let mut tree = FoldingTree::with_rebuild_factor(8);
        let values: Vec<u64> = (0..1024).collect();
        tree.rebuild(&mut cx, leaves(&values));
        tree.advance(&mut cx, 512, leaves(&(0..512).collect::<Vec<_>>()))
            .unwrap();
        tree.advance(&mut cx, 1008, vec![]).unwrap();
        let height = ContractionTree::<u8, u64>::height(&tree);
        assert!(
            height <= 6,
            "rebuild factor should rebalance: height {height}"
        );
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 16);
    }

    #[test]
    fn empty_after_drain_and_refill() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
        tree.advance(&mut cx, 4, vec![]).unwrap();
        assert!(WindowAggregator::<u8, u64>::is_empty(&tree));
        assert!(WindowAggregator::<u8, u64>::root(&tree).is_none());
        tree.advance(&mut cx, 0, leaves(&[7])).unwrap();
        assert_eq!(root_of(&tree), 7);
    }

    #[test]
    fn remove_more_than_window_is_rejected() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1]));
        assert!(matches!(
            tree.advance(&mut cx, 2, vec![]),
            Err(TreeError::RemoveExceedsWindow {
                requested: 2,
                window: 1
            })
        ));
        assert_eq!(root_of(&tree), 1);
    }

    /// Checks every structural invariant the folding tree relies on: the
    /// live slot range matches `reference` exactly, every slot outside it is
    /// void, and **every** internal node equals a bottom-up recomputation
    /// from the leaf level. A dirty-slot remap bug (a live slot dropped from
    /// the dirty set during a half-fold, or a subsumed void slot remapped
    /// onto a live one) leaves a stale internal node that this catches.
    fn assert_internally_consistent(
        tree: &FoldingTree<u64>,
        reference: &std::collections::VecDeque<u64>,
    ) {
        assert_eq!(tree.len, reference.len(), "live leaf count");
        assert!(
            tree.start + tree.len <= tree.capacity(),
            "window range exceeds capacity"
        );
        let levels = &tree.core.levels;
        for (i, slot) in levels[0].iter().enumerate() {
            let live = i >= tree.start && i < tree.start + tree.len;
            assert_eq!(
                slot.is_some(),
                live,
                "slot {i} liveness (start {}, len {})",
                tree.start,
                tree.len
            );
        }
        let value = |slot: Option<Handle>| slot.map(|h| *tree.core.slab.get(h));
        for (i, want) in reference.iter().enumerate() {
            let got = value(levels[0][tree.start + i]);
            assert_eq!(got, Some(*want), "leaf {i} value");
        }
        for h in 1..levels.len() {
            assert_eq!(levels[h].len() * 2, levels[h - 1].len(), "level {h} width");
            for (i, &node) in levels[h].iter().enumerate() {
                let left = levels[h - 1][2 * i];
                let right = levels[h - 1][2 * i + 1];
                let want = match (value(left), value(right)) {
                    (Some(l), Some(r)) => Some(l + r),
                    (Some(l), None) => Some(l),
                    (None, Some(r)) => Some(r),
                    (None, None) => None,
                };
                assert_eq!(
                    value(node),
                    want,
                    "internal node (level {h}, index {i}) is stale"
                );
                // A pass-through shares its only child's slot.
                if left.is_none() || right.is_none() {
                    assert_eq!(node, left.or(right), "pass-through (level {h}, index {i})");
                }
            }
        }
        assert!(tree.core.dirty.is_empty(), "no dirty slot outlives an edit");
    }

    #[test]
    fn insert_at_splices_at_every_position() {
        let combiner = sum_combiner();
        let key = 0u8;
        for at in 0..=4usize {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let mut tree = FoldingTree::new();
            tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
            // Slide off-origin first so both shift directions get exercised.
            tree.advance(&mut cx, 2, leaves(&[5, 6])).unwrap();
            // Window is now [3, 4, 5, 6].
            tree.insert_at(&mut cx, at, vec![100, 200]).unwrap();
            let mut reference: std::collections::VecDeque<u64> = [3, 4, 5, 6].into();
            reference.insert(at, 200);
            reference.insert(at, 100);
            assert_internally_consistent(&tree, &reference);
            assert_eq!(root_of(&tree), reference.iter().sum::<u64>(), "at {at}");
        }
    }

    #[test]
    fn evict_range_splices_at_every_position() {
        let combiner = sum_combiner();
        let key = 0u8;
        for at in 0..=4usize {
            for count in 0..=(6 - at) {
                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                let mut tree = FoldingTree::new();
                tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
                tree.advance(&mut cx, 2, leaves(&[5, 6, 7, 8])).unwrap();
                // Window is now [3, 4, 5, 6, 7, 8].
                tree.evict_range(&mut cx, at, count).unwrap();
                let mut reference: std::collections::VecDeque<u64> = [3, 4, 5, 6, 7, 8].into();
                reference.drain(at..at + count);
                if reference.is_empty() {
                    assert!(WindowAggregator::<u8, u64>::root(&tree).is_none());
                    assert!(WindowAggregator::<u8, u64>::is_empty(&tree));
                } else {
                    assert_internally_consistent(&tree, &reference);
                    assert_eq!(
                        root_of(&tree),
                        reference.iter().sum::<u64>(),
                        "at {at} count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn splice_out_of_range_is_rejected_and_preserves_tree() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
        assert_eq!(
            tree.insert_at(&mut cx, 4, vec![9]),
            Err(TreeError::SpliceOutOfRange {
                at: 4,
                count: 1,
                window: 3
            })
        );
        assert_eq!(
            tree.evict_range(&mut cx, 2, 2),
            Err(TreeError::SpliceOutOfRange {
                at: 2,
                count: 2,
                window: 3
            })
        );
        assert_eq!(root_of(&tree), 6);
        let reference: std::collections::VecDeque<u64> = [1, 2, 3].into();
        assert_internally_consistent(&tree, &reference);
    }

    #[test]
    fn interior_splice_work_is_logarithmic() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        let values: Vec<u64> = (0..1024).collect();
        tree.rebuild(&mut cx, leaves(&values));
        // Slide into steady state: the evicted prefix leaves void slots the
        // interior splice can shift into.
        tree.advance(&mut cx, 512, leaves(&(1024..1536).collect::<Vec<_>>()))
            .unwrap();

        // An interior insert near the front shifts the 3-leaf prefix into
        // the void, not the 1021-leaf suffix, and recomputes only the
        // touched root paths.
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.insert_at(&mut cx, 3, vec![5000]).unwrap();
        assert_eq!(root_of(&tree), (512..1536).sum::<u64>() + 5000);
        assert!(
            stats.foreground.merges <= 60,
            "interior splice should be O(shift + log n): {} merges",
            stats.foreground.merges
        );
        assert!(stats.reused > 0);
    }

    mod splice_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of a mixed in-order/out-of-order history.
        #[derive(Debug, Clone)]
        enum Op {
            Advance { remove: usize, add: Vec<u64> },
            InsertAt { at: usize, values: Vec<u64> },
            EvictRange { at: usize, count: usize },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0usize..24, proptest::collection::vec(1u64..1_000, 0..8))
                    .prop_map(|(remove, add)| Op::Advance { remove, add }),
                (0usize..24, proptest::collection::vec(1u64..1_000, 0..6))
                    .prop_map(|(at, values)| Op::InsertAt { at, values }),
                (0usize..24, 0usize..8).prop_map(|(at, count)| Op::EvictRange { at, count }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Satellite regression for the half-fold dirty-slot remap
            /// (`checked_sub(half)`): across random interleavings of
            /// window-shrinking advances (which fold), window-growing
            /// advances (which unfold), rebuild-factor rebuilds, and both
            /// splice directions, every internal node must always equal the
            /// bottom-up recomputation from the leaves. A remap that drops a
            /// live dirty slot — or keeps one the discarded root subsumed —
            /// leaves a stale node that the full-tree check pins down.
            #[test]
            fn dirty_remap_keeps_every_internal_node_fresh(
                factor in proptest::option::of(2u32..10),
                initial in proptest::collection::vec(1u64..1_000, 0..32),
                ops in proptest::collection::vec(op_strategy(), 0..40),
            ) {
                let combiner = sum_combiner();
                let key = 0u8;
                let mut tree = match factor {
                    Some(f) => FoldingTree::with_rebuild_factor(f),
                    None => FoldingTree::new(),
                };
                let mut reference: std::collections::VecDeque<u64> =
                    initial.iter().copied().collect();

                let mut stats = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.rebuild(&mut cx, leaves(&initial));
                assert_internally_consistent(&tree, &reference);

                for op in ops {
                    let mut stats = UpdateStats::default();
                    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                    match op {
                        Op::Advance { remove, add } => {
                            let remove = remove.min(reference.len());
                            for _ in 0..remove {
                                reference.pop_front();
                            }
                            reference.extend(add.iter().copied());
                            tree.advance(&mut cx, remove, leaves(&add)).unwrap();
                        }
                        Op::InsertAt { at, values } => {
                            let at = at.min(reference.len());
                            for (j, v) in values.iter().enumerate() {
                                reference.insert(at + j, *v);
                            }
                            tree.insert_at(&mut cx, at, values).unwrap();
                        }
                        Op::EvictRange { at, count } => {
                            let at = at.min(reference.len());
                            let count = count.min(reference.len() - at);
                            reference.drain(at..at + count);
                            tree.evict_range(&mut cx, at, count).unwrap();
                        }
                    }
                    if reference.is_empty() {
                        prop_assert!(WindowAggregator::<u8, u64>::root(&tree).is_none());
                    } else {
                        assert_internally_consistent(&tree, &reference);
                        prop_assert_eq!(root_of(&tree), reference.iter().sum::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn memo_bytes_counts_distinct_nodes() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = FoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
        // 3 leaves + C(1,2) + pass-through(3) + root = 5 distinct * 16 bytes.
        let bytes = WindowAggregator::<u8, u64>::memo_bytes(&tree);
        assert_eq!(bytes, 5 * 16);
    }
}
