//! The strawman contraction tree (paper §2.2): a position-paired binary
//! combiner tree with memoization as the *only* reuse mechanism.
//!
//! On every run the tree is re-paired from the current leaf sequence; a
//! node is reused only when the exact (left, right) identity pair was
//! memoized by an earlier run. Because a sliding window removes leaves from
//! the *front*, the pairing alignment of every subsequent leaf shifts and
//! most identities change — so the strawman performs work linear in the
//! window for front-removals, which is precisely the limitation (§2.1) that
//! motivates the self-adjusting trees. It remains efficient for pure
//! appends that preserve alignment and for in-place leaf changes under
//! caller-derived identities ([`StrawmanTree::set_leaves`]), which is why
//! Slider still uses it for the inner stages of multi-job query pipelines
//! (§5).
//!
//! The re-pairing and memoization live in the shared `MemoTree` (see the
//! `memo` module); this module only supplies the pairing rule.

use std::sync::Arc;

use crate::hash::hash_pair;
use crate::memo::{memo_tree, Grouping, MemoTree};
use crate::tree::{TreeCx, TreeKind};

/// Pairs each level by position; a pair's identity is its position in the
/// level plus its children's identities.
#[derive(Clone, Copy)]
struct ByPosition;

impl Grouping for ByPosition {
    fn leaf_salt(self) -> u64 {
        0x5eed_5eed_5eed_5eed
    }

    fn closes(self, _id: u64, _level: u64, members: usize) -> bool {
        members == 2
    }

    fn group_id<V>(self, position: u64, group: &[(u64, Arc<V>)]) -> u64 {
        // Memoization is at *task* granularity: a sub-computation's
        // identity is its position in the dataflow DAG plus its input
        // lineage. A window slide that shifts leaf positions therefore
        // precludes reuse — the §2.1 limitation that motivates the
        // self-adjusting trees.
        hash_pair(position, hash_pair(group[0].0, group[1].0))
    }
}

memo_tree!(
    StrawmanTree,
    ByPosition,
    TreeKind::Strawman,
    "Memoization-only baseline contraction tree. See the module docs."
);

impl<V> StrawmanTree<V> {
    /// Creates an empty strawman tree.
    pub fn new() -> Self {
        StrawmanTree {
            core: MemoTree::new(ByPosition),
        }
    }

    /// Replaces the entire leaf sequence with caller-identified leaves and
    /// recombines, reusing memoized pairings wherever identities align.
    ///
    /// This is the workhorse of multi-level query pipelines (§5): inner
    /// pipeline stages see changes at arbitrary positions, so the caller
    /// derives each leaf's identity from its content lineage (e.g. a bucket
    /// index plus a version counter) and the memo cache confines fresh
    /// combiner work to the paths whose identities changed.
    pub fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, Arc<V>)>) {
        self.core.set_leaves(cx, leaves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::error::TreeError;
    use crate::stats::UpdateStats;
    use crate::tree::{ContractionTree, WindowAggregator};

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<Arc<u64>>> {
        values.iter().map(|v| Some(Arc::new(*v))).collect()
    }

    #[test]
    fn initial_run_computes_total() {
        let combiner = sum_combiner();
        let mut stats = UpdateStats::default();
        let key = 0u8;
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = StrawmanTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4, 5]));
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 15);
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 5);
        // 5 leaves need 4 merges regardless of shape.
        assert_eq!(stats.foreground.merges, 4);
    }

    #[test]
    fn pure_append_reuses_aligned_subtrees() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 0, leaves(&[5, 6])).unwrap();
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 21);
        // (1,2) and (3,4) pairs are unchanged: both reused.
        assert!(stats.reused >= 2, "reused = {}", stats.reused);
        // Only (5,6) and the two upper joins are fresh.
        assert!(
            stats.foreground.merges <= 3,
            "merges = {}",
            stats.foreground.merges
        );
    }

    #[test]
    fn front_removal_degrades_to_linear() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();

        let values: Vec<u64> = (0..64).collect();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&values));

        // Drop one leaf from the front: alignment shifts everywhere.
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, vec![]).unwrap();
        assert_eq!(
            *WindowAggregator::<u8, u64>::root(&tree).unwrap(),
            (0..64).skip(1).sum::<u64>()
        );
        // Nearly every pair is new: the strawman does Θ(n) merges.
        assert!(
            stats.foreground.merges >= 32,
            "merges = {}",
            stats.foreground.merges
        );
    }

    #[test]
    fn remove_too_many_errors_and_preserves_tree() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&[1, 2]));
        let err = tree.advance(&mut cx, 3, vec![]).unwrap_err();
        assert_eq!(
            err,
            TreeError::RemoveExceedsWindow {
                requested: 3,
                window: 2
            }
        );
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 3);
    }

    #[test]
    fn drain_to_empty() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
        tree.advance(&mut cx, 3, vec![]).unwrap();
        assert!(WindowAggregator::<u8, u64>::root(&tree).is_none());
        assert_eq!(ContractionTree::<u8, u64>::height(&tree), 0);
        assert!(WindowAggregator::<u8, u64>::is_empty(&tree));
    }

    #[test]
    fn none_leaves_are_skipped() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(
            &mut cx,
            vec![Some(Arc::new(1)), None, Some(Arc::new(2)), None],
        );
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 2);
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 3);
    }
}
