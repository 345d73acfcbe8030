//! The randomized folding tree (paper §3.2): a skip-list-style contraction
//! tree whose expected height tracks `log2(current window size)` even under
//! drastic window resizes.
//!
//! Instead of folding/unfolding complete binary trees, nodes at each level
//! are grouped probabilistically: every node closes a group boundary with
//! probability ½ (derived deterministically from the node's stable identity,
//! like the tower heights of a skip list [Pugh '90]). Because boundaries
//! depend on identities and not positions, removing leaves at the front or
//! appending at the back only perturbs the boundary groups of each level —
//! all interior groups keep their identity and are reused from the memo
//! cache, giving expected `O(delta + log window)` fresh combiner work.
//! Interior splices likewise only perturb the groups straddling them.
//!
//! The re-contraction and memoization live in the shared `MemoTree` (see
//! the `memo` module); this module only supplies the coin-flip grouping.

use std::sync::Arc;

use crate::hash::hash_pair;
use crate::memo::{memo_tree, Grouping, MemoTree};
use crate::tree::TreeKind;

/// Closes a group on a coin flip per (seed, node, level); a group's
/// identity hashes its members' identities.
#[derive(Clone, Copy)]
struct CoinFlip {
    seed: u64,
}

impl Grouping for CoinFlip {
    fn leaf_salt(self) -> u64 {
        self.seed
    }

    /// True with probability ½, deterministic per (seed, id, level).
    fn closes(self, id: u64, level: u64, _members: usize) -> bool {
        hash_pair(hash_pair(self.seed, id), level) & 1 == 0
    }

    fn group_id<V>(self, _position: u64, group: &[(u64, Arc<V>)]) -> u64 {
        group
            .iter()
            .fold(0xfeed_5eed, |acc, (id, _)| hash_pair(acc, *id))
    }
}

memo_tree!(
    RandomizedFoldingTree,
    CoinFlip,
    TreeKind::RandomizedFolding,
    "Skip-list-style variable-width contraction tree. See the module docs."
);

impl<V> RandomizedFoldingTree<V> {
    /// Creates an empty tree with the default coin-flip seed.
    pub fn new() -> Self {
        Self::with_seed(0x0ddb_a11d_5eed)
    }

    /// Creates an empty tree whose probabilistic grouping is derived from
    /// `seed` (different seeds give different — but equally balanced in
    /// expectation — shapes).
    pub fn with_seed(seed: u64) -> Self {
        RandomizedFoldingTree {
            core: MemoTree::new(CoinFlip { seed }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::stats::UpdateStats;
    use crate::tree::{ContractionTree, TreeCx, WindowAggregator};

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<Arc<u64>>> {
        values.iter().map(|v| Some(Arc::new(*v))).collect()
    }

    fn root_of(tree: &RandomizedFoldingTree<u64>) -> Option<u64> {
        WindowAggregator::<u8, u64>::root(tree).map(|v| *v)
    }

    #[test]
    fn initial_run_aggregates_everything() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RandomizedFoldingTree::new();
        let values: Vec<u64> = (1..=100).collect();
        tree.rebuild(&mut cx, leaves(&values));
        assert_eq!(root_of(&tree), Some(5050));
        // n leaves always take exactly n-1 merges on the initial run.
        assert_eq!(stats.foreground.merges, 99);
    }

    #[test]
    fn expected_height_is_logarithmic() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut heights = Vec::new();
        for seed in 0..20 {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let mut tree = RandomizedFoldingTree::with_seed(seed);
            let values: Vec<u64> = (0..1024).collect();
            tree.rebuild(&mut cx, leaves(&values));
            heights.push(ContractionTree::<u8, u64>::height(&tree));
        }
        let avg = heights.iter().sum::<usize>() as f64 / heights.len() as f64;
        // log2(1024) = 10; allow generous slack around the expectation.
        assert!((8.0..=16.0).contains(&avg), "average height {avg}");
    }

    #[test]
    fn incremental_update_does_sublinear_fresh_work() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RandomizedFoldingTree::new();
        let values: Vec<u64> = (0..4096).collect();
        tree.rebuild(&mut cx, leaves(&values));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 2, leaves(&[9000, 9001])).unwrap();
        let expected: u64 = (2..4096).sum::<u64>() + 9000 + 9001;
        assert_eq!(root_of(&tree), Some(expected));
        // Fresh merges should be far below the window size; groups average
        // two members so a boundary group costs a handful of merges.
        assert!(
            stats.foreground.merges < 256,
            "expected sublinear work, got {} merges for a window of 4096",
            stats.foreground.merges
        );
        assert!(stats.reused > 0);
    }

    #[test]
    fn height_adapts_to_drastic_shrink() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RandomizedFoldingTree::new();
        let values: Vec<u64> = (0..1024).collect();
        tree.rebuild(&mut cx, leaves(&values));
        let tall = ContractionTree::<u8, u64>::height(&tree);

        // Shrink to 16 leaves: height should drop to ~log2(16).
        tree.advance(&mut cx, 1008, vec![]).unwrap();
        let short = ContractionTree::<u8, u64>::height(&tree);
        assert!(short < tall, "height must shrink: {tall} -> {short}");
        assert!(short <= 10, "expected ~log2(16)+slack, got {short}");
        assert_eq!(root_of(&tree), Some((1008..1024).sum::<u64>()));
    }

    #[test]
    fn matches_reference_under_random_slides() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = RandomizedFoldingTree::new();
        let mut reference: std::collections::VecDeque<u64> = std::collections::VecDeque::new();

        let mut next = 0u64;
        for _ in 0..150 {
            let remove = rng.gen_range(0..=reference.len());
            let add = rng.gen_range(0..10usize);
            let added: Vec<u64> = (0..add)
                .map(|_| {
                    next += 1;
                    next * 3
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
            match root_of(&tree) {
                Some(root) => assert_eq!(root, expected),
                None => assert_eq!(expected, 0),
            }
        }
    }

    #[test]
    fn remove_beyond_window_is_rejected() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RandomizedFoldingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2]));
        assert!(tree.advance(&mut cx, 3, vec![]).is_err());
        assert_eq!(root_of(&tree), Some(3));
    }

    #[test]
    fn deterministic_across_identical_histories() {
        let combiner = sum_combiner();
        let key = 0u8;
        let run = || {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let mut tree = RandomizedFoldingTree::with_seed(99);
            tree.rebuild(&mut cx, leaves(&(0..64).collect::<Vec<_>>()));
            tree.advance(&mut cx, 5, leaves(&[100, 200])).unwrap();
            (
                root_of(&tree),
                ContractionTree::<u8, u64>::height(&tree),
                stats,
            )
        };
        assert_eq!(run(), run());
    }
}
