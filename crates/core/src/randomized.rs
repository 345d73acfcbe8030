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

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::error::TreeError;
use crate::hash::{hash_one, hash_pair};
use crate::memo::MemoCache;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{ContractionTree, TreeCx, TreeKind, WindowAggregator};

/// Skip-list-style variable-width contraction tree. See the module docs.
pub struct RandomizedFoldingTree<V> {
    leaves: VecDeque<(u64, Arc<V>)>,
    cache: MemoCache<V>,
    root: Option<Arc<V>>,
    next_id: u64,
    height: usize,
    seed: u64,
    /// Modeled bytes of the window leaves (the cache counts its own).
    leaf_bytes: u64,
}

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
            leaves: VecDeque::new(),
            cache: MemoCache::new(),
            root: None,
            next_id: 0,
            height: 0,
            seed,
            leaf_bytes: 0,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = hash_one(self.next_id ^ self.seed);
        self.next_id += 1;
        id
    }

    /// The coin flip: does the node with identity `id` close a group at
    /// `level`? True with probability ½, deterministic per (seed, id, level).
    fn closes_group(&self, id: u64, level: u64) -> bool {
        hash_pair(hash_pair(self.seed, id), level) & 1 == 0
    }

    /// Recomputes all levels bottom-up, reusing memoized groups.
    fn recombine<K>(&mut self, cx: &mut TreeCx<'_, K, V>)
    where
        V: Send + Sync,
    {
        if self.leaves.is_empty() {
            self.root = None;
            self.height = 0;
            self.cache.sweep();
            return;
        }
        let mut level: Vec<(u64, Arc<V>)> = self
            .leaves
            .iter()
            .map(|(id, v)| (*id, Arc::clone(v)))
            .collect();
        let mut level_no = 0u64;
        let mut height = 1usize;
        while level.len() > 1 {
            let next = self.contract_level(cx, &level, level_no);
            // Safety valve: if every node formed a singleton group the level
            // would not shrink; force plain pairing to guarantee progress.
            let next = if next.len() == level.len() {
                self.pair_level(cx, &level)
            } else {
                next
            };
            level = next;
            level_no += 1;
            height += 1;
        }
        self.root = level.pop().map(|(_, v)| v);
        self.height = height;
        self.cache.sweep();
    }

    /// One probabilistic contraction step.
    fn contract_level<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        level: &[(u64, Arc<V>)],
        level_no: u64,
    ) -> Vec<(u64, Arc<V>)>
    where
        V: Send + Sync,
    {
        let mut next = Vec::with_capacity(level.len() / 2 + 1);
        let mut group: Vec<&(u64, Arc<V>)> = Vec::new();
        for node in level {
            group.push(node);
            if self.closes_group(node.0, level_no) {
                next.push(self.emit_group(cx, &group));
                group.clear();
            }
        }
        if !group.is_empty() {
            next.push(self.emit_group(cx, &group));
        }
        next
    }

    /// Deterministic pairwise contraction used as the no-progress fallback.
    fn pair_level<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        level: &[(u64, Arc<V>)],
    ) -> Vec<(u64, Arc<V>)>
    where
        V: Send + Sync,
    {
        level
            .chunks(2)
            .map(|pair| {
                let refs: Vec<&(u64, Arc<V>)> = pair.iter().collect();
                self.emit_group(cx, &refs)
            })
            .collect()
    }

    /// Produces the parent node of a group, via the memo cache.
    fn emit_group<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        group: &[&(u64, Arc<V>)],
    ) -> (u64, Arc<V>)
    where
        V: Send + Sync,
    {
        if let [(id, value)] = group {
            // Singleton groups promote unchanged — identity is preserved so
            // upper levels keep their memoized structure.
            return (*id, Arc::clone(value));
        }
        let id = group
            .iter()
            .fold(0xfeed_5eed, |acc, (mid, _)| hash_pair(acc, *mid));
        if let Some(v) = self.cache.get(id) {
            cx.reuse(&v);
            return (id, v);
        }
        let mut acc = Arc::clone(&group[0].1);
        for (_, v) in &group[1..] {
            acc = cx.merge(Phase::Foreground, &acc, v);
        }
        self.cache.put(id, Arc::clone(&acc), cx.value_bytes(&acc));
        (id, acc)
    }
}

impl<V> Default for RandomizedFoldingTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for RandomizedFoldingTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomizedFoldingTree")
            .field("leaves", &self.leaves.len())
            .field("height", &self.height)
            .field("cached_nodes", &self.cache.len())
            .finish()
    }
}

impl<V> Clone for RandomizedFoldingTree<V> {
    fn clone(&self) -> Self {
        RandomizedFoldingTree {
            leaves: self.leaves.clone(),
            cache: self.cache.clone(),
            root: self.root.clone(),
            next_id: self.next_id,
            height: self.height,
            seed: self.seed,
            leaf_bytes: self.leaf_bytes,
        }
    }
}

impl<K, V> WindowAggregator<K, V> for RandomizedFoldingTree<V>
where
    K: Send + 'static,
    V: Send + Sync + 'static,
{
    fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
        Box::new(self.clone())
    }

    fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<Arc<V>>>) {
        self.leaves.clear();
        self.cache = MemoCache::new();
        self.leaf_bytes = 0;
        for value in leaves.into_iter().flatten() {
            let id = self.fresh_id();
            self.leaf_bytes += cx.value_bytes(&value);
            self.leaves.push_back((id, value));
            cx.note_added(1);
        }
        self.recombine(cx);
    }

    fn advance(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<Arc<V>>>,
    ) -> Result<(), TreeError> {
        if remove > self.leaves.len() {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: self.leaves.len(),
            });
        }
        for (_, value) in self.leaves.drain(..remove) {
            self.leaf_bytes -= cx.value_bytes(&value);
            cx.note_removed(1);
        }
        for value in added.into_iter().flatten() {
            let id = self.fresh_id();
            self.leaf_bytes += cx.value_bytes(&value);
            self.leaves.push_back((id, value));
            cx.note_added(1);
        }
        self.recombine(cx);
        Ok(())
    }

    fn insert_at(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        values: Vec<Arc<V>>,
    ) -> Result<(), TreeError> {
        if at > self.leaves.len() {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count: values.len(),
                window: self.leaves.len(),
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        cx.note_added(values.len() as u64);
        for (j, value) in values.into_iter().enumerate() {
            let id = self.fresh_id();
            self.leaf_bytes += cx.value_bytes(&value);
            self.leaves.insert(at + j, (id, value));
        }
        // Group boundaries hang off identities, not positions, so the
        // interior splice only perturbs the groups straddling it — all
        // other groups keep their identity and are reused from the cache.
        self.recombine(cx);
        Ok(())
    }

    fn evict_range(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        at: usize,
        count: usize,
    ) -> Result<(), TreeError> {
        if at
            .checked_add(count)
            .is_none_or(|end| end > self.leaves.len())
        {
            return Err(TreeError::SpliceOutOfRange {
                at,
                count,
                window: self.leaves.len(),
            });
        }
        if count == 0 {
            return Ok(());
        }
        cx.note_removed(count as u64);
        for (_, value) in self.leaves.drain(at..at + count) {
            self.leaf_bytes -= cx.value_bytes(&value);
        }
        self.recombine(cx);
        Ok(())
    }

    fn root(&self) -> Option<Arc<V>> {
        self.root.clone()
    }

    fn len(&self) -> usize {
        self.leaves.len()
    }

    fn memo_bytes(&self) -> u64 {
        self.cache.bytes() + self.leaf_bytes
    }

    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<V> {
        let leaves = self.leaves.iter().map(|(_, v)| v);
        MemoLayout::Each(leaves.chain(self.cache.values()).cloned().collect())
    }

    fn kind(&self) -> TreeKind {
        TreeKind::RandomizedFolding
    }
}

impl<K, V> ContractionTree<K, V> for RandomizedFoldingTree<V>
where
    K: Send + 'static,
    V: Send + Sync + 'static,
{
    fn height(&self) -> usize {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::stats::UpdateStats;

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
