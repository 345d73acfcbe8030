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
//! appends that preserve alignment and for in-place leaf replacement, which
//! is why Slider still uses it for the inner stages of multi-job query
//! pipelines (§5).

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

/// Memoization-only baseline contraction tree. See the module docs.
pub struct StrawmanTree<V> {
    /// Window leaves, oldest first, each with a stable identity.
    leaves: VecDeque<(u64, Arc<V>)>,
    /// Memoized internal nodes keyed by lineage identity.
    cache: MemoCache<V>,
    root: Option<Arc<V>>,
    next_id: u64,
    height: usize,
    /// Modeled bytes of the window leaves (the cache counts its own).
    leaf_bytes: u64,
}

impl<V> StrawmanTree<V> {
    /// Creates an empty strawman tree.
    pub fn new() -> Self {
        StrawmanTree {
            leaves: VecDeque::new(),
            cache: MemoCache::new(),
            root: None,
            next_id: 0,
            height: 0,
            leaf_bytes: 0,
        }
    }

    /// Replaces the leaf at window position `index` in place, *keeping a new
    /// identity*, and recombines. Used by multi-level query pipelines where
    /// inner-stage changes occur at arbitrary positions (§5): alignment of
    /// all other leaves is preserved, so memoization confines recomputation
    /// to one root path.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn replace_leaf<K>(&mut self, cx: &mut TreeCx<'_, K, V>, index: usize, value: Arc<V>)
    where
        V: Send + Sync,
    {
        assert!(
            index < self.leaves.len(),
            "replace_leaf: index out of bounds"
        );
        let id = self.fresh_id();
        self.leaf_bytes += cx.value_bytes(&value);
        let (_, old) = std::mem::replace(&mut self.leaves[index], (id, value));
        self.leaf_bytes -= cx.value_bytes(&old);
        self.recombine(cx);
    }

    /// Replaces the entire leaf sequence with caller-identified leaves and
    /// recombines, reusing memoized pairings wherever identities align.
    ///
    /// This is the workhorse of multi-level query pipelines (§5): inner
    /// pipeline stages see changes at arbitrary positions, so the caller
    /// derives each leaf's identity from its content lineage (e.g. a bucket
    /// index plus a version counter) and the memo cache confines fresh
    /// combiner work to the paths whose identities changed.
    pub fn set_leaves<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<(u64, Arc<V>)>)
    where
        V: Send + Sync,
    {
        let before = self.leaves.len();
        let after = leaves.len();
        if after > before {
            cx.note_added((after - before) as u64);
        } else {
            cx.note_removed((before - after) as u64);
        }
        self.leaf_bytes = leaves.iter().map(|(_, v)| cx.value_bytes(v)).sum();
        self.leaves = leaves.into();
        self.recombine(cx);
    }

    fn fresh_id(&mut self) -> u64 {
        let id = hash_one(self.next_id ^ 0x5eed_5eed_5eed_5eed);
        self.next_id += 1;
        id
    }

    /// Re-pairs the whole leaf sequence bottom-up, reusing memoized nodes.
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
        let mut height = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut chunks = level.chunks_exact(2);
            for (position, pair) in (&mut chunks).enumerate() {
                let (lid, lv) = &pair[0];
                let (rid, rv) = &pair[1];
                // Memoization is at *task* granularity: a sub-computation's
                // identity is its position in the dataflow DAG plus its
                // input lineage. A window slide that shifts leaf positions
                // therefore precludes reuse — the §2.1 limitation that
                // motivates the self-adjusting trees.
                let id = hash_pair(position as u64, hash_pair(*lid, *rid));
                let value = match self.cache.get(id) {
                    Some(v) => {
                        cx.reuse(&v);
                        v
                    }
                    None => {
                        let v = cx.merge(Phase::Foreground, lv, rv);
                        self.cache.put(id, Arc::clone(&v), cx.value_bytes(&v));
                        v
                    }
                };
                next.push((id, value));
            }
            if let [(id, v)] = chunks.remainder() {
                // Odd leaf promotes unchanged — no combiner invocation.
                next.push((*id, Arc::clone(v)));
            }
            level = next;
            height += 1;
        }
        self.root = level.pop().map(|(_, v)| v);
        self.height = height;
        self.cache.sweep();
    }
}

impl<V> Default for StrawmanTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for StrawmanTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrawmanTree")
            .field("leaves", &self.leaves.len())
            .field("height", &self.height)
            .field("cached_nodes", &self.cache.len())
            .finish()
    }
}

impl<V> Clone for StrawmanTree<V> {
    fn clone(&self) -> Self {
        StrawmanTree {
            leaves: self.leaves.clone(),
            cache: self.cache.clone(),
            root: self.root.clone(),
            next_id: self.next_id,
            height: self.height,
            leaf_bytes: self.leaf_bytes,
        }
    }
}

impl<K, V> WindowAggregator<K, V> for StrawmanTree<V>
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
        // Leaves at and after the splice point change pairing position, so
        // memoization naturally confines reuse to the untouched prefix.
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
        TreeKind::Strawman
    }
}

impl<K, V> ContractionTree<K, V> for StrawmanTree<V>
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
    fn replace_leaf_recomputes_one_path() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = StrawmanTree::new();

        let values: Vec<u64> = (0..32).collect();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&values));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.replace_leaf(&mut cx, 7, Arc::new(100));
        let expected: u64 = (0..32).map(|v| if v == 7 { 100 } else { v }).sum();
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), expected);
        // Only the log-depth path to the root is recomputed.
        assert!(
            stats.foreground.merges <= 5,
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
