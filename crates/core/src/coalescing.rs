//! The coalescing contraction tree (paper §4.2) for append-only windows,
//! with optional split (background/foreground) processing.
//!
//! The window only ever grows, so the whole history coalesces into a single
//! running aggregate. In *foreground-only* mode each run combines the new
//! data's aggregate into the root on the critical path. In *split* mode the
//! foreground hands the Reduce task the union of the previous root and the
//! fresh delta (no root merge on the critical path); the root is coalesced
//! with the delta in the background afterwards, paving the way for the next
//! run (Figure 5(b)).

use std::fmt;

use crate::error::TreeError;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{ContractionTree, TreeCx, TreeKind, WindowAggregator};

/// Append-only coalescing contraction tree. See the module docs.
#[derive(Clone)]
pub struct CoalescingTree<V> {
    /// Aggregate of every leaf coalesced so far.
    root: Option<V>,
    /// Delta awaiting background coalescing (split mode only).
    pending: Option<V>,
    /// Modeled bytes of `root`; with `pending_bytes`, the footprint.
    root_bytes: u64,
    /// Modeled bytes of `pending`.
    pending_bytes: u64,
    /// Whether split processing is enabled.
    split: bool,
    /// Total number of appended leaves.
    len: usize,
}

impl<V> CoalescingTree<V> {
    /// Creates an empty tree in foreground-only mode.
    pub fn new() -> Self {
        CoalescingTree {
            root: None,
            pending: None,
            root_bytes: 0,
            pending_bytes: 0,
            split: false,
            len: 0,
        }
    }

    /// Creates an empty tree with split processing enabled: the root merge
    /// of each run is deferred to [`CoalescingTree::preprocess`] and the
    /// Reduce task receives two parts.
    pub fn with_split_processing() -> Self {
        CoalescingTree {
            split: true,
            ..Self::new()
        }
    }

    /// Whether split processing is enabled.
    pub fn split_processing(&self) -> bool {
        self.split
    }

    /// Folds `delta` into the root (merging in `phase` when a root exists).
    fn coalesce<K>(&mut self, cx: &mut TreeCx<'_, K, V>, phase: Phase, delta: V) {
        let (root, bytes) = match &self.root {
            Some(root) => cx.merge(phase, root, &delta),
            None => {
                let bytes = cx.value_bytes(&delta);
                (delta, bytes)
            }
        };
        self.root_bytes = bytes;
        self.root = Some(root);
    }

    /// Coalesces the pending delta, if any, charging `phase`.
    fn flush_pending<K>(&mut self, cx: &mut TreeCx<'_, K, V>, phase: Phase) {
        if let Some(pending) = self.pending.take() {
            self.pending_bytes = 0;
            self.coalesce(cx, phase, pending);
        }
    }
}

impl<V> Default for CoalescingTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for CoalescingTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoalescingTree")
            .field("len", &self.len)
            .field("split", &self.split)
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

impl<K, V> WindowAggregator<K, V> for CoalescingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + 'static,
{
    fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
        Box::new(self.clone())
    }

    fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
        self.len = leaves.iter().flatten().count();
        cx.note_added(self.len as u64);
        self.pending = None;
        self.pending_bytes = 0;
        self.root = cx.fold(Phase::Foreground, leaves.into_iter().flatten());
        self.root_bytes = self.root.as_ref().map_or(0, |v| cx.value_bytes(v));
    }

    fn advance(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError> {
        if remove != 0 {
            return Err(TreeError::RemoveFromAppendOnly);
        }
        let count = added.iter().flatten().count();
        if count == 0 {
            return Ok(());
        }
        self.len += count;
        cx.note_added(count as u64);

        // If the previous delta was never coalesced in the background,
        // coalesce it now on the critical path.
        self.flush_pending(cx, Phase::Foreground);

        // Combine the newly appended leaves into a single delta (C'2).
        let delta = cx
            .fold(Phase::Foreground, added.into_iter().flatten())
            .expect("a present leaf was added");

        if let (true, Some(root)) = (self.split, &self.root) {
            // Foreground stops here; reduce_parts() exposes {root, delta}.
            cx.reuse(root); // the previous root is reused as-is
            self.pending_bytes = cx.value_bytes(&delta);
            self.pending = Some(delta);
        } else {
            self.coalesce(cx, Phase::Foreground, delta);
        }
        Ok(())
    }

    fn preprocess(&mut self, cx: &mut TreeCx<'_, K, V>) {
        self.flush_pending(cx, Phase::Background);
    }

    fn root(&self) -> Option<&V> {
        // Under split processing the materialized root lags the window by
        // the still-pending delta; reduce_parts() exposes the full window.
        self.root.as_ref()
    }

    fn reduce_parts(&self) -> Vec<&V> {
        self.root.iter().chain(&self.pending).collect()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memo_bytes(&self) -> u64 {
        self.root_bytes + self.pending_bytes
    }

    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V> {
        MemoLayout::Each(WindowAggregator::<K, V>::reduce_parts(self))
    }

    fn kind(&self) -> TreeKind {
        TreeKind::Coalescing
    }
}

impl<K, V> ContractionTree<K, V> for CoalescingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + 'static,
{
    fn height(&self) -> usize {
        match (self.len, self.pending.is_some()) {
            (0, _) => 0,
            (_, false) => 1,
            (_, true) => 2,
        }
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

    fn leaves(values: &[u64]) -> Vec<Option<u64>> {
        values.iter().copied().map(Some).collect()
    }

    fn parts_sum(tree: &CoalescingTree<u64>) -> u64 {
        WindowAggregator::<u8, u64>::reduce_parts(tree)
            .iter()
            .map(|v| **v)
            .sum()
    }

    #[test]
    fn foreground_mode_keeps_single_root() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = CoalescingTree::new();
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
        assert_eq!(parts_sum(&tree), 6);

        tree.advance(&mut cx, 0, leaves(&[4, 5])).unwrap();
        assert_eq!(parts_sum(&tree), 15);
        assert_eq!(
            WindowAggregator::<u8, u64>::reduce_parts(&tree).len(),
            1,
            "foreground mode always exposes a single root"
        );
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 15);
        assert!(stats.background.is_empty());
    }

    #[test]
    fn split_mode_defers_root_merge() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = CoalescingTree::with_split_processing();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3]));

        // Advance: foreground folds the delta but does NOT touch the root.
        let mut fg = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut fg);
        tree.advance(&mut cx, 0, leaves(&[4, 5])).unwrap();
        assert_eq!(fg.foreground.merges, 1, "only 4+5 on the critical path");
        let parts = WindowAggregator::<u8, u64>::reduce_parts(&tree);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts_sum(&tree), 15);

        // Background coalesces the pending delta.
        let mut bg = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut bg);
        tree.preprocess(&mut cx);
        assert_eq!(bg.background.merges, 1);
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 15);
        assert_eq!(WindowAggregator::<u8, u64>::reduce_parts(&tree).len(), 1);
    }

    #[test]
    fn split_mode_without_background_still_correct() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = CoalescingTree::with_split_processing();
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&[1]));
        // Two advances with no preprocess in between: the pending delta is
        // flushed on the foreground path of the second advance.
        tree.advance(&mut cx, 0, leaves(&[2])).unwrap();
        tree.advance(&mut cx, 0, leaves(&[3])).unwrap();
        assert_eq!(parts_sum(&tree), 6);
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 3);
    }

    #[test]
    fn removal_is_rejected() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = CoalescingTree::new();
        tree.rebuild(&mut cx, leaves(&[1]));
        assert_eq!(
            tree.advance(&mut cx, 1, leaves(&[2])).unwrap_err(),
            TreeError::RemoveFromAppendOnly
        );
        assert_eq!(parts_sum(&tree), 1);
    }

    #[test]
    fn empty_advance_is_a_no_op() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = CoalescingTree::new();
        tree.rebuild(&mut cx, vec![]);
        tree.advance(&mut cx, 0, vec![None, None]).unwrap();
        assert!(WindowAggregator::<u8, u64>::root(&tree).is_none());
        assert!(WindowAggregator::<u8, u64>::is_empty(&tree));
        assert_eq!(stats.total_merges(), 0);
    }

    #[test]
    fn first_append_in_split_mode_materializes_root() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = CoalescingTree::with_split_processing();
        tree.rebuild(&mut cx, vec![]);
        tree.advance(&mut cx, 0, leaves(&[7])).unwrap();
        // With no previous root there is nothing to defer.
        assert_eq!(*WindowAggregator::<u8, u64>::root(&tree).unwrap(), 7);
        assert_eq!(WindowAggregator::<u8, u64>::reduce_parts(&tree).len(), 1);
    }
}
