//! Constant-time twin-stack window aggregators (the DABA line).
//!
//! Unlike the contraction trees, these structures memoize **running partial
//! sums** instead of interior tree nodes. The window is held as up to three
//! consecutive segments, oldest first:
//!
//! ```text
//!   front                 mid (frozen, under repair)     back (growing)
//!   [suffix-agg stack] ++ [pending raws | done stack] ++ [raw leaves]
//! ```
//!
//! * The **back** collects inserted leaves together with one running prefix
//!   aggregate, so extending the window is one merge.
//! * The **front** is a stack of `(leaf, suffix aggregate)` entries with the
//!   oldest leaf on top; evicting pops the stack and the next entry's stored
//!   suffix aggregate *is* the remaining segment's total — a pure
//!   memoization hit, no merges.
//! * The window total is `front ⊕ mid ⊕ back`, at most two merges.
//!
//! When the front runs dry the back must *flip* into suffix form. The
//! amortized [`TwoStackTree`] performs the whole flip at once (the classic
//! two-stack queue reduction). [`DabaTree`] and [`DabaLiteTree`] de-amortize
//! it in the style of DABA (arXiv 2009.13768): once the back has grown to
//! the size of the front, it is *frozen* as the mid segment and repaired into
//! suffix form one merge per subsequent operation, so the replacement front
//! is ready exactly when the old one is exhausted. For balanced in-order
//! sliding (equal insert and evict rates — the engine's window discipline)
//! every operation performs a worst-case-constant number of merges; for
//! adversarial insert floods a residual flip remains and the bound is
//! amortized, which the unit tests pin down.
//!
//! [`DabaLiteTree`] is the memory-lean variant: it drops the raw leaf from
//! every repaired entry (the suffix aggregate is all eviction and query ever
//! need), roughly halving the memoization footprint that the distributed
//! cache replicates.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::error::TreeError;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{TreeCx, TreeKind, WindowAggregator};

/// One repaired entry: the suffix aggregate from this leaf to the end of its
/// segment, plus (for the non-lite variants) the raw leaf it came from.
struct Entry<V> {
    /// The raw leaf; `None` in the lite layout once the aggregate exists.
    val: Option<Arc<V>>,
    /// Aggregate of this leaf through the newest leaf of its segment.
    agg: Arc<V>,
}

// Manual: entries share their `Arc`ed values, so no `V: Clone` is needed.
impl<V> Clone for Entry<V> {
    fn clone(&self) -> Self {
        Entry {
            val: self.val.clone(),
            agg: Arc::clone(&self.agg),
        }
    }
}

/// Folds the present aggregates oldest-to-newest, charging each merge to the
/// foreground phase. Order matters: the combiners are not assumed
/// commutative.
fn fold_present<K, V>(
    cx: &mut TreeCx<'_, K, V>,
    parts: impl IntoIterator<Item = Option<Arc<V>>>,
) -> Option<Arc<V>> {
    let mut acc: Option<Arc<V>> = None;
    for part in parts.into_iter().flatten() {
        acc = Some(match acc {
            None => part,
            Some(prev) => Arc::new(cx.merge(Phase::Foreground, &prev, &part).0),
        });
    }
    acc
}

/// Shared twin-stack state machine behind all three public aggregators.
struct TwinStacks<V> {
    /// Oldest segment; a stack with the oldest leaf on top (= last).
    front: Vec<Entry<V>>,
    /// Frozen segment still awaiting repair, oldest leaf first; the repair
    /// consumes it from the back (newest first).
    mid_pending: VecDeque<Arc<V>>,
    /// Repaired part of the frozen segment; stack, oldest-processed on top.
    mid_done: Vec<Entry<V>>,
    /// Total of the whole frozen segment, captured at freeze time.
    mid_agg: Option<Arc<V>>,
    /// Newest segment, oldest leaf first.
    back: VecDeque<Arc<V>>,
    /// Running total of `back`.
    back_agg: Option<Arc<V>>,
    /// Cached window total, refreshed at the end of every mutation.
    root: Option<Arc<V>>,
    /// Whether flips are repaired incrementally (DABA) or all at once
    /// (classic two-stack).
    paced: bool,
    /// Whether repaired entries drop their raw leaf (DABA Lite).
    lite: bool,
    /// Modeled bytes of every distinct allocation held above, the root
    /// excepted: the memoization footprint. Shared allocations count once:
    /// a segment's newest entry aggregates just its own leaf, a one-leaf
    /// back's running total is that leaf, and freezing hands `back_agg`
    /// over to `mid_agg`.
    memo: u64,
}

impl<V> Clone for TwinStacks<V> {
    fn clone(&self) -> Self {
        TwinStacks {
            front: self.front.clone(),
            mid_pending: self.mid_pending.clone(),
            mid_done: self.mid_done.clone(),
            mid_agg: self.mid_agg.clone(),
            back: self.back.clone(),
            back_agg: self.back_agg.clone(),
            root: self.root.clone(),
            paced: self.paced,
            lite: self.lite,
            memo: self.memo,
        }
    }
}

impl<V> TwinStacks<V> {
    fn new(paced: bool, lite: bool) -> Self {
        TwinStacks {
            front: Vec::new(),
            mid_pending: VecDeque::new(),
            mid_done: Vec::new(),
            mid_agg: None,
            back: VecDeque::new(),
            back_agg: None,
            root: None,
            paced,
            lite,
            memo: 0,
        }
    }

    fn len(&self) -> usize {
        self.front.len() + self.mid_pending.len() + self.mid_done.len() + self.back.len()
    }

    fn clear(&mut self) {
        self.front.clear();
        self.mid_pending.clear();
        self.mid_done.clear();
        self.mid_agg = None;
        self.back.clear();
        self.back_agg = None;
        self.root = None;
        self.memo = 0;
    }

    fn entry(&self, val: Arc<V>, agg: Arc<V>) -> Entry<V> {
        Entry {
            val: (!self.lite).then_some(val),
            agg,
        }
    }

    /// Performs one step of the incremental flip: moves the newest pending
    /// leaf into the repaired stack, extending its suffix aggregate by one
    /// merge (the newest leaf of a segment seeds for free).
    fn repair_step<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        let Some(v) = self.mid_pending.pop_back() else {
            return;
        };
        let agg = match self.mid_done.last() {
            Some(newer) => {
                let (agg, bytes) = cx.merge(Phase::Foreground, &v, &newer.agg);
                self.memo += bytes;
                if self.lite {
                    // The lite entry keeps only the aggregate.
                    self.memo -= cx.value_bytes(&v);
                }
                Arc::new(agg)
            }
            // The newest leaf is its own suffix aggregate: one allocation.
            None => Arc::clone(&v),
        };
        let entry = self.entry(v, agg);
        self.mid_done.push(entry);
    }

    /// Freezes the back as the new mid segment once the mid is empty and the
    /// back has caught up with the front — the moment that leaves exactly
    /// one repair step per remaining front eviction.
    fn maybe_freeze(&mut self) {
        if self.mid_pending.is_empty()
            && self.mid_done.is_empty()
            && !self.back.is_empty()
            && self.back.len() >= self.front.len()
        {
            self.mid_pending = std::mem::take(&mut self.back);
            self.mid_agg = self.back_agg.take();
        }
    }

    /// Replaces an exhausted front with the repaired mid segment, forcing
    /// any residual repair to completion first (free under balanced pacing).
    fn flip<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        debug_assert!(self.front.is_empty());
        if self.mid_pending.is_empty() && self.mid_done.is_empty() {
            self.mid_pending = std::mem::take(&mut self.back);
            self.mid_agg = self.back_agg.take();
        }
        while !self.mid_pending.is_empty() {
            self.repair_step(cx);
        }
        self.front = std::mem::take(&mut self.mid_done);
        // The frozen segment's total goes, unless the segment was one leaf:
        // then the total is that leaf, which the new front still holds.
        if let Some(total) = self.mid_agg.take() {
            let newest = self.front.first();
            if !newest.is_some_and(|e| Arc::ptr_eq(&e.agg, &total)) {
                self.memo -= cx.value_bytes(&total);
            }
        }
    }

    fn evict<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        if self.front.is_empty() {
            self.flip(cx);
        }
        if let Some(oldest) = self.front.pop() {
            self.memo -= cx.value_bytes(&oldest.agg);
            if let Some(val) = oldest.val.filter(|val| !Arc::ptr_eq(val, &oldest.agg)) {
                self.memo -= cx.value_bytes(&val);
            }
        }
        // The exposed suffix aggregate is the memoized total of the
        // remaining segment — the structure's payoff on every eviction.
        if let Some(top) = self.front.last() {
            cx.reuse(&top.agg);
        }
        if self.paced {
            self.repair_step(cx);
        }
        self.maybe_freeze();
    }

    fn insert<K>(&mut self, cx: &mut TreeCx<'_, K, V>, v: Arc<V>) {
        self.memo += cx.value_bytes(&v);
        self.back_agg = Some(match self.back_agg.take() {
            Some(acc) => {
                let (total, bytes) = cx.merge(Phase::Foreground, &acc, &v);
                self.memo += bytes;
                // A one-leaf back's total is that leaf, which the back keeps.
                if !Arc::ptr_eq(&acc, &self.back[0]) {
                    self.memo -= cx.value_bytes(&acc);
                }
                Arc::new(total)
            }
            None => Arc::clone(&v),
        });
        self.back.push_back(v);
        if self.paced {
            self.repair_step(cx);
            self.maybe_freeze();
        }
    }

    fn refresh_root<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        let front_agg = self.front.last().map(|e| Arc::clone(&e.agg));
        self.root = fold_present(cx, [front_agg, self.mid_agg.clone(), self.back_agg.clone()]);
    }

    fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, live: Vec<Arc<V>>) {
        self.clear();
        // Initial run: the whole window lands as one fully repaired front,
        // suffix aggregates built newest-to-oldest.
        let mut acc: Option<Arc<V>> = None;
        for v in live.into_iter().rev() {
            let agg = match &acc {
                Some(newer) => {
                    let (agg, bytes) = cx.merge(Phase::Foreground, &v, newer);
                    self.memo += bytes;
                    Arc::new(agg)
                }
                None => Arc::clone(&v),
            };
            // The leaf stays unless a lite entry drops it; the newest leaf
            // always stays, as its own aggregate.
            if !self.lite || acc.is_none() {
                self.memo += cx.value_bytes(&v);
            }
            acc = Some(Arc::clone(&agg));
            let entry = self.entry(v, agg);
            self.front.push(entry);
        }
        self.root = acc;
    }

    fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<Arc<V>>>,
    ) -> Result<(), TreeError> {
        if remove > self.len() {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: self.len(),
            });
        }
        let added: Vec<Arc<V>> = added.into_iter().flatten().collect();
        cx.note_removed(remove as u64);
        cx.note_added(added.len() as u64);
        for _ in 0..remove {
            self.evict(cx);
        }
        for v in added {
            self.insert(cx, v);
        }
        self.refresh_root(cx);
        Ok(())
    }

    /// Every holder of an allocation, shared ones once per holder.
    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V> {
        let entries = self.front.iter().chain(&self.mid_done);
        let held = entries
            .flat_map(|e| e.val.iter().chain(std::iter::once(&e.agg)))
            .chain(self.mid_pending.iter().chain(&self.back))
            .chain(self.mid_agg.iter().chain(&self.back_agg));
        MemoLayout::Shared(held.cloned().collect())
    }

    fn debug(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(name)
            .field("front", &self.front.len())
            .field("mid_pending", &self.mid_pending.len())
            .field("mid_done", &self.mid_done.len())
            .field("back", &self.back.len())
            .finish()
    }
}

macro_rules! twin_stack_aggregator {
    ($name:ident, $kind:expr, $paced:expr, $lite:expr, $doc:expr) => {
        #[doc = $doc]
        pub struct $name<V> {
            core: TwinStacks<V>,
        }

        impl<V> $name<V> {
            /// Creates an empty aggregator.
            pub fn new() -> Self {
                $name {
                    core: TwinStacks::new($paced, $lite),
                }
            }
        }

        impl<V> Default for $name<V> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<V> fmt::Debug for $name<V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.core.debug(stringify!($name), f)
            }
        }

        impl<V> Clone for $name<V> {
            fn clone(&self) -> Self {
                $name {
                    core: self.core.clone(),
                }
            }
        }

        impl<K, V> WindowAggregator<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Send + Sync + 'static,
        {
            fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
                Box::new(self.clone())
            }

            fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<Arc<V>>>) {
                let live: Vec<Arc<V>> = leaves.into_iter().flatten().collect();
                cx.note_added(live.len() as u64);
                self.core.rebuild(cx, live);
            }

            fn advance(
                &mut self,
                cx: &mut TreeCx<'_, K, V>,
                remove: usize,
                added: Vec<Option<Arc<V>>>,
            ) -> Result<(), TreeError> {
                self.core.advance(cx, remove, added)
            }

            fn root(&self) -> Option<&V> {
                self.core.root.as_deref()
            }

            fn len(&self) -> usize {
                self.core.len()
            }

            fn memo_bytes(&self) -> u64 {
                self.core.memo
            }

            #[cfg(feature = "oracle")]
            fn memo_layout(&self) -> MemoLayout<'_, V> {
                self.core.memo_layout()
            }

            fn kind(&self) -> TreeKind {
                $kind
            }
        }
    };
}

twin_stack_aggregator!(
    TwoStackTree,
    TreeKind::TwoStack,
    false,
    false,
    "Classic two-stack sliding-window aggregator: amortized O(1) merges per \
     in-order operation, with the whole back flipped into suffix form when \
     the front runs dry."
);

twin_stack_aggregator!(
    DabaTree,
    TreeKind::Daba,
    true,
    false,
    "De-amortized twin-stack aggregator in the DABA mould (arXiv \
     2009.13768): the flip is repaired one merge per operation, so balanced \
     in-order slides perform a worst-case-constant number of merges."
);

twin_stack_aggregator!(
    DabaLiteTree,
    TreeKind::DabaLite,
    true,
    true,
    "Memory-lean DABA variant: repaired entries keep only the partial sum \
     (never the raw leaf), shrinking the memoization footprint the \
     distributed cache has to replicate."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::stats::UpdateStats;
    use crate::tree::build_tree;

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<Arc<u64>>> {
        values.iter().map(|v| Some(Arc::new(*v))).collect()
    }

    /// Drives `kind` through a mixed slide history and checks the root
    /// against a naive VecDeque reference after every step.
    fn check_against_reference(kind: TreeKind, slides: &[(usize, Vec<u64>)]) {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut tree = build_tree::<u8, u64>(kind, 0);
        let mut reference: VecDeque<u64> = VecDeque::new();

        for (step, (remove, added)) in slides.iter().enumerate() {
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let remove = (*remove).min(reference.len());
            tree.advance(&mut cx, remove, leaves(added)).unwrap();
            for _ in 0..remove {
                reference.pop_front();
            }
            reference.extend(added);
            let expected: u64 = reference.iter().sum();
            match tree.root() {
                Some(root) => assert_eq!(*root, expected, "{kind} diverged at step {step}"),
                None => assert_eq!(expected, 0, "{kind} empty at step {step}"),
            }
            assert_eq!(tree.len(), reference.len(), "{kind} len at step {step}");
        }
    }

    #[test]
    fn all_three_match_reference_on_mixed_slides() {
        let slides: Vec<(usize, Vec<u64>)> = vec![
            (0, (1..=9).collect()),
            (3, vec![10, 11]),
            (2, vec![]),
            (0, vec![12, 13, 14, 15]),
            (6, vec![16]),
            (5, vec![17, 18, 19]),
            (3, vec![]),
            (0, vec![20]),
            (1, vec![21, 22]),
        ];
        for kind in [TreeKind::TwoStack, TreeKind::Daba, TreeKind::DabaLite] {
            check_against_reference(kind, &slides);
        }
    }

    #[test]
    fn non_commutative_order_is_preserved() {
        // Concatenation distinguishes every ordering.
        let combiner = FnCombiner::new(|_: &u8, a: &String, b: &String| format!("{a}{b}"));
        let key = 0u8;
        for kind in [TreeKind::TwoStack, TreeKind::Daba, TreeKind::DabaLite] {
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, String>(kind, 0);
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let window: Vec<Option<Arc<String>>> = ["a", "b", "c", "d", "e"]
                .iter()
                .map(|s| Some(Arc::new(s.to_string())))
                .collect();
            tree.rebuild(&mut cx, window);
            assert_eq!(*tree.root().unwrap(), "abcde", "{kind}");
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(
                &mut cx,
                2,
                vec![
                    Some(Arc::new("f".to_string())),
                    Some(Arc::new("g".to_string())),
                ],
            )
            .unwrap();
            assert_eq!(*tree.root().unwrap(), "cdefg", "{kind}");
        }
    }

    /// Steady-state balanced slides: the paced variants must stay below a
    /// small constant number of merges per operation at *every* window size
    /// — the worst-case O(1) claim.
    #[test]
    fn daba_merges_per_slide_are_flat_across_window_sizes() {
        for kind in [TreeKind::Daba, TreeKind::DabaLite] {
            let mut per_window = Vec::new();
            for n in [64u64, 512, 4096] {
                let combiner = sum_combiner();
                let key = 0u8;
                let mut stats = UpdateStats::default();
                let mut tree = build_tree::<u8, u64>(kind, 0);
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.rebuild(&mut cx, leaves(&(0..n).collect::<Vec<_>>()));

                let mut worst = 0u64;
                let slides = 3 * n;
                let mut total = 0u64;
                for i in 0..slides {
                    let mut step_stats = UpdateStats::default();
                    let mut cx = TreeCx::new(&combiner, &key, &mut step_stats);
                    tree.advance(&mut cx, 1, leaves(&[n + i])).unwrap();
                    worst = worst.max(step_stats.foreground.merges);
                    total += step_stats.foreground.merges;
                }
                assert!(
                    worst <= 6,
                    "{kind}: {worst} merges in one slide at window {n}"
                );
                #[allow(clippy::cast_precision_loss)]
                per_window.push(total as f64 / slides as f64);
            }
            let spread = per_window.iter().fold(0.0f64, |a, &b| a.max(b))
                / per_window.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            assert!(
                spread < 1.1,
                "{kind}: per-slide merges not flat across window sizes: {per_window:?}"
            );
        }
    }

    #[test]
    fn twostack_is_amortized_constant() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = build_tree::<u8, u64>(TreeKind::TwoStack, 0);
        for n in [256u64, 2048] {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&(0..n).collect::<Vec<_>>()));
            let mut total = UpdateStats::default();
            for i in 0..2 * n {
                let mut step = UpdateStats::default();
                let mut cx = TreeCx::new(&combiner, &key, &mut step);
                tree.advance(&mut cx, 1, leaves(&[n + i])).unwrap();
                total.merge_from(&step);
            }
            assert!(
                total.foreground.merges <= 8 * n,
                "two-stack not amortized O(1): {} merges over {} slides",
                total.foreground.merges,
                2 * n
            );
        }
    }

    #[test]
    fn lite_footprint_is_smaller_than_full_daba() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut footprints = Vec::new();
        for kind in [TreeKind::Daba, TreeKind::DabaLite] {
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, u64>(kind, 0);
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&(0..64).collect::<Vec<_>>()));
            for i in 0..96u64 {
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.advance(&mut cx, 1, leaves(&[64 + i])).unwrap();
            }
            footprints.push(tree.memo_bytes());
        }
        assert!(
            footprints[1] < footprints[0],
            "lite footprint {} not below full {}",
            footprints[1],
            footprints[0]
        );
    }

    #[test]
    fn remove_beyond_window_is_rejected_without_mutation() {
        let combiner = sum_combiner();
        let key = 0u8;
        for kind in [TreeKind::TwoStack, TreeKind::Daba, TreeKind::DabaLite] {
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, u64>(kind, 0);
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&[1, 2, 3]));
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            let err = tree.advance(&mut cx, 4, Vec::new()).unwrap_err();
            assert!(matches!(
                err,
                TreeError::RemoveExceedsWindow {
                    requested: 4,
                    window: 3
                }
            ));
            assert_eq!(*tree.root().unwrap(), 6, "{kind} mutated on error");
            assert_eq!(tree.len(), 3);
        }
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let combiner = sum_combiner();
        let key = 0u8;
        for kind in [TreeKind::TwoStack, TreeKind::Daba, TreeKind::DabaLite] {
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, u64>(kind, 0);
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, leaves(&[5, 6]));
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, 2, Vec::new()).unwrap();
            assert!(tree.root().is_none(), "{kind}");
            assert!(tree.is_empty(), "{kind}");
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, 0, leaves(&[7, 8, 9])).unwrap();
            assert_eq!(*tree.root().unwrap(), 24, "{kind}");
        }
    }

    #[test]
    fn absent_leaves_are_skipped() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut tree = build_tree::<u8, u64>(TreeKind::Daba, 0);
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(
            &mut cx,
            vec![Some(Arc::new(1)), None, Some(Arc::new(2)), None],
        );
        assert_eq!(tree.len(), 2);
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, vec![None, Some(Arc::new(4))])
            .unwrap();
        assert_eq!(*tree.root().unwrap(), 6);
    }
}
