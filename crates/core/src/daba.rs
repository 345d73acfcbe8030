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
//! * The **front** is a stack of suffix aggregates with the oldest leaf's on
//!   top; evicting pops the stack and the next stored suffix aggregate *is*
//!   the remaining segment's total — a pure memoization hit, no merges.
//! * The window total is `front ⊕ mid ⊕ back`, at most two merges.
//!
//! When the front runs dry the back must *flip* into suffix form. The
//! amortized [`TwoStackTree`] performs the whole flip at once (the classic
//! two-stack queue reduction). [`DabaTree`] de-amortizes it in the style of
//! DABA (arXiv 2009.13768): once the back has grown to the size of the
//! front, it is *frozen* as the mid segment and repaired into suffix form
//! one merge per subsequent operation, so the replacement front is ready
//! exactly when the old one is exhausted. For balanced in-order sliding
//! (equal insert and evict rates — the engine's window discipline) every
//! operation performs a worst-case-constant number of merges; for
//! adversarial insert floods a residual flip remains and the bound is
//! amortized, which the unit tests pin down.
//!
//! Both hold the memory-lean layout of DABA Lite (arXiv 2009.13768): every
//! value is held once, by value. A repaired entry is only its suffix aggregate, since
//! eviction and queries never need the raw leaf again. A segment of one
//! leaf keeps no separate total, because its leaf is the total, and the
//! window total is stored only when it is a fresh merge of two or three
//! segment totals. The footprint is the sum of the held values.

use std::collections::VecDeque;
use std::fmt;

use crate::error::TreeError;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{TreeCx, TreeKind, WindowAggregator};

/// Shared twin-stack state machine behind both public aggregators.
#[derive(Clone)]
struct TwinStacks<V> {
    /// Oldest segment: suffix aggregates, a stack with the oldest leaf's on
    /// top (= last).
    front: Vec<V>,
    /// Frozen segment still awaiting repair, oldest leaf first; the repair
    /// consumes it from the back (newest first).
    mid_pending: VecDeque<V>,
    /// Repaired part of the frozen segment: suffix aggregates, a stack with
    /// the oldest processed on top.
    mid_done: Vec<V>,
    /// Total of the frozen segment, captured at freeze time; `None` for a
    /// one-leaf segment, whose leaf is its total.
    mid_agg: Option<V>,
    /// Newest segment, oldest leaf first.
    back: VecDeque<V>,
    /// Running total of `back`; `None` while `back` holds at most one leaf.
    back_agg: Option<V>,
    /// The window total when it is a fresh merge of segment totals;
    /// otherwise `None`, and the window's one segment total is the root.
    root: Option<V>,
    /// Whether flips are repaired incrementally (DABA) or all at once
    /// (classic two-stack).
    paced: bool,
    /// Modeled bytes of every value held above, the root excepted: the
    /// memoization footprint.
    memo: u64,
}

impl<V> TwinStacks<V> {
    fn new(paced: bool) -> Self {
        TwinStacks {
            front: Vec::new(),
            mid_pending: VecDeque::new(),
            mid_done: Vec::new(),
            mid_agg: None,
            back: VecDeque::new(),
            back_agg: None,
            root: None,
            paced,
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

    /// The totals of the present segments, oldest first. A one-leaf mid or
    /// back segment's total is its leaf.
    fn totals(&self) -> impl Iterator<Item = &V> {
        let mid = self
            .mid_agg
            .as_ref()
            .or(self.mid_pending.front())
            .or(self.mid_done.last());
        let back = self.back_agg.as_ref().or(self.back.front());
        [self.front.last(), mid, back].into_iter().flatten()
    }

    fn root(&self) -> Option<&V> {
        self.root.as_ref().or_else(|| self.totals().next())
    }

    /// Performs one step of the incremental flip: moves the newest pending
    /// leaf into the repaired stack as its suffix aggregate, one merge (the
    /// newest leaf of a segment is its own suffix aggregate).
    fn repair_step<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        let Some(v) = self.mid_pending.pop_back() else {
            return;
        };
        let agg = match self.mid_done.last() {
            Some(newer) => {
                let (agg, bytes) = cx.merge(Phase::Foreground, &v, newer);
                // The suffix aggregate replaces its leaf.
                self.memo = self.memo + bytes - cx.value_bytes(&v);
                agg
            }
            None => v,
        };
        self.mid_done.push(agg);
    }

    /// Freezes the back into the mid segment, which must be empty; the
    /// back takes over the mid's emptied buffer.
    fn freeze(&mut self) {
        std::mem::swap(&mut self.mid_pending, &mut self.back);
        self.mid_agg = self.back_agg.take();
    }

    /// Freezes the back once the mid is empty and the back has caught up
    /// with the front — the moment that leaves exactly one repair step per
    /// remaining front eviction.
    fn maybe_freeze(&mut self) {
        if self.mid_pending.is_empty()
            && self.mid_done.is_empty()
            && !self.back.is_empty()
            && self.back.len() >= self.front.len()
        {
            self.freeze();
        }
    }

    /// Replaces an exhausted front with the repaired mid segment, forcing
    /// any residual repair to completion first (free under balanced pacing).
    fn flip<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        debug_assert!(self.front.is_empty());
        if self.mid_pending.is_empty() && self.mid_done.is_empty() {
            self.freeze();
        }
        while !self.mid_pending.is_empty() {
            self.repair_step(cx);
        }
        // The mid takes over the front's emptied buffer.
        std::mem::swap(&mut self.front, &mut self.mid_done);
        // The new front's oldest suffix aggregate is the frozen total.
        if let Some(total) = self.mid_agg.take() {
            self.memo -= cx.value_bytes(&total);
        }
    }

    fn evict<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        if self.front.is_empty() {
            self.flip(cx);
        }
        if let Some(oldest) = self.front.pop() {
            self.memo -= cx.value_bytes(&oldest);
        }
        // The exposed suffix aggregate is the memoized total of the
        // remaining segment — the structure's payoff on every eviction.
        if let Some(top) = self.front.last() {
            cx.reuse(top);
        }
        if self.paced {
            self.repair_step(cx);
        }
        self.maybe_freeze();
    }

    fn insert<K>(&mut self, cx: &mut TreeCx<'_, K, V>, v: V) {
        self.memo += cx.value_bytes(&v);
        if let Some(acc) = self.back_agg.as_ref().or(self.back.front()) {
            let (total, bytes) = cx.merge(Phase::Foreground, acc, &v);
            self.memo += bytes;
            if let Some(old) = self.back_agg.replace(total) {
                self.memo -= cx.value_bytes(&old);
            }
        }
        self.back.push_back(v);
        if self.paced {
            self.repair_step(cx);
            self.maybe_freeze();
        }
    }

    /// Merges the segment totals oldest-to-newest, charging each merge to
    /// the foreground phase. Order matters: the combiners are not assumed
    /// commutative.
    fn refresh_root<K>(&mut self, cx: &mut TreeCx<'_, K, V>) {
        self.root = None;
        let mut totals = self.totals();
        let (Some(first), Some(second)) = (totals.next(), totals.next()) else {
            return;
        };
        let mut acc = cx.merge(Phase::Foreground, first, second).0;
        for total in totals {
            acc = cx.merge(Phase::Foreground, &acc, total).0;
        }
        self.root = Some(acc);
    }

    fn rebuild<K>(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
        self.clear();
        // Initial run: the whole window lands as one fully repaired front,
        // suffix aggregates built newest-to-oldest.
        for v in leaves.into_iter().rev().flatten() {
            let agg = match self.front.last() {
                Some(newer) => {
                    let (agg, bytes) = cx.merge(Phase::Foreground, &v, newer);
                    self.memo += bytes;
                    agg
                }
                None => {
                    self.memo += cx.value_bytes(&v);
                    v
                }
            };
            self.front.push(agg);
        }
        cx.note_added(self.front.len() as u64);
    }

    fn advance<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError> {
        if remove > self.len() {
            return Err(TreeError::RemoveExceedsWindow {
                requested: remove,
                window: self.len(),
            });
        }
        cx.note_removed(remove as u64);
        cx.note_added(added.iter().flatten().count() as u64);
        for _ in 0..remove {
            self.evict(cx);
        }
        for v in added.into_iter().flatten() {
            self.insert(cx, v);
        }
        self.refresh_root(cx);
        Ok(())
    }

    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V> {
        let segments = self.front.iter().chain(&self.mid_pending);
        let segments = segments.chain(&self.mid_done).chain(&self.back);
        let totals = self.mid_agg.iter().chain(&self.back_agg);
        MemoLayout::Each(segments.chain(totals).collect())
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
    ($name:ident, $kind:expr, $paced:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name<V> {
            core: TwinStacks<V>,
        }

        impl<V> $name<V> {
            /// Creates an empty aggregator.
            pub fn new() -> Self {
                $name {
                    core: TwinStacks::new($paced),
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

        impl<K, V> WindowAggregator<K, V> for $name<V>
        where
            K: Send + 'static,
            V: Clone + Send + 'static,
        {
            fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
                Box::new(self.clone())
            }

            fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
                self.core.rebuild(cx, leaves);
            }

            fn advance(
                &mut self,
                cx: &mut TreeCx<'_, K, V>,
                remove: usize,
                added: Vec<Option<V>>,
            ) -> Result<(), TreeError> {
                self.core.advance(cx, remove, added)
            }

            fn root(&self) -> Option<&V> {
                self.core.root()
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
    "Classic two-stack sliding-window aggregator: amortized O(1) merges per \
     in-order operation, with the whole back flipped into suffix form when \
     the front runs dry."
);

twin_stack_aggregator!(
    DabaTree,
    TreeKind::Daba,
    true,
    "De-amortized twin-stack aggregator in the DABA mould (arXiv \
     2009.13768): the flip is repaired one merge per operation, so balanced \
     in-order slides perform a worst-case-constant number of merges. It \
     holds the memory-lean layout of DABA Lite: suffix aggregates only, \
     each value once."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::FnCombiner;
    use crate::stats::UpdateStats;
    use crate::tree::build_tree;

    const KINDS: [TreeKind; 2] = [TreeKind::TwoStack, TreeKind::Daba];

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<u64>> {
        values.iter().copied().map(Some).collect()
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
    fn both_match_reference_on_mixed_slides() {
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
        for kind in KINDS {
            check_against_reference(kind, &slides);
        }
    }

    #[test]
    fn non_commutative_order_is_preserved() {
        // Concatenation distinguishes every ordering.
        let combiner = FnCombiner::new(|_: &u8, a: &String, b: &String| format!("{a}{b}"));
        let key = 0u8;
        let strings = |s: &[&str]| s.iter().map(|s| Some(s.to_string())).collect();
        for kind in KINDS {
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, String>(kind, 0);
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.rebuild(&mut cx, strings(&["a", "b", "c", "d", "e"]));
            assert_eq!(*tree.root().unwrap(), "abcde", "{kind}");
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, 2, strings(&["f", "g"])).unwrap();
            assert_eq!(*tree.root().unwrap(), "cdefg", "{kind}");
        }
    }

    /// Steady-state balanced slides: DABA must stay below a small constant
    /// number of merges per operation at *every* window size — the
    /// worst-case O(1) claim.
    #[test]
    fn daba_merges_per_slide_are_flat_across_window_sizes() {
        let mut per_window = Vec::new();
        for n in [64u64, 512, 4096] {
            let combiner = sum_combiner();
            let key = 0u8;
            let mut stats = UpdateStats::default();
            let mut tree = build_tree::<u8, u64>(TreeKind::Daba, 0);
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
            assert!(worst <= 6, "{worst} merges in one slide at window {n}");
            #[allow(clippy::cast_precision_loss)]
            per_window.push(total as f64 / slides as f64);
        }
        let spread = per_window.iter().fold(0.0f64, |a, &b| a.max(b))
            / per_window.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(
            spread < 1.1,
            "per-slide merges not flat across window sizes: {per_window:?}"
        );
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

    /// Each twin stack holds every value once: a suffix aggregate or a raw
    /// leaf per leaf, plus at most the frozen and the back segment's
    /// running totals. With `u64` sums every value is modeled at 16 bytes.
    #[test]
    fn twin_stacks_hold_one_value_per_leaf_plus_two_totals() {
        let combiner = sum_combiner();
        let key = 0u8;
        for kind in KINDS {
            for n in [1u64, 2, 7, 64] {
                let mut stats = UpdateStats::default();
                let mut tree = build_tree::<u8, u64>(kind, 0);
                let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                tree.rebuild(&mut cx, leaves(&(0..n).collect::<Vec<_>>()));
                for i in 0..3 * n {
                    let mut cx = TreeCx::new(&combiner, &key, &mut stats);
                    tree.advance(&mut cx, 1, leaves(&[n + i])).unwrap();
                    let bound = (tree.len() as u64 + 2) * 16;
                    assert!(
                        tree.memo_bytes() <= bound,
                        "{kind} at {n} leaves, slide {i}: {} bytes held, at most {bound}",
                        tree.memo_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn remove_beyond_window_is_rejected_without_mutation() {
        let combiner = sum_combiner();
        let key = 0u8;
        for kind in KINDS {
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
        for kind in KINDS {
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
        tree.rebuild(&mut cx, vec![Some(1), None, Some(2), None]);
        assert_eq!(tree.len(), 2);
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, vec![None, Some(4)]).unwrap();
        assert_eq!(*tree.root().unwrap(), 6);
    }
}
