//! The rotating contraction tree (paper §4.1) for fixed-width sliding
//! windows, with optional split (background/foreground) processing.
//!
//! The window is divided into `N` *buckets* (each the pre-combined output of
//! `w` input splits). The buckets are the leaves of a balanced binary tree,
//! the first `N` leaf slots of the binary-tree core it shares with the
//! folding tree (see the `levels` module); when the window slides by one
//! bucket the new bucket replaces the oldest one in round-robin fashion and
//! only the `log2(N)` nodes on the leaf-to-root path are recombined.
//!
//! Because rotation reuses memoized aggregates that mix newer and older data
//! out of window order, the combiner must be **commutative** (in addition to
//! associative).
//!
//! Split processing: after a result is returned, [`RotatingTree::preprocess`]
//! (a) applies the deferred leaf insertion and path update in the
//! background, and (b) pre-combines all off-path sibling aggregates of the
//! *next* victim bucket into a single intermediate `I`. The next foreground
//! update is then a single combiner invocation (`new bucket ⊕ I`) — this is
//! the mechanism behind the paper's Figure 11 latency savings.

use std::borrow::Cow;
use std::fmt;

use crate::error::TreeError;
use crate::levels::Levels;
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::{ContractionTree, TreeCx, TreeKind, WindowAggregator};

/// Fixed-width rotating contraction tree. See the module docs.
#[derive(Clone)]
pub struct RotatingTree<V> {
    /// The binary tree and the slab of its values: bucket slot `s` is leaf
    /// slot `s`, and an absent leaf is a bucket in which this key is absent.
    core: Levels<V>,
    /// Number of bucket slots in the window.
    capacity: usize,
    /// Slots filled so far during the initial fill phase.
    filled: usize,
    /// Slot to be replaced by the next rotation once the window is full.
    next_victim: usize,
    /// Number of present (Some) leaves.
    present: usize,
    /// Pre-combined off-path aggregate `I` for the next insertion slot
    /// (outer `None` = not prepared; inner `None` = all siblings absent),
    /// with its modeled bytes (it counts in the footprint while prepared).
    precombined: Option<(Option<V>, u64)>,
    /// The split-mode rotation whose leaf write waits for the next
    /// background step.
    pending: Option<Pending<V>>,
}

/// A split-mode rotation whose leaf is not yet in the tree. Neither the
/// leaf nor the shortcut's root counts in the footprint until the leaf is
/// flushed.
#[derive(Clone)]
struct Pending<V> {
    /// The bucket slot the leaf replaces.
    slot: usize,
    /// The new bucket's leaf, absent if the key is not in it.
    leaf: Option<V>,
    /// The window's root when it is not `leaf` itself: `leaf ⊕ I`, or `I`
    /// when the leaf is absent.
    root: Option<V>,
}

impl<V: Clone> RotatingTree<V> {
    /// Creates an empty rotating tree with `capacity` bucket slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rotating tree needs at least one bucket slot");
        RotatingTree {
            core: Levels::new(capacity.next_power_of_two()),
            capacity,
            filled: 0,
            next_victim: 0,
            present: 0,
            precombined: None,
            pending: None,
        }
    }

    /// Number of bucket slots in the window.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once every slot has been filled at least once.
    pub fn is_full(&self) -> bool {
        self.filled >= self.capacity
    }

    /// The slot the next insertion will target.
    fn next_slot(&self) -> usize {
        if self.is_full() {
            self.next_victim
        } else {
            self.filled
        }
    }

    /// Adjusts the present-leaf count for replacing the current occupant of
    /// `slot` with a leaf that is present or not. Called exactly once per
    /// leaf replacement — at the moment the replacement is *decided*
    /// (eagerly in normal mode, at defer time in split mode) — so `present`
    /// is always the exact window occupancy and [`WindowAggregator::len`]
    /// never needs to reconstruct it from deferred state.
    fn count_replacement(&mut self, slot: usize, present: bool) {
        if self.core.levels[0][slot].is_some() {
            self.present -= 1;
        }
        if present {
            self.present += 1;
        }
    }

    /// Stores `value` into `slot` and recombines the root path, charging
    /// `phase`, *without* touching the present count (the caller has
    /// already counted the replacement, possibly at defer time).
    fn store<K>(&mut self, cx: &mut TreeCx<'_, K, V>, phase: Phase, slot: usize, value: Option<V>) {
        self.core.set_leaf(cx, slot, value);
        self.core.propagate(cx, phase);
    }

    /// Applies a deferred split-mode insertion, charging `phase`.
    fn flush_pending<K>(&mut self, cx: &mut TreeCx<'_, K, V>, phase: Phase) {
        if let Some(pending) = self.pending.take() {
            // `present` was already adjusted when the rotation was deferred;
            // only the structural write and path update remain.
            self.store(cx, phase, pending.slot, pending.leaf);
        }
    }

    /// Performs one rotation (or fill) with `value` in normal mode.
    fn insert<K>(&mut self, cx: &mut TreeCx<'_, K, V>, value: Option<V>) {
        let slot = self.next_slot();
        self.count_replacement(slot, value.is_some());
        self.store(cx, Phase::Foreground, slot, value);
        if self.is_full() {
            self.next_victim = (self.next_victim + 1) % self.capacity;
        } else {
            self.filled += 1;
        }
        self.precombined = None;
    }

    /// Pre-combines the off-path siblings of `slot` bottom-up. Two or more
    /// present siblings merge from the slab's borrows; a lone one is
    /// cloned.
    fn combine_off_path<K>(
        &self,
        cx: &mut TreeCx<'_, K, V>,
        phase: Phase,
        slot: usize,
    ) -> Option<V> {
        let levels = &self.core.levels;
        let mut acc: Option<Cow<'_, V>> = None;
        let mut node = slot;
        for level in &levels[..levels.len() - 1] {
            if let Some(sibling) = level[node ^ 1] {
                cx.reuse_many(1, self.core.slab.bytes_of(sibling));
                let sibling = self.core.slab.get(sibling);
                acc = Some(match acc {
                    Some(a) => Cow::Owned(cx.merge(phase, &a, sibling).0),
                    None => Cow::Borrowed(sibling),
                });
            }
            node /= 2;
        }
        acc.map(Cow::into_owned)
    }
}

impl<V> fmt::Debug for RotatingTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RotatingTree")
            .field("capacity", &self.capacity)
            .field("filled", &self.filled)
            .field("present", &self.present)
            .field("next_victim", &self.next_victim)
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

impl<K, V> WindowAggregator<K, V> for RotatingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn boxed_clone(&self) -> Box<dyn WindowAggregator<K, V>> {
        Box::new(self.clone())
    }

    fn rebuild(&mut self, cx: &mut TreeCx<'_, K, V>, leaves: Vec<Option<V>>) {
        // Bottom-up construction (paper §4.1 initial run: buckets combined
        // "in pairs hierarchically"): exactly one merge per internal node
        // with two present children, instead of one path update per leaf.
        self.capacity = self.capacity.max(leaves.len());
        self.filled = leaves.len();
        self.next_victim = 0;
        self.present = leaves.iter().filter(|l| l.is_some()).count();
        self.precombined = None;
        self.pending = None;
        cx.note_added(self.present as u64);
        let width = self.capacity.next_power_of_two();
        self.core.rebuild(cx, leaves, width);
    }

    fn advance(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        remove: usize,
        added: Vec<Option<V>>,
    ) -> Result<(), TreeError> {
        if !self.is_full() {
            // Fill phase: nothing may be removed yet.
            if remove != 0 {
                return Err(TreeError::FixedWidthViolation {
                    removed: remove,
                    added: added.len(),
                });
            }
            if self.filled + added.len() > self.capacity {
                return Err(TreeError::CapacityExceeded {
                    capacity: self.capacity,
                    attempted: self.filled + added.len(),
                });
            }
            cx.note_added(added.iter().filter(|l| l.is_some()).count() as u64);
            for value in added {
                self.insert(cx, value);
            }
            return Ok(());
        }

        if remove != added.len() {
            return Err(TreeError::FixedWidthViolation {
                removed: remove,
                added: added.len(),
            });
        }
        if !cx.is_commutative() {
            return Err(TreeError::CombinerNotCommutative);
        }
        cx.note_removed(remove as u64);
        cx.note_added(added.iter().filter(|l| l.is_some()).count() as u64);

        let mut added = added.into_iter();
        // Split-mode shortcut: a single rotation with a prepared off-path
        // aggregate needs one foreground merge; the structural update is
        // deferred to the next background step.
        if remove == 1 && self.pending.is_none() {
            if let Some((off_path, _)) = self.precombined.take() {
                let leaf = added.next().expect("remove == added.len() == 1");
                // The root takes the prepared aggregate or borrows the
                // leaf (see `root`): only a merge makes a value.
                let root = match (&leaf, off_path) {
                    (Some(v), Some(i)) => Some(cx.merge(Phase::Foreground, v, &i).0),
                    (_, off_path) => off_path,
                };
                // Count the replacement now, not at flush time: `present` is
                // always the exact occupancy and `len` needs no deferred
                // reconstruction (which could underflow on a pending removal
                // against an absent slot).
                self.count_replacement(self.next_victim, leaf.is_some());
                self.pending = Some(Pending {
                    slot: self.next_victim,
                    leaf,
                    root,
                });
                // The victim rotates now so a subsequent advance targets the
                // right slot.
                self.next_victim = (self.next_victim + 1) % self.capacity;
                return Ok(());
            }
        }

        // Normal mode: apply rotations eagerly on the foreground path.
        self.flush_pending(cx, Phase::Foreground);
        for value in added {
            self.insert(cx, value);
        }
        Ok(())
    }

    fn advance_absent(&mut self, cx: &mut TreeCx<'_, K, V>) -> Result<(), TreeError> {
        if !self.is_full() {
            // During fill the slot is simply consumed while staying absent.
            self.insert(cx, None);
            return Ok(());
        }
        // The rotation must not drop a present leaf silently; the pending
        // slot (if any) is a *different*, already-rotated slot and can stay
        // deferred.
        if self.core.levels[0][self.next_victim].is_some() {
            return Err(TreeError::FixedWidthViolation {
                removed: 1,
                added: 0,
            });
        }
        self.next_victim = (self.next_victim + 1) % self.capacity;
        // The prepared off-path aggregate targeted the old victim slot.
        self.precombined = None;
        Ok(())
    }

    fn preprocess(&mut self, cx: &mut TreeCx<'_, K, V>) {
        // Background step one: apply the deferred insertion.
        self.flush_pending(cx, Phase::Background);
        // Background step two: pre-combine the off-path aggregate for the
        // next insertion slot.
        let slot = self.next_slot();
        let off_path = self.combine_off_path(cx, Phase::Background, slot);
        let bytes = off_path.as_ref().map_or(0, |v| cx.value_bytes(v));
        self.precombined = Some((off_path, bytes));
    }

    fn root(&self) -> Option<&V> {
        match &self.pending {
            Some(pending) => pending.root.as_ref().or(pending.leaf.as_ref()),
            None => self.core.root(),
        }
    }

    fn len(&self) -> usize {
        // `present` is adjusted eagerly at the moment each replacement is
        // decided — including split-mode rotations whose structural write is
        // still deferred in `pending` — so it is always the exact occupancy.
        // The old deferred reconstruction here could underflow (and in
        // release builds silently clamp) on a pending removal against an
        // absent slot; that state is now unrepresentable.
        self.present
    }

    fn memo_bytes(&self) -> u64 {
        self.core.slab.bytes() + self.precombined.as_ref().map_or(0, |(_, bytes)| *bytes)
    }

    #[cfg(feature = "oracle")]
    fn memo_layout(&self) -> MemoLayout<'_, V> {
        let prepared = self.precombined.as_ref().and_then(|(i, _)| i.as_ref());
        self.core.memo_layout(prepared)
    }

    fn kind(&self) -> TreeKind {
        TreeKind::Rotating
    }
}

impl<K, V> ContractionTree<K, V> for RotatingTree<V>
where
    K: Send + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn height(&self) -> usize {
        if self.present == 0 {
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
    use crate::stats::UpdateStats;

    fn sum_combiner() -> FnCombiner<impl Fn(&u8, &u64, &u64) -> u64> {
        FnCombiner::new(|_: &u8, a: &u64, b: &u64| a + b)
    }

    fn leaves(values: &[u64]) -> Vec<Option<u64>> {
        values.iter().copied().map(Some).collect()
    }

    fn root_of(tree: &RotatingTree<u64>) -> Option<u64> {
        WindowAggregator::<u8, u64>::root(tree).copied()
    }

    #[test]
    fn fill_then_rotate_matches_reference() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(4);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
        assert_eq!(root_of(&tree), Some(10));
        assert!(tree.is_full());

        // Slide by one bucket: 1 drops out, 5 comes in.
        tree.advance(&mut cx, 1, leaves(&[5])).unwrap();
        assert_eq!(root_of(&tree), Some(2 + 3 + 4 + 5));
        // Slide again: 2 drops out.
        tree.advance(&mut cx, 1, leaves(&[6])).unwrap();
        assert_eq!(root_of(&tree), Some(3 + 4 + 5 + 6));
    }

    #[test]
    fn rotation_is_logarithmic() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(256);
        tree.rebuild(&mut cx, leaves(&(0..256).collect::<Vec<_>>()));

        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.advance(&mut cx, 1, leaves(&[999])).unwrap();
        assert_eq!(root_of(&tree), Some((1..256).sum::<u64>() + 999));
        assert!(
            stats.foreground.merges <= 8,
            "merges = {}",
            stats.foreground.merges
        );
    }

    #[test]
    fn split_mode_foreground_is_one_merge() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(64);
        tree.rebuild(&mut cx, leaves(&(0..64).collect::<Vec<_>>()));

        // Background: prepare I for the next victim (slot 0).
        let mut bg_stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut bg_stats);
        tree.preprocess(&mut cx);
        assert!(bg_stats.background.merges > 0);
        assert_eq!(bg_stats.foreground.merges, 0);

        // Foreground: a single merge produces the new root.
        let mut fg_stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut fg_stats);
        tree.advance(&mut cx, 1, leaves(&[1000])).unwrap();
        assert_eq!(fg_stats.foreground.merges, 1);
        assert_eq!(root_of(&tree), Some((1..64).sum::<u64>() + 1000));

        // The deferred insertion lands in the next background step and the
        // root stays correct.
        let mut bg2 = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut bg2);
        tree.preprocess(&mut cx);
        assert!(bg2.background.merges > 0);
        assert_eq!(root_of(&tree), Some((1..64).sum::<u64>() + 1000));
    }

    #[test]
    fn split_mode_repeated_slides_stay_correct() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut tree = RotatingTree::new(8);
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        tree.rebuild(&mut cx, leaves(&(0..8).collect::<Vec<_>>()));

        let mut reference: std::collections::VecDeque<u64> = (0..8).collect();
        for i in 0..30u64 {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.preprocess(&mut cx);

            let value = 100 + i;
            reference.pop_front();
            reference.push_back(value);
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            tree.advance(&mut cx, 1, leaves(&[value])).unwrap();
            assert_eq!(
                root_of(&tree),
                Some(reference.iter().sum::<u64>()),
                "slide {i}"
            );
        }
    }

    #[test]
    fn absent_buckets_are_handled() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(4);
        tree.rebuild(&mut cx, vec![Some(1), None, Some(3), None]);
        assert_eq!(root_of(&tree), Some(4));
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 2);

        // Rotate an absent bucket in over a present one (slot 0).
        tree.advance(&mut cx, 1, vec![None]).unwrap();
        assert_eq!(root_of(&tree), Some(3));
        // Rotate a present bucket over an absent one (slot 1).
        tree.advance(&mut cx, 1, leaves(&[7])).unwrap();
        assert_eq!(root_of(&tree), Some(10));
    }

    #[test]
    fn absent_buckets_in_split_mode() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(4);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
        tree.preprocess(&mut cx);
        tree.advance(&mut cx, 1, vec![None]).unwrap();
        assert_eq!(root_of(&tree), Some(2 + 3 + 4));
        tree.preprocess(&mut cx);
        assert_eq!(root_of(&tree), Some(2 + 3 + 4));
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 3);
    }

    #[test]
    fn non_commutative_combiner_is_rejected_on_rotation() {
        let combiner = FnCombiner::non_commutative(|_: &u8, a: &u64, b: &u64| a * 10 + b);
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(2);
        tree.rebuild(&mut cx, leaves(&[1, 2]));
        let err = tree.advance(&mut cx, 1, leaves(&[3])).unwrap_err();
        assert_eq!(err, TreeError::CombinerNotCommutative);
    }

    #[test]
    fn fixed_width_violations_are_rejected() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(4);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4]));
        assert!(matches!(
            tree.advance(&mut cx, 2, leaves(&[9])),
            Err(TreeError::FixedWidthViolation {
                removed: 2,
                added: 1
            })
        ));
        // Overfilling during the fill phase is also rejected.
        let mut tree = RotatingTree::new(2);
        tree.rebuild(&mut cx, leaves(&[1]));
        assert!(matches!(
            tree.advance(&mut cx, 0, leaves(&[2, 3])),
            Err(TreeError::CapacityExceeded {
                capacity: 2,
                attempted: 3
            })
        ));
    }

    #[test]
    fn advance_absent_rotates_the_victim_pointer() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(3);
        // Key present only in bucket 1 of 3.
        tree.rebuild(&mut cx, vec![None, Some(7), None]);
        assert_eq!(root_of(&tree), Some(7));

        // Window slides past slot 0 (absent for this key): zero merges.
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        WindowAggregator::<u8, u64>::advance_absent(&mut tree, &mut cx).unwrap();
        assert_eq!(stats.total_merges(), 0);
        assert_eq!(root_of(&tree), Some(7));

        // Next slide drops slot 1, where the key IS present: a silent
        // absent-rotation must be rejected...
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        assert!(WindowAggregator::<u8, u64>::advance_absent(&mut tree, &mut cx).is_err());
        // ...and the explicit removal works.
        tree.advance(&mut cx, 1, vec![None]).unwrap();
        assert_eq!(root_of(&tree), None);
    }

    #[test]
    fn pending_removal_of_an_absent_slot_keeps_len_in_range() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(4);
        // Slot 0 — the first rotation victim — is absent for this key.
        tree.rebuild(&mut cx, vec![None, Some(2), Some(3), Some(4)]);
        tree.preprocess(&mut cx);
        // The split-mode slide defers a removal (`None`) against the absent
        // slot; the deferred adjustment must not drive `len` below zero (a
        // raw `as usize` cast here used to wrap to ~2^64).
        tree.advance(&mut cx, 1, vec![None]).unwrap();
        let len = WindowAggregator::<u8, u64>::len(&tree);
        assert!(len <= tree.capacity(), "len {len} wrapped past capacity");
        assert_eq!(len, 3);
        assert_eq!(root_of(&tree), Some(9));
        // Flushing the deferred insertion keeps the count stable.
        tree.preprocess(&mut cx);
        assert_eq!(WindowAggregator::<u8, u64>::len(&tree), 3);
        assert_eq!(root_of(&tree), Some(9));
    }

    /// Regression for the old release-mode clamp: `len` used to reconstruct
    /// the occupancy from the deferred `pending` entry with
    /// `checked_add_signed(..).unwrap_or(0)`, which a debug assert guarded
    /// and release builds silently clamped to zero. The count is now
    /// adjusted eagerly at defer time, so this drives split-mode slides
    /// through every present/absent replacement combination — including the
    /// pending-removal-of-an-absent-slot case that used to underflow — and
    /// demands the *exact* occupancy (not just "in range") at every step,
    /// both while a write is deferred and after it flushes. No debug assert
    /// is involved: the assertions here hold in release builds too.
    #[test]
    fn split_mode_len_is_exact_at_every_deferred_step() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let capacity = 4;
        let mut tree = RotatingTree::new(capacity);
        // Start with a mixed window: slots 0 and 2 absent.
        let initial = [None, Some(1), None, Some(3)];
        let mut reference: std::collections::VecDeque<Option<u64>> =
            initial.iter().copied().collect();
        tree.rebuild(&mut cx, initial.to_vec());

        // A fixed pattern that pairs every (old, new) presence combination,
        // in particular (absent, absent): a pending removal against an
        // absent slot.
        let pattern: [Option<u64>; 8] = [
            None,    // replaces absent slot 0: the old underflow case
            Some(5), // replaces present slot 1
            Some(6), // replaces absent slot 2
            None,    // replaces present slot 3
            None,    // replaces None inserted above
            None,    // replaces Some(5)
            Some(7), // replaces Some(6)
            Some(8), // replaces None
        ];
        for (step, value) in pattern.into_iter().enumerate() {
            let mut stats = UpdateStats::default();
            let mut cx = TreeCx::new(&combiner, &key, &mut stats);
            // Prepare the off-path aggregate so the next advance defers.
            tree.preprocess(&mut cx);
            tree.advance(&mut cx, 1, vec![value]).unwrap();
            reference.pop_front();
            reference.push_back(value);
            let expected = reference.iter().flatten().count();
            // While the structural write is still deferred...
            assert_eq!(
                WindowAggregator::<u8, u64>::len(&tree),
                expected,
                "step {step}: deferred len"
            );
            // ...and after it lands.
            tree.preprocess(&mut cx);
            assert_eq!(
                WindowAggregator::<u8, u64>::len(&tree),
                expected,
                "step {step}: flushed len"
            );
            let want: Option<u64> = reference.iter().flatten().copied().reduce(|a, b| a + b);
            assert_eq!(root_of(&tree), want, "step {step}: root");
        }
    }

    #[test]
    fn non_power_of_two_capacity_works() {
        let combiner = sum_combiner();
        let key = 0u8;
        let mut stats = UpdateStats::default();
        let mut cx = TreeCx::new(&combiner, &key, &mut stats);
        let mut tree = RotatingTree::new(5);
        tree.rebuild(&mut cx, leaves(&[1, 2, 3, 4, 5]));
        assert_eq!(root_of(&tree), Some(15));
        for i in 0..12u64 {
            tree.advance(&mut cx, 1, leaves(&[10 + i])).unwrap();
        }
        // Window is now the last 5 inserted: 17..=21.
        assert_eq!(root_of(&tree), Some(17 + 18 + 19 + 20 + 21));
    }
}
