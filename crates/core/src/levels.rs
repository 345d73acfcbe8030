//! The binary-tree core of the folding tree (paper §3.1) and the rotating
//! tree (§4.1): a complete binary tree over a power-of-two array of leaf
//! slots, kept level by level, whose every value lives in one slab (see the
//! `slab` module). An edit writes leaf slots, and [`Levels::propagate`]
//! recombines exactly the paths from them to the root, reusing every
//! off-path node's memoized value.
//!
//! The core holds no slot policy. Which leaf slots are live, and when the
//! tree grows or shrinks, belong to the folding tree; which slot a bucket
//! rotates into, and the split-mode state, to the rotating tree.

use crate::slab::{Handle, Slab};
use crate::stats::Phase;
#[cfg(feature = "oracle")]
use crate::tree::MemoLayout;
use crate::tree::TreeCx;

/// The levels of one binary tree and the slab that holds their values.
/// See the module docs.
#[derive(Clone)]
pub(crate) struct Levels<V> {
    /// `levels[0]` are the leaf slots (power-of-two length); `levels[h]`
    /// halves in length as `h` grows; the last level is the root. A present
    /// slot holds a handle into `slab`: a leaf or a merged node its own, a
    /// pass-through node its only child's.
    pub(crate) levels: Vec<Vec<Option<Handle>>>,
    /// Every value the levels hold, each once: its bytes are the
    /// memoization footprint.
    pub(crate) slab: Slab<V>,
    /// The leaf slots the current edit changed, empty between edits; kept
    /// for its capacity.
    pub(crate) dirty: Vec<usize>,
}

impl<V> Levels<V> {
    /// A tree of `width` absent leaf slots, `width` a power of two.
    pub(crate) fn new(width: usize) -> Self {
        debug_assert!(width.is_power_of_two());
        let widths = std::iter::successors(Some(width), |&w| (w > 1).then_some(w / 2));
        Levels {
            levels: widths.map(|w| vec![None; w]).collect(),
            slab: Slab::new(),
            dirty: Vec::new(),
        }
    }

    /// Number of leaf slots (always a power of two).
    pub(crate) fn width(&self) -> usize {
        self.levels[0].len()
    }

    /// Resets to one absent leaf slot, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.levels.truncate(1);
        self.levels[0].clear();
        self.levels[0].push(None);
        self.slab.clear();
        self.dirty.clear();
    }

    /// The root's value, if any leaf is present.
    pub(crate) fn root(&self) -> Option<&V> {
        self.levels.last()?[0].map(|h| self.slab.get(h))
    }

    /// Stores `value` in slot `i` of level `h`, releasing the old occupant.
    fn write(&mut self, h: usize, i: usize, value: Option<Handle>) {
        if let Some(old) = std::mem::replace(&mut self.levels[h][i], value) {
            self.slab.release(old);
        }
    }

    /// Moves `value` into the slab, with its modeled bytes.
    fn store<K>(&mut self, cx: &TreeCx<'_, K, V>, value: V) -> Handle {
        let bytes = cx.value_bytes(&value);
        self.slab.insert(value, bytes)
    }

    /// Stores `value` (or nothing) in leaf slot `i` and marks it dirty.
    pub(crate) fn set_leaf<K>(&mut self, cx: &TreeCx<'_, K, V>, i: usize, value: Option<V>) {
        let handle = value.map(|value| self.store(cx, value));
        self.write(0, i, handle);
        self.dirty.push(i);
    }

    /// Moves leaf slot `from` into the (void) leaf slot `to` and marks both
    /// dirty.
    pub(crate) fn move_leaf(&mut self, from: usize, to: usize) {
        let value = self.levels[0][from].take();
        self.write(0, to, value);
        self.dirty.extend([from, to]);
    }

    /// The parent of two possibly absent children: a fresh merge charged to
    /// `phase` when both are present, else the present child's value,
    /// shared.
    fn join<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        phase: Phase,
        left: Option<Handle>,
        right: Option<Handle>,
    ) -> Option<Handle> {
        match (left, right) {
            (Some(l), Some(r)) => {
                let (value, bytes) = cx.merge(phase, self.slab.get(l), self.slab.get(r));
                Some(self.slab.insert(value, bytes))
            }
            (Some(child), None) | (None, Some(child)) => Some(self.slab.share(child)),
            (None, None) => None,
        }
    }

    /// Discards every value and builds the tree over `leaves`, padded with
    /// absent slots to `width` (the paper's initial run).
    pub(crate) fn rebuild<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        leaves: Vec<Option<V>>,
        width: usize,
    ) {
        self.slab.clear();
        self.dirty.clear();
        let leaves = leaves
            .into_iter()
            .map(|leaf| leaf.map(|value| self.store(cx, value)))
            .collect();
        self.build(cx, leaves, width);
    }

    /// Builds every interior level over `leaves`, slab handles padded with
    /// absent slots to `width`, a power of two. The old levels are dropped
    /// without releasing anything: the caller has released or cleared them.
    pub(crate) fn build<K>(
        &mut self,
        cx: &mut TreeCx<'_, K, V>,
        mut leaves: Vec<Option<Handle>>,
        width: usize,
    ) {
        leaves.resize(width, None);
        self.levels.clear();
        self.levels.push(leaves);
        let mut width = width / 2;
        while width >= 1 {
            let mut level = Vec::with_capacity(width);
            for i in 0..width {
                let children = &self.levels[self.levels.len() - 1];
                let (left, right) = (children[2 * i], children[2 * i + 1]);
                level.push(self.join(cx, Phase::Foreground, left, right));
            }
            self.levels.push(level);
            width /= 2;
        }
    }

    /// Propagates the changes at the dirty leaf slots up to the root,
    /// charging `phase`. Each level walks its sorted changed slots once and
    /// leaves their parents, the next level's changed slots, in their place.
    pub(crate) fn propagate<K>(&mut self, cx: &mut TreeCx<'_, K, V>, phase: Phase) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for child_level in 0..self.levels.len() - 1 {
            let (mut read, mut parents) = (0, 0);
            while read < dirty.len() {
                let p = dirty[read] / 2;
                let left_dirty = dirty[read] == 2 * p;
                read += usize::from(left_dirty);
                let right_dirty = dirty.get(read) == Some(&(2 * p + 1));
                read += usize::from(right_dirty);
                let children = &self.levels[child_level];
                let (left, right) = (children[2 * p], children[2 * p + 1]);
                // A present sibling that is not itself dirty is a reused
                // memoized sub-computation.
                for (child, changed) in [(left, left_dirty), (right, right_dirty)] {
                    if let (Some(child), false) = (child, changed) {
                        cx.reuse_many(1, self.slab.bytes_of(child));
                    }
                }
                let value = self.join(cx, phase, left, right);
                self.write(child_level + 1, p, value);
                dirty[parents] = p;
                parents += 1;
            }
            dirty.truncate(parents);
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// The levels with each value named by its slab slot, and `prepared`, a
    /// value held beside them.
    #[cfg(feature = "oracle")]
    pub(crate) fn memo_layout<'a>(&'a self, prepared: Option<&'a V>) -> MemoLayout<'a, V> {
        let node = |slot: &Option<Handle>| slot.map(|h| (h.index(), self.slab.get(h)));
        let levels = self.levels.iter();
        MemoLayout::Levels {
            levels: levels.map(|l| l.iter().map(node).collect()).collect(),
            prepared,
        }
    }
}
