//! [`IndexSeq`]: one key's side index as a persistent, structurally
//! shared sequence of records in window order.

use std::fmt;
use std::sync::Arc;

use crate::app::IndexRecord;

/// Most records one run holds. Two runs concatenate by copy when they fit
/// in one, and by a shared node otherwise. Measured with alternating 10-s
/// runs of the `join_stragglers` perfbench workload on a 2-vCPU Xeon
/// against runs of 32: runs of 8 cut the median update latency by 2.7 %
/// (13 seeds) and peak RSS by 2.9 %; 16 and 4 landed within 2 % of 32 (8
/// seeds); 128 was 3 % slower, and one-record runs, where every
/// concatenation builds a node, 9 % slower (5 seeds) — a probe reads a
/// few slices faster than it walks many tiny runs.
const RUN: usize = 8;

/// One key's side index: a persistent, structurally shared sequence of
/// index records in window order. Cloning copies one handle.
///
/// The side jobs' contraction trees combine a key's per-split values on
/// every merge. A sequence that owned its records would copy them at each
/// merge on a dirty path; this one shares them instead. Its leaves are
/// runs of at most 8 contiguous records, and a concatenation node holds
/// `Arc` handles to its two halves, so two halves that do not fit in one
/// run concatenate by building one node, and an unchanged subtree is
/// shared by every tree level and every reduce output that holds it.
///
/// Concatenation keeps the left half's records before the right half's
/// and is associative but not commutative. The sequence's shape depends
/// on how it was built; its contents — what [`IndexSeq::iter`], equality
/// and `Debug` see — do not.
///
/// A sequence can be arbitrarily deep (map-side combine appends one record
/// at a time, building a chain as deep as the key's records in one split),
/// so every walk, and `Drop`, keeps its own stack instead of recursing.
pub struct IndexSeq<V> {
    node: Node<V>,
}

#[derive(Default)]
enum Node<V> {
    #[default]
    Empty,
    Run(Arc<Records<V>>),
    Cat(Arc<Cat<V>>),
}

/// The records of one run.
type Records<V> = [IndexRecord<V>];

/// A concatenation node: `left` then `right`, `len` records in all.
struct Cat<V> {
    left: IndexSeq<V>,
    right: IndexSeq<V>,
    len: usize,
}

impl<V> IndexSeq<V> {
    /// A one-record sequence.
    pub(crate) fn one(record: IndexRecord<V>) -> Self {
        IndexSeq {
            node: Node::Run(Arc::new([record])),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match &self.node {
            Node::Empty => 0,
            Node::Run(run) => run.len(),
            Node::Cat(cat) => cat.len,
        }
    }

    /// True when the sequence holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence's runs, in order, as slices.
    pub fn runs(&self) -> impl Iterator<Item = &[IndexRecord<V>]> + '_ {
        self.runs_with(Vec::new())
    }

    /// [`runs`](Self::runs), walking with `stack`'s allocation. A caller
    /// that walks many sequences hands the buffer from one walk to the
    /// next ([`Runs::into_stack`]), so only a walk deeper than every walk
    /// before it allocates.
    pub(crate) fn runs_with<'a>(&'a self, stack: Vec<&'a Self>) -> Runs<'a, V> {
        debug_assert!(stack.is_empty(), "a walk starts with an empty stack");
        Runs {
            next: Some(self),
            stack,
        }
    }

    /// The records, in order.
    pub fn iter(&self) -> impl Iterator<Item = &IndexRecord<V>> + '_ {
        self.runs().flatten()
    }

    /// The two runs `self · other` copies into one, if both are runs that
    /// fit in one together.
    fn fitting_runs<'a>(&'a self, other: &'a Self) -> Option<(&'a Records<V>, &'a Records<V>)> {
        match (&self.node, &other.node) {
            (Node::Run(a), Node::Run(b)) if a.len() + b.len() <= RUN => Some((a, b)),
            _ => None,
        }
    }

    /// Modeled cost of [`concat`](Self::concat): the records it copies,
    /// or 1 when it links the two halves under a node.
    pub(crate) fn concat_cost(&self, other: &Self) -> u64 {
        self.fitting_runs(other)
            .map_or(1, |(a, b)| (a.len() + b.len()) as u64)
    }
}

impl<V: Clone> IndexSeq<V> {
    /// `self` followed by `other`: one fresh run when both are runs that
    /// fit in one, else a node sharing both.
    pub(crate) fn concat(&self, other: &Self) -> Self {
        if let Some((a, b)) = self.fitting_runs(other) {
            return IndexSeq {
                node: Node::Run(a.iter().chain(b).cloned().collect()),
            };
        }
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        IndexSeq {
            node: Node::Cat(Arc::new(Cat {
                left: self.clone(),
                right: other.clone(),
                len: self.len() + other.len(),
            })),
        }
    }
}

impl<V> Default for IndexSeq<V> {
    /// The empty sequence.
    fn default() -> Self {
        IndexSeq { node: Node::Empty }
    }
}

impl<V> Clone for IndexSeq<V> {
    fn clone(&self) -> Self {
        let node = match &self.node {
            Node::Empty => Node::Empty,
            Node::Run(run) => Node::Run(Arc::clone(run)),
            Node::Cat(cat) => Node::Cat(Arc::clone(cat)),
        };
        IndexSeq { node }
    }
}

impl<V: PartialEq> PartialEq for IndexSeq<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<V: fmt::Debug> fmt::Debug for IndexSeq<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<V> Drop for Cat<V> {
    /// Unlinks every node this one owns alone onto a worklist before
    /// dropping it, so a chain of any depth drops without recursion.
    fn drop(&mut self) {
        let mut owned: Vec<Cat<V>> = Vec::new();
        let unlink = |half: &mut IndexSeq<V>, owned: &mut Vec<Cat<V>>| {
            if let Node::Cat(cat) = std::mem::take(&mut half.node) {
                if let Some(cat) = Arc::into_inner(cat) {
                    owned.push(cat);
                }
            }
        };
        unlink(&mut self.left, &mut owned);
        unlink(&mut self.right, &mut owned);
        while let Some(mut cat) = owned.pop() {
            unlink(&mut cat.left, &mut owned);
            unlink(&mut cat.right, &mut owned);
        }
    }
}

/// Iterator over an [`IndexSeq`]'s runs, in order.
pub(crate) struct Runs<'a, V> {
    /// The subsequence to visit next.
    next: Option<&'a IndexSeq<V>>,
    /// The subsequences after it, the nearest on top.
    stack: Vec<&'a IndexSeq<V>>,
}

impl<'a, V> Runs<'a, V> {
    /// The walk's stack, emptied, for the next walk to reuse.
    pub(crate) fn into_stack(mut self) -> Vec<&'a IndexSeq<V>> {
        self.stack.clear();
        self.stack
    }
}

impl<'a, V> Iterator for Runs<'a, V> {
    type Item = &'a [IndexRecord<V>];

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let seq = self.next.take().or_else(|| self.stack.pop())?;
            match &seq.node {
                Node::Empty => {}
                Node::Run(run) => return Some(run),
                Node::Cat(cat) => {
                    self.stack.push(&cat.right);
                    self.next = Some(&cat.left);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> IndexRecord<u32> {
        IndexRecord::new(t, 0, u32::try_from(t).expect("small"))
    }

    /// Records `from..to`, one at a time, left to right.
    fn chain(from: u64, to: u64) -> IndexSeq<u32> {
        (from..to).fold(IndexSeq::default(), |acc, t| {
            acc.concat(&IndexSeq::one(rec(t)))
        })
    }

    /// Records `from..to` as a balanced tree of concatenations.
    fn balanced(from: u64, to: u64) -> IndexSeq<u32> {
        if to - from == 1 {
            return IndexSeq::one(rec(from));
        }
        let mid = from + (to - from) / 2;
        balanced(from, mid).concat(&balanced(mid, to))
    }

    fn times(seq: &IndexSeq<u32>) -> Vec<u64> {
        seq.iter().map(|r| r.time).collect()
    }

    #[test]
    fn concatenation_keeps_order() {
        // Newer-first inputs stay newer-first: concatenation never sorts.
        let a = chain(50, 90);
        let b = chain(0, 10);
        let ab = a.concat(&b);
        let want: Vec<u64> = (50..90).chain(0..10).collect();
        assert_eq!(times(&ab), want);
        assert_eq!(ab.len(), 50);
        assert_eq!(
            times(&b.concat(&a)),
            (0..10).chain(50..90).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concatenation_is_associative_across_run_boundaries() {
        // Lengths around RUN put the split points inside, at and past a run.
        let run = RUN as u64;
        for (x, y, z) in [
            (1, 1, 1),
            (run - 1, 1, run + 8),
            (run / 2, run / 2, 1),
            (run, run + 1, 7),
            (2 * run + 6, 2, run - 1),
        ] {
            let a = chain(0, x);
            let b = chain(x, x + y);
            let c = chain(x + y, x + y + z);
            let left = a.concat(&b).concat(&c);
            let right = a.concat(&b.concat(&c));
            assert_eq!(left, right, "({x}, {y}, {z})");
            assert_eq!(times(&left), (0..x + y + z).collect::<Vec<_>>());
        }
    }

    #[test]
    fn equality_and_debug_ignore_the_shape() {
        let by_chain = chain(0, 100);
        let by_halves = balanced(0, 100);
        assert_eq!(
            by_chain.runs().count(),
            1 + 100 - RUN,
            "one full run, then one run per record"
        );
        assert_ne!(by_halves.runs().count(), by_chain.runs().count());
        assert_eq!(by_chain, by_halves);
        let flat: Vec<IndexRecord<u32>> = (0..100).map(rec).collect();
        assert_eq!(format!("{by_chain:?}"), format!("{flat:?}"));
        assert_eq!(format!("{by_halves:?}"), format!("{flat:?}"));
        assert_ne!(by_chain, chain(0, 99));
        assert_ne!(by_chain, chain(1, 101));
        assert_eq!(IndexSeq::<u32>::default(), chain(0, 0));
    }

    #[test]
    fn a_reused_walk_stack_sees_the_same_runs() {
        let seqs = [chain(0, 100), balanced(0, 100), chain(0, 3), chain(0, 0)];
        let mut stack = Vec::new();
        for seq in &seqs {
            let mut runs = seq.runs_with(stack);
            assert!(runs.by_ref().eq(seq.runs()));
            stack = runs.into_stack();
            assert!(stack.is_empty());
        }
        assert!(stack.capacity() > 0, "the deep walks grew the buffer");
    }

    #[test]
    fn runs_fill_to_the_cap_then_link() {
        let full = chain(0, RUN as u64);
        assert_eq!(full.runs().count(), 1);
        let one = IndexSeq::one(rec(99));
        assert_eq!(full.concat_cost(&one), 1, "a full run links");
        assert_eq!(full.concat(&one).runs().count(), 2);
        let half = chain(0, RUN as u64 / 2);
        assert_eq!(half.concat_cost(&half), RUN as u64, "two halves copy");
        assert_eq!(half.concat(&half).runs().count(), 1);
        let linked = half.concat(&full);
        assert_eq!(linked.concat_cost(&one), 1, "a node links");
        assert_eq!(IndexSeq::default().concat_cost(&one), 1);
    }
}
