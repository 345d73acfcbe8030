//! The [`Combiner`] trait: the only application code the contraction trees
//! ever see.
//!
//! Slider's transparency guarantee (§1 of the paper) rests on the fact that
//! MapReduce applications already provide an associative `Combiner` function;
//! the trees reuse that function to break a monolithic Reduce into a balanced
//! graph of small sub-computations. Nothing about *incrementality* leaks into
//! application code.

/// An associative merge of two partial aggregates for a key.
///
/// This corresponds to the MapReduce Combiner function (§2.2). The contract:
///
/// * `combine` must be **associative**: `c(c(a,b),d) == c(a,c(b,d))`.
/// * If [`Combiner::is_commutative`] returns `true` it must also be
///   **commutative**; the rotating contraction tree (§4.1) requires this
///   because bucket rotation merges partial aggregates out of window order.
///
/// The `cost` and `value_bytes` hooks feed the work/space accounting used to
/// reproduce the paper's *work* metric and Figure 13's space overheads; they
/// have sensible defaults for unit-cost combiners.
pub trait Combiner<K, V>: Send + Sync {
    /// Merges two partial aggregates for `key`. Must be associative.
    fn combine(&self, key: &K, a: &V, b: &V) -> V;

    /// Whether [`Combiner::combine`] is commutative. Defaults to `true`,
    /// which held for every combiner the paper's authors encountered.
    fn is_commutative(&self) -> bool {
        true
    }

    /// Modeled cost of `combine(key, a, b)` in abstract work units.
    fn cost(&self, _key: &K, _a: &V, _b: &V) -> u64 {
        1
    }

    /// Modeled memoization footprint of a partial aggregate, in bytes.
    fn value_bytes(&self, _key: &K, _v: &V) -> u64 {
        16
    }

    /// One metered invocation: [`Combiner::cost`], [`Combiner::combine`]
    /// and the [`Combiner::value_bytes`] of the result, in that order, in
    /// one call. The trees call only this, so a merge behind a
    /// `dyn Combiner` costs one dynamic dispatch.
    fn merge(&self, key: &K, a: &V, b: &V) -> Merged<V> {
        let cost = self.cost(key, a, b);
        let value = self.combine(key, a, b);
        let bytes = self.value_bytes(key, &value);
        Merged { value, cost, bytes }
    }
}

/// The outcome of [`Combiner::merge`]: the merged aggregate with its
/// modeled cost and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merged<V> {
    /// `combine(key, a, b)`.
    pub value: V,
    /// `cost(key, a, b)`, in work units.
    pub cost: u64,
    /// `value_bytes(key, value)`.
    pub bytes: u64,
}

/// Adapts a plain closure into a [`Combiner`] with unit costs.
///
/// Convenient for tests, examples and micro-benchmarks:
///
/// ```
/// use slider_core::{Combiner, FnCombiner};
/// let c = FnCombiner::new(|_k: &u32, a: &i64, b: &i64| a + b);
/// assert_eq!(c.combine(&0, &2, &3), 5);
/// ```
#[derive(Debug, Clone)]
pub struct FnCombiner<F> {
    f: F,
    commutative: bool,
}

impl<F> FnCombiner<F> {
    /// Wraps `f` as a commutative combiner.
    pub fn new(f: F) -> Self {
        FnCombiner {
            f,
            commutative: true,
        }
    }

    /// Wraps `f` as an associative but non-commutative combiner.
    pub fn non_commutative(f: F) -> Self {
        FnCombiner {
            f,
            commutative: false,
        }
    }
}

impl<K, V, F> Combiner<K, V> for FnCombiner<F>
where
    F: Fn(&K, &V, &V) -> V + Send + Sync,
{
    fn combine(&self, key: &K, a: &V, b: &V) -> V {
        (self.f)(key, a, b)
    }

    fn is_commutative(&self) -> bool {
        self.commutative
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_combiner_combines() {
        let c = FnCombiner::new(|_: &(), a: &u64, b: &u64| (*a).max(*b));
        assert_eq!(c.combine(&(), &4, &9), 9);
        assert!(c.is_commutative());
        assert_eq!(c.cost(&(), &4, &9), 1);
    }

    #[test]
    fn merge_meters_one_combine() {
        let c = FnCombiner::new(|_: &(), a: &u64, b: &u64| a + b);
        let merged = c.merge(&(), &4, &9);
        assert_eq!(
            merged,
            Merged {
                value: 13,
                cost: 1,
                bytes: 16
            }
        );
    }

    #[test]
    fn non_commutative_flag() {
        let c = FnCombiner::non_commutative(|_: &(), a: &String, b: &String| format!("{a}{b}"));
        assert!(!c.is_commutative());
        assert_eq!(c.combine(&(), &"a".into(), &"b".into()), "ab");
    }
}
