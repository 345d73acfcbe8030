//! Dataset builders for the five micro-benchmarks (§7.1).
//!
//! The paper uses a Wikipedia dump for the data-intensive apps and random
//! 50-dimensional unit-cube points for the compute-intensive ones; here
//! the text comes from the Zipf generator (see DESIGN.md §2). Scales are
//! chosen so the full sweep finishes in seconds while keeping windows
//! large enough (40 splits) that 5%-granularity slides are meaningful.

use slider_apps::{Hct, KMeans, Knn, Matrix, SubStr};
use slider_mapreduce::{make_splits, MapReduceApp, Split};
use slider_workloads::points::{generate_points, initial_centroids};
use slider_workloads::text::{generate_documents, TextConfig};

/// One micro-benchmark: the application plus its initial window and spare
/// splits for slides.
pub struct MicrobenchSpec<A: MapReduceApp> {
    /// Human-readable name.
    pub name: &'static str,
    /// The application (plain batch code).
    pub app: A,
    /// Initial window, `WINDOW_SPLITS` splits.
    pub initial: Vec<Split<A::Input>>,
    /// Fresh splits consumed by subsequent slides.
    pub extra: Vec<Split<A::Input>>,
}

/// Splits per initial window. 200 splits give (a) whole-split slides at 5%
/// granularity and (b) multiple map waves on the 24-worker × 2-slot
/// simulated cluster, which is where the paper's *time* savings come from.
pub const WINDOW_SPLITS: usize = 200;
/// Spare splits generated for slides (enough for one 25% slide).
pub const EXTRA_SPLITS: usize = 60;
/// Records per split.
pub const RECORDS_PER_SPLIT: usize = 12;
/// Buckets per fixed-width window (paper §4.1: `p%` of the *buckets*
/// rotate, so 20 buckets give 5% granularity with `w = 10` splits each).
pub const FIXED_BUCKETS: usize = 20;

fn text_docs(seed: u64) -> (Vec<String>, Vec<String>) {
    let config = TextConfig {
        vocabulary: 1_500,
        zipf_exponent: 1.05,
        words_per_doc: 30,
    };
    let total = (WINDOW_SPLITS + EXTRA_SPLITS) * RECORDS_PER_SPLIT;
    let mut docs = generate_documents(seed, total, &config);
    let extra = docs.split_off(WINDOW_SPLITS * RECORDS_PER_SPLIT);
    (docs, extra)
}

fn split_pair<R>(initial: Vec<R>, extra: Vec<R>) -> (Vec<Split<R>>, Vec<Split<R>>) {
    let first = make_splits(0, initial, RECORDS_PER_SPLIT);
    let second = make_splits(1_000_000, extra, RECORDS_PER_SPLIT);
    (first, second)
}

/// Histogram computation over Zipf text.
pub fn hct_spec() -> MicrobenchSpec<Hct> {
    let (initial, extra) = text_docs(0x11c7);
    let (initial, extra) = split_pair(initial, extra);
    MicrobenchSpec {
        name: "HCT",
        app: Hct::new(),
        initial,
        extra,
    }
}

/// Co-occurrence matrix over Zipf text.
pub fn matrix_spec() -> MicrobenchSpec<Matrix> {
    let (initial, extra) = text_docs(0x3a7);
    let (initial, extra) = split_pair(initial, extra);
    MicrobenchSpec {
        name: "Matrix",
        app: Matrix::new(2),
        initial,
        extra,
    }
}

/// Frequent sub-strings over Zipf text.
pub fn substr_spec() -> MicrobenchSpec<SubStr> {
    let (initial, extra) = text_docs(0x5ab);
    let (initial, extra) = split_pair(initial, extra);
    MicrobenchSpec {
        name: "subStr",
        app: SubStr::new(4),
        initial,
        extra,
    }
}

/// K-means over 50-dimensional unit-cube points (paper's setup).
pub fn kmeans_spec() -> MicrobenchSpec<KMeans> {
    let dims = 50;
    let total = (WINDOW_SPLITS + EXTRA_SPLITS) * RECORDS_PER_SPLIT;
    let mut points = generate_points(0x4ea5, total, dims);
    let extra = points.split_off(WINDOW_SPLITS * RECORDS_PER_SPLIT);
    let (initial, extra) = split_pair(points, extra);
    MicrobenchSpec {
        name: "K-Means",
        app: KMeans::new(initial_centroids(0x4ea5, 16, dims)),
        initial,
        extra,
    }
}

/// KNN classification of fixed queries against windowed training points.
pub fn knn_spec() -> MicrobenchSpec<Knn> {
    let dims = 50;
    let total = (WINDOW_SPLITS + EXTRA_SPLITS) * RECORDS_PER_SPLIT;
    let labelled: Vec<(slider_workloads::points::Point, u32)> = generate_points(0x59, total, dims)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, u32::try_from(i % 4).expect("label fits")))
        .collect();
    let mut points = labelled;
    let extra = points.split_off(WINDOW_SPLITS * RECORDS_PER_SPLIT);
    let (initial, extra) = split_pair(points, extra);
    MicrobenchSpec {
        name: "KNN",
        app: Knn::new(generate_points(0xabcd, 24, dims), 8),
        initial,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_have_expected_geometry() {
        let spec = hct_spec();
        assert_eq!(spec.initial.len(), WINDOW_SPLITS);
        assert_eq!(spec.extra.len(), EXTRA_SPLITS);
        assert_eq!(spec.initial[0].len(), RECORDS_PER_SPLIT);
        let spec = kmeans_spec();
        assert_eq!(spec.initial.len(), WINDOW_SPLITS);
        let spec = knn_spec();
        assert_eq!(spec.extra.len(), EXTRA_SPLITS);
    }

    #[test]
    fn split_ids_never_collide() {
        let spec = substr_spec();
        let mut ids: Vec<u64> = spec
            .initial
            .iter()
            .chain(spec.extra.iter())
            .map(|s| s.id().0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), WINDOW_SPLITS + EXTRA_SPLITS);
    }
}
