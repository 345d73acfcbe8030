//! The parallel runtime must be invisible in every number the system
//! reports: for any worker-thread count, outputs AND the full RunStats
//! (modeled work, phase breakdowns, footprints) must be bit-identical to
//! the sequential run. This suite sweeps all five evaluation apps across
//! every execution mode, plus property-tests arbitrary slide sequences
//! against the sequential reference.

use proptest::prelude::*;
use slider_apps::{Hct, KMeans, Knn, Matrix, SubStr};
use slider_mapreduce::{make_splits, ExecMode, JobConfig, MapReduceApp, Split, WindowedJob};
use slider_workloads::points::{generate_points, initial_centroids};
use slider_workloads::text::{generate_documents, TextConfig};

/// How a mode's window slides in this suite.
#[derive(Clone, Copy, PartialEq)]
enum SlideKind {
    /// Variable-width: remove 2 splits, add 2.
    Variable,
    /// Append-only: add 2 splits.
    Append,
    /// Fixed-width buckets: rotate one whole bucket (4 splits) per slide.
    Fixed,
}

const WINDOW: usize = 24;
const BUCKETS: usize = 6;
const BUCKET_WIDTH: usize = WINDOW / BUCKETS;

/// Every execution mode, paired with a window discipline it supports.
fn mode_matrix() -> Vec<(ExecMode, SlideKind)> {
    vec![
        (ExecMode::Recompute, SlideKind::Variable),
        (ExecMode::Strawman, SlideKind::Variable),
        (ExecMode::slider_folding(), SlideKind::Variable),
        (ExecMode::slider_randomized(), SlideKind::Variable),
        (ExecMode::slider_coalescing(false), SlideKind::Append),
        (ExecMode::slider_coalescing(true), SlideKind::Append),
        (ExecMode::slider_rotating(false), SlideKind::Fixed),
        (ExecMode::slider_rotating(true), SlideKind::Fixed),
        (ExecMode::slider_two_stack(), SlideKind::Variable),
        (ExecMode::slider_daba(), SlideKind::Variable),
    ]
}

/// Runs one job to completion (initial window + two slides) and returns a
/// full fingerprint: the final outputs and the Debug rendering of every
/// RunStats the job produced.
fn run_once<A>(
    app: &A,
    splits: &[Split<A::Input>],
    mode: ExecMode,
    kind: SlideKind,
    threads: usize,
) -> (String, String)
where
    A: MapReduceApp + Clone,
    A::Key: std::fmt::Debug,
    A::Output: std::fmt::Debug,
{
    let mut config = JobConfig::new(mode)
        .with_partitions(4)
        .with_threads(threads);
    if kind == SlideKind::Fixed {
        config = config.with_buckets(BUCKETS, BUCKET_WIDTH);
    }
    let mut job = WindowedJob::new(app.clone(), config).expect("valid config");
    let s0 = job
        .initial_run(splits[..WINDOW].to_vec())
        .expect("initial run");
    let (remove, step) = match kind {
        SlideKind::Variable => (2, 2),
        SlideKind::Append => (0, 2),
        SlideKind::Fixed => (BUCKET_WIDTH, BUCKET_WIDTH),
    };
    let s1 = job
        .advance(remove, splits[WINDOW..WINDOW + step].to_vec())
        .expect("slide 1");
    let s2 = job
        .advance(remove, splits[WINDOW + step..WINDOW + 2 * step].to_vec())
        .expect("slide 2");
    (
        format!("{:?}", job.output()),
        format!("{s0:?} {s1:?} {s2:?}"),
    )
}

/// Asserts outputs and stats are identical at 1, 2, and 4 worker threads
/// for every execution mode.
fn check_app<A>(name: &str, app: A, splits: Vec<Split<A::Input>>)
where
    A: MapReduceApp + Clone,
    A::Key: std::fmt::Debug,
    A::Output: std::fmt::Debug,
{
    assert!(
        splits.len() >= WINDOW + 2 * BUCKET_WIDTH,
        "{name}: not enough splits"
    );
    for (mode, kind) in mode_matrix() {
        let sequential = run_once(&app, &splits, mode, kind, 1);
        for threads in [2, 4] {
            let parallel = run_once(&app, &splits, mode, kind, threads);
            assert_eq!(
                sequential.0, parallel.0,
                "{name} outputs differ at {threads} threads under {mode:?}"
            );
            assert_eq!(
                sequential.1, parallel.1,
                "{name} RunStats differ at {threads} threads under {mode:?}"
            );
        }
    }
}

fn text_splits(seed: u64) -> Vec<Split<String>> {
    let docs = generate_documents(
        seed,
        (WINDOW + 2 * BUCKET_WIDTH) * 4,
        &TextConfig {
            vocabulary: 300,
            zipf_exponent: 1.05,
            words_per_doc: 12,
        },
    );
    make_splits(0, docs, 4)
}

#[test]
fn hct_is_thread_count_invariant() {
    check_app("HCT", Hct::new(), text_splits(0x11c7));
}

#[test]
fn substr_is_thread_count_invariant() {
    check_app("subStr", SubStr::new(4), text_splits(0x5ab));
}

#[test]
fn matrix_is_thread_count_invariant() {
    check_app("Matrix", Matrix::new(2), text_splits(0x3a7));
}

#[test]
fn kmeans_is_thread_count_invariant() {
    let dims = 8;
    let points = generate_points(0x4ea5, (WINDOW + 2 * BUCKET_WIDTH) * 4, dims);
    check_app(
        "K-Means",
        KMeans::new(initial_centroids(0x4ea5, 4, dims)),
        make_splits(0, points, 4),
    );
}

#[test]
fn knn_is_thread_count_invariant() {
    let dims = 8;
    let labelled: Vec<(slider_workloads::points::Point, u32)> =
        generate_points(0x59, (WINDOW + 2 * BUCKET_WIDTH) * 4, dims)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, (i % 4) as u32))
            .collect();
    check_app(
        "KNN",
        Knn::new(generate_points(0xabcd, 8, dims), 4),
        make_splits(0, labelled, 4),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Arbitrary slide sequences: the parallel runtime must track the
    /// sequential incremental job stat-for-stat, and both must agree with
    /// sequential full recomputation on outputs.
    #[test]
    fn arbitrary_slides_match_sequential_reference(
        steps in proptest::collection::vec((0usize..=2, 0usize..=2), 1..8),
    ) {
        let docs = generate_documents(
            0x7e57,
            200,
            &TextConfig { vocabulary: 150, zipf_exponent: 1.0, words_per_doc: 8 },
        );
        let splits = make_splits(0, docs, 4);
        let initial = 12usize;
        let job = |threads: usize, mode: ExecMode| {
            let mut job = WindowedJob::new(
                Hct::new(),
                JobConfig::new(mode).with_partitions(3).with_threads(threads),
            )
            .unwrap();
            job.initial_run(splits[..initial].to_vec()).unwrap();
            job
        };
        let mut parallel = job(4, ExecMode::slider_folding());
        let mut sequential = job(1, ExecMode::slider_folding());
        let mut recompute = job(1, ExecMode::Recompute);

        let mut window = initial;
        let mut feed = initial;
        for (remove, add) in steps {
            let remove = remove.min(window - 1);
            let add = add.min(splits.len() - feed);
            if remove == 0 && add == 0 {
                continue;
            }
            let added = splits[feed..feed + add].to_vec();
            feed += add;
            window = window - remove + add;

            let par_stats = parallel.advance(remove, added.clone()).unwrap();
            let seq_stats = sequential.advance(remove, added.clone()).unwrap();
            recompute.advance(remove, added).unwrap();

            prop_assert_eq!(
                format!("{par_stats:?}"),
                format!("{seq_stats:?}"),
                "stats diverged at window={}",
                window
            );
            prop_assert_eq!(parallel.output(), sequential.output());
            prop_assert_eq!(parallel.output(), recompute.output());
        }
    }
}
