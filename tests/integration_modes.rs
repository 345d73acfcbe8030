//! Cross-crate integration: every execution mode must produce the same
//! output as recomputation from scratch, for every micro-benchmark
//! application, across multi-slide histories.

use slider_apps::{Hct, KMeans, Knn, Matrix, SubStr};
use slider_mapreduce::{make_splits, ExecMode, JobConfig, MapReduceApp, Split, WindowedJob};
use slider_workloads::points::{generate_points, initial_centroids};
use slider_workloads::text::{generate_documents, TextConfig};

/// Runs `app` over the same slide history under `mode` and `Recompute`,
/// asserting identical outputs after every slide.
fn check_mode_equivalence<A>(
    app: A,
    records: Vec<A::Input>,
    mode: ExecMode,
    buckets: (usize, usize),
) where
    A: MapReduceApp + Clone,
    A::Key: std::fmt::Debug,
    A::Output: std::fmt::Debug,
{
    let per_split = 5;
    let splits = make_splits(0, records, per_split);
    let n = splits.len();
    assert!(n >= 16, "history needs at least 16 splits, got {n}");
    let window = 8;

    let mk_job = |mode: ExecMode| {
        let config = JobConfig::new(mode)
            .with_partitions(3)
            .with_buckets(buckets.0, buckets.1);
        WindowedJob::new(app.clone(), config).expect("valid config")
    };
    let mut job = mk_job(mode);
    let mut vanilla = mk_job(ExecMode::Recompute);

    let initial: Vec<Split<A::Input>> = splits[..window].to_vec();
    job.initial_run(initial.clone()).expect("initial");
    vanilla.initial_run(initial).expect("initial");
    assert_eq!(
        job.output(),
        vanilla.output(),
        "{mode}: initial run diverged"
    );

    let append_only = mode.tree_kind() == Some(slider_core::TreeKind::Coalescing);
    let mut cursor = window;
    let mut step = 0;
    while cursor + 2 <= n {
        let added = splits[cursor..cursor + 2].to_vec();
        cursor += 2;
        let remove = if append_only { 0 } else { 2 };
        job.advance(remove, added.clone()).expect("slide");
        vanilla.advance(remove, added).expect("slide");
        step += 1;
        assert_eq!(
            job.output(),
            vanilla.output(),
            "{mode}: diverged at slide {step}"
        );
    }
    assert!(step >= 3, "exercised only {step} slides");
}

fn text_records(seed: u64) -> Vec<String> {
    generate_documents(
        seed,
        120,
        &TextConfig {
            vocabulary: 80,
            zipf_exponent: 1.0,
            words_per_doc: 12,
        },
    )
}

fn sliding_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Strawman,
        ExecMode::slider_folding(),
        ExecMode::slider_randomized(),
        ExecMode::slider_rotating(false),
        ExecMode::slider_rotating(true),
        ExecMode::slider_two_stack(),
        ExecMode::slider_daba(),
    ]
}

#[test]
fn hct_all_modes_match_recompute() {
    for mode in sliding_modes() {
        check_mode_equivalence(Hct::new(), text_records(1), mode, (8, 1));
    }
    check_mode_equivalence(
        Hct::new(),
        text_records(1),
        ExecMode::slider_coalescing(true),
        (8, 1),
    );
}

#[test]
fn substr_all_modes_match_recompute() {
    for mode in sliding_modes() {
        check_mode_equivalence(SubStr::new(3), text_records(2), mode, (8, 1));
    }
}

#[test]
fn matrix_all_modes_match_recompute() {
    for mode in sliding_modes() {
        check_mode_equivalence(Matrix::new(2), text_records(3), mode, (8, 1));
    }
}

#[test]
fn kmeans_outputs_match_within_float_tolerance() {
    // Floating-point sums associate differently across tree shapes, so
    // K-Means compares coordinates with a tolerance instead of Eq.
    let points = generate_points(4, 120, 6);
    let app = KMeans::new(initial_centroids(4, 4, 6));
    for mode in sliding_modes() {
        let mk = |mode| {
            let config = JobConfig::new(mode).with_partitions(2).with_buckets(8, 1);
            WindowedJob::new(app.clone(), config).expect("valid config")
        };
        let mut job = mk(mode);
        let mut vanilla = mk(ExecMode::Recompute);
        let splits = make_splits(0, points.clone(), 5);
        job.initial_run(splits[..8].to_vec()).unwrap();
        vanilla.initial_run(splits[..8].to_vec()).unwrap();
        for i in 0..4 {
            let added = splits[8 + 2 * i..10 + 2 * i].to_vec();
            job.advance(2, added.clone()).unwrap();
            vanilla.advance(2, added).unwrap();
        }
        assert_eq!(
            job.output().keys().collect::<Vec<_>>(),
            vanilla.output().keys().collect::<Vec<_>>()
        );
        for (k, centroid) in vanilla.output() {
            for (a, b) in centroid.coords.iter().zip(&job.output()[k].coords) {
                assert!((a - b).abs() < 1e-9, "{mode}: cluster {k} drifted");
            }
        }
    }
}

#[test]
fn knn_all_modes_match_recompute() {
    let train: Vec<(slider_workloads::points::Point, u32)> = generate_points(5, 120, 6)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, (i % 3) as u32))
        .collect();
    let queries = generate_points(55, 5, 6);
    for mode in sliding_modes() {
        check_mode_equivalence(Knn::new(queries.clone(), 4), train.clone(), mode, (8, 1));
    }
}

#[test]
fn incremental_work_stays_sublinear_over_long_histories() {
    // Over a long slide history the folding tree's per-slide work must stay
    // bounded (no degradation as the tree ages).
    let docs = generate_documents(
        9,
        600,
        &TextConfig {
            vocabulary: 60,
            zipf_exponent: 1.0,
            words_per_doc: 10,
        },
    );
    let splits = make_splits(0, docs, 5);
    let mut job = WindowedJob::new(
        Hct::new(),
        JobConfig::new(ExecMode::slider_folding()).with_partitions(2),
    )
    .unwrap();
    job.initial_run(splits[..40].to_vec()).unwrap();

    let mut per_slide = Vec::new();
    for i in 0..40 {
        let stats = job
            .advance(2, splits[40 + 2 * i..42 + 2 * i].to_vec())
            .unwrap();
        per_slide.push(stats.work.contraction_fg.work);
    }
    let first_ten: u64 = per_slide[..10].iter().sum();
    let last_ten: u64 = per_slide[30..].iter().sum();
    assert!(
        last_ten < first_ten * 2,
        "per-slide work degraded over time: first ten {first_ten}, last ten {last_ten}"
    );
}
