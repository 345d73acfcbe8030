//! Generic experiment drivers shared by the bench targets.

use slider_cluster::SchedulerPolicy;
use slider_mapreduce::{
    ExecMode, JobConfig, MapReduceApp, RunStats, SimulationConfig, WindowedJob,
};

use crate::datasets::{self, MicrobenchSpec};

/// Input-change percentages swept by Figures 7–9.
pub const PCTS: [usize; 5] = [5, 10, 15, 20, 25];

/// The three windowing variants of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Append-only (A): `p%` more data is appended.
    Append,
    /// Fixed-width (F): `p%` of the buckets rotate.
    Fixed,
    /// Variable-width (V): same slide, processed by variable-width trees.
    Variable,
}

impl WindowKind {
    /// All kinds in plotting order.
    pub const ALL: [WindowKind; 3] = [WindowKind::Append, WindowKind::Fixed, WindowKind::Variable];

    /// One-letter label used in the paper's figures.
    pub fn letter(self) -> &'static str {
        match self {
            WindowKind::Append => "A",
            WindowKind::Fixed => "F",
            WindowKind::Variable => "V",
        }
    }

    /// The Slider execution mode matching this window kind.
    pub fn slider_mode(self, split_processing: bool) -> ExecMode {
        match self {
            WindowKind::Append => ExecMode::slider_coalescing(split_processing),
            WindowKind::Fixed => ExecMode::slider_rotating(split_processing),
            WindowKind::Variable => ExecMode::slider_folding(),
        }
    }
}

/// Work and simulated time of one incremental run.
#[derive(Debug, Clone)]
pub struct ChangeMeasurement {
    /// Foreground work of the update, in work units.
    pub work: u64,
    /// Background (pre-processing) work, if any.
    pub background_work: u64,
    /// Simulated end-to-end time of the update, nanoseconds.
    pub time_ns: u64,
    /// Simulated background-processing time, nanoseconds.
    pub background_ns: u64,
    /// Full run statistics.
    pub stats: RunStats,
    /// Statistics of the initial run that preceded the update.
    pub initial: RunStats,
    /// Splits in the window before and after the update.
    pub window_splits: (usize, usize),
}

/// Runs one micro-benchmark: initial window, then a single `pct`% slide,
/// returning the slide's measurement.
///
/// # Panics
///
/// Panics if the spec lacks enough spare splits for the requested slide —
/// a harness bug.
pub fn run_slide<A: MapReduceApp + Clone>(
    spec: &MicrobenchSpec<A>,
    mode: ExecMode,
    kind: WindowKind,
    pct: usize,
    policy: SchedulerPolicy,
) -> ChangeMeasurement {
    run_slide_with(spec, mode, kind, pct, |config| {
        config.with_simulation(SimulationConfig {
            cluster: slider_cluster::ClusterSpec::paper_cluster(),
            policy,
        })
    })
}

/// Like [`run_slide`], but lets the caller finish the [`JobConfig`] —
/// used by the scheduler/cache table harnesses that need custom clusters
/// or a memoization-cache model.
pub fn run_slide_with<A: MapReduceApp + Clone>(
    spec: &MicrobenchSpec<A>,
    mode: ExecMode,
    kind: WindowKind,
    pct: usize,
    finish: impl FnOnce(JobConfig) -> JobConfig,
) -> ChangeMeasurement {
    let n = spec.initial.len();
    let delta = (n * pct).div_ceil(100).max(1);
    assert!(
        delta <= spec.extra.len(),
        "not enough spare splits for a {pct}% slide"
    );

    let mut config = JobConfig::new(mode).with_partitions(8);
    if kind == WindowKind::Fixed {
        let buckets = crate::datasets::FIXED_BUCKETS;
        assert_eq!(n % buckets, 0, "window must be whole buckets");
        assert_eq!(delta % (n / buckets), 0, "slides must rotate whole buckets");
        config = config.with_buckets(buckets, n / buckets);
    }
    let config = finish(config);
    let mut job = WindowedJob::new(spec.app.clone(), config).expect("valid config");
    let initial = job.initial_run(spec.initial.clone()).expect("initial run");
    let splits_before = job.window_splits();

    let added: Vec<_> = spec.extra[..delta].to_vec();
    let remove = match kind {
        WindowKind::Append => 0,
        WindowKind::Fixed | WindowKind::Variable => delta,
    };
    let stats = job.advance(remove, added).expect("slide");
    let window_splits = (splits_before, job.window_splits());

    ChangeMeasurement {
        work: stats.work.foreground_total(),
        background_work: stats.work.contraction_bg.work,
        time_ns: stats.sim.as_ref().map_or(0, |s| s.makespan_ns),
        background_ns: stats.background_ns(),
        stats,
        initial,
        window_splits,
    }
}

/// Scheduler used by each system: stock Hadoop scheduling for the vanilla
/// baseline, Slider's hybrid scheduler otherwise.
pub fn policy_for(mode: ExecMode) -> SchedulerPolicy {
    if mode == ExecMode::Recompute {
        SchedulerPolicy::Vanilla
    } else {
        SchedulerPolicy::hybrid_default()
    }
}

/// Runs `f` over all five micro-benchmarks, collecting the per-app results.
/// The closure receives the app name and a runner that executes one slide
/// for a `(mode, kind, pct)` combination.
pub fn for_each_app(
    f: impl FnMut(&'static str, &dyn Fn(ExecMode, WindowKind, usize) -> ChangeMeasurement),
) {
    for_each_app_with_cluster(slider_cluster::ClusterSpec::paper_cluster(), f)
}

/// [`for_each_app`] with a custom simulated cluster (used by the harnesses
/// that need recalibrated cost models).
pub fn for_each_app_with_cluster(
    cluster: slider_cluster::ClusterSpec,
    mut f: impl FnMut(&'static str, &dyn Fn(ExecMode, WindowKind, usize) -> ChangeMeasurement),
) {
    fn go<A: MapReduceApp + Clone>(
        cluster: &slider_cluster::ClusterSpec,
        spec: MicrobenchSpec<A>,
    ) -> impl Fn(ExecMode, WindowKind, usize) -> ChangeMeasurement + '_ {
        move |mode, kind, pct| {
            run_slide_with(&spec, mode, kind, pct, |config| {
                config.with_simulation(SimulationConfig {
                    cluster: cluster.clone(),
                    policy: policy_for(mode),
                })
            })
        }
    }
    f("HCT", &go(&cluster, datasets::hct_spec()));
    f("subStr", &go(&cluster, datasets::substr_spec()));
    f("Matrix", &go(&cluster, datasets::matrix_spec()));
    f("K-Means", &go(&cluster, datasets::kmeans_spec()));
    f("KNN", &go(&cluster, datasets::knn_spec()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slider_beats_recompute_on_work() {
        let spec = datasets::hct_spec();
        let vanilla = run_slide(
            &spec,
            ExecMode::Recompute,
            WindowKind::Variable,
            5,
            SchedulerPolicy::Vanilla,
        );
        let slider = run_slide(
            &spec,
            ExecMode::slider_folding(),
            WindowKind::Variable,
            5,
            SchedulerPolicy::hybrid_default(),
        );
        assert!(
            slider.work < vanilla.work,
            "slider {} vs vanilla {}",
            slider.work,
            vanilla.work
        );
        assert!(slider.time_ns < vanilla.time_ns);
    }

    #[test]
    fn window_kinds_map_to_modes() {
        assert_eq!(
            WindowKind::Append.slider_mode(true),
            ExecMode::slider_coalescing(true)
        );
        assert_eq!(
            WindowKind::Fixed.slider_mode(false),
            ExecMode::slider_rotating(false)
        );
        assert_eq!(
            WindowKind::Variable.slider_mode(false),
            ExecMode::slider_folding()
        );
        assert_eq!(WindowKind::Append.letter(), "A");
    }

    #[test]
    fn fixed_width_slide_keeps_window_size() {
        let spec = datasets::substr_spec();
        let m = run_slide(
            &spec,
            ExecMode::slider_rotating(false),
            WindowKind::Fixed,
            10,
            SchedulerPolicy::hybrid_default(),
        );
        let (before, after) = m.window_splits;
        assert!(before > 0, "the initial window holds splits");
        assert_eq!(before, after, "a fixed-width slide keeps the split count");
        assert!(m.work > 0);
    }
}
