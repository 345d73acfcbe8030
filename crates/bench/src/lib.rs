//! # slider-bench — the experiment harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! evaluation (§7–§8); `cargo bench` regenerates all of them, printing the
//! same rows/series the paper reports. Shared drivers, dataset builders
//! and formatting live here; see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

pub mod datasets;
pub mod driver;
pub mod joinbench;
pub mod report;
pub mod shootout;

pub use datasets::{hct_spec, kmeans_spec, knn_spec, matrix_spec, substr_spec, MicrobenchSpec};
pub use driver::{
    for_each_app, for_each_app_with_cluster, policy_for, run_slide, run_slide_with,
    ChangeMeasurement, WindowKind, PCTS,
};
pub use joinbench::{
    join_point_key, join_report, join_table, measure_join, run_join_bench, JoinPoint,
    JOIN_MEASURED_SLIDES, JOIN_SLIDE_PCTS, JOIN_WINDOWS,
};
pub use report::{
    banner, bench_json_dir, check_regression, fmt_f64, fmt_speedup, load_summary, BenchJson, Table,
    BENCH_JSON_DIR_ENV,
};
pub use shootout::{
    measure, point_key, run_shootout, shootout_report, shootout_table, ShootoutPoint,
    SHOOTOUT_KINDS, SLIDE_PCTS, WINDOWS,
};
