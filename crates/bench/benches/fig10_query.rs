//! Figure 10: incremental data-flow query processing — the PigMix-like
//! suite compiled to multi-job MapReduce pipelines, run under the three
//! window modes with a 5% input change, reporting work and time speedups
//! of Slider over the recompute-from-scratch pipeline.

use slider_bench::{banner, fmt_f64, Table, WindowKind};
use slider_mapreduce::{make_splits, ExecMode, JobConfig, SimulationConfig};
use slider_query::{pageview_row, pigmix_queries, PigMixQuery, QueryRunStats, Row};
use slider_workloads::pageviews::{generate_users, generate_views, PageViewConfig};

const WINDOW_SPLITS: usize = 200;
const ROWS_PER_SPLIT: usize = 30;
const INNER_BUCKETS: usize = 16;

/// End-to-end simulated pipeline time in nanoseconds: every job (first
/// and inner) is scheduled on the simulated cluster; jobs run
/// back-to-back.
fn pipeline_ns(result: &QueryRunStats) -> u64 {
    result.total_ns().expect("simulation configured")
}

fn run_query(pq: &PigMixQuery, mode: ExecMode, kind: WindowKind, views: &[Row]) -> QueryRunStats {
    let mut config = JobConfig::new(mode)
        .with_partitions(8)
        .with_simulation(SimulationConfig::paper_defaults());
    if kind == WindowKind::Fixed {
        config = config.with_buckets(WINDOW_SPLITS / 10, 10);
    }
    let mut exec = pq.query.compile(config, INNER_BUCKETS).expect("compiles");

    let initial = WINDOW_SPLITS * ROWS_PER_SPLIT;
    exec.initial_run(make_splits(0, views[..initial].to_vec(), ROWS_PER_SPLIT))
        .expect("initial run");

    // 5% change: 2 splits.
    let delta = WINDOW_SPLITS / 20;
    let added = make_splits(
        1_000_000,
        views[initial..initial + delta * ROWS_PER_SPLIT].to_vec(),
        ROWS_PER_SPLIT,
    );
    let remove = if kind == WindowKind::Append { 0 } else { delta };
    exec.advance(remove, added).expect("slide")
}

fn main() {
    banner("Figure 10: query processing (PigMix-like suite, 5% input change)");
    let cfg = PageViewConfig {
        users: 400,
        pages: 200,
        skew: 1.02,
    };
    let users = generate_users(0, &cfg);
    let views: Vec<Row> = generate_views(7, &cfg, 0, (WINDOW_SPLITS + 10) * ROWS_PER_SPLIT)
        .iter()
        .map(pageview_row)
        .collect();

    let mut table = Table::new(&["query", "jobs", "mode", "work speedup", "time speedup"]);
    let mut work_speedups = Vec::new();
    let mut time_speedups = Vec::new();

    for pq in pigmix_queries(&users) {
        let mut first = true;
        for kind in WindowKind::ALL {
            let vanilla = run_query(&pq, ExecMode::Recompute, kind, &views);
            let slider = run_query(&pq, kind.slider_mode(false), kind, &views);
            let jobs = pq.query.job_count();

            let work_x = vanilla.total_work() as f64 / slider.total_work().max(1) as f64;
            let time_x = pipeline_ns(&vanilla) as f64 / pipeline_ns(&slider).max(1) as f64;
            work_speedups.push(work_x);
            time_speedups.push(time_x);
            table.row(vec![
                if first {
                    pq.name.to_string()
                } else {
                    String::new()
                },
                if first {
                    jobs.to_string()
                } else {
                    String::new()
                },
                kind.letter().to_string(),
                fmt_f64(work_x),
                fmt_f64(time_x),
            ]);
            first = false;
        }
    }
    print!("{}", table.render());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average: work {}x, time {}x",
        fmt_f64(avg(&work_speedups)),
        fmt_f64(avg(&time_speedups))
    );
    println!(
        "\npaper shape: queries compile to 2-3 job pipelines; average speedups\n\
         of ~11x (work) and ~2.5x (time) at 5% change, consistent with the\n\
         micro-benchmarks since queries reduce to MapReduce analyses."
    );
}
