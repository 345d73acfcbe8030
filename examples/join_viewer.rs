//! Join-bench report viewer and CI regression gate.
//!
//! ```text
//! cargo run --example join_viewer -- BENCH_join.json
//! cargo run --example join_viewer -- --check BASELINE.json CANDIDATE.json
//! ```
//!
//! The first form prints the incremental-vs-recompute grid from a
//! `BENCH_join.json` report. Output is a pure function of the file's
//! bytes — byte-identical across reruns and `SLIDER_THREADS` values.
//!
//! The second form compares a candidate report against a checked-in
//! baseline and exits non-zero if any grid point's incremental modeled
//! work regressed by more than 10%, or if a grid point disappeared.

use std::collections::BTreeMap;
use std::process::ExitCode;

use slider_bench::{check_regression, fmt_f64, load_summary, Table};

/// Splits `join.w1024.p10.inc_work` into `(window, pct, metric)`.
fn parse_join_key(key: &str) -> Option<(u64, u64, String)> {
    let rest = key.strip_prefix("join.")?;
    let mut parts = rest.split('.');
    let window = parts.next()?.strip_prefix('w')?.parse().ok()?;
    let pct = parts.next()?.strip_prefix('p')?.parse().ok()?;
    let metric = parts.next()?.to_string();
    if parts.next().is_some() {
        return None;
    }
    Some((window, pct, metric))
}

fn print_tables(summary: &BTreeMap<String, f64>) {
    let mut rows: BTreeMap<(u64, u64), BTreeMap<String, f64>> = BTreeMap::new();
    for (key, value) in summary {
        if let Some((window, pct, metric)) = parse_join_key(key) {
            rows.entry((window, pct))
                .or_default()
                .insert(metric, *value);
        }
    }
    let mut table = Table::new(&["window", "slide%", "inc work", "rec work", "speedup"]);
    for ((window, pct), metrics) in &rows {
        let inc = metrics.get("inc_work").copied().unwrap_or(f64::NAN);
        let rec = metrics.get("rec_work").copied().unwrap_or(f64::NAN);
        table.row(vec![
            window.to_string(),
            pct.to_string(),
            fmt_f64(inc),
            fmt_f64(rec),
            if inc > 0.0 {
                format!("{:.2}x", rec / inc)
            } else {
                "-".into()
            },
        ]);
    }
    print!("{}", table.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] => load_summary(path).map(|summary| print_tables(&summary)),
        [flag, baseline, candidate] if flag == "--check" => {
            check_regression("join", "inc_work", baseline, candidate)
        }
        _ => Err(
            "usage: join_viewer <report.json> | --check <baseline.json> <candidate.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("join_viewer: {message}");
            ExitCode::FAILURE
        }
    }
}
