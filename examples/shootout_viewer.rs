//! Shootout report viewer and CI regression gate.
//!
//! ```text
//! cargo run --example shootout_viewer -- BENCH_shootout.json
//! cargo run --example shootout_viewer -- --check BASELINE.json CANDIDATE.json
//! ```
//!
//! The first form prints the per-structure cost table from a
//! `BENCH_shootout.json` report. Output is a pure function of the file's
//! bytes — byte-identical across reruns and `SLIDER_THREADS` values — so
//! CI can diff two invocations with `cmp`.
//!
//! The second form compares a candidate report against a checked-in
//! baseline and exits non-zero if any structure's modeled `work_per_leaf`
//! regressed by more than 10%, or if a grid point disappeared.

use std::collections::BTreeMap;
use std::process::ExitCode;

use slider_bench::{check_regression, fmt_f64, load_summary, Table};

/// Splits `daba-lite.w4096.p10.work_per_leaf` into its grid coordinates.
/// Returns `(kind, window, pct, metric)`.
fn parse_key(key: &str) -> Option<(String, u64, u64, String)> {
    let mut parts = key.split('.');
    let kind = parts.next()?.to_string();
    let window = parts.next()?.strip_prefix('w')?.parse().ok()?;
    let pct = parts.next()?.strip_prefix('p')?.parse().ok()?;
    let metric = parts.next()?.to_string();
    if parts.next().is_some() {
        return None;
    }
    Some((kind, window, pct, metric))
}

fn print_table(summary: &BTreeMap<String, f64>) {
    // Regroup flat metrics into rows, sorted numerically (BTreeMap string
    // order would put w1024 before w256).
    let mut rows: BTreeMap<(String, u64, u64), BTreeMap<String, f64>> = BTreeMap::new();
    for (key, value) in summary {
        if let Some((kind, window, pct, metric)) = parse_key(key) {
            rows.entry((kind, window, pct))
                .or_default()
                .insert(metric, *value);
        }
    }
    let mut table = Table::new(&[
        "structure",
        "window",
        "slide%",
        "merges/leaf",
        "work/leaf",
        "sim s/leaf",
    ]);
    let cell = |m: &BTreeMap<String, f64>, k: &str| m.get(k).map_or("-".into(), |v| fmt_f64(*v));
    for ((kind, window, pct), metrics) in &rows {
        table.row(vec![
            kind.clone(),
            window.to_string(),
            pct.to_string(),
            cell(metrics, "merges_per_leaf"),
            cell(metrics, "work_per_leaf"),
            metrics
                .get("seconds_per_leaf")
                .map_or("-".into(), |v| format!("{v:.3e}")),
        ]);
    }
    print!("{}", table.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] => load_summary(path).map(|summary| print_table(&summary)),
        [flag, baseline, candidate] if flag == "--check" => {
            check_regression("shootout", "work_per_leaf", baseline, candidate)
        }
        _ => Err(
            "usage: shootout_viewer <report.json> | --check <baseline.json> <candidate.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("shootout_viewer: {message}");
            ExitCode::FAILURE
        }
    }
}
