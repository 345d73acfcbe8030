//! Plain-text table formatting and machine-readable JSON reports for the
//! bench targets' output.
//!
//! ## `BENCH_<name>.json`
//!
//! When the `BENCH_JSON_DIR` environment variable names a directory, bench
//! targets additionally write a machine-readable `BENCH_<name>.json` next
//! to their text tables (see [`BenchJson`]), with this schema:
//!
//! ```text
//! {
//!   "schema": "slider-bench-v1",
//!   "name": "<bench target name>",
//!   "summary": { "<metric>": <number>, ... },
//!   "breakdown": { ... the "slider-trace-metrics-v1" blob ... }
//! }
//! ```
//!
//! `summary` holds the scalar headline numbers the text report prints, in
//! insertion order. `breakdown` embeds the metrics export of a traced
//! representative run ([`slider_trace::TraceSnapshot::metrics_json`])
//! verbatim — per-track/per-phase span counts, work-unit and simulated-
//! second totals, plus every counter and gauge — so downstream tooling
//! reads the full per-phase breakdown without scraping table text. The
//! section is omitted when the target ran untraced. Both the blob and the
//! wrapper are deterministic: same seed, same bytes, at any thread count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use slider_trace::json::{escape_string, JsonValue};
use slider_trace::parse_json;

/// Environment variable naming the directory `BENCH_<name>.json` reports
/// are written to. Unset (or empty) disables JSON output entirely.
pub const BENCH_JSON_DIR_ENV: &str = "BENCH_JSON_DIR";

/// The directory JSON reports go to, when configured.
pub fn bench_json_dir() -> Option<PathBuf> {
    match std::env::var(BENCH_JSON_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Builder for one bench target's `BENCH_<name>.json` report (schema in
/// the module docs).
#[derive(Debug, Clone)]
pub struct BenchJson {
    name: String,
    summary: Vec<(String, f64)>,
    breakdown: Option<String>,
}

impl BenchJson {
    /// A report for the bench target `name` (used in the file name).
    pub fn new(name: impl Into<String>) -> Self {
        BenchJson {
            name: name.into(),
            summary: Vec::new(),
            breakdown: None,
        }
    }

    /// Appends one scalar headline metric. Insertion order is preserved.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.summary.push((key.into(), value));
        self
    }

    /// Attaches a traced run's metrics blob (the exact string returned by
    /// [`slider_trace::TraceSnapshot::metrics_json`]) as the `breakdown`
    /// section.
    ///
    /// # Panics
    ///
    /// Panics if `metrics_json` is not valid JSON — that would corrupt the
    /// whole report file, and only this crate's own exporter feeds it.
    pub fn breakdown(&mut self, metrics_json: String) -> &mut Self {
        parse_json(&metrics_json).expect("breakdown must be the slider-trace metrics blob");
        self.breakdown = Some(metrics_json);
        self
    }

    /// Renders the report (deterministic bytes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"slider-bench-v1\",\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape_string(&self.name));
        out.push_str("  \"summary\": {");
        for (i, (key, value)) in self.summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {}",
                escape_string(key),
                slider_trace::json::format_f64(*value)
            );
        }
        if self.summary.is_empty() {
            out.push('}');
        } else {
            out.push_str("\n  }");
        }
        if let Some(breakdown) = &self.breakdown {
            out.push_str(",\n  \"breakdown\": ");
            out.push_str(breakdown.trim_end());
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into [`bench_json_dir`], creating the
    /// directory if needed. Returns the path written, or `None` when
    /// `BENCH_JSON_DIR` is unset (the common `cargo bench` case).
    pub fn write_if_configured(&self) -> Option<PathBuf> {
        let dir = bench_json_dir()?;
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render()).ok()?;
        Some(path)
    }
}

/// Modeled-work regressions beyond this ratio fail [`check_regression`].
const MAX_WORK_REGRESSION: f64 = 1.10;

/// Reads the `summary` section of a `BENCH_<name>.json` report.
///
/// # Errors
///
/// A message naming `path` if the file is unreadable, not JSON, not a
/// `slider-bench-v1` report, or has no summary.
pub fn load_summary(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("slider-bench-v1") {
        return Err(format!("{path}: not a slider-bench-v1 report"));
    }
    match doc.get("summary") {
        Some(JsonValue::Obj(map)) => Ok(map
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect()),
        _ => Err(format!("{path}: missing summary section")),
    }
}

/// The report viewers' `--check` gate: compares every baseline summary
/// metric named `*.{metric}` with the candidate's, prints a `{label} check
/// OK` line if none regressed by more than 10% or went missing.
///
/// # Errors
///
/// A load error, or one line per regressed or missing metric.
pub fn check_regression(
    label: &str,
    metric: &str,
    baseline_path: &str,
    candidate_path: &str,
) -> Result<(), String> {
    let baseline = load_summary(baseline_path)?;
    let candidate = load_summary(candidate_path)?;
    let suffix = format!(".{metric}");
    let gated: Vec<(&String, &f64)> = baseline
        .iter()
        .filter(|(key, _)| key.ends_with(&suffix))
        .collect();
    let mut failures = Vec::new();
    for &(key, base) in &gated {
        match candidate.get(key) {
            None => failures.push(format!("{key}: missing from candidate")),
            Some(cand) if *base > 0.0 && cand / base > MAX_WORK_REGRESSION => {
                failures.push(format!(
                    "{key}: {} -> {} (+{:.1}%, limit 10%)",
                    fmt_f64(*base),
                    fmt_f64(*cand),
                    (cand / base - 1.0) * 100.0
                ));
            }
            _ => {}
        }
    }
    if failures.is_empty() {
        println!(
            "{label} check OK: {} {metric} metrics within 10% of baseline",
            gated.len()
        );
        Ok(())
    } else {
        Err(format!(
            "modeled-work regression vs {baseline_path}:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// Formats a float with sensible precision for reports.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a wall-clock speedup relative to a baseline duration, e.g.
/// `"2.1x"`. Returns `"-"` when the measurement is unusable.
pub fn fmt_speedup(baseline_secs: f64, secs: f64) -> String {
    if !(baseline_secs.is_finite() && secs.is_finite()) || secs <= 0.0 {
        "-".to_string()
    } else {
        format!("{}x", fmt_f64(baseline_secs / secs))
    }
}

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["app", "speedup"]);
        t.row(vec!["HCT".into(), "2.5".into()]);
        t.row(vec!["K-Means".into(), "25".into()]);
        let s = t.render();
        assert!(s.contains("app"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn fmt_picks_precision() {
        assert_eq!(fmt_f64(123.456), "123");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(1.234), "1.23");
        assert_eq!(fmt_f64(f64::NAN), "-");
    }

    #[test]
    fn fmt_speedup_is_a_ratio() {
        assert_eq!(fmt_speedup(4.0, 2.0), "2.00x");
        assert_eq!(fmt_speedup(1.0, 0.0), "-");
        assert_eq!(fmt_speedup(f64::NAN, 1.0), "-");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn bench_json_renders_schema_and_breakdown() {
        use slider_mapreduce::{ExecMode, JobConfig, TraceSink, WindowedJob};

        let sink = TraceSink::enabled();
        let mut job = WindowedJob::new(
            crate::datasets::hct_spec().app.clone(),
            JobConfig::new(ExecMode::slider_folding())
                .with_partitions(2)
                .with_trace(sink.clone()),
        )
        .unwrap();
        let spec = crate::datasets::hct_spec();
        job.initial_run(spec.initial[0..4].to_vec()).unwrap();

        let mut report = BenchJson::new("unit");
        report.metric("runs", 1.0);
        report.breakdown(sink.metrics_json().unwrap());
        let rendered = report.render();
        let parsed = parse_json(&rendered).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("slider-bench-v1")
        );
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("runs"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            parsed
                .get("breakdown")
                .and_then(|b| b.get("schema"))
                .and_then(|v| v.as_str()),
            Some("slider-trace-metrics-v1")
        );
    }

    #[test]
    fn check_regression_gates_one_metric_at_ten_percent() {
        let dir = std::env::temp_dir().join(format!("slider-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, metrics: &[(&str, f64)]| {
            let mut report = BenchJson::new(name);
            for (key, value) in metrics {
                report.metric(*key, *value);
            }
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, report.render()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = write(
            "base",
            &[("a.work", 100.0), ("b.work", 50.0), ("a.other", 1.0)],
        );
        let ok = write(
            "ok",
            &[("a.work", 110.0), ("b.work", 10.0), ("a.other", 9.0)],
        );
        let slow = write("slow", &[("a.work", 111.0), ("b.work", 50.0)]);
        let gone = write("gone", &[("a.work", 100.0)]);
        assert_eq!(check_regression("t", "work", &base, &ok), Ok(()));
        let err = check_regression("t", "work", &base, &slow).unwrap_err();
        assert!(
            err.contains("a.work: 100 -> 111 (+11.0%, limit 10%)"),
            "{err}"
        );
        let err = check_regression("t", "work", &base, &gone).unwrap_err();
        assert!(err.contains("b.work: missing from candidate"), "{err}");
        assert!(load_summary(&dir.join("absent.json").to_string_lossy()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_json_without_breakdown_is_valid() {
        let report = BenchJson::new("empty");
        let parsed = parse_json(&report.render()).expect("valid JSON");
        assert!(parsed.get("breakdown").is_none());
    }
}
