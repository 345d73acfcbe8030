//! Command line of the measuring binaries, `perfbench` and
//! `perfbench-alloc`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> [--trace 0|1]
//!           [--twin full|nosim|nocache] [--spans <path>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed`, `records`, `wall_s` and `host_factor` (of the
//! measured phase), `metrics` and `raw` (name to value). `perfbench
//! --trace 0` reports the end-to-end metrics in `metrics`, at the reference
//! host speed, and the same times as measured in `raw`; `--trace 1` turns
//! the program's deterministic trace and the benchmark's spans on and
//! reports the per-layer metrics. `perfbench-alloc` runs untraced under a
//! counting allocator and reports the `alloc.*` metrics. Both need the
//! calibration helper, `perfbench-calibrate`, next to them. `run.py`
//! attaches the units.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::measure::{median, percentile};
use crate::tally::ratio;
use crate::{run, Options, Report, Twin, Workload};

/// File name of the calibration helper binary.
const HELPER: &str = "perfbench-calibrate";

/// Environment variables that would silently change what is measured:
/// `SLIDER_THREADS` overrides an explicit worker count and `SLIDER_TRACE`
/// turns the deterministic trace on inside an untraced run.
const PINNED_ENV: [&str; 2] = ["SLIDER_THREADS", "SLIDER_TRACE"];

struct Args {
    opts: Options,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut twin = Twin::Full;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            "--twin" => {
                twin = match value {
                    "full" => Twin::Full,
                    "nosim" => Twin::NoSim,
                    "nocache" => Twin::NoCache,
                    _ => return Err(format!("unknown twin {value}")),
                };
            }
            "--spans" => spans = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if twin != Twin::Full && workload != Workload::ServeTenants {
        return Err("--twin applies to serve_tenants only".into());
    }
    Ok(Args {
        opts: Options {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced,
            twin,
        },
        spans,
    })
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The time metrics of an untraced run: scaled to the reference host speed
/// (see `README.md`) when `scale` is set, as measured otherwise.
fn times(report: &Report, scale: bool) -> BTreeMap<String, f64> {
    let records = report.records as f64;
    let (wall_s, cpu_s) = if scale {
        (report.scaled_wall_s, report.cpu_s * report.host_factor())
    } else {
        (report.wall_s, report.cpu_s)
    };
    let updates_ms: Vec<f64> = report
        .times(&report.updates, scale)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    BTreeMap::from([
        ("records_per_s".into(), ratio(records, wall_s)),
        ("cpu_us_per_record".into(), ratio(cpu_s * 1e6, records)),
        ("update_p50_ms".into(), percentile(&updates_ms, 0.5)),
        ("update_p90_ms".into(), percentile(&updates_ms, 0.9)),
        (
            "setup_s".into(),
            median(&report.times(&report.setups, scale)),
        ),
    ])
}

/// End-to-end metrics of an untraced run. A failed output check makes
/// `success_ratio` 0: a wrong result is not one failed operation among
/// thousands.
fn end_to_end(report: &Report) -> BTreeMap<String, f64> {
    let succeeded = report.attempted - report.failed;
    let success = if report.checks_failed > 0 {
        0.0
    } else {
        ratio(succeeded as f64, report.attempted as f64)
    };
    let mut metrics = times(report, true);
    metrics.insert("peak_rss_mb".into(), report.peak_rss_mb);
    metrics.insert("success_ratio".into(), success);
    metrics
}

/// Per-record allocations and allocated bytes of a run under the counting
/// allocator.
fn allocations(report: &Report) -> BTreeMap<String, f64> {
    let records = report.records as f64;
    BTreeMap::from([
        (
            "alloc.allocs_per_record".into(),
            ratio(report.allocs.0 as f64, records),
        ),
        (
            "alloc.bytes_per_record".into(),
            ratio(report.allocs.1 as f64, records),
        ),
    ])
}

fn json_map(out: &mut String, metrics: &BTreeMap<String, f64>) -> Result<(), String> {
    out.push('{');
    for (i, (name, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {value}").expect("writing to a String cannot fail");
    }
    out.push('}');
    Ok(())
}

fn json_line(
    report: &Report,
    metrics: &BTreeMap<String, f64>,
    raw: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"records\": {}, \"wall_s\": {}, \"host_factor\": {}, \"metrics\": ",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        report.records,
        report.wall_s,
        report.host_factor()
    )
    .expect("writing to a String cannot fail");
    json_map(&mut out, metrics)?;
    out.push_str(", \"raw\": ");
    json_map(&mut out, raw)?;
    out.push('}');
    Ok(out)
}

fn execute(args: &[String], counting: bool) -> Result<String, String> {
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it so the run is pinned"));
        }
    }
    let args = parse(args)?;
    if counting && args.opts.traced {
        return Err("perfbench-alloc runs untraced, so counts are the program's own".into());
    }
    let helper: PathBuf = std::env::current_exe()
        .map_err(|e| format!("locating this binary: {e}"))?
        .with_file_name(HELPER);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# host: nproc={nproc} cpu=\"{}\"", cpu_model());
    let report = run(&args.opts, &helper, args.spans.as_deref())?;
    println!(
        "# samples: updates={} setups={} records={} host_factor={}",
        report.updates.len(),
        report.setups.len(),
        report.records,
        report.host_factor(),
    );
    let (metrics, raw) = if counting {
        (allocations(&report), BTreeMap::new())
    } else if args.opts.traced {
        (report.layer.clone(), BTreeMap::new())
    } else {
        (end_to_end(&report), times(&report, false))
    };
    json_line(&report, &metrics, &raw)
}

/// Runs a measuring binary (`counting` for `perfbench-alloc`); returns the
/// process exit code.
pub fn main(counting: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match execute(&args, counting) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}
