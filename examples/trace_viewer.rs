//! Trace viewer export: runs a traced sliding-window job and writes the
//! three `slider-trace` profile exports.
//!
//! ```text
//! cargo run --example trace_viewer -- /tmp/trace-out
//! ```
//!
//! writes into the given directory (created if missing):
//!
//! * `chrome_trace.json` — open in `chrome://tracing` or Perfetto;
//! * `flame.folded`      — feed to `flamegraph.pl` / `inferno-flamegraph`;
//! * `metrics.json`      — the `slider-trace-metrics-v1` counters blob.
//!
//! The trace clock is *virtual* (modeled work units and simulated
//! nanoseconds), so the exported bytes are identical on every rerun and
//! for any `SLIDER_THREADS` value — CI diffs two runs byte-for-byte and
//! compares the metrics and flame graph with `examples/expected/`.

use std::path::PathBuf;

use slider_bench::hct_spec;
use slider_mapreduce::{ExecMode, JobConfig, SimulationConfig, TraceSink, WindowedJob};
use slider_trace::validate_chrome_trace;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace-out"));
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // A representative workload: the HCT micro-benchmark on folding trees
    // with the paper cluster simulated, initial window plus two slides.
    let spec = hct_spec();
    let sink = TraceSink::enabled();
    let config = JobConfig::new(ExecMode::slider_folding())
        .with_partitions(8)
        .with_simulation(SimulationConfig::paper_defaults())
        .with_trace(sink.clone());
    let mut job = WindowedJob::new(spec.app.clone(), config).expect("valid config");
    job.initial_run(spec.initial.clone()).expect("initial run");
    let slide = spec.extra.len() / 2;
    job.advance(slide, spec.extra[..slide].to_vec())
        .expect("slide 1");
    job.advance(slide, spec.extra[slide..2 * slide].to_vec())
        .expect("slide 2");

    let snapshot = sink.snapshot().expect("sink is enabled");
    let chrome = snapshot.chrome_trace();
    let events = validate_chrome_trace(&chrome).expect("export is a valid Chrome trace");
    let folded = snapshot.folded_flamegraph();
    let metrics = snapshot.metrics_json();

    std::fs::write(out_dir.join("chrome_trace.json"), &chrome).expect("write chrome trace");
    std::fs::write(out_dir.join("flame.folded"), &folded).expect("write flamegraph");
    std::fs::write(out_dir.join("metrics.json"), &metrics).expect("write metrics");

    println!(
        "wrote {} ({} complete events), flame.folded ({} frames), metrics.json",
        out_dir.join("chrome_trace.json").display(),
        events,
        folded.lines().count(),
    );
    println!("\ntop 5 spans by self-work:");
    for (name, work) in snapshot.top_spans_by_self_work(5) {
        println!("  {work:>12}  {name}");
    }
}
