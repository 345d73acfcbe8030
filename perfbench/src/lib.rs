//! Wall-clock benchmark of the Slider workspace.
//!
//! Each workload is a closed loop with one client: inputs are generated
//! from the seed before timing starts, the next public call starts when
//! the previous one returns, and a run performs a fixed number of
//! operations for a given `(seed, seconds)`; it is never cut short by a
//! clock. Outputs are checked against a reference (recompute-mode twins,
//! the join's brute-force view) after the measured phase. See `README.md`
//! in this directory for the workloads, the metrics and the predictions
//! they carry.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod cli;
pub mod measure;

mod join;
mod serve;
mod tally;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use measure::{alloc_counts, cpu_seconds, peak_rss_mb, secs, Calibrator, Spans};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four tenants, one per tree kind, behind one `ServiceRuntime`.
    ServeTenants,
    /// One windowed join with late left records, one worker.
    JoinStragglers,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeTenants, Workload::JoinStragglers];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTenants => "serve_tenants",
            Workload::JoinStragglers => "join_stragglers",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A `serve_tenants` variant with one layer switched off. Its outputs are
/// identical to the full run; only its wall time differs, which gives that
/// layer's share of wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twin {
    /// Everything on.
    Full,
    /// No per-tenant cluster simulation.
    NoSim,
    /// No shared memoization cache.
    NoCache,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Nominal length of the measured phase; it sets the operation count.
    pub seconds: u64,
    /// Turn on the deterministic trace and the benchmark's spans.
    pub traced: bool,
    /// Layer switched off (serve only).
    pub twin: Twin,
}

/// A wall-time sample in seconds, tagged with the calibration chunk it
/// fell in (see `Probe::calibrate`).
pub type Sample = (usize, f64);

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Input records fed during the measured phase.
    pub records: u64,
    /// Wall seconds of the measured phase, calibration excluded.
    pub wall_s: f64,
    /// The same at the reference host speed.
    pub scaled_wall_s: f64,
    /// Process CPU seconds of the measured phase, all threads. The
    /// calibration kernel runs in the helper process, so it is not in
    /// them.
    pub cpu_s: f64,
    /// Wall time of each result-changing call.
    pub updates: Vec<Sample>,
    /// Wall time of each set-up, from construction to a full window.
    pub setups: Vec<Sample>,
    /// Per calibration chunk: reference kernel time over the kernel time
    /// measured around that chunk.
    pub host_factors: Vec<f64>,
    /// `VmHWM` at the end of the measured phase, MB.
    pub peak_rss_mb: f64,
    /// Allocations and allocated bytes during the measured phase
    /// (allocation-counting binary only).
    pub allocs: (u64, u64),
    /// Operations attempted: measured calls plus output checks.
    pub attempted: u64,
    /// Calls that returned `Err` or were not admitted, plus failed checks.
    pub failed: u64,
    /// Output checks that failed; any one makes the run's output wrong.
    pub checks_failed: u64,
    /// Deterministic counts: equal on every run of one seed.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer metrics (traced runs).
    pub layer: BTreeMap<String, f64>,
    /// Benchmark span self times over the measured phase, seconds.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Report {
    /// `samples` in seconds, each scaled to the reference host speed by
    /// its chunk's factor when `scale` is set, as measured otherwise.
    pub fn times(&self, samples: &[Sample], scale: bool) -> Vec<f64> {
        samples
            .iter()
            .map(|&(chunk, s)| {
                if scale {
                    s * self.host_factors[chunk]
                } else {
                    s
                }
            })
            .collect()
    }

    /// Records one output check.
    pub(crate) fn check(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            self.checks_failed += 1;
        }
    }

    /// Mean host factor of the measured phase, weighted by wall time.
    pub fn host_factor(&self) -> f64 {
        tally::ratio(self.scaled_wall_s, self.wall_s)
    }
}

/// Measured-phase start marks: CPU seconds, allocation counts, span mark.
struct Phase {
    cpu_s: f64,
    allocs: (u64, u64),
    mark: u64,
}

/// Measured-phase bookkeeping and host-speed calibration shared by the
/// workloads.
pub(crate) struct Probe {
    pub traced: bool,
    pub spans: Spans,
    calibrator: Calibrator,
    /// Calibration-kernel times in run order. Chunk `i` is the time
    /// between kernel `i` and kernel `i + 1`.
    kernel_s: Vec<f64>,
    /// When the current chunk began (the end of the latest kernel).
    chunk_start: Instant,
    phase: Option<Phase>,
    /// Chunks of the measured phase and their wall seconds.
    phase_chunks: Vec<Sample>,
}

impl Probe {
    fn new(traced: bool, calibrator: Calibrator) -> Self {
        Probe {
            traced,
            spans: Spans::new(traced),
            calibrator,
            kernel_s: Vec::new(),
            chunk_start: Instant::now(),
            phase: None,
            phase_chunks: Vec::new(),
        }
    }

    /// Ends the current chunk and samples the host's speed with the
    /// calibration kernel, which runs in the helper process. Workloads
    /// call it before each set-up and every few tens of milliseconds of
    /// measured work, between operations; the samples taken in a chunk are
    /// scaled by the kernel times on both sides of it, so drift in the
    /// host's speed is tracked within a run.
    ///
    /// # Errors
    ///
    /// The calibration helper does not answer.
    pub fn calibrate(&mut self) -> Result<(), String> {
        if self.phase.is_some() {
            self.phase_chunks
                .push((self.chunk(), secs(self.chunk_start)));
        }
        self.kernel_s.push(self.calibrator.sample()?);
        self.chunk_start = Instant::now();
        Ok(())
    }

    /// The chunk a sample taken now falls in.
    pub fn chunk(&self) -> usize {
        self.kernel_s.len().saturating_sub(1)
    }

    /// Starts the measured phase with a fresh chunk.
    ///
    /// # Errors
    ///
    /// The calibration helper does not answer.
    pub fn start(&mut self) -> Result<(), String> {
        self.calibrate()?;
        self.phase = Some(Phase {
            cpu_s: cpu_seconds(),
            allocs: alloc_counts(),
            mark: self.spans.mark(),
        });
        Ok(())
    }

    /// Ends the measured phase, closing its last chunk with one more
    /// kernel sample, and records its wall, CPU, allocation and memory
    /// figures and the per-chunk host factors into `report`.
    ///
    /// # Errors
    ///
    /// The calibration helper does not answer.
    pub fn stop(&mut self, report: &mut Report) -> Result<(), String> {
        self.calibrate()?;
        let phase = self.phase.take().expect("measured phase started");
        report.cpu_s = cpu_seconds() - phase.cpu_s;
        let (a1, b1) = alloc_counts();
        report.allocs = (a1 - phase.allocs.0, b1 - phase.allocs.1);
        report.peak_rss_mb = peak_rss_mb();
        report.self_s = self.spans.self_seconds(phase.mark);
        report.host_factors = (0..self.kernel_s.len())
            .map(|i| {
                let after = self.kernel_s.get(i + 1).unwrap_or(&self.kernel_s[i]);
                measure::REFERENCE_KERNEL_S * 2.0 / (self.kernel_s[i] + after)
            })
            .collect();
        report.wall_s = self.phase_chunks.iter().map(|c| c.1).sum();
        report.scaled_wall_s = report.times(&self.phase_chunks, true).iter().sum();
        Ok(())
    }
}

/// Runs `opts`, sampling the host's speed with the calibration helper
/// binary at `helper`, and, when `spans_path` is given, writes the
/// benchmark's spans there.
///
/// # Errors
///
/// A set-up failure (a configuration the program rejects), a calibration
/// helper that cannot be started or stops answering, or a failed span
/// write.
pub fn run(opts: &Options, helper: &Path, spans_path: Option<&str>) -> Result<Report, String> {
    let mut probe = Probe::new(opts.traced, Calibrator::spawn(helper)?);
    let mut report = match opts.workload {
        Workload::ServeTenants => serve::run(opts, &mut probe)?,
        Workload::JoinStragglers => join::run(opts, &mut probe)?,
    };
    if opts.traced {
        // Every workload has 64 partitions; the call is timed the same way
        // on all of them, so only a change to the runtime moves it.
        let us = tally::map_call_2w_us(64, &mut probe.spans);
        report.layer.insert("runtime.map_call_2w_us".into(), us);
        // A layer the workload bypasses reads 0.
        for name in tally::PER_LAYER {
            report.layer.entry((*name).to_string()).or_insert(0.0);
        }
    }
    report.counts.insert("records".into(), report.records);
    report.counts.insert("attempted".into(), report.attempted);
    report.counts.insert("failed".into(), report.failed);
    report
        .counts
        .insert("updates".into(), report.updates.len() as u64);
    if let Some(path) = spans_path {
        probe
            .spans
            .write(path)
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
    }
    Ok(report)
}
