//! Determinism self-test: two runs of one seed perform the same operations,
//! so every count the benchmark reports (from `RunStats`, `JoinStats`,
//! `EventTimeStats` and the deterministic trace's counters) must agree.

use std::path::Path;

use slider_perfbench::{run, Options, Twin, Workload};

fn helper() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_perfbench-calibrate"))
}

#[test]
fn every_count_repeats_for_one_seed() {
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: 7,
            seconds: 0,
            traced: true,
            twin: Twin::Full,
        };
        let first = run(&opts, helper(), None).expect("first run");
        let second = run(&opts, helper(), None).expect("second run");
        let name = workload.name();
        assert_eq!(first.failed, 0, "{name}: an operation failed");
        assert!(
            first.counts.keys().any(|k| k.starts_with("trace.")),
            "{name}: no trace counters"
        );
        assert_eq!(first.counts, second.counts, "{name}: counts differ");
    }
}

#[test]
fn twins_change_wall_time_only() {
    for twin in [Twin::NoSim, Twin::NoCache] {
        let opts = Options {
            workload: Workload::ServeTenants,
            seed: 7,
            seconds: 0,
            traced: false,
            twin,
        };
        let report = run(&opts, helper(), None).expect("twin run");
        assert_eq!(
            report.failed, 0,
            "{twin:?}: outputs differ from the reference"
        );
    }
}
