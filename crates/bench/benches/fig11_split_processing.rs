//! Figure 11: effectiveness of split processing — the cost of an update
//! with background pre-processing + foreground processing, normalized to
//! the same update without split processing (= 1.0), for the append-only
//! and fixed-width cases at a 5% input change.
//!
//! Calibration note: split processing saves *latency on the critical
//! path*; at our laptop scale the simulated per-task startup would mask
//! millisecond-level contraction savings, so this figure runs with a
//! latency-scale cost model (low startup, paper-ratio compute rates) —
//! see EXPERIMENTS.md.

use slider_bench::{banner, fmt_f64, for_each_app_with_cluster, Table, WindowKind};
use slider_cluster::{ClusterSpec, CostModel, MachineSpec};

/// Cost model making contraction-phase latency visible at our data scale.
fn latency_cluster() -> ClusterSpec {
    ClusterSpec {
        machines: vec![MachineSpec::healthy(); 24],
        cost: CostModel {
            work_per_second: 2_000.0,
            local_bytes_per_second: 4.0e6,
            remote_bytes_per_second: 1.0e6,
            task_startup_seconds: 0.02,
        },
    }
}

fn main() {
    banner("Figure 11: effectiveness of split processing (5% change; unsplit update = 1.0)");

    for kind in [WindowKind::Append, WindowKind::Fixed] {
        banner(&format!(
            "Fig 11 — {} case",
            if kind == WindowKind::Append {
                "Append-only"
            } else {
                "Fixed-width"
            }
        ));
        let mut table = Table::new(&[
            "app",
            "foreground",
            "background",
            "fg latency saving %",
            "offloaded %",
            "extra merges %",
        ]);
        for_each_app_with_cluster(latency_cluster(), |name, run| {
            let plain = run(kind.slider_mode(false), kind, 5);
            let split = run(kind.slider_mode(true), kind, 5);

            // Normalize times to the unsplit update (total update time = 1).
            let plain_ns = plain.time_ns.max(1) as f64;
            let fg = split.time_ns as f64 / plain_ns;
            let bg = split.background_ns as f64 / plain_ns;
            let saving = 100.0 * (1.0 - fg);
            // Contraction work offloaded off the critical path.
            let fg_contraction = split.stats.work.contraction_fg.work;
            let bg_contraction = split.stats.work.contraction_bg.work;
            let offloaded =
                100.0 * bg_contraction as f64 / (fg_contraction + bg_contraction).max(1) as f64;
            let extra = 100.0
                * ((fg_contraction + bg_contraction) as f64
                    / plain.stats.work.contraction_fg.work.max(1) as f64
                    - 1.0);
            table.row(vec![
                name.to_string(),
                fmt_f64(fg),
                fmt_f64(bg),
                fmt_f64(saving),
                fmt_f64(offloaded),
                fmt_f64(extra),
            ]);
        });
        print!("{}", table.render());
    }
    println!(
        "\npaper shape: foreground updates are 25-40% faster with split\n\
         processing, with 36-60% of the contraction work offloaded to the\n\
         background; foreground + background exceeds 1.0 (extra merge work:\n\
         1-23% for append-only, 6-36% for fixed-width). Compute-intensive\n\
         apps have little contraction work to offload at this scale."
    );
}
