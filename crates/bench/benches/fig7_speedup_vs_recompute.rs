//! Figure 7: work and time speedups of Slider versus recomputing the
//! window from scratch with vanilla Hadoop, for the five micro-benchmarks,
//! the three windowing modes (Append-only / Fixed-width / Variable-width),
//! and input changes of 5–25%.

use slider_bench::{banner, fmt_f64, for_each_app, Table, WindowKind, PCTS};
use slider_mapreduce::ExecMode;

fn main() {
    banner("Figure 7: Slider speedup vs. recomputing from scratch");
    println!("(rows: application; columns: incremental change of input)");

    // Collect all runs first so the six sub-figures print grouped.
    let mut work: Vec<(WindowKind, &'static str, Vec<f64>)> = Vec::new();
    let mut time: Vec<(WindowKind, &'static str, Vec<f64>)> = Vec::new();

    for_each_app(|name, run| {
        for kind in WindowKind::ALL {
            let mut work_row = Vec::new();
            let mut time_row = Vec::new();
            for pct in PCTS {
                let vanilla = run(ExecMode::Recompute, kind, pct);
                let slider = run(kind.slider_mode(false), kind, pct);
                work_row.push(vanilla.work as f64 / slider.work.max(1) as f64);
                time_row.push(vanilla.time_ns as f64 / slider.time_ns.max(1) as f64);
            }
            work.push((kind, name, work_row));
            time.push((kind, name, time_row));
        }
    });

    let header: Vec<String> = std::iter::once("app".to_string())
        .chain(PCTS.iter().map(|p| format!("{p}%")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    for (metric, data) in [("Work", &work), ("Time", &time)] {
        for kind in WindowKind::ALL {
            banner(&format!(
                "Fig 7 ({metric}) — {} ({})",
                match kind {
                    WindowKind::Append => "Append-only",
                    WindowKind::Fixed => "Fixed-width",
                    WindowKind::Variable => "Variable-width",
                },
                kind.letter()
            ));
            let mut table = Table::new(&header_refs);
            for (k, name, row) in data {
                if *k == kind {
                    let mut cells = vec![name.to_string()];
                    cells.extend(row.iter().map(|v| fmt_f64(*v)));
                    table.row(cells);
                }
            }
            print!("{}", table.render());
        }
    }
    println!(
        "\npaper shape: speedups decrease with change size; compute-intensive\n\
         (K-Means, KNN) highest (up to ~35x at 5% in the paper); data-intensive\n\
         lower; variable-width <= fixed/append due to rebalancing overhead."
    );
}
