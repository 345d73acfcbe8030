//! Figure 8: work and time speedups of Slider versus the memoization-based
//! strawman (§2) — both systems reuse map outputs, so the difference is
//! purely the self-adjusting contraction trees versus task-granularity
//! memoization.

use slider_bench::{banner, fmt_f64, for_each_app, Table, WindowKind, PCTS};
use slider_mapreduce::ExecMode;

fn main() {
    banner("Figure 8: Slider speedup vs. the strawman (memoization-only) design");

    let mut work: Vec<(WindowKind, &'static str, Vec<f64>)> = Vec::new();
    let mut time: Vec<(WindowKind, &'static str, Vec<f64>)> = Vec::new();

    for_each_app(|name, run| {
        for kind in WindowKind::ALL {
            let mut work_row = Vec::new();
            let mut time_row = Vec::new();
            for pct in PCTS {
                let strawman = run(ExecMode::Strawman, kind, pct);
                let slider = run(kind.slider_mode(false), kind, pct);
                work_row.push(strawman.work as f64 / slider.work.max(1) as f64);
                time_row.push(strawman.time_ns as f64 / slider.time_ns.max(1) as f64);
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
                "Fig 8 ({metric}) — {} ({})",
                kind_name(kind),
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
        "\npaper shape: Slider >= strawman, with the largest gains on slides\n\
         that shift task alignment (fixed/variable windows) and at small\n\
         change sizes. Append-only gains are small here because position-\n\
         stable appends let the strawman reuse almost everything; see\n\
         EXPERIMENTS.md for the deviation discussion."
    );
}

fn kind_name(kind: WindowKind) -> &'static str {
    match kind {
        WindowKind::Append => "Append-only",
        WindowKind::Fixed => "Fixed-width",
        WindowKind::Variable => "Variable-width",
    }
}
