//! Incremental-vs-recompute windowed-join sweep (slider-join).
//!
//! Run with `cargo bench -p slider-bench --bench join`; set
//! `BENCH_JSON_DIR` to also write `BENCH_join.json` (the file CI diffs
//! against the checked-in baseline via `join_viewer --check`).

use slider_bench::{banner, join_report, join_table, run_join_bench};

fn main() {
    banner("Windowed join: incremental delta probing vs cross-product recompute");
    let points = run_join_bench();
    print!("{}", join_table(&points).render());
    println!(
        "expected: the incremental operator's advantage widens as the slide\n\
         fraction shrinks — delta probes scale with churn, recompute with\n\
         the whole window."
    );
    if let Some(path) = join_report(&points).write_if_configured() {
        println!("wrote {}", path.display());
    }
}
