//! Head-to-head aggregation-structure shootout (companion analysis to the
//! paper's §7 figures): per-leaf modeled work for every window-capable
//! structure across window size × slide fraction.
//!
//! Run with `cargo bench -p slider-bench --bench shootout`; set
//! `BENCH_JSON_DIR` to also write `BENCH_shootout.json` (the file CI
//! diffs against the checked-in baseline via `shootout_viewer --check`).

use slider_bench::{banner, run_shootout, shootout_report, shootout_table};

fn main() {
    banner("Aggregation-structure shootout: per-leaf cost (kind x window x slide)");
    let points = run_shootout();
    print!("{}", shootout_table(&points).render());
    println!(
        "expected: strawman grows linearly with the window, the contraction\n\
         trees logarithmically, and the twin-stack family (twostack, daba)\n\
         stays flat — the O(1) vs O(log n) crossover."
    );
    if let Some(path) = shootout_report(&points).write_if_configured() {
        println!("wrote {}", path.display());
    }
}
