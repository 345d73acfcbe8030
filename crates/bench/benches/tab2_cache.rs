//! Table 2: reduction in the time spent reading memoized state when the
//! in-memory distributed cache is enabled, versus serving every read from
//! the fault-tolerant persistent tier (fixed-width windowing).

use slider_bench::{
    banner, fmt_f64, hct_spec, kmeans_spec, knn_spec, matrix_spec, run_slide_with, substr_spec,
    MicrobenchSpec, Table, WindowKind,
};
use slider_dcache::CacheConfig;
use slider_mapreduce::MapReduceApp;

fn read_ns<A: MapReduceApp + Clone>(spec: &MicrobenchSpec<A>, memory: bool) -> u64 {
    let kind = WindowKind::Fixed;
    let measurement = run_slide_with(spec, kind.slider_mode(false), kind, 5, |config| {
        let mut cache = CacheConfig::paper_defaults(24);
        cache.memory_enabled = memory;
        config.with_cache(cache)
    });
    measurement.stats.cache.expect("cache configured").read_ns
}

fn reduction<A: MapReduceApp + Clone>(spec: &MicrobenchSpec<A>) -> f64 {
    let with_memory = read_ns(spec, true);
    let disk_only = read_ns(spec, false);
    100.0 * (1.0 - with_memory as f64 / disk_only.max(1) as f64)
}

fn main() {
    banner("Table 2: reduction in memoized-state read time from in-memory caching (%)");
    let mut table = Table::new(&["K-Means", "HCT", "KNN", "Matrix", "subStr"]);
    table.row(vec![
        fmt_f64(reduction(&kmeans_spec())),
        fmt_f64(reduction(&hct_spec())),
        fmt_f64(reduction(&knn_spec())),
        fmt_f64(reduction(&matrix_spec())),
        fmt_f64(reduction(&substr_spec())),
    ]);
    print!("{}", table.render());
    println!(
        "\npaper values: 48.68%  56.87%  53.19%  67.56%  66.2% — the memory\n\
         tier saves roughly half to two-thirds of the read time, more for\n\
         the apps with larger memoized state."
    );
}
