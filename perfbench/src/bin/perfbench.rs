//! Benchmark binary under the program's own allocator: end-to-end metrics
//! with `--trace 0`, the traced pass's per-layer metrics with `--trace 1`.

fn main() {
    std::process::exit(slider_perfbench::cli::main(false));
}
