//! Allocation-counting benchmark binary: installs the counting global
//! allocator and runs the workload untraced, so the `alloc.*` metrics are
//! the program's own allocations. Its times are not end-to-end numbers.

#[global_allocator]
static ALLOC: slider_perfbench::measure::CountingAlloc = slider_perfbench::measure::CountingAlloc;

fn main() {
    std::process::exit(slider_perfbench::cli::main(true));
}
