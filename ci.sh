#!/usr/bin/env bash
# Local CI: the exact gate the GitHub workflow runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc: no broken or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> fault injection: recovery invariant"
cargo test -q -p slider-bench --test integration_fault_recovery --test proptest_recovery

echo "==> cache unit + property tests"
cargo test -q -p slider-dcache

echo "==> self-healing: repair, scrub, and master-rebuild scenarios"
cargo test -q -p slider-bench --test integration_self_healing

echo "==> trace: reconciliation + determinism tests"
cargo test -q -p slider-bench --test integration_trace

echo "==> event time: disordered streams are bit-identical to their sorted twins"
cargo test -q -p slider-bench --test integration_event_time

echo "==> serve: multi-tenant service determinism + standalone-twin equality"
cargo test -q -p slider-bench --test integration_serve

echo "==> resilience: crash/restore, breaker quarantine, overload shedding"
cargo test -q -p slider-bench --test integration_resilience

echo "==> resilience: chaos_restore output is byte-identical across runs and thread counts"
chaos_tmp="$(mktemp -d)"
cargo run -q --release -p slider-bench --example chaos_restore > "$chaos_tmp/a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example chaos_restore > "$chaos_tmp/b.txt"
cmp "$chaos_tmp/a.txt" "$chaos_tmp/b.txt"
rm -rf "$chaos_tmp"

echo "==> batches: netsession_audit output is byte-identical across runs and thread counts"
batch_tmp="$(mktemp -d)"
cargo run -q --release -p slider-apps --example netsession_audit > "$batch_tmp/a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-apps --example netsession_audit > "$batch_tmp/b.txt"
cmp "$batch_tmp/a.txt" "$batch_tmp/b.txt"
rm -rf "$batch_tmp"

echo "==> serve: dashboard output is byte-identical across runs and thread counts"
serve_tmp="$(mktemp -d)"
cargo run -q --release -p slider-bench --example serve_dashboard > "$serve_tmp/a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example serve_dashboard > "$serve_tmp/b.txt"
cmp "$serve_tmp/a.txt" "$serve_tmp/b.txt"
rm -rf "$serve_tmp"

echo "==> join: incremental view == brute force across threads, faults, disorder"
cargo test -q -p slider-bench --test integration_join

echo "==> join: property tests vs the brute-force reference"
cargo test -q -p slider-join --test proptest_join

echo "==> join: join_feed output is byte-identical across runs and thread counts"
join_tmp="$(mktemp -d)"
cargo run -q --release -p slider-bench --example join_feed > "$join_tmp/a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example join_feed > "$join_tmp/b.txt"
cmp "$join_tmp/a.txt" "$join_tmp/b.txt"
rm -rf "$join_tmp"

echo "==> trace: same-seed exports are byte-identical"
trace_tmp="$(mktemp -d)"
shootout_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp" "$shootout_tmp"' EXIT
# trace_viewer validates the Chrome trace JSON before writing it.
cargo run -q --release -p slider-bench --example trace_viewer -- "$trace_tmp/a"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example trace_viewer -- "$trace_tmp/b"
for f in chrome_trace.json flame.folded metrics.json; do
  cmp "$trace_tmp/a/$f" "$trace_tmp/b/$f"
done

echo "==> shootout: regenerate and gate against the checked-in baseline"
BENCH_JSON_DIR="$shootout_tmp" cargo bench -q -p slider-bench --bench shootout > /dev/null
cargo run -q --release -p slider-bench --example shootout_viewer -- \
  --check BENCH_shootout.json "$shootout_tmp/BENCH_shootout.json"
cargo run -q --release -p slider-bench --example shootout_viewer -- \
  BENCH_shootout.json > "$shootout_tmp/view_a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example shootout_viewer -- \
  BENCH_shootout.json > "$shootout_tmp/view_b.txt"
cmp "$shootout_tmp/view_a.txt" "$shootout_tmp/view_b.txt"

echo "==> join bench: regenerate and gate against the checked-in baseline"
BENCH_JSON_DIR="$shootout_tmp" cargo bench -q -p slider-bench --bench join > /dev/null
cargo run -q --release -p slider-bench --example join_viewer -- \
  --check BENCH_join.json "$shootout_tmp/BENCH_join.json"
cargo run -q --release -p slider-bench --example join_viewer -- \
  BENCH_join.json > "$shootout_tmp/join_a.txt"
SLIDER_THREADS=1 cargo run -q --release -p slider-bench --example join_viewer -- \
  BENCH_join.json > "$shootout_tmp/join_b.txt"
cmp "$shootout_tmp/join_a.txt" "$shootout_tmp/join_b.txt"

echo "==> perfbench: the wall-clock benchmark package builds and its determinism self-test passes"
cargo build --release --bins --manifest-path perfbench/Cargo.toml
cargo test -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
