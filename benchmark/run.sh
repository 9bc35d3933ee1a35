#!/usr/bin/env bash
# Builds the suite's binaries and the benchmark from source, then runs
# the benchmark with this script's arguments. Run from the repository
# root: bash benchmark/run.sh --workload design_flow --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p stellar-bench --bins >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2
# Machine context for the result set.
STELLAR_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
STELLAR_BENCH_COMMIT="$(git --git-dir="$root/.git" rev-parse HEAD 2>/dev/null || echo unknown)"
export STELLAR_BENCH_RUSTC STELLAR_BENCH_COMMIT

# Run the benchmark as a child, not via exec: a process keeps the resource
# usage of the children it waited for across exec, and the cargo builds
# above would then count in the suite's children's peak memory.
"$target/release/stellar-benchmark" --exe-dir "$target/release" --out-dir "$target/benchmark" "$@"
