#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--traced] [--quick] [--repeat K]   the suite
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1                 one run
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selftest
#
# Runs from anywhere; the build happens inside benchmark/ so the repo's
# .cargo/config.toml (target-cpu=native) applies to it.
set -euo pipefail

root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means "relative to where the caller
# stands", not to benchmark/.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

(cd "$here" && cargo build --release --offline --locked --quiet) >&2

export MATOPT_BENCH_DIR="$here"
export MATOPT_BENCH_RUSTC="${MATOPT_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export MATOPT_BENCH_COMMIT="${MATOPT_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

exec "$target/release/matopt-benchmark" "$@"
