#!/usr/bin/env bash
# Build the benchmark and run it. All arguments go to the binary:
#
#   benchmark/run.sh [--seed N]                 every workload, both passes
#   benchmark/run.sh agree [--seed N]           the untraced set twice, compared with the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one run; the last line of stdout is the result
#
# Nothing is downloaded: the build is --offline and the crate's only
# dependencies are path dependencies on this repository.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

BENCH_RUSTC="$(rustc --version)"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rtdb-benchmark" "$@"
