#!/usr/bin/env bash
# Builds the benchmark offline in release mode and runs the whole set:
# every workload untraced (end-to-end metrics) and traced (per-layer
# metrics, probes, estimated attribution), into benchmark/out/results.json.
#
#   benchmark/run.sh            full sizes (about four minutes)
#   benchmark/run.sh --quick    smoke sizes (seconds)
#
# Further arguments go to `bench all` (--seed N, --seconds S, --out FILE).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --bin bench
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/bench" all "$@"
