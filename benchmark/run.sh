#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--reps K] [--traced] [--quick]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     (driver form)
#
# Run from anywhere; it works from the repository root. Honours
# CARGO_TARGET_DIR, otherwise builds into benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
cd "$here/.."

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/mala-benchmark" "$@"
