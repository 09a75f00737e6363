#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), and the tier-1
# build + test pass. Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> scheduler tests (the root package's tests do not reach mala-sim: reference-model proptest, handle generations)"
cargo test -q -p mala-sim

echo "==> nemesis smoke (fixed seed: MDS failover + OSD crash/replay)"
cargo test -q --test nemesis_invariants smoke_fixed_seed_failover

echo "==> nemesis smoke (fixed seed: batched appends + OSD crash)"
cargo test -q --test nemesis_invariants smoke_fixed_seed_batched_append

echo "==> linearizability smoke (fixed seed: WGL check + seeded-bug counterexample)"
cargo test -q --test nemesis_invariants linearize_smoke

echo "==> trace smoke (fixed seed: contiguous spans + per-stage histograms)"
cargo test -q -p mala-bench --lib exp::trace

echo "==> elastic smoke (fixed seed: live OSD join+drain, backfill + WGL check)"
cargo test -q --test nemesis_invariants elastic_membership::smoke

echo "==> read-path smoke (fixed seed: tailing reader through drain + trim, WGL check)"
cargo test -q --test nemesis_invariants smoke_tailing_reader

echo "==> zlog crate (unit tests, zlog_stack, class_equivalence, read_scale, migration_routing)"
cargo test -q -p mala-zlog

echo "==> scaleout smoke (16 logs x 3 ranks x 256 open-loop clients, fixed seed)"
cargo test -q -p mala-bench --lib exp::scaleout

echo "==> dsl-diff smoke (fixed-seed interpreter/VM differential + disassembler snapshots)"
cargo test -q -p mala-dsl --test differential fixed_seed_differential_smoke
cargo test -q -p mala-dsl --test disasm_snapshots

echo "==> dsl sandbox equivalence (budget/depth trips identical across engines)"
cargo test -q -p mala-dsl --test vm_sandbox

echo "==> VM-backed Mantle policy + scripted-class tests"
cargo test -q -p mala-mantle
cargo test -q -p mala-rados class::

echo "==> frozen benchmark (offline build against the current crates; quick run, correctness + determinism gates)"
# benchmark/ is its own workspace and only ever changes in PRs of its own,
# so this is where a break of the public API it drives shows up. --traced
# adds a second rep per workload (the determinism gate needs two to
# compare) and the direct-call probes; run.sh exits non-zero on any gate.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench_out="$(benchmark/run.sh --quick --traced)" || {
    grep -E '^(==|gates:|GATE FAILED)' <<<"$bench_out"
    exit 1
}
grep -E '^(==|gates:|GATE FAILED)' <<<"$bench_out"

echo "==> frozen benchmark: ceilings on metrics that repeat exactly for a seed (noise-free regression gates)"
# Allocations per operation repeat exactly on every rep of a seed, and the
# peak heap to 0.1 %. Each ceiling is the value this quick run measured
# when it was written, plus a margin; lower it when a change lowers the
# number.
#   host_allocs_per_op  read_tail 574.97 (the scripted read path and the
#                       cursor), mds_balance 4.139 (scheduler and
#                       Metrics); +10 %.
#   host_peak_heap_mb   append_overload 34.578 (the event queue at its
#                       fullest); +5 %. Scheduler bookkeeping that grows
#                       with the number of events ever queued, not with the
#                       number queued at once, shows here first.
metric_at_most() {
    awk -v workload="$1" -v metric="$2" -v ceiling="$3" '
        $1 == "==" { current = $2 }
        current == workload && $1 == metric { seen = 1; value = $2 }
        END {
            if (!seen) { print "no " metric " row for " workload; exit 1 }
            verdict = (value + 0 <= ceiling + 0) ? "ok" : "ABOVE CEILING"
            printf "%s %s %s, ceiling %s: %s\n", workload, metric, value, ceiling, verdict
            exit (verdict != "ok")
        }' <<<"$bench_out"
}
metric_at_most read_tail host_allocs_per_op 632
metric_at_most mds_balance host_allocs_per_op 4.55
metric_at_most append_overload host_peak_heap_mb 36.3

echo "CI gate passed."
