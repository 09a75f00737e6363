#!/usr/bin/env bash
# Runs two full sets of the benchmark on one build and fails unless every
# end-to-end metric of every workload agrees between them within its bound
# (simulated-clock and count metrics must agree exactly, up to the
# workload's rep tolerance). Raise --reps, not the bounds, until it passes.
#
#   benchmark/selfcheck.sh [--reps K] [--seed N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
for set in 1 2; do
    "$here/run.sh" "$@" --out "$here/out/selfcheck$set" >"$here/out/selfcheck$set.log" 2>&1 || {
        cat "$here/out/selfcheck$set.log"
        echo "selfcheck: set $set failed" >&2
        exit 1
    }
done

python3 - "$here/../BENCHMARK.json" "$here/out/selfcheck1/results.json" "$here/out/selfcheck2/results.json" <<'PY'
import json, sys

spec, first, second = (json.load(open(p)) for p in sys.argv[1:4])
bad = 0
for workload, a in first["workloads"].items():
    b = second["workloads"][workload]
    if a["digest"] != b["digest"]:
        print(f"{workload}: digests differ: {a['digest']} vs {b['digest']}"
              + ("" if a["replayable"] else " (expected: this workload is not replayable, see README)"))
        bad += a["replayable"]
    for m in spec["end_to_end"]:
        x, y = a["end_to_end"][m["name"]]["median"], b["end_to_end"][m["name"]]["median"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        verdict = "ok"
        if abs(worse) > m["bound"]:
            verdict = "OUT OF BOUND"
            bad += 1
        print(f"{workload:16} {m['name']:22} {x:14.6g} {y:14.6g} {worse:+8.2%} of ±{m['bound']:.0%}  {verdict}")
print("selfcheck:", "FAILED" if bad else "passed", f"({bad} out of bound)")
sys.exit(1 if bad else 0)
PY
