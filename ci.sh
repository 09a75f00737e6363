#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the one-RADOS-client,
# no-timer-per-item, effects-not-calls, payload-is-bytes, name-held-once,
# one-append-path, one-engine, one-encoding, forget-what-it-holds,
# map-held-once, counter-is-a-slot, one-read-path, one-type-op-path and
# one-seal-path structure checks, the
# tier-1 build + test pass (the whole workspace minus the vendored stand-ins), every experiment's shape
# check at quick scale, the three balancer figures at paper scale against results/, and
# the frozen benchmark with its ceilings. Run from the repository root before
# pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> one RADOS client: OsdMsg::ClientOp is built in rados/src/client.rs alone (osd.rs matches on it); the MDS places nothing"
[ "$(grep -rl 'OsdMsg::ClientOp {' crates --include='*.rs' | sort | xargs)" = "crates/rados/src/client.rs crates/rados/src/osd.rs" ]
[ -z "$(grep -rl 'acting_set_for' crates/mds/src)" ]

echo "==> no timer per item: a client's ops and requests share one deadline set (DESIGN §27); the zlog client arms its flush window itself, the RADOS client nothing"
[ -z "$(grep -rn 'TOKEN_BASE +' crates --include='*.rs')" ]
[ -z "$(grep -n 'set_timer(' crates/zlog/src/log.rs | grep -v 'TOKEN_FLUSH')" ]
[ -z "$(grep -n 'set_timer(' crates/rados/src/client.rs)" ]

echo "==> replication ships effects: in osd.rs only OsdMsg::ClientOp and handle_client_op hold a Transaction (the client's, shared) and apply borrows it, and the replica path names no class registry (DESIGN §28)"
[ "$(grep -c 'req: Rc<(ObjectId, Transaction)>' crates/rados/src/osd.rs)" = 2 ]
[ "$(grep -c 'Transaction' crates/rados/src/osd.rs)" = 4 ]
[ -z "$(awk '/^    fn (handle_repl|apply_effect)\(/,/^    }$/' crates/rados/src/osd.rs | grep -E 'registry|ClassRegistry|ObjTxn|Transaction')" ]

echo "==> a payload is bytes, held once: no lossy decoding on the class path, in the zlog wire helpers or in the zlog client, and no native copies a value to store it (DESIGN §29)"
above_tests() { awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$1"; }
for file in crates/rados/src/class.rs crates/zlog/src/storage.rs crates/zlog/src/log.rs; do
    [ -z "$(above_tests "$file" | grep -n 'from_utf8_lossy')" ]
done
[ -z "$(awk '/^fn install_object_natives\(/,/^}$/' crates/rados/src/class.rs | grep -n '\.to_vec()')" ]
# Text that is held as `Rc<str>` is a name, never a value: the VM's global
# names, an omap / xattr key (`object::Key`), an object id's two parts and
# `Op::Call`'s class and method.
[ -z "$(grep -rn 'Rc<str>' crates/dsl/src crates/rados/src | grep -v 'names: Vec<Rc<str>>\|type GlobalNames\|type Key = Rc<str>\|pub pool: Rc<str>\|pub name: Rc<str>\|Into<Rc<str>>\|class: Rc<str>\|method: Rc<str>')" ]

echo "==> a name is held once: no hop copies an object id's parts or an omap key, the zlog client formats no stripe id per request, and a sequencer verb is not text (DESIGN §30)"
for file in osd ops object; do
    [ -z "$(above_tests "crates/rados/src/$file.rs" | grep -n '\.pool\.clone()\|\.name\.clone()\|key\.to_string()')" ]
done
[ -z "$(awk '/^    fn stripe_oid\(/,/^    }$/' crates/zlog/src/log.rs | grep -n 'format!')" ]
[ -z "$(grep -rn 'op: String' crates/mds/src/types.rs)" ]
[ -z "$(grep -rn 'span_tag(.*to_string()' crates)" ]

echo "==> one append path: an append is a batch of one; the scalar grant-and-write protocol and the class's scalar write are gone (DESIGN §13)"
[ -z "$(grep -n 'SeqOp::Next\b\|Stage::Write\b\|Stage::GetPos\|Method::Write\b' crates/zlog/src/log.rs)" ]
[ -z "$(grep -n 'function write(' crates/zlog/src/storage.rs)" ]

echo "==> one engine on production paths: no value selects an engine, and outside tests only the dsl crate and the dsl_vm experiment name the tree-walker (DESIGN §18)"
[ -z "$(grep -rn 'EngineKind\|DslEngine' crates)" ]
for file in $(find crates -name '*.rs' -not -path 'crates/dsl/src/*' -not -path '*/tests/*' -not -path 'crates/bench/src/exp/dsl_vm.rs'); do
    [ -z "$(above_tests "$file" | grep -nw 'Interp')" ]
done

echo "==> one encoding: Cephalo bytecode names slots; no operand-stack instruction survives beside the register forms (DESIGN §18)"
for file in crates/dsl/src/*.rs; do
    [ -z "$(above_tests "$file" | grep -n 'LoadLocal\|StoreLocal\|JumpIfFalsePeek')" ]
done

echo "==> an op forgets what it holds: the zlog client drops an op's reply routes through the ids the op lists, never by scanning a route table (DESIGN §23)"
[ -z "$(grep -n '_waiting\.retain(\|_waiting\.iter()' crates/zlog/src/log.rs)" ]

echo "==> a map is held once on the OSD: both maps a gossip message carries are the sender's shared handles, and nothing deep-copies the interface map (DESIGN §31)"
gossip_fields="$(awk '/^    Gossip \{$/,/^    \},$/' crates/rados/src/osd.rs | grep -E '^        [a-z_]+: ')"
[ "$(grep -c . <<<"$gossip_fields")" = 2 ]
[ "$(grep -c 'Rc<' <<<"$gossip_fields")" = 2 ]
[ -z "$(grep -n 'self\.interfaces\.clone()' crates/rados/src/osd.rs)" ]

echo "==> a counter is a slot: a literal counter name is bumped through counter!, which resolves it once per call site; incr takes only names built at run time (DESIGN §32)"
# Whitespace is squeezed out first, so a call rustfmt breaks after `incr(`
# is caught too.
for file in $(find crates/*/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | tr -d ' \n' | grep -o '\.incr("[^"]*"')" ]
done

echo "==> one read path: a point read and a write probe are a read_batch of one, trimming is by prefix only, and RADOS does not parse the zlog class's wire (DESIGN §13, §17, §25)"
[ -z "$(grep -n 'Method::Read\b\|Method::Trim\b\|Stage::ReadEntry' crates/zlog/src/log.rs)" ]
[ -z "$(grep -n 'function read(\|function trim(' crates/zlog/src/storage.rs)" ]
[ -z "$(grep -n '"zlog"' crates/rados/src/osd.rs)" ]

echo "==> one type-op path: a sequencer verb from the client and one its home forwards pass one gate into exec_type_op, which has one caller (DESIGN §33)"
[ "$(grep -c 'exec_type_op(' crates/mds/src/server.rs)" = 2 ]
[ -z "$(grep -rn 'handle_proxy_op' crates)" ]

echo "==> one seal path: a client's recovery is the MDS's seal; the zlog client seals no stripe, submits no epoch and writes back no tail (DESIGN §34)"
[ -z "$(grep -rn 'AdvanceTo' crates)" ]
[ -z "$(grep -n 'Method::Seal\|MonMsg::Submit\|Route::Mon' crates/zlog/src/log.rs)" ]
for file in $(find crates/zlog/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | grep -n '"seal"')" ]
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (root package and every crate: default-members)"
cargo test -q

echo "==> mala-bench all --quick (release: every experiment's shape check, nothing written)"
cargo run --release -q -p mala-bench -- all --quick >/dev/null

echo "==> mala-bench fig9, fig10, backoff at paper scale (release): a fresh run writes the committed results/ files"
# The balancer figures replay since Mds::balance_tick breaks rate ties by
# inode; at paper scale they are too slow for the debug-mode tests/cli.rs.
paper_dir="$PWD/target/tmp/ci-paper"
rm -rf "$paper_dir" && mkdir -p "$paper_dir"
for name in fig9 fig10 backoff; do
    (cd "$paper_dir" && cargo run --release -q -p mala-bench -- "$name" >/dev/null)
    cmp "$paper_dir/results/$name.txt" "results/$name.txt"
done

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
# Allocations and allocated bytes per operation and handler calls per
# operation repeat exactly on every rep of a seed, and the peak heap to
# 0.1 %. Each ceiling is the value this quick run measured when it was
# written, plus a margin; lower it when a change lowers the number.
#   host_allocs_per_op  read_tail 298.74 (the scripted read path and the
#                       cursor; 308.36 while a single stripe's read reply
#                       was reordered through a map, DESIGN §17; 323.56
#                       while every request formatted its
#                       stripe id and copied its class and method names,
#                       DESIGN §30; 390.40 while a stored value was copied
#                       into the VM and again into the reply, DESIGN §29),
#                       mds_balance 3.006 (the three message boxes of a
#                       round trip; 3.106 while the sequencer client
#                       formatted a series name for every sample it
#                       recorded, DESIGN §32; 3.139 while every OSD gossip message
#                       deep-copied its maps, DESIGN §31; 4.139 while the
#                       verb was a `String`); +10 %.
#                       append_steady 51.82 (53.03 with the gossip copies;
#                       82.45 while object ids, omap keys, class and
#                       method names and the grant's verb and layout were
#                       copied at every hop, DESIGN §30; 106.55 while the
#                       request was cloned per transmission and the
#                       payload copied into the argument, the omap and the
#                       effect; 127.64 while each replica ran the write's
#                       class code again, DESIGN §28); +5 %.
#   host_alloc_kb_per_op  read_tail 80.45 (one copy of a 1 KiB payload
#                       between the omap and the reader; 83.29 while a
#                       single stripe's read reply was reordered through a
#                       map; 123.58 with three copies); +10 %.
#                       append_steady 11.64 (12.15 with the gossip copies;
#                       13.11 with the names copied; 18.07
#                       before stored values were shared buffers; 21.75
#                       with the payload cloned into every replica's
#                       message and run through the VM there); +5 %.
#                       fault_churn 14.97 (16.01 while a single stripe's
#                       read reply was reordered through a map; 30.95
#                       while each gossip message to each peer
#                       deep-copied the interface map, zlog
#                       class source included, and a re-encoded osdmap,
#                       DESIGN §31); +10 %.
#   host_peak_heap_mb   append_overload 29.00 (the event queue at its
#                       fullest; 34.00 while every queued request owned a
#                       copy of its transaction); +5 %. Scheduler
#                       bookkeeping that grows with the number of events
#                       ever queued, not with the number queued at once,
#                       shows here first.
#   sim.events_per_op   append_overload 14.42 (72.5 while every waiting
#                       append re-armed a watchdog of its own); +10 %. An
#                       op that spins on a timer while its progress is
#                       someone else's shows here first.
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
metric_at_most read_tail host_allocs_per_op 329
metric_at_most read_tail host_alloc_kb_per_op 88.5
metric_at_most mds_balance host_allocs_per_op 3.31
metric_at_most append_steady host_allocs_per_op 54.4
metric_at_most append_steady host_alloc_kb_per_op 12.2
metric_at_most fault_churn host_alloc_kb_per_op 16.5
metric_at_most append_overload host_peak_heap_mb 30.4
metric_at_most append_overload sim.events_per_op 15.9

echo "CI gate passed."
