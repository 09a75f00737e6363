#!/usr/bin/env bash
# Local CI gate: formatting, lints and docs (warnings are errors), the one-RADOS-client,
# no-timer-per-item, effects-not-calls, payload-is-bytes, name-held-once,
# one-append-path, one-engine, one-encoding, forget-what-it-holds,
# map-held-once, counter-is-a-slot, one-read-path, one-type-op-path,
# one-seal-path, request-held-once, short-string-in-place,
# outcome-held-once, one-request-core,
# one-route-table-a-subscriber-is-sent-the-map, a-grant-travels-alone,
# a-seal's-last-step-holds, every-file-fits-in-a-head,
# a-liveness-action-is-proposed-when-it-is-decided, one-proposal-policy,
# a-map-entry-has-one-codec, a-retry-repeats-its-request-and-the-MDS-has-one-tick,
# everything-kept-has-a-reader, a-backfill-ends-with-a-whole-copy,
# one-event-queue and one-journal-one-restart-path structure checks, the
# tier-1 build + test
# pass (the whole workspace minus the vendored stand-ins; it runs every
# experiment's shape check at quick scale), the three balancer figures at
# paper scale against results/, and the frozen benchmark with its ceilings.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# A file up to its `#[cfg(test)]` line; nothing of a `tests.rs`, the file
# of a module declared below that line.
above_tests() {
    case "$1" in
    */tests.rs) ;;
    *) awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$1" ;;
    esac
}
# The zlog client: log.rs and its protocol modules, their tests excluded.
zlog_client="crates/zlog/src/log.rs $(find crates/zlog/src/log -name '*.rs' ! -name tests.rs | sort | xargs)"
# The text of the zlog client's files, above their tests.
zlog_text="$(for file in $zlog_client; do above_tests "$file"; done)"
# The OSD and the monitor: each root file and its concern modules, their
# tests excluded (DESIGN §12, §28).
osd_files="crates/rados/src/osd.rs $(find crates/rados/src/osd -name '*.rs' ! -name tests.rs | sort | xargs)"
osd_text="$(for file in $osd_files; do above_tests "$file"; done)"
monitor_files="crates/consensus/src/monitor.rs $(find crates/consensus/src/monitor -name '*.rs' ! -name tests.rs | sort | xargs)"
# The MDS daemon: server.rs and its concern modules (DESIGN §12).
mds_files="crates/mds/src/server.rs $(find crates/mds/src/server -name '*.rs' ! -name tests.rs | sort | xargs)"
mds_text="$(for file in $mds_files; do above_tests "$file"; done)"
# The functions, in the files after the first argument, whose bodies
# contain the first argument, one name per occurrence.
enclosing_fns() {
    local call="$1"
    shift
    for file in "$@"; do above_tests "$file"; done |
        awk -v call="$call" '/^    (pub(\(super\))? )?fn [a-z_0-9]+/ { f = $0; sub(/^ *(pub(\(super\))? )?fn /, "", f); sub(/[<(].*/, "", f) } index($0, call) { print f }' | xargs
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc (-D warnings; every crate but the vendored proptest stand-in, whose own links are left as found)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --no-deps --quiet

echo "==> one RADOS client: OsdMsg::ClientOp is built in rados/src/client.rs alone (the OSD matches on it once); the MDS places nothing"
[ "$(grep -rl 'OsdMsg::ClientOp {' crates --include='*.rs' | grep -v '^crates/rados/src/osd[./]' | sort | xargs)" = crates/rados/src/client.rs ]
[ "$(grep -c 'OsdMsg::ClientOp {' <<<"$osd_text")" = 1 ]
[ -z "$(grep -rl 'acting_set_for' crates/mds/src)" ]

echo "==> no timer per item: a client's ops and requests share one deadline set (DESIGN §27); the zlog client arms its flush window itself, the RADOS client nothing"
[ -z "$(grep -rn 'TOKEN_BASE +' crates --include='*.rs')" ]
[ -z "$(grep -n 'set_timer(' <<<"$zlog_text" | grep -v 'TOKEN_FLUSH')" ]
[ -z "$(grep -n 'set_timer(' crates/rados/src/client.rs)" ]

echo "==> replication ships effects: in the OSD only OsdMsg::ClientOp and handle_client_op hold a Transaction (the client's, shared) and apply borrows it, and the replica path names no class registry (DESIGN §28)"
[ "$(cat $osd_files crates/rados/src/osd/tests.rs | grep -c 'req: Rc<(ObjectId, Transaction)>')" = 2 ]
[ "$(cat $osd_files crates/rados/src/osd/tests.rs | grep -c 'Transaction')" = 4 ]
replica_path="$(awk '/^    (pub\(super\) )?fn (handle_repl|apply_effect)\(/,/^    }$/' <<<"$osd_text")"
[ "$(grep -cE '^    (pub\(super\) )?fn (handle_repl|apply_effect)\(' <<<"$replica_path")" = 2 ]
[ -z "$(grep -E 'registry|ClassRegistry|ObjTxn|Transaction' <<<"$replica_path")" ]

echo "==> a payload is bytes, held once: no lossy decoding on the class path, in the zlog wire helpers or in the zlog client, and no native copies a value to store it (DESIGN §29)"
for file in crates/rados/src/class.rs crates/zlog/src/storage.rs $zlog_client; do
    [ -z "$(above_tests "$file" | grep -n 'from_utf8_lossy')" ]
done
[ -z "$(awk '/^fn install_object_natives\(/,/^}$/' crates/rados/src/class.rs | grep -n '\.to_vec()')" ]
# Text that is held as `Rc<str>` is a name, never a value: the VM's global
# names, an omap / xattr key (`object::Key`), an object id's two parts and
# `Op::Call`'s class and method.
[ -z "$(grep -rn 'Rc<str>' crates/dsl/src crates/rados/src | grep -v 'names: Vec<Rc<str>>\|type GlobalNames\|type Key = Rc<str>\|pub pool: Rc<str>\|pub name: Rc<str>\|Into<Rc<str>>\|class: Rc<str>\|method: Rc<str>')" ]

echo "==> a name is held once: no hop copies an object id's parts or an omap key, the zlog client formats no stripe id per request, and a sequencer verb is not text (DESIGN §30)"
for file in $osd_files crates/rados/src/ops.rs crates/rados/src/object.rs; do
    [ -z "$(above_tests "$file" | grep -n '\.pool\.clone()\|\.name\.clone()\|key\.to_string()')" ]
done
stripe_oid="$(awk '/^    (pub\(super\) )?fn stripe_oid\(/,/^    }$/' <<<"$zlog_text")"
[ -n "$stripe_oid" ]
[ -z "$(grep -n 'format!' <<<"$stripe_oid")" ]
[ -z "$(grep -rn 'op: String' crates/mds/src/types.rs)" ]
[ -z "$(grep -rn 'span_tag(.*to_string()' crates)" ]

echo "==> one append path: an append is a batch of one; the scalar grant-and-write protocol and the class's scalar write are gone (DESIGN §13)"
[ -z "$(grep -n 'SeqOp::Next\b\|Stage::Write\b\|Stage::GetPos\|Method::Write\b' <<<"$zlog_text")" ]
[ -z "$(grep -n 'function write(' crates/zlog/src/storage.rs)" ]

echo "==> one engine: the language crate holds the VM alone; the tree-walking oracle is the dev-only mala-dsl-oracle crate, which only mala-bench (for dsl_vm) links outside tests, and no value selects an engine (DESIGN §18)"
[ -z "$(grep -rn 'EngineKind\|DslEngine' crates)" ]
for file in $(find crates/dsl/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | grep -nE '\bInterp\b|Value::Func\b|tree-walker')" ]
done
for file in $(find crates -name '*.rs' -not -path 'crates/dsl-oracle/*' -not -path '*/tests/*' -not -path 'crates/bench/src/exp/dsl_vm.rs'); do
    [ -z "$(above_tests "$file" | grep -nw 'Interp')" ]
done
# Each manifest line that names the oracle, with the table it sits in: only
# mala-bench's is outside [dev-dependencies].
oracle_deps="$(for manifest in Cargo.toml crates/*/Cargo.toml; do awk -v file="$manifest" '/^\[/ { table = $0 } /^mala-dsl-oracle *[.=]/ { print file, table }' "$manifest"; done)"
[ "$(grep -v ' \[dev-dependencies\]$' <<<"$oracle_deps")" = "crates/bench/Cargo.toml [dependencies]" ]
[ "$(cargo tree --offline -e normal -i mala-dsl-oracle --workspace --prefix none | awk '{ print $1 }' | sort -u | xargs)" = "mala-bench mala-dsl-oracle" ]

echo "==> one encoding: Cephalo bytecode names slots; no operand-stack instruction survives beside the register forms (DESIGN §18)"
for file in $(find crates/dsl/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | grep -n 'LoadLocal\|StoreLocal\|JumpIfFalsePeek')" ]
done

echo "==> an op forgets what it holds: the request core hands an op's routes back when it removes or re-drives the op, and the zlog client cancels those, never by scanning its RADOS requests (DESIGN §23)"
grep -qF 'routes: &Routes<Route>)' <<<"$zlog_text"
[ "$(grep -c 'self\.ops\.take_routes(' <<<"$zlog_text")" = 1 ]
[ -z "$(grep -n 'cancel_where(\|\.waiters()\.filter' <<<"$zlog_text")" ]

echo "==> a map is held once on the OSD: both maps a gossip message carries are the sender's shared handles, and nothing deep-copies the interface map (DESIGN §31)"
gossip_fields="$(awk '/^    Gossip \{$/,/^    \},$/' <<<"$osd_text" | grep -E '^        [a-z_]+: ')"
[ "$(grep -c . <<<"$gossip_fields")" = 2 ]
[ "$(grep -c 'Rc<' <<<"$gossip_fields")" = 2 ]
[ -z "$(grep -n 'self\.interfaces\.clone()' $osd_files crates/rados/src/osd/tests.rs)" ]

echo "==> a counter is a slot: a literal counter name is bumped through counter!, which resolves it once per call site; incr takes only names built at run time (DESIGN §32)"
# Whitespace is squeezed out first, so a call rustfmt breaks after `incr(`
# is caught too.
for file in $(find crates/*/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | tr -d ' \n' | grep -o '\.incr("[^"]*"')" ]
done

echo "==> one read path: a point read and a write probe are a read_batch of one, trimming is by prefix only, and RADOS does not parse the zlog class's wire (DESIGN §13, §17, §25)"
[ -z "$(grep -n 'Method::Read\b\|Method::Trim\b\|Stage::ReadEntry' <<<"$zlog_text")" ]
[ -z "$(grep -n 'function read(\|function trim(' crates/zlog/src/storage.rs)" ]
[ -z "$(grep -n '"zlog"' $osd_files crates/rados/src/osd/tests.rs)" ]

echo "==> one type-op path: a sequencer verb from the client and one its home forwards pass one gate into exec_type_op, which has one caller (DESIGN §33)"
[ "$(grep -c 'exec_type_op(' <<<"$mds_text")" = 2 ]
[ -z "$(grep -rn 'handle_proxy_op' crates)" ]

echo "==> one seal path: a client's recovery is the MDS's seal; the zlog client seals no stripe, submits no epoch and writes back no tail (DESIGN §34)"
[ -z "$(grep -rn 'AdvanceTo' crates)" ]
[ -z "$(grep -n 'Method::Seal\|MonMsg::Submit\|Route::Mon' <<<"$zlog_text")" ]
for file in $(find crates/zlog/src -name '*.rs'); do
    [ -z "$(above_tests "$file" | grep -n '"seal"')" ]
done

echo "==> a request is held once: the RADOS client keeps each request's waiter, no embedder a table of its own, and a zlog op parks in one list (DESIGN §23, §26)"
[ -z "$(grep -rn 'rados_waiting\|store_waiting' crates/*/src)" ]
[ -z "$(grep -n 'blocked_on_epoch\|mds_blocked' $zlog_client crates/rados/src/client.rs)" ]

echo "==> a short string is held in place: outside value.rs the dsl builds no script string behind a refcount of its own; only a literal constant shares one (DESIGN §35)"
for file in $(find crates/dsl/src -name '*.rs'); do
    [ "$file" = crates/dsl/src/value.rs ] && continue
    # A literal's buffer (`Expr::Str`), shared, is the one heap string
    # allowed.
    [ -z "$(above_tests "$file" | grep -n 'Str::Heap(' | grep -v 'Str::Heap(Rc::clone(s))')" ]
    [ -z "$(above_tests "$file" | grep -n 'Rc::from(\|Rc<\[u8\]>' | grep -v 'Rc::from(name)\|    Str(Rc<\[u8\]>),')" ]
done

echo "==> an outcome is held once: an OSD keeps a write's result as one Outcome, shared by its reply window, its journal, its replicas and backfill pushes; the reply to the client is its one copy (DESIGN §36)"
[ -z "$(grep -nE '(result|outcome)s?\.(clone|to_vec|to_owned)\(\)|Result::clone|Vec::clone' <<<"$osd_text")" ]
[ "$(grep -c 'into_owned()' <<<"$osd_text")" = 1 ]
for holder in '^(pub[(]super[)] )?struct PendingRepl \{$' '^(pub[(]super[)] )?struct DeferredRepl \{$' '^    Repl \{$'; do
    awk -v start="$holder" '$0 ~ start, /^ *\},?$/' <<<"$osd_text" | grep -q 'outcome: Outcome,'
done
grep -q 'Done(Outcome)' <<<"$osd_text"
grep -q 'AppliedReply = (NodeId, u64, Outcome);' <<<"$osd_text"
grep -q 'result: Outcome,' crates/rados/src/journal.rs

echo "==> one request core: the zlog client, the RADOS client and the open-loop fleet hold their work in flight in one mala_sim::Requests, with its looks and its park list (DESIGN §23)"
# The monitor's deadline set holds no requests: one beacon deadline per
# MDS daemon (DESIGN §12).
[ -z "$(grep -rln 'Deadlines::new(' crates/*/src | grep -v '^crates/sim/src/' | grep -vxF "$(tr ' ' '\n' <<<"$monitor_files")")" ]
for file in crates/rados/src/client.rs $zlog_client crates/bench/src/openloop.rs; do
    [ -z "$(grep -n 'parked:\|retry_q\|retry_armed\|blocked_on_epoch\|retry_at\|Deadlines<' "$file")" ]
done
[ -z "$(awk '/^pub struct FleetConfig \{$/,/^}$/' crates/bench/src/openloop.rs | grep -n 'retry_delay')" ]

echo "==> one route table, a subscriber is sent the map: an op's reply routes live in mala_sim::Requests; the monitor sends each subscriber a touched map's committed snapshot, no delta, and a daemon asks for a map through mala_consensus::follower alone (DESIGN §19, §23)"
[ -z "$(grep -nw 'mds_waiting\|Held\|HELD_INLINE' <<<"$zlog_text")" ]
[ -z "$(grep -n 'fn hold(\|fn unlist(' <<<"$zlog_text")" ]
# Above the tests of every file under crates/*/src: no delta message, no
# delta patch, no per-tick poll of a map.
[ -z "$(for file in $(find crates/*/src -name '*.rs' | sort); do above_tests "$file"; done | grep -n 'MonMsg::Changed\|fn apply_delta\|fn get_map\|fn maybe_fetch_policy')" ]
# Requests for a map are built by the follower module and answered by the
# monitor; the Figure 8 harness subscribes a tenth of its OSDs by hand.
[ "$(for file in $(find crates/*/src -name '*.rs' | sort); do text="$(above_tests "$file")"; grep -q 'MonMsg::Get {\|MonMsg::Subscribe {' <<<"$text" && echo "$file"; done | xargs)" = "crates/bench/src/exp/fig8.rs crates/consensus/src/follower.rs crates/consensus/src/monitor.rs" ]
[ -z "$(grep -rn 'fn adopt_snapshot\|fn needs_fetch\|fn fetch_map\|fn on_new_map' crates/*/src)" ]

echo "==> a grant travels alone: MdsMsg::SetSeqLayout is built in the zlog client's register_layout alone, which the resolve and create replies and a LayoutMissing answer call; the MDS only matches it (DESIGN §12)"
[ "$(grep -rl 'MdsMsg::SetSeqLayout' crates/*/src | sort | xargs)" = "crates/mds/src/server.rs crates/zlog/src/log/seq.rs" ]
[ "$(grep -c 'MdsMsg::SetSeqLayout' crates/mds/src/server.rs)" = 1 ]
[ "$(grep -A3 'MdsMsg::SetSeqLayout {' crates/mds/src/server.rs | grep -c 'ref pool,\|ref name,')" = 2 ]
[ "$(enclosing_fns 'MdsMsg::SetSeqLayout' $zlog_client)" = register_layout ]
[ "$(enclosing_fns 'self.register_layout(' $zlog_client)" = "on_mds_transient on_mds_reply on_mds_reply" ]
grep -q '(MdsError::LayoutMissing, Some(ino)) => self.register_layout(ctx, ino),' <<<"$zlog_text"

echo "==> a seal's last step holds: MdsError::Recovering is built only at the type-op gate and where a failed stripe call releases the ops a seal held, and the zlog client parks a Recovering op on the epoch its request went out under (DESIGN §12)"
[ "$(grep -rl --exclude=tests.rs 'MdsError::Recovering' crates/*/src | sort | xargs)" = "crates/mds/src/server/seal.rs crates/mds/src/server/type_ops.rs crates/mds/src/types.rs crates/zlog/src/log/seq.rs" ]
# In file order: the seal's module sorts before the type-op gate's.
[ "$(enclosing_fns 'MdsError::Recovering' $mds_files)" = "release_held serve_type_op" ]
[ "$(enclosing_fns 'rec.held.push(request);' $mds_files)" = serve_type_op ]
[ "$(awk '/\(MdsError::Recovering, _\) => \{/,/^            \}$/' <<<"$zlog_text" | grep -c 'self.ops.park(op, Park::Epoch(sent));')" = 1 ]

echo "==> every file fits in a head: no file under crates/*/src is over 1,000 lines; in the zlog client one step dispatch serves the starters and the re-drive, and an op names one owner (DESIGN §12, §23, §28)"
[ -z "$(find crates/*/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')" ]
[ "$(grep -c 'fn step(' <<<"$zlog_text")" = 1 ]
[ "$(enclosing_fns 'self.step(ctx, op);' $zlog_client | tr ' ' '\n' | grep -cx 'start\|redrive_op')" = 2 ]
[ -z "$(grep -n 'fn step_fill(\|fn step_tail(\|fn step_checkpoint(\|fn step_ckpt_read(\|fn spawn_cursor_' <<<"$zlog_text")" ]
pending_op="$(awk '/^struct PendingOp \{$/,/^}$/' crates/zlog/src/log.rs)"
grep -q '    owner: Owner,' <<<"$pending_op"
[ -z "$(grep -n 'internal:\|cursor:' <<<"$pending_op")" ]
# above_tests skips a `tests.rs`: each is the file of a module its parent
# declares under `#[cfg(test)]`.
for file in $(find crates/*/src -name tests.rs); do
    awk 'prev == "#[cfg(test)]" && $0 == "mod tests;" { found = 1 } { prev = $0 } END { exit !found }' "$(dirname "$file").rs"
done

echo "==> a liveness action is proposed when it is decided: the monitor proposes a failover, a mark-down or a standby registration at once, not with the next tick's client submits, and looks at an MDS at its beacon deadline, not on a sweep every half grace (DESIGN §12)"
[ -z "$(enclosing_fns 'pending.push(' $(find crates/*/src -name '*.rs' | sort) | tr ' ' '\n' | grep -x 'submit_self')" ]
[ -z "$(grep -rn 'beacon_grace\.div(2)' crates --include='*.rs')" ]

echo "==> one proposal policy: crates/consensus/src/maps.rs lists the maps proposed at once and decides in proposes_at_once alone whether a client transaction skips the proposal tick; the monitor calls it once, where a Submit arrives, and names no map to decide it (DESIGN §12)"
maps_text="$(above_tests crates/consensus/src/maps.rs)"
[ "$(grep -c 'fn proposes_at_once(' <<<"$maps_text")" = 1 ]
# The list of maps proposed at once is read once: by proposes_at_once.
[ "$(grep -c 'PROPOSED_AT_ONCE' <<<"$maps_text")" = 2 ]
# Outside maps.rs, code (comments aside) names no such list and calls the
# decision once, in the monitor's message handler.
policy_users="$(for file in $(find crates/*/src -name '*.rs' ! -path crates/consensus/src/maps.rs | sort); do above_tests "$file"; done | grep -v '^ *//')"
[ -z "$(grep -n 'fn proposes_at_once(\|PROPOSED_AT_ONCE' <<<"$policy_users")" ]
[ "$(grep -c 'proposes_at_once(' <<<"$policy_users")" = 1 ]
[ "$(enclosing_fns 'maps::proposes_at_once(' $monitor_files)" = on_message ]
# The monitor names the zlog map only where it counts a refused update.
[ "$(enclosing_fns 'SERVICE_MAP_ZLOG' $monitor_files)" = apply_batch ]

echo "==> a map entry has one codec: outside crates/consensus/src/maps.rs no code builds, parses or names an osdmap, mdsmap or zlog map entry by hand; the monitor and the daemons go through the codec (DESIGN §12, §31)"
for file in $(find crates/*/src -name '*.rs' ! -path crates/consensus/src/maps.rs); do
    # `standby\.[^ ]`: the key prefix, not a sentence that ends in "standby.".
    [ -z "$(above_tests "$file" | grep -nE '"node=|node=\{|\("(node|up|weight)"|pg_num=|standby\.[^ ]|epoch\.\{|strip_prefix\("(osd|mds|pool)\.')" ]
done

echo "==> a retry repeats its request, and the MDS has one tick: a seal re-sends its one Submit and repeats its read of the zlog map, the one Get a daemon sends; a map follower re-asks by subscribing; the MDS arms only its balancing tick, its cap tick and the one tick that beacons and repeats what it waits on, with no timer of its own for a seal, the store or a policy read (DESIGN §12, §19, §26)"
[ "$(for file in $(find crates/*/src -name '*.rs' | sort); do text="$(above_tests "$file")"; grep -q 'follower::get(' <<<"$text" && echo "$file"; done | xargs)" = "crates/mds/src/server/seal.rs" ]
[ -z "$(grep -n 'fn fetch' crates/consensus/src/follower.rs)" ]
[ -z "$(grep -rn 'seal_mon_waiting' crates)" ]
mds_timers="$(grep 'ctx\.set_timer(' <<<"$mds_text")"
[ -z "$(grep -vE 'ctx\.set_timer\([^;]*, (TIMER_BALANCE|TIMER_CAP|TIMER_TICK)\);' <<<"$mds_timers")" ]
[ "$(grep -oE '(TIMER_BALANCE|TIMER_CAP|TIMER_TICK)\);' <<<"$mds_timers" | sort -u | wc -l)" = 3 ]
[ -z "$(grep -rnE 'TIMER_SEAL|TIMER_JOURNAL|TIMER_MANTLE_TIMEOUT|seal_tick_armed|mantle_fetch_deadline' crates)" ]

echo "==> everything kept has a reader: no write-only journal record or wire field, and one implementation of journal replay, placement, sample statistics, a table read and a bulk grant (DESIGN §12, §16)"
crates_text="$(for file in $(find crates/*/src -name '*.rs' | sort); do above_tests "$file"; done)"
for pattern in MantleVersion replay_journal_full 'fn primary_and_replicas' 'pub fn acting_set(' get_str get_pos_batch; do
    [ -z "$(grep -nF "$pattern" <<<"$crates_text")" ]
done
# The OSD's own journal replay is `Osd::replay_journal`; the benchmark
# harness keeps its own `summarize`.
[ -z "$(for file in $(find crates/mds/src -name '*.rs'); do above_tests "$file"; done | grep -n 'fn replay_journal(')" ]
[ -z "$(for file in $(find crates/sim/src -name '*.rs'); do above_tests "$file"; done | grep -n 'fn summarize')" ]
client_reply="$(awk '/^    ClientReply \{/,/^    \},/' <<<"$osd_text")"
scrub_divergent="$(awk '/^    ScrubDivergent \{/,/^    \},/' <<<"$osd_text")"
[ -n "$client_reply" ] && [ -z "$(grep -n 'map_epoch' <<<"$client_reply")" ]
[ -n "$scrub_divergent" ] && [ -z "$(grep -n 'pool' <<<"$scrub_divergent")" ]

echo "==> a backfill ends with a whole copy: a push from a source that holds the PG whole or a map that takes the PG away ends it; no give-up, no serve-as-is and no retry setting, and a PG with no source up waits (DESIGN §16)"
[ -z "$(grep -rnE 'backfill_no_source|backfill_aborted|backfill_retry_interval' crates src tests --include='*.rs')" ]
[ "$(enclosing_fns 'self.finish_backfill(' $osd_files)" = "on_map_change on_backfill_push" ]
[ -z "$(grep -n 'sources\.retain(' <<<"$osd_text")" ]
map_change="$(awk '/^    pub\(super\) fn on_map_change\(/,/^    }$/' <<<"$osd_text")"
[ -n "$map_change" ]
# From the last candidate search on (a newly acquired PG's), nothing skips
# the PG: with no source it still opens a backfill.
[ -z "$(awk '/source_candidates\(/ { after = "" } { after = after $0 "\n" } END { printf "%s", after }' <<<"$map_change" | grep -n 'continue\|is_empty()')" ]

echo "==> one event queue: under crates/sim/src only the event store names BinaryHeap, and its calendar horizon is one literal constant, held by no struct and read from no environment (DESIGN §22)"
event_store=crates/sim/src/queue.rs
[ "$(grep -rl 'BinaryHeap' crates/sim/src)" = "$event_store" ]
[ "$(grep -cE '^(pub(\(crate\))? )?const HORIZON_US: u64 = [0-9_]+;$' "$event_store")" = 1 ]
# No struct field above the tests of any crate names a horizon: not a
# config's, not the store's.
struct_fields="$(for file in $(find crates/*/src -name '*.rs' | sort); do above_tests "$file"; done | awk '/^(pub(\(crate\))? )?struct /,/^}/')"
[ -z "$(grep -iE '^ +(pub(\([a-z]+\))? )?[a-z_]*horizon[a-z_]*:' <<<"$struct_fields")" ]
[ -z "$(grep -rnE 'std::env|env::var|option_env!' crates/sim/src)" ]

echo "==> one journal, one restart path: a node's durable log is mala_sim::disk (rados holds the OSD's record type and its fold, no handle, registry or compaction threshold), and core::Cluster alone builds an OSD around its journal and hands the harnesses their restart and membership callbacks (DESIGN §11)"
rados_text="$(for file in $(find crates/rados/src -name '*.rs' | sort); do above_tests "$file"; done)"
[ -z "$(grep -nE 'RefCell<.*Journal|struct Journal(Set|Inner)?\b|THRESHOLD' <<<"$rados_text")" ]
[ "$(grep -cE '^pub type (Journal = Disk|JournalSet = Disks)<JournalRecord>;$' crates/rados/src/journal.rs)" = 2 ]
# Two zlog fixtures wire a rados-level stack by hand below malacology, as
# the frozen benchmark does; every harness that has a Cluster uses it.
[ "$(grep -rlF 'Osd::with_journal(' crates src tests examples --include='*.rs' | grep -v '^crates/rados/' | sort | xargs)" = "crates/core/src/cluster.rs crates/zlog/tests/alloc_budget.rs crates/zlog/tests/byte_payloads.rs" ]
[ -z "$(grep -rnF '.0 - 10' tests crates/bench/src --include='*.rs')" ]
[ -z "$(grep -rnE '\.on_(restart|membership)\(' tests crates/bench/src --include='*.rs' | grep -vE '\.on_restart\(cluster\.restart_callback\(\)\)|\.on_membership\(cluster\.membership_callback\(\)\)')" ]

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (root package and every crate: default-members)"
cargo test -q

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
# written, plus a margin; lower it when a change lowers the number. The
# older readings and their causes are in git history and EXPERIMENTS.md.
#   host_allocs_per_op  read_tail 238.85, the scripted read path and the
#                       cursor (DESIGN §35); +10 %.
#                       mds_balance 3.005, the three message boxes of a
#                       sequencer round trip (DESIGN §32); +10 %.
#                       append_steady 42.01, one outcome per replicated
#                       write and its one copy to the client (DESIGN §36);
#                       +5 %: a second class-code execution per write, or
#                       a name copied per hop again (DESIGN §30), fails it.
#                       fault_churn 81.96, appends through crashes,
#                       journal replay and backfill, which ships outcomes
#                       by refcount (DESIGN §36), an MDS outage whose
#                       waiters the seal wakes instead of a backoff and
#                       whose promotion is proposed when the beacon grace
#                       runs out (DESIGN §12), and map commits sent as the
#                       snapshot, not a notice that costs a Get (DESIGN
#                       §19); +10 %.
#                       append_overload 32.81, a grant without the log's
#                       layout beside it (DESIGN §12); +10 %.
#   host_alloc_kb_per_op  read_tail 76.75, one copy of a 1 KiB payload
#                       between the omap and the reader (DESIGN §29); +10 %.
#                       append_steady 10.73, the payload into the omap and
#                       the effect once (DESIGN §28); +5 %.
#                       fault_churn 9.92, maps gossiped by refcount
#                       (DESIGN §31), a shorter MDS outage (DESIGN §12)
#                       and map commits sent as the snapshot (DESIGN §19);
#                       +10 %.
#   host_peak_heap_mb   append_overload 28.02, the event queue at its
#                       fullest; +5 %. Scheduler bookkeeping that grows with
#                       the number of events ever queued shows here first.
#   sim.events_per_op   append_overload 11.26, one watchdog per client, not
#                       per waiting append (DESIGN §27); +10 %.
#   sim.msgs_per_op     append_overload 8.48, the layout sent only when an
#                       MDS asks for it (DESIGN §12); +10 %.
#   sim_p99_ms          fault_churn 826.7, an MDS crash that costs the
#                       beacon grace and one seal: the monitor proposes
#                       the promotion when the grace runs out, not at a
#                       sweep and a tick, and the seal's epoch bump when
#                       it arrives, not at the next tick, and the appends
#                       complete when the promoted standby's seal ends,
#                       not after the client's capped backoff (DESIGN
#                       §12); +10 %. The one simulated-clock ceiling: it
#                       repeats exactly for a seed too.
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
metric_at_most read_tail host_allocs_per_op 263
metric_at_most read_tail host_alloc_kb_per_op 84.4
metric_at_most mds_balance host_allocs_per_op 3.31
metric_at_most append_steady host_allocs_per_op 44.1
metric_at_most append_steady host_alloc_kb_per_op 11.3
metric_at_most fault_churn host_allocs_per_op 90.2
metric_at_most fault_churn host_alloc_kb_per_op 10.9
metric_at_most fault_churn sim_p99_ms 909
metric_at_most append_overload host_allocs_per_op 36.1
metric_at_most append_overload host_peak_heap_mb 29.4
metric_at_most append_overload sim.events_per_op 12.4
metric_at_most append_overload sim.msgs_per_op 9.33

echo "CI gate passed."
