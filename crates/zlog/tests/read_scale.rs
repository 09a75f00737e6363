//! Read-side scale-out tests on the full simulated stack: vectored
//! `read_batch`, pipelined tailing cursors, trim/checkpoint, and the
//! KV layer's checkpointed recovery.

use std::collections::HashMap;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, MdsMapView, NoBalancer};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{
    encode_cmd, zlog_interface_update, AppendResult, KvCmd, KvStore, ReadConfig, ReadOutcome,
    ZlogClient, ZlogConfig,
};

const MON: NodeId = NodeId(0);
const MDS0: NodeId = NodeId(20);
const CLIENT_A: NodeId = NodeId(100);
const CLIENT_B: NodeId = NodeId(101);
const CLIENT_C: NodeId = NodeId(102);

fn zcfg(name: &str) -> ZlogConfig {
    ZlogConfig {
        name: name.to_string(),
        pool: "zlogpool".to_string(),
        stripe_width: 4,
        mds_nodes: HashMap::from([(0, MDS0)]),
        home_rank: 0,
        monitor: MON,
    }
}

fn build(log: &str) -> Sim {
    let mut sim = Sim::new(31);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..4u32 {
        sim.add_node(NodeId(10 + i), Osd::new(i, MON, OsdConfig::default()));
    }
    sim.add_node(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    sim.add_node(CLIENT_A, ZlogClient::new(zcfg(log)));
    sim.add_node(CLIENT_B, ZlogClient::new(zcfg(log)));
    let mut updates = vec![
        OsdMapView::update_pool(
            "zlogpool",
            PoolInfo {
                pg_num: 32,
                replicas: 2,
            },
        ),
        MdsMapView::update_rank(0, MDS0, true),
        zlog_interface_update(),
    ];
    for i in 0..4u32 {
        updates.push(OsdMapView::update_osd(i, NodeId(10 + i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.setup(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    sim
}

fn append(sim: &mut Sim, node: NodeId, data: &str) -> u64 {
    let data = data.as_bytes().to_vec();
    match run_op(sim, node, SimDuration::from_secs(5), move |c, ctx| {
        c.append(ctx, data)
    }) {
        AppendResult::Ok(ZlogOut::Pos(p)) => p,
        other => panic!("append failed: {other:?}"),
    }
}

fn read(sim: &mut Sim, node: NodeId, pos: u64) -> ReadOutcome {
    match run_op(sim, node, SimDuration::from_secs(5), move |c, ctx| {
        c.read(ctx, pos)
    }) {
        AppendResult::Ok(ZlogOut::Read(r)) => r,
        other => panic!("read failed: {other:?}"),
    }
}

fn read_batch(sim: &mut Sim, node: NodeId, positions: Vec<u64>) -> Vec<(u64, ReadOutcome)> {
    match run_op(sim, node, SimDuration::from_secs(10), move |c, ctx| {
        c.read_batch(ctx, positions)
    }) {
        AppendResult::Ok(ZlogOut::ReadBatch(entries)) => entries,
        other => panic!("read_batch failed: {other:?}"),
    }
}

fn trim_to(sim: &mut Sim, node: NodeId, pos: u64) {
    match run_op(sim, node, SimDuration::from_secs(10), move |c, ctx| {
        c.trim_to(ctx, pos)
    }) {
        AppendResult::Ok(ZlogOut::Done) => {}
        other => panic!("trim_to failed: {other:?}"),
    }
}

fn checkpoint(sim: &mut Sim, node: NodeId, pos: u64, blob: Vec<u8>) -> u64 {
    match run_op(sim, node, SimDuration::from_secs(10), move |c, ctx| {
        c.checkpoint(ctx, pos, blob)
    }) {
        AppendResult::Ok(ZlogOut::CheckpointAt(held)) => held,
        other => panic!("checkpoint failed: {other:?}"),
    }
}

fn checkpoint_read(sim: &mut Sim, node: NodeId) -> Option<(u64, Vec<u8>)> {
    match run_op(sim, node, SimDuration::from_secs(10), |c, ctx| {
        c.checkpoint_read(ctx)
    }) {
        AppendResult::Ok(ZlogOut::Checkpoint(c)) => c,
        other => panic!("checkpoint_read failed: {other:?}"),
    }
}

fn cursor_next(sim: &mut Sim, node: NodeId, id: u64, max: usize) -> Vec<(u64, ReadOutcome)> {
    match run_op(sim, node, SimDuration::from_secs(10), move |c, ctx| {
        c.cursor_next_batch(ctx, id, max)
    }) {
        AppendResult::Ok(ZlogOut::CursorBatch(entries)) => entries,
        other => panic!("cursor_next_batch failed: {other:?}"),
    }
}

/// Drains a cursor until it reports "caught up" (an empty batch).
fn cursor_drain(sim: &mut Sim, node: NodeId, id: u64) -> Vec<(u64, ReadOutcome)> {
    let mut all = Vec::new();
    loop {
        let batch = cursor_next(sim, node, id, 8);
        if batch.is_empty() {
            return all;
        }
        all.extend(batch);
    }
}

fn data(s: &str) -> ReadOutcome {
    ReadOutcome::Data(s.as_bytes().to_vec())
}

#[test]
fn read_batch_spans_data_junk_trimmed_unwritten() {
    let mut sim = build("rb0");
    for i in 0..4u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("e{i}")), i);
    }
    // Junk-fill a cell ahead of the frontier, trim the first entry.
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.fill(ctx, 5)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
    trim_to(&mut sim, CLIENT_A, 1);

    let ops_before = sim.metrics().counter("rados.read_batch_ops");
    let positions_before = sim.metrics().counter("rados.read_batch_positions");
    // One vector covering every cell state, straddling stripe boundaries
    // (width 4: positions 1, 5, 9 share stripe 1).
    let entries = read_batch(&mut sim, CLIENT_B, vec![0, 1, 3, 5, 9]);
    assert_eq!(
        entries,
        vec![
            (0, ReadOutcome::Trimmed),
            (1, data("e1")),
            (3, data("e3")),
            (5, ReadOutcome::Filled),
            (9, ReadOutcome::NotWritten),
        ]
    );
    // Round-trip amplification: 5 positions over 3 distinct stripes must
    // cost exactly 3 RADOS ops, which ask for all 5 positions.
    assert_eq!(
        sim.metrics().counter("rados.read_batch_ops") - ops_before,
        3
    );
    assert_eq!(
        sim.metrics().counter("rados.read_batch_positions") - positions_before,
        5
    );
}

#[test]
fn read_batch_result_order_matches_request_order() {
    let mut sim = build("rb1");
    for i in 0..8u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    // Unsorted, cross-stripe request, one position named twice: results
    // come back in request order.
    let entries = read_batch(&mut sim, CLIENT_A, vec![7, 2, 5, 0, 3, 7]);
    let positions: Vec<u64> = entries.iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, vec![7, 2, 5, 0, 3, 7]);
    for (p, o) in &entries {
        assert_eq!(*o, data(&format!("e{p}")), "position {p}");
    }
}

#[test]
fn read_batch_survives_epoch_bump_from_peer_recovery() {
    let mut sim = build("rb2");
    for i in 0..6u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    // Peer recovery seals every stripe under a new epoch; the stale
    // client's vectored read must refresh and retry, not fail.
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(20), |c, ctx| {
        c.recover(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::Recovered { .. })),
        "{res:?}"
    );
    let entries = read_batch(&mut sim, CLIENT_A, (0..6).collect());
    for (p, o) in &entries {
        assert_eq!(*o, data(&format!("e{p}")), "position {p}");
    }
}

#[test]
fn trim_to_reclaims_prefix_and_preserves_tail() {
    let mut sim = build("tr0");
    for i in 0..10u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    trim_to(&mut sim, CLIENT_A, 6);
    // Everything below 6 is gone, to a vector and to a point read alike;
    // everything at or above survives.
    let entries = read_batch(&mut sim, CLIENT_B, (0..10).collect());
    for (p, o) in &entries {
        if *p < 6 {
            assert_eq!(*o, ReadOutcome::Trimmed, "position {p}");
        } else {
            assert_eq!(*o, data(&format!("e{p}")), "position {p}");
        }
    }
    assert_eq!(read(&mut sim, CLIENT_A, 3), ReadOutcome::Trimmed);
    // Trim must not disturb position assignment.
    assert_eq!(append(&mut sim, CLIENT_B, "e10"), 10);
    // Idempotent, and re-trimming a shorter prefix is a no-op.
    trim_to(&mut sim, CLIENT_A, 6);
    trim_to(&mut sim, CLIENT_A, 2);
    assert_eq!(read(&mut sim, CLIENT_A, 7), data("e7"));
}

#[test]
fn checkpoint_roundtrip_is_monotone() {
    let mut sim = build("ck0");
    for i in 0..8u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    assert_eq!(checkpoint_read(&mut sim, CLIENT_A), None);
    assert_eq!(checkpoint(&mut sim, CLIENT_A, 5, b"snap5".to_vec()), 5);
    assert_eq!(
        checkpoint_read(&mut sim, CLIENT_B),
        Some((5, b"snap5".to_vec()))
    );
    // A stale (earlier) checkpoint is refused: the stored one wins.
    assert_eq!(checkpoint(&mut sim, CLIENT_B, 3, b"snap3".to_vec()), 5);
    assert_eq!(
        checkpoint_read(&mut sim, CLIENT_A),
        Some((5, b"snap5".to_vec()))
    );
    // A later one supersedes, and blobs may contain the wire separator.
    assert_eq!(checkpoint(&mut sim, CLIENT_A, 7, b"a|b|c".to_vec()), 7);
    assert_eq!(
        checkpoint_read(&mut sim, CLIENT_B),
        Some((7, b"a|b|c".to_vec()))
    );
    // Read-after-trim-after-checkpoint: trimming up to the checkpoint
    // leaves the checkpoint object itself untouched.
    trim_to(&mut sim, CLIENT_A, 7);
    assert_eq!(
        checkpoint_read(&mut sim, CLIENT_A),
        Some((7, b"a|b|c".to_vec()))
    );
    assert_eq!(read(&mut sim, CLIENT_B, 6), ReadOutcome::Trimmed);
    assert_eq!(read(&mut sim, CLIENT_B, 7), data("e7"));
}

#[test]
fn cursor_tails_catchup_then_live() {
    let mut sim = build("cu0");
    for i in 0..20u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.tail_cursor(ctx));
    let caught = cursor_drain(&mut sim, CLIENT_B, id);
    assert_eq!(caught.len(), 20);
    for (i, (p, o)) in caught.iter().enumerate() {
        assert_eq!(*p, i as u64, "delivery must be dense and in order");
        assert_eq!(*o, data(&format!("e{i}")));
    }
    // Caught up: an empty batch, not a stall.
    assert!(cursor_next(&mut sim, CLIENT_B, id, 8).is_empty());
    // New appends wake the same cursor.
    for i in 20..23u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    let live = cursor_drain(&mut sim, CLIENT_B, id);
    let positions: Vec<u64> = live.iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, vec![20, 21, 22]);
}

#[test]
fn cursor_starts_from_checkpoint_and_skips_trimmed_prefix() {
    let mut sim = build("cu1");
    for i in 0..12u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    checkpoint(&mut sim, CLIENT_A, 8, b"state-through-7".to_vec());
    trim_to(&mut sim, CLIENT_A, 8);
    let reads_before = sim.metrics().counter("rados.read_batch_positions");
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.tail_cursor(ctx));
    let caught = cursor_drain(&mut sim, CLIENT_B, id);
    let positions: Vec<u64> = caught.iter().map(|(p, _)| *p).collect();
    assert_eq!(
        positions,
        vec![8, 9, 10, 11],
        "cursor must start at the checkpoint, not zero"
    );
    for (p, o) in &caught {
        assert_eq!(*o, data(&format!("e{p}")));
    }
    // Replay never even touched the trimmed prefix.
    let read = sim.metrics().counter("rados.read_batch_positions") - reads_before;
    assert!(
        read < 8,
        "suffix replay should cost < 8 position reads, cost {read}"
    );
}

#[test]
fn cursor_heals_abandoned_grant() {
    let mut sim = build("cu2");
    assert_eq!(append(&mut sim, CLIENT_A, "a0"), 0);
    assert_eq!(append(&mut sim, CLIENT_A, "a1"), 1);
    // B appends once so its sequencer handle is resolved...
    assert_eq!(append(&mut sim, CLIENT_B, "b0"), 2);
    // ...then requests a grant and dies before writing: position 3 is
    // granted but never filled — a hole below the tail.
    sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.append(ctx, b"lost".to_vec()));
    sim.crash(CLIENT_B);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(append(&mut sim, CLIENT_A, "a2"), 4, "grant 3 was consumed");

    let id = sim.with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| c.tail_cursor(ctx));
    let caught = cursor_drain(&mut sim, CLIENT_A, id);
    assert_eq!(
        caught,
        vec![
            (0, data("a0")),
            (1, data("a1")),
            (2, data("b0")),
            (3, ReadOutcome::Filled),
            (4, data("a2")),
        ],
        "the cursor must fence the abandoned grant and move on"
    );
    assert!(
        sim.metrics().counter("zlog.cursor_hole_fills") >= 1,
        "the hole at 3 must have been healed by the cursor"
    );
}

/// `(rados.read_batch_ops, rados.read_batch_positions, zlog.cursor_entries)`.
fn fetch_counters(sim: &Sim) -> (u64, u64, u64) {
    let m = sim.metrics();
    (
        m.counter("rados.read_batch_ops"),
        m.counter("rados.read_batch_positions"),
        m.counter("zlog.cursor_entries"),
    )
}

/// What the cursor fetches is part of its contract: which positions, in
/// how many stripe groups. The numbers below were read off the commit
/// before the incremental prefetch window and must not move with it.
#[test]
fn cursor_fetch_counters_are_pinned() {
    let mut sim = build("cu3");
    for i in 0..150u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    // A wide window drained in small batches: many completions per fetch.
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.tail_cursor(ctx));
    assert_eq!(cursor_drain(&mut sim, CLIENT_B, id).len(), 150);
    assert_eq!(fetch_counters(&sim), (22, 150, 150));
    // A narrow window against a wide stripe set: the in-flight cap leaves
    // groups out on every pass.
    let narrow = ReadConfig {
        readahead: 6,
        max_inflight: 2,
    };
    sim.add_node(CLIENT_C, ZlogClient::with_read_config(zcfg("cu3"), narrow));
    sim.run_for(SimDuration::from_secs(1));
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_C, |c, ctx| c.tail_cursor(ctx));
    assert_eq!(cursor_drain(&mut sim, CLIENT_C, id).len(), 150);
    assert_eq!(fetch_counters(&sim), (118, 300, 300));
}

/// A fetch that fails mid-window — its replies dropped until the op runs
/// out its deadline — puts its positions back into the needed set: they
/// are requested again and delivery stays contiguous.
#[test]
fn cursor_refetches_a_failed_fetch_mid_window() {
    let mut sim = build("cu4");
    for i in 0..24u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    let read = ReadConfig {
        readahead: 8,
        max_inflight: 4,
    };
    sim.add_node(CLIENT_C, ZlogClient::with_read_config(zcfg("cu4"), read));
    sim.run_for(SimDuration::from_secs(1));
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_C, |c, ctx| c.tail_cursor(ctx));
    // The first batch returns as soon as position 0 is there: the other
    // stripes' fetches, and the one the slid window added, are in flight.
    let first = cursor_next(&mut sim, CLIENT_C, id, 4);
    let got = first.len() as u64;
    assert!((1..4).contains(&got), "{first:?}");
    // Cut the reader off from every OSD past the op deadline (60 s): the
    // fetches fail terminally. No batch call is waiting meanwhile.
    for osd in 0..4u32 {
        sim.network_mut().sever(CLIENT_C, NodeId(10 + osd));
    }
    sim.run_for(SimDuration::from_secs(65));
    sim.network_mut().heal_all();
    let rest = cursor_drain(&mut sim, CLIENT_C, id);
    let positions: Vec<u64> = rest.iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, (got..24).collect::<Vec<u64>>());
    for (p, o) in &rest {
        assert_eq!(*o, data(&format!("e{p}")), "position {p}");
    }
    let (_, requested, delivered) = fetch_counters(&sim);
    assert!(
        requested > 24,
        "the failed fetches' positions must be requested again, saw {requested} requests"
    );
    assert_eq!(delivered, 24);
}

/// A watchdog re-drive abandons the RADOS requests of the attempt before
/// it; the embedded RADOS client goes on retransmitting them and, once
/// the links heal, completes every one. Those completions — a whole
/// `read_batch` reply each — have no op to go to and must be dropped when
/// they arrive, not kept for the life of the client.
#[test]
fn completions_of_abandoned_requests_are_dropped() {
    let mut sim = build("cu5");
    for i in 0..24u64 {
        append(&mut sim, CLIENT_A, &format!("e{i}"));
    }
    sim.add_node(CLIENT_C, ZlogClient::new(zcfg("cu5")));
    sim.run_for(SimDuration::from_secs(1));
    // Cut the reader off from every OSD for a few watchdog periods: each
    // re-drive forgets the requests out so far and submits the vector anew.
    for osd in 0..4u32 {
        sim.network_mut().sever(CLIENT_C, NodeId(10 + osd));
    }
    let op =
        sim.with_actor::<ZlogClient, _>(CLIENT_C, |c, ctx| c.read_batch(ctx, (0..24).collect()));
    sim.run_for(SimDuration::from_secs(3));
    assert!(!sim.actor::<ZlogClient>(CLIENT_C).is_done(op));
    let redrives = sim.metrics().counter("zlog.retries");
    assert!(redrives >= 2, "wanted a few re-drives, saw {redrives}");
    sim.network_mut().heal_all();
    // Long enough for every abandoned request's retransmit to go out.
    sim.run_for(SimDuration::from_secs(10));
    let result = sim.actor_mut::<ZlogClient>(CLIENT_C).take_result(op);
    let Some(AppendResult::Ok(ZlogOut::ReadBatch(entries))) = result else {
        panic!("read_batch after heal: {result:?}");
    };
    for (p, o) in &entries {
        assert_eq!(*o, data(&format!("e{p}")), "position {p}");
    }
    assert_eq!(entries.len(), 24);
    assert!(
        sim.actor::<ZlogClient>(CLIENT_C).is_idle(),
        "a drained client holds nothing, abandoned completions included"
    );
}

#[test]
fn kv_recovery_replays_only_the_suffix() {
    let mut sim = build("kv0");
    // Build some state and checkpoint it.
    let mut store = KvStore::new();
    for i in 0..9u64 {
        let cmd = KvCmd::put(format!("k{}", i % 3), format!("v{i}"));
        let bytes = encode_cmd(&cmd);
        let pos = {
            let b = bytes.clone();
            match run_op(
                &mut sim,
                CLIENT_A,
                SimDuration::from_secs(5),
                move |c, ctx| c.append(ctx, b),
            ) {
                AppendResult::Ok(ZlogOut::Pos(p)) => p,
                other => panic!("append failed: {other:?}"),
            }
        };
        store.apply(pos, &ReadOutcome::Data(bytes)).unwrap();
    }
    checkpoint(&mut sim, CLIENT_A, store.applied(), store.snapshot());
    trim_to(&mut sim, CLIENT_A, store.applied());
    // More commands land after the checkpoint.
    for i in 9..13u64 {
        let cmd = if i == 12 {
            KvCmd::del("k0".to_string())
        } else {
            KvCmd::put(format!("k{}", i % 3), format!("v{i}"))
        };
        append(
            &mut sim,
            CLIENT_B,
            &String::from_utf8(encode_cmd(&cmd)).unwrap(),
        );
    }

    // Cold recovery on the other client: restore the snapshot, then tail
    // from the checkpoint — replaying exactly the 4-entry suffix.
    let (pos, blob) = checkpoint_read(&mut sim, CLIENT_B).expect("checkpoint must exist");
    let mut recovered = KvStore::restore(pos, &blob).unwrap();
    assert_eq!(recovered.applied(), 9);
    let id = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.tail_cursor(ctx));
    let suffix = cursor_drain(&mut sim, CLIENT_B, id);
    assert_eq!(suffix.len(), 4, "recovery must replay only the suffix");
    for (p, o) in &suffix {
        recovered.apply(*p, o).unwrap();
    }
    assert_eq!(recovered.applied(), 13);
    assert_eq!(recovered.get("k0"), None, "k0 was deleted at 12");
    assert_eq!(recovered.get("k1"), Some("v10"));
    assert_eq!(recovered.get("k2"), Some("v11"));
}
