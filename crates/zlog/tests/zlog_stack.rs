//! End-to-end ZLog tests on the full simulated stack: monitor + OSDs
//! (scripted storage interface) + MDS (sequencer file type) + clients.

use std::collections::HashMap;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, MdsMapView, NoBalancer};
use mala_rados::client::request;
use mala_rados::{ObjectId, Op, Osd, OsdConfig, OsdMapView, PoolInfo, RadosClient};
use mala_sim::history::{Outcome, Recorder};
use mala_sim::linearize::{check_shared_log, LogOp, LogRet};
use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{
    encode_write_batch, zlog_interface_update, AppendResult, BatchConfig, ReadOutcome, ZlogClient,
    ZlogConfig, ZLOG_CLASS,
};

const MON: NodeId = NodeId(0);
const OSDS: [NodeId; 4] = [NodeId(10), NodeId(11), NodeId(12), NodeId(13)];
const MDS0: NodeId = NodeId(20);
const CLIENT_A: NodeId = NodeId(100);
const CLIENT_B: NodeId = NodeId(101);
/// A bare RADOS client that writes cells behind the zlog clients' backs.
const RAW: NodeId = NodeId(102);

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
    build_with(log, ZlogClient::new(zcfg(log)))
}

fn build_with(log: &str, client_a: ZlogClient) -> Sim {
    let mut sim = Sim::new(23);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for (i, osd) in (0..).zip(OSDS) {
        sim.add_node(osd, Osd::new(i, MON, OsdConfig::default()));
    }
    sim.add_node(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    sim.add_node(CLIENT_A, client_a);
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
    for (i, osd) in (0..).zip(OSDS) {
        updates.push(OsdMapView::update_osd(i, osd, true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    // Create /zlog/<name>.
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

#[test]
fn append_assigns_dense_positions_and_reads_back() {
    let mut sim = build("log0");
    for i in 0..12u64 {
        let pos = append(&mut sim, CLIENT_A, &format!("entry-{i}"));
        assert_eq!(pos, i, "positions must be dense from zero");
    }
    for i in 0..12u64 {
        let out = read(&mut sim, CLIENT_A, i);
        assert_eq!(out, ReadOutcome::Data(format!("entry-{i}").into_bytes()));
    }
    // Beyond the tail: not written.
    assert_eq!(read(&mut sim, CLIENT_A, 99), ReadOutcome::NotWritten);
}

#[test]
fn two_clients_never_collide() {
    let mut sim = build("log1");
    let mut positions = Vec::new();
    for i in 0..10 {
        let node = if i % 2 == 0 { CLIENT_A } else { CLIENT_B };
        positions.push(append(&mut sim, node, &format!("e{i}")));
    }
    let mut dedup = positions.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), positions.len(), "duplicate position assigned");
    assert_eq!(dedup, (0..10).collect::<Vec<u64>>());
}

#[test]
fn fill_and_trim_through_the_stack() {
    let mut sim = build("log2");
    append(&mut sim, CLIENT_A, "keep");
    // Fill a hole at position 5 (skipped by nothing yet — simulating a
    // slow writer being filled by a reader).
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.fill(ctx, 5)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)));
    assert_eq!(read(&mut sim, CLIENT_A, 5), ReadOutcome::Filled);
    // Trim the prefix below 1: position 0.
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.trim_to(ctx, 1)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)));
    assert_eq!(read(&mut sim, CLIENT_A, 0), ReadOutcome::Trimmed);
    assert_eq!(read(&mut sim, CLIENT_A, 5), ReadOutcome::Filled);
}

#[test]
fn check_tail_tracks_appends() {
    let mut sim = build("log3");
    for _ in 0..5 {
        append(&mut sim, CLIENT_A, "x");
    }
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.check_tail(ctx)
    });
    assert_eq!(res, AppendResult::Ok(ZlogOut::Tail(5)));
}

#[test]
fn sequencer_recovery_restores_tail_after_mds_crash() {
    let mut sim = build("log4");
    for i in 0..8u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("pre-{i}")), i);
    }
    // Crash the MDS: the sequencer tail is volatile state (round-trip
    // appends never journal it), so the restarted MDS would hand out
    // position 0 again.
    sim.crash(MDS0);
    sim.restart(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    sim.run_for(SimDuration::from_secs(2));
    // The namespace is gone too (journal disabled in this config), so
    // recovery recreates it; what matters is the sealed maximum.
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
        c.setup(ctx)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))));
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    let AppendResult::Ok(ZlogOut::Recovered { epoch, tail }) = res else {
        panic!("recovery failed: {res:?}");
    };
    assert_eq!(epoch, 1);
    assert_eq!(tail, 8, "seal must find the maximum written position");
    // New appends continue past the old data without overwriting.
    let pos = append(&mut sim, CLIENT_B, "post");
    assert_eq!(pos, 8);
    assert_eq!(
        read(&mut sim, CLIENT_B, 3),
        ReadOutcome::Data(b"pre-3".to_vec()),
        "old entries intact"
    );
}

#[test]
fn stale_client_is_fenced_then_recovers_via_epoch_refresh() {
    let mut sim = build("log5");
    append(&mut sim, CLIENT_A, "first");
    // Client B runs recovery, bumping the epoch to 1 and sealing stripes.
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    assert!(matches!(
        res,
        AppendResult::Ok(ZlogOut::Recovered { epoch: 1, .. })
    ));
    // Client A still believes epoch 0 unless its subscription already
    // delivered the change; force the stale path by rolling its view back.
    // (The subscription race is why CORFU needs the guard at the object.)
    sim.run_for(SimDuration::from_secs(1));
    let epoch_a = sim.actor::<ZlogClient>(CLIENT_A).epoch();
    assert_eq!(epoch_a, 1, "subscription must deliver the new epoch");
    // Appending from A now works under the new epoch.
    let pos = append(&mut sim, CLIENT_A, "after-seal");
    assert!(pos >= 1);
    // And the entry is readable.
    assert_eq!(
        read(&mut sim, CLIENT_B, pos),
        ReadOutcome::Data(b"after-seal".to_vec())
    );
}

#[test]
fn epoch_lives_in_service_metadata() {
    let mut sim = build("log6");
    run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    sim.run_for(SimDuration::from_secs(1));
    let mon = sim.actor::<Monitor>(MON);
    let snap = mon
        .map(mala_consensus::SERVICE_MAP_ZLOG)
        .expect("zlog map exists");
    assert_eq!(
        snap.entries.get("epoch.log6").map(|v| v.as_slice()),
        Some(b"1".as_slice()),
        "epoch must be durable in the monitor map"
    );
}

/// Drives `count` pipelined appends through CLIENT_A and returns the
/// assigned positions in submission order.
fn submit_async_appends(sim: &mut Sim, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| {
            sim.with_actor::<ZlogClient, _>(CLIENT_A, move |c, ctx| {
                c.append_async(ctx, format!("entry-{i}").into_bytes())
            })
        })
        .collect()
}

/// Waits for `ops` and returns their positions, in submission order.
fn await_positions(sim: &mut Sim, ops: &[u64], timeout: SimDuration) -> Vec<u64> {
    let deadline = sim.now() + timeout;
    let done = sim.run_until_pred(deadline, |s| {
        let c = s.actor::<ZlogClient>(CLIENT_A);
        ops.iter().all(|&op| c.is_done(op))
    });
    assert!(done, "pipelined appends timed out after {timeout}");
    ops.iter()
        .enumerate()
        .map(
            |(i, &op)| match sim.actor_mut::<ZlogClient>(CLIENT_A).take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Pos(p))) => p,
                other => panic!("async append {i} failed: {other:?}"),
            },
        )
        .collect()
}

fn drive_async_appends(sim: &mut Sim, count: usize, timeout: SimDuration) -> Vec<u64> {
    let ops = submit_async_appends(sim, count);
    await_positions(sim, &ops, timeout)
}

#[test]
fn pipelined_appends_amortize_grants_and_read_back() {
    const N: usize = 16;
    let mut sim = build_with(
        "plog0",
        ZlogClient::with_batching(
            zcfg("plog0"),
            BatchConfig {
                queue_depth: 8,
                flush_window: SimDuration::from_millis(1),
            },
        ),
    );
    let positions = drive_async_appends(&mut sim, N, SimDuration::from_secs(30));

    // Positions must be unique and, on a fresh single-writer log, dense.
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), N, "duplicate positions: {positions:?}");
    assert_eq!(sorted, (0..N as u64).collect::<Vec<_>>());

    // Every payload reads back from the position its op resolved to.
    for (i, &p) in positions.iter().enumerate() {
        assert_eq!(
            read(&mut sim, CLIENT_B, p),
            ReadOutcome::Data(format!("entry-{i}").into_bytes()),
            "position {p}"
        );
    }

    // The whole point: far fewer sequencer round trips than appends.
    let grants = sim.metrics().counter("zlog.pos_grants");
    assert!(
        (1..N as u64).contains(&grants),
        "expected amortized grants, got {grants} for {N} appends"
    );
    assert_eq!(
        sim.metrics().counter("zlog.grants_saved") + grants,
        N as u64,
        "every append is covered by exactly one grant"
    );
    // And the stripe writes were coalesced: fewer RADOS ops than entries.
    let writes = sim.metrics().counter("zlog.batch_writes");
    assert!(writes < N as u64, "writes not coalesced: {writes}");
    assert_eq!(sim.metrics().counter("zlog.coalesced_entries"), N as u64);
    // Every batch is gone with its routes: nothing left in the tables.
    assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle());
}

#[test]
fn flush_window_drains_a_partial_queue() {
    // Queue depth far above the number of appends: only the flush-window
    // timer can push these through.
    let mut sim = build_with(
        "plog1",
        ZlogClient::with_batching(
            zcfg("plog1"),
            BatchConfig {
                queue_depth: 64,
                flush_window: SimDuration::from_millis(5),
            },
        ),
    );
    let positions = drive_async_appends(&mut sim, 3, SimDuration::from_secs(30));
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted, vec![0, 1, 2], "{positions:?}");
}

#[test]
fn explicit_flush_short_circuits_the_window() {
    let mut sim = build_with(
        "plog2",
        ZlogClient::with_batching(
            zcfg("plog2"),
            BatchConfig {
                queue_depth: 64,
                // A window so long it would stall the test on its own.
                flush_window: SimDuration::from_secs(120),
            },
        ),
    );
    let ops: Vec<u64> = (0..4)
        .map(|i| {
            sim.with_actor::<ZlogClient, _>(CLIENT_A, move |c, ctx| {
                c.append_async(ctx, format!("f-{i}").into_bytes())
            })
        })
        .collect();
    sim.with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| c.flush(ctx));
    let deadline = sim.now() + SimDuration::from_secs(10);
    let done = sim.run_until_pred(deadline, |s| {
        let c = s.actor::<ZlogClient>(CLIENT_A);
        ops.iter().all(|&op| c.is_done(op))
    });
    assert!(done, "explicit flush did not drain the queue");
    for op in ops {
        let res = sim.actor_mut::<ZlogClient>(CLIENT_A).take_result(op);
        assert!(
            matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(_)))),
            "{res:?}"
        );
    }
}

#[test]
fn junk_filled_holes_read_back_as_filled_from_any_client() {
    let mut sim = build("rlog0");
    append(&mut sim, CLIENT_A, "head");
    // Fill two holes ahead of the write frontier from the *other* client.
    for pos in [3u64, 4] {
        let res = run_op(
            &mut sim,
            CLIENT_B,
            SimDuration::from_secs(5),
            move |c, ctx| c.fill(ctx, pos),
        );
        assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
    }
    for pos in [3u64, 4] {
        assert_eq!(read(&mut sim, CLIENT_A, pos), ReadOutcome::Filled);
        assert_eq!(read(&mut sim, CLIENT_B, pos), ReadOutcome::Filled);
    }
    // Filling never advances the sequencer: the next append lands right
    // after the head entry, not past the filled cells.
    assert_eq!(append(&mut sim, CLIENT_A, "next"), 1);
    assert_eq!(
        read(&mut sim, CLIENT_B, 1),
        ReadOutcome::Data(b"next".to_vec())
    );
    // A fill aimed at an occupied data cell bounces without clobbering.
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
        c.fill(ctx, 0)
    });
    assert!(
        matches!(&res, AppendResult::Err(e) if e.contains("already written")),
        "{res:?}"
    );
    assert_eq!(
        read(&mut sim, CLIENT_A, 0),
        ReadOutcome::Data(b"head".to_vec())
    );
}

#[test]
fn read_after_trim_is_stable_and_trim_is_idempotent() {
    let mut sim = build("rlog1");
    for i in 0..3u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("t{i}")), i);
    }
    // Trim the prefix below 2 twice (GC retries are idempotent).
    for _ in 0..2 {
        let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
            c.trim_to(ctx, 2)
        });
        assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
    }
    for node in [CLIENT_A, CLIENT_B] {
        assert_eq!(read(&mut sim, node, 0), ReadOutcome::Trimmed);
        assert_eq!(read(&mut sim, node, 1), ReadOutcome::Trimmed);
        assert_eq!(read(&mut sim, node, 2), ReadOutcome::Data(b"t2".to_vec()));
    }
    // The trimmed cell stays trimmed across a seal (epoch bump).
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    assert!(matches!(
        res,
        AppendResult::Ok(ZlogOut::Recovered { epoch: 1, .. })
    ));
    assert_eq!(read(&mut sim, CLIENT_A, 1), ReadOutcome::Trimmed);
}

#[test]
fn read_racing_a_seal_still_returns_the_entry() {
    let mut sim = build("rlog2");
    for i in 0..4u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("r{i}")), i);
    }
    // Launch the seal (recovery) and a read in the same sim instant so
    // the read can hit a stripe mid-seal; the client must ride the epoch
    // refresh and still deliver the entry, never an error or a phantom
    // NotWritten.
    let rec_op = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.recover(ctx));
    let read_op = sim.with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| c.read(ctx, 2));
    let deadline = sim.now() + SimDuration::from_secs(20);
    let done = sim.run_until_pred(deadline, |s| {
        s.actor::<ZlogClient>(CLIENT_B).is_done(rec_op)
            && s.actor::<ZlogClient>(CLIENT_A).is_done(read_op)
    });
    assert!(done, "seal/read race did not settle");
    let rec = sim.actor_mut::<ZlogClient>(CLIENT_B).take_result(rec_op);
    assert!(
        matches!(
            rec,
            Some(AppendResult::Ok(ZlogOut::Recovered { epoch: 1, tail: 4 }))
        ),
        "{rec:?}"
    );
    let got = sim.actor_mut::<ZlogClient>(CLIENT_A).take_result(read_op);
    assert_eq!(
        got,
        Some(AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(
            b"r2".to_vec()
        ))))
    );
    // And the epoch converges everywhere once the dust settles.
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.actor::<ZlogClient>(CLIENT_A).epoch(), 1);
}

/// Two clients recovering at once are answered by one seal: the second
/// request joins the seal the first started, and both learn its epoch and
/// tail.
#[test]
fn concurrent_recoveries_share_one_seal() {
    let mut sim = build("rlog4");
    for i in 0..5u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("c{i}")), i);
    }
    let ops = [CLIENT_A, CLIENT_B].map(|node| {
        let op = sim.with_actor::<ZlogClient, _>(node, |c, ctx| c.recover(ctx));
        (node, op)
    });
    let deadline = sim.now() + SimDuration::from_secs(20);
    let done = sim.run_until_pred(deadline, |s| {
        ops.iter()
            .all(|&(node, op)| s.actor::<ZlogClient>(node).is_done(op))
    });
    assert!(done, "concurrent recoveries did not settle");
    for (node, op) in ops {
        let res = sim.actor_mut::<ZlogClient>(node).take_result(op);
        assert_eq!(
            res,
            Some(AppendResult::Ok(ZlogOut::Recovered { epoch: 1, tail: 5 })),
            "{node:?}"
        );
    }
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 1);
    assert_eq!(append(&mut sim, CLIENT_B, "after"), 5);
}

/// A recovery resolves only once its client runs under the epoch the seal
/// installed, even when the zlog map's change notice never reached it: it
/// asks the monitor for the map.
#[test]
fn a_recovery_waits_for_the_epoch_its_seal_installed() {
    let mut sim = build("rlog5");
    append(&mut sim, CLIENT_B, "one");
    sim.network_mut().sever(MON, CLIENT_B);
    let op = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.recover(ctx));
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 1);
    let client = sim.actor::<ZlogClient>(CLIENT_B);
    assert!(!client.is_done(op), "recovered while still at epoch 0");
    assert_eq!(client.epoch(), 0);
    sim.network_mut().heal_all();
    let deadline = sim.now() + SimDuration::from_secs(10);
    let done = sim.run_until_pred(deadline, |s| s.actor::<ZlogClient>(CLIENT_B).is_done(op));
    assert!(done, "recovery never learned its epoch");
    let res = sim.actor_mut::<ZlogClient>(CLIENT_B).take_result(op);
    assert_eq!(
        res,
        Some(AppendResult::Ok(ZlogOut::Recovered { epoch: 1, tail: 1 }))
    );
}

/// A recovery that joins a seal whose epoch its client already runs under
/// — another client's, stalled on stripes the MDS cannot reach — resolves
/// with that seal's epoch and tail once the seal completes, rather than
/// waiting for an epoch no one installs.
#[test]
fn a_recovery_joining_a_seal_whose_epoch_it_knows_resolves() {
    let mut sim = build("rlog6");
    for i in 0..3u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("j{i}")), i);
    }
    for osd in OSDS {
        sim.network_mut().sever(MDS0, osd);
    }
    let first = sim.with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| c.recover(ctx));
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 0, "the seal stalls");
    assert_eq!(sim.actor::<ZlogClient>(CLIENT_B).epoch(), 1);
    let second = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.recover(ctx));
    sim.run_for(SimDuration::from_millis(500));
    sim.network_mut().heal_all();
    let ops = [(CLIENT_A, first), (CLIENT_B, second)];
    let deadline = sim.now() + SimDuration::from_secs(20);
    let done = sim.run_until_pred(deadline, |s| {
        ops.iter()
            .all(|&(node, op)| s.actor::<ZlogClient>(node).is_done(op))
    });
    assert!(done, "a recovery did not settle");
    for (node, op) in ops {
        let res = sim.actor_mut::<ZlogClient>(node).take_result(op);
        assert_eq!(
            res,
            Some(AppendResult::Ok(ZlogOut::Recovered { epoch: 1, tail: 3 })),
            "{node:?}"
        );
    }
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 1);
}

/// An op parks once. A four-stripe `trim_to` under an epoch another
/// client's recovery has sealed bounces `ESTALE` on every stripe; once the
/// new epoch arrives the trim goes again once — one retry, one attempt of
/// its budget — not once per bounced stripe, each restart cancelling the
/// fan the one before it had just sent.
#[test]
fn a_fan_bounced_on_every_stripe_parks_once() {
    let mut sim = build("park1");
    for i in 0..4u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("p{i}")), i);
    }
    // A misses the epoch B's recovery installs.
    sim.network_mut().sever(MON, CLIENT_A);
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::Recovered { epoch: 1, .. })),
        "{res:?}"
    );
    sim.network_mut().heal_all();
    assert_eq!(sim.actor::<ZlogClient>(CLIENT_A).epoch(), 0);

    let (estale, retries) = (
        sim.metrics().counter("zlog.estale_retries"),
        sim.metrics().counter("zlog.retries"),
    );
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(10), |c, ctx| {
        c.trim_to(ctx, 4)
    });
    assert_eq!(res, AppendResult::Ok(ZlogOut::Done));
    assert_eq!(sim.actor::<ZlogClient>(CLIENT_A).epoch(), 1);
    assert_eq!(sim.metrics().counter("zlog.estale_retries") - estale, 4);
    assert_eq!(sim.metrics().counter("zlog.retries") - retries, 1);
    for pos in 0..4 {
        assert_eq!(read(&mut sim, CLIENT_B, pos), ReadOutcome::Trimmed);
    }
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle());
}

/// A batch's grant re-driven while its client is cut off from the MDS
/// stays one `zlog.grant` span, which ends when the grant lands: none is
/// left open. (Each re-drive used to open a span of its own and leave the
/// one before it open for good.)
#[test]
fn a_grant_redriven_while_the_mds_is_cut_off_keeps_one_span() {
    const N: usize = 4;
    let mut sim = build_with(
        "gspan",
        ZlogClient::with_batching(
            zcfg("gspan"),
            BatchConfig {
                queue_depth: N,
                flush_window: SimDuration::from_millis(1),
            },
        ),
    );
    let first_span = sim.tracer().spans().len();
    sim.network_mut().sever(MDS0, CLIENT_A);
    let fires = sim.metrics().counter("zlog.watchdog_fires");
    let ops = submit_async_appends(&mut sim, N);
    let deadline = sim.now() + SimDuration::from_secs(20);
    let redriven = sim.run_until_pred(deadline, |s| {
        s.metrics().counter("zlog.watchdog_fires") >= fires + 3
    });
    assert!(redriven, "the grant was not re-driven");
    sim.network_mut().heal_all();
    let mut positions = await_positions(&mut sim, &ops, SimDuration::from_secs(30));
    positions.sort_unstable();
    assert_eq!(positions, (0..N as u64).collect::<Vec<_>>());

    let grants: Vec<_> = sim.tracer().spans()[first_span..]
        .iter()
        .filter(|span| span.name == "zlog.grant")
        .collect();
    assert_eq!(grants.len(), 1, "one span per grant: {grants:?}");
    assert!(grants[0].end.is_some(), "the grant's span is still open");
    assert!(
        !grants[0].tags.iter().any(|(key, _)| key == "error"),
        "the grant landed: {:?}",
        grants[0].tags
    );
}

#[test]
fn tail_discovery_skips_abandoned_grants_after_batched_appends() {
    // Occupy position 2 before any append: the first bulk grant [0, 4)
    // will collide there, the batch's stripe group bounces (-17), the
    // member probes the cell, finds it filled and retries under a fresh
    // grant. Tail discovery — both the sequencer probe and a seal-based
    // recovery scan — must account for the regranted range.
    let mut sim = build_with(
        "rlog3",
        ZlogClient::with_batching(
            zcfg("rlog3"),
            BatchConfig {
                queue_depth: 8,
                flush_window: SimDuration::from_millis(1),
            },
        ),
    );
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
        c.fill(ctx, 2)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");

    let positions = drive_async_appends(&mut sim, 4, SimDuration::from_secs(30));
    // All four appends acked at unique positions, none of them the
    // occupied cell.
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4, "duplicate positions: {positions:?}");
    assert!(!sorted.contains(&2), "append landed on a filled cell");
    let max = *sorted.last().unwrap();
    assert!(max >= 4, "collision must force a regrant: {positions:?}");

    // The displaced member probed its cell, found someone else's fill
    // there, and burned a retry.
    assert!(sim.metrics().counter("zlog.write_probes") >= 1);
    assert!(sim.metrics().counter("zlog.retries") >= 1);

    // Sequencer tail covers every grant ever issued...
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(30), |c, ctx| {
        c.check_tail(ctx)
    });
    let AppendResult::Ok(ZlogOut::Tail(seq_tail)) = res else {
        panic!("check_tail failed: {res:?}");
    };
    assert!(
        seq_tail > max,
        "tail {seq_tail} must pass the max ack {max}"
    );

    // ...and a seal-based scan finds the same frontier: max written + 1,
    // with no unreadable cell below it.
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(10), |c, ctx| {
        c.recover(ctx)
    });
    let AppendResult::Ok(ZlogOut::Recovered { tail, .. }) = res else {
        panic!("recovery failed: {res:?}");
    };
    assert_eq!(tail, max + 1, "sealed tail is max written position + 1");
    for pos in 0..tail {
        let out = read(&mut sim, CLIENT_B, pos);
        assert!(
            !matches!(out, ReadOutcome::NotWritten),
            "cell {pos} unreadable below the sealed tail: {out:?}"
        );
    }
}

// ---- ambiguous writes: probe/seal, one case per outcome (DESIGN §13) ----

/// A log whose CLIENT_A records its history into the returned recorder,
/// with a bare RADOS client at RAW.
fn build_probed(log: &str) -> (Sim, Recorder<LogOp, LogRet>) {
    let history = Recorder::new();
    let client = ZlogClient::new(zcfg(log)).with_history(history.clone());
    let mut sim = build_with(log, client);
    sim.add_node(RAW, RadosClient::new(MON));
    sim.run_for(SimDuration::from_millis(100));
    (sim, history)
}

/// The stripe object of `log` that holds `pos`.
fn stripe(log: &str, pos: u64) -> ObjectId {
    ObjectId::new("zlogpool", format!("{log}.{}", pos % 4))
}

/// Writes `payload` at `pos` of `log` from RAW: a one-entry `write_batch`
/// no zlog client knows about.
fn raw_write(sim: &mut Sim, log: &str, pos: u64, payload: &[u8]) {
    let call = Op::Call {
        class: ZLOG_CLASS.into(),
        method: "write_batch".into(),
        input: encode_write_batch(0, &[(pos, payload)]).into(),
    };
    let ev = request(
        sim,
        RAW,
        stripe(log, pos),
        vec![call],
        SimDuration::from_secs(5),
    );
    assert!(ev.result.is_ok(), "{:?}", ev.result);
}

/// Submits `data` on CLIENT_A's pipelined path.
fn submit(sim: &mut Sim, data: &[u8]) -> u64 {
    let data = data.to_vec();
    sim.with_actor::<ZlogClient, _>(CLIENT_A, move |c, ctx| c.append_async(ctx, data))
}

/// Cuts CLIENT_A off every OSD until its RADOS client gives a request up
/// (25 s), then heals.
fn withhold_until_rados_timeout(sim: &mut Sim) {
    for osd in OSDS {
        sim.network_mut().sever(CLIENT_A, osd);
    }
    let timeouts = sim.metrics().counter("zlog.rados_timeouts");
    let deadline = sim.now() + SimDuration::from_secs(30);
    let gave_up = sim.run_until_pred(deadline, |s| {
        s.metrics().counter("zlog.rados_timeouts") > timeouts
    });
    assert!(gave_up, "the write never timed out");
    sim.network_mut().heal_all();
}

/// The positions below the tail that hold `payload`, read by CLIENT_A.
fn positions_holding(sim: &mut Sim, payload: &[u8]) -> Vec<u64> {
    let tail = match run_op(sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.check_tail(ctx)
    }) {
        AppendResult::Ok(ZlogOut::Tail(tail)) => tail,
        other => panic!("check_tail failed: {other:?}"),
    };
    let res = run_op(sim, CLIENT_A, SimDuration::from_secs(5), move |c, ctx| {
        c.read_batch(ctx, (0..tail).collect())
    });
    let AppendResult::Ok(ZlogOut::ReadBatch(entries)) = res else {
        panic!("read_batch failed: {res:?}");
    };
    let held = ReadOutcome::Data(payload.to_vec());
    entries
        .into_iter()
        .filter_map(|(pos, outcome)| (outcome == held).then_some(pos))
        .collect()
}

/// CLIENT_A's history linearizes and the client holds nothing.
fn assert_settled(sim: &Sim, history: &Recorder<LogOp, LogRet>) {
    if let Err(cex) = check_shared_log(&history.operations()) {
        panic!("history not linearizable:\n{cex}");
    }
    assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle());
}

/// The granted cell already holds the append's own bytes, as when a
/// retransmit landed its write and the reply saying so was lost, so
/// `write_batch` answers `EEXIST`. The append claims the cell; it does not
/// write its payload a second time somewhere else.
#[test]
fn an_append_claims_a_cell_holding_its_own_bytes() {
    let (mut sim, history) = build_probed("own");
    raw_write(&mut sim, "own", 0, b"mine");
    let claimed = sim.metrics().counter("zlog.probes_claimed");
    let op = submit(&mut sim, b"mine");
    assert_eq!(
        await_positions(&mut sim, &[op], SimDuration::from_secs(10)),
        [0]
    );
    assert_eq!(sim.metrics().counter("zlog.probes_claimed"), claimed + 1);
    assert_eq!(positions_holding(&mut sim, b"mine"), [0]);
    assert_settled(&sim, &history);
}

/// A foreign payload holds the granted cell: write-once means the append
/// can never land there, so it is acked at a fresh position and the
/// foreign entry stays as it was.
#[test]
fn an_append_bounced_by_a_foreign_entry_moves_on() {
    let (mut sim, history) = build_probed("foreign");
    // The foreign write is an append of the model's, acked at 0.
    let theirs = LogOp::Append {
        data: b"theirs".to_vec(),
    };
    let id = history.invoke(u64::from(RAW.0), sim.now(), theirs);
    raw_write(&mut sim, "foreign", 0, b"theirs");
    history.ok(id, sim.now(), LogRet::Pos(0));
    let probes = sim.metrics().counter("zlog.write_probes");
    let claimed = sim.metrics().counter("zlog.probes_claimed");
    let op = submit(&mut sim, b"mine");
    assert_eq!(
        await_positions(&mut sim, &[op], SimDuration::from_secs(10)),
        [1]
    );
    assert_eq!(sim.metrics().counter("zlog.write_probes"), probes + 1);
    assert_eq!(sim.metrics().counter("zlog.probes_claimed"), claimed);
    assert_eq!(positions_holding(&mut sim, b"theirs"), [0]);
    assert_eq!(positions_holding(&mut sim, b"mine"), [1]);
    assert_settled(&sim, &history);
}

/// The write landed but its reply is withheld past the RADOS deadline: the
/// embedded client gives up with a timeout, and the probe finds the
/// append's own bytes in the cell.
#[test]
fn an_append_whose_reply_was_withheld_claims_its_landed_write() {
    let (mut sim, history) = build_probed("withheld");
    let claimed = sim.metrics().counter("zlog.probes_claimed");
    let op = submit(&mut sim, b"landed");
    // The primary applies the write before it replicates it and answers
    // only once the replica acked: cut the client off the moment it holds
    // the entry.
    let cell = stripe("withheld", 0);
    let deadline = sim.now() + SimDuration::from_secs(5);
    let landed = sim.run_until_pred(deadline, |s| {
        OSDS.iter().any(|&osd| {
            let store = s.actor::<Osd>(osd).store();
            (store.get(&cell)).is_some_and(|o| o.omap.contains_key("e00000000000000000000"))
        })
    });
    assert!(landed, "the write never reached its primary");
    withhold_until_rados_timeout(&mut sim);
    assert_eq!(
        await_positions(&mut sim, &[op], SimDuration::from_secs(10)),
        [0]
    );
    assert_eq!(sim.metrics().counter("zlog.probes_claimed"), claimed + 1);
    assert_eq!(positions_holding(&mut sim, b"landed"), [0]);
    assert_settled(&sim, &history);
}

/// The write reached no OSD: the probe finds a hole, seal-fills it so the
/// write can never land there later, and the append is acked at a fresh
/// position.
#[test]
fn an_append_whose_write_landed_nowhere_seals_its_cell_and_moves_on() {
    let (mut sim, history) = build_probed("nowhere");
    let sealed = sim.metrics().counter("zlog.probes_sealed");
    let op = submit(&mut sim, b"lost");
    withhold_until_rados_timeout(&mut sim);
    assert_eq!(
        await_positions(&mut sim, &[op], SimDuration::from_secs(10)),
        [1]
    );
    assert_eq!(sim.metrics().counter("zlog.probes_sealed"), sealed + 1);
    assert_eq!(read(&mut sim, CLIENT_A, 0), ReadOutcome::Filled);
    assert_eq!(positions_holding(&mut sim, b"lost"), [1]);
    assert_settled(&sim, &history);
}

/// `read(pos)` is a `read_batch` of one: both answer every cell state
/// alike, a position whose stripe object was never created included, and
/// both record reads the history checker accepts.
#[test]
fn a_point_read_answers_what_a_read_batch_of_one_does() {
    let (mut sim, history) = build_probed("point");
    for i in 0..3u64 {
        assert_eq!(append(&mut sim, CLIENT_A, &format!("e{i}")), i);
    }
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.fill(ctx, 5)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
    let res = run_op(&mut sim, CLIENT_A, SimDuration::from_secs(5), |c, ctx| {
        c.trim_to(ctx, 1)
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
    // Nothing touched stripe 3: its object does not exist anywhere.
    let never = stripe("point", 3);
    assert!(OSDS
        .iter()
        .all(|&osd| sim.actor::<Osd>(osd).store().get(&never).is_none()));

    for (pos, want) in [
        (2, ReadOutcome::Data(b"e2".to_vec())),
        (5, ReadOutcome::Filled),
        (0, ReadOutcome::Trimmed),
        // A hole on a stripe object that exists, and one on a stripe
        // object that was never created.
        (6, ReadOutcome::NotWritten),
        (3, ReadOutcome::NotWritten),
    ] {
        assert_eq!(read(&mut sim, CLIENT_A, pos), want, "read({pos})");
        let res = run_op(
            &mut sim,
            CLIENT_A,
            SimDuration::from_secs(5),
            move |c, ctx| c.read_batch(ctx, vec![pos]),
        );
        assert_eq!(
            res,
            AppendResult::Ok(ZlogOut::ReadBatch(vec![(pos, want)])),
            "read_batch([{pos}])"
        );
    }
    assert_settled(&sim, &history);
}

// ---- timer economy: one deadline set per client (DESIGN §27) ----

/// The client's per-op deadline (`OP_DEADLINE`).
const OP_DEADLINE: SimDuration = SimDuration::from_secs(60);

/// An append whose progress is someone else's holds its hard deadline and
/// nothing else, and fails at it to the microsecond: left in the queue by a
/// flush window longer than the deadline, or batched behind a sequencer
/// rank that never answers (the batch spends its own attempts re-driving
/// the grant; its member only waits).
#[test]
fn a_waiting_append_fails_at_its_deadline_exactly() {
    for (log, flush_after_s, rank_answers) in [("dl0", 120, true), ("dl1", 40, false)] {
        let history = Recorder::new();
        let batch = BatchConfig {
            queue_depth: 64,
            flush_window: SimDuration::from_secs(flush_after_s),
        };
        let client = ZlogClient::with_batching(zcfg(log), batch).with_history(history.clone());
        let mut sim = build_with(log, client);
        if !rank_answers {
            sim.network_mut().sever(CLIENT_A, MDS0);
        }
        let timeouts = sim.metrics().counter("zlog.timeouts");
        let fires = sim.metrics().counter("zlog.watchdog_fires");
        let invoked = sim.now();
        let op = sim
            .with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| c.append_async(ctx, b"late".to_vec()));
        let limit = invoked + OP_DEADLINE + SimDuration::from_secs(1);
        let done = sim.run_until_pred(limit, |s| s.actor::<ZlogClient>(CLIENT_A).is_done(op));
        assert!(done, "{log}: still pending a second past its deadline");
        assert_eq!(sim.now(), invoked + OP_DEADLINE, "{log}");
        assert_eq!(
            sim.actor_mut::<ZlogClient>(CLIENT_A).take_result(op),
            Some(AppendResult::Err("op deadline exceeded".into())),
            "{log}"
        );
        assert_eq!(
            sim.metrics().counter("zlog.timeouts"),
            timeouts + 1,
            "{log}"
        );
        // No write went out, so the history knows the append did not apply.
        let ops = history.operations();
        let append = ops.last().expect("the append is in the history");
        match &append.outcome {
            Outcome::Fail { at, reason } => {
                assert_eq!((*at, reason.as_str()), (sim.now(), "op deadline exceeded"));
            }
            other => panic!("{log}: {other:?}"),
        }
        // The append itself woke the client once, at its deadline; the
        // rest is its batch re-driving the grant, a capped backoff apart.
        let fires = sim.metrics().counter("zlog.watchdog_fires") - fires;
        assert!(fires <= 20, "{log}: {fires} watchdog callbacks");
        // The batch finds no live member at its next re-drive and goes.
        sim.run_for(SimDuration::from_secs(4));
        assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle(), "{log}");
    }
}

/// Appends queued behind a rank that does not answer wait; they do not
/// spin. Only their batches come back to the watchdog, a capped backoff
/// apart — each waiting append used to re-arm a 20–30 ms timer of its own,
/// some 120 000 callbacks here.
#[test]
fn appends_behind_a_silent_rank_wait_without_spinning() {
    const N: usize = 1_000;
    let batch = BatchConfig {
        queue_depth: 8,
        flush_window: SimDuration::from_millis(1),
    };
    let mut sim = build_with("quiet", ZlogClient::with_batching(zcfg("quiet"), batch));
    sim.network_mut().sever(CLIENT_A, MDS0);
    let fires = sim.metrics().counter("zlog.watchdog_fires");
    let ops = submit_async_appends(&mut sim, N);
    sim.run_for(SimDuration::from_secs(3));
    let fires = sim.metrics().counter("zlog.watchdog_fires") - fires;
    assert!(
        (1..=N as u64).contains(&fires),
        "{fires} watchdog callbacks for {N} waiting appends"
    );
    assert_eq!(sim.metrics().counter("zlog.timeouts"), 0);

    // The rank answers again: every append completes, at its own position.
    sim.network_mut().heal_all();
    let mut positions = await_positions(&mut sim, &ops, SimDuration::from_secs(30));
    positions.sort_unstable();
    positions.dedup();
    assert_eq!(positions.len(), N, "appends share positions");
    assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle());
}

/// Finished ops and requests leave nothing in the scheduler: its occupancy
/// is messages in flight plus a handful of timers per node, before the
/// work, the moment it completes, and afterwards. Every append and every
/// RADOS request used to park a key of its own for 10–30 ms.
#[test]
fn finished_work_leaves_the_scheduler_as_it_found_it() {
    const N: usize = 1_000;
    const NODES: usize = 8;
    // Periodic timers come and go by one per node; each client's deadline
    // sets keep at most a far and a near timer queued.
    let slack = 2 * NODES;
    let batch = BatchConfig {
        queue_depth: 8,
        flush_window: SimDuration::from_millis(1),
    };
    let mut sim = build_with("tidy", ZlogClient::with_batching(zcfg("tidy"), batch));
    sim.run_for(SimDuration::from_millis(100));
    let before = sim.queue_len();

    // Paced so that the healthy sequencer keeps up.
    let mut ops = Vec::with_capacity(N);
    for i in 0..N {
        ops.push(sim.with_actor::<ZlogClient, _>(CLIENT_A, move |c, ctx| {
            c.append_async(ctx, format!("entry-{i}").into_bytes())
        }));
        sim.run_for(SimDuration::from_micros(200));
    }
    await_positions(&mut sim, &ops, SimDuration::from_secs(10));
    let after_appends = sim.queue_len();
    assert!(
        after_appends <= before + slack,
        "{N} finished appends left {after_appends} keys queued, {before} before them"
    );

    let cursor = sim.with_actor::<ZlogClient, _>(CLIENT_B, |c, ctx| c.tail_cursor(ctx));
    for expect in 0..N as u64 {
        let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
            c.cursor_next_batch(ctx, cursor, 1)
        });
        match res {
            AppendResult::Ok(ZlogOut::CursorBatch(entries)) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, expect);
            }
            other => panic!("cursor read {expect}: {other:?}"),
        }
    }
    let after_reads = sim.queue_len();
    assert!(
        after_reads <= before + slack,
        "{N} finished cursor reads left {after_reads} keys queued, {before} before them"
    );

    sim.run_for(SimDuration::from_millis(100));
    let settled = sim.queue_len();
    assert!(settled.abs_diff(before) <= slack, "{before} → {settled}");
    for node in [CLIENT_A, CLIENT_B] {
        assert!(sim.actor::<ZlogClient>(node).is_idle(), "{node}");
    }
}
