//! Routing under sequencer migration: clients follow `NotAuth`
//! redirects across MDS ranks, park cleanly on unroutable ranks, and
//! never lose or duplicate a position while the sequencer moves —
//! WGL-checked. Also the regression tests for the ISSUE 10 routing-bug
//! sweep: the stale-`Changed` re-fetch herd and the stale-route stall.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use mala_consensus::{MonConfig, MonMsg, Monitor, SERVICE_MAP_MDS};
use mala_mds::server::Mds;
use mala_mds::{FileType, MdsConfig, MdsMapView, MdsMsg, NoBalancer, ServeStyle};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::history::Recorder;
use mala_sim::linearize::{check_shared_log, LogOp, LogRet};
use mala_sim::{Actor, Context, NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{
    zlog_interface_update, AppendResult, SeqMode, SeqWorkload, ZlogClient, ZlogConfig,
};
use proptest::prelude::*;

const MON: NodeId = NodeId(0);
const MDS0: NodeId = NodeId(20);
const MDS1: NodeId = NodeId(21);
const MDS2: NodeId = NodeId(22);
const CLIENT_A: NodeId = NodeId(100);
const CLIENT_B: NodeId = NodeId(101);

/// Client config that only knows rank 0 statically: reaching any other
/// rank requires the live mdsmap, so these tests exercise snapshot
/// adoption for real.
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

/// Monitor + 4 OSDs + `ranks` MDS ranks + two round-trip clients, with
/// `/zlog/<log>` created.
fn build(log: &str, ranks: u32, seed: u64) -> Sim {
    assert!((1..=3).contains(&ranks));
    let mut sim = Sim::new(seed);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..4u32 {
        sim.add_node(NodeId(10 + i), Osd::new(i, MON, OsdConfig::default()));
    }
    let mds_nodes = [MDS0, MDS1, MDS2];
    for r in 0..ranks {
        sim.add_node(
            mds_nodes[r as usize],
            Mds::new(r, MON, MdsConfig::default(), Box::new(NoBalancer)),
        );
    }
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
        zlog_interface_update(),
    ];
    for r in 0..ranks {
        updates.push(MdsMapView::update_rank(r, mds_nodes[r as usize], true));
    }
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
    // Client B resolves the same inode (and needs its own view).
    let res = run_op(&mut sim, CLIENT_B, SimDuration::from_secs(5), |c, ctx| {
        c.setup(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    sim
}

/// How a test issues an append: the routing regressions run once per
/// path, since a batch's grant goes through the same redirect, park and
/// re-drive code as a single op's.
type Submit = fn(&mut ZlogClient, &mut Context<'_>, Vec<u8>) -> u64;

/// The single-op path, and the pipelined one (a batch of one once the
/// flush window elapses).
const PATHS: [(&str, Submit); 2] = [
    ("append", ZlogClient::append),
    ("append_async", ZlogClient::append_async),
];

fn append_via(sim: &mut Sim, node: NodeId, submit: Submit, data: &str) -> u64 {
    let data = data.as_bytes().to_vec();
    match run_op(sim, node, SimDuration::from_secs(10), move |c, ctx| {
        submit(c, ctx, data)
    }) {
        AppendResult::Ok(ZlogOut::Pos(p)) => p,
        other => panic!("append failed: {other:?}"),
    }
}

fn append(sim: &mut Sim, node: NodeId, data: &str) -> u64 {
    append_via(sim, node, ZlogClient::append, data)
}

fn export(sim: &mut Sim, node: NodeId, target: u32) {
    let ino = sim
        .actor::<ZlogClient>(node)
        .seq_ino()
        .expect("sequencer resolved");
    sim.inject(
        MDS0,
        MdsMsg::AdminExport {
            ino,
            target,
            style: ServeStyle::Direct,
        },
    );
}

/// Tentpole regression: after an export, the next grant bounces with
/// `NotAuth`, the client learns the placement, and every later append
/// goes straight to the new rank — no per-op redirect tax.
#[test]
fn appends_follow_sequencer_exports_via_redirects() {
    for (path, submit) in PATHS {
        let mut sim = build("mig0", 2, 23);
        assert_eq!(append_via(&mut sim, CLIENT_A, submit, "pre"), 0, "{path}");
        export(&mut sim, CLIENT_A, 1);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(append_via(&mut sim, CLIENT_A, submit, "post"), 1, "{path}");
        let redirects = sim.metrics().counter("zlog.redirects");
        assert!(
            redirects >= 1,
            "{path}: export must redirect the stale client"
        );
        assert_eq!(
            sim.actor::<ZlogClient>(CLIENT_A)
                .router()
                .rank_of(sim.actor::<ZlogClient>(CLIENT_A).seq_ino().unwrap()),
            1,
            "{path}: placement learned from the redirect"
        );
        // Steady state: later appends hit the new rank directly.
        for i in 2..6u64 {
            let pos = append_via(&mut sim, CLIENT_A, submit, &format!("e{i}"));
            assert_eq!(pos, i, "{path}");
        }
        assert_eq!(
            sim.metrics().counter("zlog.redirects"),
            redirects,
            "{path}: no redirect tax once the placement is cached"
        );
        assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle(), "{path}");
    }
}

/// Satellite 1 regression: a `Changed` notification at (or below) the
/// cached mdsmap epoch must not trigger a full-map `Get` — that is the
/// re-fetch thundering herd. Only a genuinely newer epoch fetches.
#[test]
fn stale_mdsmap_changed_skips_full_map_fetch() {
    let mut sim = build("mig1", 2, 23);
    append(&mut sim, CLIENT_A, "x");
    let epoch = sim.actor::<ZlogClient>(CLIENT_A).router().mdsmap().epoch;
    assert!(epoch > 0, "client adopted the bootstrap mdsmap");
    let fetches = sim.metrics().counter("zlog.mdsmap_refetches");
    let skips = sim.metrics().counter("zlog.mdsmap_refetch_skips");
    // A duplicate notification for the epoch the client already holds.
    sim.inject(
        CLIENT_A,
        MonMsg::Changed {
            map: SERVICE_MAP_MDS.to_string(),
            epoch,
            delta: Vec::new(),
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(
        sim.metrics().counter("zlog.mdsmap_refetches"),
        fetches,
        "stale Changed must not re-fetch the full map"
    );
    assert_eq!(
        sim.metrics().counter("zlog.mdsmap_refetch_skips"),
        skips + 1
    );
    // A newer epoch still fetches.
    sim.inject(
        CLIENT_A,
        MonMsg::Changed {
            map: SERVICE_MAP_MDS.to_string(),
            epoch: epoch + 1,
            delta: Vec::new(),
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(
        sim.metrics().counter("zlog.mdsmap_refetches"),
        fetches + 1,
        "newer Changed fetches exactly once"
    );
}

/// Satellite 2 regression: an op whose learned rank becomes unroutable
/// parks instead of spinning, and is re-driven as soon as a usable
/// mdsmap is adopted — mirroring the osdmap `retry_blocked` path.
#[test]
fn blocked_ops_redrive_when_mdsmap_recovers() {
    for (path, submit) in PATHS {
        let mut sim = build("mig2", 2, 23);
        append_via(&mut sim, CLIENT_A, submit, "pre");
        export(&mut sim, CLIENT_A, 1);
        sim.run_for(SimDuration::from_secs(1));
        // Placement is now rank 1. Take rank 1 down in the map; the client
        // only knows rank 0 statically, so rank 1 becomes unroutable.
        append_via(&mut sim, CLIENT_A, submit, "learn");
        sim.inject(
            MON,
            MonMsg::Submit {
                seq: 2,
                updates: vec![MdsMapView::update_rank(1, MDS1, false)],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        let op =
            sim.with_actor::<ZlogClient, _>(CLIENT_A, |c, ctx| submit(c, ctx, b"stalled".to_vec()));
        sim.run_for(SimDuration::from_millis(300));
        assert!(
            !sim.actor::<ZlogClient>(CLIENT_A).is_done(op),
            "{path}: append cannot finish while its rank is unroutable"
        );
        assert!(
            sim.metrics().counter("zlog.mds_unroutable") >= 1,
            "{path}: the op must park, not spin"
        );
        // The rank returns: adoption of the new map re-drives parked ops.
        sim.inject(
            MON,
            MonMsg::Submit {
                seq: 3,
                updates: vec![MdsMapView::update_rank(1, MDS1, true)],
            },
        );
        let deadline = sim.now() + SimDuration::from_secs(10);
        let done = sim.run_until_pred(deadline, |s| s.actor::<ZlogClient>(CLIENT_A).is_done(op));
        assert!(
            done,
            "{path}: parked append must resume after mdsmap adoption"
        );
        let res = sim.actor_mut::<ZlogClient>(CLIENT_A).take_result(op);
        assert!(
            matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(2)))),
            "{path}: {res:?}"
        );
        assert!(
            sim.metrics().counter("zlog.mdsmap_redrives") >= 1,
            "{path}: re-drive must come from map adoption, not watchdog luck"
        );
        assert!(sim.actor::<ZlogClient>(CLIENT_A).is_idle(), "{path}");
    }
}

/// Drives `rounds` rounds of two concurrent appends (one per client)
/// while `exports` moves the sequencer between ranks mid-stream, at the
/// same instant a round starts. Returns the WGL-checked positions.
fn migration_storm(log: &str, seed: u64, rounds: u64, exports: &[(u64, u32)]) -> Vec<u64> {
    let mut sim = build(log, 3, seed);
    let recorder: Recorder<LogOp, LogRet> = Recorder::new();
    let mut positions = Vec::new();
    for round in 0..rounds {
        for &(at, target) in exports {
            if at == round {
                export(&mut sim, CLIENT_A, target);
            }
        }
        let mut ids = Vec::new();
        for (cid, node) in [(0u64, CLIENT_A), (1u64, CLIENT_B)] {
            let data = format!("r{round}c{cid}").into_bytes();
            let hid = recorder.invoke(cid, sim.now(), LogOp::Append { data: data.clone() });
            let op = sim.with_actor::<ZlogClient, _>(node, move |c, ctx| c.append(ctx, data));
            ids.push((node, op, hid));
        }
        let deadline = sim.now() + SimDuration::from_secs(30);
        let done = sim.run_until_pred(deadline, |s| {
            ids.iter()
                .all(|&(node, op, _)| s.actor::<ZlogClient>(node).is_done(op))
        });
        assert!(done, "round {round} appends timed out mid-migration");
        for (node, op, hid) in ids {
            match sim.actor_mut::<ZlogClient>(node).take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Pos(p))) => {
                    recorder.ok(hid, sim.now(), LogRet::Pos(p));
                    positions.push(p);
                }
                other => panic!("round {round} append failed: {other:?}"),
            }
        }
    }
    // No lost or duplicated positions: dense from zero.
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        (0..rounds * 2).collect::<Vec<u64>>(),
        "positions lost or duplicated across migrations: {positions:?}"
    );
    // And the full history linearizes against the shared-log model.
    let ops = recorder.operations();
    if let Err(cex) = check_shared_log(&ops) {
        panic!("history not linearizable under migration: {cex:?}");
    }
    positions
}

/// Satellite 4 fixed-seed smoke: the sequencer is exported twice while
/// two clients stream appends; both re-resolve without lost or
/// duplicated positions.
#[test]
fn migration_storm_smoke() {
    migration_storm("mig3", 23, 8, &[(2, 1), (5, 2)]);
}

/// A round-trip sequencer client whose granted positions are tapped off
/// the wire, before the client decides whether it still waits for them.
struct Tapped {
    client: SeqWorkload,
    granted: Rc<RefCell<Vec<u64>>>,
}

impl Actor for Tapped {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        if let Some(MdsMsg::TypeOpReply {
            result: Ok(pos), ..
        }) = msg.downcast_ref::<MdsMsg>()
        {
            self.granted.borrow_mut().push(*pos);
        }
        self.client.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.client.on_timer(ctx, token);
    }
}

/// Eight round-trip clients draw positions through home rank 0 while the
/// sequencer moves in proxy style every 20 ms — re-exports from a rank
/// that is not the home included (1→2, 2→1), where the home keeps
/// forwarding to the exporter until the new route reaches it. Returns
/// every position granted, sorted, and the authority's tail at the end.
fn export_storm(seed: u64) -> (Vec<u64>, u64) {
    let ranks = [(0, MDS0), (1, MDS1), (2, MDS2)];
    let mds_nodes = HashMap::from(ranks);
    let mut sim = Sim::new(seed);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    let mut updates = Vec::new();
    for (rank, node) in ranks {
        let mds = Mds::new(rank, MON, MdsConfig::default(), Box::new(NoBalancer));
        sim.add_node(node, mds);
        updates.push(MdsMapView::update_rank(rank, node, true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    let (parent_path, name) = ("/".to_string(), "storm".to_string());
    let ftype = FileType::Sequencer;
    let create = MdsMsg::Create {
        reqid: 1,
        parent_path,
        name,
        ftype,
    };
    sim.inject(MDS0, create);
    sim.run_for(SimDuration::from_millis(100));
    let ino = sim.actor::<Mds>(MDS0).namespace().resolve("/storm");
    let ino = ino.expect("sequencer created");
    let granted = Rc::new(RefCell::new(Vec::new()));
    let clients: Vec<NodeId> = (0..8).map(|i| NodeId(100 + i)).collect();
    for &node in &clients {
        let client = SeqWorkload::new(mds_nodes.clone(), 0, ino, SeqMode::RoundTrip, "storm");
        let granted = Rc::clone(&granted);
        sim.add_node(node, Tapped { client, granted });
        sim.with_actor::<Tapped, _>(node, |t, ctx| t.client.start(ctx));
    }
    for (from, target) in [(0, 1), (1, 2), (2, 1), (1, 0), (0, 2), (2, 0)] {
        sim.run_for(SimDuration::from_millis(20));
        let style = ServeStyle::Proxy;
        sim.inject(mds_nodes[&from], MdsMsg::AdminExport { ino, target, style });
    }
    sim.run_for(SimDuration::from_millis(20));
    for &node in &clients {
        sim.with_actor::<Tapped, _>(node, |t, ctx| t.client.stop(ctx));
    }
    sim.run_for(SimDuration::from_millis(100));
    let auth = sim.actor::<Mds>(MDS0).auth_of(ino);
    let authority = sim.actor::<Mds>(mds_nodes[&auth]).namespace().get(ino);
    let tail = authority.expect("sequencer at its authority").embedded;
    let mut granted = granted.take();
    granted.sort_unstable();
    (granted, tail)
}

/// No position is granted twice and none below the tail is skipped while
/// the sequencer is exported back and forth under load, over 64 seeds.
#[test]
fn an_export_storm_grants_each_position_once() {
    for seed in 0..64 {
        let (granted, tail) = export_storm(seed);
        assert!(
            tail > 100,
            "seed {seed}: the storm granted only {tail} positions"
        );
        let twice: Vec<&u64> = granted
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| &w[0])
            .collect();
        assert!(twice.is_empty(), "seed {seed}: granted twice: {twice:?}");
        assert_eq!(
            granted,
            (0..tail).collect::<Vec<u64>>(),
            "seed {seed}: holes below {tail}"
        );
    }
}

// Random export schedules (times, targets, rank ping-pong included)
// never lose or duplicate a position.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn migration_never_loses_positions(
        seed in 1u64..1024,
        t1 in 0u64..5,
        t2 in 0u64..5,
        r1 in 1u32..3,
        r2 in 0u32..3,
    ) {
        let log = format!("mig-p{seed}-{t1}-{t2}-{r1}-{r2}");
        migration_storm(&log, seed, 5, &[(t1, r1), (t2, r2)]);
    }
}
