//! The client's reply-route bookkeeping seen from inside (DESIGN §23):
//! what an op holds while it is re-driven, what forgetting one op touches,
//! and that drained work leaves nothing behind.

use std::collections::HashMap;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, MdsMapView, NoBalancer};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{NodeId, Sim, SimDuration};

use super::*;
use crate::storage::zlog_interface_update;

const MON: NodeId = NodeId(0);
const OSDS: [NodeId; 4] = [NodeId(10), NodeId(11), NodeId(12), NodeId(13)];
const MDS0: NodeId = NodeId(20);
const CLIENT: NodeId = NodeId(100);

/// Monitor, four OSDs, one MDS and a client of `log` (stripe width 4)
/// with the log set up.
fn build(log: &str) -> Sim {
    let mut sim = Sim::new(29);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for (i, osd) in (0..).zip(OSDS) {
        sim.add_node(osd, Osd::new(i, MON, OsdConfig::default()));
    }
    sim.add_node(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    let config = ZlogConfig {
        name: log.to_string(),
        pool: "zlogpool".to_string(),
        stripe_width: 4,
        mds_nodes: HashMap::from([(0, MDS0)]),
        home_rank: 0,
        monitor: MON,
    };
    sim.add_node(CLIENT, ZlogClient::new(config));
    let pool = PoolInfo {
        pg_num: 32,
        replicas: 2,
    };
    let mut updates = vec![
        OsdMapView::update_pool("zlogpool", pool),
        MdsMapView::update_rank(0, MDS0, true),
        zlog_interface_update(),
    ];
    for (i, osd) in (0..).zip(OSDS) {
        updates.push(OsdMapView::update_osd(i, osd, true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    let res = run_op(&mut sim, CLIENT, SimDuration::from_secs(5), |c, ctx| {
        c.setup(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    sim
}

fn client(sim: &Sim) -> &ZlogClient {
    sim.actor::<ZlogClient>(CLIENT)
}

fn held(sim: &Sim, op: u64) -> Vec<Route> {
    let pending = client(sim).ops.get(op).expect("op is pending");
    pending.held.iter().collect()
}

/// Runs until every op in `ops` completed, then checks the client holds
/// nothing.
fn drain(sim: &mut Sim, ops: &[u64]) {
    let deadline = sim.now() + SimDuration::from_secs(30);
    let done = sim.run_until_pred(deadline, |s| ops.iter().all(|op| client(s).is_done(*op)));
    assert!(done, "the work never drained");
    for op in ops {
        let res = sim.actor_mut::<ZlogClient>(CLIENT).take_result(*op);
        assert!(matches!(res, Some(AppendResult::Ok(_))), "op {op}: {res:?}");
    }
    assert_eq!(client(sim).check_routes(), Ok(()));
    assert!(client(sim).is_idle());
}

/// Every watchdog re-drive of a batch whose grant goes unanswered drops
/// the previous grant's route and registers one for the new request: after
/// K re-drives the batch holds one MDS route, the newest, and its member
/// holds none.
#[test]
fn a_batch_redriven_behind_a_silent_sequencer_holds_one_grant_route() {
    const REDRIVES: u32 = 8;
    let mut sim = build("silent");
    sim.network_mut().sever(CLIENT, MDS0);
    let op = sim.with_actor::<ZlogClient, _>(CLIENT, |c, ctx| c.append(ctx, b"stuck".to_vec()));
    let Some(&Stage::InBatch { batch }) = client(&sim).ops.get(op).map(|p| &p.stage) else {
        panic!("an append goes out as a batch of one");
    };
    // Each watchdog re-drive of the batch charges it an attempt.
    let deadline = sim.now() + SimDuration::from_secs(30);
    let redriven = sim.run_until_pred(deadline, |s| client(s).ops.attempts(batch) == REDRIVES);
    assert!(redriven, "the batch was not re-driven {REDRIVES} times");

    let c = client(&sim);
    let stage = c.ops.get(op).map(|p| &p.stage);
    assert!(matches!(stage, Some(&Stage::InBatch { batch: b }) if b == batch));
    assert_eq!(held(&sim, batch), [Route::Mds(c.next_seq - 1)]);
    assert!(held(&sim, op).is_empty());
    assert_eq!((c.mds_waiting.len(), c.rados.waiters().count()), (1, 0));
    assert_eq!(c.check_routes(), Ok(()));

    sim.network_mut().heal_all();
    drain(&mut sim, &[op]);
}

/// Forgetting op A cancels A's RADOS requests, in ascending reqid order,
/// and drops A's routes; op B keeps its routes and its requests, which
/// complete it once the OSDs answer again. A four-stripe read holds four
/// routes, more than fit inline.
#[test]
fn forgetting_one_op_leaves_the_others_routes_in_flight() {
    let mut sim = build("forget");
    for osd in OSDS {
        sim.network_mut().sever(CLIENT, osd);
    }
    // Every span that ends after lasting at all lands in the slow log, in
    // the order it ended.
    sim.tracer_mut().set_slow_threshold(Some(SimDuration::ZERO));
    let first_span = sim.tracer().spans().len();
    let a = sim.with_actor::<ZlogClient, _>(CLIENT, |c, ctx| c.read_batch(ctx, (0..4).collect()));
    let b = sim.with_actor::<ZlogClient, _>(CLIENT, |c, ctx| c.read_batch(ctx, (4..8).collect()));
    sim.run_for(SimDuration::from_millis(1));

    let (a_routes, b_routes) = (held(&sim, a), held(&sim, b));
    let reqids = |routes: &[Route]| -> Vec<u64> {
        routes
            .iter()
            .map(|route| match route {
                Route::Rados(reqid) => *reqid,
                other => panic!("a read holds {other:?}"),
            })
            .collect()
    };
    let (a_reqids, b_reqids) = (reqids(&a_routes), reqids(&b_routes));
    assert_eq!(a_reqids.len(), 4);
    assert!(a_reqids.windows(2).all(|w| w[0] < w[1]), "{a_reqids:?}");
    assert!(a_reqids.last() < b_reqids.first());
    // The RADOS client opened one `rados.op` span per request, in reqid
    // order: A's four, then B's.
    let rados_spans: Vec<u64> = sim.tracer().spans()[first_span..]
        .iter()
        .filter(|span| span.name == "rados.op")
        .map(|span| span.id.0)
        .collect();
    let (a_spans, b_spans) = rados_spans.split_at(4);

    let cancelled = sim.metrics().counter("client.cancelled");
    let slow = sim.tracer().slow_ops().len();
    sim.with_actor::<ZlogClient, _>(CLIENT, |c, ctx| {
        let held = std::mem::take(&mut c.ops.get_mut(a).expect("A is pending").held);
        c.forget_requests(ctx, &held);
    });

    assert_eq!(sim.metrics().counter("client.cancelled"), cancelled + 4);
    let ended: Vec<u64> = sim.tracer().slow_ops()[slow..]
        .iter()
        .map(|line| {
            let id = line.split("span=").nth(1).and_then(|s| s.split(' ').next());
            id.and_then(|id| id.parse().ok())
                .expect("a slow-op line names its span")
        })
        .collect();
    assert_eq!(ended, a_spans, "A's requests end in reqid order");
    let c = client(&sim);
    for reqid in &a_reqids {
        assert_eq!(c.rados.waiter(*reqid), None);
    }
    assert_eq!(held(&sim, b), b_routes);
    for reqid in &b_reqids {
        assert_eq!(c.rados.waiter(*reqid), Some(&b));
    }
    for &id in b_spans {
        let span = sim.tracer().span(mala_sim::SpanId(id)).expect("B's span");
        assert_eq!(span.end, None, "B's request {id} is still in flight");
    }
    assert_eq!(c.check_routes(), Ok(()));

    // A, left holding nothing, is re-driven by its watchdog; B completes
    // on the requests it has out.
    sim.network_mut().heal_all();
    drain(&mut sim, &[a, b]);
    assert_eq!(sim.metrics().counter("client.cancelled"), cancelled + 4);
}
