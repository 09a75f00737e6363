//! A promoted standby's seal wakes the appends that waited through it. The
//! standby answers a grant `Recovering` until the seal's stripe calls are
//! out, and holds the grants that reach it during that last round trip; a
//! client parks each `Recovering` op on the log's epoch, and adopting the
//! epoch the seal installs sends it again at once. So an append caught by
//! the crash completes right after the seal, whatever the monitor's timing,
//! and not after the watchdog's capped backoff. A seal that stalls (no
//! `zlog` class to call) answers what it held within one stripe round trip.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};

use mala_consensus::{MonConfig, Monitor};
use mala_mds::types::{MdsError, SeqOp};
use mala_mds::{MdsConfig, MdsMsg};
use mala_rados::{ObjectId, Op, OsdError};
use mala_sim::{Actor, Context, NodeId, SimDuration, SimTime};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{
    zlog_interface_update, AppendResult, BatchConfig, ReadOutcome, ZlogClient, ZlogConfig,
};
use malacology::cluster::{Cluster, ClusterBuilder};

/// How long after the seal an append caught by the crash may complete:
/// a few message hops and a stripe write, nowhere near a watchdog backoff.
const AFTER_SEAL: SimDuration = SimDuration::from_millis(50);

/// How long after the seal the last append that arrived during the outage
/// may complete. The few hundred grants the seal releases at once queue at
/// the MDS (tens of milliseconds of service time); a watchdog backoff
/// runs to two seconds.
const OUTAGE_AFTER_SEAL: SimDuration = SimDuration::from_millis(200);

/// One journalling MDS rank and one standby; the `zlog` class installed
/// or not.
fn cluster(mon: MonConfig, zlog_class: bool) -> Cluster {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(4)
        .mds_ranks(1)
        .standby_mds(1)
        .pool("p", 16, 2)
        .pool("meta", 16, 2)
        .mon_config(mon)
        .mds_config(MdsConfig {
            journal: true,
            journal_sync: true,
            ..MdsConfig::default()
        })
        .build(2017);
    if zlog_class {
        cluster.commit_updates(vec![zlog_interface_update()]);
    }
    cluster
}

fn log_config(cluster: &Cluster) -> ZlogConfig {
    ZlogConfig {
        name: "redrive".into(),
        pool: "p".into(),
        stripe_width: 4,
        mds_nodes: cluster.mds_nodes(),
        home_rank: 0,
        monitor: cluster.mon(),
    }
}

/// Adds `client` and sets the log up through it.
fn add_client(cluster: &mut Cluster, client: ZlogClient) -> NodeId {
    let node = cluster.alloc_node();
    cluster.sim.add_node(node, client);
    cluster.sim.run_for(SimDuration::from_secs(1));
    let res = run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(30),
        |c, ctx| c.setup(ctx),
    );
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    node
}

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.sim.metrics().counter(name)
}

/// When the monitor heard of the first seal after `after`.
fn sealed_at(cluster: &Cluster, after: SimTime) -> SimTime {
    let log = cluster.sim.actor::<Monitor>(cluster.mon()).cluster_log();
    let sealed = log
        .iter()
        .find(|(at, _, line)| *at > after && line.starts_with("sealed log"));
    sealed.map(|(at, _, _)| *at).expect("no seal logged")
}

/// One append of the load: who sent it, when, and what it came back with.
struct Append {
    node: NodeId,
    op: u64,
    data: Vec<u8>,
    sent: SimTime,
    done: Option<(SimTime, u64)>,
}

/// Two batching writers and one tailer on one log; the active MDS crashes
/// a second into the load. Every append in flight at the crash completes
/// within [`AFTER_SEAL`] of the seal, and every one that arrived during
/// the outage within [`OUTAGE_AFTER_SEAL`]; no position is granted twice,
/// and the tailer reads every append's entry at the position it was
/// granted.
fn appends_wake_with_the_seal(mon: MonConfig) {
    let mut cluster = cluster(mon, true);
    let batching =
        |cluster: &Cluster| ZlogClient::with_batching(log_config(cluster), BatchConfig::default());
    let writers = [batching(&cluster), batching(&cluster)].map(|w| add_client(&mut cluster, w));
    let tailer = ZlogClient::new(log_config(&cluster));
    let tailer = add_client(&mut cluster, tailer);
    let cursor = cluster
        .sim
        .with_actor::<ZlogClient, _>(tailer, |c, ctx| c.tail_cursor(ctx));

    let start = cluster.sim.now();
    // A millisecond after a round of appends went out.
    let crash_at = start + SimDuration::from_millis(1001);
    let load_until = start + SimDuration::from_secs(7);
    let end = load_until + SimDuration::from_secs(4);
    let mut crashed = None;
    let mut appends: Vec<Append> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut read: BTreeMap<u64, ReadOutcome> = BTreeMap::new();
    let mut reading = None;
    let mut next_round = start;
    while cluster.sim.now() < end {
        let now = cluster.sim.now();
        if crashed.is_none() && now >= crash_at {
            cluster.sim.crash(cluster.mds_node(0));
            crashed = Some(now);
        }
        if now < load_until && now >= next_round {
            next_round = now + SimDuration::from_millis(10);
            for node in writers {
                let data = format!("{}-{}", node.0, appends.len()).into_bytes();
                let payload = data.clone();
                let op = cluster
                    .sim
                    .with_actor::<ZlogClient, _>(node, |c, ctx| c.append_async(ctx, payload));
                open.push(appends.len());
                appends.push(Append {
                    node,
                    op,
                    data,
                    sent: now,
                    done: None,
                });
            }
        }
        let batch = match reading {
            Some(op) => op,
            None => cluster
                .sim
                .with_actor::<ZlogClient, _>(tailer, |c, ctx| c.cursor_next_batch(ctx, cursor, 64)),
        };
        reading = Some(batch);
        cluster.sim.run_for(SimDuration::from_millis(1));
        if let Some(res) = cluster
            .sim
            .actor_mut::<ZlogClient>(tailer)
            .take_result(batch)
        {
            let AppendResult::Ok(ZlogOut::CursorBatch(entries)) = res else {
                panic!("cursor batch failed: {res:?}");
            };
            for (pos, outcome) in entries {
                assert!(read.insert(pos, outcome).is_none(), "{pos} read twice");
            }
            reading = None;
        }
        let done_at = cluster.sim.now();
        open.retain(|&i| {
            let append = &mut appends[i];
            let client = cluster.sim.actor_mut::<ZlogClient>(append.node);
            match client.take_result(append.op) {
                None => true,
                Some(AppendResult::Ok(ZlogOut::Pos(pos))) => {
                    append.done = Some((done_at, pos));
                    false
                }
                Some(other) => panic!("append failed: {other:?}"),
            }
        });
    }

    let crashed = crashed.unwrap();
    assert_eq!(counter(&cluster, "mds.takeovers"), 1);
    assert_eq!(counter(&cluster, "mds.seq_seals"), 1);
    assert!(open.is_empty(), "{} appends never completed", open.len());
    let sealed = sealed_at(&cluster, crashed);
    let caught = appends
        .iter()
        .filter(|a| a.sent < crashed && a.done.is_some_and(|(at, _)| at > crashed));
    assert!(caught.count() > 0, "no append in flight at the crash");
    for append in appends.iter().filter(|a| a.sent < sealed) {
        let (done, pos) = append.done.unwrap();
        let bound = if append.sent < crashed {
            AFTER_SEAL
        } else {
            OUTAGE_AFTER_SEAL
        };
        assert!(
            done <= sealed + bound,
            "append sent at {} done at {done} (pos {pos}), seal at {sealed}",
            append.sent
        );
    }
    let mut granted: HashMap<u64, &[u8]> = HashMap::new();
    for append in &appends {
        let (_, pos) = append.done.unwrap();
        assert!(
            granted.insert(pos, &append.data).is_none(),
            "position {pos} granted twice"
        );
    }
    for (pos, data) in granted {
        match read.get(&pos) {
            Some(ReadOutcome::Data(read)) => assert_eq!(read, data, "entry at {pos}"),
            other => panic!("tailer read {other:?} at granted position {pos}"),
        }
    }
    assert!(counter(&cluster, "zlog.recovering_parks") > 0);
}

#[test]
fn appends_caught_by_a_crash_complete_with_the_seal() {
    appends_wake_with_the_seal(MonConfig::default());
}

/// The same bound, relative to the seal, with a monitor four times as
/// quick to propose and twice as quick to give up on a silent MDS.
#[test]
fn appends_caught_by_a_crash_complete_with_the_seal_under_a_quick_monitor() {
    appends_wake_with_the_seal(MonConfig {
        proposal_interval: SimDuration::from_millis(250),
        mds_beacon_grace: SimDuration::from_millis(500),
        ..MonConfig::default()
    });
}

/// A client that sends sequencer verbs and keeps each answer with the time
/// it came.
#[derive(Default)]
struct Probe {
    answers: HashMap<u64, (SimTime, Result<u64, MdsError>)>,
}

impl Actor for Probe {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        if let Ok(msg) = msg.downcast::<MdsMsg>() {
            if let MdsMsg::TypeOpReply { reqid, result, .. } = *msg {
                self.answers.insert(reqid, (ctx.now(), result));
            }
        }
    }
}

/// With no `zlog` class installed, the promoted standby's stripe calls
/// fail and its seal stalls, retried every half second. A grant held
/// while a retry's calls are out is answered `Recovering` once they fail:
/// within one stripe round trip and a client hop, not at the next retry.
#[test]
fn a_stalled_seal_answers_what_it_held_within_a_round_trip() {
    let mut cluster = cluster(MonConfig::default(), false);
    let writer = ZlogClient::new(log_config(&cluster));
    let writer = add_client(&mut cluster, writer);
    let ino = cluster.sim.actor::<ZlogClient>(writer).seq_ino().unwrap();
    cluster.sim.run_for(SimDuration::from_secs(2));
    cluster.sim.crash(cluster.mds_node(0));
    cluster.sim.run_for(SimDuration::from_secs(6));
    assert_eq!(counter(&cluster, "mds.takeovers"), 1);
    assert!(counter(&cluster, "mds.seal_call_errors") > 0, "no stall");
    assert_eq!(counter(&cluster, "mds.seq_seals"), 0);

    // What one stripe call costs a client of the store.
    let before = cluster.sim.now();
    let stripe = ObjectId::new("p", "redrive.0");
    let call = Op::Call {
        class: "zlog".into(),
        method: "maxpos".into(),
        input: Vec::new().into(),
    };
    let res = cluster.rados(stripe, vec![call]);
    assert!(matches!(res, Err(OsdError::NoClass(_))), "{res:?}");
    let stripe_trip = cluster.sim.now().since(before);

    let probe = cluster.alloc_node();
    cluster.sim.add_node(probe, Probe::default());
    let standby = cluster.standby_node(0);
    let mut sent = HashMap::new();
    let mut held = None;
    for reqid in 1..=10_000u64 {
        let op = SeqOp::NextBatch(1);
        let msg = MdsMsg::TypeOp { reqid, ino, op };
        cluster
            .sim
            .with_actor::<Probe, _>(probe, |_, ctx| ctx.send(standby, msg));
        sent.insert(reqid, cluster.sim.now());
        let holds = counter(&cluster, "mds.seal_held");
        cluster.sim.run_for(SimDuration::from_micros(100));
        if counter(&cluster, "mds.seal_held") > holds {
            held = Some(reqid);
            break;
        }
    }
    let held = held.expect("no grant reached a retry's stripe calls");
    cluster.sim.run_for(SimDuration::from_millis(100));
    let answers = &cluster.sim.actor::<Probe>(probe).answers;
    assert!(answers
        .values()
        .all(|(_, r)| *r == Err(MdsError::Recovering)));
    let (at, _) = answers[&held];
    let waited = at.since(sent[&held]);
    let hop = SimDuration::from_micros(400);
    assert!(
        waited <= stripe_trip + hop,
        "held grant answered after {waited}, a stripe call takes {stripe_trip}"
    );
}
