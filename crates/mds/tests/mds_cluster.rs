//! Integration tests for the MDS cluster: namespace operations, the
//! capability protocol under the three sharing policies, migration in both
//! serving modes, and journal-based recovery through RADOS.

use std::any::Any;
use std::collections::HashMap;

use mala_consensus::{MapUpdate, MonConfig, MonMsg, Monitor, SERVICE_MAP_INTERFACES};
use mala_mds::server::{Mds, MdsPeer};
use mala_mds::types::{CapPolicyConfig, SeqOp};
use mala_mds::{
    CephFsBalancer, CephFsMode, FileType, MdsConfig, MdsMapView, MdsMsg, NoBalancer, ServeStyle,
};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{Actor, Context, NodeId, Sim, SimDuration, SimTime};

const MON: NodeId = NodeId(0);

fn mds_node(rank: u32) -> NodeId {
    NodeId(20 + rank)
}

fn client_node(i: u32) -> NodeId {
    NodeId(100 + i)
}

/// A scripted test client collecting every MDS reply; also plays the
/// capability game (acquire → local ops → release).
#[derive(Default)]
struct TestClient {
    target: Option<NodeId>,
    resolved: HashMap<u64, Result<(u64, u32), mala_mds::types::MdsError>>,
    created: HashMap<u64, Result<u64, mala_mds::types::MdsError>>,
    typeops: HashMap<u64, (Result<u64, mala_mds::types::MdsError>, u32)>,
    /// Seal answers: reqid → (epoch, tail).
    sealed: HashMap<u64, (u64, u64)>,
    grants: Vec<(SimTime, u64, u64)>,
    recalls: Vec<(SimTime, u64)>,
    /// While holding a cap: (ino, local tail).
    holding: Option<(u64, u64)>,
}

impl Actor for TestClient {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let Ok(msg) = msg.downcast::<MdsMsg>() else {
            return;
        };
        match *msg {
            MdsMsg::Resolved { reqid, result } => {
                self.resolved.insert(reqid, result);
            }
            MdsMsg::Created { reqid, result } => {
                self.created.insert(reqid, result);
            }
            MdsMsg::TypeOpReply {
                reqid,
                result,
                served_by,
            } => {
                self.typeops.insert(reqid, (result, served_by));
            }
            MdsMsg::Sealed { reqid, epoch, tail } => {
                self.sealed.insert(reqid, (epoch, tail));
            }
            MdsMsg::CapGrant { ino, state, .. } => {
                self.grants.push((ctx.now(), ino, state));
                self.holding = Some((ino, state));
            }
            MdsMsg::CapRecall { ino } => {
                self.recalls.push((ctx.now(), ino));
                if let Some((held, tail)) = self.holding.take() {
                    assert_eq!(held, ino);
                    ctx.send(from, MdsMsg::CapRelease { ino, state: tail });
                }
            }
            _ => {}
        }
    }
}

fn build(ranks: u32) -> Sim {
    let mut sim = Sim::new(5);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for rank in 0..ranks {
        sim.add_node(
            mds_node(rank),
            Mds::new(rank, MON, MdsConfig::default(), Box::new(NoBalancer)),
        );
    }
    for i in 0..4 {
        sim.add_node(client_node(i), TestClient::default());
    }
    let updates = (0..ranks)
        .map(|r| MdsMapView::update_rank(r, mds_node(r), true))
        .collect();
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    sim
}

fn send_from(sim: &mut Sim, client: NodeId, to: NodeId, msg: MdsMsg) {
    sim.with_actor::<TestClient, _>(client, |c, ctx| {
        c.target = Some(to);
        ctx.send(to, msg);
    });
}

fn create(
    sim: &mut Sim,
    client: NodeId,
    reqid: u64,
    parent: &str,
    name: &str,
    ftype: FileType,
) -> u64 {
    send_from(
        sim,
        client,
        mds_node(0),
        MdsMsg::Create {
            reqid,
            parent_path: parent.to_string(),
            name: name.to_string(),
            ftype,
        },
    );
    sim.run_for(SimDuration::from_millis(50));
    sim.actor::<TestClient>(client)
        .created
        .get(&reqid)
        .cloned()
        .unwrap_or_else(|| panic!("create {reqid} never completed"))
        .unwrap()
}

#[test]
fn create_and_resolve_through_wire() {
    let mut sim = build(1);
    let dir = create(&mut sim, client_node(0), 1, "/", "logs", FileType::Dir);
    let seq = create(
        &mut sim,
        client_node(0),
        2,
        "/logs",
        "seq0",
        FileType::Sequencer,
    );
    assert!(seq > dir);
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::Resolve {
            reqid: 3,
            path: "/logs/seq0".into(),
        },
    );
    sim.run_for(SimDuration::from_millis(50));
    let client = sim.actor::<TestClient>(client_node(0));
    assert_eq!(client.resolved[&3], Ok((seq, 0)));
}

#[test]
fn sequencer_type_ops_are_strictly_increasing() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    for reqid in 10..20 {
        send_from(
            &mut sim,
            client_node(0),
            mds_node(0),
            MdsMsg::TypeOp {
                reqid,
                ino: seq,
                op: SeqOp::Next,
            },
        );
    }
    sim.run_for(SimDuration::from_millis(100));
    let client = sim.actor::<TestClient>(client_node(0));
    // Network jitter may reorder concurrent requests in flight; the
    // sequencer guarantee is uniqueness and density, not arrival order.
    let mut values: Vec<u64> = (10..20)
        .map(|r| client.typeops[&r].0.clone().unwrap())
        .collect();
    values.sort_unstable();
    assert_eq!(values, (0..10).collect::<Vec<u64>>());
}

#[test]
fn sequencer_bulk_grants_reserve_disjoint_ranges() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    // Interleave bulk grants with singles: every grant owns a disjoint
    // range, and the tail advances past the whole range at once.
    for (reqid, n) in [(10u64, 8u64), (11, 1), (12, 4)] {
        send_from(
            &mut sim,
            client_node(0),
            mds_node(0),
            MdsMsg::get_pos_batch(reqid, seq, n),
        );
        sim.run_for(SimDuration::from_millis(50));
    }
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::TypeOp {
            reqid: 13,
            ino: seq,
            op: SeqOp::Read,
        },
    );
    // A zero-width grant is a type error, not a stall.
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::get_pos_batch(14, seq, 0),
    );
    sim.run_for(SimDuration::from_millis(100));
    let client = sim.actor::<TestClient>(client_node(0));
    let firsts: Vec<u64> = (10..13)
        .map(|r| client.typeops[&r].0.clone().unwrap())
        .collect();
    assert_eq!(firsts, vec![0, 8, 9]);
    assert_eq!(client.typeops[&13].0, Ok(13)); // tail = 8 + 1 + 4
    assert_eq!(
        client.typeops[&14].0,
        Err(mala_mds::types::MdsError::BadType)
    );
}

#[test]
fn namespace_replicates_to_peer_ranks() {
    let mut sim = build(3);
    let seq = create(
        &mut sim,
        client_node(0),
        1,
        "/",
        "shared",
        FileType::Sequencer,
    );
    sim.run_for(SimDuration::from_millis(100));
    for rank in 0..3 {
        let mds = sim.actor::<Mds>(mds_node(rank));
        assert_eq!(
            mds.namespace().resolve("/shared"),
            Ok(seq),
            "rank {rank} missing replicated entry"
        );
    }
}

#[test]
fn cap_contention_alternates_between_clients() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    // Both clients request; contention under best-effort policy.
    for i in 0..2 {
        send_from(
            &mut sim,
            client_node(i),
            mds_node(0),
            MdsMsg::CapRequest { ino: seq },
        );
    }
    sim.run_for(SimDuration::from_millis(200));
    // Client 0 got the grant, then a recall, released, client 1 granted.
    let c0 = sim.actor::<TestClient>(client_node(0));
    let c1 = sim.actor::<TestClient>(client_node(1));
    assert_eq!(c0.grants.len(), 1);
    assert_eq!(c0.recalls.len(), 1);
    assert_eq!(c1.grants.len(), 1);
    let mds = sim.actor::<Mds>(mds_node(0));
    assert_eq!(mds.cap_holder(seq), Some(client_node(1)));
}

#[test]
fn delay_policy_defers_recall() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::SetCapPolicy {
            ino: seq,
            policy: CapPolicyConfig::delay(SimDuration::from_millis(250)),
        },
    );
    sim.run_for(SimDuration::from_millis(10));
    let t0 = sim.now();
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_millis(20));
    send_from(
        &mut sim,
        client_node(1),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_secs(1));
    let c0 = sim.actor::<TestClient>(client_node(0));
    assert_eq!(c0.recalls.len(), 1);
    let recall_after = c0.recalls[0].0.since(t0);
    assert!(
        recall_after >= SimDuration::from_millis(250),
        "recall arrived after only {recall_after}"
    );
    let c1 = sim.actor::<TestClient>(client_node(1));
    assert_eq!(c1.grants.len(), 1);
}

#[test]
fn released_state_flushes_into_inode() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_millis(20));
    // Simulate 500 local increments, then a voluntary release.
    sim.with_actor::<TestClient, _>(client_node(0), |c, ctx| {
        let (ino, _) = c.holding.take().unwrap();
        ctx.send(mds_node(0), MdsMsg::CapRelease { ino, state: 500 });
    });
    sim.run_for(SimDuration::from_millis(20));
    let mds = sim.actor::<Mds>(mds_node(0));
    assert_eq!(mds.namespace().get(seq).unwrap().embedded, 500);
    // A round-trip op continues from the flushed value.
    send_from(
        &mut sim,
        client_node(1),
        mds_node(0),
        MdsMsg::TypeOp {
            reqid: 7,
            ino: seq,
            op: SeqOp::Next,
        },
    );
    sim.run_for(SimDuration::from_millis(50));
    let c1 = sim.actor::<TestClient>(client_node(1));
    assert_eq!(c1.typeops[&7].0.clone().unwrap(), 500);
}

#[test]
fn admin_export_proxy_mode_forwards_and_serves() {
    let mut sim = build(2);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    sim.inject(
        mds_node(0),
        MdsMsg::AdminExport {
            ino: seq,
            target: 1,
            style: ServeStyle::Proxy,
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.actor::<Mds>(mds_node(1)).is_auth(seq));
    // Client keeps talking to rank 0; the op is served by rank 1.
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::TypeOp {
            reqid: 9,
            ino: seq,
            op: SeqOp::Next,
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    let c0 = sim.actor::<TestClient>(client_node(0));
    let (result, served_by) = c0.typeops[&9].clone();
    assert_eq!(result.unwrap(), 0);
    assert_eq!(served_by, 1, "proxy mode: slave rank serves the op");
}

#[test]
fn admin_export_client_mode_redirects() {
    let mut sim = build(2);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    sim.inject(
        mds_node(0),
        MdsMsg::AdminExport {
            ino: seq,
            target: 1,
            style: ServeStyle::Direct,
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    // Stale client hits rank 0 → NotAuth redirect → retries at rank 1.
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::TypeOp {
            reqid: 5,
            ino: seq,
            op: SeqOp::Next,
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    let redirect = {
        let c0 = sim.actor::<TestClient>(client_node(0));
        c0.typeops[&5].0.clone()
    };
    assert_eq!(
        redirect,
        Err(mala_mds::types::MdsError::NotAuth { rank: 1 })
    );
    send_from(
        &mut sim,
        client_node(0),
        mds_node(1),
        MdsMsg::TypeOp {
            reqid: 6,
            ino: seq,
            op: SeqOp::Next,
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    let c0 = sim.actor::<TestClient>(client_node(0));
    let (result, served_by) = c0.typeops[&6].clone();
    assert_eq!(result.unwrap(), 0);
    assert_eq!(served_by, 1);
}

#[test]
fn export_with_held_cap_recalls_first() {
    let mut sim = build(2);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_millis(20));
    sim.inject(
        mds_node(0),
        MdsMsg::AdminExport {
            ino: seq,
            target: 1,
            style: ServeStyle::Direct,
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    let c0 = sim.actor::<TestClient>(client_node(0));
    assert_eq!(c0.recalls.len(), 1, "export must recall the cap first");
    assert!(sim.actor::<Mds>(mds_node(1)).is_auth(seq));
}

#[test]
fn cephfs_balancer_migrates_under_load() {
    // 2 ranks; rank 0 hosts a hot sequencer driven by closed-loop traffic.
    let mut sim = Sim::new(9);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    let config = MdsConfig {
        balance_interval: SimDuration::from_secs(2),
        ..MdsConfig::default()
    };
    for rank in 0..2 {
        sim.add_node(
            mds_node(rank),
            Mds::new(
                rank,
                MON,
                config.clone(),
                Box::new(CephFsBalancer::new(CephFsMode::Workload)),
            ),
        );
    }
    sim.add_node(client_node(0), TestClient::default());
    let updates = (0..2)
        .map(|r| MdsMapView::update_rank(r, mds_node(r), true))
        .collect();
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    // Two hot sequencers: the balancer sheds half the excess, so it needs
    // at least two inodes on the overloaded rank before one can move.
    let seq_a = create(
        &mut sim,
        client_node(0),
        1,
        "/",
        "hot-a",
        FileType::Sequencer,
    );
    let seq_b = create(
        &mut sim,
        client_node(0),
        2,
        "/",
        "hot-b",
        FileType::Sequencer,
    );
    // Drive steady traffic for several balance ticks.
    for i in 0..400u64 {
        let ino = if i % 2 == 0 { seq_a } else { seq_b };
        send_from(
            &mut sim,
            client_node(0),
            mds_node(0),
            MdsMsg::TypeOp {
                reqid: 100 + i,
                ino,
                op: SeqOp::Next,
            },
        );
        sim.run_for(SimDuration::from_millis(20));
    }
    assert!(
        sim.metrics().counter("mds.exports") > 0,
        "overloaded rank 0 must export a hot inode"
    );
    let mds1 = sim.actor::<Mds>(mds_node(1));
    assert!(
        mds1.is_auth(seq_a) || mds1.is_auth(seq_b),
        "one hot sequencer must now live on rank 1"
    );
}

/// Full stack: monitor + 3 OSDs (meta pool) + 1 journaling MDS + 2 clients.
fn build_journalled(config: &MdsConfig) -> Sim {
    let mut sim = Sim::new(17);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..3 {
        sim.add_node(NodeId(10 + i), Osd::new(i, MON, OsdConfig::default()));
    }
    sim.add_node(
        mds_node(0),
        Mds::new(0, MON, config.clone(), Box::new(NoBalancer)),
    );
    for i in 0..2 {
        sim.add_node(client_node(i), TestClient::default());
    }
    let mut updates = vec![
        OsdMapView::update_pool(
            "meta",
            PoolInfo {
                pg_num: 16,
                replicas: 2,
            },
        ),
        MdsMapView::update_rank(0, mds_node(0), true),
    ];
    for i in 0..3 {
        updates.push(OsdMapView::update_osd(i, NodeId(10 + i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    sim
}

#[test]
fn journal_recovery_after_mds_crash() {
    let config = MdsConfig {
        journal: true,
        ..MdsConfig::default()
    };
    let mut sim = build_journalled(&config);

    let dir = create(&mut sim, client_node(0), 1, "/", "dir", FileType::Dir);
    let seq = create(
        &mut sim,
        client_node(0),
        2,
        "/dir",
        "seq",
        FileType::Sequencer,
    );
    let _ = dir;
    // Let the journal flush (500 ms timer), then crash the MDS.
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(mds_node(0));
    let mds = Mds::new(0, MON, config.clone(), Box::new(NoBalancer));
    sim.restart(mds_node(0), mds);
    sim.run_for(SimDuration::from_secs(3));
    // The restarted MDS must have replayed its journal.
    let resolve = |sim: &mut Sim, reqid: u64, path: &str| {
        let path = path.to_string();
        send_from(
            sim,
            client_node(0),
            mds_node(0),
            MdsMsg::Resolve { reqid, path },
        );
        sim.run_for(SimDuration::from_millis(200));
        let client = sim.actor::<TestClient>(client_node(0));
        let resolved = client.resolved.get(&reqid).cloned().expect("resolve done");
        resolved.map(|(ino, _)| ino)
    };
    assert_eq!(resolve(&mut sim, 50, "/dir/seq"), Ok(seq));
    assert!(sim.metrics().counter("mds.journal_replays") > 0);

    // A second life on the same node journals under request ids of its
    // own: a flush numbered like one of the first life's would be answered
    // from the OSD's reply cache, never applied, and lost to the third.
    let late = create(
        &mut sim,
        client_node(0),
        3,
        "/dir",
        "late",
        FileType::Regular,
    );
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(mds_node(0));
    sim.restart(mds_node(0), Mds::new(0, MON, config, Box::new(NoBalancer)));
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(resolve(&mut sim, 51, "/dir/seq"), Ok(seq));
    assert_eq!(resolve(&mut sim, 52, "/dir/late"), Ok(late));
    assert!(sim.actor::<Mds>(mds_node(0)).store_idle());
}

#[test]
fn crashed_cap_holder_is_evicted_and_waiter_granted() {
    let mut sim = build(1);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    // Client 0 takes the capability, then dies without releasing.
    send_from(
        &mut sim,
        client_node(0),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_millis(50));
    assert_eq!(
        sim.actor::<Mds>(mds_node(0)).cap_holder(seq),
        Some(client_node(0))
    );
    sim.crash(client_node(0));
    // Client 1 contends; recalls go unanswered until the holder timeout
    // (the paper's §5.2.1 failure handling) evicts the dead client.
    send_from(
        &mut sim,
        client_node(1),
        mds_node(0),
        MdsMsg::CapRequest { ino: seq },
    );
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(
        sim.actor::<Mds>(mds_node(0)).cap_holder(seq),
        Some(client_node(1)),
        "waiter must be granted after the dead holder's timeout"
    );
    let c1 = sim.actor::<TestClient>(client_node(1));
    assert_eq!(c1.grants.len(), 1);
}

/// What a type op got back, with the rank that answered.
type TypeOpAnswer = (Result<u64, mala_mds::types::MdsError>, u32);

/// Sends one type op from client 0 to rank 0 and returns its answer.
fn type_op(sim: &mut Sim, reqid: u64, ino: u64, op: SeqOp) -> TypeOpAnswer {
    type_op_at(sim, 0, reqid, ino, op)
}

/// Sends one type op from client 0 to `rank` and returns its answer.
fn type_op_at(sim: &mut Sim, rank: u32, reqid: u64, ino: u64, op: SeqOp) -> TypeOpAnswer {
    let msg = MdsMsg::TypeOp { reqid, ino, op };
    send_from(sim, client_node(0), mds_node(rank), msg);
    answer(sim, reqid)
}

/// Delivers one type op of client 0's to `rank` the way a home rank
/// forwards it, and returns its answer.
fn proxy_op(sim: &mut Sim, rank: u32, reqid: u64, ino: u64, op: SeqOp) -> TypeOpAnswer {
    let client = client_node(0);
    sim.inject(
        mds_node(rank),
        MdsPeer::ProxyOp {
            reqid,
            client,
            ino,
            op,
        },
    );
    answer(sim, reqid)
}

fn answer(sim: &mut Sim, reqid: u64) -> TypeOpAnswer {
    sim.run_for(SimDuration::from_millis(100));
    sim.actor::<TestClient>(client_node(0)).typeops[&reqid].clone()
}

/// Every sequencer verb does the same thing served where it arrives
/// (`TypeOp`) and forwarded by the home rank to the authority (`ProxyOp`);
/// the one verb that is wrong whatever its file type is a zero-width grant,
/// a seal waits for the log's layout, and every verb is wrong on a file
/// that is no sequencer. A forwarded op
/// passes the gate a direct one does: at a rank that is not the authority
/// and on a frozen inode it gets `Frozen`, and never a position.
#[test]
fn every_seq_op_serves_directly_and_through_a_proxy() {
    use mala_mds::types::MdsError;
    let mut sim = build(2);
    let direct = create(&mut sim, client_node(0), 1, "/", "d", FileType::Sequencer);
    let proxied = create(&mut sim, client_node(0), 2, "/", "p", FileType::Sequencer);
    let dir = create(&mut sim, client_node(0), 3, "/", "dir", FileType::Dir);
    let frozen = create(&mut sim, client_node(0), 4, "/", "f", FileType::Sequencer);
    sim.inject(
        mds_node(0),
        MdsMsg::AdminExport {
            ino: proxied,
            target: 1,
            style: ServeStyle::Proxy,
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    let script = [
        (SeqOp::Next, Ok(0)),
        (SeqOp::NextBatch(4), Ok(1)),
        (SeqOp::Read, Ok(5)),
        (SeqOp::Seal, Err(MdsError::Recovering)),
        (SeqOp::Next, Ok(5)),
        (SeqOp::NextBatch(0), Err(MdsError::BadType)),
        (SeqOp::Read, Ok(6)),
    ];
    let mut reqid = 100;
    for (ino, rank) in [(direct, 0), (proxied, 1)] {
        for (op, expected) in &script {
            reqid += 1;
            let (result, served_by) = type_op(&mut sim, reqid, ino, *op);
            assert_eq!(&result, expected, "{op} on rank {rank}");
            assert_eq!(served_by, rank, "{op}");
        }
    }
    assert_eq!(sim.metrics().counter("mds.proxied"), script.len() as u64);
    let ops = script.map(|(op, _)| op);
    for op in ops {
        reqid += 1;
        let (result, _) = type_op(&mut sim, reqid, dir, op);
        assert_eq!(result, Err(MdsError::BadType), "{op} on a directory");
    }
    // Rank 0 gave `proxied` to rank 1 and holds a stale copy of it.
    for op in ops {
        reqid += 1;
        let answer = proxy_op(&mut sim, 0, reqid, proxied, op);
        assert_eq!(answer, (Err(MdsError::Frozen), 0), "{op} off the authority");
    }
    // An export whose importer never answers leaves `frozen` frozen.
    sim.network_mut().sever(mds_node(0), mds_node(1));
    let style = ServeStyle::Proxy;
    sim.inject(
        mds_node(0),
        MdsMsg::AdminExport {
            ino: frozen,
            target: 1,
            style,
        },
    );
    sim.run_for(SimDuration::from_millis(10));
    for op in ops {
        reqid += 1;
        assert_eq!(
            type_op(&mut sim, reqid, frozen, op).0,
            Err(MdsError::Frozen),
            "{op}"
        );
        reqid += 1;
        let answer = proxy_op(&mut sim, 0, reqid, frozen, op);
        assert_eq!(
            answer.0,
            Err(MdsError::Frozen),
            "{op} forwarded to a frozen inode"
        );
    }
}

/// An MDS whose route updates wait until the test lets them through, so
/// the export ack sent beside one always lands first.
struct RoutesHeld {
    mds: Mds,
    held: Vec<(NodeId, Box<dyn Any>)>,
}

impl RoutesHeld {
    fn new(rank: u32) -> RoutesHeld {
        let mds = Mds::new(rank, MON, MdsConfig::default(), Box::new(NoBalancer));
        let held = Vec::new();
        RoutesHeld { mds, held }
    }

    fn release(&mut self, ctx: &mut Context<'_>) {
        for (from, msg) in std::mem::take(&mut self.held) {
            self.mds.on_message(ctx, from, msg);
        }
    }
}

impl Actor for RoutesHeld {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.mds.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        if let Some(MdsPeer::RouteUpdate { .. }) = msg.downcast_ref::<MdsPeer>() {
            self.held.push((from, msg));
        } else {
            self.mds.on_message(ctx, from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.mds.on_timer(ctx, token);
    }
}

/// The importer sends the export ack and the route update together, and
/// either may land first. An exporter that has the ack and not the update
/// serves nothing from its copy: it redirects a direct op to the new
/// authority and refuses a forwarded one with `Frozen`. Here rank 1, not
/// the home, re-exports the sequencer to rank 2 — the re-export that
/// handed positions out twice.
#[test]
fn an_export_ack_that_overtakes_its_route_update_grants_nothing() {
    use mala_mds::types::MdsError;
    let mut sim = build(3);
    sim.restart(mds_node(1), RoutesHeld::new(1));
    sim.run_for(SimDuration::from_secs(1));
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    for (from, target) in [(0, 1), (1, 2)] {
        let style = ServeStyle::Proxy;
        sim.inject(
            mds_node(from),
            MdsMsg::AdminExport {
                ino: seq,
                target,
                style,
            },
        );
        sim.run_for(SimDuration::from_millis(100));
    }
    let held = |sim: &Sim| sim.actor::<RoutesHeld>(mds_node(1)).held.len();
    assert_eq!(held(&sim), 1, "rank 2's route update waits at rank 1");
    let mut reqid = 10;
    for released in [false, true] {
        for op in [SeqOp::Next, SeqOp::NextBatch(4), SeqOp::Read] {
            reqid += 1;
            let answer = type_op_at(&mut sim, 1, reqid, seq, op);
            let redirect = (Err(MdsError::NotAuth { rank: 2 }), 1);
            assert_eq!(answer, redirect, "direct {op}, update released: {released}");
            reqid += 1;
            let answer = proxy_op(&mut sim, 1, reqid, seq, op);
            let refusal = (Err(MdsError::Frozen), 1);
            assert_eq!(
                answer, refusal,
                "forwarded {op}, update released: {released}"
            );
        }
        sim.with_actor::<RoutesHeld, _>(mds_node(1), |r, ctx| r.release(ctx));
        sim.run_for(SimDuration::from_millis(10));
    }
    // The authority handed nothing out: through the home, the first grant
    // is position 0.
    assert_eq!(type_op(&mut sim, 99, seq, SeqOp::Next), (Ok(0), 2));
}

/// Installs a stand-in `zlog` class whose `seal` and `maxpos` report
/// `maxpos` for every stripe, so a seal resumes the tail at `maxpos + 1`.
fn install_seal_stub(sim: &mut Sim, maxpos: i64) {
    let source = format!(
        "function seal(input) return \"{maxpos}\" end\n\
         function maxpos(input) return \"{maxpos}\" end\n"
    );
    let update = MapUpdate::set(SERVICE_MAP_INTERFACES, "zlog", source.into_bytes());
    let updates = vec![update];
    sim.inject(MON, MonMsg::Submit { seq: 2, updates });
    sim.run_for(SimDuration::from_secs(2));
}

/// The layout of the log behind sequencer `ino`: two stripes in `meta`.
fn layout(ino: u64) -> MdsMsg {
    MdsMsg::SetSeqLayout {
        ino,
        pool: "meta".into(),
        name: "s".into(),
        stripe_width: 2,
    }
}

/// Sends client `i`'s seal request `reqid` for `ino` to rank 0; the answer
/// waits for the seal.
fn send_seal(sim: &mut Sim, i: u32, reqid: u64, ino: u64) {
    let op = SeqOp::Seal;
    send_from(
        sim,
        client_node(i),
        mds_node(0),
        MdsMsg::TypeOp { reqid, ino, op },
    );
}

/// Client `i`'s seal answers so far: reqid → (epoch, tail).
fn seals(sim: &Sim, i: u32) -> &HashMap<u64, (u64, u64)> {
    &sim.actor::<TestClient>(client_node(i)).sealed
}

/// A sequencer that comes back from a journal replay with no layout on
/// record serves no verb that reads or moves its tail — grants were never
/// journalled, so the replayed tail (0) understates the 5 positions handed
/// out — and cannot seal. The layout a client registers starts the seal,
/// and the sequencer resumes past the store's highest position.
#[test]
fn seq_ops_after_a_journal_replay_wait_for_a_layout() {
    use mala_mds::types::MdsError;
    let config = MdsConfig {
        journal: true,
        ..MdsConfig::default()
    };
    let mut sim = build_journalled(&config);
    install_seal_stub(&mut sim, 6);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    assert_eq!(type_op(&mut sim, 10, seq, SeqOp::NextBatch(5)).0, Ok(0));
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(mds_node(0));
    sim.restart(mds_node(0), Mds::new(0, MON, config, Box::new(NoBalancer)));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.metrics().counter("mds.journal_replays") > 0);
    for (reqid, op) in [
        (20, SeqOp::Next),
        (21, SeqOp::NextBatch(2)),
        (22, SeqOp::Read),
        (23, SeqOp::Seal),
    ] {
        let (result, _) = type_op(&mut sim, reqid, seq, op);
        assert_eq!(result, Err(MdsError::Recovering), "{op}");
    }
    send_from(&mut sim, client_node(0), mds_node(0), layout(seq));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.metrics().counter("mds.late_layout_seals"), 1);
    assert_eq!(type_op(&mut sim, 24, seq, SeqOp::NextBatch(3)).0, Ok(7));
    assert_eq!(type_op(&mut sim, 25, seq, SeqOp::Read).0, Ok(10));
}

/// A seal request is answered once the seal it started completes, with the
/// epoch it installed and the tail it resumes at: never below what the
/// sequencer already handed out, past every position the store holds. A
/// second client's request while the seal runs joins it instead of
/// starting another, a client's re-sent request replaces its first (only
/// the latest is answered), and grants wait for the seal.
#[test]
fn a_seal_request_answers_when_its_seal_completes() {
    use mala_mds::types::MdsError;
    let mut sim = build_journalled(&MdsConfig::default());
    install_seal_stub(&mut sim, 6);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(&mut sim, client_node(0), mds_node(0), layout(seq));
    sim.run_for(SimDuration::from_millis(50));
    assert_eq!(type_op(&mut sim, 10, seq, SeqOp::NextBatch(3)).0, Ok(0));
    for (client, reqid) in [(0, 20), (1, 21), (0, 22)] {
        send_seal(&mut sim, client, reqid, seq);
    }
    sim.run_for(SimDuration::from_micros(500));
    for client in [0, 1] {
        assert!(seals(&sim, client).is_empty(), "answered before the seal");
    }
    assert_eq!(
        type_op(&mut sim, 23, seq, SeqOp::Next).0,
        Err(MdsError::Recovering)
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(seals(&sim, 0), &HashMap::from([(22, (1, 7))]));
    assert_eq!(seals(&sim, 1), &HashMap::from([(21, (1, 7))]));
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 1);
    assert_eq!(type_op(&mut sim, 24, seq, SeqOp::Next).0, Ok(7));
    // With the store behind the sequencer, a seal never moves it back.
    assert_eq!(type_op(&mut sim, 25, seq, SeqOp::NextBatch(4)).0, Ok(8));
    send_seal(&mut sim, 0, 26, seq);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(seals(&sim, 0).get(&26), Some(&(2, 12)));
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 2);
}

/// A seal request that reaches a takeover's seal after its epoch bump
/// committed joins it and is answered with that epoch, which its client
/// may already run under, not a newer one. Until the zlog class is
/// installed the seal stalls on its stripes.
#[test]
fn a_seal_request_joins_a_takeover_seal_and_learns_its_epoch() {
    let config = MdsConfig {
        journal: true,
        ..MdsConfig::default()
    };
    let mut sim = build_journalled(&config);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(&mut sim, client_node(0), mds_node(0), layout(seq));
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(mds_node(0));
    sim.restart(mds_node(0), Mds::new(0, MON, config, Box::new(NoBalancer)));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.metrics().counter("mds.seal_call_errors") > 0);
    send_seal(&mut sim, 0, 20, seq);
    sim.run_for(SimDuration::from_millis(100));
    assert!(seals(&sim, 0).is_empty(), "answered before the seal");
    install_seal_stub(&mut sim, 6);
    assert_eq!(seals(&sim, 0), &HashMap::from([(20, (1, 7))]));
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 1);
}

/// An inode mid-seal stays where it is: its tail is not known until the
/// seal completes, and the seal's waiters are answered by this rank.
/// Nothing installs the zlog class here, so the seal never finishes.
#[test]
fn a_sequencer_mid_seal_is_not_exported() {
    let mut sim = build_journalled(&MdsConfig::default());
    let rank1 = Mds::new(1, MON, MdsConfig::default(), Box::new(NoBalancer));
    sim.add_node(mds_node(1), rank1);
    let updates = vec![MdsMapView::update_rank(1, mds_node(1), true)];
    sim.inject(MON, MonMsg::Submit { seq: 2, updates });
    sim.run_for(SimDuration::from_secs(2));
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(&mut sim, client_node(0), mds_node(0), layout(seq));
    send_seal(&mut sim, 0, 10, seq);
    sim.run_for(SimDuration::from_millis(50));
    let style = ServeStyle::Direct;
    let export = MdsMsg::AdminExport {
        ino: seq,
        target: 1,
        style,
    };
    sim.inject(mds_node(0), export);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.metrics().counter("mds.exports"), 0);
    assert_eq!(sim.actor::<Mds>(mds_node(0)).auth_of(seq), 0);
}

/// A sequencer mid-seal after a takeover answers `Recovering` to a direct
/// op and to a forwarded one alike. Nothing installs the zlog class here,
/// so the seal never finishes.
#[test]
fn a_forwarded_op_waits_out_a_seal_like_a_direct_one() {
    use mala_mds::types::MdsError;
    let config = MdsConfig {
        journal: true,
        ..MdsConfig::default()
    };
    let mut sim = build_journalled(&config);
    let seq = create(&mut sim, client_node(0), 1, "/", "s", FileType::Sequencer);
    send_from(&mut sim, client_node(0), mds_node(0), layout(seq));
    sim.run_for(SimDuration::from_secs(2));
    sim.crash(mds_node(0));
    sim.restart(mds_node(0), Mds::new(0, MON, config, Box::new(NoBalancer)));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.metrics().counter("mds.journal_replays") > 0);
    for (reqid, op) in [
        (10, SeqOp::Next),
        (12, SeqOp::Read),
        (14, SeqOp::NextBatch(5)),
    ] {
        assert_eq!(
            type_op(&mut sim, reqid, seq, op).0,
            Err(MdsError::Recovering),
            "{op}"
        );
        let answer = proxy_op(&mut sim, 0, reqid + 1, seq, op);
        assert_eq!(answer.0, Err(MdsError::Recovering), "forwarded {op}");
    }
    assert_eq!(sim.metrics().counter("mds.seq_seals"), 0);
}
