use super::*;
use crate::maps::SERVICE_MAP_OSD;
use mala_sim::{NetConfig, Network, Sim};

/// A scripted client that submits updates and records replies.
#[derive(Default)]
struct TestClient {
    acks: Vec<(u64, Vec<(String, u64)>)>,
    /// When each of `acks` arrived.
    acked_at: Vec<SimTime>,
    snapshots: Vec<MapSnapshot>,
}

impl Actor for TestClient {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        if let Ok(msg) = msg.downcast::<MonMsg>() {
            match *msg {
                MonMsg::SubmitAck { seq, epochs } => {
                    self.acks.push((seq, epochs));
                    self.acked_at.push(ctx.now());
                }
                MonMsg::Snapshot(s) => self.snapshots.push(s),
                _ => {}
            }
        }
    }
}

fn mon_ids(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

fn build(n: u32, config: MonConfig) -> Sim {
    let mut sim = Sim::with_network(7, Network::new(NetConfig::default()));
    let peers = mon_ids(n);
    for rank in 0..n {
        sim.add_node(
            peers[rank as usize],
            Monitor::new(rank, peers.clone(), config.clone()),
        );
    }
    sim.add_node(NodeId(100), TestClient::default());
    sim
}

#[test]
fn leader_elected_and_update_commits() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());

    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 1,
                updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "osd.0", b"up".to_vec())],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(3));
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.acks.len(), 1);
    assert_eq!(client.acks[0].0, 1);
    assert_eq!(client.acks[0].1, vec![(SERVICE_MAP_OSD.to_string(), 1)]);
    // All replicas applied it.
    for rank in 0..3 {
        let m = sim.actor::<Monitor>(NodeId(rank));
        let snap = m.map(SERVICE_MAP_OSD).unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.entries["osd.0"], b"up".to_vec());
    }
}

#[test]
fn submit_to_follower_commits_via_forwarding() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(2),
            MonMsg::Submit {
                seq: 9,
                updates: vec![MapUpdate::set(SERVICE_MAP_MDS, "mds.a", b"x".to_vec())],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(4));
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.acks.len(), 1, "acks: {:?}", client.acks);
}

#[test]
fn get_returns_snapshot() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Get {
                map: "nonexistent".to_string(),
            },
        );
    });
    sim.run_for(SimDuration::from_millis(100));
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.snapshots.len(), 1);
    assert_eq!(client.snapshots[0].epoch, 0);
    assert!(client.snapshots[0].entries.is_empty());
}

#[test]
fn subscribers_get_notified_of_changes() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(1),
            MonMsg::Subscribe {
                map: SERVICE_MAP_INTERFACES.to_string(),
            },
        );
    });
    sim.run_for(SimDuration::from_millis(100));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 2,
                updates: vec![MapUpdate::set(
                    SERVICE_MAP_INTERFACES,
                    "cls_zlog",
                    b"function seal() end".to_vec(),
                )],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(3));
    // The subscription's answer, then the committed map, whole.
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.snapshots.len(), 2);
    let (first, pushed) = (&client.snapshots[0], &client.snapshots[1]);
    assert_eq!(
        (first.map.as_str(), first.epoch),
        (SERVICE_MAP_INTERFACES, 0)
    );
    assert!(first.entries.is_empty());
    let committed = sim.actor::<Monitor>(NodeId(1)).map(SERVICE_MAP_INTERFACES);
    assert_eq!(Some(pushed), committed);
    assert_eq!(pushed.epoch, 1);
    assert_eq!(pushed.entries.keys().collect::<Vec<_>>(), ["cls_zlog"]);
}

#[test]
fn batching_applies_many_updates_in_one_epoch_bump() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    // Two submits with the same shape land in the same interval → one
    // batch → one epoch bump.
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        for seq in [10, 11] {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq,
                    updates: vec![MapUpdate::set(
                        SERVICE_MAP_OSD,
                        &format!("k{seq}"),
                        b"v".to_vec(),
                    )],
                },
            );
        }
    });
    sim.run_for(SimDuration::from_secs(3));
    let m = sim.actor::<Monitor>(NodeId(0));
    let snap = m.map(SERVICE_MAP_OSD).unwrap();
    assert_eq!(snap.entries.len(), 2);
    assert_eq!(snap.epoch, 1, "both updates batched into one epoch");
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.acks.len(), 2);
}

#[test]
fn leader_failure_triggers_reelection_and_progress() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
    sim.crash(NodeId(0));
    // Give rank 1 time to notice (patience = 2 * 1.5s) and campaign.
    sim.run_for(SimDuration::from_secs(8));
    assert!(
        sim.actor::<Monitor>(NodeId(1)).is_leader() || sim.actor::<Monitor>(NodeId(2)).is_leader(),
        "a surviving monitor must take over"
    );
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(1),
            MonMsg::Submit {
                seq: 50,
                updates: vec![MapUpdate::set(
                    SERVICE_MAP_OSD,
                    "post-failover",
                    b"1".to_vec(),
                )],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(5));
    let client = sim.actor::<TestClient>(NodeId(100));
    assert_eq!(client.acks.len(), 1, "commit must succeed after failover");
}

#[test]
fn deletes_remove_keys() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 1,
                updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(2));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 2,
                updates: vec![MapUpdate::del(SERVICE_MAP_OSD, "k")],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(2));
    let m = sim.actor::<Monitor>(NodeId(0));
    let snap = m.map(SERVICE_MAP_OSD).unwrap();
    assert!(snap.entries.is_empty());
    assert_eq!(snap.epoch, 2);
}

#[test]
fn shorter_proposal_interval_lowers_commit_latency() {
    let commit_latency = |interval_ms: u64| -> f64 {
        let config = MonConfig {
            proposal_interval: SimDuration::from_millis(interval_ms),
            ..MonConfig::default()
        };
        let mut sim = build(3, config);
        sim.run_for(SimDuration::from_millis(500));
        let t0 = sim.now();
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 1,
                    updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
                },
            );
        });
        let acked = sim.run_until_pred(t0 + SimDuration::from_secs(10), |s| {
            !s.actor::<TestClient>(NodeId(100)).acks.is_empty()
        });
        assert!(acked);
        sim.now().since(t0).as_millis_f64()
    };
    let slow = commit_latency(1000);
    let fast = commit_latency(222);
    assert!(
        fast < slow,
        "222 ms interval ({fast} ms) must beat 1 s interval ({slow} ms)"
    );
}

#[test]
fn paxos_message_from_rogue_sender_is_dropped_not_fatal() {
    use crate::paxos::Ballot;
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
    // NodeId(100) is the test client — not in the monitor quorum. Its
    // Paxos traffic must be discarded, not crash the monitor or steer
    // consensus.
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonWire(PaxosMsg::Heartbeat {
                ballot: Ballot {
                    round: 99,
                    proposer: 2,
                },
                chosen_up_to: 0,
            }),
        );
        ctx.send(
            NodeId(1),
            MonWire(PaxosMsg::Prepare {
                ballot: Ballot {
                    round: 100,
                    proposer: 1,
                },
            }),
        );
    });
    sim.run_for(SimDuration::from_millis(200));
    assert_eq!(sim.metrics().counter("mon.paxos_rogue_msgs"), 2);
    // The quorum still commits afterwards.
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 1,
                updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(sim.actor::<TestClient>(NodeId(100)).acks.len(), 1);
}

#[test]
fn invalid_pool_updates_are_rejected_at_commit() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 1,
                updates: vec![
                    // Operator typo: a zero pg_num would panic-or-wedge
                    // placement on every daemon.
                    MapUpdate::set(SERVICE_MAP_OSD, "pool.bad", b"pg_num=0,replicas=3".to_vec()),
                    MapUpdate::set(
                        SERVICE_MAP_OSD,
                        "pool.typo",
                        b"pg_num=sixty,replicas=3".to_vec(),
                    ),
                    MapUpdate::set(SERVICE_MAP_OSD, "pool.ok", b"pg_num=8,replicas=2".to_vec()),
                ],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(3));
    // The valid update committed; the invalid ones never entered the
    // authoritative map, on any replica.
    for rank in 0..3 {
        let m = sim.actor::<Monitor>(NodeId(rank));
        let snap = m.map(SERVICE_MAP_OSD).unwrap();
        assert!(snap.entries.contains_key("pool.ok"));
        assert!(!snap.entries.contains_key("pool.bad"));
        assert!(!snap.entries.contains_key("pool.typo"));
    }
    assert!(sim.metrics().counter("mon.osdmap_rejected_updates") >= 2);
    // Deleting a pool entry is still allowed (value None skips
    // validation).
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(
            NodeId(0),
            MonMsg::Submit {
                seq: 2,
                updates: vec![MapUpdate::del(SERVICE_MAP_OSD, "pool.ok")],
            },
        );
    });
    sim.run_for(SimDuration::from_secs(3));
    let snap_entries = &sim
        .actor::<Monitor>(NodeId(0))
        .map(SERVICE_MAP_OSD)
        .unwrap()
        .entries;
    assert!(!snap_entries.contains_key("pool.ok"));
}

/// The monitor commits a log's epoch only upward, on every replica,
/// and counts what it refuses: a seal's epoch bump re-sent and applied
/// after a newer seal's never moves the log back.
#[test]
fn a_log_epoch_that_does_not_rise_is_refused_at_commit() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    let key = maps::LogEpoch::key("log");
    let steps: [(Option<&str>, Option<&str>); 5] = [
        (Some("2"), Some("2")),
        (Some("2"), Some("2")),
        (Some("1"), Some("2")),
        (None, None),
        (Some("1"), Some("1")),
    ];
    for (seq, (value, committed)) in (1..).zip(steps) {
        let update = match value {
            Some(v) => MapUpdate::set(SERVICE_MAP_ZLOG, &key, v),
            None => MapUpdate::del(SERVICE_MAP_ZLOG, &key),
        };
        let updates = vec![update];
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(NodeId(0), MonMsg::Submit { seq, updates });
        });
        sim.run_for(SimDuration::from_secs(2));
        for rank in 0..3 {
            let map = sim.actor::<Monitor>(NodeId(rank)).map(SERVICE_MAP_ZLOG);
            let entry = map.and_then(|snap| snap.entries.get(&key));
            assert_eq!(
                entry.map(Vec::as_slice),
                committed.map(str::as_bytes),
                "{seq}"
            );
        }
    }
    // Two refusals and three commits, counted once each: by the monitor
    // that proposed them, not by every replica that applied the batch.
    assert_eq!(sim.metrics().counter("mon.zlog_rejected_updates"), 2);
    assert_eq!(sim.metrics().counter("mon.map_commits"), 3);
    assert_eq!(
        sim.actor::<TestClient>(NodeId(100)).acks.len(),
        5,
        "a refusal is acked"
    );
}

/// How long after 0.5 s a `Submit` of `updates` sent to monitor `to`
/// is acked, and the epochs the ack names. The proposal ticks come at
/// each whole second.
fn acked_after(to: NodeId, updates: Vec<MapUpdate>) -> (SimDuration, Vec<(String, u64)>) {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
    let sent = sim.now();
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        ctx.send(to, MonMsg::Submit { seq: 1, updates });
    });
    let acked = sim.run_until_pred(sent + SimDuration::from_secs(3), |s| {
        !s.actor::<TestClient>(NodeId(100)).acks.is_empty()
    });
    assert!(acked, "{to}");
    let client = sim.actor::<TestClient>(NodeId(100));
    (client.acked_at[0].since(sent), client.acks[0].1.clone())
}

/// A `Submit` wholly in the zlog map is proposed when it arrives: at
/// the leader, or at a follower, which forwards it. With a 1 s
/// proposal interval it is acked within 10 ms.
#[test]
fn a_zlog_submit_is_acked_at_once_by_the_leader_and_a_follower() {
    let config = MonConfig::default();
    assert_eq!(config.proposal_interval, SimDuration::from_secs(1));
    let epoch = MapUpdate::set(SERVICE_MAP_ZLOG, &maps::LogEpoch::key("log"), "1");
    for to in [NodeId(0), NodeId(2)] {
        let (waited, epochs) = acked_after(to, vec![epoch.clone()]);
        assert!(waited < SimDuration::from_millis(10), "{to}: {waited}");
        assert_eq!(epochs, [(SERVICE_MAP_ZLOG.to_string(), 1)]);
    }
}

/// A `Submit` that names a ticked map waits for the next tick, 500 ms
/// after it is sent, alone or beside a zlog update: a transaction is
/// proposed whole, so both its maps move in one commit.
#[test]
fn an_osdmap_or_mixed_submit_waits_for_the_tick_whole() {
    let epoch = MapUpdate::set(SERVICE_MAP_ZLOG, &maps::LogEpoch::key("log"), "1");
    let osd = MapUpdate::set(SERVICE_MAP_OSD, "osd.0", "node=1,up=1");
    let tick = SimDuration::from_millis(500);
    for to in [NodeId(0), NodeId(2)] {
        let (waited, epochs) = acked_after(to, vec![osd.clone()]);
        assert!(waited >= tick, "{to}: {waited}");
        assert_eq!(epochs, [(SERVICE_MAP_OSD.to_string(), 1)]);
        let (waited, epochs) = acked_after(to, vec![epoch.clone(), osd.clone()]);
        assert!(waited >= tick, "{to}: {waited}");
        let both = [
            (SERVICE_MAP_ZLOG.to_string(), 1),
            (SERVICE_MAP_OSD.to_string(), 1),
        ];
        assert_eq!(epochs, both);
    }
}

#[test]
fn one_tick_of_mixed_transactions_is_one_epoch_and_a_repeat_applies_nothing() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    let submit = |sim: &mut Sim, seq: u64, keys: &[&str]| {
        let updates = keys
            .iter()
            .map(|k| MapUpdate::set(SERVICE_MAP_OSD, k, b"v".to_vec()))
            .collect();
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(NodeId(0), MonMsg::Submit { seq, updates });
        });
    };
    // A 2-update and a 1-update transaction in one interval.
    submit(&mut sim, 1, &["a", "b"]);
    submit(&mut sim, 2, &["c"]);
    sim.run_for(SimDuration::from_secs(2));
    let osd_epoch = |sim: &Sim| {
        sim.actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_OSD)
            .unwrap()
            .epoch
    };
    assert_eq!(osd_epoch(&sim), 1, "one proposal, one epoch");
    let client = sim.actor::<TestClient>(NodeId(100));
    let epoch_1 = vec![(SERVICE_MAP_OSD.to_string(), 1)];
    assert_eq!(client.acks, vec![(1, epoch_1.clone()), (2, epoch_1)]);
    // The same transaction proposed again is chosen, and applies
    // nothing: no key, no epoch. It is acked again, with the epoch the
    // map it names is at.
    submit(&mut sim, 1, &["d"]);
    sim.run_for(SimDuration::from_secs(2));
    let acks = &sim.actor::<TestClient>(NodeId(100)).acks;
    assert_eq!(acks.len(), 3);
    assert_eq!(acks[2], (1, vec![(SERVICE_MAP_OSD.to_string(), 1)]));
    for rank in 0..3 {
        let snap = sim
            .actor::<Monitor>(NodeId(rank))
            .map(SERVICE_MAP_OSD)
            .unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.entries.keys().collect::<Vec<_>>(), ["a", "b", "c"]);
    }
}

/// An MDS daemon reduced to its beacon: every 250 ms it tells monitor 0
/// which rank it serves (`None`: a standby).
struct Beaconer(Option<u32>);

impl Actor for Beaconer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(250), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(NodeId(0), MonMsg::MdsBeacon { rank: self.0 });
        ctx.set_timer(SimDuration::from_millis(250), 0);
    }
}

const ACTIVE: NodeId = NodeId(200);
const STANDBY: NodeId = NodeId(201);
/// When the tests crash [`ACTIVE`]: its last beacon reached the leader
/// at 1.75 s, so it is silent past the grace just before 2.75 s, and a
/// sweep every half grace would find it at 3 s, on a proposal tick.
const CRASH_AT: SimTime = SimTime::from_micros(1_900_000);

/// A quorum of three whose mdsmap puts rank 0 on `rank0`. [`ACTIVE`]
/// beacons for rank 0, [`STANDBY`] too if `standby`, and the test
/// client follows the mdsmap. Returns at 1.5 s.
fn mds_quorum(config: MonConfig, rank0: NodeId, standby: bool) -> Sim {
    let mut sim = build(3, config);
    sim.run_for(SimDuration::from_millis(500));
    let value = format!("node={},up=1", rank0.0);
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        let map = SERVICE_MAP_MDS.to_string();
        ctx.send(NodeId(0), MonMsg::Subscribe { map });
        let updates = vec![MapUpdate::set(SERVICE_MAP_MDS, "mds.0", value)];
        ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
    });
    sim.add_node(ACTIVE, Beaconer(Some(0)));
    if standby {
        sim.add_node(STANDBY, Beaconer(None));
    }
    sim.run_for(SimDuration::from_secs(1));
    sim
}

/// The leader's mdsmap entry for rank 0.
fn rank0(sim: &Sim) -> String {
    let map = sim
        .actor::<Monitor>(NodeId(0))
        .map(SERVICE_MAP_MDS)
        .unwrap();
    String::from_utf8_lossy(&map.entries["mds.0"]).into_owned()
}

/// The mdsmap epochs pushed to the test client at which rank 0 is on
/// `node`. Every commit touching the mdsmap is one epoch and one
/// snapshot, and nothing touches it once the promotion has committed:
/// a promotion that committed twice counts 2.
fn promotions(sim: &Sim, node: NodeId) -> usize {
    let promoted = format!("node={},up=1", node.0).into_bytes();
    let snapshots = &sim.actor::<TestClient>(NodeId(100)).snapshots;
    let epochs: BTreeSet<u64> = snapshots
        .iter()
        .filter(|s| s.map == SERVICE_MAP_MDS && s.entries.get("mds.0") == Some(&promoted))
        .map(|s| s.epoch)
        .collect();
    epochs.len()
}

/// The promotions the leader decided: lines in monitor 0's cluster log.
fn promotions_proposed(sim: &Sim) -> usize {
    let log = sim.actor::<Monitor>(NodeId(0)).cluster_log();
    log.iter()
        .filter(|(_, _, line)| line.contains("promoting standby"))
        .count()
}

fn crash_active_at(sim: &mut Sim, at: SimTime) {
    sim.run_until_pred(at, |_| false);
    sim.crash(ACTIVE);
}

#[test]
fn one_crash_commits_one_promotion() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
    crash_active_at(&mut sim, CRASH_AT);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(rank0(&sim), format!("node={},up=1", STANDBY.0));
    assert_eq!(
        promotions(&sim, STANDBY),
        1,
        "the promotion committed more than once"
    );
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
}

#[test]
fn a_failover_is_proposed_when_it_is_decided() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
    crash_active_at(&mut sim, CRASH_AT);
    let decided = sim.run_until_pred(CRASH_AT + SimDuration::from_secs(3), |s| {
        promotions_proposed(s) == 1
    });
    assert!(decided);
    let decided_at = sim.now();
    // Beacon grace after the last beacon, not a sweep or a tick later.
    assert!(decided_at < SimTime::from_micros(2_760_000), "{decided_at}");
    // A client submit made at the same instant waits for the tick at
    // 3 s; the promotion does not.
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        let updates = vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())];
        ctx.send(NodeId(0), MonMsg::Submit { seq: 7, updates });
    });
    let tick = SimTime::from_micros(3_000_000);
    let promoted = sim.run_until_pred(tick, |s| promotions(s, STANDBY) == 1);
    assert!(promoted && sim.now() < decided_at + SimDuration::from_millis(5));
    assert!(sim
        .actor::<Monitor>(NodeId(0))
        .map(SERVICE_MAP_OSD)
        .is_none());
    sim.run_for(SimDuration::from_secs(1));
    let client = sim.actor::<TestClient>(NodeId(100));
    let acked: Vec<_> = client.acks.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(acked, [1, 7]);
    let at = client.acked_at[1];
    assert!(
        at >= tick && at < tick + SimDuration::from_millis(50),
        "{at}"
    );
}

#[test]
fn a_rank_marked_down_is_filled_when_a_standby_registers() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, false);
    crash_active_at(&mut sim, CRASH_AT);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(rank0(&sim), format!("node={},up=0", ACTIVE.0));
    assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 1);
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 0);
    // The standby's first beacon comes 250 ms after it starts; its
    // registration and then the promotion are each proposed at once.
    let start = sim.now();
    sim.add_node(STANDBY, Beaconer(None));
    let filled = sim.run_until_pred(start + SimDuration::from_millis(300), |s| {
        promotions(s, STANDBY) == 1
    });
    assert!(filled, "rank 0 still {}", rank0(&sim));
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(promotions(&sim, STANDBY), 1);
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
}

/// A rank marked down for want of a standby names its node only as
/// down: when that node's daemon restarts as a standby, it registers
/// and is promoted back into the rank.
#[test]
fn a_daemon_whose_rank_was_marked_down_comes_back_as_a_standby() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, false);
    crash_active_at(&mut sim, CRASH_AT);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(rank0(&sim), format!("node={},up=0", ACTIVE.0));
    let start = sim.now();
    sim.restart(ACTIVE, Beaconer(None));
    let grace = MonConfig::default().mds_beacon_grace;
    let back = sim.run_until_pred(start + grace.mul(2), |s| {
        rank0(s) == format!("node={},up=1", ACTIVE.0)
    });
    assert!(back, "rank 0 still {}", rank0(&sim));
    assert_eq!(sim.metrics().counter("mon.mds_standbys_registered"), 1);
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
}

#[test]
fn a_promotion_that_does_not_commit_within_a_grace_is_proposed_again_and_applied_once() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
    crash_active_at(&mut sim, CRASH_AT);
    // The leader loses its quorum before the crash is noticed.
    for peer in [NodeId(1), NodeId(2)] {
        sim.network_mut().sever(NodeId(0), peer);
    }
    sim.run_until_pred(SimTime::from_micros(3_700_000), |_| false);
    assert_eq!(promotions_proposed(&sim), 1);
    assert_eq!(rank0(&sim), format!("node={},up=1", ACTIVE.0));
    sim.run_until_pred(SimTime::from_micros(3_800_000), |_| false);
    assert_eq!(promotions_proposed(&sim), 2, "not proposed again");
    sim.network_mut().heal_all();
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(rank0(&sim), format!("node={},up=1", STANDBY.0));
    assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
    // Both proposals are chosen once the quorum is back; the second
    // went out under the first's seq and applies nothing, so the
    // failover counts once.
    assert_eq!(promotions(&sim, STANDBY), 1);
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
}

/// Two ranks go silent a beacon's jitter apart, and the one standby is
/// promoted into the first while that promotion is still uncommitted
/// when the second is reaped: the second is marked down, not filled
/// with the same standby.
#[test]
fn a_standby_being_promoted_is_not_promoted_into_a_second_rank() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    let (two, ten) = (NodeId(202), NodeId(210));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        let updates = vec![
            MapUpdate::set(SERVICE_MAP_MDS, "mds.2", format!("node={},up=1", two.0)),
            MapUpdate::set(SERVICE_MAP_MDS, "mds.10", format!("node={},up=1", ten.0)),
        ];
        ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
    });
    sim.add_node(two, Beaconer(Some(2)));
    sim.add_node(ten, Beaconer(Some(10)));
    sim.add_node(STANDBY, Beaconer(None));
    sim.run_for(SimDuration::from_secs(1));
    sim.crash(two);
    sim.crash(ten);
    sim.run_for(SimDuration::from_secs(3));
    let view = sim.actor::<Monitor>(NodeId(0)).mdsmap();
    let on_standby = view.ranks.values().filter(|e| e.node == STANDBY).count();
    assert_eq!(on_standby, 1, "{view:?}");
    assert_eq!(view.up_ranks().len(), 1, "{view:?}");
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 1);
}

/// Two silent ranks and one standby: the standby fills the lowest
/// failed rank, as Ceph's MDSMonitor does, and the other stays down.
/// Ranks are walked in numeric order, so 2 comes before 10.
#[test]
fn a_standby_fills_the_lowest_failed_rank() {
    let mut sim = build(3, MonConfig::default());
    sim.run_for(SimDuration::from_millis(500));
    let (two, ten) = (NodeId(202), NodeId(210));
    sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
        let updates = vec![
            MapUpdate::set(SERVICE_MAP_MDS, "mds.2", format!("node={},up=1", two.0)),
            MapUpdate::set(SERVICE_MAP_MDS, "mds.10", format!("node={},up=1", ten.0)),
        ];
        ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
    });
    sim.add_node(two, Beaconer(Some(2)));
    sim.add_node(ten, Beaconer(Some(10)));
    sim.run_for(SimDuration::from_secs(1));
    // Both go silent and are marked down; then one standby registers.
    sim.crash(two);
    sim.crash(ten);
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 2);
    sim.add_node(STANDBY, Beaconer(None));
    sim.run_for(SimDuration::from_secs(1));
    let map = sim
        .actor::<Monitor>(NodeId(0))
        .map(SERVICE_MAP_MDS)
        .unwrap();
    let entry = |key: &str| String::from_utf8_lossy(&map.entries[key]).into_owned();
    assert_eq!(entry("mds.2"), format!("node={},up=1", STANDBY.0));
    assert_eq!(entry("mds.10"), format!("node={},up=0", ten.0));
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
}

#[test]
fn a_rank_whose_deadline_passed_while_its_monitor_followed_is_reaped_when_it_leads() {
    let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
    let leads = |sim: &Sim, rank: u32| sim.actor::<Monitor>(NodeId(rank)).is_leader();
    // Monitor 0, which the MDS daemons beacon, is cut off; monitor 1
    // takes over, and monitor 0 steps down once it hears of it.
    for peer in [NodeId(1), NodeId(2)] {
        sim.network_mut().sever(NodeId(0), peer);
    }
    let far = SimTime::from_micros(20_000_000);
    assert!(sim.run_until_pred(far, |s| leads(s, 1)));
    sim.network_mut().heal_all();
    assert!(sim.run_until_pred(far, |s| !leads(s, 0)));
    // The active daemon crashes, and its deadline passes while monitor
    // 0 follows: nobody reaps it.
    let crash = sim.now();
    sim.crash(ACTIVE);
    sim.run_until_pred(crash + SimDuration::from_secs(3), |_| false);
    assert!(!leads(&sim, 0));
    assert_eq!(rank0(&sim), format!("node={},up=1", ACTIVE.0));
    // Monitor 1 crashes; monitor 0 is the first to campaign and leads
    // again, and reaps the silent rank within a grace.
    sim.crash(NodeId(1));
    assert!(sim.run_until_pred(far, |s| leads(s, 0)));
    let led_at = sim.now();
    let promoted = sim.run_until_pred(led_at + SimDuration::from_millis(1100), |s| {
        promotions(s, STANDBY) == 1
    });
    assert!(promoted, "rank 0 still {}", rank0(&sim));
}

#[test]
fn a_rank_that_never_beaconed_is_left_alone() {
    // Rank 0 is on a node that never beacons; the standby does.
    let silent = NodeId(300);
    let mut sim = mds_quorum(MonConfig::default(), silent, true);
    sim.crash(ACTIVE);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(rank0(&sim), format!("node={},up=1", silent.0));
    let map = sim
        .actor::<Monitor>(NodeId(0))
        .map(SERVICE_MAP_MDS)
        .unwrap();
    assert!(map.entries.contains_key(&format!("standby.{}", STANDBY.0)));
    assert_eq!(sim.metrics().counter("mon.mds_failovers"), 0);
    assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 0);
}
