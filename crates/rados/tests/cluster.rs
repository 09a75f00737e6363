//! Integration tests: a full simulated RADOS cluster — monitors, OSDs, and
//! clients — exercising replication, dynamic interface installation,
//! failure recovery, and scrub repair.

use mala_consensus::{MapUpdate, MonConfig, MonMsg, Monitor, SERVICE_MAP_INTERFACES};
use mala_rados::client::request;
use mala_rados::{Op, OpResult, Osd, OsdConfig, OsdMapView, PoolInfo, RadosClient};
use mala_sim::{NodeId, Sim, SimDuration};

const MON: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(100);

/// Node id hosting OSD `i`.
fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

/// Builds a cluster: 1 monitor, `osds` OSDs, 1 client, and a `data` pool.
fn build_cluster(osds: u32, replicas: u32, osd_config: OsdConfig) -> Sim {
    let mut sim = Sim::new(11);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..osds {
        sim.add_node(osd_node(i), Osd::new(i, MON, osd_config.clone()));
    }
    sim.add_node(CLIENT, RadosClient::new(MON));
    // Register the pool and OSD membership.
    let mut updates = vec![OsdMapView::update_pool(
        "data",
        PoolInfo {
            pg_num: 32,
            replicas,
        },
    )];
    for i in 0..osds {
        updates.push(OsdMapView::update_osd(i, osd_node(i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    // One proposal interval plus margin for the map to commit and spread.
    sim.run_for(SimDuration::from_secs(3));
    sim
}

fn oid(name: &str) -> mala_rados::ObjectId {
    mala_rados::ObjectId::new("data", name)
}

#[test]
fn write_replicates_to_full_acting_set() {
    let mut sim = build_cluster(5, 3, OsdConfig::default());
    let ev = request(
        &mut sim,
        CLIENT,
        oid("obj-1"),
        vec![Op::Append {
            data: b"hello".to_vec(),
        }],
        SimDuration::from_secs(5),
    );
    assert!(ev.result.is_ok(), "{:?}", ev.result);
    sim.run_for(SimDuration::from_millis(50));
    let holders = (0..5)
        .filter(|i| {
            sim.actor::<Osd>(osd_node(*i))
                .store()
                .contains_key(&oid("obj-1"))
        })
        .count();
    assert_eq!(holders, 3, "object must live on exactly the acting set");
}

#[test]
fn read_after_write_round_trip() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    request(
        &mut sim,
        CLIENT,
        oid("kv"),
        vec![
            Op::OmapSet {
                key: "color".into(),
                value: b"green".to_vec(),
            },
            Op::Append {
                data: b"body".to_vec(),
            },
        ],
        SimDuration::from_secs(5),
    )
    .result
    .unwrap();
    let ev = request(
        &mut sim,
        CLIENT,
        oid("kv"),
        vec![
            Op::OmapGet {
                key: "color".into(),
            },
            Op::Read { offset: 0, len: 4 },
        ],
        SimDuration::from_secs(5),
    );
    let results = ev.result.unwrap();
    assert_eq!(results[0], OpResult::Maybe(Some(b"green".to_vec())));
    assert_eq!(results[1], OpResult::Data(b"body".to_vec()));
}

#[test]
fn scripted_interface_installs_cluster_wide_and_executes() {
    // Force gossip for most OSDs; two subscribers are re-enabled below.
    let config = OsdConfig {
        subscribe_to_monitor: false,
        ..OsdConfig::default()
    };
    let mut sim = Sim::new(13);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..8 {
        let mut cfg = config.clone();
        cfg.subscribe_to_monitor = i < 2; // only two OSDs hear the monitor
        sim.add_node(osd_node(i), Osd::new(i, MON, cfg));
    }
    sim.add_node(CLIENT, RadosClient::new(MON));
    let mut updates = vec![OsdMapView::update_pool(
        "data",
        PoolInfo {
            pg_num: 32,
            replicas: 2,
        },
    )];
    for i in 0..8 {
        updates.push(OsdMapView::update_osd(i, osd_node(i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));

    // Install a scripted class through the Service Metadata interface.
    let class_src = r#"
        function put(input)
            omap_set("payload", input)
            return "ok"
        end
        function get(input)
            local v = omap_get("payload")
            if v == nil then return "" end
            return v
        end
    "#;
    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 2,
            updates: vec![MapUpdate::set(
                SERVICE_MAP_INTERFACES,
                "kvdemo",
                class_src.as_bytes().to_vec(),
            )],
        },
    );
    sim.run_for(SimDuration::from_secs(5));
    // Every OSD — subscriber or not — must have the class live via gossip.
    for i in 0..8 {
        let osd = sim.actor::<Osd>(osd_node(i));
        assert!(
            osd.registry().scripted_version("kvdemo").is_some(),
            "osd {i} never installed the interface"
        );
    }
    // And the class is callable end-to-end.
    let ev = request(
        &mut sim,
        CLIENT,
        oid("scripted"),
        vec![Op::Call {
            class: "kvdemo".into(),
            method: "put".into(),
            input: b"42".to_vec(),
        }],
        SimDuration::from_secs(5),
    );
    assert_eq!(ev.result.unwrap()[0], OpResult::CallOut(b"ok".to_vec()));
    let ev = request(
        &mut sim,
        CLIENT,
        oid("scripted"),
        vec![Op::Call {
            class: "kvdemo".into(),
            method: "get".into(),
            input: Vec::new(),
        }],
        SimDuration::from_secs(5),
    );
    assert_eq!(ev.result.unwrap()[0], OpResult::CallOut(b"42".to_vec()));
}

#[test]
fn interface_upgrade_takes_effect_without_restart() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    for (seq, reply) in [(2u64, "v1"), (3u64, "v2")] {
        let src = format!("function which(input) return \"{reply}\" end");
        sim.inject(
            MON,
            MonMsg::Submit {
                seq,
                updates: vec![MapUpdate::set(
                    SERVICE_MAP_INTERFACES,
                    "ver",
                    src.into_bytes(),
                )],
            },
        );
        sim.run_for(SimDuration::from_secs(3));
        let ev = request(
            &mut sim,
            CLIENT,
            oid("verobj"),
            vec![Op::Call {
                class: "ver".into(),
                method: "which".into(),
                input: Vec::new(),
            }],
            SimDuration::from_secs(5),
        );
        assert_eq!(
            ev.result.unwrap()[0],
            OpResult::CallOut(reply.as_bytes().to_vec())
        );
    }
}

#[test]
fn primary_failure_recovers_data_and_serves_reads() {
    let mut sim = build_cluster(5, 3, OsdConfig::default());
    request(
        &mut sim,
        CLIENT,
        oid("precious"),
        vec![Op::Append {
            data: b"survive-me".to_vec(),
        }],
        SimDuration::from_secs(5),
    )
    .result
    .unwrap();
    // Find and kill the primary.
    let primary = {
        let osdmap = |sim: &Sim| -> OsdMapView {
            OsdMapView::from_snapshot(sim.actor::<Monitor>(MON).map("osdmap").unwrap())
        };
        osdmap(&sim).acting_set_for("data", "precious").unwrap()[0]
    };
    sim.crash(osd_node(primary));
    // The harness plays the monitor's failure detector: mark it down.
    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 99,
            updates: vec![OsdMapView::update_osd(primary, osd_node(primary), false)],
        },
    );
    // Let the new map commit, propagate, and recovery pulls complete.
    sim.run_for(SimDuration::from_secs(8));
    let ev = request(
        &mut sim,
        CLIENT,
        oid("precious"),
        vec![Op::Read {
            offset: 0,
            len: 100,
        }],
        SimDuration::from_secs(10),
    );
    assert_eq!(
        ev.result.unwrap()[0],
        OpResult::Data(b"survive-me".to_vec()),
        "data must survive primary failure"
    );
    assert!(sim.metrics().counter("osd.recovery_pulls") > 0);
}

#[test]
fn scrub_repairs_corrupted_replica() {
    let cfg = OsdConfig {
        scrub_interval: Some(SimDuration::from_secs(2)),
        ..OsdConfig::default()
    };
    let mut sim = build_cluster(3, 3, cfg);
    request(
        &mut sim,
        CLIENT,
        oid("checked"),
        vec![Op::Append {
            data: b"golden".to_vec(),
        }],
        SimDuration::from_secs(5),
    )
    .result
    .unwrap();
    sim.run_for(SimDuration::from_millis(100));
    // Corrupt one replica behind the system's back (bit rot).
    let acting = OsdMapView::from_snapshot(sim.actor::<Monitor>(MON).map("osdmap").unwrap())
        .acting_set_for("data", "checked")
        .unwrap();
    let victim = acting[1];
    {
        let osd = sim.actor_mut::<Osd>(osd_node(victim));
        // Test-only backdoor: mutate the stored object directly.
        let obj = osd_store_mut(osd);
        obj.data = b"rotten".to_vec();
    }
    // Wait for a scrub cycle plus repair.
    sim.run_for(SimDuration::from_secs(6));
    assert!(sim.metrics().counter("osd.scrub_repairs") > 0);
    let osd = sim.actor::<Osd>(osd_node(victim));
    assert_eq!(
        osd.store().get(&oid("checked")).unwrap().data,
        b"golden".to_vec(),
        "scrub must restore the primary's copy"
    );
}

/// Test helper: mutable access to the single stored object of an OSD.
fn osd_store_mut(osd: &mut Osd) -> &mut mala_rados::Object {
    osd.store_mut().values_mut().next().expect("one object")
}

#[test]
fn client_handles_stale_epoch_after_map_change() {
    let mut sim = build_cluster(4, 2, OsdConfig::default());
    request(
        &mut sim,
        CLIENT,
        oid("epoch-test"),
        vec![Op::Append {
            data: b"x".to_vec(),
        }],
        SimDuration::from_secs(5),
    )
    .result
    .unwrap();
    // Bump the map (add an OSD) without telling the client: subscriber
    // notification races are resolved by the stale-epoch handshake.
    sim.add_node(osd_node(9), Osd::new(9, MON, OsdConfig::default()));
    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 50,
            updates: vec![OsdMapView::update_osd(9, osd_node(9), true)],
        },
    );
    sim.run_for(SimDuration::from_secs(4));
    let ev = request(
        &mut sim,
        CLIENT,
        oid("epoch-test"),
        vec![Op::Stat],
        SimDuration::from_secs(10),
    );
    assert!(matches!(
        ev.result.unwrap()[0],
        OpResult::Stat { exists: true, .. }
    ));
}

/// Request ids are seeded from the clock at start, so a client restarted on
/// its node is not answered from the reply cache of its previous life:
/// counting from 1 again, its first request would carry the id of the old
/// life's append and come back with that append's cached reply.
#[test]
fn restarted_client_is_not_answered_from_the_reply_cache_of_its_previous_life() {
    // One OSD: every object has the same primary, so the same cache.
    let mut sim = build_cluster(1, 1, OsdConfig::default());
    let append = vec![Op::Append {
        data: b"a previous life".to_vec(),
    }];
    let first = request(
        &mut sim,
        CLIENT,
        oid("kept"),
        append,
        SimDuration::from_secs(5),
    );
    assert!(first.result.is_ok(), "{:?}", first.result);
    sim.crash(CLIENT);
    sim.restart(CLIENT, RadosClient::new(MON));
    sim.run_for(SimDuration::from_secs(1));
    // Executed, the read finds no such object.
    let read = vec![Op::Read { offset: 0, len: 16 }];
    let ev = request(
        &mut sim,
        CLIENT,
        oid("never-written"),
        read,
        SimDuration::from_secs(5),
    );
    assert_eq!(ev.result, Err(mala_rados::OsdError::NoEnt));
    assert!(ev.reqid > first.reqid);
}

/// A cancelled request is no longer the client's: nothing more is sent for
/// it and no completion surfaces — not for one still being retransmitted,
/// not for one that completed and was not collected yet.
#[test]
fn cancelled_request_sends_nothing_more_and_surfaces_no_completion() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    let append = || {
        vec![Op::Append {
            data: b"abandoned".to_vec(),
        }]
    };
    // No OSD hears the client: the request is retransmitted with backoff.
    for i in 0..3 {
        sim.network_mut().sever(CLIENT, osd_node(i));
    }
    let lost = sim
        .with_actor::<RadosClient, _>(CLIENT, |c, ctx| c.submit(ctx, oid("abandoned"), append()));
    sim.run_for(SimDuration::from_millis(200));
    let retries = sim.metrics().counter("client.retries");
    assert!(retries >= 2, "only {retries} retransmissions in 200 ms");
    assert!(sim.actor::<RadosClient>(CLIENT).holds_requests());
    sim.with_actor::<RadosClient, _>(CLIENT, |c, ctx| c.cancel(ctx, lost));
    assert!(!sim.actor::<RadosClient>(CLIENT).holds_requests());
    // The links come back; a request still the client's would now land.
    sim.network_mut().heal_all();
    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(sim.metrics().counter("client.retries"), retries);
    assert_eq!(sim.metrics().counter("client.cancelled"), 1);
    assert_eq!(sim.metrics().counter("client.completed"), 0);
    assert_eq!(sim.metrics().counter("client.timeouts"), 0);
    let client = sim.actor::<RadosClient>(CLIENT);
    assert!(!client.is_completed(lost) && !client.holds_completions());
    for i in 0..3 {
        let store = sim.actor::<Osd>(osd_node(i)).store();
        assert!(!store.contains_key(&oid("abandoned")), "osd {i} got it");
    }

    // Completed and not collected yet: the completion goes too.
    let done = sim
        .with_actor::<RadosClient, _>(CLIENT, |c, ctx| c.submit(ctx, oid("uncollected"), append()));
    let deadline = sim.now() + SimDuration::from_secs(5);
    assert!(sim.run_until_pred(deadline, |s| {
        s.actor::<RadosClient>(CLIENT).is_completed(done)
    }));
    sim.with_actor::<RadosClient, _>(CLIENT, |c, ctx| c.cancel(ctx, done));
    let client = sim.actor_mut::<RadosClient>(CLIENT);
    assert!(client.take_completed(done).is_none() && !client.holds_completions());
}

#[test]
fn lock_class_serializes_two_clients() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    sim.add_node(NodeId(101), RadosClient::new(MON));
    sim.run_for(SimDuration::from_secs(1));
    let lock = |sim: &mut Sim, client: NodeId, owner: &str| {
        request(
            sim,
            client,
            oid("mutex"),
            vec![
                Op::Create { exclusive: false },
                Op::Call {
                    class: "lock".into(),
                    method: "lock".into(),
                    input: owner.as_bytes().to_vec(),
                },
            ],
            SimDuration::from_secs(5),
        )
        .result
    };
    assert!(lock(&mut sim, CLIENT, "alice").is_ok());
    let denied = lock(&mut sim, NodeId(101), "bob");
    assert!(denied.is_err(), "second locker must be rejected");
    // Unlock, then bob succeeds.
    request(
        &mut sim,
        CLIENT,
        oid("mutex"),
        vec![Op::Call {
            class: "lock".into(),
            method: "unlock".into(),
            input: b"alice".to_vec(),
        }],
        SimDuration::from_secs(5),
    )
    .result
    .unwrap();
    assert!(lock(&mut sim, NodeId(101), "bob").is_ok());
}

#[test]
fn transactions_are_atomic_across_replicas() {
    let mut sim = build_cluster(3, 3, OsdConfig::default());
    // A failing transaction must leave no trace anywhere.
    let ev = request(
        &mut sim,
        CLIENT,
        oid("atomic"),
        vec![
            Op::OmapSet {
                key: "a".into(),
                value: b"1".to_vec(),
            },
            Op::OmapCmpXchg {
                key: "never".into(),
                expect: Some(b"set".to_vec()),
                value: b"x".to_vec(),
            },
        ],
        SimDuration::from_secs(5),
    );
    assert!(ev.result.is_err());
    sim.run_for(SimDuration::from_millis(100));
    for i in 0..3 {
        let osd = sim.actor::<Osd>(osd_node(i));
        if let Some(obj) = osd.store().get(&oid("atomic")) {
            assert!(obj.omap.is_empty(), "osd {i} kept partial state");
        }
    }
}
