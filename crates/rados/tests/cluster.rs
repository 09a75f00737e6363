//! Integration tests: a full simulated RADOS cluster — monitors, OSDs, and
//! clients — exercising replication, dynamic interface installation,
//! failure recovery, and scrub repair.

use mala_consensus::{MapUpdate, MapView, MonConfig, MonMsg, Monitor, SERVICE_MAP_INTERFACES};
use mala_dsl::Vm;
use mala_rados::client::{request, REQUEST_DEADLINE};
use mala_rados::{
    ClassRegistry, JournalSet, Object, ObjectId, Op, OpResult, Osd, OsdConfig, OsdError,
    OsdMapView, OsdMsg, PoolInfo, RadosClient, Transaction,
};
use mala_sim::{Actor, Context, NodeId, Sim, SimDuration};
use std::any::Any;
use std::rc::Rc;

const MON: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(100);

/// Node id hosting OSD `i`.
fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

/// Builds a cluster: 1 monitor, `osds` OSDs, 1 client, and a `data` pool.
fn build_cluster(osds: u32, replicas: u32, osd_config: OsdConfig) -> Sim {
    build_cluster_of(osds, replicas, |i| Osd::new(i, MON, osd_config.clone()))
}

/// [`build_cluster`] with every OSD journalling into `journals`.
fn build_journaled_cluster(osds: u32, replicas: u32, journals: &JournalSet) -> Sim {
    build_cluster_of(osds, replicas, |i| journaled_osd(i, journals))
}

/// OSD `i` as it boots, and as it restarts, on its journal in `journals`.
fn journaled_osd(i: u32, journals: &JournalSet) -> Osd {
    let journal = journals.journal(osd_node(i));
    Osd::with_journal(i, MON, OsdConfig::default(), journal)
}

fn build_cluster_of(osds: u32, replicas: u32, osd: impl Fn(u32) -> Osd) -> Sim {
    let mut sim = Sim::new(11);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..osds {
        sim.add_node(osd_node(i), osd(i));
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

fn oid(name: &str) -> ObjectId {
    ObjectId::new("data", name)
}

/// The acting set of `data/name` under the monitor's committed osdmap.
fn acting_set(sim: &Sim, name: &str) -> Vec<u32> {
    OsdMapView::from_snapshot(sim.actor::<Monitor>(MON).map("osdmap").unwrap())
        .acting_set_for("data", name)
        .unwrap()
        .to_vec()
}

/// OSD `i`'s copy of `data/name`.
fn copy_on(sim: &Sim, i: u32, name: &str) -> Option<Object> {
    sim.actor::<Osd>(osd_node(i))
        .store()
        .get(&oid(name))
        .cloned()
}

/// Every acting-set member of `data/name` holds what the primary holds;
/// returns that.
fn assert_replicas_equal(sim: &Sim, name: &str) -> Option<Object> {
    let acting = acting_set(sim, name);
    let primary = copy_on(sim, acting[0], name);
    for osd in &acting[1..] {
        let copy = copy_on(sim, *osd, name);
        assert_eq!(copy, primary, "{name}: osd {osd} differs from the primary");
    }
    primary
}

fn call(class: &str, method: &str, input: &[u8]) -> Op {
    Op::Call {
        class: class.into(),
        method: method.into(),
        input: input.into(),
    }
}

/// The input of a one-entry zlog `write_batch`: `payload` at `pos` under
/// `epoch`.
fn write_one(epoch: u64, pos: u64, payload: &str) -> Vec<u8> {
    mala_zlog::encode_write_batch(epoch, &[(pos, payload.as_bytes())])
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
    assert_eq!(results[0], OpResult::Maybe(Some(b"green"[..].into())));
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
            input: b"42"[..].into(),
        }],
        SimDuration::from_secs(5),
    );
    assert_eq!(ev.result.unwrap()[0], OpResult::CallOut(b"ok"[..].into()));
    let ev = request(
        &mut sim,
        CLIENT,
        oid("scripted"),
        vec![Op::Call {
            class: "kvdemo".into(),
            method: "get".into(),
            input: Rc::default(),
        }],
        SimDuration::from_secs(5),
    );
    assert_eq!(ev.result.unwrap()[0], OpResult::CallOut(b"42"[..].into()));
}

/// One engine on production paths: the registry an OSD builds is a
/// `ClassRegistry<Vm>` — by its type, which is all that picks an engine —
/// and it is what runs the shipped zlog class for a client.
#[test]
fn an_osd_runs_the_zlog_class_on_the_vm() {
    use mala_zlog::{zlog_interface_update, ZLOG_CLASS};
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    let updates = vec![zlog_interface_update()];
    sim.inject(MON, MonMsg::Submit { seq: 2, updates });
    sim.run_for(SimDuration::from_secs(5));
    for i in 0..3 {
        let registry: &ClassRegistry<Vm> = sim.actor::<Osd>(osd_node(i)).registry();
        assert!(registry.scripted_version(ZLOG_CLASS).is_some(), "osd {i}");
    }
    for (method, input, reply) in [
        (
            "write_batch",
            write_one(0, 5, "hello"),
            OpResult::CallOut(b"1"[..].into()),
        ),
        ("read_batch", b"0|5".to_vec(), read_reply(5, b"D|hello")),
    ] {
        let ev = request(
            &mut sim,
            CLIENT,
            oid("stripe"),
            vec![call(ZLOG_CLASS, method, &input)],
            SimDuration::from_secs(5),
        );
        assert_eq!(ev.result.unwrap(), [reply], "{method}");
    }
}

/// A one-position zlog `read_batch` reply: the table the method returned,
/// `{pos, value}`, as the list of its items.
fn read_reply(pos: u64, value: &[u8]) -> OpResult {
    OpResult::CallList(vec![pos.to_string().as_bytes().into(), value.into()])
}

/// A host native is not a method of the class whose engine holds it:
/// `zlog.omap_del` sent by a client answers `NoClass` from the primary and
/// the written entry it named is still there, on every replica.
#[test]
fn a_host_native_is_not_a_remotely_callable_method() {
    use mala_zlog::{zlog_interface_update, ZLOG_CLASS};
    let mut sim = build_cluster(3, 3, OsdConfig::default());
    let updates = vec![zlog_interface_update()];
    sim.inject(MON, MonMsg::Submit { seq: 2, updates });
    sim.run_for(SimDuration::from_secs(5));
    let mut zlog = |method: &str, input: &[u8]| {
        let op = call(ZLOG_CLASS, method, input);
        request(
            &mut sim,
            CLIENT,
            oid("stripe"),
            vec![op],
            SimDuration::from_secs(5),
        )
        .result
    };
    let written: Rc<[u8]> = b"D|kept"[..].into();
    assert_eq!(
        zlog("write_batch", &write_one(0, 0, "kept")),
        Ok(vec![OpResult::CallOut(b"1"[..].into())])
    );
    for (native, input) in [
        ("omap_del", "e00000000000000000000"),
        ("omap_del_range", "e"),
        ("data_write", "0"),
        ("error", "EEXIST: made up"),
    ] {
        let refused = OsdError::NoClass(format!("{ZLOG_CLASS}.{native}"));
        assert_eq!(zlog(native, input.as_bytes()), Err(refused), "{native}");
        assert_eq!(
            zlog("read_batch", b"0|0"),
            Ok(vec![read_reply(0, &written)])
        );
    }
    sim.run_for(SimDuration::from_millis(50));
    let held = assert_replicas_equal(&sim, "stripe").expect("the stripe object");
    assert_eq!(held.omap["e00000000000000000000"], written);
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
                input: Rc::default(),
            }],
            SimDuration::from_secs(5),
        );
        assert_eq!(
            ev.result.unwrap()[0],
            OpResult::CallOut(reply.as_bytes().into())
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
    let primary = acting_set(&sim, "precious")[0];
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
    let victim = acting_set(&sim, "checked")[1];
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

/// A client embedded in an actor: each request waits with a name.
type Embedded = RadosClient<&'static str>;
const EMBEDDER: NodeId = NodeId(102);

/// Adds an [`Embedded`] client at [`EMBEDDER`] and lets it fetch the map.
fn add_embedder(sim: &mut Sim) {
    sim.add_node(EMBEDDER, Embedded::embedded(MON));
    sim.run_for(SimDuration::from_secs(1));
}

/// Appends to object `name` on behalf of `waiter`.
fn submit_as(sim: &mut Sim, name: &str, waiter: &'static str) -> u64 {
    let txn = vec![Op::Append {
        data: name.as_bytes().to_vec(),
    }];
    sim.with_actor::<Embedded, _>(EMBEDDER, |c, ctx| {
        c.submit_spanned(ctx, oid(name), txn, None, waiter, REQUEST_DEADLINE)
    })
}

/// Runs until the embedded client holds nothing in flight.
fn settle_embedder(sim: &mut Sim) {
    let deadline = sim.now() + SimDuration::from_secs(5);
    let settled = sim.run_until_pred(deadline, |s| {
        !s.actor::<Embedded>(EMBEDDER).holds_requests()
    });
    assert!(settled, "requests still in flight");
}

/// Drains the embedded client: `(reqid, waiter)` of every completion, in
/// the order the drain hands them out.
fn drain_embedder(sim: &mut Sim) -> Vec<(u64, &'static str)> {
    let client = sim.actor_mut::<Embedded>(EMBEDDER);
    let drain = client.drain_completed();
    let mut out = Vec::new();
    while let Some(event) = drain.next(client) {
        assert!(event.result.is_ok(), "{event:?}");
        out.push((event.reqid, event.waiter));
    }
    out
}

/// A request no OSD hears is retransmitted until the deadline its
/// submitter gave it, and completes with `Timeout` at that deadline to the
/// microsecond, not at the first retransmit due after it.
#[test]
fn a_request_times_out_at_its_own_deadline() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    add_embedder(&mut sim);
    for i in 0..3 {
        sim.network_mut().sever(EMBEDDER, osd_node(i));
    }
    let (timeout, submitted) = (SimDuration::from_millis(700), sim.now());
    let txn = vec![Op::Append {
        data: b"unheard".to_vec(),
    }];
    let reqid = sim.with_actor::<Embedded, _>(EMBEDDER, |c, ctx| {
        c.submit_spanned(ctx, oid("unheard"), txn, None, "unheard", timeout)
    });
    sim.run_until(submitted + (timeout - SimDuration::from_micros(1)));
    assert!(!sim.actor::<Embedded>(EMBEDDER).is_completed(reqid));
    assert!(sim.metrics().counter("client.retries") >= 3);
    sim.run_until(submitted + timeout);
    let client = sim.actor_mut::<Embedded>(EMBEDDER);
    let event = client
        .take_completed(reqid)
        .expect("timed out at its deadline");
    assert_eq!(
        (event.result, event.waiter),
        (Err(OsdError::Timeout), "unheard")
    );
    assert_eq!(sim.metrics().counter("client.timeouts"), 1);
}

/// A drain hands back every completion with the waiter its request was
/// submitted with, in ascending request order, whatever order the OSDs
/// answered in; the client holds nothing after it.
#[test]
fn a_drain_returns_every_completion_with_its_waiter_in_reqid_order() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    add_embedder(&mut sim);
    let names = ["w0", "w1", "w2", "w3", "w4", "w5"];
    let submitted: Vec<(u64, &str)> = names
        .iter()
        .map(|&name| (submit_as(&mut sim, name, name), name))
        .collect();
    settle_embedder(&mut sim);
    assert_eq!(sim.actor::<Embedded>(EMBEDDER).waiters().count(), 6);
    assert_eq!(drain_embedder(&mut sim), submitted);
    let client = sim.actor::<Embedded>(EMBEDDER);
    assert!(!client.holds_completions() && client.waiters().next().is_none());
}

/// A cancelled request's waiter never comes back: not for a request still
/// in flight, not for one completed and uncollected, and not for one whose
/// completion a drain under way had collected but not yet handed out.
#[test]
fn a_cancelled_requests_waiter_never_comes_back() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    add_embedder(&mut sim);
    let kept = submit_as(&mut sim, "kept", "kept");
    let uncollected = submit_as(&mut sim, "uncollected", "uncollected");
    let collected = submit_as(&mut sim, "collected", "collected");
    settle_embedder(&mut sim);
    for i in 0..3 {
        sim.network_mut().sever(EMBEDDER, osd_node(i));
    }
    let inflight = submit_as(&mut sim, "inflight", "inflight");
    sim.run_for(SimDuration::from_millis(50));
    let client = sim.actor::<Embedded>(EMBEDDER);
    let waiter = |reqid| client.waiters().find(|(r, _)| *r == reqid).map(|(_, w)| *w);
    assert_eq!(waiter(inflight), Some("inflight"));
    assert_eq!(waiter(uncollected), Some("uncollected"));

    let handed = sim.with_actor::<Embedded, _>(EMBEDDER, |c, ctx| {
        c.cancel(ctx, inflight);
        c.cancel(ctx, uncollected);
        let drain = c.drain_completed();
        let first = drain.next(c).map(|event| (event.reqid, event.waiter));
        c.cancel(ctx, collected);
        let rest = drain.next(c).map(|event| event.reqid);
        (first, rest)
    });
    assert_eq!(handed, (Some((kept, "kept")), None));
    sim.network_mut().heal_all();
    sim.run_for(SimDuration::from_secs(30));
    let client = sim.actor::<Embedded>(EMBEDDER);
    assert!(client.waiters().next().is_none());
    assert!(!client.holds_requests() && !client.holds_completions());
    assert!(drain_embedder(&mut sim).is_empty());
}

/// Cancelling by waiter cancels exactly the requests the predicate
/// selects, and ends their `rados.op` spans in ascending request order
/// (the client's request table iterates in hash order); the others stay in
/// flight and complete.
#[test]
fn cancelling_by_waiter_ends_the_spans_in_reqid_order() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    add_embedder(&mut sim);
    for i in 0..3 {
        sim.network_mut().sever(EMBEDDER, osd_node(i));
    }
    // Every span that ends after lasting at all lands in the slow log, in
    // the order it ended.
    sim.tracer_mut().set_slow_threshold(Some(SimDuration::ZERO));
    let first_span = sim.tracer().spans().len();
    let names = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
    let waiters = |i: usize| if i.is_multiple_of(2) { "drop" } else { "keep" };
    for (i, name) in names.iter().enumerate() {
        submit_as(&mut sim, name, waiters(i));
    }
    sim.run_for(SimDuration::from_millis(5));
    // One `rados.op` span per request, opened in submission order, which
    // is request order.
    let spans: Vec<u64> = sim.tracer().spans()[first_span..]
        .iter()
        .filter(|span| span.name == "rados.op" && span.node == EMBEDDER)
        .map(|span| span.id.0)
        .collect();
    assert_eq!(spans.len(), names.len());
    let dropped: Vec<u64> = spans.iter().step_by(2).copied().collect();

    let (cancelled, slow) = (
        sim.metrics().counter("client.cancelled"),
        sim.tracer().slow_ops().len(),
    );
    sim.with_actor::<Embedded, _>(EMBEDDER, |c, ctx| c.cancel_where(ctx, |w| *w == "drop"));
    assert_eq!(sim.metrics().counter("client.cancelled"), cancelled + 4);
    let ended: Vec<u64> = sim.tracer().slow_ops()[slow..]
        .iter()
        .map(|line| {
            let id = line.split("span=").nth(1).and_then(|s| s.split(' ').next());
            id.and_then(|id| id.parse().ok())
                .expect("a slow-op line names its span")
        })
        .collect();
    assert_eq!(ended, dropped, "the dropped requests end in reqid order");
    let client = sim.actor::<Embedded>(EMBEDDER);
    assert!(client.waiters().all(|(_, w)| *w == "keep"));

    sim.network_mut().heal_all();
    settle_embedder(&mut sim);
    let drained = drain_embedder(&mut sim);
    assert_eq!(drained.len(), 4);
    assert!(drained.iter().all(|(_, waiter)| *waiter == "keep"));
    assert_eq!(sim.metrics().counter("client.cancelled"), cancelled + 4);
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
                    input: owner.as_bytes().into(),
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
            input: b"alice"[..].into(),
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

/// Interface-version skew: only the primary has heard of the class. The
/// write must still land on every acting-set member, because replicas take
/// the primary's effect and run nothing themselves. (While `Repl` carried
/// the transaction, OSDs 1 and 2 answered themselves `NoClass`, cached
/// that, acked, and held nothing, and the client was told `ok`.)
#[test]
fn replicas_converge_under_interface_version_skew() {
    let quiet = |subscribe_to_monitor| OsdConfig {
        subscribe_to_monitor,
        gossip_fanout: 0,
        gossip_interval: SimDuration::from_secs(3600),
        ..OsdConfig::default()
    };
    let mut sim = build_cluster_of(3, 3, |i| Osd::new(i, MON, quiet(i == 0)));
    let class_src = r#"
        function put(input)
            omap_set("payload", input)
            return "stored"
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
    for i in 0..3 {
        let live = sim.actor::<Osd>(osd_node(i)).registry();
        let live = live.scripted_version("kvdemo").is_some();
        assert_eq!(live, i == 0, "osd {i}: kvdemo live = {live}");
    }
    let name = (0..)
        .map(|k| format!("skew-{k}"))
        .find(|name| acting_set(&sim, name)[0] == 0)
        .unwrap();
    let ev = request(
        &mut sim,
        CLIENT,
        oid(&name),
        vec![call("kvdemo", "put", b"42")],
        SimDuration::from_secs(5),
    );
    let expected = Ok(vec![OpResult::CallOut(b"stored"[..].into())]);
    assert_eq!(ev.result, expected);
    for i in 0..3 {
        let osd = sim.actor::<Osd>(osd_node(i));
        let held = osd.store().get(&oid(&name)).map(|o| o.omap.get("payload"));
        assert_eq!(
            held,
            Some(Some(&b"42"[..].into())),
            "osd {i} holds {held:?}"
        );
        let cached = osd.cached_reply(CLIENT, ev.reqid);
        assert_eq!(cached, Some(&expected), "osd {i} would answer {cached:?}");
    }
}

/// Mixed transactions through a 3-replica pool: whatever a transaction does
/// at the primary — class code, byte-stream edits, key deletes, a remove and
/// re-create, nothing at all — each replica ends up with the primary's
/// object and the primary's answer.
#[test]
fn replicas_hold_the_primarys_object_after_mixed_transactions() {
    let mut sim = build_cluster(3, 3, OsdConfig::default());
    let name = "mixed";
    let append = |data: &[u8]| Op::Append {
        data: data.to_vec(),
    };
    let set = |key: &str, value: &[u8]| Op::OmapSet {
        key: key.into(),
        value: value.to_vec(),
    };
    let xset = |key: &str, value: &[u8]| Op::XattrSet {
        key: key.into(),
        value: value.to_vec(),
    };
    // Runs `txn`; every replica must then hold the primary's object and,
    // if the primary said `Ok`, the primary's answer. A replica hears
    // nothing of a transaction that failed.
    let run = |sim: &mut Sim, txn: Transaction| {
        let ev = request(sim, CLIENT, oid(name), txn, SimDuration::from_secs(5));
        let object = assert_replicas_equal(sim, name);
        let shipped = ev.result.is_ok().then_some(&ev.result);
        for osd in &acting_set(sim, name)[1..] {
            let cached = sim
                .actor::<Osd>(osd_node(*osd))
                .cached_reply(CLIENT, ev.reqid);
            assert_eq!(cached, shipped, "osd {osd}: reply to {}", ev.reqid);
        }
        (ev.result, object)
    };

    // Class calls: an xattr set, a counter whose output is not repeatable,
    // an xattr delete.
    run(&mut sim, vec![call("lock", "lock", b"alice")])
        .0
        .unwrap();
    let (counted, _) = run(&mut sim, vec![call("refcount", "get", b"")]);
    assert_eq!(counted, Ok(vec![OpResult::CallOut(b"1"[..].into())]));
    let (_, object) = run(&mut sim, vec![call("lock", "unlock", b"alice")]);
    assert!(!object.unwrap().xattrs.contains_key("lock.owner"));

    // The byte stream: append, overwrite past the end, truncate both ways.
    run(&mut sim, vec![append(b"0123456789"), set("k", b"v1")])
        .0
        .unwrap();
    let write = Op::Write {
        offset: 12,
        data: b"xy".to_vec(),
    };
    run(&mut sim, vec![write, Op::Truncate { size: 13 }])
        .0
        .unwrap();
    let (_, object) = run(&mut sim, vec![Op::Truncate { size: 4 }, append(b"!")]);
    assert_eq!(object.unwrap().data, b"0123!");
    let (_, object) = run(&mut sim, vec![Op::Truncate { size: 7 }]);
    assert_eq!(object.unwrap().data, b"0123!\0\0");

    // Keys: set and delete in one transaction, delete of an earlier one.
    let del = |key: &str| Op::OmapDel { key: key.into() };
    run(&mut sim, vec![set("gone", b"x"), del("gone"), del("k")])
        .0
        .unwrap();
    run(&mut sim, vec![xset("colour", b"green"), set("k", b"v2")])
        .0
        .unwrap();

    // A mutation that touches nothing ships no effect; the replicas still
    // record its answer (`run` checks that).
    let before = assert_replicas_equal(&sim, name);
    let (result, object) = run(&mut sim, vec![del("never-set")]);
    assert_eq!(result, Ok(vec![OpResult::Done]));
    assert_eq!(object, before);

    // A failing transaction: rolled back at the primary, nothing shipped,
    // nothing replicated.
    let cmp = Op::OmapCmpXchg {
        key: "k".into(),
        expect: Some(b"v1".to_vec()),
        value: b"v3".to_vec(),
    };
    let (result, object) = run(&mut sim, vec![set("half", b"done"), cmp]);
    assert_eq!(result, Err(OsdError::CmpFailed));
    assert_eq!(object, before);

    // Remove then re-create in one transaction: the copy starts over.
    let (_, object) = run(
        &mut sim,
        vec![
            Op::Remove,
            Op::Create { exclusive: true },
            set("fresh", b"1"),
        ],
    );
    let mut fresh = Object::new();
    fresh.omap.insert("fresh".into(), b"1"[..].into());
    assert_eq!(object, Some(fresh));

    // Remove alone: gone everywhere.
    let (_, object) = run(&mut sim, vec![Op::Remove]);
    assert_eq!(object, None);
    for i in 0..3 {
        assert_eq!(
            copy_on(&sim, i, name),
            None,
            "osd {i} kept a removed object"
        );
    }
}

/// Submits `txn` without waiting for it.
fn submit(sim: &mut Sim, name: &str, txn: Transaction) -> u64 {
    sim.with_actor::<RadosClient, _>(CLIENT, |c, ctx| c.submit(ctx, oid(name), txn))
}

/// Runs until `reqid` completes and returns its result.
fn wait_for(sim: &mut Sim, reqid: u64) -> Result<Vec<OpResult>, OsdError> {
    let deadline = sim.now() + SimDuration::from_secs(30);
    let done = sim.run_until_pred(deadline, |s| {
        s.actor::<RadosClient>(CLIENT).is_completed(reqid)
    });
    assert!(done, "request {reqid} never completed");
    let client = sim.actor_mut::<RadosClient>(CLIENT);
    client.take_completed(reqid).unwrap().result
}

/// A replica's ack is lost, the client retransmits while the primary still
/// waits, and the primary re-sends the same effect: the replica journals
/// and applies it once, and acks the copy from its reply window.
#[test]
fn redriven_effect_is_applied_once() {
    let journals = JournalSet::new();
    let mut sim = build_journaled_cluster(3, 3, &journals);
    let name = "redriven";
    let acting = acting_set(&sim, name);
    let (primary, replica) = (acting[0], acting[1]);

    let handled = sim.metrics().counter("osd.ops");
    let append = vec![Op::Append {
        data: b"once".to_vec(),
    }];
    let reqid = submit(&mut sim, name, append);
    // The primary has applied and sent; cut its link to one replica while
    // the effect is on the wire, so that replica's ack goes nowhere.
    let deadline = sim.now() + SimDuration::from_secs(1);
    assert!(sim.run_until_pred(deadline, |s| s.metrics().counter("osd.ops") > handled));
    sim.network_mut()
        .sever(osd_node(primary), osd_node(replica));
    sim.run_for(SimDuration::from_millis(5));
    let held = copy_on(&sim, replica, name).unwrap();
    assert_eq!(held.data, b"once");
    let answer = Ok(vec![OpResult::Done]);
    let on = |sim: &Sim, osd: u32| {
        let cached = sim.actor::<Osd>(osd_node(osd)).cached_reply(CLIENT, reqid);
        cached.cloned()
    };
    assert_eq!(on(&sim, replica), Some(answer.clone()));
    assert_eq!(on(&sim, primary), None, "primary answered short an ack");
    assert!(!sim.actor::<RadosClient>(CLIENT).is_completed(reqid));
    let journalled = journals.journal(osd_node(replica)).appends();

    sim.network_mut().heal_all();
    assert_eq!(wait_for(&mut sim, reqid), answer);
    assert_eq!(sim.metrics().counter("osd.dup_repls"), 1);
    assert_eq!(
        journals.journal(osd_node(replica)).appends(),
        journalled,
        "the re-sent effect was journalled again"
    );
    assert_eq!(on(&sim, primary), Some(answer));
    assert_eq!(assert_replicas_equal(&sim, name), Some(held));
}

/// An effect that reaches a joiner while the object's PG is still
/// backfilling is parked and applied on top of the snapshot. Here the
/// snapshot comes from the primary, which applied the write before it
/// shipped either and still counts it in flight, so its reply window does
/// not vouch for it: the joiner applies a post-image the snapshot already
/// holds, and nothing changes. (Re-running the transaction there appended
/// the bytes a second time.)
#[test]
fn effect_parked_during_backfill_is_applied_once() {
    let mut sim = build_cluster(3, 3, OsdConfig::default());
    let names: Vec<String> = (0..16).map(|k| format!("bf-{k}")).collect();
    for name in &names {
        let append = vec![Op::Append {
            data: b"a".to_vec(),
        }];
        let ev = request(
            &mut sim,
            CLIENT,
            oid(name),
            append,
            SimDuration::from_secs(5),
        );
        ev.result.unwrap();
    }
    // A backfill pulls from the PG's prior members in their old acting-set
    // order, one pull a tick.
    let prior: Vec<Vec<u32>> = names.iter().map(|name| acting_set(&sim, name)).collect();
    // OSD 3 joins cut off from its peers: it hears the map from the
    // monitor, opens a backfill for every PG it gained, and its pulls are
    // lost.
    let joiner = 3;
    sim.add_node(
        osd_node(joiner),
        Osd::new(joiner, MON, OsdConfig::default()),
    );
    for i in 0..3 {
        sim.network_mut().sever(osd_node(joiner), osd_node(i));
    }
    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 2,
            updates: vec![OsdMapView::update_osd(joiner, osd_node(joiner), true)],
        },
    );
    let deadline = sim.now() + SimDuration::from_secs(20);
    assert!(
        sim.run_until_pred(deadline, |s| s.metrics().counter("osd.backfills_started")
            > 0)
    );
    let opened = sim.metrics().counter("osd.backfills_started");
    let (k, name) = names
        .iter()
        .enumerate()
        .find(|(_, name)| acting_set(&sim, name)[1..].contains(&joiner))
        .unwrap();
    let primary = acting_set(&sim, name)[0];
    // Every backfill re-pulls on the same tick. Once this PG's second pull
    // to its primary is lost, that link heals: the next two pulls go to the
    // other prior members and are lost too, and the third, three ticks on,
    // reaches the primary.
    let turn = 3 + prior[k].iter().position(|osd| *osd == primary).unwrap() as u64;
    assert!(sim.run_until_pred(deadline, |s| {
        s.metrics().counter("osd.backfill_retries") == turn * opened
    }));
    sim.network_mut().heal(osd_node(joiner), osd_node(primary));
    sim.run_for(SimDuration::from_millis(10));
    assert_eq!(sim.metrics().counter("osd.backfills_completed"), 0);
    assert_eq!(copy_on(&sim, joiner, name), None);
    let append = vec![Op::Append {
        data: b"b".to_vec(),
    }];
    let reqid = submit(&mut sim, name, append);
    // Held back by the joiner's ack, which waits for the snapshot.
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(copy_on(&sim, joiner, name), None);
    assert!(!sim.actor::<RadosClient>(CLIENT).is_completed(reqid));
    let parked = sim.metrics().counter("osd.backfill_deferred_repls");
    assert!(parked >= 1, "nothing was parked");
    assert_eq!(wait_for(&mut sim, reqid), Ok(vec![OpResult::Done]));

    let m = sim.metrics();
    assert!(m.counter("osd.backfills_completed") >= 1);
    // The client's retransmits re-sent the effect, and each copy was parked
    // too: all but one are answered from a reply window.
    let parked = m.counter("osd.backfill_deferred_repls");
    let deduped = m.counter("osd.backfill_deduped_repls") + m.counter("osd.dup_repls");
    assert!(parked - deduped <= 1, "{parked} parked, {deduped} deduped");
    let object = assert_replicas_equal(&sim, name).unwrap();
    assert_eq!(object.data, b"ab");
}

/// Both holders of a PG go down in one epoch, so the third OSD, its new
/// primary, has no one to pull from: it answers `NotReady` rather than
/// serve the PG without the acked object. A holder boots on its journal
/// and hears the map that has it down before the one that marks it up, so
/// it backfills the PG too; it still answers the third OSD's pull, as its
/// journal restored the PG whole. (Serving the PG as it was answered the
/// read `NoEnt`.)
#[test]
fn a_pg_with_no_holder_up_waits_for_one() {
    let journals = JournalSet::new();
    let mut sim = build_journaled_cluster(3, 2, &journals);
    let name = "kept";
    let append = vec![Op::Append {
        data: b"acked".to_vec(),
    }];
    let ev = request(
        &mut sim,
        CLIENT,
        oid(name),
        append,
        SimDuration::from_secs(5),
    );
    ev.result.unwrap();
    let holders = acting_set(&sim, name);
    let third = 3 - holders[0] - holders[1];
    let mark = |sim: &mut Sim, seq: u64, osds: &[u32], up: bool| {
        let updates = osds
            .iter()
            .map(|osd| OsdMapView::update_osd(*osd, osd_node(*osd), up))
            .collect();
        sim.inject(MON, MonMsg::Submit { seq, updates });
    };
    for osd in &holders {
        sim.crash(osd_node(*osd));
    }
    mark(&mut sim, 2, &holders, false);
    let deadline = sim.now() + SimDuration::from_secs(10);
    assert!(sim.run_until_pred(deadline, |s| acting_set(s, name) == [third]));
    let read = vec![Op::Read {
        offset: 0,
        len: 100,
    }];
    let reqid = submit(&mut sim, name, read);
    sim.run_for(SimDuration::from_secs(2));
    let early = sim.actor_mut::<RadosClient>(CLIENT).take_completed(reqid);
    assert!(
        early.is_none(),
        "read with no holder up: {:?}",
        early.map(|ev| ev.result)
    );
    assert!(sim.metrics().counter("osd.backfill_rejects") > 0);

    let back = holders[0];
    sim.restart(osd_node(back), journaled_osd(back, &journals));
    sim.run_for(SimDuration::from_millis(500));
    assert_eq!(sim.actor::<Osd>(osd_node(back)).map_epoch(), 2);
    mark(&mut sim, 3, &[back], true);
    let answer = Ok(vec![OpResult::Data(b"acked".to_vec())]);
    assert_eq!(wait_for(&mut sim, reqid), answer);
    assert!(acting_set(&sim, name).contains(&third));
    // Every backfill ends with a whole copy or when a map takes its PG away.
    let deadline = sim.now() + SimDuration::from_secs(1);
    assert!(sim.run_until_pred(deadline, |s| {
        let m = s.metrics();
        let ended = m.counter("osd.backfills_completed") + m.counter("osd.backfill_dropped");
        m.counter("osd.backfills_started") == ended
    }));
    let object = assert_replicas_equal(&sim, name).unwrap();
    assert_eq!(object.data, b"acked");
}

/// A replica applied a write and its primary crashed before acking it.
/// Once the harness marks the primary down, the client's retry, under the
/// same reqid, reaches that replica as the new primary and is answered
/// from the outcome it already holds: the write is applied once.
#[test]
fn a_retry_to_a_promoted_replica_is_answered_from_its_outcome() {
    let mut sim = build_cluster(3, 3, OsdConfig::default());
    let name = "promoted";
    let acting = acting_set(&sim, name);
    let primary = acting[0];
    let append = vec![Op::Append {
        data: b"once".to_vec(),
    }];
    let reqid = submit(&mut sim, name, append);
    // Both replicas applied the shipped effect; the primary crashes before
    // their acks reach it.
    let deadline = sim.now() + SimDuration::from_secs(1);
    assert!(sim.run_until_pred(deadline, |s| {
        acting[1..].iter().all(|osd| {
            let replica = s.actor::<Osd>(osd_node(*osd));
            replica.cached_reply(CLIENT, reqid).is_some()
        })
    }));
    sim.crash(osd_node(primary));
    let outcome = held_outcome(&sim, acting[1], reqid);
    let ops = sim.metrics().counter("osd.ops");
    sim.run_for(SimDuration::from_millis(100));
    assert!(!sim.actor::<RadosClient>(CLIENT).is_completed(reqid));

    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 2,
            updates: vec![OsdMapView::update_osd(primary, osd_node(primary), false)],
        },
    );
    assert_eq!(wait_for(&mut sim, reqid), Ok(vec![OpResult::Done]));
    assert_eq!(acting_set(&sim, name)[0], acting[1]);
    assert_eq!(held_outcome(&sim, acting[1], reqid), outcome);
    assert!(sim.metrics().counter("osd.dup_requests") >= 1);
    assert_eq!(sim.metrics().counter("osd.ops"), ops, "the write ran again");
    assert_eq!(assert_replicas_equal(&sim, name).unwrap().data, b"once");
}

/// A journalled replica that crashes comes back, from the primary's records
/// in its own journal, with the objects and the reply window it had.
#[test]
fn journalled_replica_replays_shipped_effects_to_the_same_state() {
    let journals = JournalSet::new();
    let mut sim = build_journaled_cluster(3, 3, &journals);
    let replica = 1;
    let names: Vec<String> = (0..)
        .map(|k| format!("replayed-{k}"))
        .filter(|name| acting_set(&sim, name)[0] != replica)
        .take(3)
        .collect();
    let mut reqids = Vec::new();
    for round in 0..8u8 {
        for name in &names {
            let txn = match round % 4 {
                0 => vec![
                    Op::Append {
                        data: vec![b'a' + round; 3],
                    },
                    call("refcount", "get", b""),
                ],
                1 => vec![Op::OmapSet {
                    key: format!("k{round}"),
                    value: vec![round; 5],
                }],
                2 => vec![
                    Op::Truncate { size: 2 },
                    Op::OmapDel {
                        key: format!("k{}", round - 1),
                    },
                ],
                _ => vec![Op::Remove, Op::Create { exclusive: false }],
            };
            let ev = request(&mut sim, CLIENT, oid(name), txn, SimDuration::from_secs(5));
            ev.result.unwrap();
            reqids.push(ev.reqid);
        }
    }
    let window = |sim: &Sim| -> Vec<Option<Result<Vec<OpResult>, OsdError>>> {
        let osd = sim.actor::<Osd>(osd_node(replica));
        let cached = reqids.iter().map(|r| osd.cached_reply(CLIENT, *r).cloned());
        cached.collect()
    };
    let store = sim.actor::<Osd>(osd_node(replica)).store().clone();
    let replies = window(&sim);
    assert_eq!(store.len(), names.len());
    assert!(replies.iter().all(|r| matches!(r, Some(Ok(_)))));

    sim.crash(osd_node(replica));
    sim.restart(osd_node(replica), journaled_osd(replica, &journals));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.metrics().counter("osd.journal_replays"), 1);
    assert_eq!(sim.actor::<Osd>(osd_node(replica)).store(), &store);
    assert_eq!(window(&sim), replies);
    for name in &names {
        assert_replicas_equal(&sim, name);
    }
}

/// A name is held once (DESIGN §30): after a replicated class call on a
/// journalled cluster, the object id the client built is the key of every
/// acting-set member's store and the id in every journal's record of the
/// write, and the omap key the native allocated is the one in the primary's
/// omap, the shipped delta (each journal replays from it), and each
/// replica's omap. A second write to the same key reuses it.
#[test]
fn a_name_is_one_allocation_from_the_client_to_every_journal() {
    let journals = JournalSet::new();
    let mut sim = build_journaled_cluster(3, 3, &journals);
    let id = oid("held-once");
    let add = |sim: &mut Sim, entry: &[u8]| {
        let tail = Op::OmapSet {
            key: "tail".into(),
            value: entry.to_vec(),
        };
        let txn = vec![call("cls_log", "add", entry), tail];
        let ev = request(sim, CLIENT, id.clone(), txn, SimDuration::from_secs(5));
        ev.result.unwrap();
    };
    add(&mut sim, b"first");
    let key = "log.0000000000000000";
    let next = "tail";
    let held = |sim: &Sim, i: u32, key: &str| -> (ObjectId, Rc<str>) {
        let store = sim.actor::<Osd>(osd_node(i)).store();
        let (stored_id, object) = store.get_key_value(&id).expect("every OSD is acting");
        let (stored_key, _) = object.omap.get_key_value(key).expect("the entry is there");
        (stored_id.clone(), Rc::clone(stored_key))
    };
    let (_, first_key) = held(&sim, 0, key);
    let (_, first_next) = held(&sim, 0, next);
    for i in 0..3 {
        let (stored_id, stored_key) = held(&sim, i, key);
        assert!(stored_id.ptr_eq(&id), "osd {i} keys its store by a copy");
        assert!(
            Rc::ptr_eq(&stored_key, &first_key),
            "osd {i} holds a copy of the key"
        );
        // A journal folds its records by applying them: what it replays to
        // holds the id and the key of its record of this write.
        let replayed = journals.journal(osd_node(i)).replay();
        let (journalled_id, object) = replayed.store.get_key_value(&id).unwrap();
        assert!(journalled_id.ptr_eq(&id), "osd {i}'s journal copied the id");
        assert!(
            Rc::ptr_eq(object.omap.get_key_value(key).unwrap().0, &first_key),
            "osd {i}'s journal copied the key"
        );
    }
    // `tail` is rewritten by every add: the key stays the first one.
    add(&mut sim, b"second");
    for i in 0..3 {
        assert!(Rc::ptr_eq(&held(&sim, i, next).1, &first_next), "osd {i}");
        assert!(held(&sim, i, key).0.ptr_eq(&id), "osd {i}");
    }
}

/// A node that keeps every OSD message it is sent: a backfill puller.
#[derive(Default)]
struct Sink(Vec<OsdMsg>);

impl Actor for Sink {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        if let Ok(msg) = msg.downcast::<OsdMsg>() {
            self.0.push(*msg);
        }
    }
}

const SINK: NodeId = NodeId(103);

/// The outcome OSD `osd` holds for [`CLIENT`]'s `reqid`, by address.
fn held_outcome(sim: &Sim, osd: u32, reqid: u64) -> *const Result<Vec<OpResult>, OsdError> {
    let osd = sim.actor::<Osd>(osd_node(osd));
    osd.cached_reply(CLIENT, reqid)
        .expect("the outcome is in the window")
}

/// An outcome is held once (DESIGN §36): after a replicated write on
/// journalled OSDs, the primary's reply window, the replica's and each
/// journal's record of it are one allocation. A retransmit (the first
/// reply was lost) is answered from it without running the transaction
/// again.
#[test]
fn an_outcome_is_one_allocation_in_every_reply_window_and_journal() {
    let journals = JournalSet::new();
    let mut sim = build_journaled_cluster(3, 2, &journals);
    let name = "outcome-once";
    let acting = acting_set(&sim, name);
    let primary = acting[0];
    let handled = sim.metrics().counter("osd.ops");
    let txn = vec![
        Op::Append {
            data: b"once".to_vec(),
        },
        call("refcount", "get", b""),
    ];
    let reqid = submit(&mut sim, name, txn);
    // Applied and shipped: cut the client off before the reply leaves.
    let deadline = sim.now() + SimDuration::from_secs(1);
    assert!(sim.run_until_pred(deadline, |s| s.metrics().counter("osd.ops") > handled));
    sim.network_mut().sever(CLIENT, osd_node(primary));
    let deadline = sim.now() + SimDuration::from_secs(1);
    assert!(sim.run_until_pred(deadline, |s| {
        s.actor::<Osd>(osd_node(primary))
            .cached_reply(CLIENT, reqid)
            .is_some()
    }));

    let outcome = held_outcome(&sim, primary, reqid);
    assert_eq!(
        held_outcome(&sim, acting[1], reqid),
        outcome,
        "the replica holds a copy"
    );
    for osd in &acting {
        let replayed = journals.journal(osd_node(*osd)).replay();
        let journalled = Rc::as_ptr(&replayed.replies[&CLIENT][&reqid]);
        assert_eq!(journalled, outcome, "osd {osd}'s journal holds a copy");
    }

    let (ops, dups) = (
        sim.metrics().counter("osd.ops"),
        sim.metrics().counter("osd.dup_requests"),
    );
    sim.network_mut().heal_all();
    let answered = wait_for(&mut sim, reqid);
    assert!(answered.is_ok(), "{answered:?}");
    let primarys = sim.actor::<Osd>(osd_node(primary));
    assert_eq!(primarys.cached_reply(CLIENT, reqid), Some(&answered));
    assert_eq!(sim.metrics().counter("osd.dup_requests"), dups + 1);
    assert_eq!(sim.metrics().counter("osd.ops"), ops, "the write ran again");
    assert_eq!(held_outcome(&sim, primary, reqid), outcome);
    assert_eq!(assert_replicas_equal(&sim, name).unwrap().data, b"once");
}

/// A backfill push tells its puller which writes its snapshot holds by the
/// outcomes in the source's reply window: the same allocations, not
/// copies of them.
#[test]
fn a_backfill_push_shares_the_sources_outcomes() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    sim.add_node(SINK, Sink::default());
    let name = "pushed";
    let acting = acting_set(&sim, name);
    let mut reqids = Vec::new();
    for data in [b"a", b"b"] {
        let append = vec![Op::Append {
            data: data.to_vec(),
        }];
        let ev = request(
            &mut sim,
            CLIENT,
            oid(name),
            append,
            SimDuration::from_secs(5),
        );
        ev.result.unwrap();
        reqids.push(ev.reqid);
    }
    let source = acting[0];
    let pull = OsdMsg::PgPull {
        pool: "data".to_string(),
        pg_index: mala_rados::pg_of_id(&oid(name), 32).index,
        epoch: sim.actor::<Osd>(osd_node(source)).map_epoch(),
    };
    sim.with_actor::<Sink, _>(SINK, |_, ctx| ctx.send(osd_node(source), pull));
    sim.run_for(SimDuration::from_millis(10));
    let pushes: Vec<_> = sim.actor::<Sink>(SINK).0.iter().collect();
    let [OsdMsg::BackfillPush {
        objects, applied, ..
    }] = pushes.as_slice()
    else {
        panic!("one push expected: {pushes:?}");
    };
    assert!(objects
        .iter()
        .any(|(id, obj)| *id == oid(name) && obj.data == b"ab"));
    for reqid in reqids {
        let (_, _, shipped) = applied
            .iter()
            .find(|(client, r, _)| *client == CLIENT && *r == reqid)
            .expect("the push vouches for the write");
        let shipped = Rc::as_ptr(shipped);
        assert_eq!(shipped, held_outcome(&sim, source, reqid));
    }
}

/// A replicated write whose replica leaves the up set before acking is
/// released by the map change: its client is answered, from the outcome
/// the primary fixed, and the write's one `osd.op` span and its
/// `osd.replica_ack` span close. (The map-change release answered, but
/// left both spans open for good.)
#[test]
fn a_write_released_by_a_map_change_answers_once_and_closes_its_spans() {
    let mut sim = build_cluster(3, 2, OsdConfig::default());
    let name = "released";
    let acting = acting_set(&sim, name);
    let (primary, replica) = (acting[0], acting[1]);
    sim.network_mut()
        .sever(osd_node(primary), osd_node(replica));
    let first_span = sim.tracer().spans().len();
    let append = vec![Op::Append {
        data: b"kept".to_vec(),
    }];
    let reqid = submit(&mut sim, name, append);
    sim.run_for(SimDuration::from_millis(100));
    assert!(
        !sim.actor::<RadosClient>(CLIENT).is_completed(reqid),
        "answered short an ack"
    );

    sim.inject(
        MON,
        MonMsg::Submit {
            seq: 2,
            updates: vec![OsdMapView::update_osd(replica, osd_node(replica), false)],
        },
    );
    assert_eq!(wait_for(&mut sim, reqid), Ok(vec![OpResult::Done]));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.actor::<Osd>(osd_node(primary)).map_epoch(), 2);
    let client = sim.actor_mut::<RadosClient>(CLIENT);
    assert!(client.take_completed(reqid).is_none(), "answered twice");
    let on_primary = |span_name: &str| -> Vec<bool> {
        let spans = sim.tracer().spans()[first_span..].iter();
        spans
            .filter(|span| span.name == span_name && span.node == osd_node(primary))
            .map(|span| span.end.is_some())
            .collect()
    };
    assert_eq!(on_primary("osd.op"), [true], "osd.op");
    assert_eq!(on_primary("osd.replica_ack"), [true], "osd.replica_ack");
}
