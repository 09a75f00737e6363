//! Workspace integration tests: the whole Malacology story on one
//! simulated cluster — every interface composed, both services running,
//! and failures injected along the way.

use mala_consensus::Monitor;
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, NoBalancer};
use mala_rados::{ObjectId, Op, OpResult, Osd, OsdMapView};
use mala_sim::SimDuration;
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
use malacology::cluster::ClusterBuilder;
use malacology::interfaces::{data_io, durability, load_balancing};

/// The paper's whole pipeline in one test:
/// 1. cluster up (monitors + OSDs + MDS);
/// 2. ZLog storage interface installed dynamically through Service
///    Metadata;
/// 3. appends totally ordered by the sequencer file type;
/// 4. an OSD dies — replication recovers the log entries;
/// 5. the MDS dies — CORFU seal/recovery restores the sequencer;
/// 6. nothing written is ever lost or reordered.
#[test]
fn zlog_survives_osd_and_mds_failures() {
    let mut cluster = ClusterBuilder::new()
        .monitors(3)
        .osds(5)
        .mds_ranks(1)
        .pool("logpool", 32, 3)
        .build(77);
    cluster.commit_updates(vec![zlog_interface_update()]);
    let node = cluster.alloc_node();
    let config = ZlogConfig {
        name: "journal".to_string(),
        pool: "logpool".to_string(),
        stripe_width: 4,
        mds_nodes: cluster.mds_nodes(),
        home_rank: 0,
        monitor: cluster.mon(),
    };
    cluster.sim.add_node(node, ZlogClient::new(config));
    cluster.sim.run_for(SimDuration::from_secs(1));
    run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(10),
        |c, ctx| c.setup(ctx),
    );

    let append = |cluster: &mut malacology::Cluster, msg: String| -> u64 {
        match run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(20),
            move |c, ctx| c.append(ctx, msg.into_bytes()),
        ) {
            AppendResult::Ok(ZlogOut::Pos(p)) => p,
            other => panic!("append failed: {other:?}"),
        }
    };
    let read = |cluster: &mut malacology::Cluster, pos: u64| -> ReadOutcome {
        match run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(20),
            move |c, ctx| c.read(ctx, pos),
        ) {
            AppendResult::Ok(ZlogOut::Read(r)) => r,
            other => panic!("read failed: {other:?}"),
        }
    };

    for i in 0..10u64 {
        assert_eq!(append(&mut cluster, format!("entry-{i}")), i);
    }

    // Kill an OSD holding log data; mark it down; wait for recovery.
    let victim = 2;
    let victim_node = cluster.osd_node(victim);
    cluster.sim.crash(victim_node);
    cluster.commit_updates(vec![OsdMapView::update_osd(victim, victim_node, false)]);
    cluster.sim.run_for(SimDuration::from_secs(8));
    for i in 0..10u64 {
        assert_eq!(
            read(&mut cluster, i),
            ReadOutcome::Data(format!("entry-{i}").into_bytes()),
            "entry {i} lost after OSD failure"
        );
    }
    assert!(append(&mut cluster, "after-osd-loss".into()) == 10);

    // Kill the MDS: the sequencer tail is volatile. Without recovery new
    // appends would reuse old positions; the seal protocol must prevent
    // that.
    let mds0 = cluster.mds_node(0);
    let mon = cluster.mon();
    cluster.sim.crash(mds0);
    cluster.sim.restart(
        mds0,
        Mds::new(0, mon, MdsConfig::default(), Box::new(NoBalancer)),
    );
    cluster.sim.run_for(SimDuration::from_secs(2));
    run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(10),
        |c, ctx| c.setup(ctx),
    );
    let res = run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(30),
        |c, ctx| c.recover(ctx),
    );
    let AppendResult::Ok(ZlogOut::Recovered { tail, .. }) = res else {
        panic!("recovery failed: {res:?}");
    };
    assert_eq!(tail, 11, "seal must find all 11 entries");
    assert_eq!(append(&mut cluster, "after-mds-loss".into()), 11);
    for i in 0..10u64 {
        assert_eq!(
            read(&mut cluster, i),
            ReadOutcome::Data(format!("entry-{i}").into_bytes())
        );
    }
}

/// Two OSDs crash for good, one after the other, and the harness marks
/// each down: their PGs re-route to the survivors, which backfill them,
/// and every acked append still reads back. The two are a log object's
/// holders, so after the second crash that object lives only on the copy
/// a backfill made, and that copy must be whole.
#[test]
fn acked_appends_survive_osds_that_never_restart() {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(4)
        .mds_ranks(1)
        .pool("logpool", 16, 2)
        .build(13);
    cluster.commit_updates(vec![zlog_interface_update()]);
    let node = cluster.alloc_node();
    let config = ZlogConfig {
        name: "kept".to_string(),
        pool: "logpool".to_string(),
        stripe_width: 4,
        mds_nodes: cluster.mds_nodes(),
        home_rank: 0,
        monitor: cluster.mon(),
    };
    cluster.sim.add_node(node, ZlogClient::new(config));
    cluster.sim.run_for(SimDuration::from_secs(1));
    run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(10),
        |c, ctx| c.setup(ctx),
    );
    let mut acked = Vec::new();
    let mut append = |cluster: &mut malacology::Cluster, count: u64| {
        for _ in 0..count {
            let entry = format!("entry-{}", acked.len()).into_bytes();
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(20),
                |c, ctx| c.append(ctx, entry.clone()),
            );
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("append failed: {res:?}");
            };
            acked.push((pos, entry));
        }
    };
    // Every backfill the crash started ends with a whole copy.
    let settle = |cluster: &mut malacology::Cluster| {
        let deadline = cluster.sim.now() + SimDuration::from_secs(20);
        let settled = cluster.sim.run_until_pred(deadline, |s| {
            let m = s.metrics();
            let ended = m.counter("osd.backfills_completed") + m.counter("osd.backfill_dropped");
            m.counter("osd.backfills_started") == ended
        });
        assert!(settled, "a backfill never ended");
    };

    append(&mut cluster, 12);
    let holders = |cluster: &malacology::Cluster, oid: &ObjectId| -> Vec<u32> {
        let holds = |i: &u32| {
            let node = cluster.osd_node(*i);
            !cluster.sim.is_crashed(node)
                && cluster.sim.actor::<Osd>(node).store().contains_key(oid)
        };
        (0..4).filter(holds).collect()
    };
    let stripe = ObjectId::new("logpool", "kept.0");
    let victims = holders(&cluster, &stripe);
    assert_eq!(victims.len(), 2, "{stripe:?} is not where the log is");
    for &victim in &victims {
        cluster.crash_osd(victim);
        append(&mut cluster, 6);
        settle(&mut cluster);
    }
    assert!(cluster.sim.metrics().counter("osd.backfills_completed") > 0);
    assert_eq!(holders(&cluster, &stripe).len(), 2);
    for (pos, entry) in acked {
        let res = run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(20),
            move |c, ctx| c.read(ctx, pos),
        );
        assert_eq!(
            res,
            AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(entry))),
            "acked position {pos}"
        );
    }
}

/// Service Metadata + Durability: a Mantle policy published the paper's
/// way (object first, pointer second) reaches every MDS, and a policy
/// with a syntax error is rejected with a central log entry while the old
/// policy keeps running.
#[test]
fn mantle_policy_lifecycle_with_bad_upgrade() {
    let mds_config = MdsConfig {
        balance_interval: SimDuration::from_secs(2),
        ..MdsConfig::default()
    };
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(3)
        .mds_ranks(2)
        .mds_config(mds_config)
        .pool("meta", 16, 2)
        .balancers(|_| Box::new(load_balancing::MantleBalancer::new()))
        .build(5);
    // Publish v1 (valid).
    cluster
        .rados(
            ObjectId::new("meta", "policy_v1"),
            durability::put_blob(mala_mantle::GREEDY_SPREAD_POLICY.as_bytes().to_vec()),
        )
        .unwrap();
    cluster.commit_updates(vec![load_balancing::policy_pointer_update("policy_v1")]);
    cluster.sim.run_for(SimDuration::from_secs(6));
    assert!(
        cluster.sim.metrics().counter("mds.mantle_installs") >= 2,
        "both ranks must install the policy"
    );
    // Publish v2 (broken): must be rejected and logged centrally.
    cluster
        .rados(
            ObjectId::new("meta", "policy_v2"),
            durability::put_blob(b"function when( syntax error".to_vec()),
        )
        .unwrap();
    cluster.commit_updates(vec![load_balancing::policy_pointer_update("policy_v2")]);
    cluster.sim.run_for(SimDuration::from_secs(6));
    assert!(cluster.sim.metrics().counter("mds.mantle_install_errors") >= 1);
    let mon_node = cluster.mon();
    let log = cluster.sim.actor::<Monitor>(mon_node).cluster_log();
    assert!(
        log.iter().any(|(_, _, line)| line.contains("rejected")),
        "rejection must reach the central log: {log:?}"
    );
}

/// §5.1.2: a policy read the object store does not answer gives up at
/// half the balancing tick — a "Connection Timeout" line from each rank in
/// the central log, nothing installed — and a later tick, once the store
/// is reachable again, reads the version again and installs it. The OSDs
/// are cut off from the ranks, not marked down.
#[test]
fn a_policy_read_the_store_does_not_answer_times_out_at_half_the_tick() {
    let interval = SimDuration::from_secs(2);
    let mds_config = MdsConfig {
        balance_interval: interval,
        ..MdsConfig::default()
    };
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(3)
        .mds_ranks(2)
        .mds_config(mds_config)
        .pool("meta", 16, 2)
        .balancers(|_| Box::new(load_balancing::MantleBalancer::new()))
        .build(5);
    cluster
        .rados(
            ObjectId::new("meta", "policy_v1"),
            durability::put_blob(mala_mantle::GREEDY_SPREAD_POLICY.as_bytes().to_vec()),
        )
        .unwrap();
    let ranks = [cluster.mds_node(0), cluster.mds_node(1)];
    for mds in ranks {
        for i in 0..3 {
            let osd = cluster.osd_node(i);
            cluster.sim.network_mut().sever(mds, osd);
        }
    }
    let idle = |cluster: &malacology::Cluster, mds| cluster.sim.actor::<Mds>(mds).store_idle();
    assert!(ranks.iter().all(|&mds| idle(&cluster, mds)));
    cluster.commit_updates(vec![load_balancing::policy_pointer_update("policy_v1")]);
    // The read goes out when the map reaches the rank.
    let mut reads = Vec::new();
    let until = cluster.sim.now() + interval;
    while reads.len() < ranks.len() && cluster.sim.now() < until {
        cluster.sim.step();
        for mds in ranks {
            if !idle(&cluster, mds) && !reads.iter().any(|(node, _)| *node == mds) {
                reads.push((mds, cluster.sim.now()));
            }
        }
    }
    assert_eq!(reads.len(), 2, "each rank reads the policy");
    reads.sort_by_key(|(_, at)| *at);
    let half = interval.div(2);
    for (mds, read_at) in reads {
        cluster
            .sim
            .run_until(read_at + (half - SimDuration::from_micros(1)));
        assert!(
            !idle(&cluster, mds),
            "the read is out until {half} after it"
        );
        cluster.sim.run_until(read_at + half);
        assert!(idle(&cluster, mds), "the read is given up {half} after it");
    }
    cluster.sim.run_for(SimDuration::from_millis(100));
    let metrics = cluster.sim.metrics();
    assert_eq!(metrics.counter("mds.mantle_fetch_timeouts"), 2);
    assert_eq!(metrics.counter("mds.mantle_installs"), 0);
    let mon_node = cluster.mon();
    let mut timeouts: Vec<String> = cluster
        .sim
        .actor::<Monitor>(mon_node)
        .cluster_log()
        .iter()
        .filter(|(_, _, line)| line.contains("Connection Timeout"))
        .map(|(_, source, _)| source.clone())
        .collect();
    timeouts.sort();
    assert_eq!(timeouts, ["mds.0", "mds.1"]);
    cluster.sim.network_mut().heal_all();
    cluster.sim.run_for(interval.mul(2));
    let metrics = cluster.sim.metrics();
    assert_eq!(
        metrics.counter("mds.mantle_installs"),
        2,
        "a later tick installs"
    );
    assert_eq!(metrics.counter("mds.mantle_fetch_timeouts"), 2);
}

/// Data I/O propagation during partition: an OSD isolated from the
/// monitor still converges on a new interface version via peer gossip
/// once reconnected to its peers.
#[test]
fn interface_reaches_partitioned_osd_through_gossip() {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(6)
        .pool("data", 16, 2)
        .build(13);
    // Cut OSD 5 off from the monitor only — peers still reachable.
    let osd5 = cluster.osd_node(5);
    let mon = cluster.mon();
    cluster.sim.network_mut().sever(osd5, mon);
    cluster.commit_updates(vec![data_io::install_interface(
        "gossiped",
        "function hi(input) return \"hi\" end",
    )]);
    cluster.sim.run_for(SimDuration::from_secs(2));
    let osd = cluster.sim.actor::<Osd>(osd5);
    assert!(
        osd.registry().scripted_version("gossiped").is_some(),
        "partitioned OSD must learn the interface from peers"
    );
}

/// The atomicity guarantee spans scripted classes, native ops, and
/// replication: a failed multi-op transaction leaves zero residue on any
/// replica.
#[test]
fn cross_interface_transaction_atomicity() {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(4)
        .pool("data", 16, 3)
        .build(31);
    cluster.commit_updates(vec![data_io::install_interface(
        "acct",
        r#"
        function deposit(input)
            local bal = tonumber(omap_get("balance"))
            if bal == nil then bal = 0 end
            bal = bal + tonumber(input)
            omap_set("balance", fmt(bal))
            return fmt(bal)
        end
        "#,
    )]);
    cluster.sim.run_for(SimDuration::from_secs(1));
    let oid = ObjectId::new("data", "account");
    // Successful transaction: class call + xattr stamp, atomically.
    let out = cluster
        .rados(
            oid.clone(),
            vec![
                Op::Call {
                    class: "acct".into(),
                    method: "deposit".into(),
                    input: b"100"[..].into(),
                },
                Op::XattrSet {
                    key: "audited".into(),
                    value: b"yes".to_vec(),
                },
            ],
        )
        .unwrap();
    assert_eq!(out[0], OpResult::CallOut(b"100"[..].into()));
    // Failing transaction: deposit + impossible compare → full rollback.
    let err = cluster.rados(
        oid.clone(),
        vec![
            Op::Call {
                class: "acct".into(),
                method: "deposit".into(),
                input: b"900"[..].into(),
            },
            Op::OmapCmpXchg {
                key: "balance".into(),
                expect: Some(b"1".to_vec()),
                value: b"0".to_vec(),
            },
        ],
    );
    assert!(err.is_err());
    let out = cluster
        .rados(
            oid,
            vec![Op::OmapGet {
                key: "balance".into(),
            }],
        )
        .unwrap();
    assert_eq!(
        out[0],
        OpResult::Maybe(Some(b"100"[..].into())),
        "failed deposit must be rolled back everywhere"
    );
}
