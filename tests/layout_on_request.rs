//! The zlog client sends its log's layout when it learns its sequencer and
//! again only when an MDS asks for it (`MdsError::LayoutMissing`). A
//! healthy cluster hears the layout once per client. A promoted standby
//! whose journal lost the layout asks for it, seals once it comes, and
//! grants nothing twice; so does a rank the sequencer was exported to,
//! asked to seal, whether the client reaches it directly or through the
//! sequencer's home.

use std::collections::BTreeSet;

use mala_mds::{MdsConfig, MdsMsg, ServeStyle};
use mala_sim::{Context, NodeId, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
use malacology::cluster::{Cluster, ClusterBuilder};

/// `ranks` journaling MDS ranks and one standby.
fn cluster(ranks: u32) -> Cluster {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(4)
        .mds_ranks(ranks)
        .standby_mds(1)
        .pool("p", 16, 2)
        .pool("meta", 16, 2)
        .mds_config(MdsConfig {
            journal: true,
            journal_sync: true,
            ..MdsConfig::default()
        })
        .build(2017);
    cluster.commit_updates(vec![zlog_interface_update()]);
    cluster
}

/// Adds a client of log `name` and sets the log up.
fn client(cluster: &mut Cluster, name: &str) -> NodeId {
    let node = cluster.alloc_node();
    let config = ZlogConfig {
        name: name.into(),
        pool: "p".into(),
        stripe_width: 4,
        mds_nodes: cluster.mds_nodes(),
        home_rank: 0,
        monitor: cluster.mon(),
    };
    cluster.sim.add_node(node, ZlogClient::new(config));
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

/// Runs one op on `node` to its successful end.
fn run(
    cluster: &mut Cluster,
    node: NodeId,
    f: impl FnOnce(&mut ZlogClient, &mut Context<'_>) -> u64,
) -> ZlogOut {
    match run_op(&mut cluster.sim, node, SimDuration::from_secs(90), f) {
        AppendResult::Ok(out) => out,
        other => panic!("op failed: {other:?}"),
    }
}

/// Appends entries `ks` through `node`; returns their positions.
fn appends(cluster: &mut Cluster, node: NodeId, ks: std::ops::Range<u32>) -> Vec<u64> {
    ks.map(|k| {
        let data = format!("entry-{k}").into_bytes();
        match run(cluster, node, move |c, ctx| c.append(ctx, data)) {
            ZlogOut::Pos(pos) => pos,
            other => panic!("append {k} answered {other:?}"),
        }
    })
    .collect()
}

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.sim.metrics().counter(name)
}

/// Every position in `after` lies above every one in `before`, and none
/// was granted twice.
fn assert_resumed_above(before: &[u64], after: &[u64]) {
    let max_before = before.iter().max().copied().unwrap_or(0);
    assert!(
        after.iter().all(|&p| p > max_before),
        "{before:?} then {after:?}"
    );
    let all: BTreeSet<u64> = before.iter().chain(after).copied().collect();
    assert_eq!(
        all.len(),
        before.len() + after.len(),
        "a position granted twice: {before:?} then {after:?}"
    );
}

/// Appends, batched appends and tail reads on a healthy cluster send the
/// layout once per client: when it learns its sequencer.
#[test]
fn a_healthy_cluster_hears_the_layout_once_per_client() {
    let mut cluster = cluster(1);
    let nodes = [client(&mut cluster, "once"), client(&mut cluster, "once")];
    for node in nodes {
        appends(&mut cluster, node, 0..8);
        let ops: Vec<u64> = (0..8)
            .map(|k| {
                let data = format!("async-{k}").into_bytes();
                cluster
                    .sim
                    .with_actor::<ZlogClient, _>(node, |c, ctx| c.append_async(ctx, data))
            })
            .collect();
        cluster.sim.run_for(SimDuration::from_secs(2));
        for op in ops {
            let res = cluster.sim.actor_mut::<ZlogClient>(node).take_result(op);
            assert!(
                matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(_)))),
                "{res:?}"
            );
        }
        for _ in 0..4 {
            assert!(matches!(
                run(&mut cluster, node, |c, ctx| c.check_tail(ctx)),
                ZlogOut::Tail(_)
            ));
        }
    }
    assert!(counter(&cluster, "mds.typeops") >= 2 * (8 + 1 + 4));
    assert_eq!(counter(&cluster, "zlog.layouts_sent"), 2);
}

/// The journal append carrying the layout never becomes durable: rank 0
/// is cut off from the store when the layout lands and crashes before the
/// cut heals. The promoted standby replays a journal that names the
/// sequencer but not its layout, answers the first grant `LayoutMissing`,
/// and seals once the client has sent the layout again.
#[test]
fn a_standby_whose_journal_lost_the_layout_asks_for_it() {
    let mut cluster = cluster(1);
    let node = client(&mut cluster, "lost");
    // The layout is on its way to rank 0: its journal write goes nowhere.
    let rank0 = cluster.mds_node(0);
    for i in 0..4 {
        let osd = cluster.osd_node(i);
        cluster.sim.network_mut().sever(rank0, osd);
    }
    let before = appends(&mut cluster, node, 0..6);
    cluster.sim.crash(rank0);
    cluster.sim.network_mut().heal_all();
    cluster.sim.run_for(SimDuration::from_secs(10));
    assert_eq!(counter(&cluster, "mds.takeovers"), 1);
    assert_eq!(counter(&cluster, "mds.unsealed_seq_replays"), 1);
    assert_eq!(counter(&cluster, "zlog.layouts_sent"), 1);

    let after = appends(&mut cluster, node, 6..12);
    assert!(counter(&cluster, "mds.unsealed_seq_rejects") >= 1, "no ask");
    assert_eq!(counter(&cluster, "zlog.layouts_sent"), 2);
    assert_eq!(counter(&cluster, "mds.late_layout_seals"), 1);
    assert_eq!(counter(&cluster, "mds.seq_seals"), 1);
    assert_resumed_above(&before, &after);
}

/// The sequencer moves from rank 0 to rank 1 in `style`; the client's
/// layout stays behind at rank 0. Asked to seal, rank 1 answers
/// `LayoutMissing`; the client sends the layout where it sends its
/// sequencer traffic — rank 1 itself, or the home, which passes it on —
/// and the seal runs there. Appends resume past every position granted.
fn an_importer_asks_for_the_layout_before_it_seals(style: ServeStyle) {
    let mut cluster = cluster(2);
    let node = client(&mut cluster, "moved");
    let mut before = appends(&mut cluster, node, 0..4);
    let ino = cluster.sim.actor::<ZlogClient>(node).seq_ino().unwrap();
    let target = 1;
    let export = MdsMsg::AdminExport { ino, target, style };
    cluster.sim.inject(cluster.mds_node(0), export);
    cluster.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(counter(&cluster, "mds.imports"), 1);
    before.extend(appends(&mut cluster, node, 4..8));
    assert_eq!(counter(&cluster, "zlog.layouts_sent"), 1);

    let ZlogOut::Recovered { epoch, tail } = run(&mut cluster, node, |c, ctx| c.recover(ctx))
    else {
        panic!("recovery answered something else");
    };
    assert_eq!(epoch, 1);
    assert!(
        tail > *before.iter().max().unwrap(),
        "tail {tail} after {before:?}"
    );
    assert_eq!(counter(&cluster, "zlog.layouts_sent"), 2);
    assert_eq!(counter(&cluster, "mds.seq_seals"), 1);
    let after = appends(&mut cluster, node, 8..12);
    assert_resumed_above(&before, &after);
}

#[test]
fn a_direct_importer_asks_for_the_layout_before_it_seals() {
    an_importer_asks_for_the_layout_before_it_seals(ServeStyle::Direct);
}

#[test]
fn a_proxied_importer_gets_the_layout_through_the_home() {
    an_importer_asks_for_the_layout_before_it_seals(ServeStyle::Proxy);
}
