//! Replayability of an MDS failover with several sequencers.
//!
//! Two runs of one seed *in one process* must be the same run. Every
//! `HashMap` gets a fresh `RandomState`, so a map whose iteration order
//! reaches `ctx.send` / `set_timer` / the RNG shows up here as two
//! different histories — which is how `Mds::recovering_seqs` used to
//! re-seal the four sequencers of a takeover in a different order on every
//! run.

use mala_mds::MdsConfig;
use mala_sim::history::Recorder;
use mala_sim::linearize::{LogOp, LogRet};
use mala_sim::{NodeId, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
use malacology::cluster::ClusterBuilder;

const LOGS: usize = 4;

/// Everything a run can be told apart by: the op history with its
/// timestamps, every counter, and the clock at the end.
#[derive(Debug, PartialEq)]
struct Observed {
    history: Vec<String>,
    counters: Vec<(String, u64)>,
    end_us: u64,
}

fn failover_run(seed: u64) -> Observed {
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .osds(4)
        .mds_ranks(1)
        .standby_mds(1)
        .pool("p", 16, 2)
        .pool("meta", 16, 2)
        .mds_config(MdsConfig {
            journal: true,
            journal_sync: true,
            ..MdsConfig::default()
        })
        .build(seed);
    cluster.commit_updates(vec![zlog_interface_update()]);

    let history: Recorder<LogOp, LogRet> = Recorder::new();
    let clients: Vec<NodeId> = (0..LOGS)
        .map(|i| {
            let node = cluster.alloc_node();
            let config = ZlogConfig {
                name: format!("replay-{i}"),
                pool: "p".into(),
                stripe_width: 4,
                mds_nodes: cluster.mds_nodes(),
                home_rank: 0,
                monitor: cluster.mon(),
            };
            cluster
                .sim
                .add_node(node, ZlogClient::new(config).with_history(history.clone()));
            cluster.sim.run_for(SimDuration::from_secs(1));
            run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(30),
                |c, ctx| c.setup(ctx),
            );
            node
        })
        .collect();
    for (i, &node) in clients.iter().enumerate() {
        for k in 0..3 {
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(30),
                move |c, ctx| c.append(ctx, format!("pre-{i}-{k}").into_bytes()),
            );
            assert!(
                matches!(res, AppendResult::Ok(ZlogOut::Pos(_))),
                "pre-crash append {i}/{k}: {res:?}"
            );
        }
    }

    // Unannounced crash: the monitor's beacon reaper promotes the standby,
    // which replays the journal and re-seals all four sequencers at once.
    cluster.sim.crash(cluster.mds_node(0));
    let ops: Vec<(NodeId, u64)> = clients
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let op = cluster
                .sim
                .with_actor::<ZlogClient, _>(node, move |c, ctx| {
                    c.append(ctx, format!("post-{i}").into_bytes())
                });
            (node, op)
        })
        .collect();
    let deadline = cluster.sim.now() + SimDuration::from_secs(90);
    let done = cluster.sim.run_until_pred(deadline, |sim| {
        ops.iter()
            .all(|&(node, op)| sim.actor::<ZlogClient>(node).is_done(op))
    });
    assert!(done, "a post-crash append hung (seed {seed})");
    for &(node, op) in &ops {
        let res = cluster.sim.actor_mut::<ZlogClient>(node).take_result(op);
        assert!(
            matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(_)))),
            "post-crash append on {node}: {res:?}"
        );
    }

    let metrics = cluster.sim.metrics();
    assert!(
        metrics.counter("mds.seq_seals") >= LOGS as u64,
        "the takeover did not re-seal every sequencer"
    );
    Observed {
        history: history
            .operations()
            .iter()
            .map(|op| op.to_string())
            .collect(),
        counters: metrics
            .counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        end_us: cluster.sim.now().as_micros(),
    }
}

#[test]
fn failover_with_four_sequencers_replays_in_one_process() {
    for seed in [2017, 7, 39] {
        let first = failover_run(seed);
        for _ in 0..3 {
            assert_eq!(first, failover_run(seed), "seed {seed} is not replayable");
        }
    }
}
