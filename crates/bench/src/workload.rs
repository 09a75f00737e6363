//! Shared workload assembly: for the sequencer experiments (Figs. 5–7 and
//! 9–12) a cluster with MDS ranks, sequencer inodes under `/seq`, and
//! closed-loop [`SeqWorkload`] clients ([`SeqBench`]); for the zlog
//! experiments the hand-assembled cluster ([`zlog_cluster`]) and the
//! closed-loop append drivers.

use std::any::Any;
use std::collections::HashMap;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mantle::MantleBalancer;
use mala_mds::server::Mds;
use mala_mds::types::MdsMsg;
use mala_mds::{
    Balancer, CephFsBalancer, CephFsMode, FileType, Ino, MdsConfig, MdsCostModel, MdsMapView,
    NoBalancer,
};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{Actor, Context, Nemesis, NodeId, Sim, SimDuration, SimTime};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{
    zlog_interface_update, AppendResult, BatchConfig, SeqMode, SeqWorkload, ZlogClient, ZlogConfig,
};
use malacology::cluster::{Cluster, ClusterBuilder};

/// Which balancing policy the MDS ranks run.
#[derive(Debug, Clone)]
pub enum BalancerChoice {
    /// No balancing (the Fig. 9 baseline).
    None,
    /// The reconstructed stock CephFS balancer.
    CephFs(CephFsMode),
    /// Mantle with the given Cephalo policy bootstrapped in.
    Mantle(String),
}

impl BalancerChoice {
    fn build(&self) -> Box<dyn Balancer> {
        match self {
            BalancerChoice::None => Box::new(NoBalancer),
            BalancerChoice::CephFs(mode) => Box::new(CephFsBalancer::new(*mode)),
            BalancerChoice::Mantle(src) => Box::new(MantleBalancer::with_policy(src)),
        }
    }
}

/// Configuration of a sequencer bench.
#[derive(Clone)]
pub struct SeqBenchCfg {
    /// RNG seed.
    pub seed: u64,
    /// MDS ranks.
    pub mds: u32,
    /// OSDs (only needed when policies/journals live in RADOS).
    pub osds: u32,
    /// Number of sequencers (all created on rank 0, as in the paper).
    pub sequencers: u32,
    /// Closed-loop clients per sequencer.
    pub clients_per_seq: u32,
    /// Client access mode.
    pub mode: SeqMode,
    /// Balancing policy.
    pub balancer: BalancerChoice,
    /// Balancing tick.
    pub balance_interval: SimDuration,
    /// How long an import's synthetic coherence load takes to decay
    /// (`MdsCostModel::settle`); quick scales shorten it with the tick.
    pub settle: SimDuration,
    /// Metric series prefix (`<prefix>.s<k>` per sequencer).
    pub prefix: String,
}

impl Default for SeqBenchCfg {
    fn default() -> Self {
        SeqBenchCfg {
            seed: 42,
            mds: 1,
            osds: 0,
            sequencers: 1,
            clients_per_seq: 2,
            mode: SeqMode::RoundTrip,
            balancer: BalancerChoice::None,
            balance_interval: SimDuration::from_secs(10),
            settle: MdsCostModel::default().settle,
            prefix: "seq".to_string(),
        }
    }
}

/// A tiny administrative client used for namespace setup.
#[derive(Default)]
pub struct AdminClient {
    /// `Created` replies by reqid (harnesses read inodes back out).
    pub(crate) created: HashMap<u64, Result<Ino, mala_mds::types::MdsError>>,
}

impl Actor for AdminClient {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        if let Ok(msg) = msg.downcast::<MdsMsg>() {
            if let MdsMsg::Created { reqid, result } = *msg {
                self.created.insert(reqid, result);
            }
        }
    }
}

/// Adds an [`AdminClient`] and has it create `/<dir>` and, under it, `n`
/// sequencer inodes `<stem>0..` on rank 0, allowing `settle_ms` for the
/// creates to be answered. Returns the admin node and the inodes.
pub fn create_sequencers(
    cluster: &mut Cluster,
    dir: &str,
    stem: &str,
    n: u32,
    settle_ms: u64,
) -> (NodeId, Vec<Ino>) {
    let admin = cluster.alloc_node();
    cluster.sim.add_node(admin, AdminClient::default());
    let mds0 = cluster.mds_node(0);
    let send_create = |sim: &mut Sim, reqid: u64, parent: &str, name: String, ftype: FileType| {
        let parent_path = parent.to_string();
        sim.with_actor::<AdminClient, _>(admin, move |_, ctx| {
            ctx.send(
                mds0,
                MdsMsg::Create {
                    reqid,
                    parent_path,
                    name,
                    ftype,
                },
            );
        });
    };
    send_create(&mut cluster.sim, 1, "/", dir.to_string(), FileType::Dir);
    cluster.sim.run_for(SimDuration::from_millis(100));
    let parent = format!("/{dir}");
    for k in 0..n {
        let reqid = 10 + u64::from(k);
        send_create(
            &mut cluster.sim,
            reqid,
            &parent,
            format!("{stem}{k}"),
            FileType::Sequencer,
        );
    }
    cluster.sim.run_for(SimDuration::from_millis(settle_ms));
    let created = &cluster.sim.actor::<AdminClient>(admin).created;
    let inos = (0..n)
        .map(|k| match created.get(&(10 + u64::from(k))) {
            Some(Ok(ino)) => *ino,
            other => panic!("sequencer {stem}{k} not created: {other:?}"),
        })
        .collect();
    (admin, inos)
}

/// An assembled sequencer bench.
pub struct SeqBench {
    /// The cluster (drive `bench.cluster.sim`).
    pub cluster: Cluster,
    /// Sequencer inodes, index = sequencer number.
    pub seq_inos: Vec<Ino>,
    /// Client nodes, `clients[k][i]` = client `i` of sequencer `k`.
    pub clients: Vec<Vec<NodeId>>,
    /// The admin client node.
    pub admin: NodeId,
    /// Series prefix in use.
    pub prefix: String,
}

impl SeqBench {
    /// Builds the cluster, creates `/seq/s<k>` sequencers, spawns (but
    /// does not start) the workload clients.
    pub fn build(cfg: SeqBenchCfg) -> SeqBench {
        let balancer = cfg.balancer.clone();
        let mds_config = MdsConfig {
            balance_interval: cfg.balance_interval,
            costs: MdsCostModel {
                settle: cfg.settle,
                ..MdsCostModel::default()
            },
            ..MdsConfig::default()
        };
        let mut builder = ClusterBuilder::new()
            .monitors(1)
            .osds(cfg.osds)
            .mds_ranks(cfg.mds)
            .mds_config(mds_config)
            .rados_clients(if cfg.osds > 0 { 1 } else { 0 })
            .balancers(move |_rank| balancer.build());
        if cfg.osds > 0 {
            builder = builder.pool("meta", 32, 2.min(cfg.osds));
        }
        let mut cluster = builder.build(cfg.seed);
        let (admin, seq_inos) = create_sequencers(&mut cluster, "seq", "s", cfg.sequencers, 200);
        // Spawn workload clients.
        let mds_nodes = cluster.mds_nodes();
        let mut clients = Vec::new();
        for (k, ino) in seq_inos.iter().enumerate() {
            let mut row = Vec::new();
            for i in 0..cfg.clients_per_seq {
                let node = cluster.alloc_node();
                let series = format!("{}.s{k}.c{i}", cfg.prefix);
                cluster.sim.add_node(
                    node,
                    SeqWorkload::new(mds_nodes.clone(), 0, *ino, cfg.mode, series),
                );
                row.push(node);
            }
            clients.push(row);
        }
        cluster.sim.run_for(SimDuration::from_millis(100));
        SeqBench {
            cluster,
            seq_inos,
            clients,
            admin,
            prefix: cfg.prefix,
        }
    }

    /// Starts every workload client.
    pub fn start_all(&mut self) {
        for row in self.clients.clone() {
            for node in row {
                self.cluster
                    .sim
                    .with_actor::<SeqWorkload, _>(node, |w, ctx| w.start(ctx));
            }
        }
    }

    /// Stops every workload client.
    pub fn stop_all(&mut self) {
        for row in self.clients.clone() {
            for node in row {
                self.cluster
                    .sim
                    .with_actor::<SeqWorkload, _>(node, |w, ctx| w.stop(ctx));
            }
        }
    }

    /// Total positions obtained across all clients.
    pub fn total_ops(&self) -> u64 {
        self.clients
            .iter()
            .flatten()
            .map(|n| self.cluster.sim.actor::<SeqWorkload>(*n).stats.ops)
            .sum()
    }

    /// All position events of one sequencer as `(seconds since t0_s,
    /// count)`, merged across its clients and both recording encodings.
    pub fn events_of_seq(&self, k: usize, t0_s: f64) -> Vec<(f64, f64)> {
        let metrics = self.cluster.sim.metrics();
        let mut events = Vec::new();
        for i in 0..self.clients[k].len() {
            for suffix in ["ops", "batch"] {
                let name = format!("{}.s{k}.c{i}.{suffix}", self.prefix);
                for s in metrics.series(&name) {
                    events.push((s.at.as_secs_f64() - t0_s, s.value));
                }
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        events
    }

    /// Sets the capability policy of sequencer `k`.
    pub fn set_policy(&mut self, k: usize, policy: mala_mds::types::CapPolicyConfig) {
        let mds0 = self.cluster.mds_node(0);
        let ino = self.seq_inos[k];
        self.cluster
            .sim
            .with_actor::<AdminClient, _>(self.admin, move |_, ctx| {
                ctx.send(mds0, MdsMsg::SetCapPolicy { ino, policy });
            });
        self.cluster.sim.run_for(SimDuration::from_millis(10));
    }

    /// Administratively migrates sequencer `k` to `rank` with `style`.
    pub fn migrate(&mut self, k: usize, rank: u32, style: mala_mds::ServeStyle) {
        let mds0 = self.cluster.mds_node(0);
        let ino = self.seq_inos[k];
        self.cluster
            .sim
            .with_actor::<AdminClient, _>(self.admin, move |_, ctx| {
                ctx.send(
                    mds0,
                    MdsMsg::AdminExport {
                        ino,
                        target: rank,
                        style,
                    },
                );
            });
    }
}

const ZLOG_MON: NodeId = NodeId(0);
const ZLOG_MDS0: NodeId = NodeId(20);
/// The first client of a [`zlog_cluster`]; the next ones follow it.
pub const ZLOG_CLIENT: NodeId = NodeId(100);
const ZLOG_OSDS: u32 = 4;

/// The client configuration for log `name` on a [`zlog_cluster`].
pub fn zlog_config(name: &str) -> ZlogConfig {
    ZlogConfig {
        name: name.to_string(),
        pool: "zlogpool".to_string(),
        stripe_width: 4,
        mds_nodes: HashMap::from([(0, ZLOG_MDS0)]),
        home_rank: 0,
        monitor: ZLOG_MON,
    }
}

/// One monitor, four OSDs, one MDS rank and `clients` (the first at
/// [`ZLOG_CLIENT`]), with the zlog class installed and the log set up by
/// the first client.
///
/// The node ids, the `add_node` order, the order of the updates in the one
/// `Submit` and the 3 s settle are pinned: they decide every RNG draw and
/// the event order behind `BENCH_zlog_append`, `BENCH_trace` and
/// `BENCH_zlog_read`, so changing any of them changes those numbers.
pub fn zlog_cluster(seed: u64, clients: Vec<ZlogClient>) -> Sim {
    let mut sim = Sim::new(seed);
    sim.add_node(
        ZLOG_MON,
        Monitor::new(0, vec![ZLOG_MON], MonConfig::default()),
    );
    for i in 0..ZLOG_OSDS {
        sim.add_node(NodeId(10 + i), Osd::new(i, ZLOG_MON, OsdConfig::default()));
    }
    sim.add_node(
        ZLOG_MDS0,
        Mds::new(0, ZLOG_MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    for (i, client) in (0u32..).zip(clients) {
        sim.add_node(NodeId(ZLOG_CLIENT.0 + i), client);
    }
    let mut updates = vec![
        OsdMapView::update_pool(
            "zlogpool",
            PoolInfo {
                pg_num: 32,
                replicas: 2,
            },
        ),
        MdsMapView::update_rank(0, ZLOG_MDS0, true),
        zlog_interface_update(),
    ];
    for i in 0..ZLOG_OSDS {
        updates.push(OsdMapView::update_osd(i, NodeId(10 + i), true));
    }
    sim.inject(ZLOG_MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    let res = run_op(
        &mut sim,
        ZLOG_CLIENT,
        SimDuration::from_secs(5),
        |c, ctx| c.setup(ctx),
    );
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    sim
}

/// A client for log `name` that batches up to `depth` queued appends (1 ms
/// flush window for partial queues).
pub fn pipelined_client(name: &str, depth: usize) -> ZlogClient {
    ZlogClient::with_batching(
        zlog_config(name),
        BatchConfig {
            queue_depth: depth,
            flush_window: SimDuration::from_millis(1),
        },
    )
}

/// Closed loop over the pipelined path: keeps `depth` `append_async` ops
/// in flight on [`ZLOG_CLIENT`] until `appends` have completed. Returns
/// `(position, latency_ms)` per append, in completion order; panics on a
/// failed or stalled append.
pub fn pipelined_appends(sim: &mut Sim, appends: usize, depth: usize) -> Vec<(u64, f64)> {
    let mut done_appends = Vec::with_capacity(appends);
    let mut inflight: Vec<(u64, SimTime)> = Vec::new();
    let mut submitted = 0usize;
    while done_appends.len() < appends {
        while inflight.len() < depth && submitted < appends {
            let data = format!("entry-{submitted}").into_bytes();
            let now = sim.now();
            let op = sim
                .with_actor::<ZlogClient, _>(ZLOG_CLIENT, move |c, ctx| c.append_async(ctx, data));
            inflight.push((op, now));
            submitted += 1;
        }
        if submitted == appends {
            // Tail of the run: don't idle on the flush window.
            sim.with_actor::<ZlogClient, _>(ZLOG_CLIENT, |c, ctx| c.flush(ctx));
        }
        let deadline = sim.now() + SimDuration::from_secs(60);
        let watched: Vec<u64> = inflight.iter().map(|(op, _)| *op).collect();
        let progressed = sim.run_until_pred(deadline, move |s| {
            let c = s.actor::<ZlogClient>(ZLOG_CLIENT);
            watched.iter().any(|&op| c.is_done(op))
        });
        assert!(progressed, "pipelined appends stalled at depth {depth}");
        let now = sim.now();
        inflight.retain(|&(op, t0)| {
            let client = sim.actor_mut::<ZlogClient>(ZLOG_CLIENT);
            if !client.is_done(op) {
                return true;
            }
            match client.take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Pos(p))) => {
                    done_appends.push((p, now.since(t0).as_secs_f64() * 1e3));
                }
                other => panic!("async append failed: {other:?}"),
            }
            false
        });
    }
    done_appends
}

/// Closed loop of plain `append`s (each a batch of one), one in flight at a
/// time.
pub struct ClosedLoop {
    client: NodeId,
    t0: SimTime,
    prefix: &'static str,
    /// `(completion_s since t0, latency_ms)` of every acked append.
    pub samples: Vec<(f64, f64)>,
    /// Appends that failed terminally or outlived their 90 s deadline.
    pub failures: u64,
    next: u64,
}

impl ClosedLoop {
    /// A loop on `client` that reports times since `t0` and appends
    /// `"{prefix}{n}"` payloads.
    pub fn new(client: NodeId, t0: SimTime, prefix: &'static str) -> ClosedLoop {
        ClosedLoop {
            client,
            t0,
            prefix,
            samples: Vec::new(),
            failures: 0,
            next: 0,
        }
    }

    /// Appends until the clock reaches `until`, advancing through `nemesis`
    /// in 20 ms steps so that scheduled faults land mid-append.
    pub fn append_until(&mut self, sim: &mut Sim, nemesis: &mut Nemesis, until: SimTime) {
        let node = self.client;
        while sim.now() < until {
            let started = sim.now();
            let payload = format!("{}{}", self.prefix, self.next).into_bytes();
            self.next += 1;
            let op = sim.with_actor::<ZlogClient, _>(node, move |c, ctx| c.append(ctx, payload));
            let deadline = started + SimDuration::from_secs(90);
            while !sim.actor::<ZlogClient>(node).is_done(op) && sim.now() < deadline {
                nemesis.run_for(sim, SimDuration::from_millis(20));
            }
            match sim.actor_mut::<ZlogClient>(node).take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Pos(_))) => {
                    let done = sim.now();
                    self.samples.push((
                        done.since(self.t0).as_secs_f64(),
                        done.since(started).as_micros() as f64 / 1000.0,
                    ));
                }
                _ => self.failures += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_runs_round_trip_workload() {
        let mut bench = SeqBench::build(SeqBenchCfg {
            sequencers: 2,
            clients_per_seq: 2,
            ..Default::default()
        });
        assert_eq!(bench.seq_inos.len(), 2);
        bench.start_all();
        bench.cluster.sim.run_for(SimDuration::from_secs(2));
        bench.stop_all();
        let total = bench.total_ops();
        assert!(total > 1000, "only {total} ops in 2 s");
        for row in &bench.clients {
            let ops = |n: &NodeId| bench.cluster.sim.actor::<SeqWorkload>(*n).stats.ops;
            assert!(row.iter().map(ops).sum::<u64>() > 0, "a sequencer was idle");
        }
        assert!(!bench.events_of_seq(0, 0.0).is_empty());
    }

    #[test]
    fn cached_mode_batches() {
        let mut bench = SeqBench::build(SeqBenchCfg {
            mode: SeqMode::Cached {
                op_time: SimDuration::from_micros(5),
            },
            clients_per_seq: 2,
            prefix: "cachedtest".to_string(),
            ..Default::default()
        });
        bench.set_policy(
            0,
            mala_mds::types::CapPolicyConfig::quota(1000, SimDuration::from_millis(250)),
        );
        bench.start_all();
        bench.cluster.sim.run_for(SimDuration::from_secs(2));
        bench.stop_all();
        let total = bench.total_ops();
        assert!(total > 50_000, "cached mode too slow: {total}");
        // Both clients made progress (the capability alternated).
        for node in &bench.clients[0] {
            let stats = bench.cluster.sim.actor::<SeqWorkload>(*node).stats;
            assert!(stats.ops > 0);
            assert!(stats.grants > 1);
        }
    }
}
