//! Cluster assembly: wires monitors, OSDs, MDS ranks, and clients into
//! one deterministic simulation.
//!
//! Node-id layout (stable across the repository's tests, examples, and
//! benches):
//!
//! * monitors: `0 .. n_mon`
//! * OSDs: `10 .. 10 + n_osd`
//! * MDS ranks: `1000 .. 1000 + n_mds`
//! * standby MDS daemons: `1500 .. 1500 + n_standby`
//! * clients (added by harnesses): `2000 ..`

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::{Mds, STANDBY_RANK};
use mala_mds::{Balancer, MdsConfig, MdsMapView, NoBalancer};
use mala_rados::client::request;
use mala_rados::{
    JournalSet, ObjectId, OpResult, Osd, OsdConfig, OsdError, OsdMapView, PoolInfo, RadosClient,
    Transaction,
};
use mala_sim::{FaultTargets, NetConfig, Network, NodeId, Sim, SimDuration};

/// Factory producing each rank's balancer (ranks may run different
/// policies, though in practice they share one).
pub type BalancerFactory = Box<dyn Fn(u32) -> Box<dyn Balancer>>;

/// Builder for a simulated Malacology cluster.
pub struct ClusterBuilder {
    monitors: u32,
    osds: u32,
    mds_ranks: u32,
    standby_mds: u32,
    pools: Vec<(String, PoolInfo)>,
    mon_config: MonConfig,
    osd_config: OsdConfig,
    mds_config: MdsConfig,
    net_config: NetConfig,
    balancer_factory: BalancerFactory,
    rados_clients: u32,
}

impl ClusterBuilder {
    /// A builder with one monitor, no OSDs, no MDS, default configs.
    pub fn new() -> ClusterBuilder {
        ClusterBuilder {
            monitors: 1,
            osds: 0,
            mds_ranks: 0,
            standby_mds: 0,
            pools: Vec::new(),
            mon_config: MonConfig::default(),
            osd_config: OsdConfig::default(),
            mds_config: MdsConfig::default(),
            net_config: NetConfig::default(),
            balancer_factory: Box::new(|_| Box::new(NoBalancer)),
            rados_clients: 1,
        }
    }

    /// Number of monitors (Paxos quorum size).
    pub fn monitors(mut self, n: u32) -> Self {
        self.monitors = n;
        self
    }

    /// Number of OSDs.
    pub fn osds(mut self, n: u32) -> Self {
        self.osds = n;
        self
    }

    /// Number of MDS ranks.
    pub fn mds_ranks(mut self, n: u32) -> Self {
        self.mds_ranks = n;
        self
    }

    /// Number of standby MDS daemons (promoted by the monitor into ranks
    /// it marks down).
    pub fn standby_mds(mut self, n: u32) -> Self {
        self.standby_mds = n;
        self
    }

    /// Declares a pool.
    pub fn pool(mut self, name: &str, pg_num: u32, replicas: u32) -> Self {
        self.pools
            .push((name.to_string(), PoolInfo { pg_num, replicas }));
        self
    }

    /// Overrides the monitor configuration.
    pub fn mon_config(mut self, config: MonConfig) -> Self {
        self.mon_config = config;
        self
    }

    /// Overrides the OSD configuration.
    pub fn osd_config(mut self, config: OsdConfig) -> Self {
        self.osd_config = config;
        self
    }

    /// Overrides the MDS configuration.
    pub fn mds_config(mut self, config: MdsConfig) -> Self {
        self.mds_config = config;
        self
    }

    /// Overrides the network model.
    pub fn net_config(mut self, config: NetConfig) -> Self {
        self.net_config = config;
        self
    }

    /// Sets the per-rank balancer factory.
    pub fn balancers(mut self, factory: impl Fn(u32) -> Box<dyn Balancer> + 'static) -> Self {
        self.balancer_factory = Box::new(factory);
        self
    }

    /// Number of general-purpose RADOS clients to pre-create.
    pub fn rados_clients(mut self, n: u32) -> Self {
        self.rados_clients = n;
        self
    }

    /// Builds the cluster and settles it.
    pub fn build(self, seed: u64) -> Cluster {
        let mut sim = Sim::with_network(seed, Network::new(self.net_config.clone()));
        let mon_nodes: Vec<NodeId> = (0..self.monitors).map(NodeId).collect();
        for rank in 0..self.monitors {
            sim.add_node(
                mon_nodes[rank as usize],
                Monitor::new(rank, mon_nodes.clone(), self.mon_config.clone()),
            );
        }
        let mon = mon_nodes[0];
        let journals = JournalSet::new();
        for i in 0..self.osds {
            let node = NodeId(10 + i);
            sim.add_node(
                node,
                Osd::with_journal(i, mon, self.osd_config.clone(), journals.journal(node)),
            );
        }
        for rank in 0..self.mds_ranks {
            sim.add_node(
                NodeId(1000 + rank),
                Mds::new(
                    rank,
                    mon,
                    self.mds_config.clone(),
                    (self.balancer_factory)(rank),
                ),
            );
        }
        for i in 0..self.standby_mds {
            sim.add_node(
                NodeId(1500 + i),
                Mds::standby(
                    mon,
                    self.mds_config.clone(),
                    (self.balancer_factory)(STANDBY_RANK),
                ),
            );
        }
        for i in 0..self.rados_clients {
            sim.add_node(NodeId(2000 + i), RadosClient::new(mon));
        }
        // Bootstrap maps.
        let mut updates = Vec::new();
        for (name, info) in &self.pools {
            updates.push(OsdMapView::update_pool(name, *info));
        }
        for i in 0..self.osds {
            updates.push(OsdMapView::update_osd(i, NodeId(10 + i), true));
        }
        for rank in 0..self.mds_ranks {
            updates.push(MdsMapView::update_rank(rank, NodeId(1000 + rank), true));
        }
        if !updates.is_empty() {
            sim.inject(mon, MonMsg::Submit { seq: 1, updates });
        }
        let mut cluster = Cluster {
            sim,
            monitors: self.monitors,
            osds: self.osds,
            mds_ranks: self.mds_ranks,
            standby_mds: self.standby_mds,
            rados_clients: self.rados_clients,
            next_client: 2000 + self.rados_clients,
            next_mon_seq: 2,
            osd_config: self.osd_config,
            journals,
        };
        // Long enough for the bootstrap maps to commit and propagate.
        cluster.sim.run_for(SimDuration::from_secs(3));
        cluster
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder::new()
    }
}

/// A running simulated cluster.
pub struct Cluster {
    /// The simulation; harnesses drive it directly.
    pub sim: Sim,
    monitors: u32,
    osds: u32,
    mds_ranks: u32,
    standby_mds: u32,
    rados_clients: u32,
    next_client: u32,
    next_mon_seq: u64,
    osd_config: OsdConfig,
    journals: JournalSet,
}

impl Cluster {
    /// The primary monitor's node.
    pub fn mon(&self) -> NodeId {
        NodeId(0)
    }

    /// Node of OSD `i`.
    pub fn osd_node(&self, i: u32) -> NodeId {
        assert!(i < self.osds, "osd {i} out of range");
        NodeId(10 + i)
    }

    /// Node of MDS rank `r`.
    pub fn mds_node(&self, r: u32) -> NodeId {
        assert!(r < self.mds_ranks, "mds rank {r} out of range");
        NodeId(1000 + r)
    }

    /// The rank → node table (for clients that follow redirects).
    pub fn mds_nodes(&self) -> std::collections::HashMap<u32, NodeId> {
        (0..self.mds_ranks).map(|r| (r, NodeId(1000 + r))).collect()
    }

    /// Node of standby MDS `i`.
    pub fn standby_node(&self, i: u32) -> NodeId {
        assert!(i < self.standby_mds, "standby {i} out of range");
        NodeId(1500 + i)
    }

    /// Fault targets for [`mala_sim::FaultSchedule::random_cluster`]:
    /// every OSD, every MDS rank node, every monitor. Standbys are left
    /// out so a schedule cannot kill the failover path it is testing.
    pub fn fault_targets(&self) -> FaultTargets {
        FaultTargets {
            osds: (0..self.osds).map(|i| NodeId(10 + i)).collect(),
            mds: (0..self.mds_ranks).map(|r| NodeId(1000 + r)).collect(),
            monitors: (0..self.monitors).map(NodeId).collect(),
        }
    }

    /// Role label for a node under this builder's id layout; pairs with
    /// [`mala_sim::Nemesis::with_labels`] for per-role fault metrics.
    pub fn node_role(node: NodeId) -> &'static str {
        match node.0 {
            0..=9 => "mon",
            10..=999 => "osd",
            1000..=1999 => "mds",
            _ => "client",
        }
    }

    /// Node of pre-created RADOS client `i`.
    pub fn client_node(&self, i: u32) -> NodeId {
        assert!(i < self.rados_clients, "client {i} out of range");
        NodeId(2000 + i)
    }

    /// Allocates a fresh node id for a harness-created actor.
    pub fn alloc_node(&mut self) -> NodeId {
        let id = NodeId(self.next_client);
        self.next_client += 1;
        id
    }

    /// Whether bootstrap finished: a leader exists and the maps committed.
    pub fn ready(&self) -> bool {
        (0..self.monitors).any(|r| self.sim.actor::<Monitor>(NodeId(r)).is_leader())
    }

    /// Submits service-metadata updates and waits for the commit ack.
    ///
    /// # Panics
    ///
    /// Panics if the update does not commit within 30 virtual seconds.
    pub fn commit_updates(&mut self, updates: Vec<mala_consensus::MapUpdate>) {
        let seq = self.next_mon_seq;
        self.next_mon_seq += 1;
        let mon = self.mon();
        // Route through a pre-created client so the ack has a receiver;
        // harness-level injects have no reply address we can wait on, so
        // instead wait for the map epochs to move.
        let before: Vec<(String, u64)> = {
            let m = self.sim.actor::<Monitor>(mon);
            updates
                .iter()
                .map(|u| (u.map.clone(), m.map(&u.map).map(|s| s.epoch).unwrap_or(0)))
                .collect()
        };
        self.sim.inject(mon, MonMsg::Submit { seq, updates });
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        let committed = self.sim.run_until_pred(deadline, |s| {
            let m = s.actor::<Monitor>(mon);
            before
                .iter()
                .all(|(map, epoch)| m.map(map).map(|s| s.epoch).unwrap_or(0) > *epoch)
        });
        assert!(committed, "map update did not commit in 30 s");
    }

    /// Submits service-metadata updates without waiting for the commit.
    /// Benchmarks that must keep a workload running through a map change
    /// use this and observe the effect through epochs or metrics.
    pub fn submit_updates(&mut self, updates: Vec<mala_consensus::MapUpdate>) {
        let seq = self.next_mon_seq;
        self.next_mon_seq += 1;
        let mon = self.mon();
        self.sim.inject(mon, MonMsg::Submit { seq, updates });
    }

    /// Synchronous RADOS request through pre-created client 0.
    pub fn rados(&mut self, oid: ObjectId, txn: Transaction) -> Result<Vec<OpResult>, OsdError> {
        let client = self.client_node(0);
        request(&mut self.sim, client, oid, txn, SimDuration::from_secs(30)).result
    }

    /// The per-node write-ahead journals (shared with the OSD actors).
    pub fn journals(&self) -> &JournalSet {
        &self.journals
    }

    /// Crashes OSD `i` and commits an osdmap marking it down, so peers
    /// resolve stuck replications and re-route.
    pub fn crash_osd(&mut self, i: u32) {
        let node = self.osd_node(i);
        self.sim.crash(node);
        self.commit_updates(vec![OsdMapView::update_osd(i, node, false)]);
    }

    /// Restarts OSD `i` with its journal (replayed on start) and commits
    /// an osdmap marking it up again, triggering recovery pulls.
    pub fn restart_osd(&mut self, i: u32) {
        let node = self.osd_node(i);
        let mon = self.mon();
        let osd = Osd::with_journal(i, mon, self.osd_config.clone(), self.journals.journal(node));
        self.sim.restart(node, osd);
        self.commit_updates(vec![OsdMapView::update_osd(i, node, true)]);
    }

    /// Adds a brand-new OSD to the running cluster: spawns its actor on
    /// the next node id in the OSD range, submits an osdmap entry at full
    /// weight, and returns its index as soon as the update is submitted,
    /// so a live workload keeps running while the join commits and
    /// propagates. The joiner's first map arrives at an epoch past
    /// bootstrap, so it backfills every PG it now owns from the previous
    /// acting sets before serving.
    pub fn add_osd_nowait(&mut self) -> u32 {
        let i = self.osds;
        let node = NodeId(10 + i);
        let mon = self.mon();
        let osd = Osd::with_journal(i, mon, self.osd_config.clone(), self.journals.journal(node));
        self.sim.add_node(node, osd);
        self.osds += 1;
        let update = OsdMapView::update_osd_weighted(i, node, true, mala_rados::WEIGHT_UNIT);
        self.submit_updates(vec![update]);
        i
    }

    /// Drains OSD `i`: commits weight 0. The daemon stays up — it keeps
    /// serving reads and sourcing backfill for its old PGs — but wins no
    /// new placements, so its data migrates off under the epoch guard; only
    /// the PGs whose rendezvous scores the change touches remap.
    pub fn drain_osd(&mut self, i: u32) {
        let node = self.osd_node(i);
        self.commit_updates(vec![OsdMapView::update_osd_weighted(i, node, true, 0)]);
    }

    /// Like [`Cluster::drain_osd`] but returns as soon as the weight-0
    /// update is submitted, without waiting for the commit.
    pub fn drain_osd_nowait(&mut self, i: u32) {
        let node = self.osd_node(i);
        self.submit_updates(vec![OsdMapView::update_osd_weighted(i, node, true, 0)]);
    }

    /// Removes OSD `i` from the osdmap entirely (typically after a drain).
    /// The actor keeps running but owns nothing; remaining PGs remap.
    pub fn remove_osd(&mut self, i: u32) {
        let _ = self.osd_node(i);
        self.commit_updates(vec![OsdMapView::remove_osd(i)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interfaces::{data_io, durability};
    use mala_consensus::{follower, MapUpdate, MapView, SERVICE_MAP_INTERFACES, SERVICE_MAP_OSD};
    use mala_rados::Op;

    #[test]
    fn builds_and_settles() {
        let cluster = ClusterBuilder::new()
            .monitors(3)
            .osds(4)
            .mds_ranks(2)
            .pool("data", 32, 2)
            .build(1);
        assert!(cluster.ready());
        // Every OSD has the map.
        for i in 0..4 {
            let osd = cluster.sim.actor::<Osd>(cluster.osd_node(i));
            assert!(osd.map_epoch() > 0, "osd {i} missing the bootstrap map");
        }
        let _ = cluster.mds_node(1);
        let _ = cluster.mds_nodes();
    }

    #[test]
    fn durability_round_trip() {
        let mut cluster = ClusterBuilder::new().osds(3).pool("meta", 16, 2).build(2);
        let oid = ObjectId::new("meta", "policy_v1");
        cluster
            .rados(oid.clone(), durability::put_blob(b"when() ...".to_vec()))
            .unwrap();
        let out = cluster.rados(oid, durability::get_blob()).unwrap();
        assert_eq!(out[0], OpResult::Data(b"when() ...".to_vec()));
    }

    #[test]
    fn interface_install_through_facade() {
        let mut cluster = ClusterBuilder::new().osds(3).pool("data", 16, 2).build(3);
        cluster.commit_updates(vec![data_io::install_interface(
            "echo",
            "function echo(input) return input end",
        )]);
        cluster.sim.run_for(SimDuration::from_secs(2));
        let out = cluster
            .rados(
                ObjectId::new("data", "obj"),
                data_io::call("echo", "echo", b"hi"),
            )
            .unwrap();
        assert_eq!(out[0], OpResult::CallOut(b"hi"[..].into()));
    }

    #[test]
    fn commit_updates_waits_for_epoch() {
        let mut cluster = ClusterBuilder::new().osds(1).pool("p", 8, 1).build(4);
        let epoch_before = cluster
            .sim
            .actor::<Monitor>(cluster.mon())
            .map("osdmap")
            .unwrap()
            .epoch;
        cluster.commit_updates(vec![OsdMapView::update_osd(0, NodeId(10), true)]);
        let epoch_after = cluster
            .sim
            .actor::<Monitor>(cluster.mon())
            .map("osdmap")
            .unwrap()
            .epoch;
        assert!(epoch_after > epoch_before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_osd_index_panics() {
        let cluster = ClusterBuilder::new().osds(1).build(5);
        cluster.osd_node(9);
    }

    #[test]
    fn crashed_osd_recovers_acked_writes_from_journal() {
        let mut cluster = ClusterBuilder::new().osds(3).pool("data", 16, 2).build(7);
        let oid = ObjectId::new("data", "durable");
        cluster
            .rados(oid.clone(), durability::put_blob(b"acked".to_vec()))
            .unwrap();
        // Crash every OSD holding the object, then bring one back: the
        // journal, not a surviving replica, must supply the bytes.
        let holders: Vec<u32> = (0..3)
            .filter(|i| {
                cluster
                    .sim
                    .actor::<Osd>(cluster.osd_node(*i))
                    .store()
                    .contains_key(&oid)
            })
            .collect();
        assert_eq!(holders.len(), 2);
        for &i in &holders {
            cluster.crash_osd(i);
        }
        cluster.restart_osd(holders[0]);
        cluster.sim.run_for(SimDuration::from_secs(2));
        let out = cluster.rados(oid, durability::get_blob()).unwrap();
        assert_eq!(out[0], OpResult::Data(b"acked".to_vec()));
        assert!(cluster.sim.metrics().counter("osd.journal_replays") >= 1);
    }

    #[test]
    fn added_osd_backfills_and_serves() {
        let mut cluster = ClusterBuilder::new().osds(3).pool("data", 32, 2).build(11);
        for i in 0..24 {
            cluster
                .rados(
                    ObjectId::new("data", format!("obj{i}")),
                    durability::put_blob(vec![i as u8; 64]),
                )
                .unwrap();
        }
        // The join commits, then the joiner backfills.
        let mon = cluster.mon();
        let osd_epoch = |s: &Sim| {
            s.actor::<Monitor>(mon)
                .map(SERVICE_MAP_OSD)
                .map(|m| m.epoch)
        };
        let before = osd_epoch(&cluster.sim);
        let joiner = cluster.add_osd_nowait();
        let deadline = cluster.sim.now() + SimDuration::from_secs(30);
        let committed = cluster
            .sim
            .run_until_pred(deadline, |s| osd_epoch(s) > before);
        assert!(committed, "the join did not commit in 30 s");
        cluster.sim.run_for(SimDuration::from_secs(5));
        // The joiner won placements and pulled their objects over.
        let owned = cluster
            .sim
            .actor::<Osd>(cluster.osd_node(joiner))
            .store()
            .len();
        assert!(owned > 0, "joiner owns no objects after backfill");
        assert!(cluster.sim.metrics().counter("osd.backfills_completed") > 0);
        // Everything is still readable after the remap.
        for i in 0..24 {
            let out = cluster
                .rados(
                    ObjectId::new("data", format!("obj{i}")),
                    durability::get_blob(),
                )
                .unwrap();
            assert_eq!(out[0], OpResult::Data(vec![i as u8; 64]));
        }
    }

    #[test]
    fn drained_osd_hands_off_all_placements() {
        let mut cluster = ClusterBuilder::new().osds(4).pool("data", 32, 2).build(12);
        for i in 0..24 {
            cluster
                .rados(
                    ObjectId::new("data", format!("obj{i}")),
                    durability::put_blob(vec![i as u8; 64]),
                )
                .unwrap();
        }
        cluster.drain_osd(1);
        cluster.sim.run_for(SimDuration::from_secs(5));
        // Weight 0 ⇒ the drained OSD appears in no acting set.
        let map = cluster
            .sim
            .actor::<Osd>(cluster.osd_node(0))
            .osdmap()
            .clone();
        for pg in 0..32 {
            let set = map.acting_set_for_pg("data", pg).unwrap();
            assert!(
                !set.contains(&1),
                "pg {pg} still maps to drained osd 1: {set:?}"
            );
        }
        for i in 0..24 {
            let out = cluster
                .rados(
                    ObjectId::new("data", format!("obj{i}")),
                    durability::get_blob(),
                )
                .unwrap();
            assert_eq!(out[0], OpResult::Data(vec![i as u8; 64]));
        }
        // Removing the drained OSD after handoff keeps the cluster healthy.
        cluster.remove_osd(1);
        cluster.sim.run_for(SimDuration::from_secs(2));
        let out = cluster
            .rados(ObjectId::new("data", "obj0"), durability::get_blob())
            .unwrap();
        assert_eq!(out[0], OpResult::Data(vec![0u8; 64]));
    }

    #[test]
    fn write_with_replication_lands_on_acting_set() {
        let mut cluster = ClusterBuilder::new().osds(5).pool("data", 32, 3).build(6);
        cluster
            .rados(
                ObjectId::new("data", "x"),
                vec![Op::Append {
                    data: b"payload".to_vec(),
                }],
            )
            .unwrap();
        cluster.sim.run_for(SimDuration::from_millis(100));
        let holders = (0..5)
            .filter(|i| {
                cluster
                    .sim
                    .actor::<Osd>(cluster.osd_node(*i))
                    .store()
                    .contains_key(&ObjectId::new("data", "x"))
            })
            .count();
        assert_eq!(holders, 3);
    }

    /// One monitor and three OSDs that gossip to nobody: only the monitor
    /// can tell OSD 0 of a commit. `missed` commits while OSD 0 is cut
    /// off, `next` once it is back; then OSD 0 must hold the monitor's
    /// map whole, the missed change included, not merely its epoch.
    fn miss_one_commit(missed: MapUpdate, next: MapUpdate) -> Cluster {
        let mut cluster = ClusterBuilder::new()
            .osds(3)
            .osd_config(OsdConfig {
                gossip_fanout: 0,
                ..OsdConfig::default()
            })
            .build(9);
        let osd0 = cluster.osd_node(0);
        cluster.sim.network_mut().isolate(osd0);
        cluster.commit_updates(vec![missed]);
        cluster.sim.network_mut().rejoin(osd0);
        cluster.commit_updates(vec![next]);
        cluster.sim.run_for(SimDuration::from_secs(2));
        cluster
    }

    #[test]
    fn an_osd_that_missed_an_osdmap_epoch_adopts_the_whole_next_one() {
        let cluster = miss_one_commit(
            OsdMapView::update_osd_weighted(1, NodeId(11), true, 50),
            OsdMapView::update_osd_weighted(2, NodeId(12), true, 70),
        );
        let committed = cluster.sim.actor::<Monitor>(cluster.mon()).map("osdmap");
        let committed = OsdMapView::from_snapshot(committed.unwrap());
        let osd = cluster.sim.actor::<Osd>(cluster.osd_node(0));
        assert_eq!(*osd.osdmap(), committed);
    }

    /// A RADOS client re-asks for the osdmap by subscribing again, so a
    /// monitor restarted empty, which holds no subscriber, learns of it:
    /// the client bounced after the restart adopts the next commit that
    /// monitor pushes. OSD 0 alone is subscribed again by hand, as no
    /// OSD re-asks, so only it hears the first commit and bounces the
    /// client's request.
    #[test]
    fn a_client_bounced_after_a_monitor_restart_follows_its_pushes() {
        let mut cluster = ClusterBuilder::new()
            .monitors(3)
            .osds(3)
            .pool("data", 32, 2)
            .rados_clients(1)
            .build(11);
        let (mon, osd0, client) = (cluster.mon(), cluster.osd_node(0), cluster.client_node(0));
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        cluster.sim.crash(mon);
        let restarted = Monitor::new(0, peers, MonConfig::default());
        cluster.sim.restart(mon, restarted);
        cluster.sim.run_for(SimDuration::from_secs(3));
        let osdmap = |c: &Cluster| {
            let snap = c.sim.actor::<Monitor>(mon).map(SERVICE_MAP_OSD).unwrap();
            OsdMapView::from_snapshot(snap)
        };
        let epoch = osdmap(&cluster).epoch;
        assert_eq!(cluster.sim.actor::<RadosClient>(client).map_epoch(), epoch);
        cluster.sim.with_actor::<Osd, _>(osd0, |_, ctx| {
            follower::subscribe(ctx, mon, SERVICE_MAP_OSD);
        });
        let extra = PoolInfo {
            pg_num: 8,
            replicas: 2,
        };
        cluster.commit_updates(vec![OsdMapView::update_pool("extra", extra)]);
        cluster.sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cluster.sim.actor::<Osd>(osd0).map_epoch(), epoch + 1);
        let map = osdmap(&cluster);
        let name = (0..)
            .map(|i| format!("obj{i}"))
            .find(|name| map.acting_set_for("data", name).unwrap()[0] == 0)
            .unwrap();
        let txn = vec![Op::Append {
            data: b"x".to_vec(),
        }];
        cluster.rados(ObjectId::new("data", &*name), txn).unwrap();
        assert_eq!(cluster.sim.metrics().counter("osd.stale_epoch_rejects"), 1);
        assert_eq!(
            cluster.sim.actor::<RadosClient>(client).map_epoch(),
            epoch + 1
        );
        cluster.commit_updates(vec![OsdMapView::update_pool("more", extra)]);
        cluster.sim.run_for(SimDuration::from_millis(100));
        let held = cluster.sim.actor::<RadosClient>(client).map_epoch();
        assert_eq!(held, epoch + 2, "the client follows the restarted monitor");
    }

    #[test]
    fn an_osd_that_missed_an_interfaces_epoch_adopts_the_whole_next_one() {
        let cluster = miss_one_commit(
            data_io::install_interface("missed", "function f(input) return input end"),
            data_io::install_interface("next", "function g(input) return input end"),
        );
        let committed = cluster.sim.actor::<Monitor>(cluster.mon());
        let committed = committed.map(SERVICE_MAP_INTERFACES).unwrap();
        let osd = cluster.sim.actor::<Osd>(cluster.osd_node(0));
        assert_eq!(osd.interfaces_epoch(), committed.epoch);
        for class in committed.entries.keys() {
            assert_eq!(
                osd.registry().scripted_version(class),
                Some(committed.epoch),
                "{class}"
            );
        }
    }
}
