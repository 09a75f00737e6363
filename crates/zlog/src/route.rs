//! Placement-aware MDS routing for sequencer traffic.
//!
//! With thousands of logs spread across many MDS ranks by Mantle
//! policies, funnelling every grant through a static home rank turns
//! rank 0 into the fleet bottleneck. [`SeqRouter`] caches which rank
//! owns each sequencer inode — learned from `Resolved` replies (which
//! carry the authoritative rank) and from `NotAuth` redirects — and
//! routes type ops straight there. Namespace ops (resolve/create) keep
//! going to the home rank, which owns the directory tree.
//!
//! The router also follows the mdsmap, through a [`MapFollower`].

use std::collections::HashMap;

use mala_consensus::{MapFollower, SERVICE_MAP_MDS};
use mala_mds::{Ino, MdsMapView};
use mala_sim::{IdMap, NodeId};

/// Per-client routing state: live mdsmap plus a sequencer-inode
/// placement cache.
#[derive(Debug, Clone)]
pub struct SeqRouter {
    /// Static rank → node fallback (from config; used until the first
    /// mdsmap snapshot arrives).
    mds_nodes: IdMap<u32, NodeId>,
    /// Rank owning the namespace (resolve/create) and the default
    /// target for sequencers with no cached placement.
    home_rank: u32,
    /// Live MDS map: failover moves a rank to another node, and requests
    /// must follow it rather than the static config.
    pub mdsmap: MapFollower<MdsMapView>,
    /// Sequencer inode → authoritative rank, learned from `Resolved`
    /// replies and `NotAuth` redirects.
    placement: IdMap<Ino, u32>,
}

impl SeqRouter {
    /// Creates a router with the static config fallback, following the
    /// mdsmap at `monitor`.
    pub fn new(mds_nodes: HashMap<u32, NodeId>, home_rank: u32, monitor: NodeId) -> SeqRouter {
        SeqRouter {
            mds_nodes: mds_nodes.into_iter().collect(),
            home_rank,
            mdsmap: MapFollower::new(SERVICE_MAP_MDS, monitor),
            placement: IdMap::default(),
        }
    }

    /// The home (namespace) rank.
    pub fn home_rank(&self) -> u32 {
        self.home_rank
    }

    /// The rank sequencer `ino` should be addressed at: the cached
    /// placement, or the home rank before any is learned.
    pub fn rank_of(&self, ino: Ino) -> u32 {
        self.placement.get(&ino).copied().unwrap_or(self.home_rank)
    }

    /// The node serving `rank`, preferring the live map (failover moves
    /// ranks between nodes) and falling back to the static config until
    /// the first snapshot arrives. `None` means the rank is unroutable
    /// right now — the caller withholds the message and re-drives on
    /// the next mdsmap.
    pub fn node_for_rank(&self, rank: u32) -> Option<NodeId> {
        self.mdsmap
            .view()
            .node_of(rank)
            .or_else(|| self.mds_nodes.get(&rank).copied())
    }

    /// The node to send sequencer traffic for `ino` to.
    pub fn target(&self, ino: Ino) -> Option<NodeId> {
        self.node_for_rank(self.rank_of(ino))
    }

    /// Records that `rank` is authoritative for `ino` (from a
    /// `Resolved` reply or a `NotAuth` redirect). Returns whether the
    /// cached placement changed.
    pub fn learn(&mut self, ino: Ino, rank: u32) -> bool {
        self.placement.insert(ino, rank) != Some(rank)
    }

    /// Drops every placement pointing at `rank` — used when the rank
    /// reports `MdsUnavailable` or vanishes from the map, so affected
    /// logs re-resolve instead of hammering a dead address.
    pub fn invalidate_rank(&mut self, rank: u32) -> usize {
        let before = self.placement.len();
        self.placement.retain(|_, r| *r != rank);
        before - self.placement.len()
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;
    use mala_consensus::{MapSnapshot, MonMsg};
    use mala_sim::{Actor, Context, Sim};

    const NODE: NodeId = NodeId(1);

    /// A node holding a router, so that a test hands it snapshots with a
    /// context.
    struct Holder(SeqRouter);

    impl Actor for Holder {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}
    }

    fn router() -> Sim {
        let mut sim = Sim::new(0);
        let router = SeqRouter::new(HashMap::from([(0, NodeId(20))]), 0, NodeId(0));
        sim.add_node(NODE, Holder(router));
        sim
    }

    fn r(sim: &mut Sim) -> &mut SeqRouter {
        &mut sim.actor_mut::<Holder>(NODE).0
    }

    /// Hands the router an mdsmap snapshot; returns whether it adopted it.
    fn adopt(sim: &mut Sim, epoch: u64, ranks: &[(u32, u32)]) -> bool {
        let snap = MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch,
            entries: ranks
                .iter()
                .map(|(r, n)| (format!("mds.{r}"), format!("node={n},up=1").into_bytes()))
                .collect(),
        };
        let msg = MonMsg::Snapshot(snap);
        sim.with_actor::<Holder, _>(NODE, |h, _| h.0.mdsmap.follow(&msg)) == Some(true)
    }

    #[test]
    fn placement_defaults_to_home_and_follows_learning() {
        let mut sim = router();
        let r = r(&mut sim);
        assert_eq!(r.rank_of(7), 0);
        assert_eq!(r.target(7), Some(NodeId(20)));
        assert!(r.learn(7, 2));
        assert!(!r.learn(7, 2), "re-learning the same rank is a no-op");
        assert_eq!(r.rank_of(7), 2);
        // Rank 2 is unroutable until a map names its node.
        assert_eq!(r.target(7), None);
        assert!(adopt(&mut sim, 1, &[(0, 20), (2, 22)]));
        let r = self::r(&mut sim);
        assert_eq!(r.target(7), Some(NodeId(22)));
        r.invalidate_rank(2);
        assert_eq!(r.rank_of(7), 0);
    }

    #[test]
    fn invalidate_rank_drops_only_that_ranks_placements() {
        let mut sim = router();
        let r = r(&mut sim);
        r.learn(7, 2);
        r.learn(8, 2);
        r.learn(9, 1);
        assert_eq!(r.invalidate_rank(2), 2);
        assert_eq!(r.rank_of(7), 0);
        assert_eq!(r.rank_of(9), 1);
    }

    #[test]
    fn live_map_preferred_over_static_config() {
        let mut sim = router();
        assert_eq!(
            r(&mut sim).node_for_rank(0),
            Some(NodeId(20)),
            "static fallback"
        );
        assert!(adopt(&mut sim, 1, &[(0, 30)]));
        assert_eq!(
            r(&mut sim).node_for_rank(0),
            Some(NodeId(30)),
            "failover followed"
        );
    }
}
