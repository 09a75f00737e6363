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
//! The router also centralizes the client's mdsmap handling, including
//! two rules that each fixed a routing bug:
//!
//! * **Stale `Changed` skip** — the monitor's `Changed` notification
//!   carries the new epoch; a notification at or below the cached epoch
//!   must not trigger a full-map `Get`, or N clients × one balancer
//!   epoch bump means N full-map round trips (the re-fetch thundering
//!   herd).
//! * **Same-epoch adoption when empty** — a snapshot re-published at
//!   the cached epoch is adopted when the local view has no ranks
//!   (restart/resubscribe before any epoch bump), instead of being
//!   dropped by a strict `>` guard and leaving the client blind until
//!   the next bump.

use std::collections::HashMap;

use mala_consensus::MapSnapshot;
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
    /// Live MDS map: failover moves a rank to another node, and
    /// requests must follow it rather than the static config.
    mdsmap: MdsMapView,
    /// Sequencer inode → authoritative rank, learned from `Resolved`
    /// replies and `NotAuth` redirects.
    placement: IdMap<Ino, u32>,
}

impl SeqRouter {
    /// Creates a router with the static config fallback.
    pub fn new(mds_nodes: HashMap<u32, NodeId>, home_rank: u32) -> SeqRouter {
        SeqRouter {
            mds_nodes: mds_nodes.into_iter().collect(),
            home_rank,
            mdsmap: MdsMapView::default(),
            placement: IdMap::default(),
        }
    }

    /// The home (namespace) rank.
    pub fn home_rank(&self) -> u32 {
        self.home_rank
    }

    /// The cached mdsmap view.
    pub fn mdsmap(&self) -> &MdsMapView {
        &self.mdsmap
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

    /// Drops the cached placement for `ino` (the next op re-resolves
    /// through the home rank).
    pub fn forget(&mut self, ino: Ino) {
        self.placement.remove(&ino);
    }

    /// Drops every placement pointing at `rank` — used when the rank
    /// reports `MdsUnavailable` or vanishes from the map, so affected
    /// logs re-resolve instead of hammering a dead address.
    pub fn invalidate_rank(&mut self, rank: u32) -> usize {
        let before = self.placement.len();
        self.placement.retain(|_, r| *r != rank);
        before - self.placement.len()
    }

    /// Whether a `Changed { epoch }` notification warrants a full-map
    /// `Get`: only when it is newer than the cached view. Skipping
    /// stale ones is what keeps N subscribed clients from issuing N
    /// full-map fetches for an epoch they already hold.
    pub fn needs_fetch(&self, epoch: u64) -> bool {
        epoch > self.mdsmap.epoch
    }

    /// Adopts an mdsmap snapshot. Newer epochs always win; a snapshot
    /// *at* the cached epoch is adopted only when the local view has no
    /// ranks (a re-published snapshot after restart/resubscribe must
    /// not be dropped by the strict `>` guard). Returns whether the
    /// view changed.
    pub fn adopt_snapshot(&mut self, snap: &MapSnapshot) -> bool {
        let adopt = snap.epoch > self.mdsmap.epoch
            || (snap.epoch >= self.mdsmap.epoch && self.mdsmap.ranks.is_empty());
        if !adopt {
            return false;
        }
        let view = MdsMapView::from_snapshot(snap);
        if view == self.mdsmap {
            return false;
        }
        self.mdsmap = view;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_consensus::SERVICE_MAP_MDS;

    fn snap(epoch: u64, ranks: &[(u32, u32)]) -> MapSnapshot {
        MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch,
            entries: ranks
                .iter()
                .map(|(r, n)| (format!("mds.{r}"), format!("node={n},up=1").into_bytes()))
                .collect(),
        }
    }

    fn router() -> SeqRouter {
        SeqRouter::new(HashMap::from([(0, NodeId(20))]), 0)
    }

    #[test]
    fn placement_defaults_to_home_and_follows_learning() {
        let mut r = router();
        assert_eq!(r.rank_of(7), 0);
        assert_eq!(r.target(7), Some(NodeId(20)));
        assert!(r.learn(7, 2));
        assert!(!r.learn(7, 2), "re-learning the same rank is a no-op");
        assert_eq!(r.rank_of(7), 2);
        // Rank 2 is unroutable until a map names its node.
        assert_eq!(r.target(7), None);
        assert!(r.adopt_snapshot(&snap(1, &[(0, 20), (2, 22)])));
        assert_eq!(r.target(7), Some(NodeId(22)));
        r.forget(7);
        assert_eq!(r.rank_of(7), 0);
    }

    #[test]
    fn invalidate_rank_drops_only_that_ranks_placements() {
        let mut r = router();
        r.learn(7, 2);
        r.learn(8, 2);
        r.learn(9, 1);
        assert_eq!(r.invalidate_rank(2), 2);
        assert_eq!(r.rank_of(7), 0);
        assert_eq!(r.rank_of(9), 1);
    }

    #[test]
    fn live_map_preferred_over_static_config() {
        let mut r = router();
        assert_eq!(r.node_for_rank(0), Some(NodeId(20)), "static fallback");
        assert!(r.adopt_snapshot(&snap(1, &[(0, 30)])));
        assert_eq!(r.node_for_rank(0), Some(NodeId(30)), "failover followed");
    }

    #[test]
    fn stale_changed_needs_no_fetch() {
        let mut r = router();
        assert!(r.needs_fetch(1), "anything beats the default empty view");
        r.adopt_snapshot(&snap(3, &[(0, 20)]));
        assert!(!r.needs_fetch(2));
        assert!(!r.needs_fetch(3), "cached epoch itself is not newer");
        assert!(r.needs_fetch(4));
    }

    #[test]
    fn same_epoch_snapshot_adopted_only_when_view_is_empty() {
        let mut r = router();
        // A garbage snapshot parses to an empty view but moves the epoch.
        let garbage = MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch: 5,
            entries: [("mds.0".to_string(), b"nonsense".to_vec())]
                .into_iter()
                .collect(),
        };
        assert!(r.adopt_snapshot(&garbage));
        assert!(r.mdsmap().ranks.is_empty());
        // Re-published at the same epoch with real entries: adopted,
        // because the local view is empty.
        assert!(r.adopt_snapshot(&snap(5, &[(0, 20)])));
        assert_eq!(r.node_for_rank(0), Some(NodeId(20)));
        // With a populated view, the same epoch no longer overwrites.
        assert!(!r.adopt_snapshot(&snap(5, &[(0, 99)])));
        assert_eq!(r.node_for_rank(0), Some(NodeId(20)));
        // Older epochs never regress the view.
        assert!(!r.adopt_snapshot(&snap(4, &[(0, 99)])));
    }
}
