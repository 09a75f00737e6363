//! The MDS cluster map: rank → node/liveness, kept in the monitor's
//! `mdsmap` service-metadata map.

use std::collections::BTreeMap;

use mala_consensus::{MapSnapshot, MapUpdate, MapView, SERVICE_MAP_MDS};
use mala_sim::NodeId;

/// One rank's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdsEntry {
    /// Node hosting the rank.
    pub node: NodeId,
    /// Whether the rank is up.
    pub up: bool,
}

/// Parsed view of the MDS map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MdsMapView {
    /// Map epoch.
    pub epoch: u64,
    /// Rank → entry.
    pub ranks: BTreeMap<u32, MdsEntry>,
    /// Registered standby daemons, ascending by node id. Promotion moves a
    /// node from here into `ranks`.
    pub standbys: Vec<NodeId>,
}

impl MapView for MdsMapView {
    /// Parses the monitor's `mdsmap` snapshot (unparseable entries are
    /// skipped).
    fn from_snapshot(snap: &MapSnapshot) -> MdsMapView {
        let mut view = MdsMapView {
            epoch: snap.epoch,
            ..Default::default()
        };
        for (key, value) in &snap.entries {
            if let Some(node) = key.strip_prefix("standby.") {
                if let Ok(node) = node.parse::<u32>() {
                    view.standbys.push(NodeId(node));
                }
                continue;
            }
            let Some(rank) = key.strip_prefix("mds.") else {
                continue;
            };
            let Ok(rank) = rank.parse::<u32>() else {
                continue;
            };
            let value = String::from_utf8_lossy(value);
            let mut node = None;
            let mut up = None;
            for part in value.split(',') {
                match part.split_once('=') {
                    Some(("node", n)) => node = n.parse::<u32>().ok().map(NodeId),
                    Some(("up", u)) => up = Some(u == "1"),
                    _ => {}
                }
            }
            if let (Some(node), Some(up)) = (node, up) {
                view.ranks.insert(rank, MdsEntry { node, up });
            }
        }
        view.standbys.sort_unstable();
        view
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A view without ranks routes nothing, whatever standbys it lists.
    fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

impl MdsMapView {
    /// The node of a rank, if present and up.
    pub fn node_of(&self, rank: u32) -> Option<NodeId> {
        self.ranks.get(&rank).filter(|e| e.up).map(|e| e.node)
    }

    /// Ranks currently up, ascending.
    pub fn up_ranks(&self) -> Vec<u32> {
        self.ranks
            .iter()
            .filter(|(_, e)| e.up)
            .map(|(r, _)| *r)
            .collect()
    }

    /// The rank a node currently serves (up entries only), if any. Used by
    /// a standby to detect its own promotion.
    pub fn rank_of(&self, node: NodeId) -> Option<u32> {
        self.ranks
            .iter()
            .find(|(_, e)| e.up && e.node == node)
            .map(|(r, _)| *r)
    }

    /// Builds the monitor update registering a rank.
    pub fn update_rank(rank: u32, node: NodeId, up: bool) -> MapUpdate {
        MapUpdate::set(
            SERVICE_MAP_MDS,
            &format!("mds.{rank}"),
            format!("node={},up={}", node.0, u8::from(up)).into_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let updates = vec![
            MdsMapView::update_rank(0, NodeId(20), true),
            MdsMapView::update_rank(1, NodeId(21), false),
        ];
        let snap = MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch: 3,
            entries: updates
                .into_iter()
                .map(|u| (u.key, u.value.unwrap()))
                .collect(),
        };
        let view = MdsMapView::from_snapshot(&snap);
        assert_eq!(view.epoch, 3);
        assert_eq!(view.node_of(0), Some(NodeId(20)));
        assert_eq!(view.node_of(1), None, "down rank is not addressable");
        assert_eq!(view.up_ranks(), vec![0]);
    }

    #[test]
    fn garbage_skipped() {
        let snap = MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch: 1,
            entries: [
                ("mds.zz".to_string(), b"node=1,up=1".to_vec()),
                ("mds.0".to_string(), b"nonsense".to_vec()),
                ("other".to_string(), b"x".to_vec()),
            ]
            .into_iter()
            .collect(),
        };
        assert!(MdsMapView::from_snapshot(&snap).ranks.is_empty());
    }
}
