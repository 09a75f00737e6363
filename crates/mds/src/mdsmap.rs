//! The MDS cluster map: rank → node/liveness, kept in the monitor's
//! `mdsmap` service-metadata map.
//!
//! The view and its entry codec live in `mala_consensus::maps`, next to
//! the monitor that commits them; this module is where the MDS side names
//! them.

pub use mala_consensus::maps::{MdsEntry, MdsMapView};

#[cfg(test)]
mod tests {
    use super::*;
    use mala_consensus::{MapSnapshot, MapView, SERVICE_MAP_MDS};
    use mala_sim::NodeId;

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
        assert_eq!(
            view.ranks[&1],
            MdsEntry {
                node: NodeId(21),
                up: false
            }
        );
        assert_eq!(view.node_of(0), Some(NodeId(20)));
        assert_eq!(view.node_of(1), None, "down rank is not addressable");
        assert_eq!(view.up_ranks(), vec![0]);
    }
}
