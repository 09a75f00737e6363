//! The OSD cluster map: membership, liveness, and pool definitions.
//!
//! The authoritative copy lives in the monitor's `osdmap` service-metadata
//! map as plain key-value entries; this module parses those entries,
//! through the one codec of `mala_consensus::maps`, into a typed view that
//! computes acting sets, and builds the updates that mutate them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

pub use mala_consensus::maps::PoolInfo;
use mala_consensus::maps::{MapKey, OsdEntry, WEIGHT_UNIT};
use mala_consensus::{MapSnapshot, MapUpdate, MapView, SERVICE_MAP_OSD};
use mala_sim::{IdMap, NodeId};

use crate::object::ObjectId;

/// Acting sets (primary first) by pool name and PG index.
type ActingSets = BTreeMap<String, IdMap<u32, Rc<[u32]>>>;

/// A parsed, versioned view of the OSD map. A view is one epoch: a new
/// epoch is a new view ([`OsdMapView::from_snapshot`]), never an edit of
/// this one, which is what lets it remember the placements it computed.
#[derive(Debug, Clone, Default)]
pub struct OsdMapView {
    /// Map epoch (the monitor map's epoch).
    pub epoch: u64,
    /// OSD id → entry.
    pub osds: BTreeMap<u32, OsdEntry>,
    /// Pool name → parameters.
    pub pools: BTreeMap<String, PoolInfo>,
    /// Entries in the snapshot that failed to parse (operator typos).
    /// Surfaced once per epoch by daemons as `rados.osdmap_skipped_entries`.
    pub skipped: u64,
    /// The acting sets asked for under this map: a placement is a function of the map, so it is scored and sorted
    /// once per epoch instead of once per request. Filled on demand (at
    /// most `pg_num` entries per pool) and dropped with the view.
    acting: RefCell<ActingSets>,
}

/// Two views are the same map when what they parsed is equal; what each
/// has computed from it so far says nothing.
impl PartialEq for OsdMapView {
    fn eq(&self, other: &OsdMapView) -> bool {
        (self.epoch, &self.osds, &self.pools, self.skipped)
            == (other.epoch, &other.osds, &other.pools, other.skipped)
    }
}

impl Eq for OsdMapView {}

impl MapView for OsdMapView {
    /// Parses the monitor's `osdmap` snapshot.
    ///
    /// Unparseable entries are skipped: the map is operator-writable and a
    /// bad entry must not wedge every daemon.
    fn from_snapshot(snap: &MapSnapshot) -> OsdMapView {
        let mut view = OsdMapView {
            epoch: snap.epoch,
            ..Default::default()
        };
        for (key, value) in &snap.entries {
            match MapKey::parse(key) {
                MapKey::Osd(id) => match OsdEntry::parse(value) {
                    Some(entry) => {
                        view.osds.insert(id, entry);
                    }
                    None => view.skipped += 1,
                },
                // A pool the monitor would not commit (a zero, say, in a
                // hand-written snapshot) is dropped, not clamped, so the
                // daemons and the monitor agree on which pools exist.
                MapKey::Pool(name) => match PoolInfo::parse(value) {
                    Some(info) => {
                        view.pools.insert(name.to_string(), info);
                    }
                    None => view.skipped += 1,
                },
                MapKey::Malformed => view.skipped += 1,
                MapKey::Mds(_) | MapKey::Standby(_) | MapKey::Epoch(_) | MapKey::Other => {}
            }
        }
        view
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn is_empty(&self) -> bool {
        self.osds.is_empty() && self.pools.is_empty()
    }
}

impl OsdMapView {
    /// Ids of OSDs currently up, ascending.
    pub fn up_osds(&self) -> Vec<u32> {
        self.osds
            .iter()
            .filter(|(_, e)| e.up)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Whether `osd` is up in this map.
    pub(crate) fn is_up(&self, osd: u32) -> bool {
        self.osds.get(&osd).is_some_and(|e| e.up)
    }

    /// The node hosting `osd`, if known.
    pub fn node_of(&self, osd: u32) -> Option<NodeId> {
        self.osds.get(&osd).map(|e| e.node)
    }

    /// Up OSDs paired with their placement weight (hundredths). Includes
    /// weight-zero (draining) entries; `acting_set_weighted` filters them.
    pub fn weighted_up_osds(&self) -> Vec<(u32, u32)> {
        self.osds
            .iter()
            .filter(|(_, e)| e.up)
            .map(|(id, e)| (*id, e.weight))
            .collect()
    }

    /// The acting set (primary first) for an object, given this map.
    ///
    /// Returns `None` when the pool is unknown.
    pub fn acting_set_for(&self, pool: &str, object_name: &str) -> Option<Rc<[u32]>> {
        let info = self.pools.get(pool)?;
        let pg = crate::placement::pg_of(pool, object_name, info.pg_num);
        self.acting_set_for_pg(pool, pg.index)
    }

    /// [`OsdMapView::acting_set_for`] for a caller that holds the object's
    /// id: placement reuses the id's hash words.
    pub fn acting_set_of(&self, oid: &ObjectId) -> Option<Rc<[u32]>> {
        let info = self.pools.get(&*oid.pool)?;
        let pg = crate::placement::pg_of_id(oid, info.pg_num);
        self.acting_set_for_pg(&oid.pool, pg.index)
    }

    /// The acting set for one PG of a pool (backfill works per-PG, not
    /// per-object), computed the first time this view is asked for it.
    /// Returns `None` when the pool is unknown.
    pub fn acting_set_for_pg(&self, pool: &str, pg_index: u32) -> Option<Rc<[u32]>> {
        let info = self.pools.get(pool)?;
        let mut acting = self.acting.borrow_mut();
        if let Some(set) = acting.get(pool).and_then(|pgs| pgs.get(&pg_index)) {
            return Some(Rc::clone(set));
        }
        let pg = crate::placement::PgId {
            pool_hash: crate::placement::stable_hash(pool),
            index: pg_index,
        };
        let set: Rc<[u32]> = crate::placement::acting_set_weighted(
            pg,
            &self.weighted_up_osds(),
            info.replicas as usize,
        )
        .into();
        // An index the pool does not have is answered, not remembered.
        if pg_index < info.pg_num {
            let pgs = acting.entry(pool.to_string()).or_default();
            pgs.insert(pg_index, Rc::clone(&set));
        }
        Some(set)
    }

    /// The entries this view parsed, encoded again: what an OSD gossips
    /// (an entry the view skipped is not passed on).
    pub fn encode(&self) -> BTreeMap<String, Vec<u8>> {
        let mut entries = BTreeMap::new();
        for (id, entry) in &self.osds {
            entries.insert(OsdEntry::key(*id), entry.encode());
        }
        for (name, info) in &self.pools {
            entries.insert(PoolInfo::key(name), info.encode());
        }
        entries
    }

    /// Builds the update registering (or re-marking) an OSD at weight 1.0×.
    pub fn update_osd(id: u32, node: NodeId, up: bool) -> MapUpdate {
        Self::update_osd_weighted(id, node, up, WEIGHT_UNIT)
    }

    /// Builds the update registering an OSD with an explicit placement
    /// weight (hundredths; 0 = draining).
    pub fn update_osd_weighted(id: u32, node: NodeId, up: bool, weight: u32) -> MapUpdate {
        let entry = OsdEntry { node, up, weight };
        MapUpdate::set(SERVICE_MAP_OSD, &OsdEntry::key(id), entry.encode())
    }

    /// Builds the update removing an OSD from the map entirely.
    pub fn remove_osd(id: u32) -> MapUpdate {
        MapUpdate::del(SERVICE_MAP_OSD, &OsdEntry::key(id))
    }

    /// Builds the update creating (or resizing) a pool.
    pub fn update_pool(name: &str, info: PoolInfo) -> MapUpdate {
        MapUpdate::set(SERVICE_MAP_OSD, &PoolInfo::key(name), info.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: Vec<(&str, &str)>, epoch: u64) -> MapSnapshot {
        MapSnapshot {
            map: SERVICE_MAP_OSD.to_string(),
            epoch,
            entries: entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.as_bytes().to_vec()))
                .collect(),
        }
    }

    #[test]
    fn parse_round_trip_via_updates() {
        let updates = vec![
            OsdMapView::update_osd(0, NodeId(10), true),
            OsdMapView::update_osd(1, NodeId(11), false),
            OsdMapView::update_pool(
                "meta",
                PoolInfo {
                    pg_num: 64,
                    replicas: 3,
                },
            ),
        ];
        let snap = MapSnapshot {
            map: SERVICE_MAP_OSD.to_string(),
            epoch: 5,
            entries: updates
                .into_iter()
                .map(|u| (u.key, u.value.unwrap()))
                .collect(),
        };
        let view = OsdMapView::from_snapshot(&snap);
        assert_eq!(view.epoch, 5);
        assert_eq!(
            view.osds[&0],
            OsdEntry {
                node: NodeId(10),
                up: true,
                weight: 100
            }
        );
        assert_eq!(
            view.osds[&1],
            OsdEntry {
                node: NodeId(11),
                up: false,
                weight: 100
            }
        );
        assert_eq!(
            view.pools["meta"],
            PoolInfo {
                pg_num: 64,
                replicas: 3
            }
        );
        assert_eq!(view.up_osds(), vec![0]);
        assert_eq!(view.node_of(1), Some(NodeId(11)));
        assert_eq!(view.node_of(9), None);
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let snap = snapshot(
            vec![
                ("osd.x", "node=1,up=1"),
                ("osd.2", "garbage"),
                ("osd.3", "node=9,up=1"),
                ("pool.p", "pg_num=zz,replicas=3"),
                ("unrelated", "ignored"),
            ],
            1,
        );
        let view = OsdMapView::from_snapshot(&snap);
        assert_eq!(view.osds.len(), 1);
        assert!(view.osds.contains_key(&3));
        assert!(view.pools.is_empty());
        // osd.x (bad id), osd.2 (garbage), pool.p (bad pg_num) — but not
        // the unrelated key, which is simply not ours to parse.
        assert_eq!(view.skipped, 3);
    }

    #[test]
    fn weights_round_trip_and_legacy_entries_default_to_unit() {
        let snap = snapshot(
            vec![
                // Legacy entry written before weights existed.
                ("osd.0", "node=10,up=1"),
                ("osd.1", "node=11,up=1,weight=250"),
                ("osd.2", "node=12,up=1,weight=0"),
                // An unparseable weight reads as unit weight too.
                ("osd.3", "node=13,up=0,weight=x"),
                ("pool.data", "pg_num=8,replicas=2"),
            ],
            3,
        );
        let view = OsdMapView::from_snapshot(&snap);
        assert_eq!(view.osds[&0].weight, 100);
        assert_eq!(view.osds[&1].weight, 250);
        assert_eq!(view.osds[&2].weight, 0);
        assert_eq!(view.osds[&3].weight, 100);
        assert_eq!(view.skipped, 0);
        // Draining osd 2 is up but never placed.
        assert_eq!(view.weighted_up_osds(), vec![(0, 100), (1, 250), (2, 0)]);
        let set = view.acting_set_for("data", "obj").unwrap();
        assert!(!set.contains(&2), "draining osd placed: {set:?}");
        assert_eq!(view.up_osds(), vec![0, 1, 2]);
        assert_eq!(view.node_of(1), Some(NodeId(11)));
        assert_eq!(view.node_of(9), None);

        // Builder round-trip.
        let update = OsdMapView::update_osd_weighted(7, NodeId(17), true, 50);
        assert_eq!(update.key, "osd.7");
        assert_eq!(
            update.value.as_deref(),
            Some(&b"node=17,up=1,weight=50"[..])
        );
        let removal = OsdMapView::remove_osd(7);
        assert_eq!(removal.key, "osd.7");
        assert!(removal.value.is_none());
    }

    /// The monitor's commit check and the view read a pool entry through
    /// one parse: what the monitor refuses to commit, a daemon skips.
    #[test]
    fn a_pool_the_monitor_refuses_to_commit_is_skipped_by_the_view() {
        for value in [
            "pg_num=0,replicas=3",
            "pg_num=8,replicas=0",
            "pg_num=zz,replicas=3",
            "garbage",
            "pg_num=8,replicas=2",
        ] {
            let update = MapUpdate::set(SERVICE_MAP_OSD, "pool.p", value.as_bytes());
            let view = OsdMapView::from_snapshot(&snapshot(vec![("pool.p", value)], 1));
            let committed = mala_consensus::maps::commit_allows(&update, None);
            assert_eq!(committed, view.pools.contains_key("p"), "{value}");
            assert_eq!(view.skipped, u64::from(!committed), "{value}");
        }
    }

    #[test]
    fn zero_pg_num_pools_are_dropped_not_clamped() {
        let snap = snapshot(
            vec![
                ("osd.0", "node=10,up=1"),
                ("pool.bad", "pg_num=0,replicas=3"),
                ("pool.worse", "pg_num=8,replicas=0"),
                ("pool.ok", "pg_num=8,replicas=2"),
            ],
            1,
        );
        let view = OsdMapView::from_snapshot(&snap);
        assert_eq!(view.pools.len(), 1);
        assert!(view.pools.contains_key("ok"));
        assert_eq!(view.skipped, 2);
        assert!(view.acting_set_for("bad", "obj").is_none());
    }

    #[test]
    fn per_pg_acting_set_matches_per_object_path() {
        let snap = snapshot(
            vec![
                ("osd.0", "node=10,up=1"),
                ("osd.1", "node=11,up=1"),
                ("osd.2", "node=12,up=1"),
                ("pool.data", "pg_num=8,replicas=2"),
            ],
            1,
        );
        let view = OsdMapView::from_snapshot(&snap);
        let pg = crate::placement::pg_of("data", "obj", 8);
        assert_eq!(
            view.acting_set_for_pg("data", pg.index).unwrap(),
            view.acting_set_for("data", "obj").unwrap()
        );
        assert!(view.acting_set_for_pg("nope", 0).is_none());
    }

    /// A placement is computed once per view: asking again hands back the
    /// same slice, whichever way it is asked for, and it is the slice the
    /// placement function computes. A view of another epoch starts over.
    #[test]
    fn acting_sets_are_computed_once_per_view() {
        let entries = vec![
            ("osd.0", "node=10,up=1"),
            ("osd.1", "node=11,up=1,weight=250"),
            ("osd.2", "node=12,up=1"),
            ("osd.3", "node=13,up=0"),
            ("pool.data", "pg_num=8,replicas=2"),
            ("pool.meta", "pg_num=4,replicas=3"),
        ];
        let view = OsdMapView::from_snapshot(&snapshot(entries.clone(), 1));
        for (pool, info) in view.pools.clone() {
            for index in 0..info.pg_num {
                let first = view.acting_set_for_pg(&pool, index).unwrap();
                let again = view.acting_set_for_pg(&pool, index).unwrap();
                assert!(Rc::ptr_eq(&first, &again), "{pool}/{index}");
                let pg = crate::placement::PgId {
                    pool_hash: crate::placement::stable_hash(&pool),
                    index,
                };
                let fresh = crate::placement::acting_set_weighted(
                    pg,
                    &view.weighted_up_osds(),
                    info.replicas as usize,
                );
                assert_eq!(&*first, &fresh[..], "{pool}/{index}");
            }
        }
        let by_name = view.acting_set_for("data", "obj").unwrap();
        let pg = crate::placement::pg_of("data", "obj", 8);
        let by_pg = view.acting_set_for_pg("data", pg.index).unwrap();
        assert!(Rc::ptr_eq(&by_name, &by_pg));
        // The memo is not part of what a view is, and a copy keeps it.
        let bare = OsdMapView::from_snapshot(&snapshot(entries.clone(), 1));
        assert_eq!(view, bare);
        assert!(Rc::ptr_eq(
            &view.clone().acting_set_for("data", "obj").unwrap(),
            &by_name
        ));
        let next = OsdMapView::from_snapshot(&snapshot(entries, 2));
        assert!(!Rc::ptr_eq(
            &next.acting_set_for("data", "obj").unwrap(),
            &by_name
        ));
    }

    #[test]
    fn acting_set_requires_known_pool() {
        let snap = snapshot(
            vec![
                ("osd.0", "node=10,up=1"),
                ("osd.1", "node=11,up=1"),
                ("pool.data", "pg_num=32,replicas=2"),
            ],
            1,
        );
        let view = OsdMapView::from_snapshot(&snap);
        let set = view.acting_set_for("data", "obj").unwrap();
        assert_eq!(set.len(), 2);
        assert!(view.acting_set_for("nope", "obj").is_none());
    }

    #[test]
    fn down_osds_leave_the_acting_set() {
        let mut entries = vec![("pool.data", "pg_num=8,replicas=2".to_string())];
        for i in 0..4u32 {
            entries.push((
                Box::leak(format!("osd.{i}").into_boxed_str()),
                format!("node={},up=1", 10 + i),
            ));
        }
        let snap = MapSnapshot {
            map: SERVICE_MAP_OSD.to_string(),
            epoch: 1,
            entries: entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.as_bytes().to_vec()))
                .collect(),
        };
        let view = OsdMapView::from_snapshot(&snap);
        let before = view.acting_set_for("data", "victim-obj").unwrap();
        // Mark the primary down and re-derive.
        let mut snap2 = snap.clone();
        snap2.entries.insert(
            format!("osd.{}", before[0]),
            format!("node={},up=0", 10 + before[0]).into_bytes(),
        );
        snap2.epoch = 2;
        let view2 = OsdMapView::from_snapshot(&snap2);
        let after = view2.acting_set_for("data", "victim-obj").unwrap();
        assert!(!after.contains(&before[0]));
    }
}
