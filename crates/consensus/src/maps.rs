//! The entry codec of the typed cluster maps. The monitor keeps each map
//! as key-value entries; the typed ones hold `k=v` text, so map dumps stay
//! human-readable:
//!
//! | map | key | value |
//! |---|---|---|
//! | osdmap | `osd.<id>` | [`OsdEntry`]: `node=<N>,up=<0\|1>,weight=<W>` |
//! | osdmap | `pool.<name>` | [`PoolInfo`]: `pg_num=<P>,replicas=<R>` |
//! | mdsmap | `mds.<rank>` | [`MdsEntry`]: `node=<N>,up=<0\|1>` |
//! | mdsmap | `standby.<node>` | `1`: a registered standby daemon |
//! | zlog | `epoch.<log>` | [`LogEpoch`]: decimal |
//!
//! The monitor and the daemons read and write entries only through this
//! module, so they agree on what an entry means and on the order of ranks.
//! It also says which maps' client updates the monitor proposes at once
//! (`proposes_at_once`).

use std::collections::BTreeMap;

use mala_sim::NodeId;

use crate::follower::MapView;
use crate::monitor::{MapSnapshot, MapUpdate};

/// Name of the OSD cluster map.
pub const SERVICE_MAP_OSD: &str = "osdmap";
/// Name of the MDS cluster map.
pub const SERVICE_MAP_MDS: &str = "mdsmap";
/// Name of the map of log epochs, which a seal bumps (DESIGN §12).
pub const SERVICE_MAP_ZLOG: &str = "zlog";
/// Placement weight 1.0× in hundredths: an OSD entry's default weight.
pub const WEIGHT_UNIT: u32 = 100;

/// The maps whose client updates the monitor proposes when they arrive:
/// a seal's epoch bump is on the path a log takes back to service. Every
/// other map (osdmap, mdsmap, interfaces, mantle) waits for the proposal
/// tick, which exists to batch updates (DESIGN §12).
const PROPOSED_AT_ONCE: [&str; 1] = [SERVICE_MAP_ZLOG];

/// Whether the monitor proposes a client transaction when it arrives:
/// every one of its updates is in a map proposed at once. Any other
/// transaction waits for the tick whole, so none is split across two
/// proposals.
pub(crate) fn proposes_at_once(updates: &[MapUpdate]) -> bool {
    let at_once = |up: &MapUpdate| PROPOSED_AT_ONCE.contains(&up.map.as_str());
    !updates.is_empty() && updates.iter().all(at_once)
}

/// What a key of a typed map names. `Malformed` is a typed prefix before
/// a number that does not parse (`osd.x`); `Other` is any other key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKey<'a> {
    Osd(u32),
    Pool(&'a str),
    Mds(u32),
    Standby(NodeId),
    Epoch(&'a str),
    Malformed,
    Other,
}

impl<'a> MapKey<'a> {
    /// What `key` names.
    pub fn parse(key: &'a str) -> MapKey<'a> {
        let number =
            |n: &str, kind: fn(u32) -> MapKey<'a>| n.parse().map_or(MapKey::Malformed, kind);
        match key.split_once('.') {
            Some(("osd", id)) => number(id, MapKey::Osd),
            Some(("pool", name)) => MapKey::Pool(name),
            Some(("mds", rank)) => number(rank, MapKey::Mds),
            Some(("standby", node)) => number(node, |node| MapKey::Standby(NodeId(node))),
            Some(("epoch", log)) => MapKey::Epoch(log),
            _ => MapKey::Other,
        }
    }
}

/// The fields `names` of a `k=v` value, by position; a field named twice
/// keeps its last value. `None` if the value is not text.
fn fields<'v, const N: usize>(value: &'v [u8], names: [&str; N]) -> Option<[Option<&'v str>; N]> {
    let mut found = [None; N];
    for (name, v) in std::str::from_utf8(value)
        .ok()?
        .split(',')
        .filter_map(|f| f.split_once('='))
    {
        if let Some(i) = names.iter().position(|n| *n == name) {
            found[i] = Some(v);
        }
    }
    Some(found)
}

/// One OSD's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsdEntry {
    /// Simulation node hosting the daemon.
    pub node: NodeId,
    /// Whether the OSD is in the up set.
    pub up: bool,
    /// Placement weight in hundredths. Zero means draining: the OSD stays
    /// up to serve reads and source backfills, but wins no new acting sets.
    pub weight: u32,
}

impl OsdEntry {
    /// The key of OSD `id`.
    pub fn key(id: u32) -> String {
        format!("osd.{id}")
    }

    /// `node` and `up` are required; a missing or unparseable `weight`
    /// (an entry written before weights existed) is [`WEIGHT_UNIT`].
    pub fn parse(value: &[u8]) -> Option<OsdEntry> {
        let [node, up, weight] = fields(value, ["node", "up", "weight"])?;
        let weight = weight.and_then(|w| w.parse().ok()).unwrap_or(WEIGHT_UNIT);
        Some(OsdEntry {
            node: NodeId(node?.parse().ok()?),
            up: up? == "1",
            weight,
        })
    }

    pub fn encode(&self) -> Vec<u8> {
        let (node, up) = (self.node.0, u8::from(self.up));
        format!("node={node},up={up},weight={}", self.weight).into_bytes()
    }
}

/// One pool's placement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolInfo {
    /// Number of placement groups.
    pub pg_num: u32,
    /// Replication factor.
    pub replicas: u32,
}

impl PoolInfo {
    /// The key of pool `name`.
    pub fn key(name: &str) -> String {
        format!("pool.{name}")
    }

    /// A zero or unparseable parameter is no pool: it would feed every
    /// daemon's placement math degenerate input. The monitor refuses such
    /// an entry ([`commit_allows`]) and a daemon skips one in a
    /// hand-written snapshot, so both agree on which pools exist.
    pub fn parse(value: &[u8]) -> Option<PoolInfo> {
        let [pg_num, replicas] = fields(value, ["pg_num", "replicas"])?;
        let positive = |v: Option<&str>| v?.parse().ok().filter(|n: &u32| *n > 0);
        Some(PoolInfo {
            pg_num: positive(pg_num)?,
            replicas: positive(replicas)?,
        })
    }

    pub fn encode(&self) -> Vec<u8> {
        format!("pg_num={},replicas={}", self.pg_num, self.replicas).into_bytes()
    }
}

/// Whether the monitor commits `update` over `committed`, the entry's
/// value now: a pool's value must parse, and a log's epoch only rises. A
/// repeated epoch bump that applies late (its seal re-sent it, DESIGN
/// §12) then never moves a log back below a newer seal's epoch.
pub fn commit_allows(update: &MapUpdate, committed: Option<&[u8]>) -> bool {
    match (MapKey::parse(&update.key), &update.value) {
        (MapKey::Pool(_), Some(value)) if update.map == SERVICE_MAP_OSD => {
            PoolInfo::parse(value).is_some()
        }
        (MapKey::Epoch(_), Some(value)) if update.map == SERVICE_MAP_ZLOG => {
            LogEpoch::parse(value) > committed.and_then(LogEpoch::parse)
        }
        _ => true,
    }
}

/// One MDS rank's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdsEntry {
    /// Node hosting the rank.
    pub node: NodeId,
    /// Whether the rank is up.
    pub up: bool,
}

impl MdsEntry {
    /// The key of rank `rank`.
    pub fn key(rank: u32) -> String {
        format!("mds.{rank}")
    }

    /// `node` and `up` are both required.
    pub fn parse(value: &[u8]) -> Option<MdsEntry> {
        let [node, up] = fields(value, ["node", "up"])?;
        Some(MdsEntry {
            node: NodeId(node?.parse().ok()?),
            up: up? == "1",
        })
    }

    pub fn encode(&self) -> Vec<u8> {
        format!("node={},up={}", self.node.0, u8::from(self.up)).into_bytes()
    }
}

/// The key registering `node` as a standby daemon; promotion deletes it.
pub fn standby_key(node: NodeId) -> String {
    format!("standby.{}", node.0)
}

/// A log's epoch in the zlog map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogEpoch(pub u64);

impl LogEpoch {
    /// The key of log `log`'s epoch.
    pub fn key(log: &str) -> String {
        format!("epoch.{log}")
    }

    pub fn parse(value: &[u8]) -> Option<LogEpoch> {
        std::str::from_utf8(value).ok()?.parse().ok().map(LogEpoch)
    }

    pub fn encode(self) -> Vec<u8> {
        self.0.to_string().into_bytes()
    }
}

/// Parsed view of the MDS map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MdsMapView {
    /// Map epoch.
    pub epoch: u64,
    /// Rank → entry, ascending by rank.
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
            match (MapKey::parse(key), MdsEntry::parse(value)) {
                (MapKey::Mds(rank), Some(entry)) => {
                    view.ranks.insert(rank, entry);
                }
                (MapKey::Standby(node), _) => view.standbys.push(node),
                _ => {}
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
        let entry = MdsEntry { node, up };
        MapUpdate::set(SERVICE_MAP_MDS, &MdsEntry::key(rank), entry.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snapshot(map: &str, entries: &[(&str, &str)]) -> MapSnapshot {
        MapSnapshot {
            map: map.to_string(),
            epoch: 3,
            entries: entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.as_bytes().to_vec()))
                .collect(),
        }
    }

    proptest! {
        /// Every typed entry and key reads back as it was written.
        #[test]
        fn every_entry_reads_back_what_was_written(
            id in any::<u32>(),
            node in any::<u32>(),
            up in any::<bool>(),
            weight in prop_oneof![Just(0u32), Just(WEIGHT_UNIT), any::<u32>()],
            pg_num in 1u32..=u32::MAX,
            replicas in 1u32..=u32::MAX,
            name in "[a-z0-9._]{0,12}",
        ) {
            let node = NodeId(node);
            let osd = OsdEntry { node, up, weight };
            prop_assert_eq!(OsdEntry::parse(&osd.encode()), Some(osd));
            prop_assert_eq!(MapKey::parse(&OsdEntry::key(id)), MapKey::Osd(id));
            let pool = PoolInfo { pg_num, replicas };
            prop_assert_eq!(PoolInfo::parse(&pool.encode()), Some(pool));
            prop_assert_eq!(MapKey::parse(&PoolInfo::key(&name)), MapKey::Pool(name.as_str()));
            let mds = MdsEntry { node, up };
            prop_assert_eq!(MdsEntry::parse(&mds.encode()), Some(mds));
            prop_assert_eq!(MapKey::parse(&MdsEntry::key(id)), MapKey::Mds(id));
            prop_assert_eq!(MapKey::parse(&standby_key(node)), MapKey::Standby(node));
            let epoch = LogEpoch(u64::from(id) << 16 | u64::from(node.0));
            prop_assert_eq!(LogEpoch::parse(&epoch.encode()), Some(epoch));
            prop_assert_eq!(MapKey::parse(&LogEpoch::key(&name)), MapKey::Epoch(name.as_str()));
        }
    }

    #[test]
    fn ranks_and_standbys_come_in_numeric_order() {
        let view = MdsMapView::from_snapshot(&snapshot(
            SERVICE_MAP_MDS,
            &[
                ("mds.10", "node=30,up=1"),
                ("mds.2", "node=22,up=0"),
                ("standby.100", "1"),
                ("standby.99", "1"),
            ],
        ));
        assert_eq!(view.ranks.keys().copied().collect::<Vec<_>>(), [2, 10]);
        assert_eq!(view.standbys, [NodeId(99), NodeId(100)]);
        assert_eq!(view.up_ranks(), [10]);
        assert_eq!(view.node_of(2), None, "a down rank is not addressable");
        assert_eq!(view.rank_of(NodeId(30)), Some(10));
    }

    /// A log's epoch only rises at commit: a first set and a delete pass,
    /// a value at or below the committed one, or no number, is refused.
    #[test]
    fn a_log_epoch_commits_only_upward() {
        let key = LogEpoch::key("log");
        let set = |value: &str| MapUpdate::set(SERVICE_MAP_ZLOG, &key, value);
        assert!(commit_allows(&set("1"), None), "a first set");
        assert!(commit_allows(&set("3"), Some(b"2")));
        assert!(!commit_allows(&set("2"), Some(b"2")), "a repeat");
        assert!(!commit_allows(&set("1"), Some(b"2")), "a move back");
        assert!(!commit_allows(&set("x"), None), "no number");
        assert!(commit_allows(&set("1"), Some(b"x")), "over no number");
        assert!(commit_allows(
            &MapUpdate::del(SERVICE_MAP_ZLOG, &key),
            Some(b"2")
        ));
        let other = MapUpdate::set(SERVICE_MAP_OSD, &key, "1");
        assert!(commit_allows(&other, Some(b"2")), "another map's key");
    }

    /// Only a transaction wholly in the zlog map is proposed on arrival:
    /// one that also names a ticked map, or names none, waits.
    #[test]
    fn only_a_transaction_wholly_in_the_zlog_map_skips_the_tick() {
        use crate::monitor::{SERVICE_MAP_INTERFACES, SERVICE_MAP_MANTLE};
        let epoch = || MapUpdate::set(SERVICE_MAP_ZLOG, &LogEpoch::key("log"), "2");
        assert!(proposes_at_once(&[epoch()]));
        assert!(proposes_at_once(&[epoch(), epoch()]));
        for map in [
            SERVICE_MAP_OSD,
            SERVICE_MAP_MDS,
            SERVICE_MAP_INTERFACES,
            SERVICE_MAP_MANTLE,
            "unlisted",
        ] {
            let ticked = MapUpdate::set(map, "k", "v");
            assert!(!proposes_at_once(std::slice::from_ref(&ticked)), "{map}");
            assert!(!proposes_at_once(&[epoch(), ticked]), "{map} beside zlog");
        }
        assert!(!proposes_at_once(&[]), "an empty transaction");
    }

    #[test]
    fn garbage_skipped() {
        let snap = snapshot(
            SERVICE_MAP_MDS,
            &[
                ("mds.zz", "node=1,up=1"),
                ("mds.0", "nonsense"),
                ("standby.x", "1"),
                ("other", "x"),
            ],
        );
        let view = MdsMapView::from_snapshot(&snap);
        assert!(view.ranks.is_empty());
        assert!(view.standbys.is_empty());
    }
}
