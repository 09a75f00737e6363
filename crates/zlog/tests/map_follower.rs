//! The map follower's rule (DESIGN §19), run for both views it follows in
//! this stack: the mdsmap the sequencer router reads and the osdmap the
//! RADOS client reads. A subscriber is sent the map, not a delta, so
//! following it never asks the monitor for anything.

use std::any::Any;

use mala_consensus::{MapFollower, MapSnapshot, MapView, MonMsg, SERVICE_MAP_MDS, SERVICE_MAP_OSD};
use mala_mds::MdsMapView;
use mala_rados::OsdMapView;
use mala_sim::{Actor, Context, NodeId, Sim};

const MON: NodeId = NodeId(0);
const NODE: NodeId = NodeId(1);

/// A node holding a follower, so that a test hands it monitor messages
/// with a context.
struct Holder<V>(MapFollower<V>);

impl<V: MapView + 'static> Actor for Holder<V> {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}
}

/// One map's follower on a node of its own, with the map's name and the
/// key its entry for rank or OSD 0 goes under.
struct Case<V> {
    sim: Sim,
    map: &'static str,
    key: &'static str,
    _view: std::marker::PhantomData<V>,
}

impl<V: MapView + std::fmt::Debug + 'static> Case<V> {
    fn new(map: &'static str, key: &'static str) -> Case<V> {
        let mut sim = Sim::new(0);
        sim.add_node(NODE, Holder(MapFollower::<V>::new(map, MON)));
        Case {
            sim,
            map,
            key,
            _view: std::marker::PhantomData,
        }
    }

    /// Hands `msg` to the follower, checking that following it sends
    /// nothing and arms nothing.
    fn follow(&mut self, msg: MonMsg) -> Option<bool> {
        let queued = self.sim.queue_len();
        let followed = self
            .sim
            .with_actor::<Holder<V>, _>(NODE, |h, _| h.0.follow(&msg));
        assert_eq!(self.sim.queue_len(), queued, "following sends nothing");
        followed
    }

    fn view(&self) -> &V {
        self.sim.actor::<Holder<V>>(NODE).0.view()
    }

    fn landed(&self) -> bool {
        self.sim.actor::<Holder<V>>(NODE).0.landed()
    }

    /// A snapshot at `epoch` whose one entry has the value `value`.
    fn snap(&self, epoch: u64, value: &str) -> MapSnapshot {
        MapSnapshot {
            map: self.map.to_string(),
            epoch,
            entries: [(self.key.to_string(), value.as_bytes().to_vec())]
                .into_iter()
                .collect(),
        }
    }

    /// Hands over a snapshot at `epoch` with the entry `value`; returns
    /// whether it was adopted, checking the view is then that snapshot's.
    fn adopt(&mut self, epoch: u64, value: &str) -> bool {
        let snap = self.snap(epoch, value);
        let adopted = self.follow(MonMsg::Snapshot(snap.clone())) == Some(true);
        if adopted {
            assert_eq!(self.view(), &V::from_snapshot(&snap));
        }
        adopted
    }
}

fn stale_snapshot<V: MapView + std::fmt::Debug + 'static>(mut case: Case<V>) {
    assert!(!case.landed());
    assert!(case.adopt(3, "node=20,up=1"));
    assert!(case.landed());
    assert!(!case.adopt(2, "node=99,up=1"));
    assert!(
        !case.adopt(3, "node=99,up=1"),
        "the held epoch itself is not newer"
    );
    assert_eq!(
        case.view(),
        &V::from_snapshot(&case.snap(3, "node=20,up=1"))
    );
    assert!(case.adopt(4, "node=21,up=1"));
    let other = MonMsg::Snapshot(MapSnapshot {
        map: "other".to_string(),
        epoch: 9,
        entries: Default::default(),
    });
    assert_eq!(
        case.follow(other),
        None,
        "another map's snapshot is not ours"
    );
}

#[test]
fn stale_snapshot_needs_no_fetch() {
    stale_snapshot(Case::<MdsMapView>::new(SERVICE_MAP_MDS, "mds.0"));
    stale_snapshot(Case::<OsdMapView>::new(SERVICE_MAP_OSD, "osd.0"));
}

/// The answer for a map never committed is a snapshot at epoch 0 naming
/// nothing: it has landed, though it changes no view.
fn never_committed<V: MapView + std::fmt::Debug + 'static>(mut case: Case<V>) {
    let empty = MonMsg::Snapshot(MapSnapshot {
        map: case.map.to_string(),
        epoch: 0,
        entries: Default::default(),
    });
    assert_eq!(case.follow(empty), Some(false));
    assert!(case.landed());
    assert_eq!(case.view(), &V::default());
}

#[test]
fn an_epoch_0_snapshot_has_landed() {
    never_committed(Case::<MdsMapView>::new(SERVICE_MAP_MDS, "mds.0"));
    never_committed(Case::<OsdMapView>::new(SERVICE_MAP_OSD, "osd.0"));
}

fn same_epoch<V: MapView + std::fmt::Debug + 'static>(mut case: Case<V>) {
    // A garbage snapshot parses to an empty view but moves the epoch.
    assert!(case.adopt(5, "nonsense"));
    assert!(case.view().is_empty());
    assert_eq!(case.view().epoch(), 5);
    // Re-published at the same epoch with a real entry: adopted, because
    // the view is empty.
    assert!(case.adopt(5, "node=20,up=1"));
    // With a populated view, the same epoch no longer overwrites.
    assert!(!case.adopt(5, "node=99,up=1"));
    // Older epochs never regress the view.
    assert!(!case.adopt(4, "node=99,up=1"));
    assert_eq!(
        case.view(),
        &V::from_snapshot(&case.snap(5, "node=20,up=1"))
    );
}

#[test]
fn same_epoch_snapshot_adopted_only_when_view_is_empty() {
    same_epoch(Case::<MdsMapView>::new(SERVICE_MAP_MDS, "mds.0"));
    same_epoch(Case::<OsdMapView>::new(SERVICE_MAP_OSD, "osd.0"));
}
