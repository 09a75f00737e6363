//! The map follower's two rules (DESIGN §19), each run for both views it
//! follows in this stack: the mdsmap the sequencer router reads and the
//! osdmap the RADOS client reads.

use std::any::Any;

use mala_consensus::{MapFollower, MapSnapshot, MapView, MonMsg, SERVICE_MAP_MDS, SERVICE_MAP_OSD};
use mala_mds::MdsMapView;
use mala_rados::OsdMapView;
use mala_sim::{counter, Actor, Context, NodeId, Sim};

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
        let gets = counter!("test.map_gets");
        let skips = counter!("test.map_skips");
        sim.add_node(NODE, Holder(MapFollower::<V>::new(map, MON, gets, skips)));
        Case {
            sim,
            map,
            key,
            _view: std::marker::PhantomData,
        }
    }

    fn follow(&mut self, msg: MonMsg) -> Option<bool> {
        self.sim
            .with_actor::<Holder<V>, _>(NODE, |h, ctx| h.0.follow(ctx, &msg))
    }

    fn view(&self) -> &V {
        self.sim.actor::<Holder<V>>(NODE).0.view()
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

    /// Hands over a `Changed` notice at `epoch`; returns whether it fetched.
    fn changed(&mut self, epoch: u64) -> bool {
        let gets = self.sim.metrics().counter("test.map_gets");
        let skips = self.sim.metrics().counter("test.map_skips");
        let queued = self.sim.queue_len();
        let msg = MonMsg::Changed {
            map: self.map.to_string(),
            epoch,
            delta: Vec::new(),
        };
        assert_eq!(self.follow(msg), Some(false), "a notice adopts nothing");
        let fetched = self.sim.metrics().counter("test.map_gets") == gets + 1;
        assert_eq!(self.sim.queue_len(), queued + usize::from(fetched));
        assert_eq!(
            self.sim.metrics().counter("test.map_skips"),
            skips + u64::from(!fetched),
            "a notice either fetches or is counted as skipped"
        );
        fetched
    }
}

fn stale_changed(mut case: Case<impl MapView + std::fmt::Debug + 'static>) {
    assert!(case.changed(1), "anything beats the default empty view");
    assert!(case.adopt(3, "node=20,up=1"));
    assert!(!case.changed(2));
    assert!(!case.changed(3), "the held epoch itself is not newer");
    assert!(case.changed(4));
    let other = MonMsg::Changed {
        map: "other".to_string(),
        epoch: 9,
        delta: Vec::new(),
    };
    assert_eq!(case.follow(other), None, "another map's notice is not ours");
}

#[test]
fn stale_changed_needs_no_fetch() {
    stale_changed(Case::<MdsMapView>::new(SERVICE_MAP_MDS, "mds.0"));
    stale_changed(Case::<OsdMapView>::new(SERVICE_MAP_OSD, "osd.0"));
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
