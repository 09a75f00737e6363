//! A daemon's copy of one monitor map, kept current (DESIGN §19). A
//! subscriber is sent the map, not a delta: the monitor answers a
//! `Subscribe` with the map's snapshot and sends the committed snapshot
//! again after every batch that touches the map. [`MapFollower::follow`]
//! adopts a snapshot by one rule:
//!
//! * a newer epoch replaces the view, and an older one is ignored, so a
//!   snapshot overtaken by a newer one on the wire never regresses it;
//! * a snapshot at the held epoch replaces only a view that names nothing
//!   (a restart or resubscribe before any bump), or the holder stays
//!   blind until the next bump.
//!
//! [`subscribe`] and [`get`] are the requests a daemon sends the monitor.
//! A follower that must hear of a newer map re-asks by subscribing again:
//! the reply is the snapshot a `Get` would bring, and a monitor restarted
//! empty learns of the subscriber again.

use mala_sim::{Context, NodeId};

use crate::monitor::{MapSnapshot, MonMsg};

/// A parsed view of one monitor map.
pub trait MapView: Default + PartialEq {
    /// Parses a full snapshot of the map.
    fn from_snapshot(snap: &MapSnapshot) -> Self;
    /// The epoch the view was parsed at.
    fn epoch(&self) -> u64;
    /// Whether the view names nothing.
    fn is_empty(&self) -> bool;
}

/// A map held as the monitor sent it, for a holder that reads its entries
/// as they are (the Mantle policy pointer).
impl MapView for MapSnapshot {
    fn from_snapshot(snap: &MapSnapshot) -> Self {
        snap.clone()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Subscribes to `map` at `monitor`: it answers with the map's snapshot,
/// and sends it again after every commit that touches the map.
pub fn subscribe(ctx: &mut Context<'_>, monitor: NodeId, map: &str) {
    let map = map.to_string();
    ctx.send(monitor, MonMsg::Subscribe { map });
}

/// Asks `monitor` once for the snapshot of `map`: the seal's read of the
/// zlog map, which it holds no follower of.
pub fn get(ctx: &mut Context<'_>, monitor: NodeId, map: &str) {
    let map = map.to_string();
    ctx.send(monitor, MonMsg::Get { map });
}

/// A daemon's view `V` of the map `map` at `monitor`.
#[derive(Debug, Clone)]
pub struct MapFollower<V> {
    map: &'static str,
    monitor: NodeId,
    view: V,
    /// Whether a snapshot of the map has arrived, adopted or not.
    landed: bool,
}

impl<V: MapView> MapFollower<V> {
    /// A follower holding an empty view.
    pub fn new(map: &'static str, monitor: NodeId) -> MapFollower<V> {
        MapFollower {
            map,
            monitor,
            view: V::default(),
            landed: false,
        }
    }

    /// The view held.
    pub fn view(&self) -> &V {
        &self.view
    }

    /// Whether a snapshot of the map has arrived: one at epoch 0 counts,
    /// since a map never committed stays at epoch 0.
    pub fn landed(&self) -> bool {
        self.landed
    }

    /// Subscribes to the map, or re-asks for it: subscribing twice is
    /// idempotent at the monitor, and each subscribe is answered with the
    /// map's snapshot.
    pub fn subscribe(&self, ctx: &mut Context<'_>) {
        subscribe(ctx, self.monitor, self.map);
    }

    /// Follows the map through `msg`: `None` if it is not a snapshot of
    /// this map, else whether a fresh view was adopted.
    pub fn follow(&mut self, msg: &MonMsg) -> Option<bool> {
        let MonMsg::Snapshot(snap) = msg else {
            return None;
        };
        if snap.map != self.map {
            return None;
        }
        self.landed = true;
        let held = self.view.epoch();
        if snap.epoch < held || (snap.epoch == held && !self.view.is_empty()) {
            return Some(false);
        }
        let view = V::from_snapshot(snap);
        let fresh = view != self.view;
        self.view = view;
        Some(fresh)
    }
}
