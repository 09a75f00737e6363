//! A client's copy of one monitor map, kept current (DESIGN §19). Two of
//! [`MapFollower`]'s rules each fixed a routing bug:
//!
//! * a `Changed` notice at or below the held epoch fetches nothing, or N
//!   clients × one epoch bump mean N full-map round trips;
//! * a snapshot re-published at the held epoch replaces a view that names
//!   nothing (a restart or resubscribe before any bump), or the client
//!   stays blind until the next bump.

use mala_sim::{Context, CounterName, NodeId};

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

/// A client's view `V` of the map `map` at `monitor`, counting the
/// full-map `Get`s it sends under `gets` and the stale notices under `skips`.
#[derive(Debug, Clone)]
pub struct MapFollower<V> {
    map: &'static str,
    monitor: NodeId,
    view: V,
    gets: &'static CounterName,
    skips: &'static CounterName,
}

impl<V: MapView> MapFollower<V> {
    /// A follower holding an empty view.
    pub fn new(
        map: &'static str,
        monitor: NodeId,
        gets: &'static CounterName,
        skips: &'static CounterName,
    ) -> MapFollower<V> {
        MapFollower {
            map,
            monitor,
            view: V::default(),
            gets,
            skips,
        }
    }

    /// The view held.
    pub fn view(&self) -> &V {
        &self.view
    }

    /// Subscribes to the map: the monitor answers with a snapshot.
    pub fn subscribe(&self, ctx: &mut Context<'_>) {
        let map = self.map.to_string();
        ctx.send(self.monitor, MonMsg::Subscribe { map });
    }

    /// Asks the monitor for the full map.
    pub fn fetch(&self, ctx: &mut Context<'_>) {
        ctx.metrics().bump(self.gets, 1);
        let map = self.map.to_string();
        ctx.send(self.monitor, MonMsg::Get { map });
    }

    /// Follows the map through `msg`: a newer snapshot is adopted, and a
    /// `Changed` notice newer than the view fetches the full map (a delta
    /// may skip epochs). `None` for another map's message, else whether a
    /// fresh view was adopted.
    pub fn follow(&mut self, ctx: &mut Context<'_>, msg: &MonMsg) -> Option<bool> {
        match msg {
            MonMsg::Snapshot(snap) if snap.map == self.map => {
                let held = self.view.epoch();
                if snap.epoch < held || (snap.epoch == held && !self.view.is_empty()) {
                    return Some(false);
                }
                let view = V::from_snapshot(snap);
                let fresh = view != self.view;
                self.view = view;
                Some(fresh)
            }
            MonMsg::Changed { map, epoch, .. } if map == self.map => {
                if *epoch > self.view.epoch() {
                    self.fetch(ctx);
                } else {
                    ctx.metrics().bump(self.skips, 1);
                }
                Some(false)
            }
            _ => None,
        }
    }
}
