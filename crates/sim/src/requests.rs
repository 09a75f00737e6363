//! One request core per client (DESIGN §23): for each item a client has in
//! flight, the item, its attempts, its hard deadline, its next look, its
//! reply routes and — while parked — what it waits for, removed together.
//!
//! The caller mints ids (never reusing one), charges attempts and computes
//! each look's time, so every backoff draw stays at its call site. The core
//! keeps a look's time in the entry and its key in one [`Deadlines`] set.
//! Parking a parked entry again replaces what it waits for and keeps its
//! place; [`Requests::unpark`] hands ids back in park order. A route, a
//! request id the caller minted, names its entry until a reply
//! [`Requests::release`]s it; removal and [`Requests::take_routes`] hand
//! the routes back in hold order. No look, park entry or route outlives its
//! entry, except the backoff look [`Requests::remove_leaving_backoff`]
//! leaves to come due at nothing.

use std::hash::Hash;

use crate::{Context, Deadlines, IdMap, SimTime};

struct Entry<T, R> {
    value: T,
    attempts: u32,
    deadline: SimTime,
    look: Option<SimTime>,
    /// Whether the entry has a place in the park list, which removal scans
    /// only then.
    parked: bool,
    routes: Routes<R>,
}

/// An entry's routes in hold order: two in the entry, then a `Vec`, so
/// one with one or two requests out allocates nothing for them.
#[derive(Debug)]
pub enum Routes<R> {
    /// Held routes first, then `None`s.
    Inline([Option<R>; 2]),
    /// More than two.
    Spilled(Vec<R>),
}

impl<R: Copy + Eq> Routes<R> {
    fn push(&mut self, route: R) {
        match self {
            Routes::Inline([slot @ None, _] | [_, slot @ None]) => *slot = Some(route),
            Routes::Inline([first, second]) => {
                let mut routes = Vec::with_capacity(4);
                routes.extend([*first, *second].into_iter().flatten().chain([route]));
                *self = Routes::Spilled(routes);
            }
            Routes::Spilled(routes) => routes.push(route),
        }
    }

    fn remove(&mut self, route: R) {
        match self {
            Routes::Inline([first, second]) if *first == Some(route) => *first = second.take(),
            Routes::Inline([_, second]) if *second == Some(route) => *second = None,
            Routes::Inline(_) => {}
            Routes::Spilled(routes) => routes.retain(|held| *held != route),
        }
    }

    /// The routes in hold order.
    pub fn iter(&self) -> impl Iterator<Item = R> + '_ {
        let (inline, spilled): (&[Option<R>], &[R]) = match self {
            Routes::Inline(slots) => (slots, &[]),
            Routes::Spilled(routes) => (&[], routes),
        };
        inline.iter().flatten().chain(spilled).copied()
    }
}

/// A client's work in flight: values `T` by id; a parked one waits for a
/// `P`, and replies on a route `R` find their entry.
pub struct Requests<T, P, R = ()> {
    entries: IdMap<u64, Entry<T, R>>,
    looks: Deadlines<u64>,
    parked: Vec<(u64, P)>,
    /// The entry each held route names.
    owners: IdMap<R, u64>,
}

impl<T, P, R: Copy + Eq + Hash> Requests<T, P, R> {
    /// An empty core whose looks come due under the timer `token`; route
    /// that token's [`crate::Actor::on_timer`] to [`Requests::pop_due`].
    pub fn new(token: u64) -> Requests<T, P, R> {
        Requests {
            entries: IdMap::default(),
            looks: Deadlines::new(token),
            parked: Vec::new(),
            owners: IdMap::default(),
        }
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is held.
    pub fn contains_key(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// The value of `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.entries.get(&id).map(|entry| &entry.value)
    }

    /// The value of `id`, to change.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.entries.get_mut(&id).map(|entry| &mut entry.value)
    }

    /// Every entry with its id, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().map(|(id, entry)| (*id, &entry.value))
    }

    /// Enters `value` under the new id `id`, failing at `deadline`.
    pub fn insert(&mut self, id: u64, value: T, deadline: SimTime) {
        let entry = Entry {
            value,
            attempts: 0,
            deadline,
            look: None,
            parked: false,
            routes: Routes::Inline([None; 2]),
        };
        self.entries.insert(id, entry);
    }

    /// Removes `id` with its look and its park entry; its routes come back.
    pub fn remove(&mut self, id: u64) -> Option<(T, Routes<R>)> {
        let (entry, routes) = self.take(id)?;
        self.looks.disarm(id, entry.look);
        Some((entry.value, routes))
    }

    /// Removes `id` but leaves a look before its deadline — a backoff away —
    /// to come due at nothing: DESIGN §23's third kept-as-found row, which
    /// `read_tail`'s closed-loop readers measured. `ZlogClient::conclude`
    /// is its one caller.
    pub fn remove_leaving_backoff(&mut self, id: u64) -> Option<(T, Routes<R>)> {
        let (entry, routes) = self.take(id)?;
        if entry.look == Some(entry.deadline) {
            self.looks.disarm(id, entry.look);
        }
        Some((entry.value, routes))
    }

    fn take(&mut self, id: u64) -> Option<(Entry<T, R>, Routes<R>)> {
        let routes = self.take_routes(id);
        let entry = self.entries.remove(&id)?;
        if entry.parked {
            self.parked.retain(|(parked, _)| *parked != id);
        }
        Some((entry, routes))
    }

    /// Routes replies on `route`, a request id the caller minted, to `id`.
    pub fn hold(&mut self, id: u64, route: R) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.routes.push(route);
            self.owners.insert(route, id);
        }
    }

    /// Answers a reply on `route`: the entry it names, once, the route
    /// dropped from that entry's list.
    pub fn release(&mut self, route: R) -> Option<u64> {
        let id = self.owners.remove(&route)?;
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.routes.remove(route);
        }
        Some(id)
    }

    /// The entry `route` names, if it is held.
    pub fn owner(&self, route: R) -> Option<u64> {
        self.owners.get(&route).copied()
    }

    /// Takes every route of `id`, in hold order, to re-drive it: replies on
    /// them find nothing.
    pub fn take_routes(&mut self, id: u64) -> Routes<R> {
        let none = Routes::Inline([None; 2]);
        let routes = match self.entries.get_mut(&id) {
            Some(entry) => std::mem::replace(&mut entry.routes, none),
            None => none,
        };
        for route in routes.iter() {
            self.owners.remove(&route);
        }
        routes
    }

    /// The routes of `id` in hold order, for tests.
    pub fn routes(&self, id: u64) -> impl Iterator<Item = R> + '_ {
        self.entries
            .get(&id)
            .into_iter()
            .flat_map(|entry| entry.routes.iter())
    }

    /// Attempts charged to `id`.
    pub fn attempts(&self, id: u64) -> u32 {
        self.entries.get(&id).map_or(0, |entry| entry.attempts)
    }

    /// Charges `id` an attempt; returns how many it has used.
    pub fn charge(&mut self, id: u64) -> Option<u32> {
        let entry = self.entries.get_mut(&id)?;
        entry.attempts += 1;
        Some(entry.attempts)
    }

    /// The hard deadline of `id`.
    pub fn deadline(&self, id: u64) -> Option<SimTime> {
        self.entries.get(&id).map(|entry| entry.deadline)
    }

    /// Looks at `id` next at `at`, moving its look if it had one.
    pub fn look(&mut self, ctx: &mut Context<'_>, id: u64, at: SimTime) {
        if let Some(entry) = self.entries.get_mut(&id) {
            self.looks.arm(ctx, id, entry.look.replace(at), at);
        }
    }

    /// Drops the look of `id`.
    pub fn unlook(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            self.looks.disarm(id, entry.look.take());
        }
    }

    /// From the token's timer callback, until it returns `None`: the next id
    /// whose look is due, in `(time, id)` order. A removed entry's look is
    /// skipped.
    pub fn pop_due(&mut self, ctx: &mut Context<'_>) -> Option<u64> {
        loop {
            let id = self.looks.pop_due(ctx)?;
            if let Some(entry) = self.entries.get_mut(&id) {
                entry.look = None;
                return Some(id);
            }
        }
    }

    /// The looks' set, for tests.
    pub fn looks(&self) -> &Deadlines<u64> {
        &self.looks
    }

    /// Parks `id` until what `park` names arrives, keeping its place if it
    /// is parked already.
    pub fn park(&mut self, id: u64, park: P) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if !entry.parked {
            entry.parked = true;
            self.parked.push((id, park));
        } else if let Some(place) = self.parked.iter_mut().find(|(parked, _)| *parked == id) {
            place.1 = park;
        }
    }

    /// Takes the entries `due` selects off the park list and returns their
    /// ids in park order.
    pub fn unpark(&mut self, mut due: impl FnMut(&P) -> bool) -> Vec<u64> {
        let mut ids = Vec::new();
        self.parked.retain(|(id, park)| {
            let stay = !due(park);
            if !stay {
                ids.push(*id);
            }
            stay
        });
        for id in &ids {
            if let Some(entry) = self.entries.get_mut(id) {
                entry.parked = false;
            }
        }
        ids
    }

    /// Takes `id` off the park list.
    pub fn unpark_id(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id).filter(|entry| entry.parked) {
            entry.parked = false;
            self.parked.retain(|(parked, _)| *parked != id);
        }
    }

    /// The park list in park order, for tests.
    pub fn parked(&self) -> impl Iterator<Item = (u64, &P)> {
        self.parked.iter().map(|(id, park)| (*id, park))
    }
}
