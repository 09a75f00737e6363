//! One deadline set per actor instead of one sim timer per item.
//!
//! An actor with many things in flight — ops, requests — wants each to be
//! looked at again at some instant, and almost every one of them is done
//! long before that. [`Deadlines`] keeps the `(time, key)` pairs in an
//! ordered set behind a single timer token, so an item that finishes early
//! takes its entry out of the set and leaves nothing in the scheduler.
//!
//! The owner, a [`crate::Requests`], keeps each entry's time (`was`) and
//! hands it back when it moves or removes the entry; the set holds no
//! second index.
//!
//! Two invariants:
//!
//! * every live entry comes out of [`Deadlines::pop_due`] exactly at its
//!   time: a sim timer is always queued at or before the set's minimum;
//! * the set's queued sim timers have strictly decreasing times (newest
//!   first), and none is ever cancelled: one is queued only when an entry
//!   is earlier than every timer still queued. A timer that fires with
//!   nothing due costs one callback.

use std::collections::BTreeSet;

use crate::{Context, SimTime};

/// An ordered set of `(time, key)` deadlines under one timer token.
pub struct Deadlines<K> {
    token: u64,
    /// Live entries, earliest first; ties by key.
    entries: BTreeSet<(SimTime, K)>,
    /// Times of this set's sim timers that have not fired yet, in the
    /// order they were queued: strictly decreasing, the last fires next.
    queued: Vec<SimTime>,
}

impl<K: Copy + Ord> Deadlines<K> {
    /// An empty set whose timers carry `token`; the owner routes that
    /// token's [`crate::Actor::on_timer`] to [`Deadlines::pop_due`].
    pub fn new(token: u64) -> Deadlines<K> {
        Deadlines {
            token,
            entries: BTreeSet::new(),
            queued: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Times of the sim timers this set has queued and that have not fired
    /// yet, newest first: strictly decreasing, none of them cancelled.
    pub fn queued(&self) -> &[SimTime] {
        &self.queued
    }

    /// Holds `key` at `at`, moving it from `was` if it was held.
    pub fn arm(&mut self, ctx: &mut Context<'_>, key: K, was: Option<SimTime>, at: SimTime) {
        self.disarm(key, was);
        self.entries.insert((at, key));
        self.cover(ctx, at);
    }

    /// Drops `key`'s entry, held at `was`. Whatever timer was queued for it
    /// stays queued and fires at nothing, or at a later entry.
    pub fn disarm(&mut self, key: K, was: Option<SimTime>) {
        if let Some(was) = was {
            let held = self.entries.remove(&(was, key));
            debug_assert!(held, "the owner's record names an entry the set lacks");
        }
    }

    /// Call from the token's timer callback, again and again until it
    /// returns `None`: removes and returns the next key due by now, in
    /// `(time, key)` order. The owner clears that key's recorded time.
    pub fn pop_due(&mut self, ctx: &mut Context<'_>) -> Option<K> {
        let now = ctx.now();
        while self.queued.last().is_some_and(|at| *at <= now) {
            self.queued.pop();
        }
        let &(at, key) = self.entries.first()?;
        if at > now {
            self.cover(ctx, at);
            return None;
        }
        self.entries.pop_first();
        Some(key)
    }

    /// Queues a sim timer at `at` unless one is queued at or before it.
    fn cover(&mut self, ctx: &mut Context<'_>, at: SimTime) {
        // An entry armed in the past is due at once.
        let at = at.max(ctx.now());
        if self.queued.last().is_none_or(|next| at < *next) {
            ctx.set_timer(at.since(ctx.now()), self.token);
            self.queued.push(at);
        }
    }
}
