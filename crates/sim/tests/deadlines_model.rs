//! [`Deadlines`] against a reference model.
//!
//! Random programs of `arm`, `disarm` and clock advances run on an actor
//! that owns a [`Deadlines`] — and keeps each entry's time in its own
//! record, as the clients do — and on a naive `Vec` of live `(time, key)`
//! pairs. Every live key must come out exactly once, at its time, in
//! `(time, key)` order, a disarmed one never; the set's queued sim timers
//! must always have strictly decreasing times and cover the earliest entry;
//! and the scheduler must hold exactly those timers — none cancelled, none
//! forgotten.

use std::any::Any;
use std::collections::BTreeMap;

use mala_sim::{Actor, Context, Deadlines, NodeId, Sim, SimDuration, SimTime};
use proptest::prelude::*;

const OWNER: NodeId = NodeId(0);
const TOKEN: u64 = 7;
const KEYS: u64 = 6;
/// A key at or above this arms itself once more, this much later, from
/// inside the callback it came due in.
const ECHO_FROM: u64 = 4;
const ECHO_AFTER: u64 = 13;

struct Owner {
    deadlines: Deadlines<u64>,
    /// Key → when it is held, and whether it still has its echo to spend.
    held: BTreeMap<u64, (SimTime, bool)>,
    /// `(time, key)` in the order the keys came due.
    fired: Vec<(u64, u64)>,
    callbacks: u64,
}

impl Owner {
    fn arm(&mut self, ctx: &mut Context<'_>, key: u64, at: SimTime, echo: bool) {
        let was = self.held.insert(key, (at, echo)).map(|(was, _)| was);
        self.deadlines.arm(ctx, key, was, at);
    }

    fn disarm(&mut self, key: u64) {
        let was = self.held.remove(&key).map(|(was, _)| was);
        self.deadlines.disarm(key, was);
    }
}

impl Actor for Owner {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        assert_eq!(token, TOKEN);
        self.callbacks += 1;
        while let Some(key) = self.deadlines.pop_due(ctx) {
            let (at, echo) = self.held.remove(&key).expect("a key nobody holds came due");
            assert_eq!(at, ctx.now(), "key {key} came due off its time");
            self.fired.push((at.as_micros(), key));
            if echo {
                let again = ctx.now() + SimDuration::from_micros(ECHO_AFTER);
                self.arm(ctx, key, again, false);
            }
        }
    }
}

/// The plainest statement of the same thing: a list, scanned for its
/// minimum.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u64, bool)>,
    fired: Vec<(u64, u64)>,
}

impl Model {
    fn disarm(&mut self, key: u64) {
        self.live.retain(|(_, k, _)| *k != key);
    }

    fn advance(&mut self, to: u64) {
        while let Some(&(at, key, echo)) = self.live.iter().filter(|e| e.0 <= to).min() {
            self.disarm(key);
            self.fired.push((at, key));
            if echo {
                self.live.push((at + ECHO_AFTER, key, false));
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Cmd {
    Arm { key: u64, delay: u64 },
    Disarm { key: u64 },
    Advance { us: u64 },
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        5 => (0..KEYS, 0u64..200).prop_map(|(key, delay)| Cmd::Arm { key, delay }),
        3 => (0..KEYS).prop_map(|key| Cmd::Disarm { key }),
        3 => (0u64..120).prop_map(|us| Cmd::Advance { us }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn deadlines_match_the_model(cmds in proptest::collection::vec(cmd(), 1..150)) {
        let mut sim = Sim::new(0);
        sim.add_node(OWNER, Owner {
            deadlines: Deadlines::new(TOKEN),
            held: BTreeMap::new(),
            fired: Vec::new(),
            callbacks: 0,
        });
        sim.run_until_idle();
        let mut model = Model::default();
        let mut timers_queued = 0u64;

        // One advance past every possible deadline at the end: whatever is
        // still live must come out, and every timer must have fired.
        let flush = Cmd::Advance { us: 1_000 };
        for cmd in cmds.into_iter().chain([flush]) {
            let before = sim.queue_len();
            match cmd {
                Cmd::Arm { key, delay } => {
                    let at = sim.now() + SimDuration::from_micros(delay);
                    sim.with_actor::<Owner, _>(OWNER, |o, ctx| o.arm(ctx, key, at, key >= ECHO_FROM));
                    model.disarm(key);
                    model.live.push((at.as_micros(), key, key >= ECHO_FROM));
                    // A zero delay is due at this instant, once the timer runs.
                    timers_queued += (sim.queue_len() - before) as u64;
                }
                Cmd::Disarm { key } => {
                    sim.with_actor::<Owner, _>(OWNER, |o, _| o.disarm(key));
                    model.disarm(key);
                    prop_assert_eq!(sim.queue_len(), before, "disarm touched the scheduler");
                }
                Cmd::Advance { us } => {
                    let callbacks = sim.actor::<Owner>(OWNER).callbacks;
                    sim.run_for(SimDuration::from_micros(us));
                    model.advance(sim.now().as_micros());
                    // Each callback took one key off the queue; what the
                    // queue holds beyond that was queued from inside one.
                    let ran = sim.actor::<Owner>(OWNER).callbacks - callbacks;
                    timers_queued += (sim.queue_len() as u64 + ran) - before as u64;
                }
            }
            let owner = sim.actor::<Owner>(OWNER);
            prop_assert_eq!(&owner.fired, &model.fired);
            prop_assert_eq!(owner.deadlines.len(), model.live.len());
            let queued = owner.deadlines.queued();
            prop_assert!(
                queued.windows(2).all(|w| w[0] > w[1]),
                "queued timers not strictly decreasing: {:?}", queued
            );
            prop_assert!(queued.iter().all(|at| *at >= sim.now()));
            // Nothing else lives in this scheduler: a cancelled timer would
            // stay behind as a tombstone the set no longer lists.
            prop_assert_eq!(sim.queue_len(), queued.len());
            if let Some(earliest) = model.live.iter().map(|e| e.0).min() {
                let next = queued.last().map(|at| at.as_micros());
                prop_assert!(
                    next.is_some_and(|next| next <= earliest),
                    "no timer at or before the earliest entry {}: {:?}", earliest, queued
                );
            }
        }
        let owner = sim.actor::<Owner>(OWNER);
        prop_assert!(model.live.is_empty() && owner.deadlines.is_empty());
        prop_assert_eq!(sim.queue_len(), 0);
        // Never cancelled: every timer the set queued called back.
        prop_assert_eq!(owner.callbacks, timers_queued);
    }
}
