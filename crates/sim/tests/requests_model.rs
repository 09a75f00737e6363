//! [`Requests`] against a reference model.
//!
//! Random programs of insert, remove (both kinds), look, park (a park of a
//! parked entry is a re-park), unpark, hold, release, re-drive (taking an
//! entry's routes) and clock advances run on an actor that owns a
//! [`Requests`] and on plain lists. The core must keep DESIGN §23's
//! invariant:
//!
//! * no look and no park entry outlives its entry, except the backoff look
//!   [`Requests::remove_leaving_backoff`] leaves, which comes due at
//!   nothing;
//! * a re-park keeps its place, and `unpark` returns ids in park order;
//! * every live look comes out once, at its time, in `(time, id)` order;
//! * every held route names a live entry that lists it, `release` returns
//!   a route's owner exactly once, and removal or re-drive hands back the
//!   entry's routes in hold order, leaving none of them held.

use std::any::Any;
use std::collections::BTreeMap;

use mala_sim::{Actor, Context, NodeId, Requests, Sim, SimDuration, SimTime};
use proptest::prelude::*;

const OWNER: NodeId = NodeId(0);
const TOKEN: u64 = 7;
/// What a parked entry may wait for.
const PARKS: u8 = 3;

struct Owner {
    requests: Requests<u64, u8, u64>,
    /// `(time, id)` in the order the looks came due.
    fired: Vec<(u64, u64)>,
}

impl Actor for Owner {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        assert_eq!(token, TOKEN);
        while let Some(id) = self.requests.pop_due(ctx) {
            assert_eq!(self.requests.get(id), Some(&id), "a removed entry came due");
            self.fired.push((ctx.now().as_micros(), id));
        }
    }
}

/// The plainest statement of the same thing.
#[derive(Default)]
struct Model {
    /// Live entry → (deadline, look).
    live: BTreeMap<u64, (u64, Option<u64>)>,
    /// Looks left behind by `remove_leaving_backoff`, by time.
    orphans: Vec<u64>,
    parked: Vec<(u64, u8)>,
    fired: Vec<(u64, u64)>,
    /// Live entry → its routes in hold order.
    routes: BTreeMap<u64, Vec<u64>>,
}

impl Model {
    /// Removes `id`; its routes come back.
    fn remove(&mut self, id: u64, leave_backoff: bool) -> Vec<u64> {
        if let Some((deadline, Some(look))) = self.live.remove(&id) {
            if leave_backoff && look != deadline {
                self.orphans.push(look);
            }
        }
        self.parked.retain(|(parked, _)| *parked != id);
        self.routes.remove(&id).unwrap_or_default()
    }

    fn owner(&self, route: u64) -> Option<u64> {
        let mut owners = self.routes.iter().filter(|(_, held)| held.contains(&route));
        owners.next().map(|(id, _)| *id)
    }

    fn release(&mut self, route: u64) -> Option<u64> {
        let id = self.owner(route)?;
        self.routes.get_mut(&id)?.retain(|held| *held != route);
        Some(id)
    }

    fn park(&mut self, id: u64, park: u8) {
        match self.parked.iter_mut().find(|(parked, _)| *parked == id) {
            Some(place) => place.1 = park,
            None => self.parked.push((id, park)),
        }
    }

    fn unpark(&mut self, park: u8) -> Vec<u64> {
        let ids = self.parked.iter().filter(|p| p.1 == park).map(|p| p.0);
        let ids = ids.collect();
        self.parked.retain(|p| p.1 != park);
        ids
    }

    fn advance(&mut self, to: u64) {
        let mut due: Vec<(u64, u64)> = self
            .live
            .iter()
            .filter_map(|(id, (_, look))| look.filter(|at| *at <= to).map(|at| (at, *id)))
            .collect();
        due.sort_unstable();
        for &(_, id) in &due {
            if let Some(entry) = self.live.get_mut(&id) {
                entry.1 = None;
            }
        }
        self.fired.extend(due);
        self.orphans.retain(|at| *at > to);
    }

    /// The `pick`th live id, if any is live.
    fn pick(&self, pick: usize) -> Option<u64> {
        let n = self.live.len();
        (n > 0).then(|| *self.live.keys().nth(pick % n).unwrap())
    }
}

#[derive(Debug, Clone)]
enum Cmd {
    Insert {
        deadline: u64,
    },
    Remove {
        pick: usize,
        leave_backoff: bool,
    },
    Look {
        pick: usize,
        delay: u64,
        at_deadline: bool,
    },
    Park {
        pick: usize,
        park: u8,
    },
    Unpark {
        park: u8,
    },
    Advance {
        us: u64,
    },
    Hold {
        pick: usize,
    },
    Release {
        pick: usize,
    },
    Redrive {
        pick: usize,
    },
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (1u64..300).prop_map(|deadline| Cmd::Insert { deadline }),
        2 => (any::<usize>(), any::<bool>())
            .prop_map(|(pick, leave_backoff)| Cmd::Remove { pick, leave_backoff }),
        // One look in three at the entry's deadline, which a backoff
        // removal drops.
        4 => (any::<usize>(), 0u64..200, 0..3)
            .prop_map(|(pick, delay, d)| Cmd::Look { pick, delay, at_deadline: d == 0 }),
        4 => (any::<usize>(), 0..PARKS).prop_map(|(pick, park)| Cmd::Park { pick, park }),
        2 => (0..PARKS).prop_map(|park| Cmd::Unpark { park }),
        3 => (0u64..120).prop_map(|us| Cmd::Advance { us }),
        // Enough holds that an entry spills past its inline routes.
        5 => any::<usize>().prop_map(|pick| Cmd::Hold { pick }),
        3 => any::<usize>().prop_map(|pick| Cmd::Release { pick }),
        1 => any::<usize>().prop_map(|pick| Cmd::Redrive { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_match_the_model(cmds in proptest::collection::vec(cmd(), 1..150)) {
        let mut sim = Sim::new(0);
        sim.add_node(OWNER, Owner { requests: Requests::new(TOKEN), fired: Vec::new() });
        sim.run_until_idle();
        let mut model = Model::default();
        let mut next_id = 1;
        let mut next_route = 0;

        // One advance past every possible look at the end: whatever is
        // still looked at must come out, and every timer must have fired.
        let flush = Cmd::Advance { us: 1_000 };
        for cmd in cmds.into_iter().chain([flush]) {
            let now = sim.now();
            match cmd {
                Cmd::Insert { deadline } => {
                    let (id, deadline) = (next_id, now + SimDuration::from_micros(deadline));
                    next_id += 1;
                    sim.actor_mut::<Owner>(OWNER).requests.insert(id, id, deadline);
                    model.live.insert(id, (deadline.as_micros(), None));
                }
                Cmd::Remove { pick, leave_backoff } => {
                    let Some(id) = model.pick(pick) else { continue };
                    let requests = &mut sim.actor_mut::<Owner>(OWNER).requests;
                    let removed = match leave_backoff {
                        true => requests.remove_leaving_backoff(id),
                        false => requests.remove(id),
                    };
                    let (value, routes) = removed.unwrap();
                    prop_assert_eq!(value, id);
                    let routes: Vec<u64> = routes.iter().collect();
                    prop_assert_eq!(routes, model.remove(id, leave_backoff), "routes handed back");
                }
                Cmd::Hold { pick } => {
                    let Some(id) = model.pick(pick) else { continue };
                    sim.actor_mut::<Owner>(OWNER).requests.hold(id, next_route);
                    model.routes.entry(id).or_default().push(next_route);
                    next_route += 1;
                }
                Cmd::Release { pick } => {
                    // Any route ever held: a released one answers nothing.
                    let route = pick as u64 % next_route.max(1);
                    let owner = sim.actor_mut::<Owner>(OWNER).requests.release(route);
                    prop_assert_eq!(owner, model.release(route), "release of {}", route);
                }
                Cmd::Redrive { pick } => {
                    let Some(id) = model.pick(pick) else { continue };
                    let routes = sim.actor_mut::<Owner>(OWNER).requests.take_routes(id);
                    let routes: Vec<u64> = routes.iter().collect();
                    let held = model.routes.remove(&id).unwrap_or_default();
                    prop_assert_eq!(routes, held, "routes handed back");
                }
                Cmd::Look { pick, delay, at_deadline } => {
                    let Some(id) = model.pick(pick) else { continue };
                    let entry = model.live.get_mut(&id).unwrap();
                    // A look in the past would come due now, not at its time.
                    let at = match at_deadline && entry.0 >= now.as_micros() {
                        true => entry.0,
                        false => (now + SimDuration::from_micros(delay)).as_micros(),
                    };
                    entry.1 = Some(at);
                    sim.with_actor::<Owner, _>(OWNER, |o, ctx| {
                        o.requests.look(ctx, id, SimTime::from_micros(at));
                    });
                }
                Cmd::Park { pick, park } => {
                    let Some(id) = model.pick(pick) else { continue };
                    sim.actor_mut::<Owner>(OWNER).requests.park(id, park);
                    model.park(id, park);
                }
                Cmd::Unpark { park } => {
                    let owner = sim.actor_mut::<Owner>(OWNER);
                    let ids = owner.requests.unpark(|p| *p == park);
                    prop_assert_eq!(ids, model.unpark(park), "unpark out of park order");
                }
                Cmd::Advance { us } => {
                    sim.run_for(SimDuration::from_micros(us));
                    model.advance(sim.now().as_micros());
                }
            }
            let requests = &sim.actor::<Owner>(OWNER).requests;
            prop_assert_eq!(&sim.actor::<Owner>(OWNER).fired, &model.fired);
            prop_assert_eq!(requests.iter().count(), model.live.len());
            let parked: Vec<(u64, u8)> = requests.parked().map(|(id, p)| (id, *p)).collect();
            prop_assert_eq!(&parked, &model.parked, "park list");
            for (&id, &(deadline, _)) in &model.live {
                prop_assert_eq!(requests.deadline(id), Some(SimTime::from_micros(deadline)));
                let routes: Vec<u64> = requests.routes(id).collect();
                let held = model.routes.get(&id).map_or(&[][..], |held| &held[..]);
                prop_assert_eq!(&routes[..], held, "routes of {}", id);
            }
            // Every held route names the live entry that lists it, and no
            // other route is held.
            for route in 0..next_route {
                prop_assert_eq!(requests.owner(route), model.owner(route), "owner of {}", route);
            }
            // A look outlives its entry only as a row-3 orphan, until it
            // comes due.
            let looks = model.live.values().filter(|(_, look)| look.is_some()).count();
            prop_assert_eq!(requests.looks().len(), looks + model.orphans.len());
            let queued = requests.looks().queued();
            prop_assert!(queued.windows(2).all(|w| w[0] > w[1]), "{:?}", queued);
            prop_assert_eq!(sim.queue_len(), queued.len());
        }
        prop_assert!(sim.actor::<Owner>(OWNER).requests.looks().is_empty());
        prop_assert_eq!(sim.queue_len(), 0);
    }
}
