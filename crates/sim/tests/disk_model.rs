//! [`Disk`] against the fold of everything appended to it.
//!
//! A toy record — set, add to or delete a small key — folds to a map.
//! Random append sequences long enough to cross [`COMPACT_THRESHOLD`]
//! several times must replay, at every point, to the fold of every record
//! appended so far, while the log stays bounded. And an actor that writes
//! through its disk, is crashed and comes back through [`Sim::restart`],
//! must read back what it wrote.

use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

use mala_sim::disk::COMPACT_THRESHOLD;
use mala_sim::{Actor, Context, Disk, Disks, NodeId, Record, Sim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Enough keys, and few enough overwrites, that a record a compaction
/// lost would rarely be overwritten before the next check.
const KEYS: u8 = 200;

#[derive(Debug, Clone, PartialEq)]
enum Toy {
    Set(u8, u64),
    Add(u8, u64),
    Del(u8),
}

impl Record for Toy {
    type State = BTreeMap<u8, u64>;

    fn fold(records: impl IntoIterator<Item = Rc<Toy>>) -> BTreeMap<u8, u64> {
        let mut state = BTreeMap::new();
        for record in records {
            match *record {
                Toy::Set(k, v) => {
                    state.insert(k, v);
                }
                Toy::Add(k, n) => *state.entry(k).or_default() += n,
                Toy::Del(k) => {
                    state.remove(&k);
                }
            }
        }
        state
    }

    fn unfold(state: BTreeMap<u8, u64>) -> Vec<Toy> {
        state.into_iter().map(|(k, v)| Toy::Set(k, v)).collect()
    }
}

fn record(rng: &mut StdRng) -> Toy {
    let key = rng.gen_range(0..KEYS);
    match rng.gen_range(0u32..20) {
        0 => Toy::Set(key, rng.gen_range(0u64..1_000)),
        1 => Toy::Del(key),
        _ => Toy::Add(key, rng.gen_range(1u64..50)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_is_the_fold_of_everything_appended(
        seed in any::<u64>(),
        extra in 0..COMPACT_THRESHOLD,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let appends = 3 * COMPACT_THRESHOLD + extra;
        let disk = Disk::<Toy>::new();
        let mut all: Vec<Rc<Toy>> = Vec::with_capacity(appends);
        let mut compactions = 0;
        for i in 0..appends {
            let r = Rc::new(record(&mut rng));
            all.push(Rc::clone(&r));
            disk.append(r);
            // Right after each compaction, and now and then between.
            let compacted = disk.compactions() > compactions;
            compactions = disk.compactions();
            if compacted || i % 997 == 0 || i + 1 == appends {
                prop_assert_eq!(disk.replay(), Toy::fold(all.iter().cloned()), "after {}", i + 1);
            }
            prop_assert!(disk.len() <= COMPACT_THRESHOLD + 1);
        }
        prop_assert!(disk.compactions() >= 2, "{} compactions", disk.compactions());
        prop_assert_eq!(disk.appends(), appends as u64);
    }
}

#[test]
fn a_shared_record_is_one_allocation_in_every_log() {
    let disks = Disks::<Toy>::new();
    let record = Rc::new(Toy::Set(1, 7));
    for n in 0..3 {
        disks.journal(NodeId(n)).append(Rc::clone(&record));
    }
    assert_eq!(Rc::strong_count(&record), 4);
    assert!(disks.journal(NodeId(3)).is_empty());
}

/// Adds one to key 0 on every message and keeps the running total in
/// memory; a new incarnation loads the total from its disk.
struct Writer {
    disk: Disk<Toy>,
    total: u64,
}

impl Actor for Writer {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {
        self.total = self.disk.replay().get(&0).copied().unwrap_or(0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {
        self.disk.append(Toy::Add(0, 1));
        self.total += 1;
    }
}

#[test]
fn a_restarted_actor_replays_what_it_wrote() {
    const NODE: NodeId = NodeId(1);
    let disks = Disks::<Toy>::new();
    let writer = |disks: &Disks<Toy>| Writer {
        disk: disks.journal(NODE),
        total: 0,
    };
    let mut sim = Sim::new(3);
    sim.add_node(NODE, writer(&disks));
    let writes = COMPACT_THRESHOLD as u64 + 5;
    for _ in 0..writes {
        sim.inject(NODE, ());
    }
    sim.run_until_idle();
    assert_eq!(sim.actor::<Writer>(NODE).total, writes);

    sim.crash(NODE);
    sim.restart(NODE, writer(&disks));
    sim.run_until_idle();
    assert_eq!(sim.actor::<Writer>(NODE).total, writes);
    assert_eq!(disks.journal(NODE).compactions(), 1);

    sim.inject(NODE, ());
    sim.run_until_idle();
    assert_eq!(sim.actor::<Writer>(NODE).total, writes + 1);
}
