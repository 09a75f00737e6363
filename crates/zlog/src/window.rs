//! The tail cursor's prefetch window: what is known about each position
//! from the delivery point on.
//!
//! One ring of slots indexed by `pos - next_pos`. A position is empty,
//! out in a fetch, being healed (a hole below the tail getting its junk
//! fill) or ready to deliver — exactly one of them, which is what the type
//! says; the window used to be three ordered collections and a comment
//! asking that no position sit in two. Delivery pops the front, the
//! prefetch scan reads one slot per position.

use std::collections::VecDeque;

use crate::log::ReadOutcome;

/// What the cursor knows about one position at or past the delivery point.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    /// Nothing: not requested yet, or a fetch of it failed, or its heal
    /// finished and it has to be read again.
    Empty,
    /// Out in a fetch op.
    InFlight,
    /// A hole below the tail, with its junk fill in flight.
    Healing,
    /// Fetched, waiting for its turn.
    Ready(ReadOutcome),
}

/// The window itself; positions below `next_pos` are delivered and gone.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// Next position to deliver: the position of `slots[0]`.
    next_pos: u64,
    /// Slots from `next_pos` up; positions past the end are empty.
    slots: VecDeque<Slot>,
    /// Prefetch high-water mark: no position in `next_pos..requested` is
    /// empty, so the scan starts here. Whatever empties a slot without
    /// delivering it (a failed fetch, a finished heal) rewinds the mark to
    /// `next_pos`.
    requested: u64,
}

impl Window {
    /// The next position to deliver.
    pub(crate) fn next_pos(&self) -> u64 {
        self.next_pos
    }

    /// Restarts the window at `pos` (the checkpoint consult resolved the
    /// cursor's start; nothing has been requested yet).
    pub(crate) fn start_at(&mut self, pos: u64) {
        debug_assert!(self.slots.is_empty(), "the window starts once");
        self.next_pos = pos;
    }

    fn slot_mut(&mut self, pos: u64) -> Option<&mut Slot> {
        let at = usize::try_from(pos.checked_sub(self.next_pos)?).ok()?;
        if self.slots.len() <= at {
            self.slots.resize(at + 1, Slot::Empty);
        }
        self.slots.get_mut(at)
    }

    fn slot(&self, pos: u64) -> &Slot {
        pos.checked_sub(self.next_pos)
            .and_then(|at| self.slots.get(usize::try_from(at).ok()?))
            .unwrap_or(&Slot::Empty)
    }

    /// Takes the contiguous run of ready entries at the delivery point,
    /// `max` of them at most, in position order.
    pub(crate) fn deliver(&mut self, max: usize) -> Vec<(u64, ReadOutcome)> {
        let ready = |slot: &&Slot| matches!(slot, Slot::Ready(_));
        let run = self.slots.iter().take(max).take_while(ready).count();
        let mut entries = Vec::with_capacity(run);
        for slot in self.slots.drain(..run) {
            if let Slot::Ready(outcome) = slot {
                entries.push((self.next_pos, outcome));
            }
            self.next_pos += 1;
        }
        entries
    }

    /// The empty positions below `hi`, in position order, from the
    /// high-water mark on.
    pub(crate) fn missing(&self, hi: u64) -> impl Iterator<Item = u64> + '_ {
        (self.next_pos.max(self.requested)..hi).filter(|pos| *self.slot(*pos) == Slot::Empty)
    }

    /// Everything below `mark` has been asked for (or `mark` is the first
    /// position a pass left out).
    pub(crate) fn set_requested(&mut self, mark: u64) {
        self.requested = mark;
    }

    /// `positions` went out in a fetch op.
    pub(crate) fn fetching(&mut self, positions: &[u64]) {
        for &pos in positions {
            if let Some(slot) = self.slot_mut(pos) {
                *slot = Slot::InFlight;
            }
        }
    }

    /// The fetch of `positions` concluded with `entries` (`None`: it
    /// failed, and the positions simply become wanted again). An entry that
    /// is a hole below `tail` is not ready: its position is returned to be
    /// healed, unless a heal of it is already out.
    pub(crate) fn fetched(
        &mut self,
        positions: &[u64],
        entries: Option<Vec<(u64, ReadOutcome)>>,
        tail: u64,
    ) -> Vec<u64> {
        for &pos in positions {
            if let Some(slot) = self.slot_mut(pos) {
                if *slot == Slot::InFlight {
                    *slot = Slot::Empty;
                }
            }
        }
        let Some(entries) = entries else {
            self.requested = self.next_pos;
            return Vec::new();
        };
        let mut heal = Vec::new();
        for (pos, outcome) in entries {
            let hole = outcome == ReadOutcome::NotWritten && pos < tail;
            let Some(slot) = self.slot_mut(pos) else {
                continue;
            };
            if !hole {
                *slot = Slot::Ready(outcome);
            } else if *slot != Slot::Healing {
                heal.push(pos);
            }
        }
        heal
    }

    /// A junk fill of the hole at `pos` went out.
    pub(crate) fn healing(&mut self, pos: u64) {
        if let Some(slot) = self.slot_mut(pos) {
            *slot = Slot::Healing;
        }
    }

    /// The fill of `pos` concluded; healed or not, the position is read
    /// again.
    pub(crate) fn healed(&mut self, pos: u64) {
        if let Some(slot) = self.slot_mut(pos) {
            if *slot == Slot::Healing {
                *slot = Slot::Empty;
            }
        }
        self.requested = self.next_pos;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// The window as it was: three ordered collections and the convention
    /// that a position sits in at most one. Kept as the oracle, operation
    /// for operation as `ZlogClient` drove it.
    #[derive(Default)]
    struct ThreeCollections {
        next_pos: u64,
        ready: BTreeMap<u64, ReadOutcome>,
        inflight: BTreeSet<u64>,
        healing: BTreeSet<u64>,
        requested: u64,
    }

    impl ThreeCollections {
        fn deliver(&mut self, max: usize) -> Vec<(u64, ReadOutcome)> {
            let mut entries = Vec::new();
            while entries.len() < max {
                let p = self.next_pos;
                match self.ready.remove(&p) {
                    Some(o) => {
                        entries.push((p, o));
                        self.next_pos += 1;
                    }
                    None => break,
                }
            }
            entries
        }

        fn missing(&self, hi: u64) -> Vec<u64> {
            (self.next_pos.max(self.requested)..hi)
                .filter(|p| {
                    !self.ready.contains_key(p)
                        && !self.inflight.contains(p)
                        && !self.healing.contains(p)
                })
                .collect()
        }

        fn fetching(&mut self, positions: &[u64]) {
            self.inflight.extend(positions.iter().copied());
        }

        fn fetched(
            &mut self,
            positions: &[u64],
            entries: Option<Vec<(u64, ReadOutcome)>>,
            tail: u64,
        ) -> Vec<u64> {
            let mut heal = Vec::new();
            for p in positions {
                self.inflight.remove(p);
            }
            if let Some(entries) = entries {
                for (p, o) in entries {
                    if matches!(o, ReadOutcome::NotWritten) && p < tail {
                        if !self.healing.contains(&p) {
                            heal.push(p);
                        }
                    } else {
                        self.ready.insert(p, o);
                    }
                }
            } else {
                self.requested = self.next_pos;
            }
            heal
        }

        fn healing(&mut self, pos: u64) {
            self.healing.insert(pos);
        }

        fn healed(&mut self, pos: u64) {
            self.healing.remove(&pos);
            self.requested = self.next_pos;
        }
    }

    /// What one step of the cursor machinery may do next, as dice: the
    /// steps themselves are chosen against the state, the way the client
    /// chooses them.
    #[derive(Debug, Clone)]
    enum Step {
        /// A `next_batch` waiter takes up to this many entries.
        Deliver(usize),
        /// The tail moves up by this much, then a prefetch pass with room
        /// for this many stripe groups.
        Prefetch { grow: u64, room: usize },
        /// The `nth` outstanding fetch concludes; `fail` says how, `holes`
        /// picks which of its positions come back unwritten.
        Fetched { nth: usize, fail: bool, holes: u64 },
        /// The `nth` outstanding heal concludes.
        Healed { nth: usize },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => (1usize..12).prop_map(Step::Deliver),
            3 => (0u64..9, 1usize..4).prop_map(|(grow, room)| Step::Prefetch { grow, room }),
            4 => (0usize..4, 0u8..5, any::<u64>())
                .prop_map(|(nth, fail, holes)| Step::Fetched { nth, fail: fail == 0, holes }),
            2 => (0usize..4).prop_map(|nth| Step::Healed { nth }),
        ]
    }

    const WIDTH: u64 = 4;
    const READAHEAD: u64 = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random fetch / fail / heal / deliver sequences, driven the way
        /// `drive_cursor` and `on_cursor_op_done` drive the window: the
        /// ring and the three collections deliver the same entries, ask
        /// for the same fetch groups in the same order and heal the same
        /// holes, step for step.
        #[test]
        fn the_ring_is_the_three_collections(
            start in 0u64..1000,
            steps in prop::collection::vec(step(), 1..120),
        ) {
            let mut ring = Window::default();
            ring.start_at(start);
            let mut old = ThreeCollections { next_pos: start, ..Default::default() };
            let mut tail = start;
            let mut fetches: Vec<Vec<u64>> = Vec::new();
            let mut heals: Vec<u64> = Vec::new();
            for step in steps {
                match step {
                    Step::Deliver(max) => {
                        prop_assert_eq!(ring.deliver(max), old.deliver(max));
                        prop_assert_eq!(ring.next_pos(), old.next_pos);
                    }
                    Step::Prefetch { grow, room } => {
                        tail += grow;
                        let hi = tail.min(ring.next_pos() + READAHEAD);
                        let wanted: Vec<u64> = ring.missing(hi).collect();
                        prop_assert_eq!(&wanted, &old.missing(hi));
                        let mut by_stripe: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                        for p in wanted {
                            by_stripe.entry(p % WIDTH).or_default().push(p);
                        }
                        let mut groups: Vec<Vec<u64>> = by_stripe.into_values().collect();
                        let left_out = groups.split_off(room.min(groups.len()));
                        let mark = left_out.iter().map(|g| g[0]).fold(hi, u64::min);
                        ring.set_requested(mark);
                        old.requested = mark;
                        for group in groups {
                            ring.fetching(&group);
                            old.fetching(&group);
                            fetches.push(group);
                        }
                    }
                    Step::Fetched { nth, fail, holes } => {
                        if fetches.is_empty() {
                            continue;
                        }
                        let group = fetches.remove(nth % fetches.len());
                        let entries = (!fail).then(|| {
                            group
                                .iter()
                                .enumerate()
                                .map(|(i, p)| {
                                    let outcome = match (holes >> (2 * i)) & 3 {
                                        0 => ReadOutcome::NotWritten,
                                        1 => ReadOutcome::Filled,
                                        _ => ReadOutcome::Data(p.to_le_bytes().to_vec()),
                                    };
                                    (*p, outcome)
                                })
                                .collect::<Vec<_>>()
                        });
                        let heal = ring.fetched(&group, entries.clone(), tail);
                        prop_assert_eq!(&heal, &old.fetched(&group, entries, tail));
                        for p in heal {
                            ring.healing(p);
                            old.healing(p);
                            heals.push(p);
                        }
                    }
                    Step::Healed { nth } => {
                        if heals.is_empty() {
                            continue;
                        }
                        let p = heals.remove(nth % heals.len());
                        ring.healed(p);
                        old.healed(p);
                    }
                }
                // The window never outgrows what the prefetch may cover.
                prop_assert!(ring.slots.len() as u64 <= READAHEAD);
            }
        }
    }
}
