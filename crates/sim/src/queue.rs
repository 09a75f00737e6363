//! The event store: payloads in a slab, ordered by `(at, seq)` through a
//! one-microsecond calendar for events due within [`HORIZON_US`] of the
//! clock and a binary heap for the rest (DESIGN §22).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event due less than this many microseconds after the clock waits in
/// the calendar; one due later waits in the heap. The default network's
/// remote hop (150 µs base + up to 50 µs jitter) fits five times over, so
/// nearly every message and short timer skips the heap, and the calendar
/// stays small enough to sit in cache. A slower network only sends more
/// to the heap.
const HORIZON_US: u64 = 1024;

const BUCKETS: usize = HORIZON_US as usize;
const WORDS: usize = BUCKETS / 64;

/// Ends a bucket's chain; an empty bucket's head.
const NIL: u32 = u32::MAX;

/// A slab cell's payload: a queued event, or a link of the free list.
pub(crate) enum Slot<E> {
    /// Unused; `next` chains the free list.
    Free {
        next: Option<u32>,
    },
    Queued(E),
}

/// A slab cell: the payload, and for a calendar event its place in its
/// bucket. The link lives in the cell rather than in a vector beside the
/// slab, so the store grows by the slab's reallocations alone.
struct Cell<E> {
    slot: Slot<E>,
    /// The next slot in the same bucket; `NIL` ends it.
    next: u32,
    seq: u64,
}

/// What the heap orders: `(at, seq, slot)`, earliest first, ties in
/// insertion order. `seq` is unique, so `slot` never decides.
pub(crate) type Key = Reverse<(SimTime, u64, u32)>;

/// Events in `(at, seq)` order, cancelled ones included.
///
/// Every calendar event lies in `[now, now + HORIZON_US)`: it was due
/// less than one horizon after the clock when it was pushed, and the clock
/// has not passed it since. So a bucket (`at % HORIZON_US`) holds events of
/// one instant only, and since pushes take rising `seq`s, its FIFO is in
/// `seq` order. A heap event and a calendar event due at one instant meet
/// only as the earlier push in the heap, but `pop` compares `(at, seq)`
/// all the same.
pub(crate) struct EventQueue<E> {
    /// Keys of the events due `HORIZON_US` or more after the clock at
    /// their push.
    heap: BinaryHeap<Key>,
    /// Event payloads, found by slot. A slot is freed when its event pops
    /// and at no other time, so a queued event always owns its slot.
    slots: Vec<Cell<E>>,
    /// Head of the free list through `slots`.
    free: Option<u32>,
    seq: u64,
    /// `(head, tail)` of each bucket's FIFO of slots.
    buckets: Box<[(u32, u32); BUCKETS]>,
    /// Bit `b` is set while bucket `b` is not empty.
    occupied: [u64; WORDS],
    /// Bit `w` is set while `occupied[w]` is not zero.
    summary: u64,
    /// Events in the calendar.
    near: usize,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: None,
            seq: 0,
            buckets: Box::new([(NIL, NIL); BUCKETS]),
            occupied: [0; WORDS],
            summary: 0,
            near: 0,
        }
    }

    /// The `seq` the next push will take.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Queued events, cancelled ones included.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.near
    }

    /// Queues `event` at `at` (no earlier than `now`) under the next `seq`
    /// and returns the slot that holds it.
    pub(crate) fn push(&mut self, now: SimTime, at: SimTime, event: E) -> u32 {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free {
            Some(slot) => {
                let cell =
                    std::mem::replace(&mut self.slots[slot as usize].slot, Slot::Queued(event));
                let Slot::Free { next } = cell else {
                    unreachable!("free list points at a slot in use");
                };
                self.free = next;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("more than u32::MAX - 1 events queued at once");
                self.slots.push(Cell {
                    slot: Slot::Queued(event),
                    next: NIL,
                    seq,
                });
                slot
            }
        };
        debug_assert!(at >= now, "an event due before the clock");
        if at.0 - now.0 >= HORIZON_US {
            self.heap.push(Reverse((at, seq, slot)));
            return slot;
        }
        let cell = &mut self.slots[slot as usize];
        (cell.next, cell.seq) = (NIL, seq);
        let bucket = (at.0 % HORIZON_US) as usize;
        match self.buckets[bucket] {
            (NIL, _) => {
                self.buckets[bucket] = (slot, slot);
                self.occupied[bucket / 64] |= 1 << (bucket % 64);
                self.summary |= 1 << (bucket / 64);
            }
            (head, tail) => {
                self.slots[tail as usize].next = slot;
                self.buckets[bucket] = (head, slot);
            }
        }
        self.near += 1;
        slot
    }

    /// Pops the earliest event (by `(at, seq)`) if it is due by `by`,
    /// frees its slot and returns its time and payload.
    pub(crate) fn pop(&mut self, now: SimTime, by: SimTime) -> Option<(SimTime, E)> {
        let far = self.heap.peek().map(|Reverse(key)| *key);
        // The calendar's head, if it comes before the heap's.
        let near = self.near_head(now).filter(|&(at, bucket)| match far {
            Some((far_at, far_seq, _)) => {
                at < far_at || at == far_at && self.head_seq(bucket) < far_seq
            }
            None => true,
        });
        let (at, slot) = match (near, far) {
            (Some((at, _)), _) | (None, Some((at, ..))) if at > by => return None,
            (Some((at, bucket)), _) => (at, self.unlink_head(bucket)),
            (None, Some((at, _, slot))) => {
                self.heap.pop();
                (at, slot)
            }
            (None, None) => return None,
        };
        let next = self.free.replace(slot);
        match std::mem::replace(&mut self.slots[slot as usize].slot, Slot::Free { next }) {
            Slot::Queued(event) => Some((at, event)),
            Slot::Free { .. } => unreachable!("queued event in a free slot"),
        }
    }

    /// The payload in `slot`, if an event is queued there.
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut E> {
        match &mut self.slots.get_mut(slot as usize)?.slot {
            Slot::Queued(event) => Some(event),
            Slot::Free { .. } => None,
        }
    }

    /// `(at, bucket)` of the calendar's earliest event.
    fn near_head(&self, now: SimTime) -> Option<(SimTime, usize)> {
        if self.summary == 0 {
            return None;
        }
        let start = (now.0 % HORIZON_US) as usize;
        let word = start / 64;
        let here = self.occupied[word] & (!0u64 << (start % 64));
        let bucket = if here != 0 {
            word * 64 + here.trailing_zeros() as usize
        } else {
            // The first occupied word after this one, else wrap round to
            // the first of all (which may be this one, below `start`).
            let later = self.summary & (!1u64 << word);
            let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            word * 64 + self.occupied[word].trailing_zeros() as usize
        };
        let ahead = (bucket + BUCKETS - start) % BUCKETS;
        Some((SimTime(now.0 + ahead as u64), bucket))
    }

    /// The `seq` of the first event in `bucket`, which is not empty.
    fn head_seq(&self, bucket: usize) -> u64 {
        self.slots[self.buckets[bucket].0 as usize].seq
    }

    /// Takes the first slot of `bucket`, which is not empty.
    fn unlink_head(&mut self, bucket: usize) -> u32 {
        let (head, tail) = self.buckets[bucket];
        if head == tail {
            self.buckets[bucket] = (NIL, NIL);
            let word = &mut self.occupied[bucket / 64];
            *word &= !(1 << (bucket % 64));
            if *word == 0 {
                self.summary &= !(1 << (bucket / 64));
            }
        } else {
            self.buckets[bucket].0 = self.slots[head as usize].next;
        }
        self.near -= 1;
        head
    }

    /// Slab cells and heap capacity: what the store keeps beyond its
    /// fixed calendar.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (self.slots.len(), self.heap.capacity())
    }
}
