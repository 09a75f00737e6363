//! What a message costs the allocator: its box, and nothing else.
//!
//! Two nodes bounce a ball back and forth over the default network (one
//! latency draw per send). After a warm-up exchange has grown the event
//! slab and heap, the connection table and the counter vector to their
//! working size, 10 000 more sends allocate exactly 10 000 message boxes
//! under this file's own counting allocator. A scheduler or a counter
//! that allocates per send — a name copied, a map entry made — fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use mala_sim::{Actor, Context, NodeId, Sim};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting per thread: the test harness's other threads do not
/// show in the test's reading.
struct Counting;

fn count() {
    // A thread being torn down has no counter any more; it is not the one
    // being measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter never influences the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The sends still to make after this one. Not zero-sized, so its box is
/// an allocation.
struct Ball(u64);

/// Returns the ball to its sender until no sends are left.
struct Bouncer;

impl Actor for Bouncer {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let Ball(left) = *msg.downcast::<Ball>().expect("only balls are sent");
        if left > 0 {
            ctx.send(from, Ball(left - 1));
        }
    }
}

/// Serves a ball from node 0 that is sent `sends` times in all.
fn rally(sim: &mut Sim, sends: u64) {
    sim.with_actor::<Bouncer, _>(NodeId(0), |_, ctx| ctx.send(NodeId(1), Ball(sends - 1)));
    sim.run_until_idle();
}

#[test]
fn a_send_allocates_its_message_box_and_nothing_else() {
    const SENDS: u64 = 10_000;
    let mut sim = Sim::new(2017);
    sim.add_node(NodeId(0), Bouncer);
    sim.add_node(NodeId(1), Bouncer);
    sim.run_until_idle();
    rally(&mut sim, 1_000);

    let before = allocs();
    rally(&mut sim, SENDS);
    let made = allocs() - before;

    assert_eq!(sim.metrics().counter("sim.messages_sent"), 1_000 + SENDS);
    assert_eq!(
        made, SENDS,
        "{SENDS} sends made {made} allocations; each may allocate its message box only"
    );
}
