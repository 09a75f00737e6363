//! What a gossip round with no news allocates, guarded where `cargo test`
//! runs.
//!
//! Every OSD offers its maps to `gossip_fanout` random peers each
//! `gossip_interval`, and almost every round carries nothing a peer lacks.
//! An OSD holds each map once and ships it by refcount (DESIGN §31), so
//! such a round allocates the peer list it shuffles and one box per
//! message, and a receiver drops the handles after comparing epochs. The
//! tree before that deep-copied the interface map (the zlog class source
//! included) and re-encoded the osdmap once per peer, and fails this test.
//!
//! The allocator below counts per thread, so the harness's other threads
//! do not show in the reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_rados::{Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::{zlog_interface_update, ZLOG_CLASS};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

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

const MON: NodeId = NodeId(0);
const OSDS: u32 = 5;

fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

#[test]
fn a_gossip_round_with_no_news_allocates_only_its_messages() {
    const INTERVALS: u64 = 50;
    // No backfill is running, so the backfill timer finds nothing to do
    // and allocates nothing: gossip is the OSDs' only work.
    let config = OsdConfig::default();
    let interval = config.gossip_interval;
    let mut sim = Sim::new(2017);
    sim.tracer_mut().set_enabled(false);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..OSDS {
        sim.add_node(osd_node(i), Osd::new(i, MON, config.clone()));
    }
    let pool = PoolInfo {
        pg_num: 8,
        replicas: 3,
    };
    let mut updates = vec![
        OsdMapView::update_pool("data", pool),
        zlog_interface_update(),
    ];
    for i in 0..OSDS {
        updates.push(OsdMapView::update_osd(i, osd_node(i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    for i in 0..OSDS {
        let osd = sim.actor::<Osd>(osd_node(i));
        assert!(
            osd.registry().scripted_version(ZLOG_CLASS).is_some(),
            "osd {i}"
        );
        assert_eq!(osd.map_epoch(), 1, "osd {i}");
    }
    // Settled. The monitor goes, and its last armed timers with it, so the
    // window holds the OSDs' gossip timers and deliveries and nothing else.
    sim.crash(MON);
    sim.run_for(SimDuration::from_secs(2));

    let metrics = |sim: &Sim| {
        let m = sim.metrics();
        (
            m.counter("sim.messages_sent"),
            m.counter("osd.iface_installs"),
        )
    };
    let (sent_before, installs_before) = metrics(&sim);
    let before = ALLOCS.get();
    sim.run_for(interval.mul(INTERVALS));
    let allocs = ALLOCS.get() - before;
    let (sent_after, installs_after) = metrics(&sim);

    // Every OSD pushed once an interval to all four of its peers.
    let pushes = u64::from(OSDS) * INTERVALS;
    let sent = sent_after - sent_before;
    assert_eq!(sent, pushes * u64::from(OSDS - 1));
    assert_eq!(installs_after, installs_before, "gossip re-installed a map");
    let budget = sent + pushes;
    assert!(
        allocs <= budget,
        "{allocs} allocations over {INTERVALS} gossip intervals, budget {budget}: \
         one box per message and one peer list per push (DESIGN §31)"
    );
}
