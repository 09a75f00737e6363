//! The allocation budget of one append, guarded where `cargo test` runs.
//!
//! The frozen benchmark reports `host_allocs_per_op` and `ci.sh` holds a
//! ceiling on it, but neither runs under `cargo test`. This is that
//! ceiling's tier-1 twin: a small cluster of the same shape (journalling
//! OSDs, replication 2, one MDS, one pipelined writer, tracer off), a
//! warm-up, then 256 single-entry batched appends under this file's own
//! counting allocator. The count is exact — the simulation is
//! deterministic and so is what it allocates — so the budget is the
//! reading when it was set plus 5 %.
//!
//! What an append allocates is spelled out hop by hop in DESIGN §30. The
//! budget fails on the tree before names were shared handles (32 more per
//! append: object ids, omap keys, class and method names, the grant's verb
//! and layout strings, each copied at every hop, and numbers formatted
//! into a `String` apiece).
//!
//! The second budget is a point read of a written entry, a `read_batch` of
//! one position, over the same cluster after the same warm-up.
//!
//! The third budget is a watchdog re-drive of a batch whose sequencer
//! never answers: forgetting the old grant and sending the new one. An op
//! lists the reply routes it holds (DESIGN §23), inline while it holds one
//! or two, so the re-drive allocates the two messages it sends and nothing
//! for its bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, MdsMapView, NoBalancer};
use mala_rados::{JournalSet, Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};

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

const MON: NodeId = NodeId(0);
const MDS0: NodeId = NodeId(20);
const WRITER: NodeId = NodeId(100);
const OSDS: u32 = 3;

fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

/// Monitor, three journalling OSDs, a replication-2 pool, one MDS and one
/// writer with `/zlog/budget` set up; nothing is traced.
fn build() -> Sim {
    let mut sim = Sim::new(2017);
    sim.tracer_mut().set_enabled(false);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    let journals = JournalSet::new();
    for i in 0..OSDS {
        let journal = journals.journal(osd_node(i));
        let osd = Osd::with_journal(i, MON, OsdConfig::default(), journal);
        sim.add_node(osd_node(i), osd);
    }
    sim.add_node(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    let config = ZlogConfig {
        name: "budget".to_string(),
        pool: "zlogpool".to_string(),
        stripe_width: 4,
        mds_nodes: HashMap::from([(0, MDS0)]),
        home_rank: 0,
        monitor: MON,
    };
    sim.add_node(WRITER, ZlogClient::new(config));
    let pool = PoolInfo {
        pg_num: 8,
        replicas: 2,
    };
    let mut updates = vec![
        OsdMapView::update_pool("zlogpool", pool),
        MdsMapView::update_rank(0, MDS0, true),
        zlog_interface_update(),
    ];
    for i in 0..OSDS {
        updates.push(OsdMapView::update_osd(i, osd_node(i), true));
    }
    sim.inject(MON, MonMsg::Submit { seq: 1, updates });
    sim.run_for(SimDuration::from_secs(3));
    let res = run_op(&mut sim, WRITER, SimDuration::from_secs(5), |c, ctx| {
        c.setup(ctx)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::SetUp(_))),
        "{res:?}"
    );
    sim
}

/// One 1 KiB append, a batch of one: a bulk grant of one position and a
/// one-entry `write_batch`.
fn append_one(sim: &mut Sim, fill: u8) {
    let res = run_op(sim, WRITER, SimDuration::from_secs(10), move |c, ctx| {
        c.append(ctx, vec![fill; 1024])
    });
    assert!(matches!(res, AppendResult::Ok(ZlogOut::Pos(_))), "{res:?}");
}

/// Allocations per append this tree made when the budget was set (49.18
/// while every gossip message deep-copied the OSD's maps, DESIGN §31).
const MEASURED_PER_APPEND: f64 = 47.88;

#[test]
fn a_steady_state_append_stays_inside_its_allocation_budget() {
    const APPENDS: u32 = 256;
    let mut sim = build();
    // Warm-up: every stripe object exists with its `maxpos` and `epoch`,
    // every table has reached its steady size.
    for i in 0..64 {
        append_one(&mut sim, i);
    }
    let before = ALLOCS.get();
    for i in 0..APPENDS {
        append_one(&mut sim, i as u8);
    }
    let per_append = (ALLOCS.get() - before) as f64 / f64::from(APPENDS);
    let budget = MEASURED_PER_APPEND * 1.05;
    assert!(
        per_append <= budget,
        "{per_append:.4} allocations per append, budget {budget:.2} \
         (was {MEASURED_PER_APPEND} when set): see DESIGN §30 for what an append may allocate"
    );
}

/// One point read of the 1 KiB entry at `pos`.
fn read_one(sim: &mut Sim, pos: u64) {
    let res = run_op(sim, WRITER, SimDuration::from_secs(10), move |c, ctx| {
        c.read(ctx, pos)
    });
    assert!(
        matches!(res, AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(_)))),
        "{res:?}"
    );
}

/// Allocations per point read this tree made when the budget was set. The
/// tree before a point read was a `read_batch` of one made 15.20 through the
/// class's scalar `read`: the vectored script splits its position list and
/// returns a table, and the client decodes a list of outcomes.
const MEASURED_PER_READ: f64 = 22.20;

#[test]
fn a_point_read_stays_inside_its_allocation_budget() {
    const READS: u64 = 256;
    let mut sim = build();
    for i in 0..64 {
        append_one(&mut sim, i);
    }
    // Warm-up: the read path's tables reach their steady size too.
    for pos in 0..64 {
        read_one(&mut sim, pos);
    }
    let before = ALLOCS.get();
    for i in 0..READS {
        read_one(&mut sim, i * 7 % 64);
    }
    let per_read = (ALLOCS.get() - before) as f64 / READS as f64;
    let budget = MEASURED_PER_READ * 1.05;
    assert!(
        per_read <= budget,
        "{per_read:.4} allocations per point read, budget {budget:.2} \
         (was {MEASURED_PER_READ} when set)"
    );
}

/// Allocations per watchdog re-drive of a stalled batch when the budget
/// was set: the boxes of the two messages it sends. The tree before ops
/// listed their routes made as many.
const MEASURED_PER_REDRIVE: f64 = 2.0;

#[test]
fn a_stalled_batch_is_redriven_inside_its_allocation_budget() {
    const REDRIVES: u64 = 10;
    let mut sim = build();
    for i in 0..64 {
        append_one(&mut sim, i);
    }
    sim.network_mut().sever(WRITER, MDS0);
    let op = sim.with_actor::<ZlogClient, _>(WRITER, |c, ctx| c.append(ctx, vec![7; 1024]));
    // A re-drive is the event that sends the grant (and the layout beside
    // it) into the severed link; every other event (the cluster's beacons
    // and heartbeats, a watchdog callback that finds nothing due) is left
    // out of the reading, and so is the first re-drive.
    let dropped = |sim: &Sim| sim.metrics().counter("sim.messages_dropped");
    let deadline = sim.now() + SimDuration::from_secs(40);
    let (mut redrives, mut allocs) = (0, 0);
    while redrives <= REDRIVES {
        assert!(
            sim.now() < deadline,
            "the batch was not re-driven {REDRIVES} times"
        );
        let (before, sent) = (ALLOCS.get(), dropped(&sim));
        sim.step();
        if dropped(&sim) > sent {
            if redrives > 0 {
                allocs += ALLOCS.get() - before;
            }
            redrives += 1;
        }
    }
    let per_redrive = allocs as f64 / REDRIVES as f64;
    assert!(
        per_redrive <= MEASURED_PER_REDRIVE,
        "{per_redrive:.4} allocations per re-drive, budget {MEASURED_PER_REDRIVE}: \
         forgetting a request must not allocate (DESIGN §23)"
    );

    sim.network_mut().heal_all();
    let deadline = sim.now() + SimDuration::from_secs(10);
    assert!(sim.run_until_pred(deadline, |s| s.actor::<ZlogClient>(WRITER).is_done(op)));
    let res = sim.actor_mut::<ZlogClient>(WRITER).take_result(op);
    assert!(
        matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(_)))),
        "{res:?}"
    );
}
