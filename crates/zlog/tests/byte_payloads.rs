//! A payload is bytes, and it is held once — through the whole stack.
//!
//! A log entry is whatever bytes the caller appended: not text, so nothing
//! between `ZlogClient::append` and the reader may decode it, and nothing
//! needs to copy it while it is only being *held*. These tests run a
//! journalled three-OSD, three-replica cluster with the scripted `zlog`
//! class installed through the monitor, and check both halves: arbitrary
//! bytes read back equal through every read path, and the stored value is
//! one allocation shared by the primary's object, the effect it shipped,
//! every replica's object and every journal.

use std::collections::HashMap;
use std::rc::Rc;

use mala_consensus::{MonConfig, MonMsg, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, MdsMapView, NoBalancer};
use mala_rados::{JournalSet, Object, ObjectId, Osd, OsdConfig, OsdMapView, PoolInfo};
use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
use proptest::prelude::*;

const MON: NodeId = NodeId(0);
const MDS0: NodeId = NodeId(20);
const WRITER: NodeId = NodeId(100);
const READER: NodeId = NodeId(101);
const OSDS: u32 = 3;
const WIDTH: u32 = 4;
const LOG: &str = "bytes";

fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

fn zcfg() -> ZlogConfig {
    ZlogConfig {
        name: LOG.to_string(),
        pool: "zlogpool".to_string(),
        stripe_width: WIDTH,
        mds_nodes: HashMap::from([(0, MDS0)]),
        home_rank: 0,
        monitor: MON,
    }
}

/// Monitor, three journalling OSDs (every PG on all three), one MDS, a
/// writer and a reader, with `/zlog/bytes` set up.
fn build(journals: &JournalSet) -> Sim {
    let mut sim = Sim::new(29);
    sim.add_node(MON, Monitor::new(0, vec![MON], MonConfig::default()));
    for i in 0..OSDS {
        let journal = journals.journal(osd_node(i));
        let osd = Osd::with_journal(i, MON, OsdConfig::default(), journal);
        sim.add_node(osd_node(i), osd);
    }
    sim.add_node(
        MDS0,
        Mds::new(0, MON, MdsConfig::default(), Box::new(NoBalancer)),
    );
    sim.add_node(WRITER, ZlogClient::new(zcfg()));
    sim.add_node(READER, ZlogClient::new(zcfg()));
    let pool = PoolInfo {
        pg_num: 8,
        replicas: OSDS,
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

fn op<T>(
    sim: &mut Sim,
    node: NodeId,
    start: impl FnOnce(&mut ZlogClient, &mut mala_sim::Context<'_>) -> u64 + 'static,
    take: impl FnOnce(ZlogOut) -> Option<T>,
) -> T {
    match run_op(sim, node, SimDuration::from_secs(10), start) {
        AppendResult::Ok(out) => take(out).expect("the op's own kind of result"),
        AppendResult::Err(e) => panic!("op failed: {e}"),
    }
}

/// Appends every payload on the pipelined path (one flush, so same-stripe
/// entries share a `write_batch`) and returns their positions.
fn append_batched(sim: &mut Sim, payloads: &[Vec<u8>]) -> Vec<u64> {
    let ops: Vec<u64> = payloads
        .iter()
        .map(|p| {
            let data = p.clone();
            sim.with_actor::<ZlogClient, _>(WRITER, move |c, ctx| c.append_async(ctx, data))
        })
        .collect();
    sim.with_actor::<ZlogClient, _>(WRITER, |c, ctx| c.flush(ctx));
    let deadline = sim.now() + SimDuration::from_secs(10);
    let done = sim.run_until_pred(deadline, |s| {
        let c = s.actor::<ZlogClient>(WRITER);
        ops.iter().all(|&op| c.is_done(op))
    });
    assert!(done, "batched appends timed out");
    ops.iter()
        .map(
            |&op| match sim.actor_mut::<ZlogClient>(WRITER).take_result(op) {
                Some(AppendResult::Ok(ZlogOut::Pos(p))) => p,
                other => panic!("batched append failed: {other:?}"),
            },
        )
        .collect()
}

/// Bytes no text holds (`0xff`, lone continuation bytes, a truncated
/// sequence, a surrogate half), the bytes every separator of the class's
/// wire formats is made of, and anything else.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"\xff".to_vec()),
        Just(b"\xa9\xa9".to_vec()),
        Just(b"ok\xc3".to_vec()),
        Just(b"\xed\xa0\x80".to_vec()),
        Just(b"|,\0|1,2|D|".to_vec()),
        Just(Vec::new()),
        prop::collection::vec(
            prop_oneof![Just(b'|'), Just(b','), Just(0u8), Just(0xffu8), any::<u8>()],
            0..64
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// What `append` and the batched path were given is what `read`,
    /// `read_batch`, a tail cursor and a checkpoint hand back, byte for
    /// byte, from another client.
    #[test]
    fn entries_read_back_as_the_bytes_appended(
        single in payload(),
        batch in prop::collection::vec(payload(), 1..12),
        blob in payload(),
    ) {
        let mut sim = build(&JournalSet::new());
        let first = single.clone();
        let at = op(&mut sim, WRITER, move |c, ctx| c.append(ctx, first), |out| match out {
            ZlogOut::Pos(p) => Some(p),
            _ => None,
        });
        prop_assert_eq!(at, 0);
        let positions = append_batched(&mut sim, &batch);
        let mut wrote: Vec<(u64, ReadOutcome)> = vec![(0, ReadOutcome::Data(single))];
        wrote.extend(positions.iter().zip(&batch).map(|(p, b)| (*p, ReadOutcome::Data(b.clone()))));
        wrote.sort_by_key(|(pos, _)| *pos);

        for (pos, want) in wrote.clone() {
            let got = op(&mut sim, READER, move |c, ctx| c.read(ctx, pos), |out| match out {
                ZlogOut::Read(r) => Some(r),
                _ => None,
            });
            prop_assert_eq!(got, want, "read({})", pos);
        }
        let all: Vec<u64> = wrote.iter().map(|(pos, _)| *pos).collect();
        let got = op(&mut sim, READER, move |c, ctx| c.read_batch(ctx, all), |out| match out {
            ZlogOut::ReadBatch(entries) => Some(entries),
            _ => None,
        });
        prop_assert_eq!(&got, &wrote);

        let cursor = sim.with_actor::<ZlogClient, _>(READER, |c, ctx| c.tail_cursor(ctx));
        let mut tailed = Vec::new();
        loop {
            let next = op(
                &mut sim,
                READER,
                move |c, ctx| c.cursor_next_batch(ctx, cursor, 5),
                |out| match out {
                    ZlogOut::CursorBatch(entries) => Some(entries),
                    _ => None,
                },
            );
            if next.is_empty() {
                break;
            }
            tailed.extend(next);
        }
        prop_assert_eq!(&tailed, &wrote);

        let kept = blob.clone();
        op(&mut sim, WRITER, move |c, ctx| c.checkpoint(ctx, 1, kept), |out| match out {
            ZlogOut::CheckpointAt(p) => Some(p),
            _ => None,
        });
        let held = op(&mut sim, READER, |c, ctx| c.checkpoint_read(ctx), |out| match out {
            ZlogOut::Checkpoint(ckpt) => Some(ckpt),
            _ => None,
        });
        prop_assert_eq!(held, Some((1, blob)));
    }
}

/// Held once: after a replicated `write_batch` every copy of an entry is
/// the same allocation — the value in the primary's omap (stored from the
/// script's string), the post-image the primary shipped and journalled
/// (`ObjectDelta`, behind the one `Rc<JournalRecord>` of DESIGN §28), the
/// value in each replica's omap (applied from that record, no class code
/// run), and the record in each replica's journal. So is its key, which
/// the script's `omap_set` allocated once (DESIGN §30).
#[test]
fn a_replicated_entry_is_one_buffer_on_every_osd_and_in_every_journal() {
    let journals = JournalSet::new();
    let mut sim = build(&journals);
    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![0xf0 | i; 1024]).collect();
    let positions = append_batched(&mut sim, &payloads);
    for (pos, payload) in positions.iter().zip(&payloads) {
        let oid = ObjectId::new("zlogpool", format!("{LOG}.{}", pos % u64::from(WIDTH)));
        let key = format!("e{pos:020}");
        let entry = |object: &Object| -> (Rc<str>, Rc<[u8]>) {
            let (k, v) = object.omap.get_key_value(key.as_str()).expect("written");
            (Rc::clone(k), Rc::clone(v))
        };
        let stored = |sim: &Sim, i: u32| {
            let osd = sim.actor::<Osd>(osd_node(i));
            entry(osd.store().get(&oid).expect("every OSD is acting"))
        };
        let (first_key, first) = stored(&sim, 0);
        assert_eq!(&first[2..], payload.as_slice(), "position {pos}");
        for i in 0..OSDS {
            let (k, v) = stored(&sim, i);
            assert!(
                Rc::ptr_eq(&k, &first_key) && Rc::ptr_eq(&v, &first),
                "position {pos}: osd {i} holds a copy of its own"
            );
            // A journal folds its records by applying them, so what it
            // replays to is what its record of this write holds.
            let (k, v) = entry(&journals.journal(osd_node(i)).replay().store[&oid]);
            assert!(
                Rc::ptr_eq(&k, &first_key) && Rc::ptr_eq(&v, &first),
                "position {pos}: osd {i}'s journal holds a copy of its own"
            );
        }
    }
}
