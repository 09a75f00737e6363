//! Nemesis invariant suite: randomized-but-seeded fault schedules drive
//! the full stack while the system's safety invariants are checked.
//!
//! * **Write-once under faults** — concurrent zlog appends interleaved
//!   with a random crash/partition/loss schedule still yield unique
//!   positions, and every acked append reads back intact afterwards.
//! * **Sealed epoch never accepts writes** — once `seal(e)` commits, any
//!   request below `e` is rejected with `-116` and the cell contents are
//!   untouched, including under message loss.
//! * **Leader safety** — monitors partitioned and healed at random never
//!   present two leaders with the same ballot, never regress a map epoch,
//!   and never disagree on map contents at the same epoch.
//! * **Recovery exactness** — OSDs crashed and restarted mid-workload
//!   (and finally all at once) serve exactly the acked writes from their
//!   journals: nothing acked is lost, nothing phantom appears.
//! * **Sequencer failover** — crashing the MDS rank that owns a zlog
//!   sequencer (detected by missed beacons, not by the harness) promotes
//!   a standby that replays the metadata journal, seals the log's epoch,
//!   and resumes issuing positions: no duplicates, no regression below
//!   the pre-crash tail, stale epochs rejected, no client append hangs.
//! * **Partitioned capability holder** — a cap holder cut off by the
//!   nemesis (alive, not crashed) is evicted after the recall times out;
//!   its stale release after the heal is rejected and the new holder's
//!   state survives.
//! * **Pipelined appends under faults** — batched appends sharing bulk
//!   position grants keep the same invariants when the grant or the
//!   coalesced write dies mid-flight: unwritten members retry under a
//!   fresh grant, abandoned positions are junk-filled, no duplicates, no
//!   tail regression, no permanently unreadable holes after recovery.
//! * **Elastic membership** — OSDs join and drain mid-workload via
//!   nemesis `OsdJoin`/`OsdDrain` faults: remapped PGs backfill from the
//!   old acting sets under the epoch guard while appends keep flowing,
//!   and the full trace (including ops bounced across the remap) stays
//!   linearizable — even when a partition cuts the backfill source off.
//!
//! Every case derives its cluster seed and fault schedule from the
//! proptest-drawn `seed`; a failure reproduces bit-for-bit from the
//! `PROPTEST_SEED` the runner prints.

use proptest::prelude::*;

/// A one-entry `write_batch` of the zlog class: `payload` at `pos` under
/// `epoch`, sent raw, outside any client.
fn zlog_write(epoch: u64, pos: u64, payload: &str) -> mala_rados::Transaction {
    let input = mala_zlog::encode_write_batch(epoch, &[(pos, payload.as_bytes())]);
    malacology::interfaces::data_io::call("zlog", "write_batch", input)
}

/// Linearizability harness glue shared by the fault suites (the
/// trace-driven tentpole): every zlog client gets a cloned [`Recorder`],
/// and after a schedule closes the captured op history replays through
/// the WGL checker. A violation fails the test with the minimal
/// counterexample rendered as an event timeline.
///
/// [`Recorder`]: mala_sim::history::Recorder
mod lin {
    use mala_sim::history::Recorder;
    use mala_sim::linearize::{check_shared_log, CheckStats, LogOp, LogRet};

    /// Fresh per-run recorder for zlog op histories.
    pub fn recorder() -> Recorder<LogOp, LogRet> {
        Recorder::new()
    }

    /// Replays the history through the WGL checker.
    pub fn check_log(rec: &Recorder<LogOp, LogRet>, seed: u64) -> Result<CheckStats, String> {
        let ops = rec.operations();
        assert!(!ops.is_empty(), "history recorded no operations");
        check_shared_log(&ops)
            .map_err(|cex| format!("history not linearizable (seed {seed}):\n{cex}"))
    }
}

mod zlog_fault_props {
    use super::*;
    use mala_rados::{Osd, OsdConfig};
    use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, SimDuration};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
    use malacology::cluster::ClusterBuilder;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Ten seeded random schedules (crash+restart, partition+heal,
        /// isolation, loss bursts, delay spikes over the OSD set) play out
        /// while a zlog client appends. Invariants: every append that
        /// completes gets a position no other append got, and after the
        /// cluster heals every acked payload reads back verbatim — even
        /// when the only copy of a stripe rode through an OSD crash on
        /// the write-ahead journal.
        #[test]
        fn appends_stay_unique_and_durable_under_random_faults(seed in 0u64..100_000) {
            let mut cluster = ClusterBuilder::new()
                .monitors(1)
                .osds(4)
                .mds_ranks(1)
                .pool("p", 16, 2)
                .build(seed);
            cluster.commit_updates(vec![zlog_interface_update()]);
            let node = cluster.alloc_node();
            let config = ZlogConfig {
                name: "nemesis".into(),
                pool: "p".into(),
                stripe_width: 4,
                mds_nodes: cluster.mds_nodes(),
                home_rank: 0,
                monitor: cluster.mon(),
            };
            let history = lin::recorder();
            cluster
                .sim
                .add_node(node, ZlogClient::new(config).with_history(history.clone()));
            cluster.sim.run_for(SimDuration::from_secs(1));
            run_op(&mut cluster.sim, node, SimDuration::from_secs(10), |c, ctx| c.setup(ctx));

            let osd_nodes: Vec<NodeId> = (0..4).map(|i| cluster.osd_node(i)).collect();
            let schedule =
                FaultSchedule::random(seed, &osd_nodes, SimDuration::from_secs(8), 4);
            let crashes = schedule
                .entries()
                .iter()
                .filter(|(_, f)| matches!(f, Fault::Crash(_)))
                .count() as u64;
            let journals = cluster.journals().clone();
            let mon = cluster.mon();
            let mut nemesis = Nemesis::new(schedule).on_restart(move |sim, n| {
                let osd = Osd::with_journal(
                    n.0 - 10,
                    mon,
                    OsdConfig::default(),
                    journals.journal(n),
                );
                sim.restart(n, osd);
            });

            // Appends interleave with the schedule: the driver advances the
            // sim in slices, applying faults at their timestamps, while we
            // poll the op for completion.
            let mut positions: Vec<(u64, Vec<u8>)> = Vec::new();
            for k in 0..10u32 {
                let payload = format!("s{seed}-k{k}").into_bytes();
                let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                    let p = payload.clone();
                    move |c, ctx| c.append(ctx, p)
                });
                let deadline = cluster.sim.now() + SimDuration::from_secs(90);
                while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
                    if cluster.sim.now() >= deadline {
                        return Err(TestCaseError::fail(format!(
                            "append {k} hung past its deadline (seed {seed})"
                        )));
                    }
                    nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
                }
                let result = cluster
                    .sim
                    .actor_mut::<ZlogClient>(node)
                    .take_result(op)
                    .expect("op is done");
                match result {
                    AppendResult::Ok(ZlogOut::Pos(pos)) => positions.push((pos, payload)),
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "append {k} failed terminally: {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            // Let the rest of the schedule close its windows, then settle.
            while !nemesis.finished() {
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
            }
            cluster.sim.run_for(SimDuration::from_secs(2));

            // Write-once: no two appends ever share a cell. (Density is
            // not guaranteed under faults — a timed-out attempt may burn a
            // position — but uniqueness must hold.)
            let mut seen: Vec<u64> = positions.iter().map(|(p, _)| *p).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate positions (seed {})", seed);

            // Durability: every acked payload reads back from the healed
            // cluster, restored OSDs included.
            for (pos, payload) in &positions {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(30),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!(
                        "read of acked pos {pos} failed: {res:?} (seed {seed})"
                    )));
                };
                prop_assert_eq!(&data, payload, "payload mismatch at {} (seed {})", pos, seed);
            }
            if crashes > 0 {
                prop_assert!(
                    cluster.sim.metrics().counter("osd.journal_replays") >= crashes,
                    "schedule crashed {} OSDs but only {} journal replays ran (seed {})",
                    crashes,
                    cluster.sim.metrics().counter("osd.journal_replays"),
                    seed
                );
            }

            // Tentpole: the captured history (appends, ambiguous retries,
            // verification reads) must be linearizable under the
            // shared-log model.
            if let Err(e) = lin::check_log(&history, seed) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}

mod seal_props {
    use super::*;
    use mala_rados::{ObjectId, OpResult, OsdError};
    use mala_sim::{NetConfig, SimDuration};
    use mala_zlog::zlog_interface_update;
    use malacology::cluster::ClusterBuilder;
    use malacology::interfaces::data_io;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// After `seal(e)` commits on a stripe object, every request below
        /// `e` bounces with `-116` and leaves the cells untouched — across
        /// random seal epochs, stale epochs, positions, and message-drop
        /// rates (the retry layer must deliver the *rejection*, not mask
        /// it or let a stale write slip through on a retransmit).
        #[test]
        fn sealed_epoch_never_accepts_stale_writes(
            seed in 0u64..100_000,
            seal_epoch in 2u64..40,
            pos in 0u64..64,
            drop_pct in 0u8..10,
        ) {
            let mut cluster = ClusterBuilder::new()
                .osds(3)
                .pool("p", 16, 2)
                .net_config(NetConfig {
                    drop_probability: f64::from(drop_pct) / 100.0,
                    ..NetConfig::default()
                })
                .build(seed);
            cluster.commit_updates(vec![zlog_interface_update()]);
            cluster.sim.run_for(SimDuration::from_secs(2));
            let oid = ObjectId::new("p", "sealed-stripe");
            let stale = seed % seal_epoch; // strictly below the seal

            let wrote = cluster.rados(oid.clone(), zlog_write(0, pos, "pre"));
            prop_assert!(wrote.is_ok(), "pre-seal write failed: {:?}", wrote);
            let sealed = cluster.rados(oid.clone(), data_io::call("zlog", "seal", format!("{seal_epoch}")));
            match sealed {
                Ok(out) => prop_assert_eq!(
                    &out[0],
                    &OpResult::CallOut(pos.to_string().as_bytes().into()),
                    "seal reported wrong maxpos"
                ),
                Err(e) => return Err(TestCaseError::fail(format!("seal failed: {e:?}"))),
            }

            // Stale writes — to the written cell and to a fresh one — must
            // both be rejected with ESTALE.
            for target in [pos, pos + 1] {
                let res = cluster.rados(oid.clone(), zlog_write(stale, target, "evil"));
                match res {
                    Err(OsdError::Class(e)) => prop_assert_eq!(
                        e.code, -116,
                        "stale write to {} got wrong errno (seed {})", target, seed
                    ),
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "stale write to {target} not rejected: {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            // The written cell is intact, the fresh cell still unwritten.
            let read = cluster.rados(
                oid.clone(),
                data_io::call("zlog", "read_batch", format!("{seal_epoch}|{pos},{}", pos + 1)),
            );
            let cells = match read.map(|mut out| out.remove(0)) {
                Ok(OpResult::CallList(items)) => items,
                other => return Err(TestCaseError::fail(format!("read_batch failed: {other:?}"))),
            };
            prop_assert_eq!(&*cells[1], b"D|pre", "sealed cell was clobbered (seed {})", seed);
            prop_assert_eq!(
                &*cells[2], b"U|",
                "rejected stale write left residue (seed {})", seed
            );
            // Sanity liveness: the current epoch still writes fine.
            let ok = cluster.rados(oid, zlog_write(seal_epoch, pos + 1, "good"));
            prop_assert!(ok.is_ok(), "current-epoch write failed: {:?}", ok);
        }
    }
}

mod leader_props {
    use super::*;
    use mala_consensus::{MonMsg, Monitor};
    use mala_rados::OsdMapView;
    use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, SimDuration, SimTime};
    use malacology::cluster::ClusterBuilder;
    use std::collections::BTreeMap;

    /// A seeded schedule over the monitor quorum: isolations, minority
    /// partitions, loss bursts, and delay spikes (no crashes — the monitor
    /// models a process whose Paxos promises live in memory, so killing
    /// one is out of scope for this invariant).
    fn monitor_schedule(seed: u64, mons: &[NodeId]) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for k in 0..4u64 {
            let start = SimTime(500_000 + k * 1_500_000);
            let end = SimTime(start.0 + 700_000);
            let pick = mons[((seed >> k) % mons.len() as u64) as usize];
            match (seed >> (2 * k)) % 4 {
                0 => {
                    schedule = schedule
                        .at(start, Fault::Isolate(pick))
                        .at(end, Fault::Rejoin(pick));
                }
                1 => {
                    let a = vec![pick];
                    let b: Vec<NodeId> = mons.iter().copied().filter(|m| *m != pick).collect();
                    schedule = schedule
                        .at(start, Fault::Partition(a.clone(), b.clone()))
                        .at(end, Fault::HealPartition(a, b));
                }
                2 => {
                    schedule = schedule.at(
                        start,
                        Fault::LossBurst {
                            probability: 0.3,
                            duration: SimDuration::from_micros(700_000),
                        },
                    );
                }
                _ => {
                    schedule = schedule.at(
                        start,
                        Fault::DelaySpike {
                            extra: SimDuration::from_millis(3),
                            duration: SimDuration::from_micros(700_000),
                        },
                    );
                }
            }
        }
        schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// While the quorum is partitioned, isolated, and lossy at random
        /// (with map-update traffic flowing), at every observation point:
        /// concurrent leadership claims carry distinct ballots, no monitor
        /// ever regresses a map epoch, and two monitors holding the same
        /// epoch of a map hold identical contents (Paxos log safety
        /// projected onto the replicated maps). After healing, the quorum
        /// reconverges to one leader and identical maps.
        #[test]
        fn partitioned_monitors_keep_leader_and_state_safety(seed in 0u64..100_000) {
            let mut cluster = ClusterBuilder::new()
                .monitors(3)
                .osds(1)
                .pool("p", 8, 1)
                .build(seed);
            let mons: Vec<NodeId> = (0..3).map(NodeId).collect();
            let mut nemesis = Nemesis::new(monitor_schedule(seed, &mons));

            let mut last_epoch: BTreeMap<u32, u64> = BTreeMap::new();
            let mut seq = 1000;
            for step in 0..80u32 {
                // Keep commit traffic flowing, aimed round-robin so both
                // majority and minority sides see submissions.
                if step % 5 == 0 {
                    seq += 1;
                    let target = mons[(step as usize / 5) % mons.len()];
                    let up = step % 10 == 0;
                    cluster.sim.inject(
                        target,
                        MonMsg::Submit {
                            seq,
                            updates: vec![OsdMapView::update_osd(0, NodeId(10), up)],
                        },
                    );
                }
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(100));

                let mut ballots = Vec::new();
                for rank in 0..3u32 {
                    let m = cluster.sim.actor::<Monitor>(NodeId(rank));
                    if let Some(ballot) = m.leader_ballot() {
                        ballots.push(ballot);
                    }
                    if let Some(snap) = m.map("osdmap") {
                        let prev = last_epoch.insert(rank, snap.epoch).unwrap_or(0);
                        prop_assert!(
                            snap.epoch >= prev,
                            "monitor {} regressed osdmap {} -> {} (seed {})",
                            rank, prev, snap.epoch, seed
                        );
                    }
                }
                for i in 0..ballots.len() {
                    for j in (i + 1)..ballots.len() {
                        prop_assert!(
                            ballots[i] != ballots[j],
                            "two leaders share ballot {:?} (seed {})", ballots[i], seed
                        );
                    }
                }
                // Same epoch ⇒ same contents, pairwise.
                for i in 0..3u32 {
                    for j in (i + 1)..3u32 {
                        let (a, b) = (
                            cluster.sim.actor::<Monitor>(NodeId(i)).map("osdmap").cloned(),
                            cluster.sim.actor::<Monitor>(NodeId(j)).map("osdmap").cloned(),
                        );
                        if let (Some(a), Some(b)) = (a, b) {
                            if a.epoch == b.epoch {
                                prop_assert_eq!(
                                    &a.entries, &b.entries,
                                    "monitors {} and {} diverge at epoch {} (seed {})",
                                    i, j, a.epoch, seed
                                );
                            }
                        }
                    }
                }
            }

            // All windows are closed by construction; reconverge.
            cluster.sim.network_mut().heal_all();
            let deadline = cluster.sim.now() + SimDuration::from_secs(30);
            let converged = cluster.sim.run_until_pred(deadline, |s| {
                let leaders = (0..3).filter(|r| s.actor::<Monitor>(NodeId(*r)).is_leader()).count();
                let snaps: Vec<_> = (0..3)
                    .filter_map(|r| s.actor::<Monitor>(NodeId(r)).map("osdmap"))
                    .collect();
                leaders == 1
                    && snaps.len() == 3
                    && snaps.windows(2).all(|w| {
                        w[0].epoch == w[1].epoch && w[0].entries == w[1].entries
                    })
            });
            prop_assert!(converged, "quorum did not reconverge after healing (seed {})", seed);
        }
    }
}

mod durability_props {
    use super::*;
    use mala_rados::{ObjectId, OpResult, Osd};
    use mala_sim::SimDuration;
    use malacology::cluster::ClusterBuilder;
    use malacology::interfaces::durability;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// OSDs crash and restart *mid-workload* (one at a time, then all
        /// at once at the end, wiping every in-memory store). Afterwards
        /// the cluster serves exactly the acked writes: each object reads
        /// back its last acked payload, and no restarted OSD holds an
        /// object that was never written.
        #[test]
        fn recovered_osds_serve_exactly_the_acked_writes(
            seed in 0u64..100_000,
            ops in prop::collection::vec((0usize..6, any::<u8>()), 6..18),
            crash_every in 3usize..6,
        ) {
            let mut cluster = ClusterBuilder::new().osds(3).pool("data", 16, 2).build(seed);
            let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
            let mut down: Option<u32> = None;
            for (k, (idx, byte)) in ops.iter().enumerate() {
                if k % crash_every == crash_every - 1 {
                    match down.take() {
                        None => {
                            let victim = (k / crash_every) as u32 % 3;
                            cluster.crash_osd(victim);
                            down = Some(victim);
                        }
                        Some(v) => cluster.restart_osd(v),
                    }
                }
                let name = format!("obj{idx}");
                let payload = vec![*byte; 8 + idx];
                let res = cluster.rados(
                    ObjectId::new("data", name.as_str()),
                    durability::put_blob(payload.clone()),
                );
                match res {
                    Ok(_) => {
                        expected.insert(name, payload);
                    }
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "write {k} failed: {e:?} (seed {seed})"
                        )))
                    }
                }
            }
            if let Some(v) = down.take() {
                cluster.restart_osd(v);
            }
            // Wipe every in-memory store; only the journals survive.
            for i in 0..3 {
                cluster.crash_osd(i);
            }
            for i in 0..3 {
                cluster.restart_osd(i);
            }
            cluster.sim.run_for(SimDuration::from_secs(2));

            for (name, payload) in &expected {
                let res = cluster.rados(ObjectId::new("data", name.as_str()), durability::get_blob());
                match res {
                    Ok(out) => prop_assert_eq!(
                        &out[0],
                        &OpResult::Data(payload.clone()),
                        "{} lost its acked payload (seed {})", name, seed
                    ),
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "acked object {name} unreadable after recovery: {e:?} (seed {seed})"
                        )))
                    }
                }
            }
            // Nothing phantom: restarted stores hold only written objects.
            for i in 0..3 {
                let store = cluster.sim.actor::<Osd>(cluster.osd_node(i)).store();
                for oid in store.keys() {
                    prop_assert!(
                        expected.contains_key(&*oid.name),
                        "osd {} holds phantom object {:?} (seed {})", i, oid, seed
                    );
                }
            }
            prop_assert!(
                cluster.sim.metrics().counter("osd.journal_replays") >= 3,
                "final full-cluster restart should replay every journal"
            );
        }
    }
}

mod mds_failover_props {
    use super::*;
    use mala_consensus::{MonMsg, Monitor, SERVICE_MAP_MDS};
    use mala_mds::{FileType, Mds, MdsConfig, MdsMsg, NoBalancer};
    use mala_rados::{ObjectId, Osd, OsdConfig, OsdError};
    use mala_sim::{FaultSchedule, Nemesis, SimDuration};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
    use malacology::cluster::{Cluster, ClusterBuilder};

    /// A cluster whose single MDS rank journals synchronously and has one
    /// standby waiting to be promoted by the monitor's beacon reaper.
    pub(super) fn failover_cluster(seed: u64) -> Cluster {
        failover_cluster_with(seed, 16)
    }

    pub(super) fn failover_cluster_with(seed: u64, meta_pgs: u32) -> Cluster {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(4)
            .mds_ranks(1)
            .standby_mds(1)
            .pool("p", 16, 2)
            .pool("meta", meta_pgs, 2)
            .mds_config(MdsConfig {
                journal: true,
                journal_sync: true,
                ..MdsConfig::default()
            })
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        cluster
    }

    pub(super) fn add_zlog_client(
        cluster: &mut Cluster,
        name: &str,
        history: mala_sim::history::Recorder<
            mala_sim::linearize::LogOp,
            mala_sim::linearize::LogRet,
        >,
    ) -> mala_sim::NodeId {
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: name.into(),
            pool: "p".into(),
            stripe_width: 4,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        cluster
            .sim
            .add_node(node, ZlogClient::new(config).with_history(history));
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );
        node
    }

    /// Polls `op` to completion while the sim (and optionally a nemesis)
    /// advances; errors out if it hangs past a 90-virtual-second deadline.
    fn drive_op(
        cluster: &mut Cluster,
        nemesis: Option<&mut Nemesis>,
        node: mala_sim::NodeId,
        op: u64,
        what: &str,
    ) -> Result<AppendResult, TestCaseError> {
        let deadline = cluster.sim.now() + SimDuration::from_secs(90);
        let mut nemesis = nemesis;
        while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
            if cluster.sim.now() >= deadline {
                return Err(TestCaseError::fail(format!(
                    "{what} hung past its deadline"
                )));
            }
            match nemesis.as_deref_mut() {
                Some(n) => n.run_for(&mut cluster.sim, SimDuration::from_millis(200)),
                None => cluster.sim.run_for(SimDuration::from_millis(200)),
            }
        }
        Ok(cluster
            .sim
            .actor_mut::<ZlogClient>(node)
            .take_result(op)
            .expect("op is done"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// The tentpole invariant: crash the MDS rank that owns the
        /// sequencer *without telling anyone* — the monitor must notice
        /// the missed beacons, mark the rank down, and promote the
        /// standby, which replays the journal, re-runs the seal/maxpos
        /// protocol, and resumes issuing positions. Across the failover:
        /// no duplicate positions, every post-failover position lands
        /// strictly above the pre-crash tail (no regression, so nothing
        /// already written can be re-issued or skipped over), every acked
        /// payload reads back, and writes carrying the dead sequencer's
        /// epoch bounce with `-116`.
        #[test]
        fn sequencer_failover_preserves_log_invariants(seed in 0u64..100_000) {
            let mut cluster = failover_cluster(seed);
            let history = lin::recorder();
            let node = add_zlog_client(&mut cluster, "failover", history.clone());

            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for k in 0..6u32 {
                let payload = format!("pre-{seed}-{k}").into_bytes();
                let res = run_op(&mut cluster.sim, node, SimDuration::from_secs(30), {
                    let p = payload.clone();
                    move |c, ctx| c.append(ctx, p)
                });
                let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                    return Err(TestCaseError::fail(format!(
                        "pre-crash append {k} failed: {res:?} (seed {seed})"
                    )));
                };
                acked.push((pos, payload));
            }
            let pre_tail = acked.iter().map(|(p, _)| *p).max().unwrap();

            // Crash the active MDS; no map update, no harness help — only
            // missed beacons can tell the monitor.
            cluster.sim.crash(cluster.mds_node(0));

            for k in 0..8u32 {
                let payload = format!("post-{seed}-{k}").into_bytes();
                let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                    let p = payload.clone();
                    move |c, ctx| c.append(ctx, p)
                });
                match drive_op(&mut cluster, None, node, op, &format!("post-crash append {k}"))? {
                    AppendResult::Ok(ZlogOut::Pos(pos)) => {
                        prop_assert!(
                            pos > pre_tail,
                            "post-failover position {} regressed below pre-crash tail {} (seed {})",
                            pos, pre_tail, seed
                        );
                        acked.push((pos, payload));
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "post-crash append {k} failed terminally: {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            cluster.sim.run_for(SimDuration::from_secs(2));
            // The promoted daemon left nothing with the store: no request
            // routed, no flush in doubt, no completion uncollected.
            prop_assert!(
                cluster.sim.actor::<Mds>(cluster.standby_node(0)).store_idle(),
                "promoted MDS not idle towards the store after the drain (seed {})", seed
            );

            // Write-once across the failover: no two appends share a cell.
            let mut seen: Vec<u64> = acked.iter().map(|(p, _)| *p).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate positions (seed {})", seed);

            // The failover actually went through the advertised machinery.
            let m = cluster.sim.metrics();
            prop_assert!(m.counter("mon.mds_failovers") >= 1, "monitor never promoted (seed {seed})");
            prop_assert!(m.counter("mds.takeovers") >= 1, "standby never took over (seed {seed})");
            prop_assert!(m.counter("mds.journal_replays") >= 1, "journal never replayed (seed {seed})");
            prop_assert!(m.counter("mds.seq_seals") >= 1, "log never sealed (seed {seed})");

            // Every acked payload survives the failover.
            for (pos, payload) in &acked {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(30),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!(
                        "read of acked pos {pos} failed: {res:?} (seed {seed})"
                    )));
                };
                prop_assert_eq!(&data, payload, "payload mismatch at {} (seed {})", pos, seed);
            }

            // The seal fenced the old epoch: a write stamped below the new
            // sequencer's epoch bounces with ESTALE and leaves no residue.
            let stale = cluster.rados(ObjectId::new("p", "failover.0"), zlog_write(0, 9999, "evil"));
            match stale {
                Err(OsdError::Class(e)) => prop_assert_eq!(
                    e.code, -116,
                    "stale-epoch write got wrong errno (seed {})", seed
                ),
                other => {
                    return Err(TestCaseError::fail(format!(
                        "stale-epoch write not rejected after seal: {other:?} (seed {seed})"
                    )))
                }
            }

            // The whole failover trace — pre-crash appends, ambiguous
            // in-flight ops cut off by the crash, post-takeover appends,
            // and the verification reads — must linearize.
            if let Err(e) = lin::check_log(&history, seed) {
                return Err(TestCaseError::fail(e));
            }
        }

        /// Random *cluster* schedules — MDS crashes, beacon-loss link
        /// severs, OSD crashes/isolations, loss bursts — play out while a
        /// client appends. Crashed MDS nodes restart as standbys (the
        /// monitor owns rank assignment now), crashed OSDs restart with
        /// their journals. Invariants: every append completes or returns a
        /// typed error within its deadline (no hangs), positions stay
        /// unique, acked payloads survive, and after the schedule closes
        /// the log accepts appends again.
        #[test]
        fn appends_survive_random_cluster_schedules(seed in 0u64..100_000) {
            let mut cluster = failover_cluster(seed);
            let history = lin::recorder();
            let node = add_zlog_client(&mut cluster, "cluster-nemesis", history.clone());

            let targets = cluster.fault_targets();
            let schedule =
                FaultSchedule::random_cluster(seed, &targets, SimDuration::from_secs(10), 5);
            let journals = cluster.journals().clone();
            let mon = cluster.mon();
            let mut nemesis = Nemesis::new(schedule)
                .with_labels(Cluster::node_role)
                .on_restart(move |sim, n| match Cluster::node_role(n) {
                    "osd" => {
                        let osd = Osd::with_journal(
                            n.0 - 10,
                            mon,
                            OsdConfig::default(),
                            journals.journal(n),
                        );
                        sim.restart(n, osd);
                    }
                    "mds" => {
                        // The monitor may already have promoted the
                        // standby into this rank; rejoin as a standby and
                        // let the mdsmap decide who serves.
                        let config = MdsConfig {
                            journal: true,
                            journal_sync: true,
                            ..MdsConfig::default()
                        };
                        sim.restart(n, Mds::standby(mon, config, Box::new(NoBalancer)));
                    }
                    role => panic!("unexpected restart target {n} ({role})"),
                });

            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for k in 0..10u32 {
                let payload = format!("c{seed}-{k}").into_bytes();
                let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                    let p = payload.clone();
                    move |c, ctx| c.append(ctx, p)
                });
                match drive_op(&mut cluster, Some(&mut nemesis), node, op, &format!("append {k}"))? {
                    AppendResult::Ok(ZlogOut::Pos(pos)) => acked.push((pos, payload)),
                    // A typed terminal error is acceptable under faults —
                    // the invariant is "no hangs", not "no failures".
                    AppendResult::Err(_) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "append {k} returned non-append result {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            while !nemesis.finished() {
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
            }
            cluster.sim.network_mut().heal_all();
            cluster.sim.run_for(SimDuration::from_secs(3));

            let mut seen: Vec<u64> = acked.iter().map(|(p, _)| *p).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate positions (seed {})", seed);

            for (pos, payload) in &acked {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!(
                        "read of acked pos {pos} failed after heal: {res:?} (seed {seed})"
                    )));
                };
                prop_assert_eq!(&data, payload, "payload mismatch at {} (seed {})", pos, seed);
            }

            // Liveness after the storm: the healed cluster still appends.
            let res = run_op(&mut cluster.sim, node, SimDuration::from_secs(60), |c, ctx| {
                c.append(ctx, b"post-heal".to_vec())
            });
            prop_assert!(
                matches!(res, AppendResult::Ok(ZlogOut::Pos(_))),
                "healed cluster refused an append: {:?} (seed {})", res, seed
            );

            // Under random cluster schedules some appends end as info
            // (possibly applied); the checker must still find a
            // linearization that explains every read.
            if let Err(e) = lin::check_log(&history, seed) {
                return Err(TestCaseError::fail(e));
            }
        }
    }

    /// Everything one run can be told apart by: the op history with its
    /// timestamps, every counter, and the clock at the end.
    #[derive(Debug, PartialEq)]
    struct Observed {
        history: Vec<String>,
        counters: Vec<(String, u64)>,
        end_us: u64,
    }

    /// Four logs, so four sequencers for the standby to re-seal at once
    /// when the only active MDS crashes unannounced.
    fn four_sequencer_failover(seed: u64) -> Observed {
        let mut cluster = failover_cluster(seed);
        let history = lin::recorder();
        let clients: Vec<mala_sim::NodeId> = (0..4)
            .map(|i| add_zlog_client(&mut cluster, &format!("replay-{i}"), history.clone()))
            .collect();
        for (i, &node) in clients.iter().enumerate() {
            for k in 0..3 {
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(30),
                    move |c, ctx| c.append(ctx, format!("pre-{i}-{k}").into_bytes()),
                );
                assert!(
                    matches!(res, AppendResult::Ok(ZlogOut::Pos(_))),
                    "pre-crash append {i}/{k}: {res:?}"
                );
            }
        }

        cluster.sim.crash(cluster.mds_node(0));
        let ops: Vec<(mala_sim::NodeId, u64)> = clients
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let op = cluster
                    .sim
                    .with_actor::<ZlogClient, _>(node, move |c, ctx| {
                        c.append(ctx, format!("post-{i}").into_bytes())
                    });
                (node, op)
            })
            .collect();
        let deadline = cluster.sim.now() + SimDuration::from_secs(90);
        let done = cluster.sim.run_until_pred(deadline, |sim| {
            ops.iter()
                .all(|&(node, op)| sim.actor::<ZlogClient>(node).is_done(op))
        });
        assert!(done, "a post-crash append hung (seed {seed})");
        for &(node, op) in &ops {
            let res = cluster.sim.actor_mut::<ZlogClient>(node).take_result(op);
            assert!(
                matches!(res, Some(AppendResult::Ok(ZlogOut::Pos(_)))),
                "post-crash append on {node}: {res:?}"
            );
        }

        cluster.sim.run_for(SimDuration::from_secs(1));
        assert!(
            cluster
                .sim
                .actor::<Mds>(cluster.standby_node(0))
                .store_idle(),
            "promoted MDS not idle towards the store after the drain"
        );
        let metrics = cluster.sim.metrics();
        assert!(
            metrics.counter("mds.seq_seals") >= 4,
            "the takeover did not re-seal every sequencer"
        );
        Observed {
            history: history
                .operations()
                .iter()
                .map(|op| op.to_string())
                .collect(),
            counters: metrics
                .counters()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            end_us: cluster.sim.now().as_micros(),
        }
    }

    /// A daemon deposed while its journal flush could not reach the store
    /// leaves nothing behind: `depose` drops the flush in doubt with every
    /// route, and the drain drops the completion that arrives later.
    #[test]
    fn deposed_daemon_leaves_nothing_with_the_store() {
        let mut cluster = failover_cluster(11);
        let (mds0, mon) = (cluster.mds_node(0), cluster.mon());
        // Its beacons and its journal append reach no one; it lives on.
        cluster.sim.network_mut().isolate(mds0);
        let create = MdsMsg::Create {
            reqid: 1,
            parent_path: "/".into(),
            name: "orphan".into(),
            ftype: FileType::Regular,
        };
        cluster.sim.inject(mds0, create);
        cluster.sim.run_for(SimDuration::from_secs(4));
        assert_eq!(cluster.sim.metrics().counter("mds.takeovers"), 1);
        assert!(
            !cluster.sim.actor::<Mds>(mds0).store_idle(),
            "no flush in doubt"
        );
        // Healed, it learns from the next mdsmap it sees that its rank moved.
        cluster.sim.network_mut().rejoin(mds0);
        let mdsmap = cluster.sim.actor::<Monitor>(mon).map(SERVICE_MAP_MDS);
        let snapshot = MonMsg::Snapshot(mdsmap.expect("an mdsmap").clone());
        cluster.sim.inject(mds0, snapshot);
        cluster.sim.run_for(SimDuration::from_millis(1));
        let deposed = cluster.sim.actor::<Mds>(mds0);
        assert!(deposed.is_standby(), "not deposed");
        assert!(deposed.store_idle(), "depose left store state behind");
        // The embedded client still retransmits the orphaned append; its
        // completion finds no route.
        cluster.sim.run_for(SimDuration::from_secs(5));
        assert_eq!(cluster.sim.metrics().counter("mds.deposed"), 1);
        assert!(cluster.sim.actor::<Mds>(mds0).store_idle());
    }

    /// Two runs of one seed *in one process* must be the same run. Every
    /// `HashMap` gets a fresh `RandomState`, so a map whose iteration
    /// order reaches `ctx.send` / `set_timer` / the RNG shows up here as
    /// two different histories — which is how `Mds::recovering_seqs` used
    /// to re-seal the sequencers of a takeover in a different order on
    /// every run.
    #[test]
    fn failover_with_four_sequencers_replays_in_one_process() {
        for seed in [2017, 7, 39] {
            let first = four_sequencer_failover(seed);
            for _ in 0..3 {
                assert_eq!(
                    first,
                    four_sequencer_failover(seed),
                    "seed {seed} is not replayable"
                );
            }
        }
    }
}

/// A failed journal read is not an empty journal. A standby promoted
/// while the store cannot answer its journal read used to take any error
/// for "nothing journaled yet", replay an empty journal and serve an empty
/// namespace; it must instead stay un-ready until the read succeeds.
mod journal_read_regressions {
    use mala_mds::Mds;
    use mala_rados::placement::acting_set_weighted;
    use mala_rados::{pg_of, OsdMapView, WEIGHT_UNIT};
    use mala_sim::{NodeId, SimDuration};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{AppendResult, ZlogClient};
    use malacology::cluster::Cluster;

    use super::mds_failover_props::{add_zlog_client, failover_cluster, failover_cluster_with};

    /// Creates log `name` and appends to it; returns the client and the
    /// highest position granted.
    pub(super) fn log_with_appends(cluster: &mut Cluster, name: &str) -> (NodeId, u64) {
        let node = add_zlog_client(cluster, name, super::lin::recorder());
        let mut tail = 0;
        for k in 0..4 {
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(30),
                move |c, ctx| c.append(ctx, format!("pre-{k}").into_bytes()),
            );
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("pre-crash append {k} failed: {res:?}");
            };
            tail = tail.max(pos);
        }
        (node, tail)
    }

    /// The promoted standby replays, once, the journal written before the
    /// crash: it grants above the pre-crash tail and resolves the sequencer
    /// created then.
    fn assert_replays(cluster: &mut Cluster, node: NodeId, name: &str, pre_tail: u64) {
        let replays = cluster.sim.metrics().counter("mds.journal_replays");
        let res = run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(90),
            |c, ctx| c.append(ctx, b"post".to_vec()),
        );
        let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
            panic!("post-takeover append failed: {res:?}");
        };
        assert!(pos > pre_tail, "granted {pos}, pre-crash tail {pre_tail}");
        let m = cluster.sim.metrics();
        assert_eq!(m.counter("mds.takeovers"), 1);
        assert_eq!(m.counter("mds.journal_replays"), replays + 1);
        cluster.sim.run_for(SimDuration::from_secs(1));
        let mds = cluster.sim.actor::<Mds>(cluster.standby_node(0));
        assert!(
            mds.namespace().resolve(&format!("/zlog/{name}")).is_ok(),
            "the promoted rank lost the namespace"
        );
        assert!(mds.store_idle(), "promoted MDS not idle towards the store");
        assert!(cluster.sim.actor::<ZlogClient>(node).is_idle());
    }

    /// The journal object's PG is mid-backfill at takeover: its new
    /// primary, a joiner cut off from its backfill sources, answers
    /// `NotReady` until the links heal.
    #[test]
    fn takeover_waits_for_a_journal_pg_in_backfill() {
        // Four OSDs, four `meta` PGs: OSD 4 joining becomes the primary of
        // the PG that holds `mds_journal.0`.
        let (osds, meta_pgs) = (4, 4);
        let placed: Vec<(u32, u32)> = (0..=osds).map(|i| (i, WEIGHT_UNIT)).collect();
        let journal_pg = pg_of("meta", "mds_journal.0", meta_pgs);
        assert_eq!(acting_set_weighted(journal_pg, &placed, 2)[0], osds);
        let mut cluster = failover_cluster_with(2017, meta_pgs);
        let (node, pre_tail) = log_with_appends(&mut cluster, "backfill");

        let joiner = NodeId(10 + osds);
        for i in 0..osds {
            let source = cluster.osd_node(i);
            cluster.sim.network_mut().sever(joiner, source);
        }
        assert_eq!(cluster.add_osd_nowait(), osds);
        cluster.sim.run_for(SimDuration::from_millis(1_500));
        let replays = cluster.sim.metrics().counter("mds.journal_replays");
        cluster.sim.crash(cluster.mds_node(0));
        cluster.sim.run_for(SimDuration::from_secs(5));
        // Promoted, refused by the backfilling primary, and still waiting.
        let m = cluster.sim.metrics();
        assert_eq!(m.counter("mds.takeovers"), 1, "standby not promoted yet");
        assert!(m.counter("osd.backfill_rejects") > 0, "no NotReady answer");
        assert_eq!(
            m.counter("mds.journal_replays"),
            replays,
            "replayed a journal it could not read"
        );
        cluster.sim.network_mut().heal_all();
        assert_replays(&mut cluster, node, "backfill", pre_tail);
    }

    /// The standby's osdmap is one epoch behind at takeover: the journal's
    /// primary answers `StaleEpoch`, the client refreshes and asks again.
    #[test]
    fn takeover_with_a_stale_osdmap_refreshes_and_replays() {
        let mut cluster = failover_cluster(7);
        let (node, pre_tail) = log_with_appends(&mut cluster, "stale");
        // An osdmap epoch commits while the standby cannot hear the
        // monitor: it misses the change notice, and nothing repeats it.
        let (standby, mon) = (cluster.standby_node(0), cluster.mon());
        cluster.sim.network_mut().sever(standby, mon);
        let osd0 = cluster.osd_node(0);
        cluster.commit_updates(vec![OsdMapView::update_osd(0, osd0, true)]);
        cluster.sim.run_for(SimDuration::from_millis(200));
        cluster.sim.network_mut().heal(standby, mon);

        let stale_before = cluster.sim.metrics().counter("osd.stale_epoch_rejects");
        cluster.sim.crash(cluster.mds_node(0));
        assert_replays(&mut cluster, node, "stale", pre_tail);
        assert!(
            cluster.sim.metrics().counter("osd.stale_epoch_rejects") > stale_before,
            "the takeover's journal read was never refused as stale"
        );
    }
}

/// A seal reply that is no number is no answer. Class code is installed
/// live through the monitor, so what a `zlog` class answers is outside
/// input to the rank that seals: a promoted standby used to take a reply it
/// could not parse for "this stripe is empty" (maxpos −1) and resume the
/// sequencer below written positions.
mod seal_reply_regressions {
    use mala_consensus::{MapUpdate, SERVICE_MAP_INTERFACES};
    use mala_sim::SimDuration;
    use mala_zlog::ZLOG_CLASS;

    use super::journal_read_regressions::log_with_appends;
    use super::mds_failover_props::failover_cluster;

    /// A `zlog` class whose first `seal` of a stripe answers a word and
    /// whose later ones bounce, so the rank falls back to `maxpos`, which
    /// answers a number with a blank in front.
    const GARBLED: &str = r#"
        function seal(input)
            if xattr_get("garbled") == nil then
                xattr_set("garbled", "1")
                return "four"
            end
            error("ESTALE: sealed already")
        end
        function maxpos(input) return " 4" end
    "#;

    #[test]
    fn a_rank_never_resumes_on_seal_replies_that_are_no_number() {
        let mut cluster = failover_cluster(2017);
        log_with_appends(&mut cluster, "garbled");
        let garbled = MapUpdate::set(
            SERVICE_MAP_INTERFACES,
            ZLOG_CLASS,
            GARBLED.as_bytes().to_vec(),
        );
        cluster.commit_updates(vec![garbled]);
        let seals = cluster.sim.metrics().counter("mds.seq_seals");
        cluster.sim.crash(cluster.mds_node(0));
        cluster.sim.run_for(SimDuration::from_secs(20));
        let m = cluster.sim.metrics();
        assert_eq!(m.counter("mds.takeovers"), 1, "the standby never took over");
        assert!(
            m.counter("mds.seal_call_errors") > 0,
            "no seal reply was refused"
        );
        assert_eq!(
            m.counter("mds.seq_seals"),
            seals,
            "the rank resumed the sequencer on a reply that is no number"
        );
    }
}

mod cap_partition {
    use mala_mds::{Mds, MdsMsg};
    use mala_sim::history::Recorder;
    use mala_sim::linearize::check_registers;
    use mala_sim::{Actor, Context, NodeId, SimDuration};
    use malacology::cluster::ClusterBuilder;
    use std::any::Any;

    /// Minimal capability client: records grants/recalls, releases only
    /// when scripted to (so the test controls staleness).
    #[derive(Default)]
    struct CapClient {
        holding: Option<(u64, u64)>,
        grants: u32,
        recalls: u32,
    }

    impl Actor for CapClient {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
            let Ok(msg) = msg.downcast::<MdsMsg>() else {
                return;
            };
            match *msg {
                MdsMsg::CapGrant { ino, state, .. } => {
                    self.grants += 1;
                    self.holding = Some((ino, state));
                }
                MdsMsg::CapRecall { .. } => {
                    // Deliberately does not release: the holder under test
                    // is partitioned, and the contender never gets one.
                    self.recalls += 1;
                }
                _ => {}
            }
        }
    }

    /// Satellite (c): a capability holder that is *partitioned* — alive,
    /// not crashed — stops answering recalls; the MDS evicts it on the
    /// holder timeout and re-grants. When the partition heals, the stale
    /// holder's write-back is rejected and the new holder's state wins.
    #[test]
    fn partitioned_cap_holder_is_evicted_and_stale_release_rejected() {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(2)
            .mds_ranks(1)
            .pool("meta", 8, 1)
            .build(77);
        let mds = cluster.mds_node(0);
        let cap_hist = Recorder::new();
        cluster
            .sim
            .actor_mut::<Mds>(mds)
            .set_cap_history(cap_hist.clone());
        let a = cluster.alloc_node();
        let b = cluster.alloc_node();
        cluster.sim.add_node(a, CapClient::default());
        cluster.sim.add_node(b, CapClient::default());
        cluster.sim.run_for(SimDuration::from_millis(100));

        // Client A creates a sequencer and takes its capability.
        cluster.sim.with_actor::<CapClient, _>(a, move |_, ctx| {
            ctx.send(
                mds,
                MdsMsg::Create {
                    reqid: 1,
                    parent_path: "/".into(),
                    name: "seq".into(),
                    ftype: mala_mds::FileType::Sequencer,
                },
            );
        });
        cluster.sim.run_for(SimDuration::from_millis(100));
        let ino = cluster
            .sim
            .actor::<Mds>(mds)
            .namespace()
            .resolve("/seq")
            .expect("create committed");
        cluster.sim.with_actor::<CapClient, _>(a, move |_, ctx| {
            ctx.send(mds, MdsMsg::CapRequest { ino });
        });
        cluster.sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cluster.sim.actor::<CapClient>(a).grants, 1);
        assert_eq!(cluster.sim.actor::<Mds>(mds).cap_holder(ino), Some(a));

        // The nemesis cuts A off (no crash — A still believes it holds the
        // cap), and B contends for it.
        cluster.sim.network_mut().isolate(a);
        cluster.sim.with_actor::<CapClient, _>(b, move |_, ctx| {
            ctx.send(mds, MdsMsg::CapRequest { ino });
        });

        // Recall retries go unanswered; the holder timeout evicts A and the
        // cap moves to B.
        let deadline = cluster.sim.now() + SimDuration::from_secs(10);
        let moved = cluster
            .sim
            .run_until_pred(deadline, |s| s.actor::<Mds>(mds).cap_holder(ino) == Some(b));
        assert!(moved, "cap never moved to the contender after eviction");
        cluster.sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cluster.sim.actor::<CapClient>(b).grants, 1);
        assert_eq!(
            cluster.sim.actor::<CapClient>(a).recalls,
            0,
            "partitioned holder must not have seen the recall"
        );

        // Heal. The stale holder flushes its (now-invalid) local state.
        cluster.sim.network_mut().rejoin(a);
        cluster.sim.with_actor::<CapClient, _>(a, move |c, ctx| {
            let (held, _) = c.holding.take().expect("A still thinks it holds");
            ctx.send(
                mds,
                MdsMsg::CapRelease {
                    ino: held,
                    state: 999,
                },
            );
        });
        cluster.sim.run_for(SimDuration::from_millis(100));

        // Rejected: the metric fired, B still holds, and the embedded
        // state was not clobbered by the evicted holder.
        assert!(
            cluster.sim.metrics().counter("mds.stale_releases") >= 1,
            "stale release was not detected"
        );
        assert_eq!(cluster.sim.actor::<Mds>(mds).cap_holder(ino), Some(b));
        assert_ne!(
            cluster
                .sim
                .actor::<Mds>(mds)
                .namespace()
                .get(ino)
                .unwrap()
                .embedded,
            999,
            "evicted holder's write-back leaked into the inode"
        );

        // The cap trace — both grants reading the embedded state plus the
        // rejected stale write-back — linearizes under the register
        // model, and the rejected write is recorded (as a failed op the
        // checker excludes), not silently dropped.
        let ops = cap_hist.operations();
        assert!(
            ops.iter().any(|op| matches!(
                &op.outcome,
                mala_sim::history::Outcome::Fail { reason, .. } if reason.contains("stale")
            )),
            "stale release missing from the cap history"
        );
        match check_registers(&ops) {
            Ok(stats) => assert!(stats.ops >= 2, "cap history too thin: {stats:?}"),
            Err(cex) => panic!("cap history not linearizable:\n{cex}"),
        }
    }
}

mod smoke {
    use mala_mds::{Mds, MdsConfig};
    use mala_rados::{Osd, OsdConfig};
    use mala_sim::{Fault, FaultSchedule, Nemesis, SimDuration, SimTime};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
    use malacology::cluster::{Cluster, ClusterBuilder};

    /// Fixed-seed CI smoke: one MDS crash (standby takes over via the
    /// beacon path) and one OSD crash/restart (journal replay), with
    /// appends flowing throughout. Fast, deterministic, and exercises the
    /// whole failover stack end to end; `ci.sh` runs exactly this test.
    #[test]
    fn smoke_fixed_seed_failover() {
        let seed = 2017; // EuroSys '17 — fixed forever for reproducibility.
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .standby_mds(1)
            .pool("p", 16, 2)
            .pool("meta", 16, 2)
            .mds_config(MdsConfig {
                journal: true,
                journal_sync: true,
                ..MdsConfig::default()
            })
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: "smoke".into(),
            pool: "p".into(),
            stripe_width: 3,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        let history = super::lin::recorder();
        cluster
            .sim
            .add_node(node, ZlogClient::new(config).with_history(history.clone()));
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let t0 = cluster.sim.now();
        let schedule = FaultSchedule::new()
            .at(SimTime(t0.0 + 1_000_000), Fault::Crash(cluster.mds_node(0)))
            .at(SimTime(t0.0 + 2_000_000), Fault::Crash(cluster.osd_node(0)))
            .at(
                SimTime(t0.0 + 4_000_000),
                Fault::Restart(cluster.osd_node(0)),
            );
        let journals = cluster.journals().clone();
        let mon = cluster.mon();
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_restart(move |sim, n| {
                let osd =
                    Osd::with_journal(n.0 - 10, mon, OsdConfig::default(), journals.journal(n));
                sim.restart(n, osd);
            });

        let mut positions = Vec::new();
        for k in 0..8u32 {
            let op = cluster
                .sim
                .with_actor::<ZlogClient, _>(node, move |c, ctx| {
                    c.append(ctx, format!("smoke-{k}").into_bytes())
                });
            let deadline = cluster.sim.now() + SimDuration::from_secs(90);
            while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
                assert!(cluster.sim.now() < deadline, "append {k} hung");
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
            }
            let res = cluster
                .sim
                .actor_mut::<ZlogClient>(node)
                .take_result(op)
                .unwrap();
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("append {k} failed: {res:?}");
            };
            positions.push(pos);
        }
        while !nemesis.finished() {
            nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
        }
        cluster.sim.run_for(SimDuration::from_secs(1));
        assert!(
            cluster
                .sim
                .actor::<Mds>(cluster.standby_node(0))
                .store_idle(),
            "promoted MDS not idle towards the store after the drain"
        );

        let mut unique = positions.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), positions.len(), "duplicate positions");
        let m = cluster.sim.metrics();
        assert!(m.counter("mds.takeovers") >= 1, "standby never took over");
        assert!(m.counter("mds.seq_seals") >= 1, "log never sealed");
        assert!(m.counter("osd.journal_replays") >= 1, "OSD never replayed");
        assert!(
            m.counter("nemesis.crash.mds") >= 1 && m.counter("nemesis.crash.osd") >= 1,
            "per-role fault metrics missing"
        );
        if let Err(e) = super::lin::check_log(&history, seed) {
            panic!("{e}");
        }
    }
}

mod elastic_membership {
    use super::*;
    use mala_consensus::MonMsg;
    use mala_rados::{ObjectId, Osd, OsdConfig, OsdMapView, WEIGHT_UNIT};
    use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, Sim, SimDuration, SimTime};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
    use malacology::cluster::{Cluster, ClusterBuilder};
    use malacology::interfaces::durability;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Builds the [`mala_sim::Nemesis::on_membership`] callback: a join
    /// spawns the OSD's actor (joiners are always brand-new nodes in
    /// these schedules) and commits it into the osdmap at full weight; a
    /// drain commits weight 0 (the daemon stays up as a backfill source).
    fn membership_callback(cluster: &Cluster) -> impl FnMut(&mut Sim, NodeId, bool) + 'static {
        let journals = cluster.journals().clone();
        let mon = cluster.mon();
        // Monitor submissions need distinct seqs; the harness's own
        // commit_updates seqs start at 2, so start far above them.
        let seq = Rc::new(Cell::new(50_000u64));
        move |sim, node, joining| {
            let id = node.0 - 10;
            let update = if joining {
                sim.add_node(
                    node,
                    Osd::with_journal(id, mon, OsdConfig::default(), journals.journal(node)),
                );
                OsdMapView::update_osd_weighted(id, node, true, WEIGHT_UNIT)
            } else {
                OsdMapView::update_osd_weighted(id, node, true, 0)
            };
            seq.set(seq.get() + 1);
            sim.inject(
                mon,
                MonMsg::Submit {
                    seq: seq.get(),
                    updates: vec![update],
                },
            );
        }
    }

    /// Fixed-seed CI smoke for the tentpole: a brand-new OSD joins and an
    /// original OSD drains *mid-workload* via nemesis membership faults.
    /// Appends keep flowing while remapped PGs backfill under the epoch
    /// guard; positions stay unique, every acked payload reads back, the
    /// drained OSD ends up in no acting set, and the whole trace passes
    /// the WGL linearizability check. `ci.sh` runs exactly this test.
    #[test]
    fn smoke_fixed_seed_elastic() {
        let seed = 2017;
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .pool("p", 16, 2)
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: "elastic-smoke".into(),
            pool: "p".into(),
            stripe_width: 3,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        let history = super::lin::recorder();
        cluster
            .sim
            .add_node(node, ZlogClient::new(config).with_history(history.clone()));
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let t0 = cluster.sim.now();
        let joiner = NodeId(13); // first free OSD slot above the built 3
        let schedule = FaultSchedule::new()
            .at(SimTime(t0.0 + 1_000_000), Fault::OsdJoin(joiner))
            .at(
                SimTime(t0.0 + 3_000_000),
                Fault::OsdDrain(cluster.osd_node(0)),
            );
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_membership(membership_callback(&cluster));

        let mut positions = Vec::new();
        for k in 0..10u32 {
            let payload = format!("elastic-{k}").into_bytes();
            let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                let p = payload.clone();
                move |c, ctx| c.append(ctx, p)
            });
            let deadline = cluster.sim.now() + SimDuration::from_secs(90);
            while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
                assert!(cluster.sim.now() < deadline, "append {k} hung mid-remap");
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
            }
            let res = cluster
                .sim
                .actor_mut::<ZlogClient>(node)
                .take_result(op)
                .unwrap();
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("append {k} failed across the remap: {res:?}");
            };
            positions.push((pos, payload));
        }
        while !nemesis.finished() {
            nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
        }
        cluster.sim.run_for(SimDuration::from_secs(3));

        let mut unique: Vec<u64> = positions.iter().map(|(p, _)| *p).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), positions.len(), "duplicate positions");

        let m = cluster.sim.metrics();
        assert_eq!(m.counter("nemesis.osd_join"), 1, "join fault missing");
        assert_eq!(m.counter("nemesis.osd_drain"), 1, "drain fault missing");
        assert!(
            m.counter("osd.backfills_started") > 0,
            "remaps started no backfills"
        );
        assert!(
            m.counter("osd.backfills_completed") > 0,
            "no backfill ever completed"
        );

        // The drained OSD (id 0) won no placements under the final map.
        let map = cluster.sim.actor::<Osd>(NodeId(11)).osdmap().clone();
        for pg in 0..16 {
            let set = map.acting_set_for_pg("p", pg).unwrap();
            assert!(!set.contains(&0), "pg {pg} still on drained osd 0: {set:?}");
        }

        for (pos, payload) in positions {
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(30),
                move |c, ctx| c.read(ctx, pos),
            );
            assert_eq!(
                res,
                AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(payload))),
                "read-back of pos {pos} after join+drain"
            );
        }
        if let Err(e) = super::lin::check_log(&history, seed) {
            panic!("{e}");
        }
    }

    /// Fixed-seed read-path smoke (satellite): a pipelined tailing reader
    /// follows a writer *through* an `OsdDrain` remap, and the log is
    /// checkpointed and trimmed mid-stream. The cursor's vectored reads
    /// land in the same op history as the writer's appends and the trim,
    /// and the whole trace — reads bounced across the remap, the trimmed
    /// prefix, junk cells — must stay linearizable. `ci.sh` runs exactly
    /// this test.
    #[test]
    fn smoke_tailing_reader_through_drain_and_trim() {
        let seed = 2017;
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .pool("p", 16, 2)
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let config = |cluster: &Cluster| ZlogConfig {
            name: "tail-smoke".into(),
            pool: "p".into(),
            stripe_width: 3,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        let history = super::lin::recorder();
        let writer = cluster.alloc_node();
        let wcfg = config(&cluster);
        cluster
            .sim
            .add_node(writer, ZlogClient::new(wcfg).with_history(history.clone()));
        let reader = cluster.alloc_node();
        let rcfg = config(&cluster);
        cluster
            .sim
            .add_node(reader, ZlogClient::new(rcfg).with_history(history.clone()));
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            writer,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let t0 = cluster.sim.now();
        let joiner = NodeId(13);
        let schedule = FaultSchedule::new()
            .at(SimTime(t0.0 + 1_000_000), Fault::OsdJoin(joiner))
            .at(
                SimTime(t0.0 + 3_000_000),
                Fault::OsdDrain(cluster.osd_node(0)),
            );
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_membership(membership_callback(&cluster));

        // Drives one client op to completion while the nemesis keeps
        // injecting the membership schedule underneath it.
        fn drive(
            cluster: &mut Cluster,
            nemesis: &mut Nemesis,
            node: NodeId,
            what: &str,
            f: impl FnOnce(&mut ZlogClient, &mut mala_sim::Context<'_>) -> u64,
        ) -> AppendResult {
            let op = cluster.sim.with_actor::<ZlogClient, _>(node, f);
            let deadline = cluster.sim.now() + SimDuration::from_secs(90);
            while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
                assert!(cluster.sim.now() < deadline, "{what} hung mid-remap");
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
            }
            cluster
                .sim
                .actor_mut::<ZlogClient>(node)
                .take_result(op)
                .unwrap()
        }

        let mut delivered: Vec<u64> = Vec::new();
        let cursor = cluster
            .sim
            .with_actor::<ZlogClient, _>(reader, |c, ctx| c.tail_cursor(ctx));
        for k in 0..10u32 {
            let payload = format!("tail-{k}").into_bytes();
            let res = drive(&mut cluster, &mut nemesis, writer, "append", {
                let p = payload;
                move |c, ctx| c.append(ctx, p)
            });
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("append {k} failed across the remap: {res:?}");
            };
            assert_eq!(pos, u64::from(k), "positions must stay dense");
            // Checkpoint + trim the prefix mid-stream, while the reader
            // is still behind it.
            if k == 4 {
                let res = drive(
                    &mut cluster,
                    &mut nemesis,
                    writer,
                    "checkpoint",
                    |c, ctx| c.checkpoint(ctx, 3, b"state-through-2".to_vec()),
                );
                assert!(
                    matches!(res, AppendResult::Ok(ZlogOut::CheckpointAt(3))),
                    "{res:?}"
                );
                let res = drive(&mut cluster, &mut nemesis, writer, "trim_to", |c, ctx| {
                    c.trim_to(ctx, 3)
                });
                assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
            }
            // Tail along: pull whatever the cursor has ready.
            let res = drive(&mut cluster, &mut nemesis, reader, "cursor batch", {
                move |c, ctx| c.cursor_next_batch(ctx, cursor, 8)
            });
            let AppendResult::Ok(ZlogOut::CursorBatch(batch)) = res else {
                panic!("cursor batch failed across the remap: {res:?}");
            };
            delivered.extend(batch.iter().map(|(p, _)| *p));
        }
        while !nemesis.finished() {
            nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
        }
        cluster.sim.run_for(SimDuration::from_secs(3));
        // Catch up the straggler tail after the schedule closes.
        loop {
            let res = drive(&mut cluster, &mut nemesis, reader, "cursor drain", {
                move |c, ctx| c.cursor_next_batch(ctx, cursor, 8)
            });
            let AppendResult::Ok(ZlogOut::CursorBatch(batch)) = res else {
                panic!("cursor drain failed: {res:?}");
            };
            if batch.is_empty() {
                break;
            }
            delivered.extend(batch.iter().map(|(p, _)| *p));
        }

        assert_eq!(
            delivered,
            (0..10u64).collect::<Vec<_>>(),
            "the tailing reader must deliver every position once, in order"
        );
        let m = cluster.sim.metrics();
        assert_eq!(m.counter("nemesis.osd_join"), 1, "join fault missing");
        assert_eq!(m.counter("nemesis.osd_drain"), 1, "drain fault missing");
        assert!(
            m.counter("rados.read_batch_ops") > 0,
            "the cursor never used the vectored read path"
        );
        if let Err(e) = super::lin::check_log(&history, seed) {
            panic!("{e}");
        }
    }

    /// Fixed-seed backfill-under-partition smoke (satellite): a joiner is
    /// partitioned from part of the cluster *while* it backfills. The
    /// backfill machinery must rotate to reachable sources (or retry
    /// until the heal) and converge without losing a byte.
    #[test]
    fn smoke_backfill_under_partition() {
        let seed = 2017;
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .pool("data", 16, 2)
            .build(seed);
        let mut expected = Vec::new();
        for k in 0..16u32 {
            let payload = format!("part-{k}").repeat(4).into_bytes();
            let name = format!("obj{k}");
            cluster
                .rados(
                    ObjectId::new("data", name.as_str()),
                    durability::put_blob(payload.clone()),
                )
                .unwrap();
            expected.push((name, payload));
        }

        let t0 = cluster.sim.now();
        let joiner = NodeId(13);
        // The partition opens before the join and cuts the joiner off
        // from one of its backfill sources for two full seconds.
        let schedule = FaultSchedule::new()
            .at(
                SimTime(t0.0 + 500_000),
                Fault::Partition(vec![joiner], vec![cluster.osd_node(0)]),
            )
            .at(SimTime(t0.0 + 1_000_000), Fault::OsdJoin(joiner))
            .at(
                SimTime(t0.0 + 3_000_000),
                Fault::HealPartition(vec![joiner], vec![cluster.osd_node(0)]),
            );
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_membership(membership_callback(&cluster));
        while !nemesis.finished() {
            nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
        }
        // Give retries/rotations time to converge after the heal.
        let deadline = cluster.sim.now() + SimDuration::from_secs(20);
        let settled = cluster.sim.run_until_pred(deadline, |s| {
            let m = s.metrics();
            let ended = m.counter("osd.backfills_completed") + m.counter("osd.backfill_dropped");
            m.counter("osd.backfills_started") > 0 && m.counter("osd.backfills_started") == ended
        });
        assert!(settled, "backfills never settled after the heal");

        let m = cluster.sim.metrics();
        assert!(
            m.counter("osd.backfills_completed") > 0,
            "partitioned joiner completed no backfills"
        );
        // The joiner ended up owning data it pulled across the remap.
        assert!(
            !cluster.sim.actor::<Osd>(joiner).store().is_empty(),
            "joiner holds nothing after backfill"
        );
        for (name, payload) in expected {
            let out = cluster
                .rados(ObjectId::new("data", name.as_str()), durability::get_blob())
                .unwrap();
            assert_eq!(
                out[0],
                mala_rados::OpResult::Data(payload),
                "{name} lost across backfill-under-partition"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Mid-workload remap proptest (acceptance): random seeds place a
        /// join and a drain inside a live append workload, with the drain
        /// target drawn from the original fleet. Appends must complete
        /// (no hangs), positions stay unique, acked payloads survive the
        /// double remap, and the captured history — including every op
        /// bounced with a stale epoch or `NotReady` during backfill —
        /// passes the WGL linearizability check.
        #[test]
        fn appends_linearize_across_mid_workload_remaps(seed in 0u64..100_000) {
            let mut cluster = ClusterBuilder::new()
                .monitors(1)
                .osds(4)
                .mds_ranks(1)
                .pool("p", 16, 2)
                .build(seed);
            cluster.commit_updates(vec![zlog_interface_update()]);
            let node = cluster.alloc_node();
            let config = ZlogConfig {
                name: "elastic-prop".into(),
                pool: "p".into(),
                stripe_width: 4,
                mds_nodes: cluster.mds_nodes(),
                home_rank: 0,
                monitor: cluster.mon(),
            };
            let history = super::lin::recorder();
            cluster
                .sim
                .add_node(node, ZlogClient::new(config).with_history(history.clone()));
            cluster.sim.run_for(SimDuration::from_secs(1));
            run_op(&mut cluster.sim, node, SimDuration::from_secs(10), |c, ctx| c.setup(ctx));

            let t0 = cluster.sim.now();
            let joiner = NodeId(14); // first free slot above the built 4
            let drain_target = cluster.osd_node((seed % 4) as u32);
            let join_us = 500_000 + (seed % 7) * 300_000;
            let drain_us = join_us + 500_000 + (seed % 5) * 400_000;
            let schedule = FaultSchedule::new()
                .at(SimTime(t0.0 + join_us), Fault::OsdJoin(joiner))
                .at(SimTime(t0.0 + drain_us), Fault::OsdDrain(drain_target));
            let mut nemesis = Nemesis::new(schedule)
                .with_labels(Cluster::node_role)
                .on_membership(membership_callback(&cluster));

            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for k in 0..10u32 {
                let payload = format!("e{seed}-{k}").into_bytes();
                let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                    let p = payload.clone();
                    move |c, ctx| c.append(ctx, p)
                });
                let deadline = cluster.sim.now() + SimDuration::from_secs(90);
                while !cluster.sim.actor::<ZlogClient>(node).is_done(op) {
                    if cluster.sim.now() >= deadline {
                        return Err(TestCaseError::fail(format!(
                            "append {k} hung across the remap (seed {seed})"
                        )));
                    }
                    nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
                }
                match cluster
                    .sim
                    .actor_mut::<ZlogClient>(node)
                    .take_result(op)
                    .expect("op is done")
                {
                    AppendResult::Ok(ZlogOut::Pos(pos)) => acked.push((pos, payload)),
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "append {k} failed across a remap: {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            while !nemesis.finished() {
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
            }
            cluster.sim.run_for(SimDuration::from_secs(3));

            // Both remaps really happened and drove backfill.
            let m = cluster.sim.metrics();
            prop_assert_eq!(m.counter("nemesis.osd_join"), 1);
            prop_assert_eq!(m.counter("nemesis.osd_drain"), 1);
            prop_assert!(
                m.counter("osd.backfills_started") > 0,
                "remaps started no backfills (seed {})", seed
            );

            let mut seen: Vec<u64> = acked.iter().map(|(p, _)| *p).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate positions (seed {})", seed);

            for (pos, payload) in &acked {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!(
                        "read of acked pos {pos} failed after remaps: {res:?} (seed {seed})"
                    )));
                };
                prop_assert_eq!(&data, payload, "payload mismatch at {} (seed {})", pos, seed);
            }

            if let Err(e) = super::lin::check_log(&history, seed) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}

mod retry_integration {
    use mala_sim::{NetConfig, SimDuration};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
    use malacology::cluster::ClusterBuilder;

    /// Acceptance check: with 5% of all messages silently dropped, zlog
    /// append and read still complete via retransmit/backoff, and the
    /// retries show up in the sim metrics.
    #[test]
    fn zlog_completes_under_five_percent_message_drop() {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .pool("p", 16, 2)
            .net_config(NetConfig {
                drop_probability: 0.05,
                ..NetConfig::default()
            })
            .build(42);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: "lossy".into(),
            pool: "p".into(),
            stripe_width: 3,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        let history = super::lin::recorder();
        cluster
            .sim
            .add_node(node, ZlogClient::new(config).with_history(history.clone()));
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let mut entries = Vec::new();
        for k in 0..12u32 {
            let payload = format!("lossy-{k}").into_bytes();
            let res = run_op(&mut cluster.sim, node, SimDuration::from_secs(60), {
                let p = payload.clone();
                move |c, ctx| c.append(ctx, p)
            });
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("append {k} failed under 5% drop: {res:?}");
            };
            entries.push((pos, payload));
        }
        for (pos, payload) in entries {
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(60),
                move |c, ctx| c.read(ctx, pos),
            );
            assert_eq!(
                res,
                AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(payload))),
                "read of pos {pos} wrong under 5% drop"
            );
        }
        let metrics = cluster.sim.metrics();
        let retries = metrics.counter("client.retries") + metrics.counter("zlog.retries");
        assert!(
            retries > 0,
            "5% drop over dozens of round trips must surface retries in metrics"
        );
        // Retransmits and dedup must be invisible in the history: the
        // lossy trace still linearizes.
        if let Err(e) = super::lin::check_log(&history, 42) {
            panic!("{e}");
        }
    }
}

mod batched_props {
    use super::*;
    use mala_mds::{Mds, MdsConfig, NoBalancer};
    use mala_rados::{Osd, OsdConfig};
    use mala_sim::{FaultSchedule, Nemesis, SimDuration};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{
        zlog_interface_update, AppendResult, BatchConfig, ReadOutcome, ZlogClient, ZlogConfig,
    };
    use malacology::cluster::{Cluster, ClusterBuilder};

    /// Failover-capable cluster (journaled MDS rank + standby) for the
    /// pipelined-append fault schedules.
    fn batched_cluster(seed: u64) -> Cluster {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(4)
            .mds_ranks(1)
            .standby_mds(1)
            .pool("p", 16, 2)
            .pool("meta", 16, 2)
            .mds_config(MdsConfig {
                journal: true,
                journal_sync: true,
                ..MdsConfig::default()
            })
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        cluster
    }

    fn add_batched_client(
        cluster: &mut Cluster,
        name: &str,
        depth: usize,
        history: mala_sim::history::Recorder<
            mala_sim::linearize::LogOp,
            mala_sim::linearize::LogRet,
        >,
    ) -> mala_sim::NodeId {
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: name.into(),
            pool: "p".into(),
            stripe_width: 4,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        cluster.sim.add_node(
            node,
            ZlogClient::with_batching(
                config,
                BatchConfig {
                    queue_depth: depth,
                    flush_window: SimDuration::from_millis(1),
                },
            )
            .with_history(history),
        );
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );
        node
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Pipelined appends under random *cluster* schedules (MDS
        /// crashes + beacon loss, OSD crashes/isolations, loss bursts,
        /// delay spikes). A batch whose bulk grant dies mid-flight must
        /// requeue its unwritten members under a fresh grant and
        /// junk-fill the abandoned positions — so the CORFU invariants
        /// survive: every completed append holds a unique position, the
        /// tail never regresses below an acked position, acked payloads
        /// read back verbatim, and after recovery a scan of `[0, tail)`
        /// finds no permanently unreadable cell (everything is Data,
        /// Filled, or Trimmed once readers fill the leftovers).
        #[test]
        fn batched_appends_keep_corfu_invariants_under_faults(seed in 0u64..100_000) {
            let mut cluster = batched_cluster(seed);
            let history = lin::recorder();
            let node = add_batched_client(&mut cluster, "batched-nemesis", 4, history.clone());

            let targets = cluster.fault_targets();
            let schedule =
                FaultSchedule::random_cluster(seed, &targets, SimDuration::from_secs(10), 5);
            let journals = cluster.journals().clone();
            let mon = cluster.mon();
            let mut nemesis = Nemesis::new(schedule)
                .with_labels(Cluster::node_role)
                .on_restart(move |sim, n| match Cluster::node_role(n) {
                    "osd" => {
                        let osd = Osd::with_journal(
                            n.0 - 10,
                            mon,
                            OsdConfig::default(),
                            journals.journal(n),
                        );
                        sim.restart(n, osd);
                    }
                    "mds" => {
                        let config = MdsConfig {
                            journal: true,
                            journal_sync: true,
                            ..MdsConfig::default()
                        };
                        sim.restart(n, Mds::standby(mon, config, Box::new(NoBalancer)));
                    }
                    role => panic!("unexpected restart target {n} ({role})"),
                });

            // Enqueue twelve pipelined appends up front (three full
            // queues at depth 4) and drive them all through the storm.
            let mut ops: Vec<(u64, Vec<u8>)> = Vec::new();
            for k in 0..12u32 {
                let payload = format!("b{seed}-{k}").into_bytes();
                let op = cluster.sim.with_actor::<ZlogClient, _>(node, {
                    let p = payload.clone();
                    move |c, ctx| c.append_async(ctx, p)
                });
                ops.push((op, payload));
            }
            cluster
                .sim
                .with_actor::<ZlogClient, _>(node, |c, ctx| c.flush(ctx));
            let deadline = cluster.sim.now() + SimDuration::from_secs(120);
            loop {
                let all_done = {
                    let c = cluster.sim.actor::<ZlogClient>(node);
                    ops.iter().all(|(op, _)| c.is_done(*op))
                };
                if all_done {
                    break;
                }
                if cluster.sim.now() >= deadline {
                    return Err(TestCaseError::fail(format!(
                        "pipelined appends hung past the deadline (seed {seed})"
                    )));
                }
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
            }
            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for (op, payload) in ops {
                let res = cluster
                    .sim
                    .actor_mut::<ZlogClient>(node)
                    .take_result(op)
                    .expect("op is done");
                match res {
                    AppendResult::Ok(ZlogOut::Pos(pos)) => acked.push((pos, payload)),
                    // Typed failure under faults is allowed (no-hang is
                    // the liveness bar); its grant holes must be filled.
                    AppendResult::Err(_) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "append returned non-append result {other:?} (seed {seed})"
                        )))
                    }
                }
            }
            while !nemesis.finished() {
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
            }
            cluster.sim.network_mut().heal_all();
            cluster.sim.run_for(SimDuration::from_secs(3));

            // Write-once: no two completed appends share a cell.
            let mut seen: Vec<u64> = acked.iter().map(|(p, _)| *p).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(before, seen.len(), "duplicate positions (seed {})", seed);

            // Durability: every acked payload reads back post-heal.
            for (pos, payload) in &acked {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!(
                        "read of acked pos {pos} failed after heal: {res:?} (seed {seed})"
                    )));
                };
                prop_assert_eq!(&data, payload, "payload mismatch at {} (seed {})", pos, seed);
            }

            // Tail integrity: the sequencer tail sits strictly above
            // every acked position (nothing acked can be re-issued).
            let res = run_op(&mut cluster.sim, node, SimDuration::from_secs(60), |c, ctx| {
                c.check_tail(ctx)
            });
            let AppendResult::Ok(ZlogOut::Tail(tail)) = res else {
                return Err(TestCaseError::fail(format!(
                    "check_tail failed after heal: {res:?} (seed {seed})"
                )));
            };
            if let Some(max_acked) = acked.iter().map(|(p, _)| *p).max() {
                prop_assert!(
                    tail > max_acked,
                    "tail {} regressed to or below acked position {} (seed {})",
                    tail, max_acked, seed
                );
            }

            // No permanently unreadable holes: scan the whole log; any
            // cell still NotWritten (an abandoned grant the client did
            // not get to fill) must be fillable by a reader, after which
            // every cell is Data, Filled, or Trimmed.
            for pos in 0..tail {
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(outcome)) = res else {
                    return Err(TestCaseError::fail(format!(
                        "scan read of pos {pos} failed: {res:?} (seed {seed})"
                    )));
                };
                if outcome != ReadOutcome::NotWritten {
                    continue;
                }
                // Reader-side CORFU fill; EEXIST-style races are fine,
                // the re-read is the arbiter.
                let _ = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.fill(ctx, pos),
                );
                let res = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(60),
                    move |c, ctx| c.read(ctx, pos),
                );
                match res {
                    AppendResult::Ok(ZlogOut::Read(ReadOutcome::NotWritten)) => {
                        return Err(TestCaseError::fail(format!(
                            "pos {pos} is a permanent hole after fill (seed {seed})"
                        )))
                    }
                    AppendResult::Ok(ZlogOut::Read(_)) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "re-read of filled pos {pos} failed: {other:?} (seed {seed})"
                        )))
                    }
                }
            }

            // The pipelined history — bulk grants, coalesced writes,
            // requeues, reader-side fills, the tail probe, and the full
            // scan — must linearize as one shared-log trace.
            if let Err(e) = lin::check_log(&history, seed) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}

mod batched_smoke {
    use mala_rados::{ObjectId, Osd, OsdConfig};
    use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, Sim, SimDuration, SimTime};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{
        zlog_interface_update, AppendResult, BatchConfig, ReadOutcome, ZlogClient, ZlogConfig,
    };
    use malacology::cluster::{Cluster, ClusterBuilder};

    /// Runs `nemesis` for `dur`, checking the reply routes of the client
    /// at `node` (`ZlogClient::check_routes`) after every event. The sim
    /// stops at each of the schedule's fault times in `stamps` for the
    /// nemesis to apply it, as `Nemesis::run_for` would: the run is the
    /// same event for event.
    fn run_checked(
        nemesis: &mut Nemesis,
        sim: &mut Sim,
        node: NodeId,
        stamps: &[SimTime],
        dur: SimDuration,
    ) {
        let until = sim.now() + dur;
        let check = |s: &Sim| {
            if let Err(e) = s.actor::<ZlogClient>(node).check_routes() {
                panic!("routes broken at {}: {e}", s.now());
            }
            false
        };
        for &at in stamps {
            if sim.now() < at && at <= until {
                sim.run_until_pred(at, check);
                nemesis.run_until(sim, at);
            }
        }
        sim.run_until_pred(until, check);
        nemesis.run_until(sim, until);
    }

    /// Fixed-seed CI smoke for the pipelined path: sixteen appends at a
    /// small queue depth ride through one OSD crash/restart (journal
    /// replay on the way back), the client's routes checked after every
    /// event. Deterministic; `ci.sh` runs exactly this.
    #[test]
    fn smoke_fixed_seed_batched_append() {
        let seed = 2017;
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .pool("p", 16, 2)
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let node = cluster.alloc_node();
        let config = ZlogConfig {
            name: "batched-smoke".into(),
            pool: "p".into(),
            stripe_width: 3,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        };
        let history = super::lin::recorder();
        cluster.sim.add_node(
            node,
            ZlogClient::with_batching(
                config,
                BatchConfig {
                    queue_depth: 4,
                    flush_window: SimDuration::from_millis(1),
                },
            )
            .with_history(history.clone()),
        );
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let t0 = cluster.sim.now();
        let stamps = [SimTime(t0.0 + 500_000), SimTime(t0.0 + 3_000_000)];
        let schedule = FaultSchedule::new()
            .at(stamps[0], Fault::Crash(cluster.osd_node(0)))
            .at(stamps[1], Fault::Restart(cluster.osd_node(0)));
        let journals = cluster.journals().clone();
        let mon = cluster.mon();
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_restart(move |sim, n| {
                let osd =
                    Osd::with_journal(n.0 - 10, mon, OsdConfig::default(), journals.journal(n));
                sim.restart(n, osd);
            });

        let mut ops = Vec::new();
        for k in 0..16u32 {
            let op = cluster
                .sim
                .with_actor::<ZlogClient, _>(node, move |c, ctx| {
                    c.append_async(ctx, format!("bsmoke-{k}").into_bytes())
                });
            ops.push((op, format!("bsmoke-{k}").into_bytes()));
        }
        let deadline = cluster.sim.now() + SimDuration::from_secs(90);
        loop {
            let all_done = {
                let c = cluster.sim.actor::<ZlogClient>(node);
                ops.iter().all(|(op, _)| c.is_done(*op))
            };
            if all_done {
                break;
            }
            assert!(cluster.sim.now() < deadline, "batched appends hung");
            let step = SimDuration::from_millis(200);
            run_checked(&mut nemesis, &mut cluster.sim, node, &stamps, step);
        }
        let mut positions = Vec::new();
        for (op, payload) in ops {
            let res = cluster
                .sim
                .actor_mut::<ZlogClient>(node)
                .take_result(op)
                .unwrap();
            let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                panic!("batched append failed: {res:?}");
            };
            positions.push((pos, payload));
        }
        while !nemesis.finished() {
            let step = SimDuration::from_millis(500);
            run_checked(&mut nemesis, &mut cluster.sim, node, &stamps, step);
        }
        let settle = SimDuration::from_secs(2);
        run_checked(&mut nemesis, &mut cluster.sim, node, &stamps, settle);

        let mut unique: Vec<u64> = positions.iter().map(|(p, _)| *p).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), positions.len(), "duplicate positions");
        for (pos, payload) in positions {
            let res = run_op(
                &mut cluster.sim,
                node,
                SimDuration::from_secs(30),
                move |c, ctx| c.read(ctx, pos),
            );
            assert_eq!(
                res,
                AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(payload))),
                "read-back of pos {pos}"
            );
        }
        // Crash, re-drives and probes included, no batch, route or parked
        // entry outlives the work.
        assert!(
            cluster.sim.actor::<ZlogClient>(node).is_idle(),
            "client tables not empty after the drain"
        );
        let m = cluster.sim.metrics();
        assert!(
            m.counter("zlog.pos_grants") < 16,
            "grants not amortized: {}",
            m.counter("zlog.pos_grants")
        );
        assert!(m.counter("osd.journal_replays") >= 1, "OSD never replayed");
        assert!(m.counter("nemesis.crash.osd") >= 1, "fault metrics missing");
        if let Err(e) = super::lin::check_log(&history, seed) {
            panic!("{e}");
        }
        assert_replicas_equal(&cluster, 3, "p");
    }

    /// At quiesce every up acting-set member of every `pool` object holds
    /// the object its primary holds: replicas take the primary's effects,
    /// so crash, journal replay and re-driven replication leave no copy
    /// behind or ahead.
    fn assert_replicas_equal(cluster: &Cluster, osds: u32, pool: &str) {
        let store = |i: u32| cluster.sim.actor::<Osd>(cluster.osd_node(i)).store();
        let mut oids: Vec<&ObjectId> = (0..osds)
            .flat_map(|i| store(i).keys().filter(|oid| *oid.pool == *pool))
            .collect();
        oids.sort();
        oids.dedup();
        assert!(!oids.is_empty(), "no object in pool {pool}");
        let map = cluster.sim.actor::<Osd>(cluster.osd_node(0)).osdmap();
        for oid in oids {
            let acting = map.acting_set_for(&oid.pool, &oid.name).unwrap();
            assert_eq!(acting.len(), 2, "{oid}: acting set {acting:?}");
            for osd in &acting[1..] {
                assert_eq!(
                    store(*osd).get(oid),
                    store(acting[0]).get(oid),
                    "{oid}: osd {osd} differs from primary {}",
                    acting[0]
                );
            }
        }
    }
}

mod linearize_smoke {
    use mala_rados::{Osd, OsdConfig};
    use mala_sim::history::{Outcome, Recorder};
    use mala_sim::linearize::{check_shared_log, LogOp, LogRet};
    use mala_sim::{Fault, FaultSchedule, Nemesis, SimDuration, SimTime};
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
    use malacology::cluster::{Cluster, ClusterBuilder};

    /// Two clients race appends on one log through an OSD crash/restart,
    /// then cross-read each other's entries and probe the tail; returns
    /// the shared history the two clients recorded.
    fn run_two_client_trace(seed: u64) -> Recorder<LogOp, LogRet> {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(3)
            .mds_ranks(1)
            .pool("p", 16, 2)
            .build(seed);
        cluster.commit_updates(vec![zlog_interface_update()]);
        let history = Recorder::new();
        let mut nodes = Vec::new();
        for _ in 0..2 {
            let node = cluster.alloc_node();
            let config = ZlogConfig {
                name: "lin-smoke".into(),
                pool: "p".into(),
                stripe_width: 3,
                mds_nodes: cluster.mds_nodes(),
                home_rank: 0,
                monitor: cluster.mon(),
            };
            cluster
                .sim
                .add_node(node, ZlogClient::new(config).with_history(history.clone()));
            nodes.push(node);
        }
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            nodes[0],
            SimDuration::from_secs(30),
            |c, ctx| c.setup(ctx),
        );

        let t0 = cluster.sim.now();
        let schedule = FaultSchedule::new()
            .at(SimTime(t0.0 + 300_000), Fault::Crash(cluster.osd_node(0)))
            .at(
                SimTime(t0.0 + 2_000_000),
                Fault::Restart(cluster.osd_node(0)),
            );
        let journals = cluster.journals().clone();
        let mon = cluster.mon();
        let mut nemesis = Nemesis::new(schedule)
            .with_labels(Cluster::node_role)
            .on_restart(move |sim, n| {
                let osd =
                    Osd::with_journal(n.0 - 10, mon, OsdConfig::default(), journals.journal(n));
                sim.restart(n, osd);
            });

        // Each round launches one append per client *before* polling, so
        // the invocations genuinely overlap in the history.
        let mut acked = Vec::new();
        for k in 0..6u32 {
            let ops: Vec<(mala_sim::NodeId, u64)> = nodes
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let payload = format!("lin-{seed}-{k}-c{i}").into_bytes();
                    let op = cluster
                        .sim
                        .with_actor::<ZlogClient, _>(node, move |c, ctx| c.append(ctx, payload));
                    (node, op)
                })
                .collect();
            let deadline = cluster.sim.now() + SimDuration::from_secs(90);
            loop {
                let all_done = ops
                    .iter()
                    .all(|&(node, op)| cluster.sim.actor::<ZlogClient>(node).is_done(op));
                if all_done {
                    break;
                }
                assert!(cluster.sim.now() < deadline, "racing appends hung");
                nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(200));
            }
            for (node, op) in ops {
                let res = cluster
                    .sim
                    .actor_mut::<ZlogClient>(node)
                    .take_result(op)
                    .unwrap();
                let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                    panic!("racing append failed: {res:?}");
                };
                acked.push(pos);
            }
        }
        while !nemesis.finished() {
            nemesis.run_for(&mut cluster.sim, SimDuration::from_millis(500));
        }
        cluster.sim.run_for(SimDuration::from_secs(1));

        // Cross-reads: each client reads every acked position.
        for &node in &nodes {
            for &pos in &acked {
                let _ = run_op(
                    &mut cluster.sim,
                    node,
                    SimDuration::from_secs(30),
                    move |c, ctx| c.read(ctx, pos),
                );
            }
        }
        let _ = run_op(
            &mut cluster.sim,
            nodes[0],
            SimDuration::from_secs(30),
            |c, ctx| c.check_tail(ctx),
        );
        history
    }

    /// Fixed-seed CI smoke for the tentpole: a two-client trace through
    /// an OSD crash passes the WGL checker end to end. `ci.sh` runs
    /// exactly this test.
    #[test]
    fn smoke_fixed_seed_linearizability() {
        let seed = 2017;
        let history = run_two_client_trace(seed);
        let ops = history.operations();
        assert!(ops.len() >= 24, "trace too thin: {} ops", ops.len());
        match check_shared_log(&ops) {
            Ok(stats) => {
                assert!(stats.partitions >= 12, "too few partitions: {stats:?}");
                assert!(stats.visited >= stats.ops, "checker did no work: {stats:?}");
            }
            Err(cex) => panic!("smoke trace not linearizable:\n{cex}"),
        }
    }

    /// Acceptance: a deliberately seeded ordering bug — two acked appends
    /// claiming the same position, the classic duplicate-grant failure a
    /// broken sequencer failover would produce — is caught, and the
    /// counterexample names the violated partition.
    #[test]
    fn seeded_ordering_bug_is_caught_with_counterexample() {
        let history = run_two_client_trace(4242);
        let mut ops = history.operations();
        // Test-only mutation of the real trace: rewrite the ack of the
        // higher-positioned of the first two appends to claim the lower
        // one's cell.
        let acked: Vec<(usize, u64)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match (&op.op, &op.outcome) {
                (
                    LogOp::Append { .. },
                    Outcome::Ok {
                        ret: LogRet::Pos(p),
                        ..
                    },
                ) => Some((i, *p)),
                _ => None,
            })
            .collect();
        assert!(acked.len() >= 2, "need two acked appends to collide");
        let (first, second) = (acked[0], acked[1]);
        let (victim, dup_pos) = if first.1 < second.1 {
            (second.0, first.1)
        } else {
            (first.0, second.1)
        };
        match &mut ops[victim].outcome {
            Outcome::Ok { ret, .. } => *ret = LogRet::Pos(dup_pos),
            _ => unreachable!("victim was filtered as Ok"),
        }

        let cex = check_shared_log(&ops).expect_err("duplicate ack must be caught");
        let printed = cex.to_string();
        assert!(
            printed.contains("linearizability violation"),
            "missing verdict line:\n{printed}"
        );
        assert!(
            printed.contains(&format!("pos {dup_pos}")),
            "counterexample must name the contested position {dup_pos}:\n{printed}"
        );
        assert!(
            printed.contains("append("),
            "counterexample must show the colliding appends:\n{printed}"
        );
    }
}
