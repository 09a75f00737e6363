//! `fault_churn`: 400 appends/s open loop (256 B) from 8 batching writers
//! to 4 logs, with one closed-loop tailer per log, through a fixed fault
//! schedule: OSD crash and journal-replay restart, crash of the only active
//! MDS (standby promoted, sequencers re-sealed), an OSD join and an OSD
//! drain.

use mala_rados::{OsdMapView, WEIGHT_UNIT};
use mala_sim::history::{Outcome as HistOutcome, Recorder};
use mala_sim::linearize::{LogOp, LogRet};
use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, SimDuration, SimTime};
use mala_zlog::log::ZlogOut;
use mala_zlog::{ReadOutcome, ZlogClient};

use super::append::{self, LogOps};
use super::tail::{self, AtTail, SharedReadLog};
use crate::alloc;
use crate::cluster::{mds_node, new_osd, osd_node, zlog_op, Cluster, Topology};
use crate::harness::{assemble, Meter, Rep, RepOpts};
use crate::hostclock::Section;

const LOGS: u32 = 4;
const WRITERS_PER_LOG: u32 = 2;
const PAYLOAD: usize = 256;
const RATE_PER_S: u64 = 400;
const WINDOW_US: u64 = 12_000_000;
const DRAIN_CAP_US: u64 = 5_000_000;
const SLO_US: u64 = 100_000;
const TAILER_PAUSE: SimDuration = SimDuration::from_millis(10);
const OSDS: u32 = 5;

/// Offsets into the window, in the window's own scale (`--quick` shrinks
/// them with it).
const CRASH_OSD_AT: u64 = 2_000_000;
const RESTART_OSD_AT: u64 = 3_500_000;
const CRASH_MDS_AT: u64 = 5_000_000;
const JOIN_OSD_AT: u64 = 8_000_000;
const DRAIN_OSD_AT: u64 = 9_500_000;

pub fn run(seed: u64, opts: RepOpts) -> Result<Rep, String> {
    let heap_base = alloc::reset_peak();
    let setup = Section::start();
    let topo = Topology {
        monitors: 3,
        osds: OSDS,
        standby_mds: 1,
        osd_journals: true,
        ..Topology::zlog(1)
    };
    let mut cluster = Cluster::build(seed, topo, opts.traced)?;
    let mut w = append::spawn_writers(&mut cluster, "fc", LOGS, WRITERS_PER_LOG)?;
    let shared = SharedReadLog::default();
    for log in 0..LOGS {
        // No history on the tailers: their tail lookups overlap the appends
        // parked during the MDS outage by the hundred, and the checker's
        // search over that one partition does not finish. What they read is
        // checked directly instead.
        let node = cluster.add_zlog(&append::log_name("fc", log), "zlogpool", ZlogClient::new);
        cluster.sim.run_for(SimDuration::from_millis(10));
        tail::start_tailer(
            &mut cluster,
            node,
            log,
            PAYLOAD,
            AtTail::Pause(TAILER_PAUSE),
            SimDuration::ZERO,
            &shared,
        );
    }

    let window_us = opts.scale_us(WINDOW_US);
    let writers = LOGS * WRITERS_PER_LOG;
    let (warm, load, open) =
        append::arrivals(seed, cluster.sim.now(), RATE_PER_S, window_us, writers);
    let close = open + SimDuration::from_micros(window_us);
    let at = |offset: u64| open + SimDuration::from_micros(opts.scale_us(offset));
    let crash_mds_at = at(CRASH_MDS_AT);
    let schedule = FaultSchedule::new()
        .at(at(CRASH_OSD_AT), Fault::Crash(osd_node(1)))
        .at(at(RESTART_OSD_AT), Fault::Restart(osd_node(1)))
        .at(crash_mds_at, Fault::Crash(mds_node(0)))
        .at(at(JOIN_OSD_AT), Fault::OsdJoin(osd_node(OSDS)))
        .at(at(DRAIN_OSD_AT), Fault::OsdDrain(osd_node(0)));
    // A journaled OSD daemon for `node`, as a restart and a join start it.
    let (journals, stats) = (cluster.journals.clone(), cluster.stats.clone());
    let osd_for = move |node: NodeId| new_osd(node.0 - 10, Some(&journals), &stats);
    let restarted = osd_for.clone();
    let submit = cluster.submitter();
    let mut nemesis = Nemesis::new(schedule)
        .on_restart(move |sim, node| sim.restart(node, restarted(node)))
        .on_membership(move |sim, node, joining| {
            if joining {
                // The joiner's daemon starts now; its first map already
                // lists it, so it backfills before it serves.
                sim.add_node(node, osd_for(node));
            }
            let weight = if joining { WEIGHT_UNIT } else { 0 };
            let update = OsdMapView::update_osd_weighted(node.0 - 10, node, true, weight);
            submit(sim, vec![update]);
        });
    // Sampled at every arrival: when the monitor failed the rank over and
    // when the standby finished taking it over.
    let mut detected: Option<SimTime> = None;
    let mut taken_over: Option<SimTime> = None;
    let mut advance = |c: &mut Cluster, t: SimTime| {
        nemesis.run_until(&mut c.sim, t);
        let seen = |name: &str| c.sim.metrics().counter(name) > 0;
        if detected.is_none() && seen("mon.mds_failovers") {
            detected = Some(t);
        }
        if taken_over.is_none() && seen("mds.takeovers") {
            taken_over = Some(t);
        }
    };
    append::drive(&mut cluster, &mut w, &warm, PAYLOAD, &mut advance)?;
    advance(&mut cluster, open);
    let setup_s = setup.finish().seconds();

    let meter = Meter::start(&cluster);
    append::drive(&mut cluster, &mut w, &load, PAYLOAD, &mut advance)?;
    advance(&mut cluster, close);
    append::drain(&mut cluster, &mut w, DRAIN_CAP_US, &mut advance);
    tail::stop_and_drain(&mut cluster, &shared, 1_000_000);
    let measured = meter.finish(&cluster);

    let logs: Vec<LogOps> = w.histories.iter().map(Recorder::operations).collect();
    let out = append::outcome(&logs, (open.as_micros(), close.as_micros()), SLO_US);
    let mut rep = assemble(&cluster, opts, setup_s, heap_base, &measured, out);
    let since_crash = |t: Option<SimTime>| t.map_or(0.0, |t| t.since(crash_mds_at).as_millis_f64());
    rep.layers
        .insert("consensus.failover_detect_ms", since_crash(detected));
    rep.layers
        .insert("mds.failover_window_ms", since_crash(taken_over));
    let batches = shared.borrow().batches.len();
    rep.layers
        .insert("zlog.duplicate_entries", shared.borrow().duplicates as f64);
    rep.layers.insert(
        "zlog.cursor_entries_per_batch",
        measured.counter("zlog.cursor_entries") / batches.max(1) as f64,
    );

    let (failures, linearize_us) = append::check_logs(&logs);
    rep.gate_failures.extend(failures);
    rep.layers.insert("sim.linearize_us_per_op", linearize_us);
    rep.gate_failures
        .extend(shared.borrow().violations.iter().cloned());
    rep.gate_failures
        .extend(read_back(&mut cluster, &logs).err());
    Ok(rep)
}

/// After the heal, a fresh reader of each log must return every acked
/// append at the position it was acked at.
fn read_back(cluster: &mut Cluster, logs: &[LogOps]) -> Result<(), String> {
    for (log, ops) in logs.iter().enumerate() {
        let mut acked: Vec<(u64, &Vec<u8>)> = ops
            .iter()
            .filter_map(|op| match (&op.op, &op.outcome) {
                (
                    LogOp::Append { data },
                    HistOutcome::Ok {
                        ret: LogRet::Pos(p),
                        ..
                    },
                ) => Some((*p, data)),
                _ => None,
            })
            .collect();
        acked.sort_unstable_by_key(|(p, _)| *p);
        let name = append::log_name("fc", log as u32);
        let reader = cluster.add_zlog(&name, "zlogpool", ZlogClient::new);
        cluster.sim.run_for(SimDuration::from_millis(100));
        for chunk in acked.chunks(64) {
            let positions: Vec<u64> = chunk.iter().map(|(p, _)| *p).collect();
            let got = zlog_op(
                &mut cluster.sim,
                reader,
                SimDuration::from_secs(30),
                move |c, ctx| c.read_batch(ctx, positions),
            )?;
            let ZlogOut::ReadBatch(got) = got else {
                return Err(format!("log {log}: read_batch returned {got:?}"));
            };
            for ((pos, data), (got_pos, outcome)) in chunk.iter().zip(&got) {
                if pos != got_pos || *outcome != ReadOutcome::Data((*data).clone()) {
                    return Err(format!(
                        "log {log}: acked append at position {pos} reads back as {outcome:?} at {got_pos}"
                    ));
                }
            }
        }
    }
    Ok(())
}
