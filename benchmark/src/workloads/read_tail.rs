//! `read_tail`: 24 closed-loop tailers and 8 closed-loop point readers over
//! 8 preloaded logs, beside 400 appends/s open loop. Primary operation: a
//! cursor-batch call; goodput counts the entries those calls deliver.

use mala_sim::history::Recorder;
use mala_sim::{NodeId, SimDuration, SimTime};
use mala_zlog::{ReadConfig, ZlogClient};

use super::append::{self, LogOps};
use super::tail::{self, AtTail, SharedReadLog};
use crate::alloc;
use crate::cluster::{Cluster, Topology};
use crate::gen::Gen;
use crate::harness::{assemble, Meter, Outcome, Rep, RepOpts};
use crate::hostclock::Section;
use crate::stats;

const LOGS: u32 = 8;
const TAILERS_PER_LOG: u32 = 3;
const PRELOAD: u64 = 256;
const PAYLOAD: usize = 1024;
const WRITE_RATE_PER_S: u64 = 400;
const WINDOW_US: u64 = 120_000;
/// The readers start this long before the window opens: long enough for
/// every cursor to be past its first tail lookup, short because a
/// simulated second of 32 closed-loop readers costs ~30 host seconds.
const READER_WARM_US: u64 = 10_000;
const DRAIN_CAP_US: u64 = 1_000_000;
/// Per cursor-batch call.
const SLO_US: u64 = 5_000;

pub fn run(seed: u64, opts: RepOpts) -> Result<Rep, String> {
    let heap_base = alloc::reset_peak();
    let setup = Section::start();
    let mut cluster = Cluster::build(seed, Topology::zlog(1), opts.traced)?;
    let mut w = append::spawn_writers(&mut cluster, "rd", LOGS, 1)?;
    append::preload(&mut cluster, &mut w, PRELOAD, PAYLOAD)?;

    let mut readers: Vec<(NodeId, u32, bool)> = Vec::new();
    for log in 0..LOGS {
        let name = append::log_name("rd", log);
        for _ in 0..TAILERS_PER_LOG {
            let read = ReadConfig {
                readahead: 64,
                max_inflight: 4,
            };
            let node =
                cluster.add_zlog(&name, "zlogpool", |c| ZlogClient::with_read_config(c, read));
            readers.push((node, log, true));
        }
        let node = cluster.add_zlog(&name, "zlogpool", ZlogClient::new);
        readers.push((node, log, false));
    }
    cluster.sim.run_for(SimDuration::from_millis(100));

    let window_us = opts.scale_us(WINDOW_US);
    let (warm, load, open) =
        append::arrivals(seed, cluster.sim.now(), WRITE_RATE_PER_S, window_us, LOGS);
    let close = open + SimDuration::from_micros(window_us);
    let shared = SharedReadLog::default();
    let readers_at = open.as_micros() - READER_WARM_US;
    let mut pending_readers = Some(readers);
    let mut advance = |c: &mut Cluster, t: SimTime| {
        if let Some(readers) = pending_readers.take_if(|_| t.as_micros() >= readers_at) {
            c.sim.run_until(SimTime::from_micros(readers_at));
            for (i, (node, log, tailer)) in readers.into_iter().enumerate() {
                if tailer {
                    // Staggered over the reader warm-up: tailers that start
                    // on the same microsecond stay in lockstep, and the
                    // window then sees their common pauses, not their mix.
                    let delay = SimDuration::from_micros(i as u64 * READER_WARM_US / 32);
                    tail::start_tailer(c, node, log, PAYLOAD, AtTail::Restart, delay, &shared);
                } else {
                    let gen = Gen::new(seed, 0x7265_6164 + i as u64);
                    tail::start_point_reader(c, node, log, PAYLOAD, PRELOAD, gen, &shared);
                }
            }
        }
        c.sim.run_until(t);
    };
    append::drive(&mut cluster, &mut w, &warm, PAYLOAD, &mut advance)?;
    advance(&mut cluster, open);
    let setup_s = setup.finish().seconds();

    let meter = Meter::start(&cluster);
    append::drive(&mut cluster, &mut w, &load, PAYLOAD, &mut advance)?;
    advance(&mut cluster, close);
    tail::stop_and_drain(&mut cluster, &shared, DRAIN_CAP_US);
    append::drain(&mut cluster, &mut w, DRAIN_CAP_US, &mut advance);
    let measured = meter.finish(&cluster);

    let (w0, w1) = (open.as_micros(), close.as_micros());
    let log = shared.borrow();
    let in_window = |t: &u64| (w0..w1).contains(t);
    let calls: Vec<&(u64, u64, u32)> = log.batches.iter().filter(|b| in_window(&b.0)).collect();
    let failed = log.failed.iter().filter(|t| in_window(t)).count()
        + log.in_flight.iter().filter(|t| in_window(t)).count();
    let delivered = log.batches.iter().filter(|b| (w0..=w1).contains(&b.1));
    let out = Outcome {
        window: (w0, w1),
        attempted: (calls.len() + failed) as u64,
        failed: failed as u64,
        latencies_us: calls.iter().map(|b| b.1 - b.0).collect(),
        slo_us: SLO_US,
        goodput_units: delivered.clone().map(|b| u64::from(b.2)).sum(),
        completions_us: delivered.filter(|b| b.2 > 0).map(|b| b.1).collect(),
    };
    let mut rep = assemble(&cluster, opts, setup_s, heap_base, &measured, out);
    let batches_in_section = log.batches.iter().filter(|b| b.0 >= w0).count();
    rep.layers.insert(
        "zlog.cursor_entries_per_batch",
        measured.counter("zlog.cursor_entries") / batches_in_section.max(1) as f64,
    );
    let mut point_us: Vec<u64> = log
        .points
        .iter()
        .filter(|p| in_window(&p.0))
        .map(|p| p.1 - p.0)
        .collect();
    let q = |v: &mut Vec<u64>, q: f64| stats::quantile(v, q).unwrap_or(0) as f64;
    rep.layers
        .insert("zlog.point_read_p50_us", q(&mut point_us, 0.5));
    rep.layers
        .insert("zlog.point_read_p99_us", q(&mut point_us, 0.99));

    rep.layers
        .insert("zlog.duplicate_entries", log.duplicates as f64);
    rep.gate_failures.extend(log.violations.iter().cloned());
    if log.filled > 0 {
        rep.gate_failures.push(format!(
            "{} junk-filled positions delivered on a fault-free run",
            log.filled
        ));
    }
    let logs: Vec<LogOps> = w.histories.iter().map(Recorder::operations).collect();
    let (failures, linearize_us) = append::check_logs(&logs);
    rep.gate_failures.extend(failures);
    rep.layers.insert("sim.linearize_us_per_op", linearize_us);
    Ok(rep)
}
