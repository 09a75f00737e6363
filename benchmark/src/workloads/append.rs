//! `append_steady` and `append_overload`: open-loop 1 KiB appends from 16
//! batching clients to 16 logs whose sequencers are split over two MDS
//! ranks. Also the open-loop append machinery `fault_churn` reuses.

use std::time::Instant;

use mala_mds::{MdsMsg, ServeStyle};
use mala_sim::history::{Operation, Outcome as HistOutcome, Recorder};
use mala_sim::linearize::{check_shared_log, LogOp, LogRet};
use mala_sim::{NodeId, SimDuration, SimTime};
use mala_zlog::{BatchConfig, ZlogClient};

use crate::alloc;
use crate::cluster::{mds_node, zlog_op, Cluster, Topology};
use crate::gen::{self, Arrival, Gen};
use crate::harness::{assemble, Meter, Outcome, Rep, RepOpts};
use crate::hostclock::{self, Section};
use crate::timed::Timed;

/// What distinguishes the two append workloads.
pub struct Spec {
    /// Offered appends per simulated second.
    pub rate_per_s: u64,
    pub window_us: u64,
    /// Unfinished appends count as failed after this much drain.
    pub drain_cap_us: u64,
    pub slo_us: u64,
}

pub const STEADY: Spec = Spec {
    rate_per_s: 5_000,
    window_us: 2_000_000,
    drain_cap_us: 2_000_000,
    slo_us: 10_000,
};

pub const OVERLOAD: Spec = Spec {
    rate_per_s: 8_000,
    window_us: 1_500_000,
    drain_cap_us: 2_000_000,
    slo_us: 10_000,
};

const LOGS: u32 = 16;
const PAYLOAD: usize = 1024;
/// Warm-up at the workload's rate before the window opens.
pub const WARM_US: u64 = 500_000;

pub type LogHistory = Recorder<LogOp, LogRet>;
pub type LogOps = Vec<Operation<LogOp, LogRet>>;

/// The batching writers of a set of logs and what they have in flight.
pub struct Writers {
    /// Writer → node.
    pub nodes: Vec<NodeId>,
    /// Writer → log.
    pub log_of: Vec<u32>,
    /// Log → history shared by every client of that log.
    pub histories: Vec<LogHistory>,
    /// Log → appends generated so far (the payload index).
    next_index: Vec<u64>,
    outstanding: Vec<(NodeId, u64)>,
}

/// Log `k` of a workload is named `<prefix><k>`.
pub fn log_name(prefix: &str, log: u32) -> String {
    format!("{prefix}{log}")
}

/// Adds `per_log` batching writers (queue depth 8, 1 ms flush window) for
/// each of `logs` logs in `zlogpool` and creates the logs.
pub fn spawn_writers(
    cluster: &mut Cluster,
    prefix: &str,
    logs: u32,
    per_log: u32,
) -> Result<Writers, String> {
    let histories: Vec<LogHistory> = (0..logs).map(|_| Recorder::new()).collect();
    let mut w = Writers {
        nodes: Vec::new(),
        log_of: Vec::new(),
        next_index: vec![0; logs as usize],
        outstanding: Vec::new(),
        histories,
    };
    for log in 0..logs {
        for _ in 0..per_log {
            let history = w.histories[log as usize].clone();
            let node = cluster.add_zlog(&log_name(prefix, log), "zlogpool", |config| {
                let batch = BatchConfig {
                    queue_depth: 8,
                    flush_window: SimDuration::from_millis(1),
                };
                ZlogClient::with_batching(config, batch).with_history(history)
            });
            w.nodes.push(node);
            w.log_of.push(log);
        }
    }
    cluster.sim.run_for(SimDuration::from_millis(100));
    for node in w.nodes.clone() {
        zlog_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(10),
            |c, ctx| c.setup(ctx),
        )?;
    }
    Ok(w)
}

/// Injects `arrivals` open loop: `advance` brings the simulation to each
/// due time, then the append enters its client at exactly that instant, so
/// the generator is never late.
pub fn drive(
    cluster: &mut Cluster,
    w: &mut Writers,
    arrivals: &[Arrival],
    payload_len: usize,
    advance: &mut dyn FnMut(&mut Cluster, SimTime),
) -> Result<(), String> {
    for a in arrivals {
        advance(cluster, a.due);
        hostclock::tick();
        if cluster.sim.now() != a.due {
            return Err(format!(
                "generator late: due {} but the clock reads {}",
                a.due,
                cluster.sim.now()
            ));
        }
        let node = w.nodes[a.target as usize];
        let log = w.log_of[a.target as usize];
        let index = &mut w.next_index[log as usize];
        let data = gen::payload(log, *index, payload_len);
        *index += 1;
        let op = cluster
            .sim
            .with_actor::<Timed<ZlogClient>, _>(node, move |c, ctx| {
                c.inner.append_async(ctx, data)
            });
        w.outstanding.push((node, op));
    }
    Ok(())
}

/// Runs until every injected append has a result or `cap_us` has passed,
/// looking only every 50 sim-ms.
pub fn drain(
    cluster: &mut Cluster,
    w: &mut Writers,
    cap_us: u64,
    advance: &mut dyn FnMut(&mut Cluster, SimTime),
) {
    let end = cluster.sim.now() + SimDuration::from_micros(cap_us);
    loop {
        let sim = &cluster.sim;
        w.outstanding
            .retain(|(node, op)| !sim.actor::<Timed<ZlogClient>>(*node).inner.is_done(*op));
        if w.outstanding.is_empty() || cluster.sim.now() >= end {
            return;
        }
        let next = (cluster.sim.now() + SimDuration::from_millis(50)).min(end);
        advance(cluster, next);
        hostclock::tick();
    }
}

/// Set-up, not measured: appends `per_log` entries to every log in
/// chunks small enough that no grant waits past the client's 20 ms
/// watchdog, and waits for each chunk.
pub fn preload(
    cluster: &mut Cluster,
    w: &mut Writers,
    per_log: u64,
    payload_len: usize,
) -> Result<(), String> {
    const CHUNK: u64 = 64;
    let mut advance = |c: &mut Cluster, t: SimTime| c.sim.run_until(t);
    for _ in 0..per_log.div_ceil(CHUNK) {
        let due = cluster.sim.now();
        let chunk: Vec<Arrival> = (0..w.nodes.len() as u32)
            .flat_map(|target| (0..CHUNK).map(move |_| Arrival { due, target }))
            .collect();
        drive(cluster, w, &chunk, payload_len, &mut advance)?;
        drain(cluster, w, 30_000_000, &mut advance);
        if !w.outstanding.is_empty() {
            return Err(format!(
                "preload: {} appends unfinished after 30 sim-s",
                w.outstanding.len()
            ));
        }
    }
    Ok(())
}

/// Reads the histories: end-to-end outcome of the appends due in `window`.
pub fn outcome(logs: &[LogOps], window: (u64, u64), slo_us: u64) -> Outcome {
    let mut out = Outcome {
        window,
        attempted: 0,
        failed: 0,
        latencies_us: Vec::new(),
        slo_us,
        goodput_units: 0,
        completions_us: Vec::new(),
    };
    for op in logs.iter().flatten() {
        if !matches!(op.op, LogOp::Append { .. }) {
            continue;
        }
        let due = op.invoked.as_micros();
        let attempted = (window.0..window.1).contains(&due);
        out.attempted += u64::from(attempted);
        match &op.outcome {
            HistOutcome::Ok { at, .. } => {
                let at = at.as_micros();
                if attempted {
                    out.latencies_us.push(at - due);
                }
                if (window.0..=window.1).contains(&at) {
                    out.goodput_units += 1;
                    out.completions_us.push(at);
                }
            }
            _ => out.failed += u64::from(attempted),
        }
    }
    out
}

/// Correctness gates on per-log histories: linearizable against the shared
/// log model, and no two acked appends share a position. Returns the
/// failures and the checker's host µs per history op.
pub fn check_logs(logs: &[LogOps]) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let started = Instant::now();
    let mut checked = 0usize;
    for (log, ops) in logs.iter().enumerate() {
        checked += ops.len();
        if let Err(cex) = check_shared_log(ops) {
            let text = cex.to_string();
            let head: String = text.chars().take(400).collect();
            failures.push(format!("log {log}: history not linearizable: {head}"));
        }
    }
    let us_per_op = started.elapsed().as_secs_f64() * 1e6 / checked.max(1) as f64;
    for (log, ops) in logs.iter().enumerate() {
        let mut positions: Vec<u64> = ops
            .iter()
            .filter_map(|op| match (&op.op, &op.outcome) {
                (
                    LogOp::Append { .. },
                    HistOutcome::Ok {
                        ret: LogRet::Pos(p),
                        ..
                    },
                ) => Some(*p),
                _ => None,
            })
            .collect();
        let acked = positions.len();
        positions.sort_unstable();
        positions.dedup();
        if positions.len() != acked {
            failures.push(format!(
                "log {log}: {} acked appends share positions",
                acked - positions.len()
            ));
        }
    }
    (failures, us_per_op)
}

/// Warm-up arrivals, window arrivals and the instant the window opens,
/// at `rate_per_s` over `targets` writers starting `from` now.
pub fn arrivals(
    seed: u64,
    from: SimTime,
    rate_per_s: u64,
    window_us: u64,
    targets: u32,
) -> (Vec<Arrival>, Vec<Arrival>, SimTime) {
    let mut gen = Gen::new(seed, 0x6172_7269);
    let count = |us: u64| (rate_per_s * us / 1_000_000) as usize;
    let warm = gen::poisson_arrivals(&mut gen, from, WARM_US, count(WARM_US), targets);
    let open = from + SimDuration::from_micros(WARM_US);
    let window = gen::poisson_arrivals(&mut gen, open, window_us, count(window_us), targets);
    (warm, window, open)
}

pub fn run(spec: &Spec, seed: u64, opts: RepOpts) -> Result<Rep, String> {
    let heap_base = alloc::reset_peak();
    let setup = Section::start();
    let mut cluster = Cluster::build(seed, Topology::zlog(2), opts.traced)?;
    let mut w = spawn_writers(&mut cluster, "app", LOGS, 1)?;
    // Odd logs' sequencers move to rank 1; clients learn through redirects.
    for (i, node) in w.nodes.clone().into_iter().enumerate() {
        if i % 2 == 1 {
            let ino = cluster
                .sim
                .actor::<Timed<ZlogClient>>(node)
                .inner
                .seq_ino()
                .ok_or("sequencer inode unresolved after setup")?;
            cluster.admin_send(
                mds_node(0),
                MdsMsg::AdminExport {
                    ino,
                    target: 1,
                    style: ServeStyle::Direct,
                },
            );
        }
    }
    cluster.sim.run_for(SimDuration::from_millis(500));

    let window_us = opts.scale_us(spec.window_us);
    let (warm, load, open) = arrivals(seed, cluster.sim.now(), spec.rate_per_s, window_us, LOGS);
    let close = open + SimDuration::from_micros(window_us);
    let mut advance = |c: &mut Cluster, t: SimTime| c.sim.run_until(t);
    drive(&mut cluster, &mut w, &warm, PAYLOAD, &mut advance)?;
    advance(&mut cluster, open);
    let setup_s = setup.finish().seconds();

    let meter = Meter::start(&cluster);
    drive(&mut cluster, &mut w, &load, PAYLOAD, &mut advance)?;
    advance(&mut cluster, close);
    drain(&mut cluster, &mut w, spec.drain_cap_us, &mut advance);
    let measured = meter.finish(&cluster);

    let logs: Vec<LogOps> = w.histories.iter().map(Recorder::operations).collect();
    let out = outcome(&logs, (open.as_micros(), close.as_micros()), spec.slo_us);
    let mut rep = assemble(&cluster, opts, setup_s, heap_base, &measured, out);
    let (failures, linearize_us) = check_logs(&logs);
    rep.gate_failures.extend(failures);
    rep.layers.insert("sim.linearize_us_per_op", linearize_us);
    Ok(rep)
}
