//! `mds_balance`: 24 closed-loop round-trip sequencer clients (and 4
//! cap-caching ones) against 3 MDS ranks running Mantle. Everything starts
//! on rank 0; the sequencer-aware policy arrives the paper's way — a policy
//! object in RADOS, then the version pointer through the monitor — when the
//! window opens. Primary operation: a round-trip position grant.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use mala_mantle::SEQUENCER_AWARE_POLICY;
use mala_mds::{FileType, Ino, MdsConfig, MdsMsg};
use mala_sim::{NodeId, SimDuration, SimTime};
use mala_zlog::{SeqMode, SeqWorkload};
use malacology::interfaces::{load_balancing, shared_resource};

use crate::alloc;
use crate::cluster::{mds_node, Cluster, Topology};
use crate::harness::{assemble, Meter, Outcome, Rep, RepOpts};
use crate::hostclock::{self, Section};
use crate::timed::Timed;

/// Round-trip clients per sequencer: 24 in all, no two sequencers equally
/// hot. The MDS orders its inodes by rate with ties left in `HashMap`
/// order, so equally loaded sequencers would make the balancer's choice —
/// and every simulated number after it — differ from run to run.
const RT_CLIENTS: [u32; 6] = [7, 6, 5, 3, 2, 1];
const CACHED_SEQUENCERS: u32 = 2;
const CACHED_CLIENTS_PER_SEQ: u32 = 2;
/// All sequencers on rank 0, no policy installed.
const WARM_US: u64 = 10_000_000;
const WINDOW_US: u64 = 40_000_000;
/// Per round-trip grant.
const SLO_US: u64 = 2_000;
/// Fig. 6's quota policy on the cached sequencers: yield after this many
/// positions, hold at most this long.
const QUOTA_OPS: u64 = 1_000;
const QUOTA_HOLD: SimDuration = SimDuration::from_millis(250);
const CACHED_OP_TIME: SimDuration = SimDuration::from_micros(5);
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Every position a sequencer's round-trip clients were granted and when,
/// seen by tapping their `TypeOpReply` messages.
#[derive(Default)]
struct Granted {
    seen: Vec<bool>,
    duplicates: u64,
    at_us: Vec<u64>,
}

impl Granted {
    fn record(&mut self, pos: u64, at: SimTime) {
        let pos = pos as usize;
        if self.seen.len() <= pos {
            self.seen.resize(pos + 1, false);
        }
        self.duplicates += u64::from(std::mem::replace(&mut self.seen[pos], true));
        self.at_us.push(at.as_micros());
    }

    fn holes(&self) -> usize {
        self.seen.iter().filter(|s| !**s).count()
    }
}

struct Client {
    node: NodeId,
    seq: usize,
    round_trip: bool,
    series: String,
}

fn ops_of(cluster: &Cluster, c: &Client) -> u64 {
    cluster
        .sim
        .actor::<Timed<SeqWorkload>>(c.node)
        .inner
        .stats
        .ops
}

pub fn run(seed: u64, opts: RepOpts) -> Result<Rep, String> {
    let heap_base = alloc::reset_peak();
    let setup = Section::start();
    let topo = Topology {
        monitors: 1,
        osds: 3,
        mds_ranks: 3,
        standby_mds: 0,
        pools: vec![("meta", 8, 2)],
        mds_config: MdsConfig {
            balance_interval: SimDuration::from_secs(2),
            ..MdsConfig::default()
        },
        mantle: true,
        zlog_class: false,
        osd_journals: false,
    };
    let mut cluster = Cluster::build(seed, topo, opts.traced)?;
    cluster.create("/", "seq", FileType::Dir)?;
    let sequencers = RT_CLIENTS.len() as u32 + CACHED_SEQUENCERS;
    let inos: Vec<Ino> = (0..sequencers)
        .map(|k| cluster.create("/seq", &format!("s{k}"), FileType::Sequencer))
        .collect::<Result<_, _>>()?;
    let mds_nodes = (0..3)
        .map(|r| (r, mds_node(r)))
        .collect::<std::collections::HashMap<_, _>>();
    let positions: Vec<Rc<RefCell<Granted>>> = RT_CLIENTS.iter().map(|_| Rc::default()).collect();
    let mut clients = Vec::new();
    for (k, ino) in inos.iter().enumerate() {
        let round_trip = k < RT_CLIENTS.len();
        let (mode, per_seq) = if round_trip {
            (SeqMode::RoundTrip, RT_CLIENTS[k])
        } else {
            let policy = shared_resource::quota(QUOTA_OPS, QUOTA_HOLD);
            cluster.admin_send(mds_node(0), shared_resource::apply(*ino, policy));
            let mode = SeqMode::Cached {
                op_time: CACHED_OP_TIME,
            };
            (mode, CACHED_CLIENTS_PER_SEQ)
        };
        for i in 0..per_seq {
            let series = format!("mb.s{k}.c{i}");
            let workload = SeqWorkload::new(mds_nodes.clone(), 0, *ino, mode, series.clone());
            let node = cluster.add_client(workload);
            if round_trip {
                let granted = Rc::clone(&positions[k]);
                let tap = move |msg: &dyn Any, at: SimTime| {
                    if let Some(MdsMsg::TypeOpReply {
                        result: Ok(pos), ..
                    }) = msg.downcast_ref::<MdsMsg>()
                    {
                        granted.borrow_mut().record(*pos, at);
                    }
                };
                cluster
                    .sim
                    .actor_mut::<Timed<SeqWorkload>>(node)
                    .set_tap(Box::new(tap));
            }
            clients.push(Client {
                node,
                seq: k,
                round_trip,
                series,
            });
        }
    }
    cluster.put_object(
        "meta",
        "mantle_policy_v1",
        SEQUENCER_AWARE_POLICY.as_bytes().to_vec(),
    )?;
    cluster.sim.run_for(SimDuration::from_millis(100));
    for c in &clients {
        cluster
            .sim
            .with_actor::<Timed<SeqWorkload>, _>(c.node, |w, ctx| w.inner.start(ctx));
    }
    cluster
        .sim
        .run_for(SimDuration::from_micros(opts.scale_us(WARM_US)));
    let setup_s = setup.finish().seconds();

    let window_us = opts.scale_us(WINDOW_US);
    let open = cluster.sim.now();
    let close = open + SimDuration::from_micros(window_us);
    let rt_ops = |cluster: &Cluster| -> u64 {
        clients
            .iter()
            .filter(|c| c.round_trip)
            .map(|c| ops_of(cluster, c))
            .sum()
    };
    let meter = Meter::start(&cluster);
    let ops_at_open = rt_ops(&cluster);
    cluster.submit(vec![load_balancing::policy_pointer_update(
        "mantle_policy_v1",
    )]);
    // Sampled every 100 sim-ms: when the last export happened, and each
    // client's count one sim-second before the end.
    let mut exports = 0u64;
    let mut last_export_s = 0.0;
    let mut ops_before_last_second: Vec<u64> = Vec::new();
    while cluster.sim.now() < close {
        let next = (cluster.sim.now() + SLICE).min(close);
        cluster.sim.run_until(next);
        hostclock::tick();
        let seen = cluster.sim.metrics().counter("mds.exports");
        if seen > exports {
            exports = seen;
            last_export_s = cluster.sim.now().since(open).as_secs_f64();
        }
        if ops_before_last_second.is_empty()
            && close.since(cluster.sim.now()) <= SimDuration::from_secs(1)
        {
            ops_before_last_second = clients.iter().map(|c| ops_of(&cluster, c)).collect();
        }
    }
    let granted = rt_ops(&cluster) - ops_at_open;
    let progressing = clients
        .iter()
        .zip(&ops_before_last_second)
        .filter(|(c, before)| ops_of(&cluster, c) > **before)
        .count();
    for c in &clients {
        cluster
            .sim
            .with_actor::<Timed<SeqWorkload>, _>(c.node, |w, ctx| w.inner.stop(ctx));
    }
    cluster.sim.run_for(SimDuration::from_millis(500));
    let measured = meter.finish(&cluster);

    // Latency: the clients' own 1-in-64 round-trip samples (they all start
    // together and are served round-robin, so those samples bunch up and
    // say little about gaps). Completion instants: every tapped grant.
    let (w0, w1) = (open.as_micros(), close.as_micros());
    let metrics = cluster.sim.metrics();
    let latencies_us: Vec<u64> = clients
        .iter()
        .filter(|c| c.round_trip)
        .flat_map(|c| metrics.series(&format!("{}.rtlat", c.series)))
        .filter(|s| (w0..=w1).contains(&s.at.as_micros()))
        .map(|s| s.value as u64)
        .collect();
    let completions_us: Vec<u64> = positions
        .iter()
        .flat_map(|g| std::mem::take(&mut g.borrow_mut().at_us))
        .collect();
    let stalled = (clients.len() - progressing) as u64;
    let out = Outcome {
        window: (w0, w1),
        attempted: granted + stalled,
        failed: stalled,
        latencies_us,
        slo_us: SLO_US,
        goodput_units: granted,
        completions_us,
    };
    let mut rep = assemble(&cluster, opts, setup_s, heap_base, &measured, out);
    // The SLO share is over the latency samples, not over every grant.
    let met = rep.e2e["sim_slo_met_share"] * rep.attempted as f64 / rep.latency_n.max(1) as f64;
    rep.e2e.insert("sim_slo_met_share", met);
    rep.e2e
        .insert("ok_share", progressing as f64 / clients.len() as f64);
    rep.layers.insert("mantle.last_export_s", last_export_s);

    // Gates. Round-trip sequencers: the tapped grants leave no position
    // unissued. Cap-caching sequencers hand positions out client-side, so
    // there the check is on totals: what the clients hold adds up to
    // exactly `last_pos + 1`.
    let mut duplicates = 0;
    for (k, g) in positions.iter().enumerate() {
        let g = g.borrow();
        duplicates += g.duplicates;
        if g.holes() > 0 {
            rep.gate_failures.push(format!(
                "sequencer {k}: {} positions below the tail were never granted",
                g.holes()
            ));
        }
    }
    rep.layers.insert("mds.duplicate_grants", duplicates as f64);
    for k in RT_CLIENTS.len()..sequencers as usize {
        let of_seq = || clients.iter().filter(|c| c.seq == k);
        let stats = |c: &Client| cluster.sim.actor::<Timed<SeqWorkload>>(c.node).inner.stats;
        let held: u64 = of_seq().map(|c| stats(c).ops).sum();
        let last = of_seq().map(|c| stats(c).last_pos).max().unwrap_or(0);
        if held != last + 1 {
            rep.gate_failures.push(format!(
                "cached sequencer {k}: clients hold {held} positions but the last one is {last}"
            ));
        }
    }
    Ok(rep)
}
