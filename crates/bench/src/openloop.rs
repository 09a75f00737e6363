//! Open-loop fleet workload: one actor simulating 10⁴–10⁶ concurrent
//! virtual clients issuing sequencer grants against thousands of logs.
//!
//! A closed-loop client ([`mala_zlog::SeqWorkload`]) can never overload
//! the service — its request rate collapses with latency. Production
//! fleets are open-loop: arrivals keep coming whether or not earlier
//! requests finished, which is what exposes queueing collapse and tail
//! blowup. [`OpenLoopFleet`] models `clients` virtual clients with
//! exponential think time (a Poisson arrival process at rate
//! `clients / think`), Zipfian log popularity, and per-sequencer
//! placement-aware routing through [`mala_zlog::SeqRouter`] — learned
//! from `NotAuth` redirects, invalidated on `MdsUnavailable`, refreshed
//! from the monitor's mdsmap. Its requests in flight sit in
//! [`mala_sim::Requests`], the zlog and RADOS clients' request core.
//!
//! One actor carries the whole fleet: a per-arrival timer with
//! exponential interarrival keeps the sim event count at O(requests),
//! not O(virtual clients).

use std::collections::{BTreeMap, HashMap};

use mala_consensus::MonMsg;
use mala_mds::types::{MdsError, MdsMsg, SeqOp};
use mala_mds::Ino;
use mala_sim::{Actor, Context, NodeId, Requests, SimDuration, SimTime};
use mala_zlog::SeqRouter;
use rand::Rng;

const TOKEN_ARRIVAL: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// Per-request attempt budget (redirect ping-pong / transient errors).
const MAX_ATTEMPTS: u32 = 16;
/// Backoff after a transient refusal: 5 ms doubling per attempt to 2 s.
const RETRY_BASE: SimDuration = SimDuration::from_millis(5);
const RETRY_CAP: SimDuration = SimDuration::from_secs(2);
/// A request has no deadline: its attempt budget bounds it.
const NO_DEADLINE: SimTime = SimTime::from_micros(u64::MAX);

/// Fleet configuration.
#[derive(Clone)]
pub struct FleetConfig {
    /// MDS rank → node (static routing fallback).
    pub mds_nodes: HashMap<u32, NodeId>,
    /// Rank logs resolve through before a placement is learned.
    pub home_rank: u32,
    /// Monitor node (mdsmap subscription).
    pub monitor: NodeId,
    /// The sequencer inodes the fleet drives.
    pub logs: Vec<Ino>,
    /// Virtual open-loop clients.
    pub clients: u64,
    /// Per-client think time: the fleet's arrival rate is
    /// `clients / think`, independent of service latency.
    pub think: SimDuration,
    /// Zipf exponent for log popularity (0 = uniform).
    pub zipf_s: f64,
    /// Metric series prefix (latency histogram at `<series>.lat_us`).
    pub series: String,
}

/// Fleet counters.
#[derive(Debug, Default, Clone)]
pub struct FleetStats {
    /// Arrivals issued.
    pub started: u64,
    /// Grants completed.
    pub done: u64,
    /// `NotAuth` redirects followed.
    pub redirects: u64,
    /// Transient-error retries.
    pub retries: u64,
    /// Requests dropped after the attempt budget.
    pub failed: u64,
    /// Sends withheld (parked until a fresh mdsmap): rank unroutable.
    pub unroutable: u64,
    /// Completions by serving rank (`served_by`).
    pub per_rank: BTreeMap<u32, u64>,
}

struct Flight {
    ino: Ino,
    /// Arrival time, for the latency.
    sent: SimTime,
}

/// The open-loop fleet actor.
pub struct OpenLoopFleet {
    cfg: FleetConfig,
    router: SeqRouter,
    /// Cumulative Zipf distribution over `cfg.logs` (binary-searched
    /// per arrival).
    zipf_cdf: Vec<f64>,
    running: bool,
    next_reqid: u64,
    /// Requests by the reqid of their grant, which every re-send reuses: a
    /// flight never has two sends out. One parks on the mdsmap.
    inflight: Requests<Flight, ()>,
    lat_series: String,
    /// Live counters (read through the harness).
    pub stats: FleetStats,
}

impl OpenLoopFleet {
    /// Creates a fleet (started explicitly with [`OpenLoopFleet::start`]).
    pub fn new(cfg: FleetConfig) -> OpenLoopFleet {
        assert!(!cfg.logs.is_empty(), "fleet needs at least one log");
        let n = cfg.logs.len();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(cfg.zipf_s.max(0.0));
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for c in &mut cdf {
            *c /= total;
        }
        let router = SeqRouter::new(cfg.mds_nodes.clone(), cfg.home_rank, cfg.monitor);
        let lat_series = format!("{}.lat_us", cfg.series);
        OpenLoopFleet {
            cfg,
            router,
            zipf_cdf: cdf,
            running: false,
            next_reqid: 1,
            inflight: Requests::new(TOKEN_RETRY),
            lat_series,
            stats: FleetStats::default(),
        }
    }

    /// Begins issuing arrivals.
    pub fn start(&mut self, ctx: &mut Context<'_>) {
        if self.running {
            return;
        }
        self.running = true;
        self.arm_arrival(ctx);
    }

    /// Stops issuing arrivals (in-flight requests drain normally).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Mean interarrival across the fleet, in microseconds.
    fn mean_interarrival_us(&self) -> f64 {
        let rate = self.cfg.clients as f64 / self.cfg.think.as_secs_f64().max(1e-9);
        1e6 / rate.max(1e-9)
    }

    fn arm_arrival(&mut self, ctx: &mut Context<'_>) {
        if !self.running {
            return;
        }
        // Exponential interarrival → Poisson arrivals on the sim clock.
        let u: f64 = ctx.rng().gen_range(f64::MIN_POSITIVE..1.0);
        let dt = (-u.ln() * self.mean_interarrival_us()).max(0.0);
        ctx.set_timer(SimDuration::from_micros(dt as u64), TOKEN_ARRIVAL);
    }

    fn pick_log(&mut self, ctx: &mut Context<'_>) -> Ino {
        let u: f64 = ctx.rng().gen_range(0.0..1.0);
        let idx = self
            .zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.cfg.logs.len() - 1);
        self.cfg.logs[idx]
    }

    fn send_grant(&mut self, ctx: &mut Context<'_>, reqid: u64) {
        let Some(&Flight { ino, .. }) = self.inflight.get(reqid) else {
            return;
        };
        match self.router.target(ino) {
            Some(node) => {
                let op = SeqOp::Next;
                ctx.send(node, MdsMsg::TypeOp { reqid, ino, op });
            }
            None => {
                // Unroutable rank: park until a fresh mdsmap arrives.
                self.stats.unroutable += 1;
                self.inflight.park(reqid, ());
            }
        }
    }

    /// Charges `reqid` an attempt: past the budget it fails and `false`
    /// comes back.
    fn charge(&mut self, reqid: u64) -> bool {
        let within = self
            .inflight
            .charge(reqid)
            .is_some_and(|n| n <= MAX_ATTEMPTS);
        if !within {
            self.stats.failed += 1;
            self.inflight.remove(reqid);
        }
        within
    }
}

impl Actor for OpenLoopFleet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.router.mdsmap.subscribe(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn std::any::Any>) {
        let msg = match msg.downcast::<MdsMsg>() {
            Ok(mds) => {
                if let MdsMsg::TypeOpReply {
                    reqid,
                    result,
                    served_by,
                } = *mds
                {
                    let Some(&Flight { ino, sent }) = self.inflight.get(reqid) else {
                        return;
                    };
                    match result {
                        Ok(_) => {
                            self.inflight.remove(reqid);
                            self.stats.done += 1;
                            *self.stats.per_rank.entry(served_by).or_insert(0) += 1;
                            let us = ctx.now().since(sent).as_micros() as f64;
                            ctx.metrics().observe_hist(&self.lat_series, us);
                        }
                        Err(MdsError::NotAuth { rank }) => {
                            // Stale placement: learn the new rank and
                            // re-send immediately — the redirect is the
                            // pacing.
                            self.stats.redirects += 1;
                            self.router.learn(ino, rank);
                            if self.charge(reqid) {
                                self.send_grant(ctx, reqid);
                            }
                        }
                        Err(e) if e.is_retryable() => {
                            // Frozen, recovering or vacant: back off, as a
                            // flat short delay would spend the budget inside
                            // one freeze.
                            if let MdsError::MdsUnavailable { rank } = e {
                                self.router.invalidate_rank(rank);
                            }
                            if self.charge(reqid) {
                                self.stats.retries += 1;
                                let attempts = self.inflight.attempts(reqid);
                                let at = ctx.now() + ctx.backoff(RETRY_BASE, RETRY_CAP, attempts);
                                self.inflight.look(ctx, reqid, at);
                            }
                        }
                        Err(_) => {
                            self.inflight.remove(reqid);
                            self.stats.failed += 1;
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if let Ok(mon) = msg.downcast::<MonMsg>() {
            // A fresh map is progress: re-drive parked requests now rather
            // than waiting out pacing.
            if self.router.mdsmap.follow(ctx, &mon) == Some(true) {
                for reqid in self.inflight.unpark(|_| true) {
                    self.send_grant(ctx, reqid);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TOKEN_ARRIVAL => {
                if !self.running {
                    return;
                }
                self.stats.started += 1;
                let ino = self.pick_log(ctx);
                let reqid = self.next_reqid;
                self.next_reqid += 1;
                let flight = Flight {
                    ino,
                    sent: ctx.now(),
                };
                self.inflight.insert(reqid, flight, NO_DEADLINE);
                self.send_grant(ctx, reqid);
                self.arm_arrival(ctx);
            }
            TOKEN_RETRY => {
                while let Some(reqid) = self.inflight.pop_due(ctx) {
                    self.send_grant(ctx, reqid);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_consensus::{MapSnapshot, SERVICE_MAP_MDS};
    use mala_sim::Sim;

    const FLEET: NodeId = NodeId(1);
    const MDS: NodeId = NodeId(20);

    fn cfg(logs: usize, zipf_s: f64) -> FleetConfig {
        FleetConfig {
            mds_nodes: HashMap::from([(0, NodeId(20))]),
            home_rank: 0,
            monitor: NodeId(0),
            logs: (1..=logs as u64).collect(),
            clients: 1000,
            think: SimDuration::from_secs(1),
            zipf_s,
            series: "fleet".to_string(),
        }
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let fleet = OpenLoopFleet::new(cfg(64, 1.0));
        let cdf = &fleet.zipf_cdf;
        assert_eq!(cdf.len(), 64);
        assert!((cdf[63] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        // Head skew: the most popular log outweighs the uniform share.
        assert!(cdf[0] > 1.0 / 64.0 * 2.0);
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let fleet = OpenLoopFleet::new(cfg(10, 0.0));
        for (k, c) in fleet.zipf_cdf.iter().enumerate() {
            assert!((c - (k + 1) as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interarrival_matches_rate() {
        let fleet = OpenLoopFleet::new(cfg(1, 0.0));
        // 1000 clients thinking 1 s each → 1000 req/s → 1000 µs mean.
        assert!((fleet.mean_interarrival_us() - 1000.0).abs() < 1e-9);
    }

    /// A rank 0 that refuses every grant `Frozen` until `frozen_until`
    /// and grants after, noting when each request reached it.
    struct StandInMds {
        frozen_until: SimTime,
        seen: Vec<SimTime>,
    }

    impl Actor for StandInMds {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn std::any::Any>) {
            let Ok(msg) = msg.downcast::<MdsMsg>() else {
                return;
            };
            let MdsMsg::TypeOp { reqid, .. } = *msg else {
                return;
            };
            self.seen.push(ctx.now());
            let result = match ctx.now() < self.frozen_until {
                true => Err(MdsError::Frozen),
                false => Ok(self.seen.len() as u64),
            };
            let served_by = 0;
            ctx.send(
                from,
                MdsMsg::TypeOpReply {
                    reqid,
                    result,
                    served_by,
                },
            );
        }
    }

    /// A fleet at `cfg` and a stand-in rank 0, arrivals running for 100 ms.
    fn fleet_for_100ms(cfg: FleetConfig, frozen_until: SimTime) -> Sim {
        let mut sim = Sim::new(7);
        let seen = Vec::new();
        sim.add_node(MDS, StandInMds { frozen_until, seen });
        sim.add_node(FLEET, OpenLoopFleet::new(cfg));
        sim.run_until_idle();
        sim.with_actor::<OpenLoopFleet, _>(FLEET, |fleet, ctx| fleet.start(ctx));
        sim.run_for(SimDuration::from_millis(100));
        sim.with_actor::<OpenLoopFleet, _>(FLEET, |fleet, _| fleet.stop());
        sim
    }

    #[test]
    fn a_short_freeze_fails_no_request() {
        // Rank 0 is frozen for 300 ms: a request that backs off outlasts
        // it, one that re-sends every 5 ms spends 16 attempts in 80 ms.
        let frozen_until = SimTime::from_micros(300_000);
        let mut sim = fleet_for_100ms(cfg(4, 0.0), frozen_until);
        sim.run_for(SimDuration::from_secs(10));
        let stats = &sim.actor::<OpenLoopFleet>(FLEET).stats;
        assert!(stats.started > 50, "{stats:?}");
        assert!(stats.retries > 0, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.done, stats.started, "{stats:?}");
    }

    #[test]
    fn an_unroutable_rank_parks_requests_until_the_mdsmap() {
        // Rank 0 has no node until a snapshot names one.
        let mut cfg = cfg(4, 0.0);
        cfg.mds_nodes.clear();
        let mut sim = fleet_for_100ms(cfg, SimTime::ZERO);
        sim.run_for(SimDuration::from_millis(100));
        let withheld = sim.actor::<OpenLoopFleet>(FLEET).stats.started;
        assert!(withheld > 50, "{withheld} arrivals");
        assert!(sim.actor::<StandInMds>(MDS).seen.is_empty());
        let entries = [("mds.0".to_string(), b"node=20,up=1".to_vec())];
        let snap = MapSnapshot {
            map: SERVICE_MAP_MDS.to_string(),
            epoch: 1,
            entries: entries.into_iter().collect(),
        };
        let adopted = sim.now();
        sim.inject(FLEET, MonMsg::Snapshot(snap));
        sim.run_for(SimDuration::from_secs(1));
        let stats = &sim.actor::<OpenLoopFleet>(FLEET).stats;
        // Each withheld arrival counted once and went out on the snapshot,
        // not on a poll that happened to follow it.
        assert_eq!(stats.unroutable, withheld, "{stats:?}");
        assert_eq!(stats.done, withheld, "{stats:?}");
        let seen = &sim.actor::<StandInMds>(MDS).seen;
        assert_eq!(seen.len() as u64, withheld);
        let one_hop = SimDuration::from_millis(1);
        assert!(
            seen.iter().all(|at| at.since(adopted) < one_hop),
            "{seen:?}"
        );
    }
}
