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
//! from the monitor's mdsmap.
//!
//! One actor carries the whole fleet: a per-arrival timer with
//! exponential interarrival keeps the sim event count at O(requests),
//! not O(virtual clients).

use std::collections::{BTreeMap, HashMap};

use mala_consensus::{MonMsg, SERVICE_MAP_MDS};
use mala_mds::types::{MdsError, MdsMsg, SeqOp};
use mala_mds::Ino;
use mala_sim::{Actor, Context, NodeId, SimDuration, SimTime};
use mala_zlog::SeqRouter;
use rand::Rng;

const TOKEN_ARRIVAL: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// Per-request attempt budget (redirect ping-pong / transient errors).
const MAX_ATTEMPTS: u32 = 16;

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
    /// Pacing delay before transient errors re-send.
    pub retry_delay: SimDuration,
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
    /// Arrivals withheld because their rank was unroutable.
    pub unroutable: u64,
    /// Completions by serving rank (`served_by`).
    pub per_rank: BTreeMap<u32, u64>,
}

struct Flight {
    ino: Ino,
    sent: SimTime,
    attempts: u32,
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
    inflight: HashMap<u64, Flight>,
    /// Requests awaiting a paced re-send (transient error or
    /// unroutable rank).
    retry_q: Vec<Flight>,
    retry_armed: bool,
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
        let router = SeqRouter::new(cfg.mds_nodes.clone(), cfg.home_rank);
        let lat_series = format!("{}.lat_us", cfg.series);
        OpenLoopFleet {
            cfg,
            router,
            zipf_cdf: cdf,
            running: false,
            next_reqid: 1,
            inflight: HashMap::new(),
            retry_q: Vec::new(),
            retry_armed: false,
            lat_series,
            stats: FleetStats::default(),
        }
    }

    /// The routing state (tests: placement inspection).
    pub fn router(&self) -> &SeqRouter {
        &self.router
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

    fn send_grant(&mut self, ctx: &mut Context<'_>, flight: Flight) {
        match self.router.target(flight.ino) {
            Some(node) => {
                let reqid = self.next_reqid;
                self.next_reqid += 1;
                ctx.send(
                    node,
                    MdsMsg::TypeOp {
                        reqid,
                        ino: flight.ino,
                        op: SeqOp::Next,
                    },
                );
                self.inflight.insert(reqid, flight);
            }
            None => {
                // Unroutable rank: park until a fresh mdsmap arrives.
                self.stats.unroutable += 1;
                self.retry_q.push(flight);
                self.arm_retry(ctx);
            }
        }
    }

    fn arm_retry(&mut self, ctx: &mut Context<'_>) {
        if !self.retry_armed && !self.retry_q.is_empty() {
            self.retry_armed = true;
            ctx.set_timer(self.cfg.retry_delay, TOKEN_RETRY);
        }
    }

    fn drain_retries(&mut self, ctx: &mut Context<'_>) {
        let queued = std::mem::take(&mut self.retry_q);
        for flight in queued {
            self.send_grant(ctx, flight);
        }
    }

    fn requeue(&mut self, ctx: &mut Context<'_>, mut flight: Flight) {
        flight.attempts += 1;
        if flight.attempts > MAX_ATTEMPTS {
            self.stats.failed += 1;
            return;
        }
        self.stats.retries += 1;
        self.retry_q.push(flight);
        self.arm_retry(ctx);
    }
}

impl Actor for OpenLoopFleet {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.cfg.monitor,
            MonMsg::Subscribe {
                map: SERVICE_MAP_MDS.to_string(),
            },
        );
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
                    let Some(mut flight) = self.inflight.remove(&reqid) else {
                        return;
                    };
                    match result {
                        Ok(_) => {
                            self.stats.done += 1;
                            *self.stats.per_rank.entry(served_by).or_insert(0) += 1;
                            let us = ctx.now().since(flight.sent).as_micros() as f64;
                            ctx.metrics().observe_hist(&self.lat_series, us);
                        }
                        Err(MdsError::NotAuth { rank }) => {
                            // Stale placement: learn the new rank and
                            // re-send immediately — the redirect is the
                            // pacing.
                            self.stats.redirects += 1;
                            self.router.learn(flight.ino, rank);
                            flight.attempts += 1;
                            if flight.attempts > MAX_ATTEMPTS {
                                self.stats.failed += 1;
                            } else {
                                self.send_grant(ctx, flight);
                            }
                        }
                        Err(e) if e.is_retryable() => {
                            if let MdsError::MdsUnavailable { rank } = e {
                                self.router.invalidate_rank(rank);
                            }
                            self.requeue(ctx, flight);
                        }
                        Err(_) => self.stats.failed += 1,
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if let Ok(mon) = msg.downcast::<MonMsg>() {
            match &*mon {
                // A fresh map is progress: re-drive parked requests now
                // rather than waiting out pacing.
                MonMsg::Snapshot(snap)
                    if snap.map == SERVICE_MAP_MDS
                        && self.router.adopt_snapshot(snap)
                        && !self.retry_q.is_empty() =>
                {
                    self.drain_retries(ctx);
                }
                MonMsg::Changed { map, epoch, .. }
                    if map == SERVICE_MAP_MDS && self.router.needs_fetch(*epoch) =>
                {
                    ctx.send(
                        self.cfg.monitor,
                        MonMsg::Get {
                            map: SERVICE_MAP_MDS.to_string(),
                        },
                    );
                }
                _ => {}
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
                let flight = Flight {
                    ino,
                    sent: ctx.now(),
                    attempts: 0,
                };
                self.send_grant(ctx, flight);
                self.arm_arrival(ctx);
            }
            TOKEN_RETRY => {
                self.retry_armed = false;
                self.drain_retries(ctx);
                self.arm_retry(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            retry_delay: SimDuration::from_millis(5),
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
}
