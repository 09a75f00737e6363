//! Sequencer clients: obtain log positions in either of the paper's two
//! access modes.
//!
//! * [`SeqMode::Cached`] — the client asks the MDS for an exclusive,
//!   cacheable capability on the sequencer inode and increments the tail
//!   locally while holding it, yielding on recall / quota exhaustion /
//!   hold expiry. This is the mode behind Figures 5–7: throughput and
//!   latency are set by how long the capability stays put.
//! * [`SeqMode::RoundTrip`] — every position is a round trip to the
//!   authoritative MDS (the Shared Resource interface "forcing clients to
//!   make round-trips", §6.2). This is the mode behind Figures 9–12,
//!   where the interesting dynamics are on the server side.
//!
//! # Metrics encoding
//!
//! Recording one sample per position would swamp the simulator (cached
//! holders take millions of positions per simulated minute), so positions
//! are recorded in aggregate:
//!
//! * `<series>.batch` — one sample per completed local run: time = run
//!   end, value = positions obtained in the run. Local ops within a run
//!   each cost `op_time`, so the run also defines a hold segment
//!   `[at - n·op_time, at]` (Figure 5's timeline).
//! * `<series>.wait` — one sample per capability exchange: time = grant,
//!   value = µs from the previous position to the first position of the
//!   new run (the latency tail Figures 6–7 study).
//! * `<series>.ops` — round-trip mode: one sample per 100 ms window,
//!   value = positions completed in the window; plus `<series>.rtlat`
//!   with one *sampled* per-op latency every 64 ops (for CDFs).

use std::any::Any;
use std::collections::HashMap;

use mala_mds::types::{MdsMsg, SeqOp};
use mala_mds::Ino;
use mala_sim::actor::TimerHandle;
use mala_sim::{Actor, Context, NodeId, SimDuration, SimTime};

/// How the client obtains positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqMode {
    /// Round trip to the MDS per position.
    RoundTrip,
    /// Bulk-grant round trips: each trip is a `GetPosBatch { n }`
    /// reserving `n` contiguous positions, amortizing the RPC the way the
    /// pipelined append path does. Cached/hold semantics are untouched —
    /// this is still the round-trip (Shared Resource) access mode, just
    /// `n` positions per trip.
    Batched {
        /// Positions reserved per round trip.
        n: u64,
    },
    /// Capability-cached local increments, each costing `op_time` locally.
    Cached {
        /// Local cost of one increment while holding the capability.
        op_time: SimDuration,
    },
}

/// Aggregate counters exposed to harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Positions obtained.
    pub ops: u64,
    /// Capability grants received (cached mode).
    pub grants: u64,
    /// Recalls honoured (cached mode).
    pub recalls: u64,
    /// Redirects followed (round-trip client mode).
    pub redirects: u64,
    /// Highest position obtained.
    pub last_pos: u64,
}

struct Holding {
    tail: u64,
    quota_left: Option<u64>,
    deadline: Option<SimTime>,
    /// An in-progress local run: `(started, planned_ops, timer)`.
    batch: Option<(SimTime, u64, TimerHandle)>,
}

const TOKEN_BATCH: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// Upper bound on one local run, so unbounded holds still surface
/// periodic progress samples.
const MAX_BATCH: u64 = 50_000;

/// Round-trip throughput window.
const RT_WINDOW: SimDuration = SimDuration::from_millis(100);

/// The series a client records into, named once: a sample looks its
/// series up by name, and formatting the name per sample allocated.
struct SeriesNames {
    ops: String,
    rtlat: String,
    batch: String,
    wait: String,
}

impl SeriesNames {
    fn new(prefix: &str) -> SeriesNames {
        SeriesNames {
            ops: format!("{prefix}.ops"),
            rtlat: format!("{prefix}.rtlat"),
            batch: format!("{prefix}.batch"),
            wait: format!("{prefix}.wait"),
        }
    }
}

/// A closed-loop sequencer workload client.
pub struct SeqWorkload {
    /// MDS rank → node, for routing and redirects.
    mds_nodes: HashMap<u32, NodeId>,
    /// Current target node (home rank at start; may follow redirects).
    target: NodeId,
    ino: Ino,
    mode: SeqMode,
    series: SeriesNames,
    running: bool,
    next_reqid: u64,
    inflight_reqid: Option<u64>,
    last_sent: SimTime,
    last_pos_at: SimTime,
    holding: Option<Holding>,
    // Round-trip aggregation.
    rt_window_start: SimTime,
    rt_window_count: u64,
    /// A recall arrived before its grant (wire reordering): honour it as
    /// soon as the grant lands.
    recall_pending: bool,
    /// Statistics counters.
    pub stats: SeqStats,
}

impl SeqWorkload {
    /// Creates a workload client targeting `home_rank` for inode `ino`.
    ///
    /// `series` prefixes the metric series this client records into.
    pub fn new(
        mds_nodes: HashMap<u32, NodeId>,
        home_rank: u32,
        ino: Ino,
        mode: SeqMode,
        series: impl Into<String>,
    ) -> SeqWorkload {
        let target = mds_nodes[&home_rank];
        SeqWorkload {
            mds_nodes,
            target,
            ino,
            mode,
            series: SeriesNames::new(&series.into()),
            running: false,
            next_reqid: 1,
            inflight_reqid: None,
            last_sent: SimTime::ZERO,
            last_pos_at: SimTime::ZERO,
            holding: None,
            rt_window_start: SimTime::ZERO,
            rt_window_count: 0,
            recall_pending: false,
            stats: SeqStats::default(),
        }
    }

    /// Starts the closed loop.
    pub fn start(&mut self, ctx: &mut Context<'_>) {
        if self.running {
            return;
        }
        self.running = true;
        self.last_pos_at = ctx.now();
        self.rt_window_start = ctx.now();
        match self.mode {
            SeqMode::RoundTrip | SeqMode::Batched { .. } => self.send_next(ctx),
            SeqMode::Cached { .. } => self.request_cap(ctx),
        }
    }

    /// Stops issuing new work (in-flight requests drain naturally).
    pub fn stop(&mut self, ctx: &mut Context<'_>) {
        self.running = false;
        if self.holding.is_some() {
            self.settle_batch(ctx);
            self.release_cap(ctx);
        }
        self.flush_rt_window(ctx, true);
    }

    // ---- round-trip mode ----

    fn send_next(&mut self, ctx: &mut Context<'_>) {
        if !self.running {
            return;
        }
        let reqid = self.next_reqid;
        self.next_reqid += 1;
        self.inflight_reqid = Some(reqid);
        self.last_sent = ctx.now();
        let msg = match self.mode {
            SeqMode::Batched { n } => MdsMsg::get_pos_batch(reqid, self.ino, n.max(1)),
            _ => MdsMsg::TypeOp {
                reqid,
                ino: self.ino,
                op: SeqOp::Next,
            },
        };
        ctx.send(self.target, msg);
    }

    fn flush_rt_window(&mut self, ctx: &mut Context<'_>, force: bool) {
        let now = ctx.now();
        if !force && now.saturating_since(self.rt_window_start) < RT_WINDOW {
            return;
        }
        if self.rt_window_count > 0 {
            let count = self.rt_window_count;
            ctx.metrics().observe(&self.series.ops, now, count as f64);
        }
        self.rt_window_start = now;
        self.rt_window_count = 0;
    }

    fn record_rt_pos(&mut self, ctx: &mut Context<'_>, pos: u64) {
        self.record_rt_range(ctx, pos, 1);
    }

    /// Accounts a granted range `[first, first + n)` from one round trip
    /// (`n == 1` for plain `next`).
    fn record_rt_range(&mut self, ctx: &mut Context<'_>, first: u64, n: u64) {
        let now = ctx.now();
        let before = self.stats.ops;
        self.stats.ops += n;
        self.stats.last_pos = self.stats.last_pos.max(first + n - 1);
        self.rt_window_count += n;
        if before / 64 != self.stats.ops / 64 {
            let lat = now.saturating_since(self.last_sent).as_micros() as f64;
            ctx.metrics().observe(&self.series.rtlat, now, lat);
        }
        self.last_pos_at = now;
        self.flush_rt_window(ctx, false);
    }

    // ---- cached mode ----

    fn request_cap(&mut self, ctx: &mut Context<'_>) {
        if !self.running {
            return;
        }
        ctx.send(self.target, MdsMsg::CapRequest { ino: self.ino });
    }

    /// Accounts the completed portion of an in-progress run (on recall or
    /// stop) without scheduling further work.
    fn settle_batch(&mut self, ctx: &mut Context<'_>) {
        let SeqMode::Cached { op_time } = self.mode else {
            return;
        };
        let Some(holding) = self.holding.as_mut() else {
            return;
        };
        let Some((started, planned, timer)) = holding.batch.take() else {
            return;
        };
        ctx.cancel_timer(timer);
        let elapsed = ctx.now().saturating_since(started).as_micros();
        let done = if op_time.as_micros() == 0 {
            planned
        } else {
            (elapsed / op_time.as_micros()).min(planned)
        };
        if done > 0 {
            holding.tail += done;
            if let Some(q) = holding.quota_left.as_mut() {
                *q = q.saturating_sub(done);
            }
            self.stats.ops += done;
            self.stats.last_pos = self.stats.last_pos.max(holding.tail - 1);
            let end = started + SimDuration::from_micros(done * op_time.as_micros());
            self.last_pos_at = end;
            ctx.metrics().observe(&self.series.batch, end, done as f64);
        }
    }

    fn start_batch(&mut self, ctx: &mut Context<'_>) {
        let SeqMode::Cached { op_time } = self.mode else {
            return;
        };
        let now = ctx.now();
        let Some(holding) = self.holding.as_mut() else {
            return;
        };
        let mut n = holding.quota_left.unwrap_or(MAX_BATCH).min(MAX_BATCH);
        if let Some(deadline) = holding.deadline {
            let budget = deadline.saturating_since(now).as_micros();
            let fit = if op_time.as_micros() == 0 {
                n
            } else {
                budget / op_time.as_micros()
            };
            n = n.min(fit);
        }
        if n == 0 {
            // Quota spent or hold expired: yield.
            self.release_cap(ctx);
            return;
        }
        let dur = SimDuration::from_micros(n * op_time.as_micros().max(1));
        let timer = ctx.set_timer(dur, TOKEN_BATCH);
        if let Some(holding) = self.holding.as_mut() {
            holding.batch = Some((now, n, timer));
        }
    }

    fn finish_batch(&mut self, ctx: &mut Context<'_>) {
        self.settle_batch(ctx);
        let Some(holding) = self.holding.as_ref() else {
            return;
        };
        let quota_done = holding.quota_left == Some(0);
        let hold_done = holding.deadline.map(|d| ctx.now() >= d).unwrap_or(false);
        if !self.running || quota_done || hold_done {
            self.release_cap(ctx);
        } else {
            self.start_batch(ctx);
        }
    }

    fn release_cap(&mut self, ctx: &mut Context<'_>) {
        if let Some(mut holding) = self.holding.take() {
            if let Some((_, _, timer)) = holding.batch.take() {
                ctx.cancel_timer(timer);
            }
            ctx.send(
                self.target,
                MdsMsg::CapRelease {
                    ino: self.ino,
                    state: holding.tail,
                },
            );
        }
        // Closed loop: immediately contend again.
        self.request_cap(ctx);
    }
}

impl Actor for SeqWorkload {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        let Ok(msg) = msg.downcast::<MdsMsg>() else {
            return;
        };
        match *msg {
            MdsMsg::TypeOpReply { reqid, result, .. } => {
                if Some(reqid) != self.inflight_reqid {
                    return;
                }
                self.inflight_reqid = None;
                match result {
                    Ok(first) => {
                        match self.mode {
                            SeqMode::Batched { n } => self.record_rt_range(ctx, first, n.max(1)),
                            _ => self.record_rt_pos(ctx, first),
                        }
                        self.send_next(ctx);
                    }
                    Err(mala_mds::types::MdsError::NotAuth { rank }) => {
                        // Client mode: follow the redirect.
                        if let Some(node) = self.mds_nodes.get(&rank) {
                            self.target = *node;
                            self.stats.redirects += 1;
                        }
                        self.send_next(ctx);
                    }
                    Err(mala_mds::types::MdsError::Frozen) => {
                        // Mid-migration: back off briefly.
                        ctx.set_timer(SimDuration::from_millis(5), TOKEN_RETRY);
                    }
                    Err(_) => {
                        // Unexpected (e.g. racing namespace setup): retry.
                        ctx.set_timer(SimDuration::from_millis(20), TOKEN_RETRY);
                    }
                }
            }
            MdsMsg::CapGrant {
                ino,
                state,
                quota,
                max_hold,
            } => {
                if ino != self.ino || !self.running {
                    return;
                }
                self.stats.grants += 1;
                // The exchange latency: time from the previous position to
                // being able to take the next one.
                let wait_us = ctx.now().saturating_since(self.last_pos_at).as_micros() as f64;
                let now = ctx.now();
                ctx.metrics().observe(&self.series.wait, now, wait_us);
                self.holding = Some(Holding {
                    tail: state,
                    quota_left: quota,
                    deadline: max_hold.map(|h| ctx.now() + h),
                    batch: None,
                });
                if self.recall_pending {
                    // A recall overtook this grant on the wire: take one
                    // position (the paper's "release at the next op
                    // boundary") and yield.
                    self.recall_pending = false;
                    if let Some(h) = self.holding.as_mut() {
                        h.quota_left = Some(h.quota_left.unwrap_or(1).min(1));
                    }
                }
                self.start_batch(ctx);
            }
            MdsMsg::CapRecall { ino } => {
                if ino != self.ino {
                    return;
                }
                self.stats.recalls += 1;
                if self.holding.is_some() {
                    self.settle_batch(ctx);
                    self.release_cap(ctx);
                } else {
                    self.recall_pending = true;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TOKEN_BATCH => self.finish_batch(ctx),
            TOKEN_RETRY if self.inflight_reqid.is_none() => {
                self.send_next(ctx);
            }
            _ => {}
        }
    }
}
