//! What every workload shares: the metric tables, the measured-section
//! meter, end-to-end arithmetic and the trace analysis.

use std::collections::BTreeMap;

use mala_sim::{SimTime, SpanRecord};

use crate::alloc;
use crate::cluster::Cluster;
use crate::hostclock::{HostTime, Section};
use crate::stats::{self, Digest};
use crate::timed::Role;

/// How a per-layer metric is obtained, which decides whether reps of one
/// seed must agree on it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Program counter (or history/sample) delta over window + drain: exact
    /// on every rep.
    C,
    /// Simulated-clock span statistic of the traced run: exact on every
    /// traced rep.
    S,
    /// Host clock or allocator: noisy, reported as a median.
    H,
}

/// `(name, unit, better, bound)`; the same eleven on every workload.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("sim_goodput_ops_s", "1/s", "higher", 0.10),
    ("sim_p50_ms", "ms", "lower", 0.12),
    ("sim_p99_ms", "ms", "lower", 0.20),
    ("sim_slo_met_share", "share", "higher", 0.03),
    ("ok_share", "share", "higher", 0.01),
    ("sim_unavail_ms", "ms", "lower", 0.25),
    ("host_s_per_sim_s", "s/s", "lower", 0.25),
    ("host_allocs_per_op", "count", "lower", 0.10),
    ("host_alloc_kb_per_op", "KiB", "lower", 0.10),
    ("host_peak_heap_mb", "MiB", "lower", 0.05),
];

/// `(name, unit, better, kind)`, grouped by layer (= crate).
pub const PER_LAYER: &[(&str, &str, &str, Kind)] = &[
    ("sim.events_per_op", "count", "lower", Kind::C),
    ("sim.msgs_per_op", "count", "lower", Kind::C),
    ("sim.host_ns_per_event", "ns", "lower", Kind::H),
    ("sim.sched_host_share", "share", "lower", Kind::H),
    ("sim.allocs_per_event", "count", "lower", Kind::H),
    ("sim.metrics_incr_ns", "ns", "lower", Kind::H),
    ("sim.tracer_span_ns", "ns", "lower", Kind::H),
    ("sim.trace_overhead_share", "share", "lower", Kind::H),
    ("sim.spans_per_op", "count", "lower", Kind::S),
    ("sim.linearize_us_per_op", "us", "lower", Kind::H),
    ("sim.nemesis_faults", "count", "lower", Kind::C),
    ("dsl.class_write_batch_us", "us", "lower", Kind::H),
    ("dsl.class_read_batch_us", "us", "lower", Kind::H),
    ("dsl.compile_us", "us", "lower", Kind::H),
    ("consensus.map_commits", "count", "lower", Kind::C),
    ("consensus.proposals", "count", "lower", Kind::C),
    ("consensus.elections", "count", "lower", Kind::C),
    ("consensus.beacons_per_sim_s", "1/s", "lower", Kind::C),
    ("consensus.propose_p50_ms", "ms", "lower", Kind::S),
    ("consensus.failover_detect_ms", "ms", "lower", Kind::C),
    ("consensus.mon_host_share", "share", "lower", Kind::H),
    ("rados.osd_host_share", "share", "lower", Kind::H),
    ("rados.osd_host_us_per_call", "us", "lower", Kind::H),
    ("rados.osd_ops_per_op", "count", "lower", Kind::C),
    ("rados.journal_commits_per_op", "count", "lower", Kind::C),
    ("rados.txn_ops_per_commit", "count", "higher", Kind::C),
    ("rados.positions_per_read_batch", "count", "higher", Kind::C),
    ("rados.client_retries_per_op", "count", "lower", Kind::C),
    ("rados.client_timeouts", "count", "lower", Kind::C),
    ("rados.stale_epoch_rejects", "count", "lower", Kind::C),
    ("rados.op_p50_us", "us", "lower", Kind::S),
    ("rados.op_p99_us", "us", "lower", Kind::S),
    ("rados.osd_op_self_p50_us", "us", "lower", Kind::S),
    ("rados.journal_commit_p50_us", "us", "lower", Kind::S),
    ("rados.replica_ack_p50_us", "us", "lower", Kind::S),
    ("rados.backfill_objects", "count", "lower", Kind::C),
    ("rados.backfill_bytes", "count", "lower", Kind::C),
    ("rados.backfill_retries", "count", "lower", Kind::C),
    ("rados.journal_replays", "count", "lower", Kind::C),
    ("mds.host_share", "share", "lower", Kind::H),
    ("mds.host_us_per_call", "us", "lower", Kind::H),
    ("mds.typeops_per_op", "count", "lower", Kind::C),
    ("mds.journal_flushes_per_op", "count", "lower", Kind::C),
    ("mds.proxied_share", "share", "lower", Kind::C),
    ("mds.exports", "count", "lower", Kind::C),
    ("mds.cap_grants", "count", "lower", Kind::C),
    ("mds.cap_recalls", "count", "lower", Kind::C),
    ("mds.takeovers", "count", "lower", Kind::C),
    ("mds.seq_seals", "count", "lower", Kind::C),
    ("mds.typeop_p50_us", "us", "lower", Kind::S),
    ("mds.journal_p50_us", "us", "lower", Kind::S),
    ("mds.cap_grant_p50_us", "us", "lower", Kind::S),
    ("mds.grant_wait_p50_us", "us", "lower", Kind::S),
    ("mds.grant_wait_p99_us", "us", "lower", Kind::S),
    ("mds.rank_share_max", "share", "lower", Kind::S),
    ("mds.failover_window_ms", "ms", "lower", Kind::C),
    ("mds.duplicate_grants", "count", "lower", Kind::C),
    ("mantle.decide_calls", "count", "lower", Kind::C),
    ("mantle.decide_host_us_p50", "us", "lower", Kind::H),
    ("mantle.installs", "count", "lower", Kind::C),
    ("mantle.last_export_s", "s", "lower", Kind::C),
    ("zlog.client_host_share", "share", "lower", Kind::H),
    ("zlog.client_host_us_per_op", "us", "lower", Kind::H),
    ("zlog.queue_p50_us", "us", "lower", Kind::S),
    ("zlog.queue_p99_us", "us", "lower", Kind::S),
    ("zlog.grant_p50_us", "us", "lower", Kind::S),
    ("zlog.stripe_write_p50_us", "us", "lower", Kind::S),
    ("zlog.cursor_batch_p50_us", "us", "lower", Kind::S),
    ("zlog.batch_occupancy", "count", "higher", Kind::C),
    ("zlog.cursor_entries_per_batch", "count", "higher", Kind::C),
    ("zlog.redirects_per_op", "count", "lower", Kind::C),
    ("zlog.retries_per_op", "count", "lower", Kind::C),
    ("zlog.timeouts", "count", "lower", Kind::C),
    ("zlog.estale_retries", "count", "lower", Kind::C),
    ("zlog.mds_unroutable", "count", "lower", Kind::C),
    ("zlog.mdsmap_refetches", "count", "lower", Kind::C),
    ("zlog.hole_fills", "count", "lower", Kind::C),
    ("zlog.cursor_hole_fills", "count", "lower", Kind::C),
    ("zlog.duplicate_entries", "count", "lower", Kind::C),
    ("zlog.point_read_p50_us", "us", "lower", Kind::C),
    ("zlog.point_read_p99_us", "us", "lower", Kind::C),
    ("core.build_host_ms", "ms", "lower", Kind::H),
    ("core.settle_sim_ms", "ms", "lower", Kind::C),
];

/// `sim_unavail_ms` is the mean gap between successes over this share of the
/// window's instants, the worst ones (see `stats::worst_gap_mean` for why
/// not the longest gap).
pub const UNAVAIL_TAIL: f64 = 0.2;

/// The trace file holds at most this many spans (`mds_balance` opens 2.5
/// million in its window; all of them enter the statistics).
pub const TRACE_FILE_SPANS: usize = 200_000;

/// Per-rep switches.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    /// Tracer on, host clock read around every handler.
    pub traced: bool,
    /// Windows ÷ 4 for smoke runs; results are not comparable.
    pub quick: bool,
}

impl RepOpts {
    /// A window length in simulated microseconds under `--quick`.
    pub fn scale_us(&self, us: u64) -> u64 {
        if self.quick {
            us / 4
        } else {
            us
        }
    }
}

/// Values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// One rep's results.
pub struct Rep {
    /// All eleven end-to-end metrics.
    pub e2e: Values,
    /// The per-layer metrics this rep could measure.
    pub layers: Values,
    /// Primary operations due inside the window.
    pub attempted: u64,
    /// Of those, failed or unfinished at the end of the drain.
    pub failed: u64,
    /// Latency samples behind `sim_p50_ms`/`sim_p99_ms`.
    pub latency_n: usize,
    /// Correctness gates that did not hold (empty = correct).
    pub gate_failures: Vec<String>,
    /// Host time of window + drain: `host.seconds()` is the base of
    /// `host_s_per_sim_s`.
    pub host: HostTime,
    /// The traced rep's first [`TRACE_FILE_SPANS`] spans opened in the
    /// window, for the trace file, and how many the window opened in all.
    pub spans: Vec<SpanRecord>,
    pub spans_in_window: usize,
}

impl Rep {
    /// The values reps of one seed must agree on exactly: for `Kind::C` the
    /// simulated-clock end-to-end metrics, the operation counts and the
    /// counter layer metrics; for `Kind::S` the span layer metrics.
    pub fn exact_values(&self, kind: Kind) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        if kind == Kind::C {
            for (name, v) in &self.e2e {
                if name.starts_with("sim_") || *name == "ok_share" {
                    out.push((*name, *v));
                }
            }
            out.push(("attempted", self.attempted as f64));
            out.push(("failed", self.failed as f64));
        }
        for (name, _, _, k) in PER_LAYER {
            if *k == kind {
                if let Some(v) = self.layers.get(name) {
                    out.push((*name, *v));
                }
            }
        }
        out
    }

    /// Digest of [`Rep::exact_values`].
    pub fn digest(&self, kind: Kind) -> String {
        let mut d = Digest::default();
        for (name, v) in self.exact_values(kind) {
            d.add(name, v);
        }
        d.hex()
    }
}

/// Counter readings and clocks at the start of the measured section.
pub struct Meter {
    host: Section,
    sim: SimTime,
    alloc: alloc::Snapshot,
    counters: BTreeMap<String, u64>,
    calls: u64,
    role_calls: [u64; 4],
    role_nanos: [u64; 4],
    decides: usize,
}

const ROLES: [Role; 4] = [Role::Mon, Role::Osd, Role::Mds, Role::Client];

/// Deltas over the measured section (window + drain).
pub struct Measured {
    pub host: HostTime,
    pub sim_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Events dispatched to live nodes (handler calls of all roles).
    pub events: u64,
    counters: BTreeMap<String, u64>,
    role_calls: [u64; 4],
    role_nanos: [u64; 4],
    /// Host nanoseconds of each `Balancer::decide` call in the section.
    pub decide_ns: Vec<u64>,
}

impl Meter {
    pub fn start(cluster: &Cluster) -> Meter {
        let stats = &cluster.stats;
        // Calibration first, then the allocator reading, so that neither the
        // kernel's allocations nor its time are the section's.
        let host = Section::start();
        Meter {
            counters: cluster
                .sim
                .metrics()
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            calls: stats.total_calls(),
            role_calls: ROLES.map(|r| stats.calls(r)),
            role_nanos: ROLES.map(|r| stats.nanos(r)),
            decides: cluster.decide_log.borrow().len(),
            sim: cluster.sim.now(),
            alloc: alloc::snapshot(),
            host,
        }
    }

    pub fn finish(self, cluster: &Cluster) -> Measured {
        let alloc = alloc::snapshot();
        let host = self.host.finish();
        let stats = &cluster.stats;
        let counters = cluster
            .sim
            .metrics()
            .counters()
            .map(|(k, v)| {
                let before = self.counters.get(k).copied().unwrap_or(0);
                (k.to_string(), v - before)
            })
            .collect();
        let mut role_calls = ROLES.map(|r| stats.calls(r));
        let mut role_nanos = ROLES.map(|r| stats.nanos(r));
        for i in 0..ROLES.len() {
            role_calls[i] -= self.role_calls[i];
            role_nanos[i] -= self.role_nanos[i];
        }
        Measured {
            host,
            sim_s: cluster.sim.now().since(self.sim).as_secs_f64(),
            allocs: alloc.allocs - self.alloc.allocs,
            alloc_bytes: alloc.bytes - self.alloc.bytes,
            events: stats.total_calls() - self.calls,
            counters,
            role_calls,
            role_nanos,
            decide_ns: cluster.decide_log.borrow()[self.decides..].to_vec(),
        }
    }
}

impl Measured {
    /// Counter delta over the measured section (0 if never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the end-to-end arithmetic needs from a workload, in simulated
/// microseconds.
pub struct Outcome {
    pub window: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the attempted operations that completed OK.
    pub latencies_us: Vec<u64>,
    pub slo_us: u64,
    /// Units of primary work completed OK inside the window.
    pub goodput_units: u64,
    /// Instants inside the window at which primary work completed OK.
    pub completions_us: Vec<u64>,
}

/// Fills the eleven end-to-end metrics and the layer metrics every
/// workload derives the same way from counters and wrappers.
pub fn assemble(
    cluster: &Cluster,
    opts: RepOpts,
    setup_s: f64,
    heap_base: u64,
    m: &Measured,
    mut out: Outcome,
) -> Rep {
    let mut gate_failures = Vec::new();
    let attempted = out.attempted.max(1) as f64;
    let window_s = (out.window.1 - out.window.0) as f64 / 1e6;
    out.latencies_us.sort_unstable();
    out.completions_us.sort_unstable();
    let lat = &out.latencies_us;
    let met = lat.partition_point(|l| *l <= out.slo_us);
    if stats::samples_beyond(lat.len(), 0.99) < 10 && !opts.quick {
        gate_failures.push(format!(
            "p99 unresolved: {} latency samples leave fewer than 10 beyond it",
            lat.len()
        ));
    }
    let q_ms = |q: f64| stats::quantile_sorted(lat, q).unwrap_or(0) as f64 / 1e3;

    let mut e2e = Values::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("sim_goodput_ops_s", out.goodput_units as f64 / window_s);
    e2e.insert("sim_p50_ms", q_ms(0.5));
    e2e.insert("sim_p99_ms", q_ms(0.99));
    e2e.insert("sim_slo_met_share", met as f64 / attempted);
    e2e.insert(
        "ok_share",
        (out.attempted - out.failed.min(out.attempted)) as f64 / attempted,
    );
    e2e.insert(
        "sim_unavail_ms",
        stats::worst_gap_mean(
            out.window.0,
            out.window.1,
            &out.completions_us,
            UNAVAIL_TAIL,
        ) / 1e3,
    );
    e2e.insert("host_s_per_sim_s", ratio(m.host.seconds(), m.sim_s));
    e2e.insert("host_allocs_per_op", m.allocs as f64 / attempted);
    e2e.insert(
        "host_alloc_kb_per_op",
        m.alloc_bytes as f64 / 1024.0 / attempted,
    );
    e2e.insert(
        "host_peak_heap_mb",
        alloc::peak_bytes().saturating_sub(heap_base) as f64 / (1024.0 * 1024.0),
    );

    let mut l = Values::new();
    let c = |name: &str| m.counter(name);
    l.insert("sim.events_per_op", m.events as f64 / attempted);
    l.insert("sim.msgs_per_op", c("sim.messages_sent") / attempted);
    l.insert(
        "sim.allocs_per_event",
        ratio(m.allocs as f64, m.events as f64),
    );
    l.insert("sim.nemesis_faults", c("nemesis.faults"));
    l.insert("consensus.map_commits", c("mon.map_commits"));
    l.insert("consensus.proposals", c("mon.proposals"));
    l.insert("consensus.elections", c("mon.elections"));
    l.insert(
        "consensus.beacons_per_sim_s",
        ratio(c("mon.mds_beacons"), m.sim_s),
    );
    l.insert("rados.osd_ops_per_op", c("osd.ops") / attempted);
    l.insert(
        "rados.journal_commits_per_op",
        c("osd.journal_commits") / attempted,
    );
    l.insert(
        "rados.txn_ops_per_commit",
        ratio(c("osd.txn_ops"), c("osd.journal_commits")),
    );
    l.insert(
        "rados.positions_per_read_batch",
        ratio(c("rados.read_batch_positions"), c("rados.read_batch_ops")),
    );
    l.insert(
        "rados.client_retries_per_op",
        c("client.retries") / attempted,
    );
    l.insert("rados.client_timeouts", c("client.timeouts"));
    l.insert("rados.stale_epoch_rejects", c("osd.stale_epoch_rejects"));
    l.insert("rados.backfill_objects", c("osd.backfill_objects"));
    l.insert("rados.backfill_bytes", c("osd.backfill_bytes"));
    l.insert("rados.backfill_retries", c("osd.backfill_retries"));
    l.insert("rados.journal_replays", c("osd.journal_replays"));
    l.insert("mds.typeops_per_op", c("mds.typeops") / attempted);
    l.insert(
        "mds.journal_flushes_per_op",
        c("mds.journal_flushes") / attempted,
    );
    l.insert(
        "mds.proxied_share",
        ratio(c("mds.proxied"), c("mds.typeops")),
    );
    l.insert("mds.exports", c("mds.exports"));
    l.insert("mds.cap_grants", c("mds.cap_grants"));
    l.insert("mds.cap_recalls", c("mds.cap_recalls"));
    l.insert("mds.takeovers", c("mds.takeovers"));
    l.insert("mds.seq_seals", c("mds.seq_seals"));
    l.insert("mantle.decide_calls", m.decide_ns.len() as f64);
    l.insert("mantle.installs", c("mds.mantle_installs"));
    l.insert(
        "zlog.batch_occupancy",
        ratio(
            c("zlog.pos_grants") + c("zlog.grants_saved"),
            c("zlog.pos_grants"),
        ),
    );
    l.insert("zlog.redirects_per_op", c("zlog.redirects") / attempted);
    l.insert("zlog.retries_per_op", c("zlog.retries") / attempted);
    l.insert("zlog.timeouts", c("zlog.timeouts"));
    l.insert("zlog.estale_retries", c("zlog.estale_retries"));
    l.insert("zlog.mds_unroutable", c("zlog.mds_unroutable"));
    l.insert("zlog.mdsmap_refetches", c("zlog.mdsmap_refetches"));
    l.insert("zlog.hole_fills", c("zlog.hole_fills"));
    l.insert("zlog.cursor_hole_fills", c("zlog.cursor_hole_fills"));
    l.insert("core.settle_sim_ms", cluster.settle.as_millis_f64());
    let mut decide = m.decide_ns.clone();
    l.insert(
        "mantle.decide_host_us_p50",
        stats::quantile(&mut decide, 0.5).unwrap_or(0) as f64 / 1e3,
    );

    let mut spans = Vec::new();
    let mut spans_in_window = 0;
    if opts.traced {
        // The wrappers read the wall clock around each handler, so shares
        // are taken of the section's wall time.
        let total_ns = m.host.wall_s * 1e9;
        let handler_ns: u64 = m.role_nanos.iter().sum();
        l.insert(
            "sim.sched_host_share",
            ratio(total_ns - handler_ns as f64, total_ns),
        );
        let share = |i: usize| ratio(m.role_nanos[i] as f64, total_ns);
        let per_call = |i: usize| ratio(m.role_nanos[i] as f64 / 1e3, m.role_calls[i] as f64);
        l.insert("consensus.mon_host_share", share(0));
        l.insert("rados.osd_host_share", share(1));
        l.insert("rados.osd_host_us_per_call", per_call(1));
        l.insert("mds.host_share", share(2));
        l.insert("mds.host_us_per_call", per_call(2));
        l.insert("zlog.client_host_share", share(3));
        l.insert(
            "zlog.client_host_us_per_op",
            m.role_nanos[3] as f64 / 1e3 / attempted,
        );
        let mds_calls: Vec<u64> = (0..cluster.topo.mds_ranks)
            .map(|r| cluster.stats.node_calls(crate::cluster::mds_node(r)))
            .chain(
                (0..cluster.topo.standby_mds)
                    .map(|i| cluster.stats.node_calls(crate::cluster::standby_node(i))),
            )
            .collect();
        l.insert(
            "mds.rank_share_max",
            ratio(
                mds_calls.iter().copied().max().unwrap_or(0) as f64,
                mds_calls.iter().sum::<u64>() as f64,
            ),
        );
        let all = cluster.sim.tracer().spans();
        span_metrics(all, out.window.0, attempted, &mut l);
        let opened = |s: &&SpanRecord| s.start.as_micros() >= out.window.0;
        spans_in_window = all.iter().filter(opened).count();
        spans = all
            .iter()
            .filter(opened)
            .take(TRACE_FILE_SPANS)
            .cloned()
            .collect();
    } else {
        l.insert(
            "sim.host_ns_per_event",
            ratio(m.host.seconds() * 1e9, m.events as f64),
        );
    }

    Rep {
        e2e,
        layers: l,
        attempted: out.attempted,
        failed: out.failed,
        latency_n: lat.len(),
        gate_failures,
        host: m.host,
        spans,
        spans_in_window,
    }
}

/// Simulated-clock span statistics of one traced rep: exact percentiles of
/// the spans opened at or after `from_us`, and self times.
fn span_metrics(spans: &[SpanRecord], from_us: u64, attempted: f64, l: &mut Values) {
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    // Children's intervals by parent span id.
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut typeop_in_grant: BTreeMap<u64, u64> = BTreeMap::new();
    let mut in_window = 0u64;
    for s in spans {
        let (Some(end), true) = (s.end, s.start.as_micros() >= from_us) else {
            continue;
        };
        in_window += 1;
        let (start, end) = (s.start.as_micros(), end.as_micros());
        by_name
            .entry(s.name.as_str())
            .or_default()
            .push(end - start);
        if let Some(parent) = s.parent {
            children.entry(parent.0).or_default().push((start, end));
            if s.name == "mds.typeop" {
                *typeop_in_grant.entry(parent.0).or_insert(0) += end - start;
            }
        }
    }
    l.insert("sim.spans_per_op", in_window as f64 / attempted);
    let mut osd_self = Vec::new();
    let mut grant_wait = Vec::new();
    for s in spans {
        let (Some(end), true) = (s.end, s.start.as_micros() >= from_us) else {
            continue;
        };
        let (start, end) = (s.start.as_micros(), end.as_micros());
        match s.name.as_str() {
            "osd.op" => {
                let mut kids = children.remove(&s.id.0).unwrap_or_default();
                osd_self.push(stats::self_time(start, end, &mut kids));
            }
            // Grant time not spent executing the type op on the MDS:
            // network both ways plus the wait in the MDS queue.
            "zlog.grant" => {
                let served = typeop_in_grant.get(&s.id.0).copied().unwrap_or(0);
                grant_wait.push((end - start).saturating_sub(served));
            }
            _ => {}
        }
    }
    let mut q = |name: &str, q: f64| -> f64 {
        by_name
            .get_mut(name)
            .and_then(|v| stats::quantile(v, q))
            .unwrap_or(0) as f64
    };
    l.insert("consensus.propose_p50_ms", q("mon.propose", 0.5) / 1e3);
    l.insert("rados.op_p50_us", q("rados.op", 0.5));
    l.insert("rados.op_p99_us", q("rados.op", 0.99));
    l.insert("rados.journal_commit_p50_us", q("osd.journal_commit", 0.5));
    l.insert("rados.replica_ack_p50_us", q("osd.replica_ack", 0.5));
    l.insert("mds.typeop_p50_us", q("mds.typeop", 0.5));
    l.insert("mds.journal_p50_us", q("mds.journal", 0.5));
    l.insert("mds.cap_grant_p50_us", q("mds.cap_grant", 0.5));
    l.insert("zlog.queue_p50_us", q("zlog.queue", 0.5));
    l.insert("zlog.queue_p99_us", q("zlog.queue", 0.99));
    l.insert("zlog.grant_p50_us", q("zlog.grant", 0.5));
    l.insert("zlog.stripe_write_p50_us", q("zlog.stripe_write", 0.5));
    l.insert("zlog.cursor_batch_p50_us", q("zlog.cursor_batch", 0.5));
    let pick = |v: &mut Vec<u64>, q: f64| stats::quantile(v, q).unwrap_or(0) as f64;
    l.insert("rados.osd_op_self_p50_us", pick(&mut osd_self, 0.5));
    l.insert("mds.grant_wait_p50_us", pick(&mut grant_wait, 0.5));
    l.insert("mds.grant_wait_p99_us", pick(&mut grant_wait, 0.99));
}
