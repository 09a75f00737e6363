//! Multi-log scale-out: aggregate grant throughput and tail latency as
//! sequencers spread across MDS ranks, under an *open-loop* fleet.
//!
//! The paper's sequencer experiments (Figs. 9–12) drive a handful of
//! closed-loop clients; a closed loop can never overload the service, so
//! it cannot show where the metadata path stops scaling. This experiment
//! pins a fleet of 10⁴–10⁶ virtual clients ([`crate::openloop`]) with
//! Zipfian log popularity against 1–4 ranks and sweeps three axes:
//!
//! * **ranks** at fixed fleet size — the scale-out curve (the acceptance
//!   bar is ≥2× ops/s from 1 → 4 ranks),
//! * **logs** at fixed ranks/fleet — contention vs. spread,
//! * **clients** at fixed ranks/logs — the saturation knee: offered load
//!   crosses capacity and p99 departs.
//!
//! Placement is operator-driven: logs are exported greedily by Zipf
//! weight (longest-processing-time onto the least-loaded rank, scaled by
//! each rank's service rate), so the hottest logs spread out and rank 0
//! — which pays the coordination (`admin`) surcharge while the namespace
//! is split — takes a smaller share. Clients find placements through
//! `NotAuth` redirects and keep them in a [`mala_zlog::SeqRouter`] — the
//! tentpole routing layer this run exercises at fleet scale.
//!
//! The MDS cost model is recalibrated for fleet scale: the default
//! `coherence` surcharge (180 µs) models per-request scatter-gather over
//! a *handful* of hot inodes; across thousands of sequencers the
//! coherence traffic batches and amortizes, so the per-request surcharge
//! drops to ~20 µs (same for rank 0's `admin` share). The default model
//! is untouched — Figs. 10/12 still run the conservative costs.

use mala_mds::{MdsConfig, MdsCostModel, MdsMsg, ServeStyle};
use mala_sim::SimDuration;
use malacology::cluster::ClusterBuilder;

use crate::openloop::{FleetConfig, OpenLoopFleet};
use crate::report::{self, Json};
use crate::workload::{create_sequencers, AdminClient};
use crate::{ensure, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Rank counts for the scale-out series (fixed logs/clients).
    pub rank_sweep: Vec<u32>,
    /// Log counts for the contention series (fixed ranks/clients).
    pub log_sweep: Vec<u32>,
    /// Fleet sizes for the saturation series (fixed ranks/logs).
    pub client_sweep: Vec<u64>,
    /// Ranks used by the log and client sweeps.
    pub sweep_ranks: u32,
    /// Logs used by the rank and client sweeps.
    pub fixed_logs: u32,
    /// Fleet size used by the rank and log sweeps.
    pub fixed_clients: u64,
    /// Per-virtual-client think time (fleet rate = clients / think).
    pub think: SimDuration,
    /// Measurement window per point.
    pub measure: SimDuration,
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    /// MDS ranks serving the namespace.
    pub ranks: u32,
    /// Sequencer logs.
    pub logs: u32,
    /// Virtual open-loop clients.
    pub clients: u64,
    /// Offered load (arrivals/s), independent of service latency.
    pub offered_per_sec: f64,
    /// Grants completed in the window.
    pub done: u64,
    /// Completed grants per second.
    pub ops_per_sec: f64,
    /// Median grant latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile grant latency (ms).
    pub p99_ms: f64,
    /// `NotAuth` redirects followed (placement discovery).
    pub redirects: u64,
    /// Transient-error retries.
    pub retries: u64,
    /// Requests dropped after the attempt budget (must stay 0).
    pub failed: u64,
    /// Fraction of completions served by each rank.
    pub rank_shares: Vec<(u32, f64)>,
}

/// Run results: the three series.
#[derive(Debug, Clone)]
pub struct Data {
    /// Scale-out series (vs. ranks).
    pub rank_series: Vec<Point>,
    /// Contention series (vs. logs).
    pub log_series: Vec<Point>,
    /// Saturation series (vs. clients).
    pub client_series: Vec<Point>,
    /// `ops_per_sec(max ranks) / ops_per_sec(1 rank)` from the rank
    /// series (the ≥2× acceptance bar).
    pub rank_scaling: f64,
}

/// Zipf exponent of log popularity.
const ZIPF_S: f64 = 0.6;

/// Fleet-scale cost model: coherence batched and amortized across
/// thousands of inodes (see module docs). `settle` is shortened to match
/// so measurement starts after import load decays.
pub fn fleet_costs() -> MdsCostModel {
    MdsCostModel {
        coherence: SimDuration::from_micros(20),
        admin: SimDuration::from_micros(20),
        settle: SimDuration::from_millis(500),
        ..MdsCostModel::default()
    }
}

/// Runs one point: build a cluster, spread `logs` sequencers across
/// `ranks`, drive the open-loop fleet for the measurement window.
fn run_point(config: &Config, ranks: u32, logs: u32, clients: u64) -> Point {
    let (think, measure) = (config.think, config.measure);
    let mds_config = MdsConfig {
        costs: fleet_costs(),
        // Placement is operator-driven here; keep the balancer out.
        balance_interval: SimDuration::from_secs(3600),
        ..MdsConfig::default()
    };
    let mut cluster = ClusterBuilder::new()
        .monitors(1)
        .mds_ranks(ranks)
        .mds_config(mds_config)
        .rados_clients(0)
        .build(config.seed);

    // Namespace setup: /fleet plus one sequencer per log, all on rank 0.
    let (admin, inos) = create_sequencers(&mut cluster, "fleet", "l", logs, 1000);
    let mds0 = cluster.mds_node(0);

    // Spread the logs by popularity: greedy longest-processing-time
    // assignment of each log's Zipf weight onto the rank whose projected
    // busy time stays lowest. Rank 0 serves split-namespace requests
    // slower (it pays the admin surcharge on top of coherence), so it
    // naturally takes a smaller share and the Zipf head lands elsewhere.
    // Exports are Direct style: clients discover placements through
    // NotAuth redirects.
    let costs = fleet_costs();
    let direct_secs = |r: u32| {
        let base = costs.handle + costs.find + costs.coherence;
        let c = if r == 0 { base + costs.admin } else { base };
        c.as_secs_f64()
    };
    let mut load = vec![0.0f64; ranks as usize];
    for (k, &ino) in inos.iter().enumerate() {
        let w = 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        let busy = |r: &u32| (load[*r as usize] + w) * direct_secs(*r);
        let target = (0..ranks)
            .min_by(|a, b| busy(a).total_cmp(&busy(b)))
            .unwrap_or(0);
        load[target as usize] += w;
        if target == 0 {
            continue;
        }
        cluster
            .sim
            .with_actor::<AdminClient, _>(admin, move |_, ctx| {
                ctx.send(
                    mds0,
                    MdsMsg::AdminExport {
                        ino,
                        target,
                        style: ServeStyle::Direct,
                    },
                );
            });
    }
    // Let exports commit and the import settle window decay.
    cluster.sim.run_for(SimDuration::from_millis(1500));

    // The fleet.
    let fleet_node = cluster.alloc_node();
    let fleet = OpenLoopFleet::new(FleetConfig {
        mds_nodes: cluster.mds_nodes(),
        home_rank: 0,
        monitor: cluster.mon(),
        logs: inos,
        clients,
        think,
        zipf_s: ZIPF_S,
        series: "fleet".to_string(),
    });
    cluster.sim.add_node(fleet_node, fleet);
    cluster.sim.run_for(SimDuration::from_millis(50));
    cluster
        .sim
        .with_actor::<OpenLoopFleet, _>(fleet_node, |f, ctx| f.start(ctx));
    cluster.sim.run_for(measure);
    cluster
        .sim
        .with_actor::<OpenLoopFleet, _>(fleet_node, |f, _| f.stop());

    let stats = cluster.sim.actor::<OpenLoopFleet>(fleet_node).stats.clone();
    let (p50_ms, p99_ms) = match cluster.sim.metrics().hist("fleet.lat_us") {
        Some(h) if h.count() > 0 => (
            h.quantile(0.50).unwrap_or(0.0) / 1e3,
            h.quantile(0.99).unwrap_or(0.0) / 1e3,
        ),
        _ => (0.0, 0.0),
    };
    let secs = measure.as_secs_f64();
    let total_done = stats.done.max(1) as f64;
    Point {
        ranks,
        logs,
        clients,
        offered_per_sec: clients as f64 / think.as_secs_f64(),
        done: stats.done,
        ops_per_sec: stats.done as f64 / secs,
        p50_ms,
        p99_ms,
        redirects: stats.redirects,
        retries: stats.retries,
        failed: stats.failed,
        rank_shares: stats
            .per_rank
            .iter()
            .map(|(r, n)| (*r, *n as f64 / total_done))
            .collect(),
    }
}

fn point_row(p: &Point) -> Vec<String> {
    let shares = p
        .rank_shares
        .iter()
        .map(|(r, s)| format!("r{r}:{:.0}%", s * 100.0))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        p.ranks.to_string(),
        p.logs.to_string(),
        p.clients.to_string(),
        format!("{:.0}", p.offered_per_sec),
        format!("{:.0}", p.ops_per_sec),
        format!("{:.2}", p.p50_ms),
        format!("{:.2}", p.p99_ms),
        p.redirects.to_string(),
        p.failed.to_string(),
        shares,
    ]
}

fn series_json(series: &[Point]) -> Json {
    Json::arr(series, |p| {
        Json::obj([
            ("ranks", Json::from(p.ranks)),
            ("logs", Json::from(p.logs)),
            ("clients", Json::from(p.clients)),
            ("offered_per_s", Json::Fixed(p.offered_per_sec, 1)),
            ("ops_per_s", Json::Fixed(p.ops_per_sec, 1)),
            ("p50_ms", Json::Fixed(p.p50_ms, 3)),
            ("p99_ms", Json::Fixed(p.p99_ms, 3)),
            ("redirects", Json::from(p.redirects)),
            ("retries", Json::from(p.retries)),
            ("failed", Json::from(p.failed)),
            (
                "rank_shares",
                Json::obj((p.rank_shares.iter()).map(|(r, s)| (r.to_string(), Json::Fixed(*s, 4)))),
            ),
        ])
    })
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Config {
                seed: 2017,
                rank_sweep: vec![1, 2, 4],
                log_sweep: vec![64, 512, 2048],
                client_sweep: vec![16_384, 65_536, 262_144],
                sweep_ranks: 4,
                fixed_logs: 512,
                fixed_clients: 65_536,
                think: SimDuration::from_secs(2),
                measure: SimDuration::from_secs(4),
            },
            // 16 logs x 256 virtual clients thinking 10 ms offer 25.6k/s,
            // past even the 3-rank capacity, so both rank points measure
            // capacity; 16 clients (1.6k/s) are the underloaded point.
            Scale::Quick => Config {
                seed: 7,
                rank_sweep: vec![1, 3],
                log_sweep: vec![],
                client_sweep: vec![16],
                sweep_ranks: 3,
                fixed_logs: 16,
                fixed_clients: 256,
                think: SimDuration::from_millis(10),
                measure: SimDuration::from_secs(2),
            },
        }
    }

    /// Runs the three sweeps.
    fn run(&self) -> Data {
        let (ranks, logs, clients) = (self.sweep_ranks, self.fixed_logs, self.fixed_clients);
        let rank_series: Vec<Point> = (self.rank_sweep.iter())
            .map(|&r| run_point(self, r, logs, clients))
            .collect();
        let log_series = (self.log_sweep.iter())
            .map(|&l| run_point(self, ranks, l, clients))
            .collect();
        let client_series = (self.client_sweep.iter())
            .map(|&c| run_point(self, ranks, logs, c))
            .collect();
        let rank_scaling = match (rank_series.first(), rank_series.last()) {
            (Some(first), Some(last)) if first.ops_per_sec > 0.0 => {
                last.ops_per_sec / first.ops_per_sec
            }
            _ => 0.0,
        };
        Data {
            rank_series,
            log_series,
            client_series,
            rank_scaling,
        }
    }

    /// The three series as tables.
    fn render(&self, data: &Data) -> String {
        let headers = [
            "ranks",
            "logs",
            "clients",
            "offered/s",
            "ops/s",
            "p50 ms",
            "p99 ms",
            "redirects",
            "failed",
            "rank shares",
        ];
        let mut out = String::new();
        out.push_str("Scale-out: ops/s vs. MDS ranks (open-loop fleet)\n");
        out.push_str(&report::table(
            &headers,
            &data.rank_series.iter().map(point_row).collect::<Vec<_>>(),
        ));
        out.push_str(&format!(
            "\n1 → {} rank scaling: {:.2}x\n",
            data.rank_series.last().map_or(0, |p| p.ranks),
            data.rank_scaling
        ));
        out.push_str("\nContention: ops/s vs. log count\n");
        out.push_str(&report::table(
            &headers,
            &data.log_series.iter().map(point_row).collect::<Vec<_>>(),
        ));
        out.push_str("\nSaturation: ops/s vs. fleet size\n");
        out.push_str(&report::table(
            &headers,
            &data.client_series.iter().map(point_row).collect::<Vec<_>>(),
        ));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("scaleout")),
            ("time_base", Json::from("simulated")),
            ("workload", Json::from("open-loop poisson, zipfian logs")),
            ("rank_scaling_1_to_max", Json::Fixed(data.rank_scaling, 3)),
            ("rank_series", series_json(&data.rank_series)),
            ("log_series", series_json(&data.log_series)),
            ("client_series", series_json(&data.client_series)),
        ]))
    }

    /// Grant throughput at least doubles from one rank to the most, with
    /// placements learned through redirects and nothing dropped; the
    /// smallest fleet is underloaded and completes at its offered rate.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let all = (data.rank_series.iter())
            .chain(&data.log_series)
            .chain(&data.client_series);
        for p in all {
            ensure!(p.failed == 0 && p.done > 0, "dropped or idle: {p:?}");
            ensure!(
                p.ranks == 1 || p.redirects > 0,
                "direct exports must redirect once: {p:?}"
            );
        }
        let scaling = data.rank_scaling;
        ensure!(
            scaling >= 2.0,
            "1 -> max ranks scales {scaling:.2}x, not 2x"
        );
        let small = &data.client_series[0];
        ensure!(
            (small.ops_per_sec - small.offered_per_sec).abs() < small.offered_per_sec * 0.35,
            "an underloaded fleet completes near its offered rate: {small:?}"
        );
        Ok(())
    }
}
