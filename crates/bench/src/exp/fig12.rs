//! Figure 12: proxy mode vs. client mode over time, per sequencer.
//!
//! Two sequencers (four clients each) on a two-rank cluster.
//!
//! * **Proxy mode** (panel a): both sequencers start on rank 0; at the
//!   migration point sequencer 0 moves to rank 1 but clients keep talking
//!   to rank 0, which forwards. Shape: sequencer 0's throughput jumps
//!   (the slave only finds tails), sequencer 1's dips (its server now
//!   also forwards), cluster total rises.
//! * **Client mode** (panel b): same migration but clients are redirected
//!   to rank 1. Shape: more fair, but the cluster total is lower than
//!   proxy mode, and the rank-0 sequencer is slower (rank 0 carries the
//!   scatter-gather coordination).

use mala_mds::ServeStyle;
use mala_sim::SimDuration;

use crate::workload::{SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total run length (paper: 120 s).
    pub duration: SimDuration,
    /// When the migration happens (paper: 60 s).
    pub migrate_at: SimDuration,
    /// Throughput window.
    pub window: SimDuration,
    /// Import settle window (see [`SeqBenchCfg::settle`]).
    pub settle: SimDuration,
}

/// One mode's run.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Mode label.
    pub label: String,
    /// Per-sequencer series `(t_s, ops/s)`.
    pub series: [Vec<(f64, f64)>; 2],
    /// Per-sequencer throughput after the migration settled.
    pub after: [f64; 2],
    /// Cluster throughput after the migration settled.
    pub cluster_after: f64,
}

/// Both modes.
#[derive(Debug, Clone)]
pub struct Data {
    /// Proxy then client.
    pub runs: Vec<ModeRun>,
}

fn run_mode(config: &Config, label: &str, style: ServeStyle) -> ModeRun {
    let mut bench = SeqBench::build(SeqBenchCfg {
        seed: 12,
        mds: 2,
        sequencers: 2,
        clients_per_seq: 4,
        settle: config.settle,
        prefix: format!("fig12.{label}"),
        ..Default::default()
    });
    let t0 = bench.cluster.sim.now().as_secs_f64();
    bench.start_all();
    bench.cluster.sim.run_for(config.migrate_at);
    // Manual migration of sequencer 0 (the paper drives this from Mantle;
    // the administrative path exercises the same mechanism).
    bench.migrate(0, 1, style);
    bench
        .cluster
        .sim
        .run_for(config.duration - config.migrate_at);
    bench.stop_all();
    let mut series: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut after = [0.0; 2];
    for k in 0..2 {
        series[k] = report::windowed_rate(
            &bench.events_of_seq(k, t0),
            config.window.as_secs_f64(),
            config.duration.as_secs_f64(),
        );
        // Steady state after migration: final quarter of the run.
        let tail: Vec<f64> = series[k]
            .iter()
            .filter(|(t, _)| *t >= config.duration.as_secs_f64() * 0.75)
            .map(|(_, r)| *r)
            .collect();
        after[k] = report::mean(&tail);
    }
    ModeRun {
        label: label.to_string(),
        cluster_after: after[0] + after[1],
        series,
        after,
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        // Quick compresses time, not load (see `fig9`).
        let [duration, migrate_at, window, settle] = match scale {
            Scale::Paper => [120, 60, 5, 30],
            Scale::Quick => [16, 8, 1, 4],
        }
        .map(SimDuration::from_secs);
        Config {
            duration,
            migrate_at,
            window,
            settle,
        }
    }

    /// Runs both modes.
    fn run(&self) -> Data {
        Data {
            runs: vec![
                run_mode(self, "proxy", ServeStyle::Proxy),
                run_mode(self, "client", ServeStyle::Direct),
            ],
        }
    }

    /// Both panels.
    fn render(&self, data: &Data) -> String {
        let mut out = format!(
        "Figure 12: serving modes over time (2 sequencers, 2 MDS; sequencer 0 migrates at {} s)\n",
        self.migrate_at.as_secs_f64()
    );
        for run in &data.runs {
            out.push_str(&format!("\n== {} mode ==\n", run.label));
            let rows: Vec<Vec<String>> = run.series[0]
                .iter()
                .zip(run.series[1].iter())
                .map(|((t, s0), (_, s1))| {
                    vec![
                        format!("{t:.0}"),
                        format!("{s0:.0}"),
                        format!("{s1:.0}"),
                        format!("{:.0}", s0 + s1),
                    ]
                })
                .collect();
            out.push_str(&report::table(
                &["t (s)", "sequencer 0", "sequencer 1", "cluster"],
                &rows,
            ));
            out.push_str(&format!(
                "after migration: s0 {:.0} ops/s, s1 {:.0} ops/s, cluster {:.0} ops/s\n",
                run.after[0], run.after[1], run.cluster_after
            ));
        }
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let [proxy, client] = [&data.runs[0], &data.runs[1]];
        // Before migration both sequencers share rank 0 evenly.
        let window_s = self.window.as_secs_f64();
        let before = |r: &ModeRun, k: usize| {
            let xs: Vec<f64> = r.series[k]
                .iter()
                .filter(|(t, _)| *t > window_s && *t < self.migrate_at.as_secs_f64() - window_s)
                .map(|(_, v)| *v)
                .collect();
            report::mean(&xs)
        };
        let (p0_before, p1_before) = (before(proxy, 0), before(proxy, 1));
        ensure!(
            (p0_before - p1_before).abs() / p0_before < 0.2,
            "uneven before migration: s0 {p0_before} vs s1 {p1_before}"
        );
        // Proxy: migrated sequencer jumps, the one left on the proxy dips.
        let [p0, p1] = proxy.after;
        ensure!(p0 > p0_before * 1.3, "s0 {p0} !>> before {p0_before}");
        ensure!(
            p1 < p1_before,
            "s1 must dip on the proxy: {p1} vs {p1_before}"
        );
        // Cluster: proxy beats client mode.
        let (p, c) = (proxy.cluster_after, client.cluster_after);
        ensure!(p > c * 1.1, "proxy {p} !> client {c}");
        // Client mode is more fair but the rank-0 resident is slower.
        let [c0, c1] = client.after;
        ensure!(
            c1 < c0 * 1.05,
            "client mode: resident s1 {c1} vs migrated s0 {c0}"
        );
        Ok(())
    }
}
