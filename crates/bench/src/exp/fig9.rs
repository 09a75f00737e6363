//! Figure 9: throughput over time under three load-balancing regimes.
//!
//! Three sequencers (four closed-loop round-trip clients each) all start
//! on MDS rank 0 of a three-rank metadata cluster. The three regimes:
//!
//! * **No Balancing** — everything stays on rank 0 (the floor).
//! * **CephFS** — the reconstructed stock balancer reacts at its first
//!   tick (~10 s) and spreads sequencers in client (redirect) mode.
//! * **Mantle** — the sequencer-aware policy (proxy mode, conservative
//!   `when()` that waits out the import-coherence settling) takes longer
//!   to stabilise but reaches the highest plateau.

use mala_mds::CephFsMode;
use mala_sim::SimDuration;
use mala_zlog::SeqMode;

use crate::workload::{BalancerChoice, SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length (paper plot: ~180 s).
    pub duration: SimDuration,
    /// Balancing tick (Ceph default 10 s).
    pub balance_interval: SimDuration,
    /// Import settle window (see [`SeqBenchCfg::settle`]).
    pub settle: SimDuration,
    /// Throughput window for the rendered series.
    pub window: SimDuration,
}

/// The paper's cluster: 3 sequencers, 3 MDS ranks, 10 object-storage nodes.
const SEQUENCERS: u32 = 3;

/// One regime's run.
#[derive(Debug, Clone)]
pub struct RegimeRun {
    /// Regime label.
    pub label: String,
    /// `(window_start_s, cluster ops/s)`.
    pub series: Vec<(f64, f64)>,
    /// Mean cluster throughput over the final third of the run.
    pub steady_state: f64,
    /// Migrations performed.
    pub migrations: u64,
    /// Time of the first migration (s), if any.
    pub first_migration_s: Option<f64>,
}

/// The three regimes.
#[derive(Debug, Clone)]
pub struct Data {
    /// No balancing / CephFS / Mantle, in that order.
    pub runs: Vec<RegimeRun>,
}

fn run_regime(config: &Config, label: &str, balancer: BalancerChoice) -> RegimeRun {
    let mut bench = SeqBench::build(SeqBenchCfg {
        seed: 9,
        mds: 3,
        osds: 10,
        sequencers: SEQUENCERS,
        clients_per_seq: 4,
        mode: SeqMode::RoundTrip,
        balancer,
        balance_interval: config.balance_interval,
        settle: config.settle,
        prefix: format!("fig9.{label}"),
    });
    let t0 = bench.cluster.sim.now().as_secs_f64();
    let exports_before = bench.cluster.sim.metrics().counter("mds.exports");
    bench.start_all();
    bench.cluster.sim.run_for(config.duration);
    bench.stop_all();
    // Merge all sequencers' events into one cluster series.
    let mut events: Vec<(f64, f64)> = (0..SEQUENCERS as usize)
        .flat_map(|k| bench.events_of_seq(k, t0))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let series = report::windowed_rate(
        &events,
        config.window.as_secs_f64(),
        config.duration.as_secs_f64(),
    );
    let tail = series.len() / 3;
    let steady: Vec<f64> = series[series.len() - tail..]
        .iter()
        .map(|(_, r)| *r)
        .collect();
    let migrations = bench.cluster.sim.metrics().counter("mds.exports") - exports_before;
    let first_migration_s = bench
        .cluster
        .sim
        .metrics()
        .series("mds.export_events")
        .first()
        .map(|s| s.at.as_secs_f64() - t0);
    RegimeRun {
        label: label.to_string(),
        series,
        steady_state: report::mean(&steady),
        migrations,
        first_migration_s,
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        // Quick compresses time, not load: tick, settle window and run
        // shrink together, so the regimes reach the same plateaus sooner.
        let [duration, balance_interval, settle, window] = match scale {
            Scale::Paper => [180, 10, 30, 5],
            Scale::Quick => [12, 1, 4, 1],
        }
        .map(SimDuration::from_secs);
        Config {
            duration,
            balance_interval,
            settle,
            window,
        }
    }

    /// Runs all three regimes.
    fn run(&self) -> Data {
        Data {
            runs: vec![
                run_regime(self, "no-balancing", BalancerChoice::None),
                run_regime(self, "cephfs", BalancerChoice::CephFs(CephFsMode::Workload)),
                run_regime(
                    self,
                    "mantle",
                    BalancerChoice::Mantle(mala_mantle::SEQUENCER_AWARE_POLICY.to_string()),
                ),
            ],
        }
    }

    /// The three time series side by side.
    fn render(&self, data: &Data) -> String {
        let mut out = String::from(
            "Figure 9: cluster sequencer throughput over time (3 sequencers x 4 clients)\n\n",
        );
        let mut headers = vec!["t (s)"];
        headers.extend(data.runs.iter().map(|r| r.label.as_str()));
        let len = data.runs.iter().map(|r| r.series.len()).max().unwrap_or(0);
        let mut rows = Vec::new();
        for i in 0..len {
            let mut row = vec![data.runs[0]
                .series
                .get(i)
                .map(|(t, _)| format!("{t:.0}"))
                .unwrap_or_default()];
            for r in &data.runs {
                row.push(
                    r.series
                        .get(i)
                        .map(|(_, v)| format!("{v:.0}"))
                        .unwrap_or_default(),
                );
            }
            rows.push(row);
        }
        out.push_str(&report::table(&headers, &rows));
        out.push('\n');
        for r in &data.runs {
            out.push_str(&format!(
                "{:<14} steady-state {:>8.0} ops/s   migrations: {}   first effect: {}\n",
                r.label,
                r.steady_state,
                r.migrations,
                r.first_migration_s
                    .map(|t| format!("{t:.0} s"))
                    .unwrap_or_else(|| "-".to_string())
            ));
        }
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let [none, cephfs, mantle] = [&data.runs[0], &data.runs[1], &data.runs[2]];
        ensure!(none.migrations == 0, "no-balancing migrated");
        ensure!(cephfs.migrations > 0, "cephfs never migrated");
        ensure!(mantle.migrations > 0, "mantle never migrated");
        let [n, c, m] = [none, cephfs, mantle].map(|r| r.steady_state);
        ensure!(c > n * 1.05, "cephfs {c} !> none {n}");
        ensure!(m > c * 1.05, "mantle {m} !> cephfs {c}");
        Ok(())
    }
}
