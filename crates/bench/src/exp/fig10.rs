//! Figure 10: balancing modes (a) and migration units (b).
//!
//! (a) Same cluster as Fig. 9, comparing the CephFS balancer's three load
//! metrics (CPU / workload / hybrid) against Mantle's sequencer-aware
//! policy, over several seeds. Shape: the three CephFS modes perform the
//! same (one decision structure), the CPU mode has the widest variance
//! (its metric is noisy), Mantle is best.
//!
//! (b) Two sequencers on a two-rank cluster; the Mantle policy controls
//! both the *mode* (proxy vs. client/redirect) and the *migration unit*
//! (half vs. all of the first server's load). Shape: proxy beats client
//! at the same unit, full beats half in proxy mode, and Proxy (Full) —
//! fully decoupling request handling from tail-finding — approaches 2×
//! the worst configuration.

use mala_mds::CephFsMode;
use mala_sim::SimDuration;

use crate::workload::{BalancerChoice, SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length per configuration.
    pub duration: SimDuration,
    /// Balancing tick.
    pub balance_interval: SimDuration,
    /// Import settle window (see [`SeqBenchCfg::settle`]).
    pub settle: SimDuration,
    /// Seeds for the (a) variance comparison.
    pub seeds: Vec<u64>,
}

/// One bar: mean ± std of steady-state throughput.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Configuration label.
    pub label: String,
    /// Mean steady-state throughput (ops/s) across seeds.
    pub mean: f64,
    /// Standard deviation across seeds.
    pub std: f64,
}

/// Both panels.
#[derive(Debug, Clone)]
pub struct Data {
    /// Panel (a): cephfs-cpu / cephfs-workload / cephfs-hybrid / mantle.
    pub modes: Vec<Bar>,
    /// Panel (b): client-half / client-full / proxy-half / proxy-full.
    pub units: Vec<Bar>,
}

/// One run on `ranks` MDS ranks with as many sequencers.
fn steady_state(
    seed: u64,
    label: &str,
    ranks: u32,
    balancer: BalancerChoice,
    config: &Config,
) -> f64 {
    let mut bench = SeqBench::build(SeqBenchCfg {
        seed,
        mds: ranks,
        sequencers: ranks,
        clients_per_seq: 4,
        balancer,
        balance_interval: config.balance_interval,
        settle: config.settle,
        prefix: format!("fig10.{label}.{seed}"),
        ..Default::default()
    });
    bench.start_all();
    // Warm-up two thirds, measure the final third.
    bench.cluster.sim.run_for(config.duration.mul(2).div(3));
    let ops_before = bench.total_ops();
    let t0 = bench.cluster.sim.now();
    bench.cluster.sim.run_for(config.duration.div(3));
    let ops = bench.total_ops() - ops_before;
    let elapsed = bench.cluster.sim.now().since(t0).as_secs_f64();
    bench.stop_all();
    ops as f64 / elapsed
}

fn bar(label: &str, ranks: u32, balancer: BalancerChoice, config: &Config) -> Bar {
    let rates: Vec<f64> = config
        .seeds
        .iter()
        .map(|seed| steady_state(*seed, label, ranks, balancer.clone(), config))
        .collect();
    Bar {
        label: label.to_string(),
        mean: report::mean(&rates),
        std: report::stddev(&rates),
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        // Quick compresses time, not load (see `fig9`); one seed, since
        // the steady state barely depends on it.
        let (secs, seeds) = match scale {
            Scale::Paper => ([120, 5, 30], vec![9, 10, 11]),
            Scale::Quick => ([12, 1, 4], vec![9]),
        };
        let [duration, balance_interval, settle] = secs.map(SimDuration::from_secs);
        Config {
            duration,
            balance_interval,
            settle,
            seeds,
        }
    }

    /// Runs both panels.
    fn run(&self) -> Data {
        let cephfs = |mode| BalancerChoice::CephFs(mode);
        let mantle = |policy: &str| BalancerChoice::Mantle(policy.to_string());
        let modes = [
            ("cephfs-cpu", cephfs(CephFsMode::Cpu)),
            ("cephfs-workload", cephfs(CephFsMode::Workload)),
            ("cephfs-hybrid", cephfs(CephFsMode::Hybrid)),
            ("mantle", mantle(mala_mantle::SEQUENCER_AWARE_POLICY)),
        ];
        let units = [
            ("client-half", mantle(mala_mantle::CLIENT_HALF_POLICY)),
            ("client-full", mantle(mala_mantle::CLIENT_FULL_POLICY)),
            ("proxy-half", mantle(mala_mantle::PROXY_HALF_POLICY)),
            ("proxy-full", mantle(mala_mantle::PROXY_FULL_POLICY)),
        ];
        Data {
            modes: modes.map(|(label, b)| bar(label, 3, b, self)).into(),
            units: units.map(|(label, b)| bar(label, 2, b, self)).into(),
        }
    }

    /// Both panels as bar tables.
    fn render(&self, data: &Data) -> String {
        let mut out = String::from("Figure 10(a): balancing modes (3 sequencers, 3 MDS)\n\n");
        let bars = |bars: &[Bar]| {
            let max = bars.iter().map(|b| b.mean).fold(1.0, f64::max);
            report::table(
                &["configuration", "ops/sec", "stddev", ""],
                &bars
                    .iter()
                    .map(|b| {
                        vec![
                            b.label.clone(),
                            format!("{:.0}", b.mean),
                            format!("{:.0}", b.std),
                            "#".repeat((b.mean / max * 40.0) as usize),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
        };
        out.push_str(&bars(&data.modes));
        out.push_str("\nFigure 10(b): migration units (2 sequencers, 2 MDS)\n\n");
        out.push_str(&bars(&data.units));
        let best = data.units.iter().map(|b| b.mean).fold(0.0, f64::max);
        let worst = data
            .units
            .iter()
            .map(|b| b.mean)
            .fold(f64::INFINITY, f64::min);
        out.push_str(&format!(
            "\nbest/worst migration configuration: {:.2}x\n",
            best / worst
        ));
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let mean = |label: &str| {
            (data.modes.iter().chain(&data.units))
                .find(|b| b.label == label)
                .map(|b| b.mean)
                .ok_or(format!("missing {label}"))
        };
        // (a) three CephFS modes within a band; mantle best.
        let (wl, hy, mantle) = (
            mean("cephfs-workload")?,
            mean("cephfs-hybrid")?,
            mean("mantle")?,
        );
        for cephfs in [mean("cephfs-cpu")?, wl, hy] {
            ensure!(
                mantle > cephfs,
                "mantle {mantle} !> a cephfs mode at {cephfs}"
            );
        }
        ensure!(
            (wl - hy).abs() / wl.max(hy) < 0.25,
            "workload {wl} vs hybrid {hy}"
        );
        // (b) proxy beats client at same unit; full beats half in proxy.
        let (ch, cf) = (mean("client-half")?, mean("client-full")?);
        let (ph, pf) = (mean("proxy-half")?, mean("proxy-full")?);
        ensure!(ph > ch, "proxy-half {ph} !> client-half {ch}");
        ensure!(pf > cf, "proxy-full {pf} !> client-full {cf}");
        ensure!(pf > ph, "proxy-full {pf} !> proxy-half {ph}");
        // The paper's headline: up to ~2x between best and worst.
        let spread = pf / ch.min(cf);
        ensure!(
            spread > 1.5,
            "best/worst spread {spread:.2} too small for the 2x claim"
        );
        Ok(())
    }
}
