//! §6.2.3 "Feature: Backoff" — how aggressive the balancer's decision
//! making is, controlled entirely from the Mantle policy (`when()`
//! thresholds plus a saved-state countdown after each migration).
//!
//! Shape to reproduce (the paper omits the graphs for space but states the
//! result): "the more conservative the approach the less overall
//! throughput", and conservative policies take visibly longer to make
//! their first migration.

use mala_sim::SimDuration;

use crate::workload::{BalancerChoice, SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length.
    pub duration: SimDuration,
    /// Balancing tick.
    pub balance_interval: SimDuration,
    /// Import settle window (see [`SeqBenchCfg::settle`]).
    pub settle: SimDuration,
}

/// The sweep, most to least aggressive: `(label, overload ticks required
/// before migrating, cooldown ticks after)`.
const VARIANTS: [(&str, u32, u32); 3] = [
    ("aggressive", 1, 0),
    ("moderate", 2, 2),
    ("conservative", 4, 4),
];

/// One variant's result.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// Label.
    pub label: String,
    /// Total positions over the run.
    pub total_ops: u64,
    /// Number of migrations.
    pub migrations: u64,
    /// Tick count before the first migration (None = never migrated).
    pub first_migration_s: Option<f64>,
}

/// The sweep.
#[derive(Debug, Clone)]
pub struct Data {
    /// One run per variant, in sweep order (most → least aggressive).
    pub runs: Vec<VariantRun>,
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        // Quick compresses time, not load (see `fig9`).
        let [duration, balance_interval, settle] = match scale {
            Scale::Paper => [120, 5, 30],
            Scale::Quick => [12, 1, 4],
        }
        .map(SimDuration::from_secs);
        Config {
            duration,
            balance_interval,
            settle,
        }
    }

    /// Runs the sweep.
    fn run(&self) -> Data {
        let mut runs = Vec::new();
        for (label, threshold, cooldown) in VARIANTS {
            let policy = mala_mantle::backoff_policy(threshold, cooldown);
            let mut bench = SeqBench::build(SeqBenchCfg {
                seed: 21,
                mds: 3,
                sequencers: 3,
                clients_per_seq: 4,
                balancer: BalancerChoice::Mantle(policy),
                balance_interval: self.balance_interval,
                settle: self.settle,
                prefix: format!("backoff.{label}"),
                ..Default::default()
            });
            let t0 = bench.cluster.sim.now();
            bench.start_all();
            // Watch for the first export while running.
            let mut first_migration_s = None;
            let step = SimDuration::from_secs(1);
            let steps = self.duration.as_micros() / step.as_micros();
            for _ in 0..steps {
                bench.cluster.sim.run_for(step);
                if first_migration_s.is_none()
                    && bench.cluster.sim.metrics().counter("mds.exports") > 0
                {
                    first_migration_s = Some(bench.cluster.sim.now().since(t0).as_secs_f64());
                }
            }
            bench.stop_all();
            runs.push(VariantRun {
                label: label.to_string(),
                total_ops: bench.total_ops(),
                migrations: bench.cluster.sim.metrics().counter("mds.exports"),
                first_migration_s,
            });
        }
        Data { runs }
    }

    fn render(&self, data: &Data) -> String {
        let mut out = String::from("Backoff (§6.2.3): balancer aggressiveness sweep\n\n");
        let rows: Vec<Vec<String>> = data
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.total_ops.to_string(),
                    r.migrations.to_string(),
                    r.first_migration_s
                        .map(|t| format!("{t:.0} s"))
                        .unwrap_or_else(|| "never".to_string()),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["policy", "total ops", "migrations", "first migration"],
            &rows,
        ));
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let (aggressive, conservative) = (&data.runs[0], &data.runs[data.runs.len() - 1]);
        let (Some(a_first), Some(c_first)) =
            (aggressive.first_migration_s, conservative.first_migration_s)
        else {
            return Err("a policy never migrated".to_string());
        };
        ensure!(
            c_first > a_first,
            "conservative first migration {c_first} !> aggressive {a_first}"
        );
        ensure!(
            aggressive.total_ops > conservative.total_ops,
            "aggressive {} !> conservative {}",
            aggressive.total_ops,
            conservative.total_ops
        );
        Ok(())
    }
}
