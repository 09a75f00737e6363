//! Figures 6 and 7: the throughput/latency trade-off of capability
//! caching.
//!
//! Two clients contend for the sequencer with a fixed 0.25 s maximum
//! reservation while the per-grant operation *quota* sweeps across
//! orders of magnitude (plus two reference points: best-effort sharing
//! and a single client with a permanently cached exclusive capability).
//!
//! * Figure 6's shape: throughput climbs and mean latency falls as the
//!   quota grows — a large quota amortises the capability exchange; the
//!   single exclusive client is the ceiling; best-effort is the floor.
//! * Figure 7's shape: per-position latency is bimodal — the local
//!   `op_time` for the bulk of positions, with an exchange-wait tail
//!   whose weight shrinks as the quota grows; the 99th percentile stays
//!   under a millisecond for the batched configurations.

use mala_mds::types::CapPolicyConfig;
use mala_sim::SimDuration;
use mala_zlog::SeqMode;

use crate::workload::{SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length per configuration (paper: 2 minutes).
    pub duration: SimDuration,
    /// Quota sweep.
    pub quotas: Vec<u64>,
}

/// Local increment cost.
const OP_TIME: SimDuration = SimDuration::from_micros(5);
/// The fixed maximum reservation (paper: 0.25 s).
const RESERVATION: SimDuration = SimDuration::from_millis(250);

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// Label (e.g. `quota=1000`).
    pub label: String,
    /// Combined client throughput (positions per second).
    pub throughput: f64,
    /// Mean latency to obtain a position (µs).
    pub mean_latency_us: f64,
    /// Per-client latency quantiles (µs) at p50/p90/p99/p99.9.
    pub latency_quantiles: Vec<(String, Vec<(f64, f64)>)>,
    /// Total positions.
    pub total_ops: u64,
}

/// The sweep's results.
#[derive(Debug, Clone)]
pub struct Data {
    /// One entry per configuration, in sweep order.
    pub runs: Vec<ConfigRun>,
}

fn measure(config: &Config, label: &str, clients: u32, policy: CapPolicyConfig) -> ConfigRun {
    let prefix = format!("fig6.{label}");
    let mut bench = SeqBench::build(SeqBenchCfg {
        seed: 11,
        clients_per_seq: clients,
        mode: SeqMode::Cached { op_time: OP_TIME },
        prefix: prefix.clone(),
        ..Default::default()
    });
    bench.set_policy(0, policy);
    let t0 = bench.cluster.sim.now();
    bench.start_all();
    bench.cluster.sim.run_for(config.duration);
    bench.stop_all();
    let elapsed = bench.cluster.sim.now().since(t0).as_secs_f64();
    let total_ops = bench.total_ops();
    let op_us = OP_TIME.as_micros() as f64;

    // Latency distribution: each exchange wait is one sample; every other
    // position costs op_time. See the recording scheme in `mala-zlog`.
    let mut mean_lat = f64::NAN;
    let mut latency_quantiles = Vec::new();
    let metrics = bench.cluster.sim.metrics();
    let mut all_waits: Vec<f64> = Vec::new();
    for i in 0..clients {
        let name = format!("{prefix}.s0.c{i}.wait");
        let mut waits: Vec<f64> = metrics.series(&name).iter().map(|s| s.value).collect();
        all_waits.extend(waits.iter().copied());
        waits.retain(|w| w.is_finite());
        waits.sort_by(f64::total_cmp);
        let client_ops = bench
            .cluster
            .sim
            .actor::<mala_zlog::SeqWorkload>(bench.clients[0][i as usize])
            .stats
            .ops;
        let qs = mixed_quantiles(&waits, client_ops, op_us, &[50.0, 90.0, 99.0, 99.9]);
        latency_quantiles.push((format!("client {i}"), qs));
    }
    if total_ops > 0 {
        let wait_sum: f64 = all_waits.iter().sum();
        let local_ops = total_ops.saturating_sub(all_waits.len() as u64);
        mean_lat = (wait_sum + local_ops as f64 * op_us) / total_ops as f64;
    }
    ConfigRun {
        label: label.to_string(),
        throughput: total_ops as f64 / elapsed,
        mean_latency_us: mean_lat,
        latency_quantiles,
        total_ops,
    }
}

/// Quantiles of the mixed distribution: `ops - waits.len()` positions at
/// `op_us`, plus the waits (which are ≥ op_us) at the tail.
fn mixed_quantiles(sorted_waits: &[f64], ops: u64, op_us: f64, qs: &[f64]) -> Vec<(f64, f64)> {
    if ops == 0 {
        return qs.iter().map(|q| (*q, f64::NAN)).collect();
    }
    let waits = sorted_waits.len() as u64;
    let local = ops.saturating_sub(waits);
    qs.iter()
        .map(|q| {
            let rank = ((q / 100.0) * (ops - 1) as f64).round() as u64;
            let v = if rank < local {
                op_us
            } else {
                let idx = (rank - local) as usize;
                sorted_waits
                    .get(idx.min(sorted_waits.len().saturating_sub(1)))
                    .copied()
                    .unwrap_or(op_us)
            };
            (*q, v)
        })
        .collect()
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let (secs, quotas) = match scale {
            Scale::Paper => (120, vec![10, 100, 1_000, 10_000, 100_000]),
            Scale::Quick => (4, vec![10, 1_000, 100_000]),
        };
        Config {
            duration: SimDuration::from_secs(secs),
            quotas,
        }
    }

    /// Runs the full sweep.
    fn run(&self) -> Data {
        let mut runs = vec![
            measure(
                self,
                "exclusive-1-client",
                1,
                CapPolicyConfig::best_effort(),
            ),
            measure(self, "best-effort", 2, CapPolicyConfig::best_effort()),
        ];
        for quota in &self.quotas {
            runs.push(measure(
                self,
                &format!("quota={quota}"),
                2,
                CapPolicyConfig::quota(*quota, RESERVATION),
            ));
        }
        Data { runs }
    }

    /// Figure 6: throughput + mean latency per configuration.
    fn render(&self, data: &Data) -> String {
        let mut out =
            String::from("Figure 6: sequencer throughput vs. capability quota (2 clients)\n\n");
        let rows: Vec<Vec<String>> = data
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.0}", r.throughput),
                    format!("{:.1}", r.mean_latency_us),
                    r.total_ops.to_string(),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["configuration", "ops/sec", "mean latency (us)", "total ops"],
            &rows,
        ));
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let by_label = |label: String| {
            data.runs
                .iter()
                .find(|r| r.label == label)
                .ok_or(format!("missing {label}"))
        };
        // Monotone through the sweep.
        let sweep = (self.quotas.iter())
            .map(|q| by_label(format!("quota={q}")))
            .collect::<Result<Vec<_>, _>>()?;
        for pair in sweep.windows(2) {
            ensure!(
                pair[0].throughput < pair[1].throughput
                    && pair[0].mean_latency_us > pair[1].mean_latency_us,
                "throughput must rise and latency fall from {:?} to {:?}",
                pair[0],
                pair[1]
            );
        }
        let (exclusive, best) = (
            by_label("exclusive-1-client".into())?,
            by_label("best-effort".into())?,
        );
        let (modest, largest) = (by_label("quota=1000".into())?, sweep[sweep.len() - 1]);
        ensure!(
            exclusive.throughput >= largest.throughput * 0.9,
            "the exclusive client is not the ceiling: {exclusive:?} vs {largest:?}"
        );
        ensure!(
            best.throughput < modest.throughput,
            "best-effort must lose to a modest quota: {best:?} vs {modest:?}"
        );
        Ok(())
    }
}

/// Figure 7: the per-client latency quantiles of the Figure 6 sweep.
pub struct Fig7(Config);

impl Experiment for Fig7 {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        Fig7(Config::at(scale))
    }

    fn run(&self) -> Data {
        self.0.run()
    }

    fn render(&self, data: &Data) -> String {
        let mut out = String::from("Figure 7: latency CDF of obtaining a log position\n");
        for r in &data.runs {
            out.push_str(&format!("\n== {} ==\n", r.label));
            let mut rows = Vec::new();
            for (client, qs) in &r.latency_quantiles {
                for (q, v) in qs {
                    rows.push(vec![client.clone(), format!("p{q}"), format!("{v:.1} us")]);
                }
            }
            out.push_str(&report::table(&["client", "percentile", "latency"], &rows));
        }
        out
    }

    /// The 99th percentile stays under a millisecond once grants are
    /// batched.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let batched = &data.runs[data.runs.len() - 1];
        for (client, qs) in &batched.latency_quantiles {
            let p99 = qs
                .iter()
                .find(|(q, _)| *q == 99.0)
                .map_or(f64::NAN, |q| q.1);
            ensure!(
                p99 < 1_000.0,
                "{} {client}: p99 {p99} us >= 1 ms",
                batched.label
            );
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_quantiles_math() {
        // 100 ops, 10 waits of 1000us, op_us = 5.
        let waits = vec![1000.0; 10];
        let qs = mixed_quantiles(&waits, 100, 5.0, &[50.0, 95.0]);
        assert_eq!(qs[0].1, 5.0, "median is a local op");
        assert_eq!(qs[1].1, 1000.0, "p95 lands in the wait tail");
        assert!(mixed_quantiles(&[], 0, 5.0, &[50.0])[0].1.is_nan());
    }
}
