//! Figure 5: who holds the sequencer capability over time under the three
//! sharing policies.
//!
//! Two clients contend for one sequencer. The paper's dot plot shows each
//! obtained position as a dot per client; we reconstruct the equivalent
//! *hold segments* (intervals during which one client was taking
//! positions locally) from the batch samples.
//!
//! Shape to reproduce: best-effort interleaves in tiny slivers (most time
//! goes to re-distributing the capability); "delay" produces ~hold-length
//! alternating segments; "quota" produces segments of exactly the quota's
//! worth of operations.

use mala_mds::types::CapPolicyConfig;
use mala_sim::SimDuration;
use mala_zlog::SeqMode;

use crate::workload::{SeqBench, SeqBenchCfg};
use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run length per policy.
    pub duration: SimDuration,
}

/// Local increment cost.
const OP_TIME: SimDuration = SimDuration::from_micros(5);
/// The "delay" policy's hold time (paper: 0.25 s).
const HOLD: SimDuration = SimDuration::from_millis(250);
/// The "quota" policy's budget.
const QUOTA: u64 = 20_000;

/// One client's hold segments: `(start_s, end_s, positions)`.
pub type Segments = Vec<(f64, f64, u64)>;

/// Results per policy.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Policy label.
    pub label: String,
    /// Per-client hold segments.
    pub segments: [Segments; 2],
    /// Total positions obtained.
    pub total_ops: u64,
    /// Capability grants (exchanges) observed.
    pub exchanges: u64,
}

/// Full experiment data.
#[derive(Debug, Clone)]
pub struct Data {
    /// One run per policy: best-effort, delay, quota.
    pub runs: Vec<PolicyRun>,
}

fn run_policy(config: &Config, label: &str, policy: CapPolicyConfig) -> PolicyRun {
    let mut bench = SeqBench::build(SeqBenchCfg {
        seed: 7,
        mode: SeqMode::Cached { op_time: OP_TIME },
        prefix: format!("fig5.{label}"),
        ..Default::default()
    });
    bench.set_policy(0, policy);
    let t0 = bench.cluster.sim.now().as_secs_f64();
    bench.start_all();
    bench.cluster.sim.run_for(config.duration);
    bench.stop_all();
    let op_s = OP_TIME.as_secs_f64();
    let mut segments: [Segments; 2] = [Vec::new(), Vec::new()];
    for (i, seg) in segments.iter_mut().enumerate() {
        let name = format!("fig5.{label}.s0.c{i}.batch");
        for s in bench.cluster.sim.metrics().series(&name) {
            let end = s.at.as_secs_f64() - t0;
            let n = s.value as u64;
            seg.push((end - op_s * s.value, end, n));
        }
        // Merge back-to-back batches of one hold into single segments.
        seg.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Segments = Vec::new();
        for (start, end, n) in seg.drain(..) {
            match merged.last_mut() {
                Some((_, last_end, last_n)) if start - *last_end < op_s * 2.0 => {
                    *last_end = end;
                    *last_n += n;
                }
                _ => merged.push((start, end, n)),
            }
        }
        *seg = merged;
    }
    let exchanges = bench
        .clients
        .iter()
        .flatten()
        .map(|n| {
            bench
                .cluster
                .sim
                .actor::<mala_zlog::SeqWorkload>(*n)
                .stats
                .grants
        })
        .sum();
    PolicyRun {
        label: label.to_string(),
        total_ops: bench.total_ops(),
        segments,
        exchanges,
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        Config {
            duration: SimDuration::from_secs(match scale {
                Scale::Paper => 4,
                Scale::Quick => 2,
            }),
        }
    }

    /// Runs all three policies.
    fn run(&self) -> Data {
        Data {
            runs: vec![
                run_policy(self, "best-effort", CapPolicyConfig::best_effort()),
                run_policy(self, "delay", CapPolicyConfig::delay(HOLD)),
                run_policy(self, "quota", CapPolicyConfig::quota(QUOTA, HOLD.mul(4))),
            ],
        }
    }

    fn render(&self, data: &Data) -> String {
        let mut out =
            String::from("Figure 5: sequencer capability holds over time (2 contending clients)\n");
        for run in &data.runs {
            out.push_str(&format!(
                "\n== policy: {} — {} positions, {} exchanges ==\n",
                run.label, run.total_ops, run.exchanges
            ));
            let mut rows = Vec::new();
            for (i, segs) in run.segments.iter().enumerate() {
                let shown = segs.iter().take(8);
                for (start, end, ops) in shown {
                    rows.push(vec![
                        format!("client {i}"),
                        format!("{start:.4}s"),
                        format!("{end:.4}s"),
                        format!("{:.1} ms", (end - start) * 1e3),
                        ops.to_string(),
                    ]);
                }
                if segs.len() > 8 {
                    rows.push(vec![
                        format!("client {i}"),
                        format!("... {} more holds", segs.len() - 8),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                }
            }
            out.push_str(&report::table(
                &["client", "hold start", "hold end", "length", "positions"],
                &rows,
            ));
        }
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let [best, delay, quota] = [&data.runs[0], &data.runs[1], &data.runs[2]];
        // One (hold length, positions) pair per hold of either client.
        let holds = |r: &PolicyRun| -> Vec<(f64, f64)> {
            (r.segments.iter().flatten())
                .map(|(start, end, n)| (end - start, *n as f64))
                .collect()
        };
        let summary = |r: &PolicyRun| format!("{}: {} ops", r.label, r.total_ops);
        for r in &data.runs {
            let starved = r.segments.iter().any(Vec::is_empty);
            ensure!(!starved, "{}: a client was starved", r.label);
        }
        // Best-effort: many short exchanges, lowest throughput.
        ensure!(
            best.exchanges > delay.exchanges
                && best.total_ops < delay.total_ops.min(quota.total_ops),
            "best-effort must exchange most and deliver least: {}, {}, {}",
            summary(best),
            summary(delay),
            summary(quota)
        );
        // Delay: hold lengths cluster near the configured hold.
        let lengths: Vec<f64> = holds(delay).iter().map(|h| h.0).collect();
        let (mean_hold, hold) = (report::mean(&lengths), HOLD.as_secs_f64());
        ensure!(
            (hold * 0.6..=hold * 1.4).contains(&mean_hold),
            "delay hold mean {mean_hold:.3}s not near {hold}s"
        );
        // Quota: segments carry ~quota positions each.
        let sizes: Vec<f64> = holds(quota).iter().map(|h| h.1).collect();
        let (mean_ops, quota) = (report::mean(&sizes), QUOTA as f64);
        ensure!(
            (quota * 0.8..=quota * 1.2).contains(&mean_ops),
            "quota segments average {mean_ops} ops, expected ~{quota}"
        );
        Ok(())
    }
}
