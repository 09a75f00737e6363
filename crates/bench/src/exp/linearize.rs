//! WGL checker cost versus history length.
//!
//! The linearizability harness (`mala_sim::linearize`) runs after every
//! nemesis schedule, so its cost bounds how long a fault trace the suite
//! can afford to verify. This experiment generates synthetic shared-log
//! histories — concurrent acked appends, ambiguous (info) appends,
//! reads, fills, and tail probes, the same op mix the fault suites
//! record — and measures wall-clock check time as the history grows.
//!
//! Partitioning keeps the search tractable: per-position windows are
//! tiny, so cost should grow roughly linearly in history length even
//! though WGL is exponential in window width. The `info_pct` knob
//! controls ambiguity (info ops never close, so they stay concurrent
//! with everything after them and widen every window they touch).
//!
//! The JSON body is `results/BENCH_linearize.json`; check times are the
//! host's, so they differ from run to run.

use std::time::Instant;

use mala_sim::history::Recorder;
use mala_sim::linearize::{check_shared_log, LogOp, LogRead, LogRet};
use mala_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{self, Json};
use crate::{ensure, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// History lengths (operation counts) to sweep.
    pub lengths: Vec<usize>,
    /// Timed check repetitions per length (median reported).
    pub iters: u32,
}

/// Concurrent clients issuing ops.
const CLIENTS: u64 = 4;
/// Percentage of appends whose outcome is ambiguous (info).
const INFO_PCT: u32 = 10;

/// One history length's measurements.
#[derive(Debug, Clone)]
pub struct LengthRun {
    /// Operations in the history (including fail/info ops).
    pub history_len: usize,
    /// Operations the checker admitted (fail ops excluded).
    pub checked_ops: usize,
    /// Partitions (positions + tail projection).
    pub partitions: usize,
    /// Search nodes visited across all partitions.
    pub visited: usize,
    /// Median check wall time, microseconds.
    pub check_us: f64,
    /// Checked operations per wall-clock second.
    pub ops_per_sec: f64,
}

/// One row per history length.
pub type Data = Vec<LengthRun>;

/// Generates a linearizable synthetic shared-log history of `len` ops.
///
/// Clients take turns invoking; each op's invoke/response window is
/// jittered so neighbouring ops genuinely overlap. Appends ack positions
/// from a shared tail; `info_pct` of them time out *after* the position
/// was burned (recorded as info with the partial `Pos` return, exactly
/// what `ZlogClient` emits); reads observe the authoritative cell state,
/// so the history is consistent by construction and the checker does
/// full search work without ever failing.
pub fn synth_history(
    len: usize,
    clients: u64,
    info_pct: u32,
    seed: u64,
) -> Recorder<LogOp, LogRet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rec: Recorder<LogOp, LogRet> = Recorder::new();
    let mut tail = 0u64;
    // Authoritative cell states: data payload, filled, or ambiguous.
    let mut cells: Vec<(u64, LogRet)> = Vec::new();
    let mut now = 0u64;
    for k in 0..len {
        let client = rng.gen_range(0..clients);
        now += rng.gen_range(10u64..200);
        let invoke = SimTime::from_micros(now);
        let respond = SimTime::from_micros(now + rng.gen_range(50u64..5_000));
        match rng.gen_range(0u32..100) {
            // Append: acked, or ambiguous with the granted position.
            0..=59 => {
                let data = format!("e{k}").into_bytes();
                let pos = tail;
                tail += 1;
                let id = rec.invoke(client, invoke, LogOp::Append { data: data.clone() });
                if rng.gen_range(0u32..100) < info_pct {
                    rec.info(id, respond, Some(LogRet::Pos(pos)), "append timed out");
                } else {
                    cells.push((pos, LogRet::Read(LogRead::Data(data))));
                    rec.ok(id, respond, LogRet::Pos(pos));
                }
            }
            // Read of a known cell (or a hole past the tail).
            60..=84 => {
                if let Some((pos, state)) = pick(&mut rng, &cells) {
                    let id = rec.invoke(client, invoke, LogOp::Read { pos });
                    rec.ok(id, respond, state);
                } else {
                    let id = rec.invoke(client, invoke, LogOp::Read { pos: tail + 10 });
                    rec.ok(id, respond, LogRet::Read(LogRead::NotWritten));
                }
            }
            // Junk-fill a fresh burned position.
            85..=94 => {
                let pos = tail;
                tail += 1;
                let id = rec.invoke(client, invoke, LogOp::Fill { pos });
                cells.push((pos, LogRet::Read(LogRead::Filled)));
                rec.ok(id, respond, LogRet::Done);
            }
            // Tail probe.
            _ => {
                let id = rec.invoke(client, invoke, LogOp::ReadTail);
                rec.ok(id, respond, LogRet::Tail(tail));
            }
        }
    }
    rec
}

fn pick(rng: &mut StdRng, cells: &[(u64, LogRet)]) -> Option<(u64, LogRet)> {
    if cells.is_empty() {
        return None;
    }
    let (pos, state) = &cells[rng.gen_range(0..cells.len())];
    Some((*pos, state.clone()))
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Config {
                lengths: vec![64, 128, 256, 512, 1024, 2048, 4096],
                iters: 5,
            },
            Scale::Quick => Config {
                lengths: vec![32, 64],
                iters: 2,
            },
        }
    }

    /// Runs the sweep: for each length, generate one history and time the
    /// checker `iters` times, reporting the median.
    fn run(&self) -> Data {
        let mut runs = Vec::new();
        for (i, &len) in self.lengths.iter().enumerate() {
            let rec = synth_history(len, CLIENTS, INFO_PCT, 2017 + i as u64);
            let ops = rec.operations();
            let mut timed: Vec<(f64, _)> = (0..self.iters.max(1))
                .map(|_| {
                    let t0 = Instant::now();
                    let stats = check_shared_log(&ops)
                        .unwrap_or_else(|e| panic!("synthetic history must check: {e:?}"));
                    (t0.elapsed().as_secs_f64() * 1e6, stats)
                })
                .collect();
            timed.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (check_us, stats) = timed.swap_remove(timed.len() / 2);
            runs.push(LengthRun {
                history_len: ops.len(),
                checked_ops: stats.ops,
                partitions: stats.partitions,
                visited: stats.visited,
                check_us,
                ops_per_sec: if check_us > 0.0 {
                    stats.ops as f64 / (check_us / 1e6)
                } else {
                    f64::INFINITY
                },
            });
        }
        runs
    }

    /// The sweep as an aligned table.
    fn render(&self, data: &Data) -> String {
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|r| {
                vec![
                    r.history_len.to_string(),
                    r.checked_ops.to_string(),
                    r.partitions.to_string(),
                    r.visited.to_string(),
                    format!("{:.1}", r.check_us),
                    format!("{:.0}", r.ops_per_sec),
                ]
            })
            .collect();
        let mut out = format!(
        "WGL checker cost vs history length ({} clients, {}% ambiguous appends, median of {})\n\n",
        CLIENTS, INFO_PCT, self.iters
    );
        out.push_str(&report::table(
            &[
                "history_ops",
                "checked_ops",
                "partitions",
                "visited",
                "check_us",
                "ops/s",
            ],
            &rows,
        ));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("linearize")),
            (
                "runs",
                Json::arr(data, |r| {
                    Json::obj([
                        ("history_ops", Json::from(r.history_len)),
                        ("checked_ops", Json::from(r.checked_ops)),
                        ("partitions", Json::from(r.partitions)),
                        ("visited", Json::from(r.visited)),
                        ("check_us", Json::Fixed(r.check_us, 1)),
                        ("ops_per_sec", Json::Fixed(r.ops_per_sec, 0)),
                    ])
                }),
            ),
        ]))
    }

    /// One row per length, and longer histories admit more operations.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        ensure!(
            data.len() == self.lengths.len(),
            "{} rows for {} lengths",
            data.len(),
            self.lengths.len()
        );
        for pair in data.windows(2) {
            ensure!(
                pair[1].checked_ops > pair[0].checked_ops,
                "a longer history must check more operations: {pair:?}"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_history_is_linearizable_at_every_length() {
        for len in [16usize, 64, 256] {
            let rec = synth_history(len, 3, 15, 7);
            let ops = rec.operations();
            assert_eq!(ops.len(), len);
            let stats = check_shared_log(&ops).expect("synthetic history must check");
            assert!(stats.partitions > 0);
        }
    }
}
