//! The five workloads. Each `run` performs one rep against a fresh `Sim`:
//! set-up, measured window, bounded drain, correctness gates.

pub mod append;
pub mod fault_churn;
pub mod mds_balance;
pub mod read_tail;
pub mod tail;

use crate::harness::{Rep, RepOpts};

/// A workload as BENCHMARK.json lists it.
pub struct Workload {
    pub name: &'static str,
    /// The one line BENCHMARK.json carries.
    pub why: &'static str,
    /// Largest relative difference tolerated between reps of one seed in a
    /// value that should be exact. Zero everywhere but `fault_churn`: the
    /// MDS failover re-drives parked work in `HashMap` order, so its reps
    /// differ — mostly in the fourth digit, but by 1.06 % in `sim_p99_ms` on
    /// seed 39, where the 48th-longest of 4 800 latencies falls between two
    /// re-drive bursts of the outage — and bit-identity cannot be demanded
    /// of the current tree.
    pub rep_tolerance: f64,
}

/// In the order they are reported.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "append_steady",
        why: "open loop just below the knee: sequencer grant, scripted write_batch, replication+journal and client batching all block",
        rep_tolerance: 0.0,
    },
    Workload {
        name: "append_overload",
        why: "open loop past sequencer capacity: queue wait, retries and goodput loss only show here; append_steady is its bypass",
        rep_tolerance: 0.0,
    },
    Workload {
        name: "read_tail",
        why: "closed-loop tailers and point readers: read_batch class calls and cursor pipelining dominate, mds does almost nothing",
        rep_tolerance: 0.0,
    },
    Workload {
        name: "mds_balance",
        why: "closed-loop sequencer round trips under Mantle: no class calls or payloads, so scheduler, caps and migration dominate",
        rep_tolerance: 0.0,
    },
    Workload {
        name: "fault_churn",
        why: "open loop through OSD crash/restart, MDS failover, OSD join and drain: consensus, recovery and client re-drive do the work",
        rep_tolerance: 0.05,
    },
];

/// Runs one rep of `workload`.
pub fn run(workload: &str, seed: u64, opts: RepOpts) -> Result<Rep, String> {
    match workload {
        "append_steady" => append::run(&append::STEADY, seed, opts),
        "append_overload" => append::run(&append::OVERLOAD, seed, opts),
        "read_tail" => read_tail::run(seed, opts),
        "mds_balance" => mds_balance::run(seed, opts),
        "fault_churn" => fault_churn::run(seed, opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}
