//! Pipelined ZLog append throughput: bulk position grants + coalesced
//! stripe writes versus the one-round-trip-per-append baseline.
//!
//! A single closed-loop client appends `appends` entries to a fresh log
//! at each queue depth, on the pipelined path
//! ([`mala_zlog::ZlogClient::append_async`]): the client keeps `depth`
//! appends in flight, each full queue is covered by a single bulk grant
//! (`next_batch:N`), and same-stripe positions travel to the OSD as one
//! `write_batch` call — one journal group-commit. Depth 1 is the baseline:
//! every append a batch of one, one sequencer round trip and one stripe
//! write per entry, as a plain `append` runs.
//!
//! The JSON body is `results/BENCH_zlog_append.json`.

use mala_sim::Hist;

use crate::report::{self, Json};
use crate::workload::{pipelined_appends, pipelined_client, zlog_cluster};
use crate::{ensure, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Appends per depth run.
    pub appends: usize,
    /// Queue depths to sweep; depth 1 is the single-append baseline.
    pub depths: Vec<usize>,
}

/// One queue depth's measurements.
#[derive(Debug, Clone)]
pub struct DepthRun {
    /// Queue depth (1 = every append a batch of one).
    pub queue_depth: usize,
    /// Appends per simulated second.
    pub throughput: f64,
    /// Median append latency (sim ms).
    pub p50_ms: f64,
    /// Tail append latency (sim ms).
    pub p99_ms: f64,
    /// Run length in simulated seconds.
    pub wall_s: f64,
    /// Sequencer round trips consumed (one bulk grant per batch).
    pub grants: u64,
    /// `write_batch` calls issued (one per append at depth 1).
    pub batch_writes: u64,
    /// OSD journal group-commits on the primaries.
    pub journal_commits: u64,
}

/// One entry per queue depth, in sweep order.
pub type Data = Vec<DepthRun>;

/// Runs one depth; panics on any failed or duplicated append.
fn run_depth(config: &Config, depth: usize) -> DepthRun {
    let log = format!("pipebench.d{depth}");
    let mut sim = zlog_cluster(7, vec![pipelined_client(&log, depth)]);
    let t_start = sim.now();
    let done = pipelined_appends(&mut sim, config.appends, depth);
    let wall_s = sim.now().since(t_start).as_secs_f64();
    // CORFU safety is part of the benchmark contract: every op resolved
    // to a distinct position.
    let mut positions: Vec<u64> = done.iter().map(|(p, _)| *p).collect();
    positions.sort_unstable();
    positions.dedup();
    assert_eq!(
        positions.len(),
        config.appends,
        "duplicate positions assigned"
    );
    // Log-scale histogram over microseconds: same machinery the tracer
    // uses, immune to NaN-poisoned comparison sorts.
    let lat_us: Vec<f64> = done.iter().map(|(_, ms)| ms * 1e3).collect();
    let hist = Hist::from_values(&lat_us);
    DepthRun {
        queue_depth: depth,
        throughput: config.appends as f64 / wall_s,
        p50_ms: hist.quantile(0.5).unwrap_or(0.0) / 1e3,
        p99_ms: hist.quantile(0.99).unwrap_or(0.0) / 1e3,
        wall_s,
        grants: sim.metrics().counter("zlog.pos_grants"),
        batch_writes: sim.metrics().counter("zlog.batch_writes"),
        journal_commits: sim.metrics().counter("osd.journal_commits"),
    }
}

/// Speedup of `run` over the depth-1 baseline in `data` (1.0 if absent).
fn speedup(data: &Data, run: &DepthRun) -> f64 {
    data.iter()
        .find(|r| r.queue_depth == 1)
        .map(|base| run.throughput / base.throughput)
        .unwrap_or(1.0)
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let (appends, depths) = match scale {
            Scale::Paper => (512, vec![1, 2, 4, 8, 16, 32]),
            Scale::Quick => (96, vec![1, 8]),
        };
        Config { appends, depths }
    }

    /// Runs the whole sweep.
    fn run(&self) -> Data {
        self.depths.iter().map(|&d| run_depth(self, d)).collect()
    }

    fn render(&self, data: &Data) -> String {
        let mut out = format!(
            "Pipelined ZLog appends: {} appends per run, single closed-loop client\n\n",
            self.appends
        );
        let headers = [
            "depth", "ops/s", "speedup", "p50 ms", "p99 ms", "grants", "batches", "jrnl",
        ];
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|r| {
                vec![
                    r.queue_depth.to_string(),
                    format!("{:.0}", r.throughput),
                    format!("{:.2}x", speedup(data, r)),
                    format!("{:.2}", r.p50_ms),
                    format!("{:.2}", r.p99_ms),
                    r.grants.to_string(),
                    r.batch_writes.to_string(),
                    r.journal_commits.to_string(),
                ]
            })
            .collect();
        out.push_str(&report::table(&headers, &rows));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("zlog_pipelined_appends")),
            ("appends_per_run", Json::from(self.appends)),
            ("time_base", Json::from("simulated")),
            (
                "runs",
                Json::arr(data, |r| {
                    Json::obj([
                        ("queue_depth", Json::from(r.queue_depth)),
                        ("throughput_ops_per_s", Json::Fixed(r.throughput, 1)),
                        ("speedup_vs_depth1", Json::Fixed(speedup(data, r), 2)),
                        ("p50_ms", Json::Fixed(r.p50_ms, 3)),
                        ("p99_ms", Json::Fixed(r.p99_ms, 3)),
                        ("wall_s", Json::Fixed(r.wall_s, 3)),
                        ("sequencer_grants", Json::from(r.grants)),
                        ("batch_writes", Json::from(r.batch_writes)),
                        ("osd_journal_commits", Json::from(r.journal_commits)),
                    ])
                }),
            ),
        ]))
    }

    /// Depth 8 beats the one-at-a-time baseline by at least 3x, and the
    /// coalescing shows at the sequencer, the client and the journal.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let at = |depth: usize| {
            data.iter()
                .find(|r| r.queue_depth == depth)
                .ok_or(format!("no depth-{depth} run"))
        };
        let (base, deep) = (at(1)?, at(8)?);
        ensure!(
            deep.throughput >= 3.0 * base.throughput,
            "depth 8 must be >= 3x depth 1: {deep:?} vs {base:?}"
        );
        ensure!(
            deep.grants * 4 <= base.grants && deep.batch_writes > 0,
            "grants and stripe writes must coalesce: {deep:?} vs {base:?}"
        );
        ensure!(
            deep.journal_commits < base.journal_commits,
            "journal commits must shrink: {deep:?} vs {base:?}"
        );
        Ok(())
    }
}
