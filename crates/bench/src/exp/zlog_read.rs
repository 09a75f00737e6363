//! Read-side scale-out: vectored catch-up throughput versus batch depth,
//! and checkpointed KV recovery versus total log length.
//!
//! **Catch-up sweep** — a cold reader replays a pre-populated log. Depth
//! 1 is the classic path: one `read` round trip per position, each a
//! `read_batch` of one. Depth ≥ 2 uses the pipelined tailing cursor
//! ([`ZlogClient::tail_cursor`]): up to `depth` positions prefetched ahead
//! of the delivery point, one `read_batch` RADOS op per stripe object,
//! several ops in flight. The `rados.read_batch_positions /
//! rados.read_batch_ops` ratio is the round-trip amplification the vectored
//! path removes.
//!
//! **Recovery sweep** — a KV replica recovers from a log of growing total
//! length. Without a checkpoint, replay starts at zero and recovery cost
//! grows with the log. With a checkpoint trailing the tail by a fixed
//! lag, recovery restores the snapshot and replays only the suffix —
//! flat in total log length, which is the whole point of trim/checkpoint.
//!
//! The JSON body is `results/BENCH_zlog_read.json`.

use mala_sim::{NodeId, Sim, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{encode_cmd, AppendResult, KvCmd, KvStore, ReadConfig, ReadOutcome, ZlogClient};

use crate::report::{self, Json};
use crate::workload::{zlog_cluster, zlog_config, ZLOG_CLIENT};
use crate::{ensure, Experiment, Scale};

const WRITER: NodeId = ZLOG_CLIENT;
const READER: NodeId = NodeId(ZLOG_CLIENT.0 + 1);

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Log length for the catch-up sweep.
    pub entries: usize,
    /// Batch depths to sweep; depth 1 is the point-read baseline.
    pub depths: Vec<usize>,
    /// Total log lengths for the recovery sweep.
    pub log_lens: Vec<usize>,
    /// Distance the checkpoint trails the tail by in the recovery sweep.
    pub ckpt_lag: usize,
}

/// One batch depth's catch-up measurements.
#[derive(Debug, Clone)]
pub struct DepthRun {
    /// Cursor read-ahead depth (1 = point `read` baseline).
    pub depth: usize,
    /// Positions replayed per simulated second.
    pub throughput: f64,
    /// Run length in simulated seconds.
    pub wall_s: f64,
    /// `read_batch` RADOS round trips (one per position at depth 1).
    pub batch_ops: u64,
    /// Positions those round trips asked for.
    pub positions_read: u64,
}

/// One total-log-length recovery measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Total log length at recovery time.
    pub log_len: usize,
    /// Whether a checkpoint (trailing by `ckpt_lag`) was available.
    pub checkpointed: bool,
    /// Positions actually replayed.
    pub replayed: u64,
    /// Simulated recovery time, snapshot restore through caught-up.
    pub recovery_ms: f64,
}

/// Both sweeps.
#[derive(Debug, Clone)]
pub struct Data {
    pub runs: Vec<DepthRun>,
    pub recoveries: Vec<RecoveryRun>,
}

/// A reader of `log` whose cursor prefetches `readahead` positions.
fn cursor_client(log: &str, readahead: usize) -> ZlogClient {
    let read_config = ReadConfig {
        readahead,
        max_inflight: 4,
    };
    ZlogClient::with_read_config(zlog_config(log), read_config)
}

/// A cluster with a plain writer and `reader` on log `log`.
fn build(log: &str, reader: ZlogClient) -> Sim {
    let writer = ZlogClient::new(zlog_config(log));
    zlog_cluster(11, vec![writer, reader])
}

fn append(sim: &mut Sim, data: Vec<u8>) -> u64 {
    match run_op(sim, WRITER, SimDuration::from_secs(60), move |c, ctx| {
        c.append(ctx, data)
    }) {
        AppendResult::Ok(ZlogOut::Pos(p)) => p,
        other => panic!("append failed: {other:?}"),
    }
}

/// Drains `id` on the reader until an empty (caught-up) batch; returns
/// the delivered entries.
fn drain_cursor(sim: &mut Sim, id: u64, max: usize) -> Vec<(u64, ReadOutcome)> {
    let mut all = Vec::new();
    loop {
        let batch = match run_op(sim, READER, SimDuration::from_secs(60), move |c, ctx| {
            c.cursor_next_batch(ctx, id, max)
        }) {
            AppendResult::Ok(ZlogOut::CursorBatch(b)) => b,
            other => panic!("cursor batch failed: {other:?}"),
        };
        if batch.is_empty() {
            return all;
        }
        all.extend(batch);
    }
}

/// Runs one catch-up depth; panics on any lost or reordered entry.
fn run_depth(config: &Config, depth: usize) -> DepthRun {
    let log = format!("readbench.d{depth}");
    let reader = if depth <= 1 {
        ZlogClient::new(zlog_config(&log))
    } else {
        cursor_client(&log, depth)
    };
    let mut sim = build(&log, reader);
    for i in 0..config.entries {
        append(&mut sim, format!("entry-{i}").into_bytes());
    }
    let ops_before = sim.metrics().counter("rados.read_batch_ops");
    let positions_before = sim.metrics().counter("rados.read_batch_positions");
    let t0 = sim.now();
    let mut replayed: Vec<(u64, Vec<u8>)> = Vec::new();
    if depth <= 1 {
        // Baseline: strictly one point read in flight.
        for pos in 0..config.entries as u64 {
            match run_op(
                &mut sim,
                READER,
                SimDuration::from_secs(60),
                move |c, ctx| c.read(ctx, pos),
            ) {
                AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(d))) => replayed.push((pos, d)),
                other => panic!("baseline read {pos} failed: {other:?}"),
            }
        }
    } else {
        let id = sim.with_actor::<ZlogClient, _>(READER, |c, ctx| c.tail_cursor(ctx));
        for (p, o) in drain_cursor(&mut sim, id, depth) {
            match o {
                ReadOutcome::Data(d) => replayed.push((p, d)),
                other => panic!("cursor read {p} came back {other:?}"),
            }
        }
    }
    let wall_s = sim.now().since(t0).as_secs_f64();
    assert_eq!(replayed.len(), config.entries, "catch-up lost entries");
    for (i, (p, d)) in replayed.iter().enumerate() {
        assert_eq!(*p, i as u64, "delivery out of order");
        assert_eq!(d, format!("entry-{i}").as_bytes(), "payload mismatch");
    }
    DepthRun {
        depth,
        throughput: config.entries as f64 / wall_s,
        wall_s,
        batch_ops: sim.metrics().counter("rados.read_batch_ops") - ops_before,
        positions_read: sim.metrics().counter("rados.read_batch_positions") - positions_before,
    }
}

/// Runs one recovery measurement at `log_len` total entries.
fn run_recovery(config: &Config, log_len: usize, checkpointed: bool) -> RecoveryRun {
    let log = format!(
        "recbench.l{log_len}.{}",
        if checkpointed { "ck" } else { "cold" }
    );
    let mut sim = build(&log, cursor_client(&log, 32));
    let ckpt_at = log_len.saturating_sub(config.ckpt_lag) as u64;
    let mut state = KvStore::new();
    for i in 0..log_len {
        let bytes = encode_cmd(&KvCmd::put(format!("k{}", i % 8), format!("v{i}")));
        let pos = append(&mut sim, bytes.clone());
        state
            .apply(pos, &ReadOutcome::Data(bytes))
            .unwrap_or_else(|e| panic!("writer-side apply: {e}"));
        if checkpointed && state.applied() == ckpt_at {
            let (pos, blob) = (state.applied(), state.snapshot());
            let res = run_op(
                &mut sim,
                WRITER,
                SimDuration::from_secs(60),
                move |c, ctx| c.checkpoint(ctx, pos, blob),
            );
            assert!(
                matches!(res, AppendResult::Ok(ZlogOut::CheckpointAt(_))),
                "{res:?}"
            );
            let res = run_op(
                &mut sim,
                WRITER,
                SimDuration::from_secs(60),
                move |c, ctx| c.trim_to(ctx, pos),
            );
            assert!(matches!(res, AppendResult::Ok(ZlogOut::Done)), "{res:?}");
        }
    }

    // Cold replica: restore the latest snapshot (if any), tail from it.
    let t0 = sim.now();
    let ckpt = match run_op(&mut sim, READER, SimDuration::from_secs(60), |c, ctx| {
        c.checkpoint_read(ctx)
    }) {
        AppendResult::Ok(ZlogOut::Checkpoint(c)) => c,
        other => panic!("checkpoint_read failed: {other:?}"),
    };
    let mut recovered = match &ckpt {
        Some((pos, blob)) => {
            KvStore::restore(*pos, blob).unwrap_or_else(|e| panic!("snapshot restore: {e}"))
        }
        None => KvStore::new(),
    };
    assert_eq!(ckpt.is_some(), checkpointed, "unexpected checkpoint state");
    let id = sim.with_actor::<ZlogClient, _>(READER, |c, ctx| c.tail_cursor(ctx));
    let suffix = drain_cursor(&mut sim, id, 32);
    let replayed = suffix.len() as u64;
    for (p, o) in &suffix {
        recovered
            .apply(*p, o)
            .unwrap_or_else(|e| panic!("suffix replay: {e}"));
    }
    let recovery_ms = sim.now().since(t0).as_secs_f64() * 1e3;
    assert_eq!(recovered, state, "recovered replica diverged");
    RecoveryRun {
        log_len,
        checkpointed,
        replayed,
        recovery_ms,
    }
}

/// Speedup of `run` over the depth-1 baseline in `data` (1.0 if absent).
fn speedup(data: &Data, run: &DepthRun) -> f64 {
    data.runs
        .iter()
        .find(|r| r.depth == 1)
        .map(|base| run.throughput / base.throughput)
        .unwrap_or(1.0)
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let (entries, depths, log_lens, ckpt_lag) = match scale {
            Scale::Paper => (192, vec![1, 8, 32], vec![64, 128, 256], 16),
            Scale::Quick => (96, vec![1, 32], vec![48, 144], 12),
        };
        Config {
            entries,
            depths,
            log_lens,
            ckpt_lag,
        }
    }

    /// Runs both sweeps.
    fn run(&self) -> Data {
        Data {
            runs: self.depths.iter().map(|&d| run_depth(self, d)).collect(),
            recoveries: (self.log_lens.iter())
                .flat_map(|&l| [run_recovery(self, l, false), run_recovery(self, l, true)])
                .collect(),
        }
    }

    /// Both sweeps as aligned tables.
    fn render(&self, data: &Data) -> String {
        let mut out = format!(
            "ZLog catch-up: {} entries replayed by one cold reader\n\n",
            self.entries
        );
        let headers = [
            "depth",
            "pos/s",
            "speedup",
            "wall s",
            "batch ops",
            "positions",
        ];
        let rows: Vec<Vec<String>> = data
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.depth.to_string(),
                    format!("{:.0}", r.throughput),
                    format!("{:.2}x", speedup(data, r)),
                    format!("{:.3}", r.wall_s),
                    r.batch_ops.to_string(),
                    r.positions_read.to_string(),
                ]
            })
            .collect();
        out.push_str(&report::table(&headers, &rows));
        out.push_str(&format!(
            "\nKV recovery: checkpoint trails the tail by {} entries\n\n",
            self.ckpt_lag
        ));
        let headers = ["log len", "checkpoint", "replayed", "recovery ms"];
        let rows: Vec<Vec<String>> = data
            .recoveries
            .iter()
            .map(|r| {
                vec![
                    r.log_len.to_string(),
                    if r.checkpointed { "yes" } else { "no" }.to_string(),
                    r.replayed.to_string(),
                    format!("{:.2}", r.recovery_ms),
                ]
            })
            .collect();
        out.push_str(&report::table(&headers, &rows));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("zlog_read_scaleout")),
            ("entries_per_run", Json::from(self.entries)),
            ("checkpoint_lag", Json::from(self.ckpt_lag)),
            ("time_base", Json::from("simulated")),
            (
                "catchup",
                Json::arr(&data.runs, |r| {
                    Json::obj([
                        ("depth", Json::from(r.depth)),
                        ("throughput_pos_per_s", Json::Fixed(r.throughput, 1)),
                        ("speedup_vs_depth1", Json::Fixed(speedup(data, r), 2)),
                        ("wall_s", Json::Fixed(r.wall_s, 3)),
                        ("read_batch_ops", Json::from(r.batch_ops)),
                        ("positions_read", Json::from(r.positions_read)),
                    ])
                }),
            ),
            (
                "recovery",
                Json::arr(&data.recoveries, |r| {
                    Json::obj([
                        ("log_len", Json::from(r.log_len)),
                        ("checkpointed", Json::from(r.checkpointed)),
                        ("replayed", Json::from(r.replayed)),
                        ("recovery_ms", Json::Fixed(r.recovery_ms, 3)),
                    ])
                }),
            ),
        ]))
    }

    /// The deepest cursor beats point reads 5x by amortizing round trips;
    /// checkpointed recovery replays only the suffix and stays flat in log
    /// length while cold replay grows with it.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let (base, deep) = (&data.runs[0], &data.runs[data.runs.len() - 1]);
        ensure!(
            base.depth == 1 && deep.throughput >= 5.0 * base.throughput,
            "the deepest cursor must be >= 5x point reads: {deep:?} vs {base:?}"
        );
        ensure!(
            deep.batch_ops > 0 && deep.positions_read >= 4 * deep.batch_ops,
            "batching must amortize round trips: {deep:?}"
        );
        let n = data.recoveries.len();
        let [short_cold, short_ck] = [&data.recoveries[0], &data.recoveries[1]];
        let [long_cold, long_ck] = [&data.recoveries[n - 2], &data.recoveries[n - 1]];
        for r in [short_cold, long_cold] {
            ensure!(
                r.replayed == r.log_len as u64,
                "cold replay is whole: {r:?}"
            );
        }
        for r in [short_ck, long_ck] {
            ensure!(
                r.replayed == self.ckpt_lag as u64,
                "checkpointed replay is only the {}-entry suffix: {r:?}",
                self.ckpt_lag
            );
        }
        ensure!(
            long_ck.recovery_ms < 1.5 * short_ck.recovery_ms,
            "checkpointed recovery must stay flat: {long_ck:?} vs {short_ck:?}"
        );
        ensure!(
            long_cold.recovery_ms > 2.0 * long_ck.recovery_ms,
            "checkpoint must beat cold replay: {long_cold:?} vs {long_ck:?}"
        );
        Ok(())
    }
}
