//! Per-stage latency breakdown of the pipelined append path, read from
//! the simulator's distributed tracer.
//!
//! A closed-loop client drives batched appends (`append_async`) through
//! the full stack. Every request carries its span context on the wire, so
//! the tracer's per-name histograms decompose end-to-end append latency
//! into: time queued at the client, the bulk sequencer grant round trip
//! (and the MDS service time inside it), the coalesced stripe write, the
//! primary's journal group-commit, and the replica-ack fan-out.
//!
//! The JSON body is `results/BENCH_trace.json`; the rendering also shows
//! the tracer's slow-op log (spans past the threshold, dumped with full
//! ancestry).

use mala_sim::{Sim, SimDuration};

use crate::report::{self, Json};
use crate::workload::{pipelined_appends, pipelined_client, zlog_cluster};
use crate::{ensure, Experiment, Scale};

/// The stages reported, in pipeline order: `(span name, table label)`.
pub const STAGES: &[(&str, &str)] = &[
    ("zlog.append", "append end-to-end"),
    ("zlog.queue", "client queue"),
    ("zlog.grant", "sequencer grant"),
    ("mds.typeop", "mds service"),
    ("zlog.stripe_write", "stripe write"),
    ("rados.op", "rados op"),
    ("osd.op", "osd op"),
    ("osd.journal_commit", "journal commit"),
    ("osd.replica_ack", "replica ack"),
];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Appends driven through the pipelined path.
    pub appends: usize,
    /// Spans slower than this land in the slow-op log.
    pub slow_threshold: SimDuration,
}

/// Client queue depth (appends kept in flight).
const DEPTH: usize = 8;

/// One stage's latency summary (histogram quantiles, microseconds).
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Span name, e.g. `"osd.journal_commit"`.
    pub stage: String,
    /// Human label for the table.
    pub label: String,
    /// Finished spans folded into the histogram.
    pub count: u64,
    /// Median, in simulated microseconds.
    pub p50_us: f64,
    /// Tail, in simulated microseconds.
    pub p99_us: f64,
    /// Mean, in simulated microseconds.
    pub mean_us: f64,
}

/// The breakdown.
#[derive(Debug, Clone)]
pub struct Data {
    /// One entry per [`STAGES`] row with at least one finished span.
    pub stages: Vec<StageStats>,
    /// Distinct traces rooted by appends.
    pub traces: u64,
    /// Slow-op log entries (spans past the threshold, with ancestry).
    pub slow_ops: Vec<String>,
}

/// Builds the cluster and drives the append workload; the returned sim's
/// tracer holds every span. Split from `run` so tests can inspect raw
/// traces.
fn run_sim(config: &Config) -> Sim {
    let client = pipelined_client("tracebench", DEPTH);
    let mut sim = zlog_cluster(7, vec![client]);
    // Setup noise (map propagation, sequencer creation) stays out of the
    // measured histograms.
    sim.tracer_mut().clear();
    sim.tracer_mut()
        .set_slow_threshold(Some(config.slow_threshold));
    pipelined_appends(&mut sim, config.appends, DEPTH);
    sim
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        Config {
            appends: match scale {
                Scale::Paper => 512,
                Scale::Quick => 48,
            },
            slow_threshold: SimDuration::from_millis(20),
        }
    }

    /// Summarizes the run's tracer into per-stage stats.
    fn run(&self) -> Data {
        let sim = run_sim(self);
        let tracer = sim.tracer();
        let stages = STAGES
            .iter()
            .filter_map(|(name, label)| {
                let h = tracer.hist(name)?;
                Some(StageStats {
                    stage: (*name).to_string(),
                    label: (*label).to_string(),
                    count: h.count(),
                    p50_us: h.quantile(0.5).unwrap_or(0.0),
                    p99_us: h.quantile(0.99).unwrap_or(0.0),
                    mean_us: h.mean().unwrap_or(0.0),
                })
            })
            .collect();
        let traces = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "zlog.append")
            .count() as u64;
        Data {
            stages,
            traces,
            slow_ops: tracer.slow_ops().to_vec(),
        }
    }

    /// The breakdown as an aligned table plus the slow-op log.
    fn render(&self, data: &Data) -> String {
        let mut out = format!(
            "Traced pipelined appends: {} appends at queue depth {}, {} traces\n\n",
            self.appends, DEPTH, data.traces
        );
        let headers = ["stage", "spans", "p50 us", "p99 us", "mean us"];
        let rows: Vec<Vec<String>> = data
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.label.clone(),
                    s.count.to_string(),
                    format!("{:.0}", s.p50_us),
                    format!("{:.0}", s.p99_us),
                    format!("{:.0}", s.mean_us),
                ]
            })
            .collect();
        out.push_str(&report::table(&headers, &rows));
        out.push_str(&format!(
            "\nslow ops (threshold): {}\n",
            data.slow_ops.len()
        ));
        for line in data.slow_ops.iter().take(10) {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("trace_pipelined_appends")),
            ("appends", Json::from(self.appends)),
            ("queue_depth", Json::from(DEPTH)),
            ("traces", Json::from(data.traces)),
            ("time_base", Json::from("simulated")),
            (
                "stages",
                Json::arr(&data.stages, |s| {
                    Json::obj([
                        ("stage", Json::from(s.stage.as_str())),
                        ("label", Json::from(s.label.as_str())),
                        ("spans", Json::from(s.count)),
                        ("p50_us", Json::Fixed(s.p50_us, 1)),
                        ("p99_us", Json::Fixed(s.p99_us, 1)),
                        ("mean_us", Json::Fixed(s.mean_us, 1)),
                    ])
                }),
            ),
            ("slow_ops", Json::from(data.slow_ops.len())),
        ]))
    }

    /// Every append roots one trace and every pipeline stage recorded
    /// spans.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        ensure!(
            data.traces as usize == self.appends,
            "{} traces for {} appends",
            data.traces,
            self.appends
        );
        for required in [
            "zlog.append",
            "zlog.queue",
            "zlog.grant",
            "zlog.stripe_write",
            "osd.journal_commit",
            "osd.replica_ack",
        ] {
            let stage = (data.stages.iter())
                .find(|s| s.stage == required)
                .ok_or(format!("stage {required} missing from breakdown"))?;
            ensure!(
                stage.count > 0 && stage.p99_us >= stage.p50_us,
                "no spans, or p99 < p50: {stage:?}"
            );
        }
        ensure!(
            data.stages[0].p50_us > 0.0,
            "end-to-end append took no time"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_trace_contiguously_from_client_to_replica_journal() {
        let sim = run_sim(&Config::at(Scale::Quick));
        let tracer = sim.tracer();
        // A grant is traced under its batch's first member only, so start
        // from the first grant: its trace's replica-side journal span must
        // have an ancestry that shares one trace rooted at the append.
        let grant = tracer
            .spans()
            .iter()
            .find(|s| s.name == "zlog.grant")
            .expect("no grant span recorded");
        let repl = *tracer
            .trace_spans(grant.trace)
            .iter()
            .find(|s| s.name == "osd.repl_journal")
            .expect("no replica journal span in the grant's trace");
        let chain = tracer.ancestry(repl.id);
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "zlog.append",
                "zlog.stripe_write",
                "rados.op",
                "osd.op",
                "osd.replica_ack",
                "osd.repl_journal"
            ],
            "replica journal ancestry"
        );
        assert!(
            chain.iter().all(|s| s.trace == repl.trace),
            "ancestry must stay in one trace"
        );
        // The same trace also carries the grant round trip through the
        // MDS, linked by wire propagation, plus the primary's commit.
        let in_trace: Vec<&str> = tracer
            .trace_spans(repl.trace)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        for required in [
            "zlog.queue",
            "zlog.grant",
            "mds.typeop",
            "osd.journal_commit",
        ] {
            assert!(
                in_trace.contains(&required),
                "trace must contain {required}: {in_trace:?}"
            );
        }
        // Spans hop nodes: client, MDS, primary OSD, replica OSD.
        let nodes: std::collections::HashSet<_> = tracer
            .trace_spans(repl.trace)
            .iter()
            .map(|s| s.node)
            .collect();
        assert!(nodes.len() >= 4, "expected >= 4 nodes, got {nodes:?}");
    }
}
