//! Elastic membership: RADOS throughput through a live expand (OSD join)
//! and a live drain (weight → 0) under closed-loop load.
//!
//! A closed-loop client appends to a working set of objects continuously.
//! At `join_at` a brand-new OSD is committed into the osdmap at full
//! weight; rendezvous hashing hands it a share of the PGs and it backfills
//! each one from the previous acting sets while old members keep serving.
//! At `drain_at` one of the original OSDs is drained (weight 0): it stays
//! up, sourcing backfill for its old PGs, but wins no new placements. For
//! each event the report shows bytes/objects moved, the migration window
//! (map commit → last backfill completed), the client ops bounced off
//! backfilling PGs with the typed `NotReady` error, and the throughput dip
//! relative to the healthy baseline.

use mala_rados::{ObjectId, Op};
use mala_sim::SimDuration;
use malacology::cluster::{Cluster, ClusterBuilder};

use crate::report::{self, phase_stats, Json, PhaseStats};
use crate::{ensure, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// OSD count at the start of the run.
    pub osds: u32,
    /// Objects in the working set (round-robin appends).
    pub objects: u32,
    /// Total run length.
    pub duration: SimDuration,
    /// When the new OSD joins (osdmap commit at full weight).
    pub join_at: SimDuration,
    /// When an original OSD is drained (weight → 0).
    pub drain_at: SimDuration,
}

/// Payload bytes per append.
const PAYLOAD: usize = 256;

/// What one membership event cost while the cluster stayed live.
#[derive(Debug, Clone)]
pub struct EventStats {
    /// `"expand"` or `"drain"`.
    pub label: String,
    /// Bytes copied by the event's backfills.
    pub moved_bytes: u64,
    /// Objects copied by the event's backfills.
    pub moved_objects: u64,
    /// Backfills the event started.
    pub backfills: u64,
    /// Map commit → last backfill completed (ms); the window in which
    /// some PGs bounce writes with `NotReady`.
    pub window_ms: f64,
    /// Client ops bounced off backfilling PGs during the event.
    pub rejects: u64,
    /// Throughput during the migration window / healthy baseline.
    pub dip_ratio: f64,
}

/// Run results.
#[derive(Debug, Clone)]
pub struct Data {
    /// `(window_start_s, appends/s)`.
    pub series: Vec<(f64, f64)>,
    /// Healthy / expand / drain phase stats.
    pub phases: Vec<PhaseStats>,
    /// Expand then drain event stats.
    pub events: Vec<EventStats>,
    /// Client retransmits absorbed by the run.
    pub retries: u64,
    /// Appends that failed terminally (must be zero).
    pub failures: u64,
}

/// Global backfills still in flight, from the monotonic counters.
fn backfills_in_flight(cluster: &Cluster) -> u64 {
    let m = cluster.sim.metrics();
    let started = m.counter("osd.backfills_started");
    let ended = m.counter("osd.backfills_completed")
        + m.counter("osd.backfill_aborted")
        + m.counter("osd.backfill_dropped");
    started.saturating_sub(ended)
}

/// Counter snapshot taken around each membership event.
struct EventProbe {
    committed_s: f64,
    bytes: u64,
    objects: u64,
    started: u64,
    rejects: u64,
    settle_s: Option<f64>,
}

fn probe(cluster: &Cluster, committed_s: f64) -> EventProbe {
    let m = cluster.sim.metrics();
    EventProbe {
        committed_s,
        bytes: m.counter("osd.backfill_bytes"),
        objects: m.counter("osd.backfill_objects"),
        started: m.counter("osd.backfills_started"),
        rejects: m.counter("osd.backfill_rejects"),
        settle_s: None,
    }
}

fn event_stats(
    label: &str,
    cluster: &Cluster,
    p: &EventProbe,
    samples: &[(f64, f64)],
    healthy_rate: f64,
    end_s: f64,
) -> EventStats {
    let m = cluster.sim.metrics();
    let window_end_s = p.settle_s.unwrap_or(end_s);
    let window_s = (window_end_s - p.committed_s).max(f64::EPSILON);
    // The dip is measured over at least a second: a sub-window migration
    // still stalls the client for the commit round-trip, and a window
    // shorter than one op's latency would sample nothing.
    let dip_end_s = window_end_s.max(p.committed_s + 1.0).min(end_s);
    let dip_span_s = (dip_end_s - p.committed_s).max(f64::EPSILON);
    let in_window = samples
        .iter()
        .filter(|(t, _)| *t >= p.committed_s && *t < dip_end_s)
        .count();
    EventStats {
        label: label.to_string(),
        moved_bytes: m.counter("osd.backfill_bytes") - p.bytes,
        moved_objects: m.counter("osd.backfill_objects") - p.objects,
        backfills: m.counter("osd.backfills_started") - p.started,
        window_ms: window_s * 1000.0,
        rejects: m.counter("osd.backfill_rejects") - p.rejects,
        dip_ratio: (in_window as f64 / dip_span_s) / healthy_rate.max(f64::EPSILON),
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let (osds, objects, secs, join_s, drain_s) = match scale {
            Scale::Paper => (4, 48, 30, 10, 20),
            Scale::Quick => (3, 24, 15, 5, 10),
        };
        Config {
            osds,
            objects,
            duration: SimDuration::from_secs(secs),
            join_at: SimDuration::from_secs(join_s),
            drain_at: SimDuration::from_secs(drain_s),
        }
    }

    fn run(&self) -> Data {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(self.osds)
            .pool("data", 32, 2)
            .build(2017);
        let t0 = cluster.sim.now();
        let join_time = t0 + self.join_at;
        let drain_time = t0 + self.drain_at;
        let end = t0 + self.duration;

        let mut samples: Vec<(f64, f64)> = Vec::new();
        let mut failures = 0u64;
        let mut seq = 0u64;
        let mut expand: Option<EventProbe> = None;
        let mut drain: Option<EventProbe> = None;

        while cluster.sim.now() < end {
            let now = cluster.sim.now();
            // Events are submitted without waiting for the commit, so the
            // workload runs live through the remap. The window covers
            // operator action → cluster settled: commit, propagation, and
            // every backfill the remap starts.
            if expand.is_none() && now >= join_time {
                let p = probe(&cluster, now.since(t0).as_secs_f64());
                cluster.add_osd_nowait();
                expand = Some(p);
            }
            if drain.is_none() && cluster.sim.now() >= drain_time {
                // Settle the expand window before measuring the drain so the
                // two events' backfill counters do not overlap.
                if let Some(p) = expand.as_mut() {
                    if p.settle_s.is_none() {
                        p.settle_s = Some(cluster.sim.now().since(t0).as_secs_f64());
                    }
                }
                let p = probe(&cluster, cluster.sim.now().since(t0).as_secs_f64());
                cluster.drain_osd_nowait(0);
                drain = Some(p);
            }
            let started = cluster.sim.now();
            let name = format!("obj{}", seq % u64::from(self.objects));
            seq += 1;
            let result = cluster.rados(
                ObjectId::new("data", name.as_str()),
                vec![Op::Append {
                    data: vec![(seq % 251) as u8; PAYLOAD],
                }],
            );
            match result {
                Ok(_) => {
                    let done = cluster.sim.now();
                    samples.push((
                        done.since(t0).as_secs_f64(),
                        done.since(started).as_micros() as f64 / 1000.0,
                    ));
                }
                Err(_) => failures += 1,
            }
            // Close an event's migration window the first time its backfills
            // all finish. The submit is asynchronous, so an event only
            // settles once at least one of its backfills has started —
            // otherwise in-flight == 0 merely means the commit is still
            // propagating.
            if backfills_in_flight(&cluster) == 0 {
                let now_s = cluster.sim.now().since(t0).as_secs_f64();
                let started = cluster.sim.metrics().counter("osd.backfills_started");
                for p in [&mut expand, &mut drain].into_iter().flatten() {
                    if p.settle_s.is_none() && started > p.started {
                        p.settle_s = Some(now_s);
                    }
                }
            }
        }

        let series = report::append_rate(&samples, self.duration.as_secs_f64());
        let (join_s, drain_s, end_s) = (
            self.join_at.as_secs_f64(),
            self.drain_at.as_secs_f64(),
            self.duration.as_secs_f64(),
        );
        let phases = vec![
            phase_stats("healthy", &samples, 0.0, join_s),
            phase_stats("expand", &samples, join_s, drain_s),
            phase_stats("drain", &samples, drain_s, end_s),
        ];
        let healthy_rate = phases[0].rate;
        let events = [("expand", &expand), ("drain", &drain)]
            .into_iter()
            .filter_map(|(label, p)| {
                let p = p.as_ref()?;
                Some(event_stats(
                    label,
                    &cluster,
                    p,
                    &samples,
                    healthy_rate,
                    end_s,
                ))
            })
            .collect();
        let metrics = cluster.sim.metrics();
        Data {
            series,
            phases,
            events,
            retries: metrics.counter("client.retries"),
            failures,
        }
    }

    /// The timeline, phase table, and event costs.
    fn render(&self, data: &Data) -> String {
        let mut out = String::from(
            "Elastic membership: RADOS appends through a live OSD join and a \
         live drain (epoch-guarded backfill)\n\n",
        );
        out.push_str(&report::timeline(&data.series, &data.phases));
        out.push('\n');
        let rows: Vec<Vec<String>> = data
            .events
            .iter()
            .map(|e| {
                vec![
                    e.label.clone(),
                    e.backfills.to_string(),
                    e.moved_objects.to_string(),
                    e.moved_bytes.to_string(),
                    format!("{:.0}", e.window_ms),
                    e.rejects.to_string(),
                    format!("{:.2}", e.dip_ratio),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &[
                "event",
                "backfills",
                "objects moved",
                "bytes moved",
                "window ms",
                "rejects",
                "dip ratio",
            ],
            &rows,
        ));
        out.push_str(&format!(
            "\nretries absorbed: {}   terminal failures: {}\n",
            data.retries, data.failures
        ));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("elastic_membership")),
            ("time_base", Json::from("simulated")),
            ("terminal_failures", Json::from(data.failures)),
            ("client_retries", Json::from(data.retries)),
            (
                "phases",
                Json::arr(&data.phases, |p| {
                    Json::obj([
                        ("phase", Json::from(p.label.as_str())),
                        ("appends", Json::from(p.appends)),
                        ("ops_per_s", Json::Fixed(p.rate, 1)),
                        ("mean_ms", Json::Fixed(p.mean_latency_ms, 3)),
                        ("p99_ms", Json::Fixed(p.p99_latency_ms, 3)),
                    ])
                }),
            ),
            (
                "events",
                Json::arr(&data.events, |e| {
                    Json::obj([
                        ("event", Json::from(e.label.as_str())),
                        ("backfills", Json::from(e.backfills)),
                        ("objects_moved", Json::from(e.moved_objects)),
                        ("bytes_moved", Json::from(e.moved_bytes)),
                        ("availability_window_ms", Json::Fixed(e.window_ms, 0)),
                        ("not_ready_rejects", Json::from(e.rejects)),
                        ("throughput_dip_ratio", Json::Fixed(e.dip_ratio, 3)),
                    ])
                }),
            ),
            (
                "throughput_series",
                Json::arr(&data.series, |(t, r)| {
                    Json::Arr(vec![Json::Fixed(*t, 1), Json::Fixed(*r, 1)])
                }),
            ),
        ]))
    }

    /// Both membership events move data while every phase keeps serving.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        ensure!(data.failures == 0, "{} terminal failures", data.failures);
        let labels: Vec<&str> = data.events.iter().map(|e| e.label.as_str()).collect();
        ensure!(labels == ["expand", "drain"], "events {labels:?}");
        for e in &data.events {
            ensure!(
                e.backfills > 0 && e.moved_objects > 0 && e.moved_bytes > 0 && e.window_ms > 0.0,
                "a membership event moved nothing: {e:?}"
            );
        }
        for p in &data.phases {
            ensure!(p.rate > 0.0, "a phase served nothing: {p:?}");
        }
        Ok(())
    }
}
