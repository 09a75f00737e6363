//! Availability under faults: zlog append throughput/latency before,
//! during, and after an injected OSD crash plus a sequencer failover.
//!
//! A closed-loop client appends continuously. At `crash_at` the nemesis
//! kills an OSD *without* marking it down in the osdmap — the worst case
//! for the client, which must ride on retransmit/backoff until the daemon
//! returns at `restart_at` and replays its write-ahead journal. At
//! `failover_at` the MDS hosting the sequencer is killed and restarted;
//! the client re-runs setup and CORFU recovery (seal, find tail) before
//! appends resume. The report shows the throughput dip and latency spike
//! around each event and the retry counters that absorbed them.
//!
//! The `sequencer-failover` scenario ([`FailoverConfig`]) crashes the MDS
//! *without any harness help*: the monitor must notice the missed beacons,
//! promote the standby, and the standby must replay the metadata journal
//! and seal the log before positions flow again. The client rides through
//! on its retry machinery.

use mala_consensus::{MonConfig, Monitor};
use mala_mds::server::Mds;
use mala_mds::{MdsConfig, NoBalancer};
use mala_rados::{Osd, OsdConfig};
use mala_sim::{Fault, FaultSchedule, Nemesis, NodeId, SimDuration};
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
use malacology::cluster::{Cluster, ClusterBuilder};

use crate::report::{self, phase_stats, PhaseStats};
use crate::workload::ClosedLoop;
use crate::{ensure, Experiment, Scale};

/// Configuration of the availability scenario.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total run length.
    pub duration: SimDuration,
    /// When the nemesis kills the OSD (no osdmap update).
    pub crash_at: SimDuration,
    /// When the OSD returns and replays its journal.
    pub restart_at: SimDuration,
    /// When the sequencer MDS is killed and restarted.
    pub failover_at: SimDuration,
}

/// Run results.
#[derive(Debug, Clone)]
pub struct Data {
    /// `(window_start_s, appends/s)`.
    pub series: Vec<(f64, f64)>,
    /// Before / OSD-outage / recovered / post-failover stats.
    pub phases: Vec<PhaseStats>,
    /// Client retransmits absorbed by the run.
    pub retries: u64,
    /// Journal replays performed by restarted OSDs.
    pub journal_replays: u64,
    /// Tail the sequencer recovery found (must equal appends so far).
    pub recovered_tail: u64,
    /// Appends that failed terminally (must be zero).
    pub failures: u64,
}

/// Adds a client for log `name` on `logpool`, sets the log up, and returns
/// the client's node.
fn zlog_client(cluster: &mut Cluster, name: &str) -> NodeId {
    cluster.commit_updates(vec![zlog_interface_update()]);
    let node = cluster.alloc_node();
    cluster.sim.add_node(
        node,
        ZlogClient::new(ZlogConfig {
            name: name.into(),
            pool: "logpool".into(),
            stripe_width: 4,
            mds_nodes: cluster.mds_nodes(),
            home_rank: 0,
            monitor: cluster.mon(),
        }),
    );
    cluster.sim.run_for(SimDuration::from_secs(1));
    run_op(
        &mut cluster.sim,
        node,
        SimDuration::from_secs(10),
        |c, ctx| c.setup(ctx),
    );
    node
}

fn retries(cluster: &Cluster) -> u64 {
    let metrics = cluster.sim.metrics();
    metrics.counter("client.retries") + metrics.counter("zlog.retries")
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let [duration, crash_at, restart_at, failover_at] = match scale {
            Scale::Paper => [30, 10, 14, 18],
            Scale::Quick => [16, 5, 8, 10],
        }
        .map(SimDuration::from_secs);
        Config {
            duration,
            crash_at,
            restart_at,
            failover_at,
        }
    }

    fn run(&self) -> Data {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(5)
            .mds_ranks(1)
            .pool("logpool", 16, 2)
            .build(13);
        let node = zlog_client(&mut cluster, "avail");

        let t0 = cluster.sim.now();
        let victim = cluster.osd_node(0);
        let schedule = FaultSchedule::new()
            .at(t0 + self.crash_at, Fault::Crash(victim))
            .at(t0 + self.restart_at, Fault::Restart(victim));
        let journals = cluster.journals().clone();
        let mon = cluster.mon();
        let mut nemesis = Nemesis::new(schedule).on_restart(move |sim, n| {
            sim.restart(
                n,
                Osd::with_journal(n.0 - 10, mon, OsdConfig::default(), journals.journal(n)),
            );
        });

        let mut appends = ClosedLoop::new(node, t0, "e");
        appends.append_until(&mut cluster.sim, &mut nemesis, t0 + self.failover_at);

        // Sequencer failover: kill the MDS, restart it cold, re-establish
        // the namespace, and run CORFU recovery (seal the old epoch, find
        // the tail) before appends resume.
        let mds0 = cluster.mds_node(0);
        cluster.sim.crash(mds0);
        cluster.sim.restart(
            mds0,
            Mds::new(0, mon, MdsConfig::default(), Box::new(NoBalancer)),
        );
        cluster.sim.run_for(SimDuration::from_secs(1));
        run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(10),
            |c, ctx| c.setup(ctx),
        );
        let recovered = run_op(
            &mut cluster.sim,
            node,
            SimDuration::from_secs(30),
            |c, ctx| c.recover(ctx),
        );
        let recovered_tail = match recovered {
            AppendResult::Ok(ZlogOut::Recovered { tail, .. }) => tail,
            other => panic!("sequencer recovery failed: {other:?}"),
        };

        appends.append_until(&mut cluster.sim, &mut nemesis, t0 + self.duration);

        let samples = &appends.samples;
        let (crash_s, restart_s, failover_s, end_s) = (
            self.crash_at.as_secs_f64(),
            self.restart_at.as_secs_f64(),
            self.failover_at.as_secs_f64(),
            self.duration.as_secs_f64(),
        );
        Data {
            series: report::append_rate(samples, end_s),
            phases: vec![
                phase_stats("healthy", samples, 0.0, crash_s),
                phase_stats("osd-outage", samples, crash_s, restart_s),
                phase_stats("osd-recovered", samples, restart_s, failover_s),
                phase_stats("post-failover", samples, failover_s, end_s),
            ],
            retries: retries(&cluster),
            journal_replays: cluster.sim.metrics().counter("osd.journal_replays"),
            recovered_tail,
            failures: appends.failures,
        }
    }

    /// The availability timeline and phase table.
    fn render(&self, data: &Data) -> String {
        let mut out = String::from(
            "Nemesis availability: zlog appends through an OSD crash (no map \
             update) and a sequencer failover\n\n",
        );
        out.push_str(&report::timeline(&data.series, &data.phases));
        out.push_str(&format!(
            "\nretries absorbed: {}   journal replays: {}   recovered tail: {}   \
             terminal failures: {}\n",
            data.retries, data.journal_replays, data.recovered_tail, data.failures
        ));
        out
    }

    /// Throughput dips through the outage, the restart restores it, and
    /// the failover loses no acked append.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        ensure!(data.failures == 0, "{} terminal failures", data.failures);
        let [healthy, outage, recovered, post] = [0, 1, 2, 3].map(|i| &data.phases[i]);
        ensure!(
            healthy.rate > 0.0 && outage.rate < healthy.rate,
            "the outage must dip throughput: {outage:?} vs {healthy:?}"
        );
        ensure!(
            recovered.rate > outage.rate,
            "the restart must restore throughput: {recovered:?} vs {outage:?}"
        );
        ensure!(post.rate > 0.0, "appends dead after sequencer failover");
        ensure!(data.journal_replays >= 1, "restarted OSD never replayed");
        ensure!(data.retries > 0, "outage should surface retransmits");
        // Positions are burned (not reused) by attempts that timed out and
        // retried, so the recovered tail bounds the acked appends from
        // above; losing one would show as tail < acked.
        let acked = healthy.appends + outage.appends + recovered.appends;
        ensure!(
            data.recovered_tail >= acked,
            "recovery lost acked appends: tail {} < {acked}",
            data.recovered_tail
        );
        Ok(())
    }
}

/// Configuration of the `sequencer-failover` scenario.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Total run length.
    pub duration: SimDuration,
    /// When the active MDS is crashed (beacons just stop).
    pub crash_at: SimDuration,
}

/// Results of the `sequencer-failover` scenario.
#[derive(Debug, Clone)]
pub struct FailoverData {
    /// `(window_start_s, appends/s)`.
    pub series: Vec<(f64, f64)>,
    /// Healthy / takeover-outage / resumed stats.
    pub phases: Vec<PhaseStats>,
    /// Sequencer unavailability: crash → first append served by the
    /// promoted standby (ms).
    pub unavailability_ms: f64,
    /// Crash → the promoted standby's seal, as the monitor's cluster log
    /// received it (ms).
    pub seal_ms: f64,
    /// Standby takeovers observed (expected: 1).
    pub takeovers: u64,
    /// Seal rounds the promoted standby ran (expected: ≥ 1).
    pub seq_seals: u64,
    /// Client retransmits absorbed by the run.
    pub retries: u64,
    /// Appends that failed terminally (must be zero).
    pub failures: u64,
}

impl Experiment for FailoverConfig {
    type Data = FailoverData;

    fn at(scale: Scale) -> Self {
        let [duration, crash_at] = match scale {
            Scale::Paper => [24, 10],
            Scale::Quick => [16, 6],
        }
        .map(SimDuration::from_secs);
        FailoverConfig { duration, crash_at }
    }

    fn run(&self) -> FailoverData {
        let mut cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(4)
            .mds_ranks(1)
            .standby_mds(1)
            .pool("logpool", 16, 2)
            .pool("meta", 16, 2)
            .mds_config(MdsConfig {
                journal: true,
                journal_sync: true,
                ..MdsConfig::default()
            })
            .build(17);
        let node = zlog_client(&mut cluster, "failover");

        let t0 = cluster.sim.now();
        let mut no_faults = Nemesis::new(FaultSchedule::new());
        let mut appends = ClosedLoop::new(node, t0, "f");
        appends.append_until(&mut cluster.sim, &mut no_faults, t0 + self.crash_at);
        // Beacons stop; nobody updates the map for the monitor.
        cluster.sim.crash(cluster.mds_node(0));
        let before_crash = appends.samples.len();
        appends.append_until(&mut cluster.sim, &mut no_faults, t0 + self.duration);

        let samples = &appends.samples;
        let (crash_s, end_s) = (self.crash_at.as_secs_f64(), self.duration.as_secs_f64());
        let resume_s = samples
            .get(before_crash)
            .map_or(end_s, |(done_s, _)| *done_s);
        let crashed_at = t0 + self.crash_at;
        let log = cluster.sim.actor::<Monitor>(cluster.mon()).cluster_log();
        let sealed = log
            .iter()
            .find(|(at, _, line)| *at > crashed_at && line.starts_with("sealed log"));
        let seal_s = sealed.map_or(end_s, |(at, _, _)| at.since(t0).as_secs_f64());
        let metrics = cluster.sim.metrics();
        FailoverData {
            series: report::append_rate(samples, end_s),
            phases: vec![
                phase_stats("healthy", samples, 0.0, crash_s),
                phase_stats("takeover", samples, crash_s, resume_s),
                phase_stats("resumed", samples, resume_s, end_s),
            ],
            unavailability_ms: (resume_s - crash_s) * 1000.0,
            seal_ms: (seal_s - crash_s) * 1000.0,
            takeovers: metrics.counter("mds.takeovers"),
            seq_seals: metrics.counter("mds.seq_seals"),
            retries: retries(&cluster),
            failures: appends.failures,
        }
    }

    /// The failover timeline and phase table.
    fn render(&self, data: &FailoverData) -> String {
        let mut out = String::from(
            "Sequencer failover: zlog appends through an unannounced MDS crash \
             (beacon detection, standby takeover, journal replay, epoch seal)\n\n",
        );
        out.push_str(&report::timeline(&data.series, &data.phases));
        out.push_str(&format!(
            "\nsequencer unavailable for {:.0} ms (sealed at {:.0} ms)   takeovers: {}   \
             seals: {}   retries absorbed: {}   terminal failures: {}\n",
            data.unavailability_ms,
            data.seal_ms,
            data.takeovers,
            data.seq_seals,
            data.retries,
            data.failures
        ));
        out
    }

    /// The standby takes over and serves within the beacon grace and
    /// 100 ms of the crash (the promotion and the seal's epoch bump are
    /// each proposed at once, so replay and seal fit in the 100 ms), the
    /// first append it serves completes within 50 ms of its seal (the
    /// seal wakes it, no backoff runs out), and appends resume.
    fn assert_shape(&self, data: &FailoverData) -> Result<(), String> {
        ensure!(data.failures == 0, "{} terminal failures", data.failures);
        ensure!(data.takeovers >= 1, "standby never took over");
        ensure!(data.seq_seals >= 1, "promoted standby never sealed");
        let unavailable = data.unavailability_ms;
        let bound = MonConfig::default().mds_beacon_grace.as_millis_f64() + 100.0;
        ensure!(
            unavailable > 0.0 && unavailable <= bound,
            "sequencer unavailable for {unavailable} ms: more than the beacon grace and 100 ms"
        );
        let after_seal = unavailable - data.seal_ms;
        ensure!(
            (0.0..=50.0).contains(&after_seal),
            "first standby-served append {after_seal:.1} ms after the seal"
        );
        ensure!(data.phases[0].rate > 0.0, "no baseline throughput");
        ensure!(data.phases[2].rate > 0.0, "appends dead after takeover");
        Ok(())
    }
}
