//! Figure 8: cluster-wide interface-update propagation latency.
//!
//! A stream of scripted-interface updates is committed through the
//! Service Metadata interface; each of 120 in-memory OSDs makes every
//! update live either via its monitor subscription or via peer gossip.
//! The measured latency is commit → live-on-OSD, matching the paper
//! ("the elapsed time following the Paxos proposal ... until each object
//! storage daemon makes the update live"), so it excludes the proposal
//! accumulation interval — which is reported separately, comparing the
//! stock 1 s interval to the paper's tuned ~222 ms quorum.

use mala_consensus::{MapUpdate, MonConfig, MonMsg, SERVICE_MAP_INTERFACES};
use mala_rados::OsdConfig;
use mala_sim::{SimDuration, SimTime};
use malacology::cluster::{Cluster, ClusterBuilder};

use crate::{ensure, report, Experiment, Scale};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of OSDs (paper: 120, in-memory).
    pub osds: u32,
    /// Number of interface updates to install (paper: 1000).
    pub updates: u32,
    /// Gap between successive updates.
    pub update_gap: SimDuration,
}

/// Fraction of OSDs subscribed to the monitor; the rest learn by gossip.
const SUBSCRIBER_FRACTION: f64 = 0.1;

/// Results.
#[derive(Debug, Clone)]
pub struct Data {
    /// Every per-OSD install latency (ms), sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Distinct committed interface epochs. Updates submitted within one
    /// proposal-accumulation interval share an epoch (that is the point
    /// of the interval), so this can be below the submitted count.
    pub committed_epochs: u32,
    /// Committed epochs that went live on every OSD.
    pub complete_updates: u32,
    /// Mean submit→commit latency (ms) with the stock 1 s proposal
    /// interval.
    pub commit_ms_1s: f64,
    /// Mean submit→commit latency (ms) with the tuned 222 ms interval.
    pub commit_ms_222ms: f64,
}

fn build(config: &Config, proposal_interval: SimDuration) -> Cluster {
    let mon_config = MonConfig {
        proposal_interval,
        ..MonConfig::default()
    };
    let subscribe_cutoff = (f64::from(config.osds) * SUBSCRIBER_FRACTION).ceil() as u32;
    // ClusterBuilder applies one OsdConfig to all OSDs, so subscription
    // is off for everyone and the first group subscribes by sending the
    // message `subscribe_to_monitor = true` would have sent at start.
    let osd_config = OsdConfig {
        subscribe_to_monitor: false,
        ..OsdConfig::default()
    };
    let mut cluster = ClusterBuilder::new()
        .monitors(3)
        .osds(config.osds)
        .osd_config(osd_config)
        .mon_config(mon_config)
        .rados_clients(0)
        .build(8);
    for i in 0..subscribe_cutoff.min(config.osds) {
        let node = cluster.osd_node(i);
        let mon = cluster.mon();
        cluster
            .sim
            .with_actor::<mala_rados::Osd, _>(node, |_, ctx| {
                ctx.send(
                    mon,
                    MonMsg::Subscribe {
                        map: SERVICE_MAP_INTERFACES.to_string(),
                    },
                );
            });
    }
    cluster.sim.run_for(SimDuration::from_secs(2));
    cluster
}

/// Measures mean submit→commit latency over a few updates.
fn commit_latency_ms(config: &Config, interval: SimDuration) -> f64 {
    let mut cluster = build(config, interval);
    let mon = cluster.mon();
    let mut latencies = Vec::new();
    for i in 0..10u64 {
        let t0 = cluster.sim.now();
        cluster.sim.inject(
            mon,
            MonMsg::Submit {
                seq: 100 + i,
                updates: vec![MapUpdate::set(
                    SERVICE_MAP_INTERFACES,
                    "probe",
                    format!("function v{i}() end").into_bytes(),
                )],
            },
        );
        let before = commit_count(&cluster.sim);
        let deadline = t0 + SimDuration::from_secs(10);
        cluster
            .sim
            .run_until_pred(deadline, |s| commit_count(s) > before);
        latencies.push(cluster.sim.now().since(t0).as_millis_f64());
    }
    report::mean(&latencies)
}

fn commit_count(sim: &mala_sim::Sim) -> usize {
    sim.metrics()
        .series(&format!("mon.commit.{SERVICE_MAP_INTERFACES}"))
        .len()
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        let (osds, updates, gap_ms) = match scale {
            Scale::Paper => (120, 1000, 1100),
            Scale::Quick => (24, 8, 1200),
        };
        Config {
            osds,
            updates,
            update_gap: SimDuration::from_millis(gap_ms),
        }
    }

    /// Runs the propagation experiment.
    fn run(&self) -> Data {
        let mut cluster = build(self, MonConfig::default().proposal_interval);
        let mon = cluster.mon();
        // Stream the updates.
        for i in 0..self.updates {
            cluster.sim.inject(
                mon,
                MonMsg::Submit {
                    seq: 1000 + u64::from(i),
                    updates: vec![MapUpdate::set(
                        SERVICE_MAP_INTERFACES,
                        "bench_iface",
                        format!("function ping(input) return \"{i}\" end").into_bytes(),
                    )],
                },
            );
            cluster.sim.run_for(self.update_gap);
        }
        // Drain: let the last updates propagate.
        cluster.sim.run_for(SimDuration::from_secs(10));

        // Commit time per epoch (first monitor observation wins).
        let metrics = cluster.sim.metrics();
        let mut commit_at: std::collections::HashMap<u64, SimTime> =
            std::collections::HashMap::new();
        for s in metrics.series(&format!("mon.commit.{SERVICE_MAP_INTERFACES}")) {
            commit_at.entry(s.value as u64).or_insert(s.at);
        }
        // Install times per epoch per OSD.
        let mut latencies_ms = Vec::new();
        let mut complete = 0;
        for (epoch, committed) in &commit_at {
            let series = metrics.series(&format!("osd.iface_live.e{epoch}"));
            if series.len() as u32 >= self.osds {
                complete += 1;
            }
            for s in series {
                latencies_ms.push(s.at.saturating_since(*committed).as_millis_f64());
            }
        }
        latencies_ms.retain(|l| l.is_finite());
        latencies_ms.sort_by(f64::total_cmp);

        let commit_ms_1s = commit_latency_ms(self, SimDuration::from_secs(1));
        let commit_ms_222ms = commit_latency_ms(self, SimDuration::from_millis(222));
        Data {
            latencies_ms,
            committed_epochs: commit_at.len() as u32,
            complete_updates: complete,
            commit_ms_1s,
            commit_ms_222ms,
        }
    }

    /// The CDF and the proposal-interval comparison.
    fn render(&self, data: &Data) -> String {
        let mut out = format!(
            "Figure 8: interface-update propagation latency ({} OSDs, {} updates)\n\n",
            self.osds, self.updates
        );
        let qs = report::quantiles(&data.latencies_ms, &[10.0, 50.0, 90.0, 99.0, 100.0]);
        let rows: Vec<Vec<String>> = qs
            .iter()
            .map(|(q, v)| vec![format!("p{q}"), format!("{v:.1} ms")])
            .collect();
        out.push_str(&report::table(&["percentile", "install latency"], &rows));
        out.push_str(&format!(
        "\ncommitted epochs: {} (from {} submitted updates)\nepochs fully live on all OSDs: {}/{}\n",
        data.committed_epochs, self.updates, data.complete_updates, data.committed_epochs
    ));
        out.push_str(&format!(
        "\nproposal accumulation interval (submit -> commit):\n  1 s interval   : {:.0} ms mean\n  222 ms interval: {:.0} ms mean\n",
        data.commit_ms_1s, data.commit_ms_222ms
    ));
        out
    }

    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        let (epochs, complete) = (data.committed_epochs, data.complete_updates);
        ensure!(
            epochs * 2 > self.updates,
            "only {epochs} epochs committed from {} updates",
            self.updates
        );
        ensure!(
            complete == epochs,
            "{complete} of {epochs} committed epochs became live everywhere"
        );
        let installs = data.latencies_ms.len();
        ensure!(
            installs == (self.osds * epochs) as usize,
            "{installs} install samples for {} OSDs x {epochs} epochs",
            self.osds
        );
        // Paper: < 54 ms at p90 on 120 RAM OSDs. Gossip-dominated here too.
        let p90 = report::quantiles(&data.latencies_ms, &[90.0])[0].1;
        ensure!(p90 < 100.0, "p90 propagation {p90} ms too slow");
        let (tuned, stock) = (data.commit_ms_222ms, data.commit_ms_1s);
        ensure!(
            tuned < stock,
            "a shorter proposal interval must commit sooner: {tuned} ms vs {stock} ms"
        );
        Ok(())
    }
}
