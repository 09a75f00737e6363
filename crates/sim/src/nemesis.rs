//! Nemesis: scripted, seeded fault injection for robustness experiments.
//!
//! A [`FaultSchedule`] is an ordered list of `(time, fault)` pairs —
//! crashes, restarts, partitions, isolation, message-loss bursts, and
//! latency spikes. A [`Nemesis`] driver interleaves schedule application
//! with simulation progress: it runs the [`Sim`] up to each fault's
//! timestamp, applies the fault through the existing [`Network`] and
//! scheduler primitives, and records what it did in the metric sink so a
//! run can be audited and replayed bit-for-bit from its seed.
//!
//! Restarting a node needs domain knowledge the simulator does not have
//! (how to rebuild the daemon's actor), so harnesses register a restart
//! callback with [`Nemesis::on_restart`]; scheduling a [`Fault::Restart`]
//! without one is a loud configuration error.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::net::NetConfig;
use crate::{counter, NodeId, Sim, SimDuration, SimTime};

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Kill the node: actor state dropped, messages and timers discarded.
    Crash(NodeId),
    /// Revive a crashed node via the harness's restart callback.
    Restart(NodeId),
    /// Sever every link between the two groups (both directions).
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Restore every link between the two groups.
    HealPartition(Vec<NodeId>, Vec<NodeId>),
    /// Cut all links touching the node (its process keeps running).
    Isolate(NodeId),
    /// Restore the links of a previously isolated node.
    Rejoin(NodeId),
    /// Remove all partitions and isolations at once.
    HealAll,
    /// Raise the network drop probability to at least `probability` for
    /// `duration`, then restore the previous level.
    LossBurst {
        /// Drop probability in `[0, 1]` while the burst is active.
        probability: f64,
        /// How long the burst lasts.
        duration: SimDuration,
    },
    /// Add `extra` to the base one-way latency for `duration`.
    DelaySpike {
        /// Additional latency while the spike is active.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// Cut the single link between two nodes (both directions). Unlike
    /// [`Fault::Isolate`], everything else keeps flowing — this is how
    /// beacon loss is injected without otherwise hurting the target.
    Sever(NodeId, NodeId),
    /// Restore a link cut by [`Fault::Sever`].
    HealLink(NodeId, NodeId),
    /// Commit an osdmap change adding (or restoring to full weight) the
    /// OSD on this node. Membership is a cluster-level operation the
    /// simulator cannot perform itself, so this dispatches to the
    /// harness's [`Nemesis::on_membership`] callback.
    OsdJoin(NodeId),
    /// Commit an osdmap change draining the OSD on this node (weight → 0:
    /// it stays up and serves reads / sources backfill, but wins no new
    /// placements). Dispatches to [`Nemesis::on_membership`].
    OsdDrain(NodeId),
}

impl Fault {
    /// Stable metric suffix for this fault kind.
    fn kind(&self) -> &'static str {
        match self {
            Fault::Crash(_) => "crash",
            Fault::Restart(_) => "restart",
            Fault::Partition(_, _) => "partition",
            Fault::HealPartition(_, _) => "heal_partition",
            Fault::Isolate(_) => "isolate",
            Fault::Rejoin(_) => "rejoin",
            Fault::HealAll => "heal_all",
            Fault::LossBurst { .. } => "loss_burst",
            Fault::DelaySpike { .. } => "delay_spike",
            Fault::Sever(_, _) => "sever",
            Fault::HealLink(_, _) => "heal_link",
            Fault::OsdJoin(_) => "osd_join",
            Fault::OsdDrain(_) => "osd_drain",
        }
    }

    /// The single node a fault targets, if it has one (used for labelled
    /// per-role metrics).
    fn target(&self) -> Option<NodeId> {
        match self {
            Fault::Crash(n) | Fault::Restart(n) | Fault::Isolate(n) | Fault::Rejoin(n) => Some(*n),
            Fault::Sever(n, _) | Fault::HealLink(n, _) => Some(*n),
            Fault::OsdJoin(n) | Fault::OsdDrain(n) => Some(*n),
            _ => None,
        }
    }

    /// Stable numeric code recorded in the `nemesis.events` series.
    fn code(&self) -> f64 {
        match self {
            Fault::Crash(_) => 1.0,
            Fault::Restart(_) => 2.0,
            Fault::Partition(_, _) => 3.0,
            Fault::HealPartition(_, _) => 4.0,
            Fault::Isolate(_) => 5.0,
            Fault::Rejoin(_) => 6.0,
            Fault::HealAll => 7.0,
            Fault::LossBurst { .. } => 8.0,
            Fault::DelaySpike { .. } => 9.0,
            Fault::Sever(_, _) => 10.0,
            Fault::HealLink(_, _) => 11.0,
            Fault::OsdJoin(_) => 12.0,
            Fault::OsdDrain(_) => 13.0,
        }
    }
}

/// The cluster roles a random schedule may target. Role-aware generation
/// keeps the OSD fault repertoire and adds MDS-specific faults: daemon
/// crashes (standby takeover) and beacon loss (the monitor declares a
/// healthy daemon dead).
#[derive(Debug, Clone, Default)]
pub struct FaultTargets {
    /// OSD nodes (crash/restart, isolate/rejoin).
    pub osds: Vec<NodeId>,
    /// MDS nodes (crash/restart, isolate/rejoin, beacon loss).
    pub mds: Vec<NodeId>,
    /// Monitor nodes (used as the far end of beacon-loss severs; monitors
    /// themselves are never crashed — the harness needs a quorum).
    pub monitors: Vec<NodeId>,
}

/// An ordered fault script. Entries may be added in any order; the driver
/// applies them sorted by time (ties in insertion order).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    entries: Vec<(SimTime, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds a fault at the given virtual time.
    pub fn at(mut self, at: SimTime, fault: Fault) -> FaultSchedule {
        self.entries.push((at, fault));
        self
    }

    /// The scheduled `(time, fault)` pairs in insertion order.
    pub fn entries(&self) -> &[(SimTime, Fault)] {
        &self.entries
    }

    /// Generates a balanced random schedule from a seed: every crash gets
    /// a later restart, every partition/isolation a later heal, plus loss
    /// bursts and delay spikes. All windows close before `horizon`, so a
    /// run that outlives the schedule always returns to a healthy cluster.
    pub fn random(
        seed: u64,
        nodes: &[NodeId],
        horizon: SimDuration,
        faults: usize,
    ) -> FaultSchedule {
        assert!(
            !nodes.is_empty(),
            "nemesis schedule needs at least one node"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::new();
        let horizon_us = horizon.as_micros().max(10);
        for _ in 0..faults {
            // Start in the first 60% so the repair half of each window fits.
            let start_us = rng.gen_range(1..=horizon_us * 6 / 10);
            let width_us = rng.gen_range(horizon_us / 20..=horizon_us * 3 / 10);
            let end_us = (start_us + width_us).min(horizon_us - 1);
            let start = SimTime(start_us);
            let end = SimTime(end_us.max(start_us + 1));
            match rng.gen_range(0u32..5) {
                0 => {
                    let node = *nodes.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Crash(node))
                        .at(end, Fault::Restart(node));
                }
                1 => {
                    let node = *nodes.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Isolate(node))
                        .at(end, Fault::Rejoin(node));
                }
                2 if nodes.len() >= 2 => {
                    let mut shuffled = nodes.to_vec();
                    shuffled.shuffle(&mut rng);
                    let cut = rng.gen_range(1..shuffled.len());
                    let (a, b) = shuffled.split_at(cut);
                    schedule = schedule
                        .at(start, Fault::Partition(a.to_vec(), b.to_vec()))
                        .at(end, Fault::HealPartition(a.to_vec(), b.to_vec()));
                }
                3 => {
                    schedule = schedule.at(
                        start,
                        Fault::LossBurst {
                            probability: rng.gen_range(0.05..0.4),
                            duration: SimDuration::from_micros(end_us - start_us),
                        },
                    );
                }
                _ => {
                    schedule = schedule.at(
                        start,
                        Fault::DelaySpike {
                            extra: SimDuration::from_micros(rng.gen_range(200u64..5000)),
                            duration: SimDuration::from_micros(end_us - start_us),
                        },
                    );
                }
            }
        }
        schedule
    }

    /// Role-aware variant of [`FaultSchedule::random`]: draws targets from
    /// every populated role in `targets`, including MDS crash/restart and
    /// beacon-loss (MDS↔monitor link severs) faults. Same balance
    /// guarantee: every window closes before `horizon`.
    pub fn random_cluster(
        seed: u64,
        targets: &FaultTargets,
        horizon: SimDuration,
        faults: usize,
    ) -> FaultSchedule {
        assert!(
            !targets.osds.is_empty() || !targets.mds.is_empty(),
            "nemesis cluster schedule needs OSD or MDS targets"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::new();
        let horizon_us = horizon.as_micros().max(10);
        for _ in 0..faults {
            let start_us = rng.gen_range(1..=horizon_us * 6 / 10);
            let width_us = rng.gen_range(horizon_us / 20..=horizon_us * 3 / 10);
            let end_us = (start_us + width_us).min(horizon_us - 1);
            let start = SimTime(start_us);
            let end = SimTime(end_us.max(start_us + 1));
            match rng.gen_range(0u32..6) {
                0 if !targets.osds.is_empty() => {
                    let node = *targets.osds.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Crash(node))
                        .at(end, Fault::Restart(node));
                }
                1 if !targets.osds.is_empty() => {
                    let node = *targets.osds.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Isolate(node))
                        .at(end, Fault::Rejoin(node));
                }
                2 if !targets.mds.is_empty() => {
                    let node = *targets.mds.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Crash(node))
                        .at(end, Fault::Restart(node));
                }
                3 if !targets.mds.is_empty() && !targets.monitors.is_empty() => {
                    // Beacon loss: the daemon stays healthy but the monitor
                    // stops hearing from it and fails it over anyway.
                    let node = *targets.mds.choose(&mut rng).expect("nonempty");
                    let mon = *targets.monitors.choose(&mut rng).expect("nonempty");
                    schedule = schedule
                        .at(start, Fault::Sever(node, mon))
                        .at(end, Fault::HealLink(node, mon));
                }
                4 => {
                    schedule = schedule.at(
                        start,
                        Fault::LossBurst {
                            probability: rng.gen_range(0.05..0.4),
                            duration: SimDuration::from_micros(end_us - start_us),
                        },
                    );
                }
                _ => {
                    schedule = schedule.at(
                        start,
                        Fault::DelaySpike {
                            extra: SimDuration::from_micros(rng.gen_range(200u64..5000)),
                            duration: SimDuration::from_micros(end_us - start_us),
                        },
                    );
                }
            }
        }
        schedule
    }
}

/// What the driver does at one instant: a user-visible fault, or the
/// internal end of a loss/delay window.
enum Action {
    Apply(Fault),
    LossEnd(f64),
    DelayEnd(SimDuration),
}

/// Harness callback rebuilding a crashed node's actor on restart.
type RestartFn = Box<dyn FnMut(&mut Sim, NodeId)>;

/// Harness callback committing a membership change for an OSD node:
/// `joining == true` for [`Fault::OsdJoin`], `false` for
/// [`Fault::OsdDrain`].
type MembershipFn = Box<dyn FnMut(&mut Sim, NodeId, bool)>;

/// Harness callback classifying a node into a role label for metrics.
type LabelFn = Box<dyn Fn(NodeId) -> &'static str>;

/// Drives a [`FaultSchedule`] against a [`Sim`].
pub struct Nemesis {
    actions: Vec<(SimTime, Action)>,
    next: usize,
    restart: Option<RestartFn>,
    membership: Option<MembershipFn>,
    label: Option<LabelFn>,
    /// Network config before any loss/delay window opened; restored (with
    /// remaining windows re-applied) as windows close.
    baseline: Option<NetConfig>,
    active_loss: Vec<f64>,
    active_delay: Vec<SimDuration>,
}

impl Nemesis {
    /// Builds a driver for `schedule`. Compound faults (loss bursts, delay
    /// spikes) are expanded here into begin/end actions.
    pub fn new(schedule: FaultSchedule) -> Nemesis {
        let mut actions = Vec::new();
        for (at, fault) in schedule.entries {
            match fault {
                Fault::LossBurst {
                    probability,
                    duration,
                } => {
                    actions.push((
                        at,
                        Action::Apply(Fault::LossBurst {
                            probability,
                            duration,
                        }),
                    ));
                    actions.push((at + duration, Action::LossEnd(probability)));
                }
                Fault::DelaySpike { extra, duration } => {
                    actions.push((at, Action::Apply(Fault::DelaySpike { extra, duration })));
                    actions.push((at + duration, Action::DelayEnd(extra)));
                }
                other => actions.push((at, Action::Apply(other))),
            }
        }
        actions.sort_by_key(|(at, _)| *at);
        Nemesis {
            actions,
            next: 0,
            restart: None,
            membership: None,
            label: None,
            baseline: None,
            active_loss: Vec::new(),
            active_delay: Vec::new(),
        }
    }

    /// Registers the harness callback invoked for [`Fault::Restart`].
    pub fn on_restart(mut self, f: impl FnMut(&mut Sim, NodeId) + 'static) -> Nemesis {
        self.restart = Some(Box::new(f));
        self
    }

    /// Registers the harness callback invoked for [`Fault::OsdJoin`]
    /// (`joining == true`) and [`Fault::OsdDrain`] (`joining == false`).
    /// Scheduling a membership fault without one is a loud configuration
    /// error, mirroring [`Nemesis::on_restart`].
    pub fn on_membership(mut self, f: impl FnMut(&mut Sim, NodeId, bool) + 'static) -> Nemesis {
        self.membership = Some(Box::new(f));
        self
    }

    /// Registers a node → role-label classifier. With one registered,
    /// every targeted fault also bumps `nemesis.<kind>.<label>`, so a run
    /// records MDS faults distinctly from OSD faults.
    pub fn with_labels(mut self, f: impl Fn(NodeId) -> &'static str + 'static) -> Nemesis {
        self.label = Some(Box::new(f));
        self
    }

    /// Whether every scheduled action has been applied.
    pub fn finished(&self) -> bool {
        self.next >= self.actions.len()
    }

    /// Runs `sim` to `deadline`, applying every scheduled action whose
    /// time has come at exactly its timestamp. The clock ends at
    /// `deadline` even if the schedule extends beyond it.
    pub fn run_until(&mut self, sim: &mut Sim, deadline: SimTime) {
        while self.next < self.actions.len() && self.actions[self.next].0 <= deadline {
            let at = self.actions[self.next].0;
            sim.run_until(at);
            // Apply every action stamped at this instant before resuming.
            while self.next < self.actions.len() && self.actions[self.next].0 == at {
                let idx = self.next;
                self.next += 1;
                self.apply(sim, idx);
            }
        }
        sim.run_until(deadline);
    }

    /// Runs `sim` for `dur` of virtual time from now (see [`run_until`]).
    ///
    /// [`run_until`]: Nemesis::run_until
    pub fn run_for(&mut self, sim: &mut Sim, dur: SimDuration) {
        let deadline = sim.now() + dur;
        self.run_until(sim, deadline);
    }

    fn apply(&mut self, sim: &mut Sim, idx: usize) {
        let at = self.actions[idx].0;
        match &self.actions[idx].1 {
            Action::Apply(fault) => {
                let fault = fault.clone();
                sim.metrics_mut().bump(counter!("nemesis.faults"), 1);
                sim.metrics_mut()
                    .incr(&format!("nemesis.{}", fault.kind()), 1);
                sim.metrics_mut()
                    .observe("nemesis.events", at, fault.code());
                if let (Some(label), Some(node)) = (&self.label, fault.target()) {
                    let label = label(node);
                    sim.metrics_mut()
                        .incr(&format!("nemesis.{}.{label}", fault.kind()), 1);
                }
                match fault {
                    Fault::Crash(node) => sim.crash(node),
                    Fault::Restart(node) => {
                        let mut cb = self.restart.take().unwrap_or_else(|| {
                            panic!(
                                "nemesis schedule restarts {node} but no restart \
                                 callback was registered (Nemesis::on_restart)"
                            )
                        });
                        cb(sim, node);
                        self.restart = Some(cb);
                    }
                    Fault::Partition(a, b) => {
                        for x in &a {
                            for y in &b {
                                sim.network_mut().sever(*x, *y);
                            }
                        }
                    }
                    Fault::HealPartition(a, b) => {
                        for x in &a {
                            for y in &b {
                                sim.network_mut().heal(*x, *y);
                            }
                        }
                    }
                    Fault::Isolate(node) => sim.network_mut().isolate(node),
                    Fault::Rejoin(node) => sim.network_mut().rejoin(node),
                    Fault::Sever(a, b) => sim.network_mut().sever(a, b),
                    Fault::HealLink(a, b) => sim.network_mut().heal(a, b),
                    Fault::OsdJoin(node) | Fault::OsdDrain(node) => {
                        let joining = matches!(fault, Fault::OsdJoin(_));
                        let mut cb = self.membership.take().unwrap_or_else(|| {
                            panic!(
                                "nemesis schedule changes membership of {node} but no \
                                 membership callback was registered (Nemesis::on_membership)"
                            )
                        });
                        cb(sim, node, joining);
                        self.membership = Some(cb);
                    }
                    Fault::HealAll => sim.network_mut().heal_all(),
                    Fault::LossBurst { probability, .. } => {
                        self.active_loss.push(probability);
                        self.reapply_windows(sim);
                    }
                    Fault::DelaySpike { extra, .. } => {
                        self.active_delay.push(extra);
                        self.reapply_windows(sim);
                    }
                }
            }
            Action::LossEnd(probability) => {
                let probability = *probability;
                if let Some(pos) = self.active_loss.iter().position(|p| *p == probability) {
                    self.active_loss.remove(pos);
                }
                self.reapply_windows(sim);
            }
            Action::DelayEnd(extra) => {
                let extra = *extra;
                if let Some(pos) = self.active_delay.iter().position(|d| *d == extra) {
                    self.active_delay.remove(pos);
                }
                self.reapply_windows(sim);
            }
        }
    }

    /// Recomputes the network config as baseline + the strongest active
    /// loss/delay windows. Overlapping windows therefore compose as a max,
    /// and closing the last window restores the baseline exactly.
    fn reapply_windows(&mut self, sim: &mut Sim) {
        let baseline = self
            .baseline
            .get_or_insert_with(|| sim.network_mut().config().clone())
            .clone();
        let mut config = baseline;
        if let Some(strongest) = self
            .active_loss
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
        {
            config.drop_probability = config.drop_probability.max(strongest);
        }
        if let Some(longest) = self.active_delay.iter().copied().max() {
            config.base_latency = config.base_latency + longest;
        }
        sim.network_mut().set_config(config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::Actor;

    struct Idle;
    impl Actor for Idle {
        fn on_message(
            &mut self,
            _ctx: &mut crate::Context<'_>,
            _from: NodeId,
            _msg: Box<dyn std::any::Any>,
        ) {
        }
    }

    fn sim() -> Sim {
        let mut sim = Sim::with_network(0, Network::new(NetConfig::instant()));
        for n in 0..4 {
            sim.add_node(NodeId(n), Idle);
        }
        sim
    }

    #[test]
    fn faults_apply_at_their_timestamps() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(SimTime(100), Fault::Crash(NodeId(1)))
            .at(SimTime(200), Fault::Restart(NodeId(1)));
        let mut nemesis = Nemesis::new(schedule).on_restart(|sim, node| {
            sim.restart(node, Idle);
        });
        nemesis.run_until(&mut sim, SimTime(150));
        assert!(sim.is_crashed(NodeId(1)));
        nemesis.run_until(&mut sim, SimTime(300));
        assert!(!sim.is_crashed(NodeId(1)));
        assert!(nemesis.finished());
        assert_eq!(sim.metrics().counter("nemesis.faults"), 2);
        assert_eq!(sim.metrics().counter("nemesis.crash"), 1);
        assert_eq!(sim.metrics().counter("nemesis.restart"), 1);
        assert_eq!(sim.metrics().series("nemesis.events").len(), 2);
    }

    #[test]
    fn partition_severs_cross_links_only() {
        let mut sim = sim();
        let a = vec![NodeId(0), NodeId(1)];
        let b = vec![NodeId(2), NodeId(3)];
        let schedule = FaultSchedule::new()
            .at(SimTime(10), Fault::Partition(a.clone(), b.clone()))
            .at(SimTime(20), Fault::HealPartition(a, b));
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(15));
        let net = sim.network_mut();
        assert!(!net.connected(NodeId(0), NodeId(2)));
        assert!(!net.connected(NodeId(1), NodeId(3)));
        assert!(net.connected(NodeId(0), NodeId(1)));
        assert!(net.connected(NodeId(2), NodeId(3)));
        nemesis.run_until(&mut sim, SimTime(25));
        assert!(sim.network_mut().connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn loss_burst_opens_and_closes() {
        let mut sim = sim();
        let schedule = FaultSchedule::new().at(
            SimTime(10),
            Fault::LossBurst {
                probability: 0.5,
                duration: SimDuration::from_micros(100),
            },
        );
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(50));
        assert_eq!(sim.network_mut().config().drop_probability, 0.5);
        nemesis.run_until(&mut sim, SimTime(200));
        assert_eq!(sim.network_mut().config().drop_probability, 0.0);
    }

    #[test]
    fn overlapping_windows_compose_as_max_and_restore() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(
                SimTime(10),
                Fault::LossBurst {
                    probability: 0.2,
                    duration: SimDuration::from_micros(100),
                },
            )
            .at(
                SimTime(50),
                Fault::LossBurst {
                    probability: 0.6,
                    duration: SimDuration::from_micros(100),
                },
            );
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(60));
        assert_eq!(sim.network_mut().config().drop_probability, 0.6);
        nemesis.run_until(&mut sim, SimTime(120));
        // First burst over, second still active.
        assert_eq!(sim.network_mut().config().drop_probability, 0.6);
        nemesis.run_until(&mut sim, SimTime(200));
        assert_eq!(sim.network_mut().config().drop_probability, 0.0);
    }

    #[test]
    fn delay_spike_raises_base_latency_then_restores() {
        let mut sim = sim();
        let base = sim.network_mut().config().base_latency;
        let schedule = FaultSchedule::new().at(
            SimTime(10),
            Fault::DelaySpike {
                extra: SimDuration::from_micros(1000),
                duration: SimDuration::from_micros(50),
            },
        );
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(20));
        assert_eq!(
            sim.network_mut().config().base_latency,
            base + SimDuration::from_micros(1000)
        );
        nemesis.run_until(&mut sim, SimTime(100));
        assert_eq!(sim.network_mut().config().base_latency, base);
    }

    #[test]
    fn membership_faults_dispatch_to_callback() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(SimTime(10), Fault::OsdJoin(NodeId(2)))
            .at(SimTime(20), Fault::OsdDrain(NodeId(3)));
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = log.clone();
        let mut nemesis = Nemesis::new(schedule).on_membership(move |_sim, node, joining| {
            sink.borrow_mut().push((node, joining));
        });
        nemesis.run_until(&mut sim, SimTime(30));
        assert_eq!(
            log.borrow().as_slice(),
            &[(NodeId(2), true), (NodeId(3), false)]
        );
        assert_eq!(sim.metrics().counter("nemesis.osd_join"), 1);
        assert_eq!(sim.metrics().counter("nemesis.osd_drain"), 1);
        assert_eq!(sim.metrics().series("nemesis.events").len(), 2);
    }

    #[test]
    #[should_panic(expected = "no membership callback")]
    fn membership_without_callback_is_loud() {
        let mut sim = sim();
        let schedule = FaultSchedule::new().at(SimTime(10), Fault::OsdJoin(NodeId(0)));
        Nemesis::new(schedule).run_until(&mut sim, SimTime(20));
    }

    #[test]
    #[should_panic(expected = "no restart callback")]
    fn restart_without_callback_is_loud() {
        let mut sim = sim();
        let schedule = FaultSchedule::new().at(SimTime(10), Fault::Restart(NodeId(0)));
        Nemesis::new(schedule).run_until(&mut sim, SimTime(20));
    }

    #[test]
    fn random_schedules_are_seeded_and_balanced() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let horizon = SimDuration::from_secs(2);
        let a = FaultSchedule::random(7, &nodes, horizon, 12);
        let b = FaultSchedule::random(7, &nodes, horizon, 12);
        assert_eq!(a.entries(), b.entries());
        let c = FaultSchedule::random(8, &nodes, horizon, 12);
        assert_ne!(a.entries(), c.entries());
        // Balanced: crashes and restarts pair up, with the repair later.
        let crashes: Vec<_> = a
            .entries()
            .iter()
            .filter(|(_, f)| matches!(f, Fault::Crash(_)))
            .collect();
        let restarts: Vec<_> = a
            .entries()
            .iter()
            .filter(|(_, f)| matches!(f, Fault::Restart(_)))
            .collect();
        assert_eq!(crashes.len(), restarts.len());
        for ((t_crash, _), (t_restart, _)) in crashes.iter().zip(&restarts) {
            assert!(t_restart > t_crash);
        }
    }

    #[test]
    fn sever_cuts_one_link_and_heal_link_restores_it() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(SimTime(10), Fault::Sever(NodeId(1), NodeId(0)))
            .at(SimTime(20), Fault::HealLink(NodeId(1), NodeId(0)));
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(15));
        let net = sim.network_mut();
        assert!(!net.connected(NodeId(1), NodeId(0)));
        // Only that link: the node is otherwise reachable.
        assert!(net.connected(NodeId(1), NodeId(2)));
        nemesis.run_until(&mut sim, SimTime(25));
        assert!(sim.network_mut().connected(NodeId(1), NodeId(0)));
    }

    #[test]
    fn cluster_schedules_are_seeded_and_draw_mds_targets() {
        let targets = FaultTargets {
            osds: vec![NodeId(10), NodeId(11)],
            mds: vec![NodeId(20), NodeId(21)],
            monitors: vec![NodeId(0)],
        };
        let horizon = SimDuration::from_secs(2);
        let a = FaultSchedule::random_cluster(7, &targets, horizon, 40);
        let b = FaultSchedule::random_cluster(7, &targets, horizon, 40);
        assert_eq!(a.entries(), b.entries());
        let mds_targeted = a
            .entries()
            .iter()
            .any(|(_, f)| f.target().is_some_and(|n| targets.mds.contains(&n)));
        assert!(mds_targeted, "40 draws should hit an MDS target");
        // Balance: every crash gets a restart, every sever a heal.
        let count =
            |pred: &dyn Fn(&Fault) -> bool| a.entries().iter().filter(|(_, f)| pred(f)).count();
        assert_eq!(
            count(&|f| matches!(f, Fault::Crash(_))),
            count(&|f| matches!(f, Fault::Restart(_)))
        );
        assert_eq!(
            count(&|f| matches!(f, Fault::Sever(_, _))),
            count(&|f| matches!(f, Fault::HealLink(_, _)))
        );
    }

    #[test]
    fn labelled_faults_record_per_role_metrics() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(SimTime(10), Fault::Crash(NodeId(1)))
            .at(SimTime(20), Fault::Restart(NodeId(1)))
            .at(SimTime(30), Fault::Crash(NodeId(2)));
        let mut nemesis = Nemesis::new(schedule)
            .on_restart(|sim, node| {
                sim.restart(node, Idle);
            })
            .with_labels(|node| if node == NodeId(1) { "mds" } else { "osd" });
        nemesis.run_until(&mut sim, SimTime(40));
        assert_eq!(sim.metrics().counter("nemesis.crash.mds"), 1);
        assert_eq!(sim.metrics().counter("nemesis.restart.mds"), 1);
        assert_eq!(sim.metrics().counter("nemesis.crash.osd"), 1);
        assert_eq!(sim.metrics().counter("nemesis.crash"), 2);
    }

    #[test]
    fn isolate_crash_and_heal_all_from_one_schedule() {
        let mut sim = sim();
        let schedule = FaultSchedule::new()
            .at(SimTime(10), Fault::Isolate(NodeId(2)))
            .at(SimTime(20), Fault::Crash(NodeId(3)))
            .at(SimTime(30), Fault::Rejoin(NodeId(2)))
            .at(SimTime(40), Fault::HealAll);
        let mut nemesis = Nemesis::new(schedule);
        nemesis.run_until(&mut sim, SimTime(15));
        assert!(!sim.network_mut().connected(NodeId(2), NodeId(0)));
        nemesis.run_until(&mut sim, SimTime(50));
        assert!(sim.network_mut().connected(NodeId(2), NodeId(0)));
        assert!(sim.is_crashed(NodeId(3)));
        assert_eq!(sim.metrics().counter("nemesis.faults"), 4);
    }
}
