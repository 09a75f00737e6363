//! The monitor daemon: versioned cluster maps behind a Paxos quorum.
//!
//! Monitors reproduce the behaviour the paper relies on (§4.1):
//!
//! * Clients submit key-value updates to named *cluster maps* (the OSD map,
//!   MDS map, interface registry, Mantle policy pointer ...).
//! * Updates accumulate and are proposed as one Paxos command per
//!   *proposal interval* (1 s in stock Ceph; the paper reports lowering it
//!   to ~222 ms on a 3-monitor hard-drive quorum). A transaction wholly in
//!   maps that propose at once (`maps::proposes_at_once`: the zlog map,
//!   a seal's epoch bump) is proposed when it arrives, and so is what the
//!   leader decides itself (an MDS failover, mark-down or standby
//!   registration), each in a command of its own.
//! * Every committed batch bumps the *epoch* of each touched map, and each
//!   subscriber of a touched map is sent its committed snapshot — a
//!   subscriber is sent the map, not a delta. That push is the seed of the
//!   OSD gossip that Figure 8 measures.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use mala_sim::{
    counter, Actor, Context, CounterName, Deadlines, NodeId, SimDuration, SimTime, SpanContext,
};

use crate::follower::MapView;
use crate::maps::{
    self, standby_key, MapKey, MdsEntry, MdsMapView, SERVICE_MAP_MDS, SERVICE_MAP_ZLOG,
};
use crate::paxos::{Outbound, PaxosMsg, PaxosNode, ReplicaId, Slot};

/// Name of the dynamic object-interface registry map.
pub const SERVICE_MAP_INTERFACES: &str = "interfaces";
/// Name of the Mantle balancer-policy map.
pub const SERVICE_MAP_MANTLE: &str = "mantle";

/// One key-value mutation against a named map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapUpdate {
    /// Target map name (e.g. [`SERVICE_MAP_INTERFACES`]).
    pub map: String,
    /// Key within the map.
    pub key: String,
    /// New value, or `None` to delete the key.
    pub value: Option<Vec<u8>>,
}

impl MapUpdate {
    /// Convenience constructor for a set.
    pub fn set(map: &str, key: &str, value: impl Into<Vec<u8>>) -> MapUpdate {
        MapUpdate {
            map: map.to_string(),
            key: key.to_string(),
            value: Some(value.into()),
        }
    }

    /// Convenience constructor for a delete.
    pub fn del(map: &str, key: &str) -> MapUpdate {
        MapUpdate {
            map: map.to_string(),
            key: key.to_string(),
            value: None,
        }
    }
}

/// A read-only copy of one versioned map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapSnapshot {
    /// Map name.
    pub map: String,
    /// Version; bumped once per committed batch touching the map.
    pub epoch: u64,
    /// Full contents.
    pub entries: BTreeMap<String, Vec<u8>>,
}

/// One submitted transaction: its updates commit together or not at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tx {
    /// The submitting node, acknowledged when the transaction commits.
    pub client: NodeId,
    /// Client-chosen sequence; `(client, seq)` is the dedup key.
    pub seq: u64,
    /// The mutations.
    pub updates: Vec<MapUpdate>,
}

/// The Paxos command type: the transactions of one proposal, each whole.
/// A proposal bumps each map it touches by one epoch, however many
/// transactions of whatever size it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxBatch {
    /// The monitor rank that owns sending the acknowledgements.
    pub origin: ReplicaId,
    /// The transactions, in submission order.
    pub txs: Vec<Tx>,
}

/// Client-facing monitor protocol.
#[derive(Debug, Clone)]
pub enum MonMsg {
    /// Submit updates; `seq` must be unique per client node.
    Submit {
        /// Client-chosen sequence number for dedup and ack matching.
        seq: u64,
        /// The mutations.
        updates: Vec<MapUpdate>,
    },
    /// Acknowledgement that the transaction `seq` committed, sent once per
    /// chosen batch that holds it: a repeat that applies nothing is acked
    /// too.
    SubmitAck {
        /// Echoed client sequence.
        seq: u64,
        /// The epoch of each map the transaction names, once its batch
        /// applied.
        epochs: Vec<(String, u64)>,
    },
    /// Read a map.
    Get {
        /// Map name.
        map: String,
    },
    /// A whole map: the reply to [`MonMsg::Get`] and to
    /// [`MonMsg::Subscribe`], and what a subscriber is sent after each
    /// committed batch that touches the map.
    Snapshot(MapSnapshot),
    /// Subscribe to a map: its snapshot now and after every commit that
    /// touches it.
    Subscribe {
        /// Map name.
        map: String,
    },
    /// A daemon reports an important event to the central cluster log
    /// (Mantle's §5.1.3: errors and warnings go to the monitor, not to
    /// per-node files).
    ClusterLog {
        /// Reporting daemon (e.g. `mds.1`).
        source: String,
        /// The message.
        line: String,
    },
    /// Periodic MDS liveness beacon. Active ranks send `Some(rank)`;
    /// standby daemons send `None`, which doubles as standby registration:
    /// the leader commits a standby entry ([`maps::standby_key`]) into the
    /// MDS map so a later failover can promote the node into a vacant rank.
    MdsBeacon {
        /// The rank the sender currently serves, or `None` for a standby.
        rank: Option<u32>,
    },
}

/// Peer-to-peer wrapper so the sim can route Paxos traffic.
#[derive(Debug, Clone)]
pub struct MonWire(pub PaxosMsg<TxBatch>);

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonConfig {
    /// How long client transactions that name a ticked map accumulate
    /// before being proposed (Ceph default 1 s; the paper's tuned quorum
    /// reaches ~222 ms). A transaction wholly in maps that propose at once
    /// (`maps::proposes_at_once`), and the leader's own liveness
    /// actions, do not wait for it.
    pub proposal_interval: SimDuration,
    /// How long an MDS may go without beaconing before the leader marks
    /// its rank down and promotes a standby.
    pub mds_beacon_grace: SimDuration,
}

impl Default for MonConfig {
    fn default() -> Self {
        MonConfig {
            proposal_interval: SimDuration::from_secs(1),
            mds_beacon_grace: SimDuration::from_millis(1000),
        }
    }
}

const TIMER_PROPOSAL: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
const TIMER_ELECTION: u64 = 3;
/// Leader heartbeat period.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Follower patience before campaigning, times the monitor's rank + 1.
const ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(1500);
/// The token of [`Monitor::mds_deadlines`].
const TIMER_MDS_DEADLINE: u64 = 4;

/// Seq namespace for transactions the leader originates itself (MDS
/// liveness actions); keeps their txids clear of harness-injected seqs,
/// which share the monitor's own NodeId as submitter.
const SELF_SEQ_BASE: u64 = 1 << 32;

/// What the monitor knows of one MDS daemon's liveness.
struct MdsLiveness {
    /// When its last beacon arrived.
    beacon: SimTime,
    /// When its entry in [`Monitor::mds_deadlines`] is due, if it has one.
    deadline: Option<SimTime>,
}

/// The monitor daemon actor.
pub struct Monitor {
    config: MonConfig,
    /// NodeIds of all monitors, indexed by Paxos rank.
    peers: Vec<NodeId>,
    rank: ReplicaId,
    paxos: PaxosNode<TxBatch>,
    /// Versioned maps (the replicated state machine).
    maps: BTreeMap<String, MapSnapshot>,
    /// Next chosen slot to apply.
    applied: Slot,
    /// Dedup of applied transactions.
    applied_txids: BTreeSet<(NodeId, u64)>,
    /// Client transactions that wait for the proposal tick, accumulated
    /// since the last one.
    pending: Vec<Tx>,
    /// Per-map subscribers.
    subs: BTreeMap<String, BTreeSet<NodeId>>,
    /// Last time we heard from a leader (heartbeat or prepare).
    last_leader_contact: SimTime,
    /// The central cluster log: `(when, source, line)`.
    cluster_log: Vec<(SimTime, String, String)>,
    /// Per MDS node that has beaconed: its last beacon and its deadline.
    /// Only nodes that have beaconed at least once are subject to liveness
    /// reaping, so harnesses that build synthetic MDS maps without live
    /// daemons are left alone.
    mds_beacons: BTreeMap<NodeId, MdsLiveness>,
    /// When each beaconing MDS is next looked at: one grace after its last
    /// beacon, one grace after the reaper proposed an action for its rank,
    /// or, on a follower, one grace after its deadline last passed. The
    /// reap scan runs when one passes.
    mds_deadlines: Deadlines<NodeId>,
    /// Per-mdsmap-key proposal debounce: when the leader last proposed its
    /// own change to this key, and the seq that change went out under.
    /// Cleared when a commit touches the key; until then, or for one grace,
    /// the key is not proposed again.
    mds_proposed: BTreeMap<String, (SimTime, u64)>,
    /// Next self-originated seq (see [`SELF_SEQ_BASE`]).
    self_seq: u64,
    /// `mon.propose` spans for batches this monitor proposed, keyed by the
    /// batch's first txid; closed when the batch commits locally.
    propose_spans: BTreeMap<(NodeId, u64), SpanContext>,
}

impl Monitor {
    /// Creates monitor `rank` of the quorum whose members live at `peers`
    /// (indexed by rank).
    pub fn new(rank: ReplicaId, peers: Vec<NodeId>, config: MonConfig) -> Monitor {
        let n = peers.len() as u32;
        Monitor {
            config,
            peers,
            rank,
            paxos: PaxosNode::new(rank, n),
            maps: BTreeMap::new(),
            applied: 0,
            applied_txids: BTreeSet::new(),
            pending: Vec::new(),
            subs: BTreeMap::new(),
            last_leader_contact: SimTime::ZERO,
            cluster_log: Vec::new(),
            mds_beacons: BTreeMap::new(),
            mds_deadlines: Deadlines::new(TIMER_MDS_DEADLINE),
            mds_proposed: BTreeMap::new(),
            self_seq: SELF_SEQ_BASE,
            propose_spans: BTreeMap::new(),
        }
    }

    /// The central cluster log collected from daemons.
    pub fn cluster_log(&self) -> &[(SimTime, String, String)] {
        &self.cluster_log
    }

    /// Read-only view of a map (local replica state).
    pub fn map(&self, name: &str) -> Option<&MapSnapshot> {
        self.maps.get(name)
    }

    /// Whether this monitor currently leads the quorum.
    pub fn is_leader(&self) -> bool {
        self.paxos.is_leader()
    }

    /// The ballot this monitor leads with, if it currently leads. Two
    /// monitors claiming the same ballot would be a Paxos safety violation.
    pub fn leader_ballot(&self) -> Option<crate::paxos::Ballot> {
        if self.paxos.is_leader() {
            Some(self.paxos.ballot())
        } else {
            None
        }
    }

    fn ship(&self, ctx: &mut Context<'_>, out: Vec<Outbound<TxBatch>>) {
        for o in out {
            let to = self.peers[o.to as usize];
            ctx.send(to, MonWire(o.msg));
        }
    }

    fn apply_chosen(&mut self, ctx: &mut Context<'_>) {
        let watermark = self.paxos.first_unchosen();
        let batches: Vec<TxBatch> = self
            .paxos
            .chosen_from(self.applied)
            .take_while(|(slot, _)| *slot < watermark)
            .map(|(_, c)| c.clone())
            .collect();
        self.applied = self.applied.max(watermark);
        let mut mds_touched = false;
        for batch in &batches {
            mds_touched |= self.apply_batch(ctx, batch);
        }
        // A committed mdsmap may hold a vacant rank that a standby can fill
        // now (one just registered).
        if mds_touched {
            self.reap_mds(ctx);
        }
    }

    /// Applies one chosen batch; returns whether it changed the mdsmap.
    fn apply_batch(&mut self, ctx: &mut Context<'_>, batch: &TxBatch) -> bool {
        // Close the propose→commit span if this monitor proposed the batch.
        if let Some(span) = batch
            .txs
            .first()
            .and_then(|first| self.propose_spans.remove(&(first.client, first.seq)))
        {
            ctx.span_end(span);
        }
        // Dedup: a transaction re-proposed after a leader change may be
        // chosen in a second slot; it is applied once.
        let fresh: Vec<&Tx> = batch
            .txs
            .iter()
            .filter(|tx| self.applied_txids.insert((tx.client, tx.seq)))
            .collect();
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for up in fresh.iter().flat_map(|tx| &tx.updates) {
            // Deterministic: every replica applies the same batch and skips
            // the same updates.
            let committed = self
                .maps
                .get(&up.map)
                .and_then(|snap| snap.entries.get(&up.key));
            if !maps::commit_allows(up, committed.map(Vec::as_slice)) {
                let rejected = if up.map == SERVICE_MAP_ZLOG {
                    counter!("mon.zlog_rejected_updates")
                } else {
                    counter!("mon.osdmap_rejected_updates")
                };
                if batch.origin == self.rank {
                    ctx.metrics().bump(rejected, 1);
                }
                continue;
            }
            let snap = self
                .maps
                .entry(up.map.clone())
                .or_insert_with(|| MapSnapshot {
                    map: up.map.clone(),
                    epoch: 0,
                    entries: BTreeMap::new(),
                });
            match &up.value {
                Some(v) => {
                    snap.entries.insert(up.key.clone(), v.clone());
                }
                None => {
                    snap.entries.remove(&up.key);
                }
            }
            if up.map == SERVICE_MAP_MDS {
                // What the leader proposed for this key has landed.
                self.mds_proposed.remove(&up.key);
            }
            touched.insert(&up.map);
        }
        for &map in &touched {
            let Some(snap) = self.maps.get_mut(map) else {
                continue; // unreachable: every touched map was just inserted
            };
            snap.epoch += 1;
            for &sub in self.subs.get(map).into_iter().flatten() {
                ctx.send(sub, MonMsg::Snapshot(snap.clone()));
            }
            if batch.origin == self.rank {
                ctx.metrics().bump(counter!("mon.map_commits"), 1);
            }
            // Every replica records its own sighting of the epoch.
            let now = ctx.now();
            ctx.metrics()
                .observe(&format!("mon.commit.{map}"), now, snap.epoch as f64);
        }
        // Only the origin monitor counts its liveness actions, refusals and
        // commits and sends acks, so each counts once and a client gets one
        // ack per chosen batch.
        // A repeat is acked too: its client may have lost the first ack.
        if batch.origin == self.rank {
            let me = self.peers[self.rank as usize];
            let own = fresh
                .iter()
                .filter(|tx| tx.client == me && tx.seq >= SELF_SEQ_BASE);
            for counter in own.filter_map(|tx| liveness_counter(tx)) {
                ctx.metrics().bump(counter, 1);
            }
            for tx in &batch.txs {
                let mut epochs: Vec<(String, u64)> = Vec::new();
                for up in &tx.updates {
                    if !epochs.iter().any(|(map, _)| *map == up.map) {
                        let epoch = self.maps.get(&up.map).map_or(0, |snap| snap.epoch);
                        epochs.push((up.map.clone(), epoch));
                    }
                }
                let seq = tx.seq;
                ctx.send(tx.client, MonMsg::SubmitAck { seq, epochs });
            }
        }
        touched.contains(SERVICE_MAP_MDS)
    }

    /// The committed mdsmap, parsed.
    fn mdsmap(&self) -> MdsMapView {
        self.maps
            .get(SERVICE_MAP_MDS)
            .map(MdsMapView::from_snapshot)
            .unwrap_or_default()
    }

    fn snapshot_or_empty(&self, map: &str) -> MapSnapshot {
        self.maps.get(map).cloned().unwrap_or_else(|| MapSnapshot {
            map: map.to_string(),
            epoch: 0,
            entries: BTreeMap::new(),
        })
    }

    /// Proposes `txs` as one Paxos command. The proposal tick calls it with
    /// the client submits of its interval, a `Submit` wholly in at-once
    /// maps with its one transaction, and the leader with each transaction
    /// it decides itself. On a follower, Paxos forwards it to the leader.
    fn propose(&mut self, ctx: &mut Context<'_>, txs: Vec<Tx>) {
        let Some(first) = txs.first() else {
            return;
        };
        let span = ctx.span_start("mon.propose", None);
        let updates: usize = txs.iter().map(|tx| tx.updates.len()).sum();
        ctx.span_tag_display(span, "updates", updates);
        self.propose_spans.insert((first.client, first.seq), span);
        let out = self.paxos.submit(TxBatch {
            origin: self.rank,
            txs,
        });
        self.ship(ctx, out);
        ctx.metrics().bump(counter!("mon.proposals"), 1);
    }

    /// Proposes the leader's own mdsmap change (an MDS liveness action) at
    /// once: a client's mdsmap submit waits for the proposal interval, a
    /// failover does not. The action is known by the key of its first
    /// update: proposed again before a commit touched that key, it goes
    /// out under its first seq, so if both proposals are chosen the change
    /// applies once. Every key it writes counts as proposed, so a standby
    /// being promoted is not promoted into a second rank meanwhile. Acks
    /// come back to this monitor and are ignored.
    fn submit_self(&mut self, ctx: &mut Context<'_>, updates: Vec<MapUpdate>) {
        let first = updates
            .first()
            .and_then(|up| self.mds_proposed.get(&up.key));
        let seq = match first {
            Some(&(_, seq)) => seq,
            None => {
                let seq = self.self_seq;
                self.self_seq += 1;
                seq
            }
        };
        for up in &updates {
            self.mds_proposed.insert(up.key.clone(), (ctx.now(), seq));
        }
        let tx = Tx {
            client: self.peers[self.rank as usize],
            seq,
            updates,
        };
        self.propose(ctx, vec![tx]);
    }

    /// Whether the leader proposed a change to mdsmap `key` less than one
    /// grace ago that no commit has touched yet.
    fn proposed_lately(&self, key: &str, now: SimTime) -> bool {
        self.mds_proposed
            .get(key)
            .is_some_and(|(at, _)| now.saturating_since(*at) < self.config.mds_beacon_grace)
    }

    /// Records a beacon from `node` and moves its deadline to one grace
    /// from now.
    fn beacon(&mut self, ctx: &mut Context<'_>, node: NodeId) {
        let now = ctx.now();
        self.mds_beacons
            .entry(node)
            .and_modify(|l| l.beacon = now)
            .or_insert(MdsLiveness {
                beacon: now,
                deadline: None,
            });
        self.arm_mds(ctx, node, now + self.config.mds_beacon_grace);
    }

    /// Arms `node`'s deadline at `at`, if the node has ever beaconed.
    fn arm_mds(&mut self, ctx: &mut Context<'_>, node: NodeId, at: SimTime) {
        if let Some(l) = self.mds_beacons.get_mut(&node) {
            self.mds_deadlines.arm(ctx, node, l.deadline, at);
            l.deadline = Some(at);
        }
    }

    /// MDS liveness reaping (leader only): ranks whose daemons have gone
    /// silent past the beacon grace are marked down with a Paxos-committed
    /// MDS-map epoch bump, and a registered standby — if one is alive — is
    /// promoted into the vacant rank. Runs when an MDS deadline passes and
    /// when an mdsmap commit lands; each action is proposed at once, and
    /// re-arms its rank's node so that a commit that has not landed one
    /// grace later is proposed again.
    fn reap_mds(&mut self, ctx: &mut Context<'_>) {
        if !self.paxos.is_leader() {
            return;
        }
        let now = ctx.now();
        let grace = self.config.mds_beacon_grace;
        let fresh = |beacons: &BTreeMap<NodeId, MdsLiveness>, node: NodeId| {
            beacons
                .get(&node)
                .is_some_and(|l| now.saturating_since(l.beacon) < grace)
        };
        let view = self.mdsmap();
        let mut standbys = view.standbys;
        standbys.retain(|n| {
            fresh(&self.mds_beacons, *n) && !self.proposed_lately(&standby_key(*n), now)
        });
        // Ranks ascending: the lowest failed rank is filled first.
        for (rank, entry) in view.ranks {
            if self.proposed_lately(&MdsEntry::key(rank), now) {
                continue;
            }
            let node = entry.node;
            let silent = self.mds_beacons.contains_key(&node) && !fresh(&self.mds_beacons, node);
            if entry.up && !silent {
                continue;
            }
            if !entry.up && standbys.is_empty() {
                continue;
            }
            let (updates, line) = match standbys.pop() {
                Some(standby) => (
                    vec![
                        MdsMapView::update_rank(rank, standby, true),
                        MapUpdate::del(SERVICE_MAP_MDS, &standby_key(standby)),
                    ],
                    format!("mds.{rank} on {node} failed; promoting standby {standby}"),
                ),
                None => (
                    vec![MdsMapView::update_rank(rank, node, false)],
                    format!("mds.{rank} on {node} missed beacons; marked down (no standby)"),
                ),
            };
            self.cluster_log
                .push((now, format!("mon.{}", self.rank), line));
            self.submit_self(ctx, updates);
            self.arm_mds(ctx, node, now + grace);
        }
    }

    /// Standby registration: a beaconing standby not yet in the map gets a
    /// standby entry committed (leader only).
    fn register_standby(&mut self, ctx: &mut Context<'_>, node: NodeId) {
        if !self.paxos.is_leader() {
            return;
        }
        let key = standby_key(node);
        if self.proposed_lately(&key, ctx.now()) {
            return;
        }
        // A node serving a rank (e.g. just promoted, beacon not yet switched
        // over) must not be registered as a standby too. A rank marked down
        // does not hold its node: the daemon may come back as a standby.
        let view = self.mdsmap();
        let serving = view.ranks.values().any(|e| e.up && e.node == node);
        if view.standbys.contains(&node) || serving {
            return;
        }
        let update = MapUpdate::set(SERVICE_MAP_MDS, &key, b"1".to_vec());
        self.submit_self(ctx, vec![update]);
    }
}

/// The counter of a liveness action the leader proposed, told by its first
/// update: a promotion, a mark-down or a standby registration.
fn liveness_counter(tx: &Tx) -> Option<&'static CounterName> {
    let first = tx.updates.first()?;
    let entry = first.value.as_deref().and_then(MdsEntry::parse);
    Some(match (MapKey::parse(&first.key), entry) {
        (MapKey::Mds(_), Some(MdsEntry { up: true, .. })) => counter!("mon.mds_failovers"),
        (MapKey::Mds(_), _) => counter!("mon.mds_marked_down"),
        _ => counter!("mon.mds_standbys_registered"),
    })
}

impl Actor for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.last_leader_contact = ctx.now();
        ctx.set_timer(self.config.proposal_interval, TIMER_PROPOSAL);
        ctx.set_timer(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
        // Stagger election timeouts by rank so rank 0 wins the first
        // election without duels.
        let patience = ELECTION_TIMEOUT.mul(self.rank as u64 + 1);
        if self.rank == 0 {
            let out = self.paxos.campaign();
            self.ship(ctx, out);
        }
        ctx.set_timer(patience, TIMER_ELECTION);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        let msg = match msg.downcast::<MonWire>() {
            Ok(wire) => {
                // A Paxos message from a node outside the configured quorum
                // is hostile or misconfigured; participating would let a
                // rogue sender steer consensus (or, previously, crash the
                // monitor). Drop it on the floor and count it.
                let Some(rank) = self.peers.iter().position(|p| *p == from) else {
                    ctx.metrics().bump(counter!("mon.paxos_rogue_msgs"), 1);
                    return;
                };
                let rank = rank as ReplicaId;
                if matches!(
                    wire.0,
                    PaxosMsg::Heartbeat { .. } | PaxosMsg::Prepare { .. }
                ) {
                    self.last_leader_contact = ctx.now();
                }
                let out = self.paxos.on_message(rank, wire.0);
                self.ship(ctx, out);
                self.apply_chosen(ctx);
                return;
            }
            Err(other) => other,
        };
        let Ok(msg) = msg.downcast::<MonMsg>() else {
            return;
        };
        match *msg {
            MonMsg::Submit { seq, updates } => {
                ctx.metrics().bump(counter!("mon.submits"), 1);
                let tx = Tx {
                    client: from,
                    seq,
                    updates,
                };
                if maps::proposes_at_once(&tx.updates) {
                    self.propose(ctx, vec![tx]);
                } else {
                    self.pending.push(tx);
                }
            }
            MonMsg::Get { map } => {
                ctx.metrics().bump(counter!("mon.gets"), 1);
                let snap = self.snapshot_or_empty(&map);
                ctx.send(from, MonMsg::Snapshot(snap));
            }
            MonMsg::Subscribe { map } => {
                ctx.metrics().bump(counter!("mon.subscribes"), 1);
                self.subs.entry(map.clone()).or_default().insert(from);
                let snap = self.snapshot_or_empty(&map);
                ctx.send(from, MonMsg::Snapshot(snap));
            }
            MonMsg::ClusterLog { source, line } => {
                ctx.metrics().bump(counter!("mon.cluster_log_lines"), 1);
                self.cluster_log.push((ctx.now(), source, line));
            }
            MonMsg::MdsBeacon { rank } => {
                ctx.metrics().bump(counter!("mon.mds_beacons"), 1);
                self.beacon(ctx, from);
                if rank.is_none() {
                    self.register_standby(ctx, from);
                }
            }
            MonMsg::SubmitAck { .. } | MonMsg::Snapshot(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_PROPOSAL => {
                let pending = std::mem::take(&mut self.pending);
                self.propose(ctx, pending);
                ctx.set_timer(self.config.proposal_interval, TIMER_PROPOSAL);
            }
            TIMER_HEARTBEAT => {
                let out = self.paxos.heartbeat();
                self.ship(ctx, out);
                ctx.set_timer(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
            }
            TIMER_ELECTION => {
                let patience = ELECTION_TIMEOUT.mul(self.rank as u64 + 1);
                let stale = ctx.now().saturating_since(self.last_leader_contact) >= patience;
                let leaderless = self.paxos.leader_hint().is_none()
                    || (stale && self.paxos.leader_hint() != Some(self.rank));
                if leaderless && !self.paxos.is_leader() {
                    let out = self.paxos.campaign();
                    self.ship(ctx, out);
                    ctx.metrics().bump(counter!("mon.elections"), 1);
                }
                ctx.set_timer(patience, TIMER_ELECTION);
            }
            TIMER_MDS_DEADLINE => {
                let leading = self.paxos.is_leader();
                let again = ctx.now() + self.config.mds_beacon_grace;
                let mut due = false;
                while let Some(node) = self.mds_deadlines.pop_due(ctx) {
                    if let Some(l) = self.mds_beacons.get_mut(&node) {
                        l.deadline = None;
                    }
                    // A follower cannot reap; it looks again one grace
                    // later, so a node that went silent while this monitor
                    // followed is reaped once it leads again.
                    if !leading {
                        self.arm_mds(ctx, node, again);
                    }
                    due = true;
                }
                if due {
                    self.reap_mds(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::SERVICE_MAP_OSD;
    use mala_sim::{NetConfig, Network, Sim};

    /// A scripted client that submits updates and records replies.
    #[derive(Default)]
    struct TestClient {
        acks: Vec<(u64, Vec<(String, u64)>)>,
        /// When each of `acks` arrived.
        acked_at: Vec<SimTime>,
        snapshots: Vec<MapSnapshot>,
    }

    impl Actor for TestClient {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
            if let Ok(msg) = msg.downcast::<MonMsg>() {
                match *msg {
                    MonMsg::SubmitAck { seq, epochs } => {
                        self.acks.push((seq, epochs));
                        self.acked_at.push(ctx.now());
                    }
                    MonMsg::Snapshot(s) => self.snapshots.push(s),
                    _ => {}
                }
            }
        }
    }

    fn mon_ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn build(n: u32, config: MonConfig) -> Sim {
        let mut sim = Sim::with_network(7, Network::new(NetConfig::default()));
        let peers = mon_ids(n);
        for rank in 0..n {
            sim.add_node(
                peers[rank as usize],
                Monitor::new(rank, peers.clone(), config.clone()),
            );
        }
        sim.add_node(NodeId(100), TestClient::default());
        sim
    }

    #[test]
    fn leader_elected_and_update_commits() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());

        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 1,
                    updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "osd.0", b"up".to_vec())],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(3));
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.acks.len(), 1);
        assert_eq!(client.acks[0].0, 1);
        assert_eq!(client.acks[0].1, vec![(SERVICE_MAP_OSD.to_string(), 1)]);
        // All replicas applied it.
        for rank in 0..3 {
            let m = sim.actor::<Monitor>(NodeId(rank));
            let snap = m.map(SERVICE_MAP_OSD).unwrap();
            assert_eq!(snap.epoch, 1);
            assert_eq!(snap.entries["osd.0"], b"up".to_vec());
        }
    }

    #[test]
    fn submit_to_follower_commits_via_forwarding() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(2),
                MonMsg::Submit {
                    seq: 9,
                    updates: vec![MapUpdate::set(SERVICE_MAP_MDS, "mds.a", b"x".to_vec())],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(4));
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.acks.len(), 1, "acks: {:?}", client.acks);
    }

    #[test]
    fn get_returns_snapshot() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Get {
                    map: "nonexistent".to_string(),
                },
            );
        });
        sim.run_for(SimDuration::from_millis(100));
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.snapshots.len(), 1);
        assert_eq!(client.snapshots[0].epoch, 0);
        assert!(client.snapshots[0].entries.is_empty());
    }

    #[test]
    fn subscribers_get_notified_of_changes() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(1),
                MonMsg::Subscribe {
                    map: SERVICE_MAP_INTERFACES.to_string(),
                },
            );
        });
        sim.run_for(SimDuration::from_millis(100));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 2,
                    updates: vec![MapUpdate::set(
                        SERVICE_MAP_INTERFACES,
                        "cls_zlog",
                        b"function seal() end".to_vec(),
                    )],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(3));
        // The subscription's answer, then the committed map, whole.
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.snapshots.len(), 2);
        let (first, pushed) = (&client.snapshots[0], &client.snapshots[1]);
        assert_eq!(
            (first.map.as_str(), first.epoch),
            (SERVICE_MAP_INTERFACES, 0)
        );
        assert!(first.entries.is_empty());
        let committed = sim.actor::<Monitor>(NodeId(1)).map(SERVICE_MAP_INTERFACES);
        assert_eq!(Some(pushed), committed);
        assert_eq!(pushed.epoch, 1);
        assert_eq!(pushed.entries.keys().collect::<Vec<_>>(), ["cls_zlog"]);
    }

    #[test]
    fn batching_applies_many_updates_in_one_epoch_bump() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        // Two submits with the same shape land in the same interval → one
        // batch → one epoch bump.
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            for seq in [10, 11] {
                ctx.send(
                    NodeId(0),
                    MonMsg::Submit {
                        seq,
                        updates: vec![MapUpdate::set(
                            SERVICE_MAP_OSD,
                            &format!("k{seq}"),
                            b"v".to_vec(),
                        )],
                    },
                );
            }
        });
        sim.run_for(SimDuration::from_secs(3));
        let m = sim.actor::<Monitor>(NodeId(0));
        let snap = m.map(SERVICE_MAP_OSD).unwrap();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.epoch, 1, "both updates batched into one epoch");
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.acks.len(), 2);
    }

    #[test]
    fn leader_failure_triggers_reelection_and_progress() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
        sim.crash(NodeId(0));
        // Give rank 1 time to notice (patience = 2 * 1.5s) and campaign.
        sim.run_for(SimDuration::from_secs(8));
        assert!(
            sim.actor::<Monitor>(NodeId(1)).is_leader()
                || sim.actor::<Monitor>(NodeId(2)).is_leader(),
            "a surviving monitor must take over"
        );
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(1),
                MonMsg::Submit {
                    seq: 50,
                    updates: vec![MapUpdate::set(
                        SERVICE_MAP_OSD,
                        "post-failover",
                        b"1".to_vec(),
                    )],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(5));
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.acks.len(), 1, "commit must succeed after failover");
    }

    #[test]
    fn deletes_remove_keys() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 1,
                    updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(2));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 2,
                    updates: vec![MapUpdate::del(SERVICE_MAP_OSD, "k")],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(2));
        let m = sim.actor::<Monitor>(NodeId(0));
        let snap = m.map(SERVICE_MAP_OSD).unwrap();
        assert!(snap.entries.is_empty());
        assert_eq!(snap.epoch, 2);
    }

    #[test]
    fn shorter_proposal_interval_lowers_commit_latency() {
        let commit_latency = |interval_ms: u64| -> f64 {
            let config = MonConfig {
                proposal_interval: SimDuration::from_millis(interval_ms),
                ..MonConfig::default()
            };
            let mut sim = build(3, config);
            sim.run_for(SimDuration::from_millis(500));
            let t0 = sim.now();
            sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
                ctx.send(
                    NodeId(0),
                    MonMsg::Submit {
                        seq: 1,
                        updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
                    },
                );
            });
            let acked = sim.run_until_pred(t0 + SimDuration::from_secs(10), |s| {
                !s.actor::<TestClient>(NodeId(100)).acks.is_empty()
            });
            assert!(acked);
            sim.now().since(t0).as_millis_f64()
        };
        let slow = commit_latency(1000);
        let fast = commit_latency(222);
        assert!(
            fast < slow,
            "222 ms interval ({fast} ms) must beat 1 s interval ({slow} ms)"
        );
    }

    #[test]
    fn paxos_message_from_rogue_sender_is_dropped_not_fatal() {
        use crate::paxos::Ballot;
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
        // NodeId(100) is the test client — not in the monitor quorum. Its
        // Paxos traffic must be discarded, not crash the monitor or steer
        // consensus.
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonWire(PaxosMsg::Heartbeat {
                    ballot: Ballot {
                        round: 99,
                        proposer: 2,
                    },
                    chosen_up_to: 0,
                }),
            );
            ctx.send(
                NodeId(1),
                MonWire(PaxosMsg::Prepare {
                    ballot: Ballot {
                        round: 100,
                        proposer: 1,
                    },
                }),
            );
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("mon.paxos_rogue_msgs"), 2);
        // The quorum still commits afterwards.
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 1,
                    updates: vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.actor::<TestClient>(NodeId(100)).acks.len(), 1);
    }

    #[test]
    fn invalid_pool_updates_are_rejected_at_commit() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 1,
                    updates: vec![
                        // Operator typo: a zero pg_num would panic-or-wedge
                        // placement on every daemon.
                        MapUpdate::set(
                            SERVICE_MAP_OSD,
                            "pool.bad",
                            b"pg_num=0,replicas=3".to_vec(),
                        ),
                        MapUpdate::set(
                            SERVICE_MAP_OSD,
                            "pool.typo",
                            b"pg_num=sixty,replicas=3".to_vec(),
                        ),
                        MapUpdate::set(SERVICE_MAP_OSD, "pool.ok", b"pg_num=8,replicas=2".to_vec()),
                    ],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(3));
        // The valid update committed; the invalid ones never entered the
        // authoritative map, on any replica.
        for rank in 0..3 {
            let m = sim.actor::<Monitor>(NodeId(rank));
            let snap = m.map(SERVICE_MAP_OSD).unwrap();
            assert!(snap.entries.contains_key("pool.ok"));
            assert!(!snap.entries.contains_key("pool.bad"));
            assert!(!snap.entries.contains_key("pool.typo"));
        }
        assert!(sim.metrics().counter("mon.osdmap_rejected_updates") >= 2);
        // Deleting a pool entry is still allowed (value None skips
        // validation).
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(
                NodeId(0),
                MonMsg::Submit {
                    seq: 2,
                    updates: vec![MapUpdate::del(SERVICE_MAP_OSD, "pool.ok")],
                },
            );
        });
        sim.run_for(SimDuration::from_secs(3));
        let snap_entries = &sim
            .actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_OSD)
            .unwrap()
            .entries;
        assert!(!snap_entries.contains_key("pool.ok"));
    }

    /// The monitor commits a log's epoch only upward, on every replica,
    /// and counts what it refuses: a seal's epoch bump re-sent and applied
    /// after a newer seal's never moves the log back.
    #[test]
    fn a_log_epoch_that_does_not_rise_is_refused_at_commit() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        let key = maps::LogEpoch::key("log");
        let steps: [(Option<&str>, Option<&str>); 5] = [
            (Some("2"), Some("2")),
            (Some("2"), Some("2")),
            (Some("1"), Some("2")),
            (None, None),
            (Some("1"), Some("1")),
        ];
        for (seq, (value, committed)) in (1..).zip(steps) {
            let update = match value {
                Some(v) => MapUpdate::set(SERVICE_MAP_ZLOG, &key, v),
                None => MapUpdate::del(SERVICE_MAP_ZLOG, &key),
            };
            let updates = vec![update];
            sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
                ctx.send(NodeId(0), MonMsg::Submit { seq, updates });
            });
            sim.run_for(SimDuration::from_secs(2));
            for rank in 0..3 {
                let map = sim.actor::<Monitor>(NodeId(rank)).map(SERVICE_MAP_ZLOG);
                let entry = map.and_then(|snap| snap.entries.get(&key));
                assert_eq!(
                    entry.map(Vec::as_slice),
                    committed.map(str::as_bytes),
                    "{seq}"
                );
            }
        }
        // Two refusals and three commits, counted once each: by the monitor
        // that proposed them, not by every replica that applied the batch.
        assert_eq!(sim.metrics().counter("mon.zlog_rejected_updates"), 2);
        assert_eq!(sim.metrics().counter("mon.map_commits"), 3);
        assert_eq!(
            sim.actor::<TestClient>(NodeId(100)).acks.len(),
            5,
            "a refusal is acked"
        );
    }

    /// How long after 0.5 s a `Submit` of `updates` sent to monitor `to`
    /// is acked, and the epochs the ack names. The proposal ticks come at
    /// each whole second.
    fn acked_after(to: NodeId, updates: Vec<MapUpdate>) -> (SimDuration, Vec<(String, u64)>) {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
        let sent = sim.now();
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            ctx.send(to, MonMsg::Submit { seq: 1, updates });
        });
        let acked = sim.run_until_pred(sent + SimDuration::from_secs(3), |s| {
            !s.actor::<TestClient>(NodeId(100)).acks.is_empty()
        });
        assert!(acked, "{to}");
        let client = sim.actor::<TestClient>(NodeId(100));
        (client.acked_at[0].since(sent), client.acks[0].1.clone())
    }

    /// A `Submit` wholly in the zlog map is proposed when it arrives: at
    /// the leader, or at a follower, which forwards it. With a 1 s
    /// proposal interval it is acked within 10 ms.
    #[test]
    fn a_zlog_submit_is_acked_at_once_by_the_leader_and_a_follower() {
        let config = MonConfig::default();
        assert_eq!(config.proposal_interval, SimDuration::from_secs(1));
        let epoch = MapUpdate::set(SERVICE_MAP_ZLOG, &maps::LogEpoch::key("log"), "1");
        for to in [NodeId(0), NodeId(2)] {
            let (waited, epochs) = acked_after(to, vec![epoch.clone()]);
            assert!(waited < SimDuration::from_millis(10), "{to}: {waited}");
            assert_eq!(epochs, [(SERVICE_MAP_ZLOG.to_string(), 1)]);
        }
    }

    /// A `Submit` that names a ticked map waits for the next tick, 500 ms
    /// after it is sent, alone or beside a zlog update: a transaction is
    /// proposed whole, so both its maps move in one commit.
    #[test]
    fn an_osdmap_or_mixed_submit_waits_for_the_tick_whole() {
        let epoch = MapUpdate::set(SERVICE_MAP_ZLOG, &maps::LogEpoch::key("log"), "1");
        let osd = MapUpdate::set(SERVICE_MAP_OSD, "osd.0", "node=1,up=1");
        let tick = SimDuration::from_millis(500);
        for to in [NodeId(0), NodeId(2)] {
            let (waited, epochs) = acked_after(to, vec![osd.clone()]);
            assert!(waited >= tick, "{to}: {waited}");
            assert_eq!(epochs, [(SERVICE_MAP_OSD.to_string(), 1)]);
            let (waited, epochs) = acked_after(to, vec![epoch.clone(), osd.clone()]);
            assert!(waited >= tick, "{to}: {waited}");
            let both = [
                (SERVICE_MAP_ZLOG.to_string(), 1),
                (SERVICE_MAP_OSD.to_string(), 1),
            ];
            assert_eq!(epochs, both);
        }
    }

    #[test]
    fn one_tick_of_mixed_transactions_is_one_epoch_and_a_repeat_applies_nothing() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        let submit = |sim: &mut Sim, seq: u64, keys: &[&str]| {
            let updates = keys
                .iter()
                .map(|k| MapUpdate::set(SERVICE_MAP_OSD, k, b"v".to_vec()))
                .collect();
            sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
                ctx.send(NodeId(0), MonMsg::Submit { seq, updates });
            });
        };
        // A 2-update and a 1-update transaction in one interval.
        submit(&mut sim, 1, &["a", "b"]);
        submit(&mut sim, 2, &["c"]);
        sim.run_for(SimDuration::from_secs(2));
        let osd_epoch = |sim: &Sim| {
            sim.actor::<Monitor>(NodeId(0))
                .map(SERVICE_MAP_OSD)
                .unwrap()
                .epoch
        };
        assert_eq!(osd_epoch(&sim), 1, "one proposal, one epoch");
        let client = sim.actor::<TestClient>(NodeId(100));
        let epoch_1 = vec![(SERVICE_MAP_OSD.to_string(), 1)];
        assert_eq!(client.acks, vec![(1, epoch_1.clone()), (2, epoch_1)]);
        // The same transaction proposed again is chosen, and applies
        // nothing: no key, no epoch. It is acked again, with the epoch the
        // map it names is at.
        submit(&mut sim, 1, &["d"]);
        sim.run_for(SimDuration::from_secs(2));
        let acks = &sim.actor::<TestClient>(NodeId(100)).acks;
        assert_eq!(acks.len(), 3);
        assert_eq!(acks[2], (1, vec![(SERVICE_MAP_OSD.to_string(), 1)]));
        for rank in 0..3 {
            let snap = sim
                .actor::<Monitor>(NodeId(rank))
                .map(SERVICE_MAP_OSD)
                .unwrap();
            assert_eq!(snap.epoch, 1);
            assert_eq!(snap.entries.keys().collect::<Vec<_>>(), ["a", "b", "c"]);
        }
    }

    /// An MDS daemon reduced to its beacon: every 250 ms it tells monitor 0
    /// which rank it serves (`None`: a standby).
    struct Beaconer(Option<u32>);

    impl Actor for Beaconer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(250), 0);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            ctx.send(NodeId(0), MonMsg::MdsBeacon { rank: self.0 });
            ctx.set_timer(SimDuration::from_millis(250), 0);
        }
    }

    const ACTIVE: NodeId = NodeId(200);
    const STANDBY: NodeId = NodeId(201);
    /// When the tests crash [`ACTIVE`]: its last beacon reached the leader
    /// at 1.75 s, so it is silent past the grace just before 2.75 s, and a
    /// sweep every half grace would find it at 3 s, on a proposal tick.
    const CRASH_AT: SimTime = SimTime::from_micros(1_900_000);

    /// A quorum of three whose mdsmap puts rank 0 on `rank0`. [`ACTIVE`]
    /// beacons for rank 0, [`STANDBY`] too if `standby`, and the test
    /// client follows the mdsmap. Returns at 1.5 s.
    fn mds_quorum(config: MonConfig, rank0: NodeId, standby: bool) -> Sim {
        let mut sim = build(3, config);
        sim.run_for(SimDuration::from_millis(500));
        let value = format!("node={},up=1", rank0.0);
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            let map = SERVICE_MAP_MDS.to_string();
            ctx.send(NodeId(0), MonMsg::Subscribe { map });
            let updates = vec![MapUpdate::set(SERVICE_MAP_MDS, "mds.0", value)];
            ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
        });
        sim.add_node(ACTIVE, Beaconer(Some(0)));
        if standby {
            sim.add_node(STANDBY, Beaconer(None));
        }
        sim.run_for(SimDuration::from_secs(1));
        sim
    }

    /// The leader's mdsmap entry for rank 0.
    fn rank0(sim: &Sim) -> String {
        let map = sim
            .actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_MDS)
            .unwrap();
        String::from_utf8_lossy(&map.entries["mds.0"]).into_owned()
    }

    /// The mdsmap epochs pushed to the test client at which rank 0 is on
    /// `node`. Every commit touching the mdsmap is one epoch and one
    /// snapshot, and nothing touches it once the promotion has committed:
    /// a promotion that committed twice counts 2.
    fn promotions(sim: &Sim, node: NodeId) -> usize {
        let promoted = format!("node={},up=1", node.0).into_bytes();
        let snapshots = &sim.actor::<TestClient>(NodeId(100)).snapshots;
        let epochs: BTreeSet<u64> = snapshots
            .iter()
            .filter(|s| s.map == SERVICE_MAP_MDS && s.entries.get("mds.0") == Some(&promoted))
            .map(|s| s.epoch)
            .collect();
        epochs.len()
    }

    /// The promotions the leader decided: lines in monitor 0's cluster log.
    fn promotions_proposed(sim: &Sim) -> usize {
        let log = sim.actor::<Monitor>(NodeId(0)).cluster_log();
        log.iter()
            .filter(|(_, _, line)| line.contains("promoting standby"))
            .count()
    }

    fn crash_active_at(sim: &mut Sim, at: SimTime) {
        sim.run_until_pred(at, |_| false);
        sim.crash(ACTIVE);
    }

    #[test]
    fn one_crash_commits_one_promotion() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
        crash_active_at(&mut sim, CRASH_AT);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(rank0(&sim), format!("node={},up=1", STANDBY.0));
        assert_eq!(
            promotions(&sim, STANDBY),
            1,
            "the promotion committed more than once"
        );
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    }

    #[test]
    fn a_failover_is_proposed_when_it_is_decided() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
        crash_active_at(&mut sim, CRASH_AT);
        let decided = sim.run_until_pred(CRASH_AT + SimDuration::from_secs(3), |s| {
            promotions_proposed(s) == 1
        });
        assert!(decided);
        let decided_at = sim.now();
        // Beacon grace after the last beacon, not a sweep or a tick later.
        assert!(decided_at < SimTime::from_micros(2_760_000), "{decided_at}");
        // A client submit made at the same instant waits for the tick at
        // 3 s; the promotion does not.
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            let updates = vec![MapUpdate::set(SERVICE_MAP_OSD, "k", b"v".to_vec())];
            ctx.send(NodeId(0), MonMsg::Submit { seq: 7, updates });
        });
        let tick = SimTime::from_micros(3_000_000);
        let promoted = sim.run_until_pred(tick, |s| promotions(s, STANDBY) == 1);
        assert!(promoted && sim.now() < decided_at + SimDuration::from_millis(5));
        assert!(sim
            .actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_OSD)
            .is_none());
        sim.run_for(SimDuration::from_secs(1));
        let client = sim.actor::<TestClient>(NodeId(100));
        let acked: Vec<_> = client.acks.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(acked, [1, 7]);
        let at = client.acked_at[1];
        assert!(
            at >= tick && at < tick + SimDuration::from_millis(50),
            "{at}"
        );
    }

    #[test]
    fn a_rank_marked_down_is_filled_when_a_standby_registers() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, false);
        crash_active_at(&mut sim, CRASH_AT);
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(rank0(&sim), format!("node={},up=0", ACTIVE.0));
        assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 1);
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 0);
        // The standby's first beacon comes 250 ms after it starts; its
        // registration and then the promotion are each proposed at once.
        let start = sim.now();
        sim.add_node(STANDBY, Beaconer(None));
        let filled = sim.run_until_pred(start + SimDuration::from_millis(300), |s| {
            promotions(s, STANDBY) == 1
        });
        assert!(filled, "rank 0 still {}", rank0(&sim));
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(promotions(&sim, STANDBY), 1);
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    }

    /// A rank marked down for want of a standby names its node only as
    /// down: when that node's daemon restarts as a standby, it registers
    /// and is promoted back into the rank.
    #[test]
    fn a_daemon_whose_rank_was_marked_down_comes_back_as_a_standby() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, false);
        crash_active_at(&mut sim, CRASH_AT);
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(rank0(&sim), format!("node={},up=0", ACTIVE.0));
        let start = sim.now();
        sim.restart(ACTIVE, Beaconer(None));
        let grace = MonConfig::default().mds_beacon_grace;
        let back = sim.run_until_pred(start + grace.mul(2), |s| {
            rank0(s) == format!("node={},up=1", ACTIVE.0)
        });
        assert!(back, "rank 0 still {}", rank0(&sim));
        assert_eq!(sim.metrics().counter("mon.mds_standbys_registered"), 1);
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    }

    #[test]
    fn a_promotion_that_does_not_commit_within_a_grace_is_proposed_again_and_applied_once() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
        crash_active_at(&mut sim, CRASH_AT);
        // The leader loses its quorum before the crash is noticed.
        for peer in [NodeId(1), NodeId(2)] {
            sim.network_mut().sever(NodeId(0), peer);
        }
        sim.run_until_pred(SimTime::from_micros(3_700_000), |_| false);
        assert_eq!(promotions_proposed(&sim), 1);
        assert_eq!(rank0(&sim), format!("node={},up=1", ACTIVE.0));
        sim.run_until_pred(SimTime::from_micros(3_800_000), |_| false);
        assert_eq!(promotions_proposed(&sim), 2, "not proposed again");
        sim.network_mut().heal_all();
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(rank0(&sim), format!("node={},up=1", STANDBY.0));
        assert!(sim.actor::<Monitor>(NodeId(0)).is_leader());
        // Both proposals are chosen once the quorum is back; the second
        // went out under the first's seq and applies nothing, so the
        // failover counts once.
        assert_eq!(promotions(&sim, STANDBY), 1);
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    }

    /// Two ranks go silent a beacon's jitter apart, and the one standby is
    /// promoted into the first while that promotion is still uncommitted
    /// when the second is reaped: the second is marked down, not filled
    /// with the same standby.
    #[test]
    fn a_standby_being_promoted_is_not_promoted_into_a_second_rank() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        let (two, ten) = (NodeId(202), NodeId(210));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            let updates = vec![
                MapUpdate::set(SERVICE_MAP_MDS, "mds.2", format!("node={},up=1", two.0)),
                MapUpdate::set(SERVICE_MAP_MDS, "mds.10", format!("node={},up=1", ten.0)),
            ];
            ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
        });
        sim.add_node(two, Beaconer(Some(2)));
        sim.add_node(ten, Beaconer(Some(10)));
        sim.add_node(STANDBY, Beaconer(None));
        sim.run_for(SimDuration::from_secs(1));
        sim.crash(two);
        sim.crash(ten);
        sim.run_for(SimDuration::from_secs(3));
        let view = sim.actor::<Monitor>(NodeId(0)).mdsmap();
        let on_standby = view.ranks.values().filter(|e| e.node == STANDBY).count();
        assert_eq!(on_standby, 1, "{view:?}");
        assert_eq!(view.up_ranks().len(), 1, "{view:?}");
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
        assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 1);
    }

    /// Two silent ranks and one standby: the standby fills the lowest
    /// failed rank, as Ceph's MDSMonitor does, and the other stays down.
    /// Ranks are walked in numeric order, so 2 comes before 10.
    #[test]
    fn a_standby_fills_the_lowest_failed_rank() {
        let mut sim = build(3, MonConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        let (two, ten) = (NodeId(202), NodeId(210));
        sim.with_actor::<TestClient, _>(NodeId(100), |_, ctx| {
            let updates = vec![
                MapUpdate::set(SERVICE_MAP_MDS, "mds.2", format!("node={},up=1", two.0)),
                MapUpdate::set(SERVICE_MAP_MDS, "mds.10", format!("node={},up=1", ten.0)),
            ];
            ctx.send(NodeId(0), MonMsg::Submit { seq: 1, updates });
        });
        sim.add_node(two, Beaconer(Some(2)));
        sim.add_node(ten, Beaconer(Some(10)));
        sim.run_for(SimDuration::from_secs(1));
        // Both go silent and are marked down; then one standby registers.
        sim.crash(two);
        sim.crash(ten);
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 2);
        sim.add_node(STANDBY, Beaconer(None));
        sim.run_for(SimDuration::from_secs(1));
        let map = sim
            .actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_MDS)
            .unwrap();
        let entry = |key: &str| String::from_utf8_lossy(&map.entries[key]).into_owned();
        assert_eq!(entry("mds.2"), format!("node={},up=1", STANDBY.0));
        assert_eq!(entry("mds.10"), format!("node={},up=0", ten.0));
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 1);
    }

    #[test]
    fn a_rank_whose_deadline_passed_while_its_monitor_followed_is_reaped_when_it_leads() {
        let mut sim = mds_quorum(MonConfig::default(), ACTIVE, true);
        let leads = |sim: &Sim, rank: u32| sim.actor::<Monitor>(NodeId(rank)).is_leader();
        // Monitor 0, which the MDS daemons beacon, is cut off; monitor 1
        // takes over, and monitor 0 steps down once it hears of it.
        for peer in [NodeId(1), NodeId(2)] {
            sim.network_mut().sever(NodeId(0), peer);
        }
        let far = SimTime::from_micros(20_000_000);
        assert!(sim.run_until_pred(far, |s| leads(s, 1)));
        sim.network_mut().heal_all();
        assert!(sim.run_until_pred(far, |s| !leads(s, 0)));
        // The active daemon crashes, and its deadline passes while monitor
        // 0 follows: nobody reaps it.
        let crash = sim.now();
        sim.crash(ACTIVE);
        sim.run_until_pred(crash + SimDuration::from_secs(3), |_| false);
        assert!(!leads(&sim, 0));
        assert_eq!(rank0(&sim), format!("node={},up=1", ACTIVE.0));
        // Monitor 1 crashes; monitor 0 is the first to campaign and leads
        // again, and reaps the silent rank within a grace.
        sim.crash(NodeId(1));
        assert!(sim.run_until_pred(far, |s| leads(s, 0)));
        let led_at = sim.now();
        let promoted = sim.run_until_pred(led_at + SimDuration::from_millis(1100), |s| {
            promotions(s, STANDBY) == 1
        });
        assert!(promoted, "rank 0 still {}", rank0(&sim));
    }

    #[test]
    fn a_rank_that_never_beaconed_is_left_alone() {
        // Rank 0 is on a node that never beacons; the standby does.
        let silent = NodeId(300);
        let mut sim = mds_quorum(MonConfig::default(), silent, true);
        sim.crash(ACTIVE);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(rank0(&sim), format!("node={},up=1", silent.0));
        let map = sim
            .actor::<Monitor>(NodeId(0))
            .map(SERVICE_MAP_MDS)
            .unwrap();
        assert!(map.entries.contains_key(&format!("standby.{}", STANDBY.0)));
        assert_eq!(sim.metrics().counter("mon.mds_failovers"), 0);
        assert_eq!(sim.metrics().counter("mon.mds_marked_down"), 0);
    }
}
