//! The monitor daemon: versioned cluster maps behind a Paxos quorum.
//!
//! Monitors reproduce the behaviour the paper relies on (§4.1):
//!
//! * Clients submit key-value updates to named *cluster maps* (the OSD map,
//!   MDS map, interface registry, Mantle policy pointer ...).
//! * Updates accumulate and are proposed as one Paxos command per
//!   *proposal interval* (1 s in stock Ceph; the paper reports lowering it
//!   to ~222 ms on a 3-monitor hard-drive quorum).
//! * Every committed batch bumps the *epoch* of each touched map, and
//!   subscribers receive change notifications — the seed of the OSD gossip
//!   that Figure 8 measures.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};

use mala_sim::{counter, Actor, Context, NodeId, SimDuration, SimTime, SpanContext};

use crate::paxos::{Outbound, PaxosMsg, PaxosNode, ReplicaId, Slot};

/// Name of the OSD cluster map.
pub const SERVICE_MAP_OSD: &str = "osdmap";
/// Name of the MDS cluster map.
pub const SERVICE_MAP_MDS: &str = "mdsmap";
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

/// The Paxos command type: one batch of updates accumulated during a
/// proposal interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxBatch {
    /// Dedup key: (submitting client node, client-chosen sequence).
    pub txids: Vec<(NodeId, u64)>,
    /// Clients to acknowledge, parallel to `txids`.
    pub clients: Vec<NodeId>,
    /// The monitor rank that owns sending the acknowledgements.
    pub origin: ReplicaId,
    /// The concatenated updates of the batch.
    pub updates: Vec<MapUpdate>,
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
    /// Acknowledgement that the batch containing `seq` committed.
    SubmitAck {
        /// Echoed client sequence.
        seq: u64,
        /// Epoch of each touched map after application.
        epochs: Vec<(String, u64)>,
    },
    /// Read a map.
    Get {
        /// Map name.
        map: String,
    },
    /// Reply to [`MonMsg::Get`], also sent on subscribe.
    Snapshot(MapSnapshot),
    /// Subscribe to change notifications for a map.
    Subscribe {
        /// Map name.
        map: String,
    },
    /// Pushed to subscribers after a committed batch touches the map.
    Changed {
        /// Map name.
        map: String,
        /// New epoch.
        epoch: u64,
        /// The changed keys and their new values (`None` = deleted).
        delta: Vec<(String, Option<Vec<u8>>)>,
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
    /// the leader commits a `standby.<node>` entry into the MDS map so a
    /// later failover can promote the node into a vacant rank.
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
    /// How long updates accumulate before being proposed (Ceph default 1 s;
    /// the paper's tuned quorum reaches ~222 ms).
    pub proposal_interval: SimDuration,
    /// Leader heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Follower patience before campaigning.
    pub election_timeout: SimDuration,
    /// How long an MDS may go without beaconing before the leader marks
    /// its rank down and promotes a standby.
    pub mds_beacon_grace: SimDuration,
}

impl Default for MonConfig {
    fn default() -> Self {
        MonConfig {
            proposal_interval: SimDuration::from_secs(1),
            heartbeat_interval: SimDuration::from_millis(250),
            election_timeout: SimDuration::from_millis(1500),
            mds_beacon_grace: SimDuration::from_millis(1000),
        }
    }
}

/// One key's change within a committed batch: `(key, new value | deleted)`.
type MapDelta = (String, Option<Vec<u8>>);

const TIMER_PROPOSAL: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
const TIMER_ELECTION: u64 = 3;
const TIMER_MDS_LIVENESS: u64 = 4;

/// Seq namespace for transactions the leader originates itself (MDS
/// liveness actions); keeps their txids clear of harness-injected seqs,
/// which share the monitor's own NodeId as submitter.
const SELF_SEQ_BASE: u64 = 1 << 32;

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
    applied_txids: HashSet<(NodeId, u64)>,
    /// Updates accumulated since the last proposal tick.
    pending: Vec<(NodeId, u64, Vec<MapUpdate>)>,
    /// Per-map subscribers.
    subs: HashMap<String, HashSet<NodeId>>,
    /// Last time we heard from a leader (heartbeat or prepare).
    last_leader_contact: SimTime,
    /// The central cluster log: `(when, source, line)`.
    cluster_log: Vec<(SimTime, String, String)>,
    /// Last beacon received per MDS node. Only nodes that have beaconed at
    /// least once are subject to liveness reaping, so harnesses that build
    /// synthetic MDS maps without live daemons are left alone.
    mds_beacons: HashMap<NodeId, SimTime>,
    /// Per-mdsmap-key proposal debounce: when the reaper last proposed a
    /// change for this key (avoids re-proposing while a commit is in
    /// flight).
    mds_proposed: HashMap<String, SimTime>,
    /// Next self-originated seq (see [`SELF_SEQ_BASE`]).
    self_seq: u64,
    /// `mon.propose` spans for batches this monitor proposed, keyed by the
    /// batch's first txid; closed when the batch commits locally.
    propose_spans: HashMap<(NodeId, u64), SpanContext>,
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
            applied_txids: HashSet::new(),
            pending: Vec::new(),
            subs: HashMap::new(),
            last_leader_contact: SimTime::ZERO,
            cluster_log: Vec::new(),
            mds_beacons: HashMap::new(),
            mds_proposed: HashMap::new(),
            self_seq: SELF_SEQ_BASE,
            propose_spans: HashMap::new(),
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
        loop {
            let watermark = self.paxos.first_unchosen();
            if self.applied >= watermark {
                break;
            }
            let batch: Vec<TxBatch> = self
                .paxos
                .chosen_from(self.applied)
                .take_while(|(slot, _)| *slot < watermark)
                .map(|(_, c)| c.clone())
                .collect();
            let first_applied = self.applied;
            self.applied = watermark;
            for (i, tx) in batch.iter().enumerate() {
                let _slot = first_applied + i as u64;
                self.apply_batch(ctx, tx);
            }
        }
    }

    fn apply_batch(&mut self, ctx: &mut Context<'_>, tx: &TxBatch) {
        // Close the propose→commit span if this monitor proposed the batch.
        if let Some(span) = tx
            .txids
            .first()
            .and_then(|first| self.propose_spans.remove(first))
        {
            ctx.span_end(span);
        }
        // Dedup: a batch may contain transactions that were re-proposed
        // after a leader change; skip already-applied ones.
        let mut fresh_updates: Vec<&MapUpdate> = Vec::new();
        let mut fresh_txs: Vec<(NodeId, u64)> = Vec::new();
        if tx.txids.is_empty() {
            fresh_updates.extend(tx.updates.iter());
        } else {
            // Updates are grouped per txid in submission order; recover the
            // grouping from the parallel arrays.
            let per_tx = tx.updates.len() / tx.txids.len().max(1);
            for (i, txid) in tx.txids.iter().enumerate() {
                if self.applied_txids.insert(*txid) {
                    fresh_txs.push(*txid);
                    let lo = i * per_tx;
                    let hi = if i + 1 == tx.txids.len() {
                        tx.updates.len()
                    } else {
                        (i + 1) * per_tx
                    };
                    fresh_updates.extend(tx.updates[lo..hi].iter());
                }
            }
        }
        let mut touched: BTreeMap<String, Vec<MapDelta>> = BTreeMap::new();
        for up in fresh_updates {
            // Pool entries are operator-writable and parameterize
            // placement math on every daemon: validate at commit time so a
            // `pg_num=0` (or unparseable) pool can never enter the
            // authoritative map. Deterministic — every replica applies the
            // same batch and skips the same updates.
            if up.map == SERVICE_MAP_OSD
                && up.key.starts_with("pool.")
                && matches!(&up.value, Some(value) if !pool_entry_is_valid(value))
            {
                ctx.metrics()
                    .bump(counter!("mon.osdmap_rejected_updates"), 1);
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
            touched
                .entry(up.map.clone())
                .or_default()
                .push((up.key.clone(), up.value.clone()));
        }
        let mut epochs = Vec::new();
        for (map, delta) in touched {
            let Some(snap) = self.maps.get_mut(&map) else {
                continue; // unreachable: every touched map was just inserted
            };
            snap.epoch += 1;
            epochs.push((map.clone(), snap.epoch));
            if let Some(subs) = self.subs.get(&map) {
                // Notify in node order: the set hashes by a per-process
                // seed, and send order feeds the network's latency RNG,
                // so an unsorted walk makes runs non-replayable.
                let mut subs: Vec<NodeId> = subs.iter().copied().collect();
                subs.sort_unstable();
                for sub in subs {
                    ctx.send(
                        sub,
                        MonMsg::Changed {
                            map: map.clone(),
                            epoch: snap.epoch,
                            delta: delta.clone(),
                        },
                    );
                }
            }
            ctx.metrics().bump(counter!("mon.map_commits"), 1);
            let now = ctx.now();
            ctx.metrics()
                .observe(&format!("mon.commit.{map}"), now, snap.epoch as f64);
        }
        // Acknowledge clients: only the origin monitor replies, so clients
        // get exactly one ack.
        if tx.origin == self.rank {
            for (i, txid) in tx.txids.iter().enumerate() {
                if fresh_txs.contains(txid) {
                    ctx.send(
                        tx.clients[i],
                        MonMsg::SubmitAck {
                            seq: txid.1,
                            epochs: epochs.clone(),
                        },
                    );
                }
            }
        }
    }

    fn snapshot_or_empty(&self, map: &str) -> MapSnapshot {
        self.maps.get(map).cloned().unwrap_or_else(|| MapSnapshot {
            map: map.to_string(),
            epoch: 0,
            entries: BTreeMap::new(),
        })
    }

    /// Queues a self-originated transaction (MDS liveness action) for the
    /// next proposal interval. Acks come back to this monitor and are
    /// ignored.
    fn submit_self(&mut self, updates: Vec<MapUpdate>) {
        let me = self.peers[self.rank as usize];
        let seq = self.self_seq;
        self.self_seq += 1;
        self.pending.push((me, seq, updates));
    }

    /// MDS liveness reaping (leader only): ranks whose daemons have gone
    /// silent past the beacon grace are marked down with a Paxos-committed
    /// MDS-map epoch bump, and a registered standby — if one is alive — is
    /// promoted into the vacant rank.
    fn reap_mds(&mut self, ctx: &mut Context<'_>) {
        if !self.paxos.is_leader() {
            return;
        }
        let now = ctx.now();
        let grace = self.config.mds_beacon_grace;
        let fresh = |beacons: &HashMap<NodeId, SimTime>, node: NodeId| {
            beacons
                .get(&node)
                .is_some_and(|at| now.saturating_since(*at) < grace)
        };
        // Parse the committed mdsmap (same wire format as MdsMapView, which
        // lives upstack in mala-mds): `mds.<rank>` -> `node=<N>,up=<0|1>`,
        // `standby.<node>` -> registered standby daemons.
        let snap = self.snapshot_or_empty(SERVICE_MAP_MDS);
        let mut ranks: Vec<(u32, NodeId, bool)> = Vec::new();
        let mut standbys: Vec<NodeId> = Vec::new();
        for (key, value) in &snap.entries {
            if let Some(rank) = key.strip_prefix("mds.").and_then(|r| r.parse().ok()) {
                let text = String::from_utf8_lossy(value);
                let mut node = None;
                let mut up = false;
                for field in text.split(',') {
                    match field.split_once('=') {
                        Some(("node", n)) => node = n.parse().ok().map(NodeId),
                        Some(("up", u)) => up = u == "1",
                        _ => {}
                    }
                }
                if let Some(node) = node {
                    ranks.push((rank, node, up));
                }
            } else if let Some(node) = key.strip_prefix("standby.").and_then(|n| n.parse().ok()) {
                standbys.push(NodeId(node));
            }
        }
        standbys.retain(|n| fresh(&self.mds_beacons, *n));
        let mut actions: Vec<(u32, Vec<MapUpdate>, String)> = Vec::new();
        for (rank, node, up) in ranks {
            let key = format!("mds.{rank}");
            if self
                .mds_proposed
                .get(&key)
                .is_some_and(|at| now.saturating_since(*at) < grace)
            {
                continue;
            }
            let silent = self.mds_beacons.contains_key(&node) && !fresh(&self.mds_beacons, node);
            if up && !silent {
                continue;
            }
            if !up && standbys.is_empty() {
                continue;
            }
            let mut updates = Vec::new();
            let line;
            if let Some(standby) = standbys.pop() {
                updates.push(MapUpdate::set(
                    SERVICE_MAP_MDS,
                    &key,
                    format!("node={},up=1", standby.0).into_bytes(),
                ));
                updates.push(MapUpdate::del(
                    SERVICE_MAP_MDS,
                    &format!("standby.{}", standby.0),
                ));
                line = format!("mds.{rank} on {node} failed; promoting standby {standby}");
                ctx.metrics().bump(counter!("mon.mds_failovers"), 1);
            } else {
                updates.push(MapUpdate::set(
                    SERVICE_MAP_MDS,
                    &key,
                    format!("node={},up=0", node.0).into_bytes(),
                ));
                line = format!("mds.{rank} on {node} missed beacons; marked down (no standby)");
                ctx.metrics().bump(counter!("mon.mds_marked_down"), 1);
            }
            actions.push((rank, updates, line));
        }
        for (rank, updates, line) in actions {
            self.mds_proposed.insert(format!("mds.{rank}"), now);
            self.cluster_log
                .push((now, format!("mon.{}", self.rank), line));
            self.submit_self(updates);
        }
    }

    /// Standby registration: a beaconing standby not yet in the map gets a
    /// `standby.<node>` entry committed (leader only).
    fn register_standby(&mut self, ctx: &mut Context<'_>, node: NodeId) {
        if !self.paxos.is_leader() {
            return;
        }
        let now = ctx.now();
        let key = format!("standby.{}", node.0);
        if self
            .mds_proposed
            .get(&key)
            .is_some_and(|at| now.saturating_since(*at) < self.config.mds_beacon_grace)
        {
            return;
        }
        let snap = self.snapshot_or_empty(SERVICE_MAP_MDS);
        if snap.entries.contains_key(&key) {
            return;
        }
        // A node already holding a rank (e.g. just promoted, beacon not yet
        // switched over) must not be double-registered as a standby.
        let holds_rank = snap.entries.iter().any(|(k, v)| {
            k.starts_with("mds.")
                && String::from_utf8_lossy(v)
                    .split(',')
                    .any(|f| f == format!("node={}", node.0))
        });
        if holds_rank {
            return;
        }
        self.mds_proposed.insert(key.clone(), now);
        self.submit_self(vec![MapUpdate::set(SERVICE_MAP_MDS, &key, b"1".to_vec())]);
        ctx.metrics()
            .bump(counter!("mon.mds_standbys_registered"), 1);
    }
}

/// Commit-time validation for `pool.*` osdmap entries: the `k=v` value
/// must parse to a non-zero `pg_num` and `replicas`. A zero (or garbage)
/// in either would feed degenerate parameters into every daemon's
/// placement math; a daemon-side clamp exists as defense in depth, but the
/// authoritative map should never carry the entry at all.
fn pool_entry_is_valid(value: &[u8]) -> bool {
    let value = String::from_utf8_lossy(value);
    let mut pg_num: Option<u32> = None;
    let mut replicas: Option<u32> = None;
    for part in value.split(',') {
        match part.split_once('=') {
            Some(("pg_num", v)) => pg_num = v.parse().ok(),
            Some(("replicas", v)) => replicas = v.parse().ok(),
            _ => {}
        }
    }
    matches!((pg_num, replicas), (Some(p), Some(r)) if p > 0 && r > 0)
}

impl Actor for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.last_leader_contact = ctx.now();
        ctx.set_timer(self.config.proposal_interval, TIMER_PROPOSAL);
        ctx.set_timer(self.config.heartbeat_interval, TIMER_HEARTBEAT);
        // Stagger election timeouts by rank so rank 0 wins the first
        // election without duels.
        let patience = self.config.election_timeout.mul(self.rank as u64 + 1);
        if self.rank == 0 {
            let out = self.paxos.campaign();
            self.ship(ctx, out);
        }
        ctx.set_timer(patience, TIMER_ELECTION);
        ctx.set_timer(self.config.mds_beacon_grace.div(2), TIMER_MDS_LIVENESS);
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
                self.pending.push((from, seq, updates));
            }
            MonMsg::Get { map } => {
                let snap = self.snapshot_or_empty(&map);
                ctx.send(from, MonMsg::Snapshot(snap));
            }
            MonMsg::Subscribe { map } => {
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
                self.mds_beacons.insert(from, ctx.now());
                if rank.is_none() {
                    self.register_standby(ctx, from);
                }
            }
            MonMsg::SubmitAck { .. } | MonMsg::Snapshot(_) | MonMsg::Changed { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_PROPOSAL => {
                if !self.pending.is_empty() {
                    // Pad every transaction to the same number of updates so
                    // application can recover per-tx grouping (see
                    // `apply_batch`); in practice transactions are shipped
                    // whole, so we simply propose one batch per tx group
                    // with uniform sizes, falling back to per-tx batches.
                    let pending = std::mem::take(&mut self.pending);
                    let uniform = pending
                        .iter()
                        .map(|(_, _, u)| u.len())
                        .collect::<HashSet<_>>()
                        .len()
                        <= 1;
                    let groups: Vec<Vec<(NodeId, u64, Vec<MapUpdate>)>> = if uniform {
                        vec![pending]
                    } else {
                        pending.into_iter().map(|tx| vec![tx]).collect()
                    };
                    for group in groups {
                        let batch = TxBatch {
                            txids: group.iter().map(|(c, s, _)| (*c, *s)).collect(),
                            clients: group.iter().map(|(c, _, _)| *c).collect(),
                            origin: self.rank,
                            updates: group.into_iter().flat_map(|(_, _, u)| u).collect(),
                        };
                        if let Some(first) = batch.txids.first().copied() {
                            let span = ctx.span_start("mon.propose", None);
                            ctx.span_tag_display(span, "updates", batch.updates.len());
                            self.propose_spans.insert(first, span);
                        }
                        let out = self.paxos.submit(batch);
                        self.ship(ctx, out);
                    }
                    ctx.metrics().bump(counter!("mon.proposals"), 1);
                }
                ctx.set_timer(self.config.proposal_interval, TIMER_PROPOSAL);
            }
            TIMER_HEARTBEAT => {
                let out = self.paxos.heartbeat();
                self.ship(ctx, out);
                ctx.set_timer(self.config.heartbeat_interval, TIMER_HEARTBEAT);
            }
            TIMER_ELECTION => {
                let patience = self.config.election_timeout.mul(self.rank as u64 + 1);
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
            TIMER_MDS_LIVENESS => {
                self.reap_mds(ctx);
                ctx.set_timer(self.config.mds_beacon_grace.div(2), TIMER_MDS_LIVENESS);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_sim::{NetConfig, Network, Sim};

    /// A scripted client that submits updates and records replies.
    #[derive(Default)]
    struct TestClient {
        acks: Vec<(u64, Vec<(String, u64)>)>,
        snapshots: Vec<MapSnapshot>,
        changes: Vec<ChangedNotice>,
    }

    /// `(map, epoch, delta)` from a `MonMsg::Changed` notification.
    type ChangedNotice = (String, u64, Vec<(String, Option<Vec<u8>>)>);

    impl Actor for TestClient {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
            if let Ok(msg) = msg.downcast::<MonMsg>() {
                match *msg {
                    MonMsg::SubmitAck { seq, epochs } => self.acks.push((seq, epochs)),
                    MonMsg::Snapshot(s) => self.snapshots.push(s),
                    MonMsg::Changed { map, epoch, delta } => self.changes.push((map, epoch, delta)),
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
        let client = sim.actor::<TestClient>(NodeId(100));
        assert_eq!(client.changes.len(), 1);
        let (map, epoch, delta) = &client.changes[0];
        assert_eq!(map, SERVICE_MAP_INTERFACES);
        assert_eq!(*epoch, 1);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].0, "cls_zlog");
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
}
