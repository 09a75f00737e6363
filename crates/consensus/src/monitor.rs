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

mod apply;
mod liveness;

use liveness::{MdsLiveness, SELF_SEQ_BASE};

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
            TIMER_MDS_DEADLINE => self.on_mds_deadline(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
