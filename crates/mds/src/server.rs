//! The MDS daemon actor: request serving, capabilities, dynamic subtree
//! partitioning, journaling, and the balancer tick.
//!
//! # Performance model
//!
//! Each MDS is a single FIFO server: every request class has a configured
//! service cost ([`MdsCostModel`]) and requests occupy the server
//! back-to-back (`busy_until` bookkeeping), so a rank's throughput
//! saturates at `1/cost`. Two workload-dependent surcharges reproduce the
//! phenomena in the paper's §6.2:
//!
//! * When the namespace is *split* — two or more ranks serve client-facing
//!   inodes directly — every direct-serving rank pays a per-request
//!   `coherence` surcharge (the metadata scatter-gather traffic), and
//!   rank 0 additionally pays an `admin` surcharge ("the first server does
//!   a lot of the cache coherence work", §6.2.2).
//! * Proxied service splits the work: the home rank pays `handle +
//!   forward`, the authoritative rank pays only `find`. This is why Proxy
//!   Mode (Full) approaches 2× client mode in Figure 10(b).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use mala_consensus::maps::{LogEpoch, MdsMapView};
use mala_consensus::{
    follower, MapFollower, MapSnapshot, MapUpdate, MonMsg, SERVICE_MAP_MANTLE, SERVICE_MAP_MDS,
    SERVICE_MAP_ZLOG,
};
use mala_rados::client::{REQUEST_DEADLINE, RETRY_TOKEN_BASE};
use mala_rados::{ObjectId, Op, OpResult, OsdError, OsdMsg, RadosClient};
use mala_sim::history::Recorder;
use mala_sim::linearize::{RegOp, RegRet};
use mala_sim::{counter, Actor, Context, IdMap, IdSet, NodeId, SimDuration, SimTime, SpanContext};
use rand::Rng;

use crate::balancer::{BalanceView, Balancer, Export, LoadSample};
use crate::caps::{CapAction, CapState};
use crate::namespace::{JournalEntry, Namespace};
use crate::types::{CapPolicyConfig, FileType, Ino, MdsError, MdsMsg, SeqOp, ServeStyle};

mod balance;
mod cap_path;
mod failover;
mod journal;
mod migration;
mod seal;
mod type_ops;

use journal::{journal_oid_of, Flush};
use seal::{SealRecovery, SealStage};
use type_ops::Arrival;

/// Service costs of the MDS queueing model.
#[derive(Debug, Clone)]
pub struct MdsCostModel {
    /// Receiving, parsing, and answering one client request.
    pub handle: SimDuration,
    /// Executing a file-type operation (e.g. finding the log tail).
    pub find: SimDuration,
    /// Forwarding a proxied request to the authoritative rank.
    pub forward: SimDuration,
    /// Per-request scatter-gather surcharge on every direct-serving rank
    /// while the namespace is split across ranks.
    pub coherence: SimDuration,
    /// Additional per-request surcharge on rank 0 while split (it
    /// coordinates the coherence traffic).
    pub admin: SimDuration,
    /// Window over which an import's synthetic coherence load decays —
    /// what a conservative Mantle `when()` policy waits out (§6.2.3).
    pub settle: SimDuration,
}

impl Default for MdsCostModel {
    fn default() -> Self {
        MdsCostModel {
            handle: SimDuration::from_micros(60),
            find: SimDuration::from_micros(60),
            forward: SimDuration::from_micros(30),
            coherence: SimDuration::from_micros(180),
            admin: SimDuration::from_micros(100),
            settle: SimDuration::from_secs(30),
        }
    }
}

/// MDS configuration.
#[derive(Debug, Clone)]
pub struct MdsConfig {
    /// Service cost model.
    pub costs: MdsCostModel,
    /// Balancing tick (Ceph default: 10 s).
    pub balance_interval: SimDuration,
    /// Journal namespace mutations to RADOS.
    pub journal: bool,
    /// Group-commit mode: flush the journal synchronously on every
    /// mutation and withhold the client's ack until the store confirms
    /// the append. Guarantees a failover replay reproduces every *acked*
    /// mutation (at the price of one RADOS round trip per create).
    pub journal_sync: bool,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            costs: MdsCostModel::default(),
            balance_interval: SimDuration::from_secs(10),
            journal: false,
            journal_sync: false,
        }
    }
}

/// Routing state for an inode whose authority moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Authoritative rank.
    pub auth: u32,
    /// Original (home) rank — the proxy in proxy mode.
    pub home: u32,
    /// Serving style.
    pub style: ServeStyle,
}

const TIMER_BALANCE: u64 = 1;
const TIMER_CAP: u64 = 2;
const TIMER_TICK: u64 = 3;

/// Capability policy check resolution.
const CAP_TICK: SimDuration = SimDuration::from_millis(10);
/// The daemon's one tick: it beacons the monitor (liveness; standby
/// daemons also register through beacons) and repeats what it waits on.
const TICK: SimDuration = SimDuration::from_millis(250);
/// Pool holding MDS metadata objects (journal, Mantle policies).
const META_POOL: &str = "meta";

/// Rank sentinel of a standby daemon (it serves nothing until promoted).
pub const STANDBY_RANK: u32 = u32::MAX;

/// What a request to the object store is for: the waiter the embedded
/// [`RadosClient`] holds with the request and hands back with its
/// completion. A request in flight is the client's to retransmit and time
/// out; one given up on (deposed, deadline passed) is cancelled, and its
/// completion never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreWait {
    /// The append of the flush in `journal_inflight`.
    Journal,
    /// The read of this rank's journal that completes a start or takeover.
    Recover,
    /// A `seal` / `maxpos` call on one stripe of a recovering sequencer.
    Seal { ino: Ino, stripe: u32 },
    /// The read of the Mantle policy object.
    Policy,
}

/// The outcome of a store request, as the client completes it.
type StoreResult = Result<Vec<OpResult>, OsdError>;

/// Peer-to-peer MDS messages.
#[derive(Debug, Clone)]
pub enum MdsPeer {
    /// Load heartbeat, sent each balancing tick.
    LoadShare {
        /// The sender's sample.
        sample: LoadSample,
    },
    /// Subtree/inode export: authority transfer.
    Export {
        /// The inode.
        ino: Ino,
        /// Its embedded file-type state.
        embedded: u64,
        /// Capability policy travelling with the inode.
        policy: CapPolicyConfig,
        /// Serving style after import.
        style: ServeStyle,
        /// The exporting (home) rank.
        home: u32,
        /// Load the inode carries (for the importer's coherence spike).
        rate: f64,
    },
    /// Import acknowledgement. It carries the importer's route, which the
    /// exporter installs before it unfreezes: the ack can overtake the
    /// [`MdsPeer::RouteUpdate`] sent beside it.
    ExportAck {
        /// The inode.
        ino: Ino,
        /// Its route after the import.
        route: Route,
    },
    /// Routing-table update broadcast after a migration.
    RouteUpdate {
        /// The inode.
        ino: Ino,
        /// Its route after the import.
        route: Route,
    },
    /// A create replicated from the creating rank.
    NsReplicate {
        /// The new inode.
        ino: Ino,
        /// Its parent directory.
        parent: Ino,
        /// Its name in the parent.
        name: String,
        /// Its file type.
        ftype: FileType,
    },
    /// Proxied type operation (home → auth).
    ProxyOp {
        /// Client's request id.
        reqid: u64,
        /// The client to answer.
        client: NodeId,
        /// Target inode.
        ino: Ino,
        /// The operation, as the client sent it.
        op: SeqOp,
    },
}

/// The MDS daemon actor.
pub struct Mds {
    /// This daemon's rank.
    pub rank: u32,
    monitor: NodeId,
    config: MdsConfig,
    balancer: Box<dyn Balancer>,

    namespace: Namespace,
    routes: IdMap<Ino, Route>,
    /// Cached "namespace is split" verdict (≥ 2 participating ranks).
    /// The underlying scan is O(#sequencer inodes); at fleet scale
    /// (thousands of logs) recomputing it per request made typeop
    /// dispatch itself the cross-log bottleneck. Invalidated on every
    /// route or namespace-shape change.
    split_cache: Option<bool>,
    caps: IdMap<Ino, CapState>,
    frozen: IdSet<Ino>,
    /// Exports deferred until the holder releases its capability.
    pending_exports: IdMap<Ino, Export>,

    mdsmap: MapFollower<MdsMapView>,
    /// The one client this daemon reaches the object store through; each
    /// request waits with what its completion is for.
    rados: RadosClient<StoreWait>,

    // Queueing model.
    busy_until: SimTime,

    // Load accounting.
    served_this_tick: u64,
    per_inode_this_tick: IdMap<Ino, u64>,
    last_rates: IdMap<Ino, f64>,
    coherence_spike: f64,
    coherence_spike_at: SimTime,
    peer_loads: IdMap<u32, LoadSample>,
    last_tick_at: SimTime,

    // Journal.
    /// This rank's journal object, named once per rank held: every flush
    /// and the recovery read address it by refcount.
    journal_oid: ObjectId,
    journal_buf: String,
    /// The flush currently in doubt: an append the store has not yet
    /// acknowledged. Further entries accumulate in `journal_buf` behind it
    /// so appends stay ordered.
    journal_inflight: Option<Flush>,
    ready: bool,
    /// Client requests that arrived before the journal replay.
    stashed: VecDeque<(NodeId, MdsMsg)>,
    /// Group commit (journal_sync): replies withheld until the next flush,
    /// which carries the journal entries they depend on.
    unflushed_replies: Vec<(SimDuration, NodeId, MdsMsg)>,

    // Failover.
    /// True until this daemon is promoted into a rank.
    standby: bool,
    /// Sequencer inodes mid-seal after a takeover; type ops answer
    /// `Recovering` until the protocol's last round trip, which holds them
    /// until it completes.
    /// Ordered: `on_zlog_map` and the tick send per entry in iteration
    /// order, and a send order that differs between processes is a
    /// different run.
    recovering_seqs: BTreeMap<Ino, SealRecovery>,
    /// Sequencer inodes inherited from a journal replay with *no* layout
    /// on record: the in-memory tail may understate the store, and
    /// without a layout the seal/maxpos protocol cannot run. Their type
    /// ops answer `LayoutMissing` until a client re-registers the layout,
    /// which starts the seal.
    unsealed_seqs: IdSet<Ino>,
    /// Registered sequencer layouts (journaled; survive failover).
    seq_layouts: IdMap<Ino, crate::namespace::SeqLayout>,
    /// Monitor submit seq counter (zlog epoch bumps).
    mon_seq: u64,

    // Mantle policy plumbing.
    /// The Mantle policy map: its `balancer` entry names the policy object.
    mantle: MapFollower<MapSnapshot>,
    mantle_version_seen: u64,

    /// Optional linearizability history for the cap-protected embedded
    /// metadata: grants record a register read of the handed-out state,
    /// releases record the write-back (rejected for stale holders). The
    /// MDS applies both atomically, so invoke and response coincide.
    cap_history: Option<Recorder<RegOp, RegRet>>,
}

impl Mds {
    /// Creates rank `rank`, reporting to `monitor`, with the given policy.
    pub fn new(rank: u32, monitor: NodeId, config: MdsConfig, balancer: Box<dyn Balancer>) -> Mds {
        Mds {
            rank,
            monitor,
            journal_oid: journal_oid_of(rank),
            config,
            balancer,
            namespace: Namespace::new(),
            routes: IdMap::default(),
            split_cache: None,
            caps: IdMap::default(),
            frozen: IdSet::default(),
            pending_exports: IdMap::default(),
            mdsmap: MapFollower::new(SERVICE_MAP_MDS, monitor),
            rados: RadosClient::embedded(monitor),
            busy_until: SimTime::ZERO,
            served_this_tick: 0,
            per_inode_this_tick: IdMap::default(),
            last_rates: IdMap::default(),
            coherence_spike: 0.0,
            coherence_spike_at: SimTime::ZERO,
            peer_loads: IdMap::default(),
            last_tick_at: SimTime::ZERO,
            journal_buf: String::new(),
            journal_inflight: None,
            ready: false,
            stashed: VecDeque::new(),
            unflushed_replies: Vec::new(),
            standby: false,
            recovering_seqs: BTreeMap::new(),
            unsealed_seqs: IdSet::default(),
            seq_layouts: IdMap::default(),
            mon_seq: 1,
            mantle: MapFollower::new(SERVICE_MAP_MANTLE, monitor),
            mantle_version_seen: 0,
            cap_history: None,
        }
    }

    /// Attaches a linearizability recorder to the capability path: every
    /// grant logs a register read of the state handed to the holder and
    /// every release logs the write-back (failed when rejected as stale).
    pub fn set_cap_history(&mut self, recorder: Recorder<RegOp, RegRet>) {
        self.cap_history = Some(recorder);
    }

    /// Creates a standby daemon: it registers with the monitor through its
    /// beacons and serves nothing until promoted into a vacant rank.
    pub fn standby(monitor: NodeId, config: MdsConfig, balancer: Box<dyn Balancer>) -> Mds {
        let mut mds = Mds::new(STANDBY_RANK, monitor, config, balancer);
        mds.standby = true;
        mds
    }

    /// Whether this daemon is (still) an unpromoted standby.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// The namespace (tests / harness inspection).
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// How `ino` is served: its stored route, or rank 0 serving it
    /// directly when it never moved.
    fn route_of(&self, ino: Ino) -> Route {
        self.routes.get(&ino).copied().unwrap_or(Route {
            auth: 0,
            home: 0,
            style: ServeStyle::Direct,
        })
    }

    /// The nodes of the other ranks that are up, ascending by rank: where a
    /// route update, a load share and a replicated create go.
    fn peers(&self) -> Vec<NodeId> {
        let ranks = self.mdsmap.view().ranks.iter();
        let up = ranks.filter(|(rank, entry)| **rank != self.rank && entry.up);
        up.map(|(_, entry)| entry.node).collect()
    }

    /// Authoritative rank for `ino` under current routing.
    pub fn auth_of(&self, ino: Ino) -> u32 {
        self.route_of(ino).auth
    }

    /// Whether this rank is authoritative for `ino`.
    pub fn is_auth(&self, ino: Ino) -> bool {
        self.auth_of(ino) == self.rank
    }

    /// Capability holder of `ino`, if any (harness inspection).
    pub fn cap_holder(&self, ino: Ino) -> Option<NodeId> {
        self.caps.get(&ino).and_then(|c| c.holder())
    }

    /// Whether nothing of this daemon's is left with the object store: no
    /// request still the client's to retransmit, no flush in doubt, no
    /// completion uncollected.
    pub fn store_idle(&self) -> bool {
        self.journal_inflight.is_none()
            && !self.rados.holds_requests()
            && !self.rados.holds_completions()
    }

    // ---- queueing model ----

    /// Accounts `cost` of server occupancy; returns the delay from now
    /// until this request's completion.
    fn enqueue(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        self.busy_until = start + cost;
        self.busy_until.since(now)
    }

    // ---- client dispatch ----

    fn handle_client(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: MdsMsg) {
        match msg {
            MdsMsg::Resolve { reqid, path } => {
                let cost = self.config.costs.handle;
                let delay = self.enqueue(ctx.now(), cost);
                let result = self
                    .namespace
                    .resolve(&path)
                    .map(|ino| (ino, self.auth_of(ino)));
                ctx.send_after(delay, from, MdsMsg::Resolved { reqid, result });
            }
            MdsMsg::Create {
                reqid,
                parent_path,
                name,
                ftype,
            } => {
                let cost = self.config.costs.handle;
                let delay = self.enqueue(ctx.now(), cost);
                self.split_cache = None;
                let result = self.namespace.resolve(&parent_path).and_then(|parent| {
                    let ino = self.namespace.create(parent, &name, ftype.clone())?;
                    self.journal(JournalEntry::Create {
                        ino,
                        parent,
                        name: name.clone(),
                        ftype: ftype.clone(),
                    });
                    // Replicate the structure to peer ranks.
                    for node in self.peers() {
                        let (name, ftype) = (name.clone(), ftype.clone());
                        let create = MdsPeer::NsReplicate {
                            ino,
                            parent,
                            name,
                            ftype,
                        };
                        ctx.send(node, create);
                    }
                    Ok(ino)
                });
                if self.config.journal && self.config.journal_sync && result.is_ok() {
                    // Group commit: the ack leaves only once the journal
                    // append carrying this create is durable.
                    self.unflushed_replies
                        .push((delay, from, MdsMsg::Created { reqid, result }));
                    self.flush_journal(ctx);
                } else {
                    ctx.send_after(delay, from, MdsMsg::Created { reqid, result });
                }
            }
            MdsMsg::TypeOp { reqid, ino, op } => {
                self.handle_type_op(ctx, from, reqid, ino, op, Arrival::Direct);
            }
            MdsMsg::CapRequest { ino } => self.on_cap_request(ctx, from, ino),
            MdsMsg::CapRelease { ino, state } => self.on_cap_release(ctx, from, ino, state),
            MdsMsg::SetCapPolicy { ino, policy } => {
                self.cap_entry(ino).set_policy(policy);
            }
            MdsMsg::SetSeqLayout {
                ino,
                ref pool,
                ref name,
                stripe_width,
            } => {
                // A log of no stripes has nothing to seal: its seal would
                // wait for a stripe reply that never comes, holding every
                // type op on the sequencer. Refused, it is never journalled.
                if stripe_width == 0 {
                    ctx.metrics().bump(counter!("mds.bad_layouts"), 1);
                    return;
                }
                let layout = crate::namespace::SeqLayout {
                    pool: Rc::clone(pool),
                    name: Rc::clone(name),
                    stripe_width,
                };
                if self.seq_layouts.get(&ino) != Some(&layout) {
                    self.journal_now(
                        ctx,
                        JournalEntry::SeqLayout {
                            ino,
                            stripe_width: layout.stripe_width,
                            pool: Rc::clone(&layout.pool),
                            name: Rc::clone(&layout.name),
                        },
                    );
                    self.seq_layouts.insert(ino, layout.clone());
                }
                // A layout arriving for a replay-inherited sequencer is
                // the missing piece of its recovery: run the seal/maxpos
                // protocol now. Until it completes the inode stays in
                // `recovering_seqs`, so no grant is served before it and
                // there is no window for a double issue.
                if self.unsealed_seqs.remove(&ino) {
                    ctx.metrics().bump(counter!("mds.late_layout_seals"), 1);
                    self.start_seals(ctx, [(ino, layout)]);
                }
                // A client registers where it sends its grants: the home of
                // a proxied inode passes the layout on, as it does type ops.
                let route = self.route_of(ino);
                let proxied = route.style == ServeStyle::Proxy && route.home == self.rank;
                if proxied && route.auth != self.rank {
                    if let Some(node) = self.mdsmap.view().node_of(route.auth) {
                        ctx.send(node, msg);
                    }
                }
            }
            MdsMsg::AdminExport { ino, target, style } => {
                self.start_export(ctx, Export { ino, target, style });
            }
            MdsMsg::Resolved { .. }
            | MdsMsg::Created { .. }
            | MdsMsg::TypeOpReply { .. }
            | MdsMsg::Sealed { .. }
            | MdsMsg::CapGrant { .. }
            | MdsMsg::CapRecall { .. } => {}
        }
    }
}

impl Actor for Mds {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.subscribe(ctx);
        ctx.set_timer(self.config.balance_interval, TIMER_BALANCE);
        ctx.set_timer(CAP_TICK, TIMER_CAP);
        self.last_tick_at = ctx.now();
        if !self.config.journal && !self.standby {
            self.ready = true;
        }
        self.try_recover(ctx);
        self.send_beacon(ctx);
        ctx.set_timer(TICK, TIMER_TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        // Monitor map traffic.
        let msg = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                if let Some(fresh) = self.mdsmap.follow(&mon) {
                    if fresh {
                        self.check_promotion(ctx);
                    }
                    return;
                }
                if let Some(fresh) = self.mantle.follow(&mon) {
                    if fresh {
                        self.refresh_policy(ctx);
                    }
                    return;
                }
                match &*mon {
                    MonMsg::Snapshot(snap) if snap.map == SERVICE_MAP_ZLOG => {
                        self.on_zlog_map(ctx, snap);
                    }
                    MonMsg::SubmitAck { seq, .. } => {
                        // An epoch bump committed: fence the stripes.
                        let bumped = SealStage::AwaitCommit { seq: *seq };
                        let mut recs = self.recovering_seqs.iter();
                        if let Some((&ino, _)) = recs.find(|(_, rec)| rec.stage == bumped) {
                            self.seal_stripes(ctx, ino);
                        }
                    }
                    // The rest is the osdmap, which the embedded client
                    // follows; a new map can complete a request.
                    _ => {
                        self.rados.on_message(ctx, from, mon);
                        self.drain_store(ctx);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        // Peer traffic.
        let msg = match msg.downcast::<MdsPeer>() {
            Ok(peer) => {
                match *peer {
                    MdsPeer::LoadShare { sample } => {
                        self.peer_loads.insert(sample.rank, sample);
                    }
                    MdsPeer::Export {
                        ino,
                        embedded,
                        policy,
                        style,
                        home,
                        rate,
                    } => {
                        if let Some(inode) = self.namespace.get_mut(ino) {
                            inode.embedded = embedded;
                        }
                        self.caps.insert(ino, CapState::new(policy));
                        // Import churn: the paper's 60-second coherence
                        // settling window starts here.
                        self.coherence_spike = self.coherence_now(ctx.now()) + rate.max(1.0);
                        self.coherence_spike_at = ctx.now();
                        let route = Route {
                            auth: self.rank,
                            home,
                            style,
                        };
                        self.broadcast_route(ctx, ino, route);
                        ctx.metrics().bump(counter!("mds.imports"), 1);
                        ctx.send(from, MdsPeer::ExportAck { ino, route });
                    }
                    MdsPeer::ExportAck { ino, route } => {
                        self.finish_export(ctx, ino, route);
                    }
                    MdsPeer::RouteUpdate { ino, route } => self.install_route(ino, route),
                    MdsPeer::NsReplicate {
                        ino,
                        parent,
                        name,
                        ftype,
                    } => {
                        let _ = self.namespace.apply_create(ino, parent, &name, ftype);
                        self.split_cache = None;
                    }
                    MdsPeer::ProxyOp {
                        reqid,
                        client,
                        ino,
                        op,
                    } => {
                        self.handle_type_op(ctx, client, reqid, ino, op, Arrival::Proxied);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        // OSD replies: feed the embedded client, then collect completions.
        let msg = match msg.downcast::<OsdMsg>() {
            Ok(osd) => {
                self.rados.on_message(ctx, from, osd);
                self.drain_store(ctx);
                return;
            }
            Err(other) => other,
        };
        // Client traffic.
        if let Ok(msg) = msg.downcast::<MdsMsg>() {
            if self.standby {
                // Not serving any rank: answer with a typed error instead
                // of leaving the client to hang. Fire-and-forget messages
                // get no reply; clients re-drive them against the promoted
                // authority.
                let err = MdsError::MdsUnavailable { rank: self.rank };
                if let Some(reply) = self.error_reply(&msg, err) {
                    ctx.send(from, reply);
                }
                return;
            }
            if !self.ready {
                self.stashed.push_back((from, *msg));
                return;
            }
            self.handle_client(ctx, from, *msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token >= RETRY_TOKEN_BASE {
            // A retransmit timer of the embedded client; when it fires at
            // the request's deadline the request completes (`Timeout`).
            self.rados.on_timer(ctx, token);
            self.drain_store(ctx);
            return;
        }
        match token {
            TIMER_BALANCE => {
                if self.ready {
                    self.balance_tick(ctx);
                }
                ctx.set_timer(self.config.balance_interval, TIMER_BALANCE);
            }
            TIMER_CAP => self.on_cap_timer(ctx),
            TIMER_TICK => {
                self.send_beacon(ctx);
                // The one-shot Subscribes at start can die to message
                // loss; a daemon without the osdmap can never replay its
                // journal, and one without the mdsmap can never be
                // promoted. Re-assert each until its snapshot has landed
                // (subscribing twice is idempotent at the monitor).
                self.subscribe(ctx);
                // Collect a request refused at submit (`NoOsdsUp` completes
                // without a message), submit again what completed with an
                // error — the journal read, the flush in doubt — and flush
                // what was buffered since.
                self.drain_store(ctx);
                self.try_recover(ctx);
                self.flush_journal(ctx);
                self.repeat_seal_steps(ctx);
                ctx.set_timer(TICK, TIMER_TICK);
            }
            _ => {}
        }
    }
}
