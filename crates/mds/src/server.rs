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
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::rc::Rc;

use mala_consensus::maps::{LogEpoch, MdsMapView};
use mala_consensus::{
    follower, MapFollower, MapSnapshot, MapUpdate, MonMsg, SERVICE_MAP_MANTLE, SERVICE_MAP_MDS,
    SERVICE_MAP_ZLOG,
};
use mala_rados::client::RETRY_TOKEN_BASE;
use mala_rados::{ObjectId, Op, OpResult, OsdError, OsdMsg, RadosClient};
use mala_sim::history::Recorder;
use mala_sim::linearize::{RegOp, RegRet};
use mala_sim::{counter, Actor, Context, IdMap, IdSet, NodeId, SimDuration, SimTime, SpanContext};
use rand::Rng;

use crate::balancer::{BalanceView, Balancer, Export, LoadSample};
use crate::caps::{CapAction, CapState};
use crate::namespace::{JournalEntry, Namespace};
use crate::types::{CapPolicyConfig, FileType, Ino, MdsError, MdsMsg, SeqOp, ServeStyle};

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

/// How a type op reached the rank handling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// Sent by the client ([`MdsMsg::TypeOp`]).
    Direct,
    /// Forwarded by the inode's home rank ([`MdsPeer::ProxyOp`]).
    Proxied,
}

/// A type op as it reached this rank: its open `mds.typeop` span, whom to
/// answer, and how it came. A sequencer in the seal's last round trip
/// holds it whole until the seal ends.
#[derive(Debug, Clone, Copy)]
struct TypeOpRequest {
    span: SpanContext,
    client: NodeId,
    reqid: u64,
    op: SeqOp,
    arrival: Arrival,
}

const TIMER_BALANCE: u64 = 1;
const TIMER_CAP: u64 = 2;
const TIMER_JOURNAL: u64 = 3;
const TIMER_MANTLE_TIMEOUT: u64 = 4;
const TIMER_BEACON: u64 = 5;
const TIMER_SEAL: u64 = 6;

/// How often a seal repeats the request of the step it is in.
const SEAL_TICK: SimDuration = SimDuration::from_millis(500);

/// Capability policy check resolution.
const CAP_TICK: SimDuration = SimDuration::from_millis(10);
/// How often a daemon beacons the monitor (liveness; standby daemons also
/// register through beacons).
const BEACON_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Pool holding MDS metadata objects (journal, Mantle policies).
const META_POOL: &str = "meta";

/// Rank sentinel of a standby daemon (it serves nothing until promoted).
pub const STANDBY_RANK: u32 = u32::MAX;

/// Progress of the seal/maxpos protocol an MDS runs for one sequencer
/// inode before it may issue positions again: after a takeover, once a
/// late layout arrives, or when a client asks for it ([`SeqOp::Seal`]).
#[derive(Debug, Clone)]
struct SealRecovery {
    layout: crate::namespace::SeqLayout,
    stage: SealStage,
    /// Per-stripe maxpos, `None` until that stripe answered.
    maxpos: Vec<Option<i64>>,
    /// The epoch this recovery is installing.
    new_epoch: u64,
    /// The `SeqOp::Seal` requests `(client, reqid)` answered with
    /// `MdsMsg::Sealed` when this recovery completes: one per client, its
    /// latest, since a client re-sends under a fresh reqid and drops the
    /// answer to an older one.
    waiters: Vec<(NodeId, u64)>,
    /// Type ops that arrived while every unanswered stripe had its call
    /// out: served when the seal completes, answered `Recovering` if a
    /// call fails first.
    held: Vec<TypeOpRequest>,
}

/// The step a seal is in, each one request that `TIMER_SEAL` repeats
/// until it is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SealStage {
    /// Reading the current epoch from the monitor's zlog map.
    GetEpoch,
    /// The epoch bump, submitted under `seq`, waits for its `SubmitAck`.
    AwaitCommit { seq: u64 },
    /// Seal calls in flight against the stripe objects.
    Sealing,
}

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

/// One journal append, from buffer to durable-ack. While its request is in
/// flight the client retransmits it (same reqid — the OSD reply cache
/// dedups); one that completed with an error goes out again under a new
/// reqid, so what waits on the flush rides with it, not in reqid-keyed maps.
struct Flush {
    data: Vec<u8>,
    /// The `mds.journal` span: the commit latency the gated replies wait.
    span: SpanContext,
    /// Group commit: acks released when the store confirms the append.
    replies: Vec<(SimDuration, NodeId, MdsMsg)>,
}

/// The outcome of a store request, as the client completes it.
type StoreResult = Result<Vec<OpResult>, OsdError>;

/// The journal object of `rank` in the metadata pool.
fn journal_oid_of(rank: u32) -> ObjectId {
    ObjectId::new(META_POOL, format!("mds_journal.{rank}"))
}

/// A read of a whole object (the journal, a policy).
fn read_whole() -> Vec<Op> {
    vec![Op::Read {
        offset: 0,
        len: usize::MAX / 2,
    }]
}

/// `bytes` as a decimal: ASCII digits after an optional `-`, and nothing
/// else — no blank, no `+`.
fn strict_decimal(bytes: &[u8]) -> Option<i64> {
    let digits = bytes.strip_prefix(b"-").unwrap_or(bytes);
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

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
    /// A namespace mutation replicated from the creating rank.
    NsReplicate {
        /// The journal record.
        entry: String,
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
    /// Ordered: `on_zlog_map` and `TIMER_SEAL` send per entry in iteration
    /// order, and a send order that differs between processes is a
    /// different run.
    recovering_seqs: BTreeMap<Ino, SealRecovery>,
    /// Whether a `TIMER_SEAL` is pending: one tick repeats the step of
    /// every open seal, however many were opened since it was armed.
    seal_tick_armed: bool,
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
    /// When the policy read in flight (`StoreWait::Policy`) is given up on.
    mantle_fetch_deadline: Option<SimTime>,

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
            seal_tick_armed: false,
            unsealed_seqs: IdSet::default(),
            seq_layouts: IdMap::default(),
            mon_seq: 1,
            mantle: MapFollower::new(SERVICE_MAP_MANTLE, monitor),
            mantle_version_seen: 0,
            mantle_fetch_deadline: None,
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

    /// The balancer (harness inspection).
    pub fn balancer(&self) -> &dyn Balancer {
        self.balancer.as_ref()
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

    /// Ranks participating in metadata service for client-facing inodes:
    /// the authoritative rank of every sequencer, plus the home rank of
    /// every proxied one. When two or more ranks participate, the
    /// namespace is *split* and the scatter-gather coherence protocol
    /// runs between them.
    fn participating_ranks(&self) -> HashSet<u32> {
        let mut ranks = HashSet::new();
        for ino in self.namespace.inodes_of_type(&FileType::Sequencer) {
            let route = self.route_of(ino);
            ranks.insert(route.auth);
            if route.style == ServeStyle::Proxy {
                ranks.insert(route.home);
            }
        }
        ranks
    }

    /// Per-request surcharge on *direct* service while the namespace is
    /// split. Proxied finds are exempt: shielding the slave from the
    /// client-facing coherence work is exactly the benefit the paper
    /// ascribes to proxy mode.
    fn split_surcharge(&mut self) -> SimDuration {
        let split = match self.split_cache {
            Some(split) => split,
            None => {
                let split = self.participating_ranks().len() >= 2;
                self.split_cache = Some(split);
                split
            }
        };
        if !split {
            return SimDuration::ZERO;
        }
        let mut extra = self.config.costs.coherence;
        if self.rank == 0 {
            extra = extra + self.config.costs.admin;
        }
        extra
    }

    fn account_request(&mut self, ino: Ino) {
        self.served_this_tick += 1;
        *self.per_inode_this_tick.entry(ino).or_insert(0) += 1;
    }

    // ---- type operations ----

    fn exec_type_op(
        &mut self,
        ctx: &mut Context<'_>,
        ino: Ino,
        op: SeqOp,
    ) -> Result<u64, MdsError> {
        // A sequencer inherited from a journal replay without a layout
        // cannot prove its in-memory tail covers the store: minting or
        // reading positions before the seal/maxpos protocol runs could
        // double-issue a position or report a regressed tail, and the seal
        // itself waits for the layout.
        if self.unsealed_seqs.contains(&ino) {
            ctx.metrics().bump(counter!("mds.unsealed_seq_rejects"), 1);
            return Err(MdsError::LayoutMissing);
        }
        let inode = self.namespace.get_mut(ino).ok_or(MdsError::NotFound)?;
        // Every verb is a sequencer's: on any other file type it is the
        // wrong operation, whichever it is.
        if inode.ftype != FileType::Sequencer {
            return Err(MdsError::BadType);
        }
        match op {
            SeqOp::Next => {
                let v = inode.embedded;
                inode.embedded += 1;
                Ok(v)
            }
            // Bulk grant (`GetPosBatch { n }`): reserve a contiguous range
            // in one round trip. The reply carries the first position; the
            // caller owns `[first, first + n)`. Granted ranges a client
            // abandons become holes it must junk-fill — the tail never
            // moves backwards to reclaim them.
            SeqOp::NextBatch(0) => Err(MdsError::BadType),
            SeqOp::NextBatch(n) => {
                let v = inode.embedded;
                inode.embedded = inode.embedded.saturating_add(n);
                Ok(v)
            }
            SeqOp::Read => Ok(inode.embedded),
            // ZLog recovery runs against the registered layout; the caller
            // answers once the seal completes.
            SeqOp::Seal if self.seq_layouts.contains_key(&ino) => Ok(inode.embedded),
            SeqOp::Seal => Err(MdsError::LayoutMissing),
        }
    }

    /// Handles a sequencer verb for `client`, however it arrived. The gate
    /// is the same either way: a frozen inode answers `Frozen`, a
    /// sequencer mid-seal `Recovering` (a seal request joins the seal)
    /// unless the seal is in its last round trip, which holds the op
    /// until it ends, and only the authority serves.
    /// The arrival sets the queue cost, whether `mds.typeops` counts the
    /// op, and what a rank that is not the authority answers: the home of
    /// a proxied inode forwards a direct op and any other rank redirects
    /// it, while a forwarded op gets `Frozen` — its home sent it on a
    /// route this rank has given up, and the client's retry through the
    /// home finds the new one.
    fn handle_type_op(
        &mut self,
        ctx: &mut Context<'_>,
        client: NodeId,
        reqid: u64,
        ino: Ino,
        op: SeqOp,
        arrival: Arrival,
    ) {
        let span = ctx.span_start("mds.typeop", ctx.incoming_span());
        ctx.span_tag_display(span, "op", op);
        let request = TypeOpRequest {
            span,
            client,
            reqid,
            op,
            arrival,
        };
        self.serve_type_op(ctx, ino, request);
    }

    /// [`Mds::handle_type_op`] past the span: also where a held op goes
    /// again once its seal completes.
    fn serve_type_op(&mut self, ctx: &mut Context<'_>, ino: Ino, request: TypeOpRequest) {
        let TypeOpRequest {
            span,
            client,
            reqid,
            op,
            arrival,
        } = request;
        if self.frozen.contains(&ino) {
            self.refuse_type_op(ctx, span, client, reqid, "frozen", MdsError::Frozen);
            return;
        }
        if op != SeqOp::Seal && self.recovering_seqs.contains_key(&ino) {
            // The seal protocol hasn't finished: issuing a position now
            // could duplicate one the store already holds. In its last
            // round trip the op waits for it; before, or while a failed
            // stripe call waits to be made again, it answers at once.
            let last_step = self.seal_calls_out(ino);
            match self.recovering_seqs.get_mut(&ino) {
                Some(rec) if last_step => {
                    ctx.span_tag(span, "held", "seal");
                    rec.held.push(request);
                    ctx.metrics().bump(counter!("mds.seal_held"), 1);
                }
                _ => {
                    let err = MdsError::Recovering;
                    self.refuse_type_op(ctx, span, client, reqid, "recovering", err);
                }
            }
            return;
        }
        let route = self.route_of(ino);
        let costs = self.config.costs.clone();
        if route.auth == self.rank {
            // Serve. A proxied op pays only the find: the home did the rest.
            let cost = match arrival {
                Arrival::Direct => costs.handle + costs.find + self.split_surcharge(),
                Arrival::Proxied => costs.find,
            };
            let delay = self.enqueue(ctx.now(), cost);
            self.account_request(ino);
            let result = self.exec_type_op(ctx, ino, op);
            if arrival == Arrival::Direct {
                ctx.metrics().bump(counter!("mds.typeops"), 1);
            }
            if result.is_err() {
                ctx.span_tag(span, "error", "typeop failed");
            }
            // The reply leaves once the queueing delay elapses; that is
            // when this rank's work on the request ends. A seal's reply
            // waits for the seal.
            let done = ctx.now() + delay;
            ctx.span_end_at(span, done);
            if op == SeqOp::Seal && result.is_ok() {
                self.await_seal(ctx, ino, client, reqid);
            } else {
                ctx.send_after(delay, client, self.type_op_reply(reqid, result));
            }
        } else if arrival == Arrival::Proxied {
            // Forwarded on a route this rank gave up: never redirected, so
            // the client stays with its home and retries there.
            self.refuse_type_op(ctx, span, client, reqid, "stale proxy", MdsError::Frozen);
        } else if route.home == self.rank && route.style == ServeStyle::Proxy {
            // Proxy: the forward happens in the dispatch layer, off the
            // serialized request path — it adds latency but does not
            // occupy the server (which is what lets a proxy shovel far
            // more requests than it could fully process).
            self.account_request(ino);
            ctx.metrics().bump(counter!("mds.proxied"), 1);
            if let Some(node) = self.mdsmap.view().node_of(route.auth) {
                ctx.span_tag(span, "proxied", "true");
                let done = ctx.now() + costs.forward;
                ctx.span_end_at(span, done);
                ctx.send_after_spanned(
                    costs.forward,
                    node,
                    MdsPeer::ProxyOp {
                        reqid,
                        client,
                        ino,
                        op,
                    },
                    Some(span),
                );
            } else {
                // The authoritative rank has no live node (failover in
                // progress): a NotAuth redirect would just bounce the
                // client back here. Tell it to wait for the map.
                let err = MdsError::MdsUnavailable { rank: route.auth };
                self.refuse_type_op(ctx, span, client, reqid, "mds unavailable", err);
            }
        } else {
            // Client mode: redirect.
            let err = MdsError::NotAuth { rank: route.auth };
            self.refuse_type_op(ctx, span, client, reqid, "not auth", err);
        }
    }

    /// Refuses a type op: the span is tagged with the reason and ended,
    /// the client gets the typed error.
    fn refuse_type_op(
        &self,
        ctx: &mut Context<'_>,
        span: SpanContext,
        client: NodeId,
        reqid: u64,
        reason: &str,
        err: MdsError,
    ) {
        ctx.span_tag(span, "error", reason);
        ctx.span_end(span);
        ctx.send(client, self.type_op_reply(reqid, Err(err)));
    }

    /// This rank's answer to type op `reqid`.
    fn type_op_reply(&self, reqid: u64, result: Result<u64, MdsError>) -> MdsMsg {
        MdsMsg::TypeOpReply {
            reqid,
            result,
            served_by: self.rank,
        }
    }

    // ---- capabilities ----

    fn run_cap_actions(&mut self, ctx: &mut Context<'_>, ino: Ino, actions: Vec<CapAction>) {
        let Some(cap) = self.caps.get(&ino) else {
            return;
        };
        let policy = cap.policy();
        let state = self.namespace.get(ino).map(|i| i.embedded).unwrap_or(0);
        let cost = self.config.costs.handle;
        for action in actions {
            let delay = self.enqueue(ctx.now(), cost);
            match action {
                CapAction::Grant { to } => {
                    ctx.metrics().bump(counter!("mds.cap_grants"), 1);
                    let span = ctx.span_start("mds.cap_grant", ctx.incoming_span());
                    if let Some(rec) = &self.cap_history {
                        let id = rec.invoke(u64::from(to.0), ctx.now(), RegOp::Read { key: ino });
                        rec.ok(id, ctx.now(), RegRet::Value(state));
                    }
                    // Journal the grant so a promoted standby knows who to
                    // recall during its reconnect window.
                    self.journal_now(ctx, JournalEntry::CapGrant { ino, holder: to });
                    let done = ctx.now() + delay;
                    ctx.span_end_at(span, done);
                    ctx.send_after_spanned(
                        delay,
                        to,
                        MdsMsg::CapGrant {
                            ino,
                            state,
                            quota: policy.quota,
                            max_hold: policy.max_hold,
                        },
                        Some(span),
                    );
                }
                CapAction::Recall { from } => {
                    ctx.metrics().bump(counter!("mds.cap_recalls"), 1);
                    ctx.send_after(delay, from, MdsMsg::CapRecall { ino });
                }
            }
        }
    }

    fn cap_entry(&mut self, ino: Ino) -> &mut CapState {
        self.caps
            .entry(ino)
            .or_insert_with(|| CapState::new(CapPolicyConfig::best_effort()))
    }

    // ---- migration ----

    fn start_export(&mut self, ctx: &mut Context<'_>, export: Export) {
        let ino = export.ino;
        // Mid-seal the tail that would travel with the inode is not yet
        // known, and the seal's waiters are answered here.
        let sealing = self.recovering_seqs.contains_key(&ino);
        if !self.is_auth(ino) || self.frozen.contains(&ino) || sealing {
            return;
        }
        // A held capability must come home before the inode can move.
        if let Some(cap) = self.caps.get_mut(&ino) {
            if let Some(holder) = cap.holder() {
                self.pending_exports.insert(ino, export);
                ctx.send(holder, MdsMsg::CapRecall { ino });
                return;
            }
        }
        let Some(target_node) = self.mdsmap.view().node_of(export.target) else {
            return;
        };
        let Some(inode) = self.namespace.get(ino) else {
            return;
        };
        let rate = self.last_rates.get(&ino).copied().unwrap_or(0.0);
        let policy = self
            .caps
            .get(&ino)
            .map(|c| c.policy())
            .unwrap_or_else(CapPolicyConfig::best_effort);
        self.frozen.insert(ino);
        ctx.metrics().bump(counter!("mds.exports"), 1);
        let now = ctx.now();
        ctx.metrics().observe("mds.export_events", now, ino as f64);
        ctx.send(
            target_node,
            MdsPeer::Export {
                ino,
                embedded: inode.embedded,
                policy,
                style: export.style,
                home: self.route_of(ino).home,
                rate,
            },
        );
    }

    /// The importer acknowledged: its route goes in as the inode thaws, so
    /// no op finds the inode unfrozen on a route that still names this
    /// rank, whichever of the ack and the route update lands first.
    fn finish_export(&mut self, ctx: &mut Context<'_>, ino: Ino, route: Route) {
        self.install_route(ino, route);
        self.caps.remove(&ino);
        // Shedding an inode leaves residual coherence churn on the
        // exporter too, though smaller than the importer's.
        self.coherence_spike += self.last_rates.get(&ino).copied().unwrap_or(0.0) / 2.0;
        self.coherence_spike_at = ctx.now();
    }

    /// Routes `ino` by `route` and thaws it: a route is sent once an
    /// import is done, so any export of the inode from here is over.
    fn install_route(&mut self, ino: Ino, route: Route) {
        self.routes.insert(ino, route);
        self.split_cache = None;
        self.frozen.remove(&ino);
    }

    fn broadcast_route(&mut self, ctx: &mut Context<'_>, ino: Ino, route: Route) {
        self.install_route(ino, route);
        for (rank, entry) in self.mdsmap.view().ranks.clone() {
            if rank != self.rank && entry.up {
                ctx.send(entry.node, MdsPeer::RouteUpdate { ino, route });
            }
        }
    }

    // ---- balancing ----

    fn coherence_now(&self, now: SimTime) -> f64 {
        let settle = self.config.costs.settle.as_secs_f64();
        if settle <= 0.0 {
            return 0.0;
        }
        let age = now.saturating_since(self.coherence_spike_at).as_secs_f64();
        (self.coherence_spike * (1.0 - age / settle)).max(0.0)
    }

    fn my_sample(&self, ctx: &mut Context<'_>, interval_s: f64) -> LoadSample {
        let req_rate = self.served_this_tick as f64 / interval_s.max(1e-9);
        // CPU proxy: proportional to request rate with multiplicative noise
        // (the "dynamic and unpredictable" metric of §6.2.1).
        let noise: f64 = ctx.rng().gen_range(0.6..1.4);
        LoadSample {
            rank: self.rank,
            req_rate,
            cpu: (req_rate / 100.0).min(100.0) * noise,
            coherence: self.coherence_now(ctx.now()),
        }
    }

    fn balance_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let interval_s = now.saturating_since(self.last_tick_at).as_secs_f64();
        self.last_tick_at = now;
        let sample = self.my_sample(ctx, interval_s);
        // Refresh per-inode rates.
        self.last_rates = self
            .per_inode_this_tick
            .drain()
            .map(|(ino, n)| (ino, n as f64 / interval_s.max(1e-9)))
            .collect();
        self.served_this_tick = 0;
        let me = self.rank;
        ctx.metrics()
            .observe(&format!("mds.load.{me}"), now, sample.total());
        // Heartbeat to peers.
        for (rank, entry) in self.mdsmap.view().ranks.clone() {
            if rank != self.rank && entry.up {
                ctx.send(
                    entry.node,
                    MdsPeer::LoadShare {
                        sample: sample.clone(),
                    },
                );
            }
        }
        self.peer_loads.insert(self.rank, sample.clone());
        // Build the policy view.
        let mut loads: Vec<LoadSample> = self
            .mdsmap
            .view()
            .up_ranks()
            .iter()
            .filter_map(|r| self.peer_loads.get(r).cloned())
            .collect();
        loads.sort_by_key(|l| l.rank);
        let mut my_inodes: Vec<(Ino, f64, FileType)> = self
            .last_rates
            .iter()
            .filter(|(ino, _)| self.is_auth(**ino))
            .filter_map(|(ino, rate)| {
                self.namespace
                    .get(*ino)
                    .map(|inode| (*ino, *rate, inode.ftype.clone()))
            })
            .collect();
        // Rates come from wall-clock division and peer samples; a NaN or
        // infinite rate must not take down the balancer tick.
        my_inodes.retain(|(_, rate, _)| rate.is_finite());
        // Hottest first; `last_rates` iterates in hash order, so equal
        // rates are ordered by inode or the exports below would leave in it.
        my_inodes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let view = BalanceView {
            whoami: self.rank,
            now,
            loads,
            my_inodes,
        };
        let exports = self.balancer.decide(&view);
        for line in self.balancer.take_log() {
            self.cluster_log(ctx, line);
        }
        for export in exports {
            if export.target != self.rank && self.mdsmap.view().node_of(export.target).is_some() {
                self.start_export(ctx, export);
            }
        }
        // Mantle policy refresh: the held policy map is read again each
        // tick, so a read that failed or timed out goes again (§5.1.2).
        self.refresh_policy(ctx);
    }

    // ---- Mantle policy plumbing ----

    /// Reads the policy the held Mantle map points at, if its version is
    /// one this daemon has not read yet.
    fn refresh_policy(&mut self, ctx: &mut Context<'_>) {
        let snap = self.mantle.view();
        if !self.balancer.wants_policy() || snap.epoch <= self.mantle_version_seen {
            return;
        }
        let Some(object_name) = snap.entries.get("balancer") else {
            return;
        };
        let version = snap.epoch;
        let object_name = String::from_utf8_lossy(object_name).into_owned();
        // Dereference the version pointer: read the policy object from
        // RADOS, with a timeout of half the balancing tick (§5.1.2). A
        // read still out for an older version is given up on.
        self.forget_policy_fetch(ctx);
        let oid = ObjectId::new(META_POOL, object_name);
        self.rados
            .submit_spanned(ctx, oid, read_whole(), None, StoreWait::Policy);
        self.mantle_version_seen = version;
        let timeout = self.config.balance_interval.div(2);
        self.mantle_fetch_deadline = Some(ctx.now() + timeout);
        ctx.set_timer(timeout, TIMER_MANTLE_TIMEOUT);
    }

    /// Gives up the policy read in flight, if there is one — it failed, ran
    /// out of time (§5.1.2), was superseded or the daemon was deposed: its
    /// route goes and its request is cancelled, and its version is read
    /// again on a later tick.
    fn forget_policy_fetch(&mut self, ctx: &mut Context<'_>) {
        if self.mantle_fetch_deadline.take().is_some() {
            self.rados.cancel_where(ctx, |w| *w == StoreWait::Policy);
            self.mantle_version_seen = self.mantle_version_seen.saturating_sub(1);
        }
    }

    /// The policy read completed: install what it returned, or give the
    /// fetch up.
    fn on_policy_read(&mut self, ctx: &mut Context<'_>, result: StoreResult) {
        let data = match result.map(|results| results.into_iter().next()) {
            Ok(Some(OpResult::Data(data))) => data,
            other => {
                ctx.metrics().bump(counter!("mds.mantle_fetch_errors"), 1);
                self.forget_policy_fetch(ctx);
                let line = format!("mantle: reading balancer policy failed: {other:?}");
                self.cluster_log(ctx, line);
                return;
            }
        };
        self.mantle_fetch_deadline = None;
        let (source, version) = (String::from_utf8_lossy(&data), self.mantle_version_seen);
        match self.balancer.install_policy(&source, version) {
            Ok(()) => {
                self.cluster_log(ctx, format!("mantle: installed balancer v{version}"));
                ctx.metrics().bump(counter!("mds.mantle_installs"), 1);
            }
            Err(e) => {
                self.cluster_log(ctx, format!("mantle: balancer v{version} rejected: {e}"));
                ctx.metrics().bump(counter!("mds.mantle_install_errors"), 1);
            }
        }
    }

    // ---- journal ----

    fn journal(&mut self, entry: JournalEntry) {
        if self.config.journal {
            self.journal_buf.push_str(&entry.encode());
        }
    }

    /// Journals `entry` and, in `journal_sync` mode, flushes immediately so
    /// the record is durable before any dependent ack goes out.
    fn journal_now(&mut self, ctx: &mut Context<'_>, entry: JournalEntry) {
        self.journal(entry);
        if self.config.journal_sync {
            self.flush_journal(ctx);
        }
    }

    fn flush_journal(&mut self, ctx: &mut Context<'_>) {
        // One append at a time: a second one racing the first could land
        // out of order. While it is in flight the client retransmits it;
        // fresh entries wait in `journal_buf`.
        if self.standby || self.rados.has_waiter(&StoreWait::Journal) {
            return;
        }
        if self.journal_inflight.is_none() {
            if self.journal_buf.is_empty() {
                return;
            }
            ctx.metrics().bump(counter!("mds.journal_flushes"), 1);
            self.journal_inflight = Some(Flush {
                data: std::mem::take(&mut self.journal_buf).into_bytes(),
                span: ctx.span_start("mds.journal", ctx.incoming_span()),
                replies: std::mem::take(&mut self.unflushed_replies),
            });
        }
        // A flush whose request completed with an error goes out again
        // before anything newer. If the earlier attempt did land (`Timeout`
        // cannot tell) the block is journaled twice back to back, which
        // replays to the same state.
        if let Some(flush) = &self.journal_inflight {
            let (data, span) = (flush.data.clone(), Some(flush.span));
            let (oid, txn) = (self.journal_oid.clone(), vec![Op::Append { data }]);
            self.rados
                .submit_spanned(ctx, oid, txn, span, StoreWait::Journal);
        }
    }

    /// Reads this rank's journal; the completion ([`Mds::on_journal_read`])
    /// makes the daemon ready. Until then every client op sits stashed.
    fn try_recover(&mut self, ctx: &mut Context<'_>) {
        let wanted = self.config.journal && !self.standby && !self.ready;
        if wanted && !self.rados.has_waiter(&StoreWait::Recover) {
            let oid = self.journal_oid.clone();
            self.rados
                .submit_spanned(ctx, oid, read_whole(), None, StoreWait::Recover);
        }
    }

    /// Collects the embedded client's completions, in request order, and
    /// hands each to what waits on it.
    fn drain_store(&mut self, ctx: &mut Context<'_>) {
        let drain = self.rados.drain_completed();
        while let Some(event) = drain.next(&mut self.rados) {
            match event.waiter {
                StoreWait::Journal => self.on_journal_flushed(ctx, event.result),
                StoreWait::Recover => self.on_journal_read(ctx, event.result),
                StoreWait::Seal { ino, stripe } => {
                    self.on_seal_reply(ctx, ino, stripe, event.result)
                }
                StoreWait::Policy => self.on_policy_read(ctx, event.result),
            }
        }
    }

    fn on_journal_flushed(&mut self, ctx: &mut Context<'_>, result: StoreResult) {
        if result.is_err() {
            // No OSD placed, or the client's deadline passed. The flush
            // stays in doubt and its acks withheld — a replay never shows
            // an acked mutation the store lost; `TIMER_JOURNAL` submits
            // the same bytes again.
            ctx.metrics().bump(counter!("mds.journal_flush_errors"), 1);
            return;
        }
        let Some(flush) = self.journal_inflight.take() else {
            return;
        };
        ctx.span_end(flush.span);
        ctx.metrics().bump(counter!("mds.journal_commits"), 1);
        for (delay, to, msg) in flush.replies {
            ctx.send_after(delay, to, msg);
        }
        // Entries that accumulated behind the in-doubt flush go out now.
        self.flush_journal(ctx);
    }

    /// The journal read of a start or takeover completed: replay it and
    /// start serving.
    fn on_journal_read(&mut self, ctx: &mut Context<'_>, result: StoreResult) {
        let data = match result.map(|results| results.into_iter().next()) {
            Ok(Some(OpResult::Data(data))) => data,
            // The one error that is an answer: nothing journaled yet.
            Err(OsdError::NoEnt) => Vec::new(),
            // Anything else says nothing about the journal: the daemon
            // stays un-ready and `TIMER_JOURNAL` submits the read again.
            Ok(_) | Err(_) => {
                ctx.metrics().bump(counter!("mds.journal_read_errors"), 1);
                return;
            }
        };
        let replay = match crate::namespace::replay_journal_checked(&data) {
            Ok(replay) => replay,
            Err(err) => {
                // A corrupt journal must degrade the rank into recovery,
                // never abort the daemon: keep the clean prefix, surface
                // the rest.
                ctx.metrics()
                    .bump(counter!("mds.journal_corrupt_replays"), 1);
                self.cluster_log(ctx, format!("journal corrupt: {err}"));
                err.recovered
            }
        };
        self.namespace = replay.namespace;
        self.split_cache = None;
        self.seq_layouts.extend(replay.layouts);
        // Sequencers the journal knows about but has no layout for cannot
        // be sealed here: their tails stay suspect until a client
        // re-registers the layout (their ops answer `LayoutMissing`).
        for ino in self.namespace.inodes_of_type(&FileType::Sequencer) {
            if !self.seq_layouts.contains_key(&ino) {
                self.unsealed_seqs.insert(ino);
                ctx.metrics().bump(counter!("mds.unsealed_seq_replays"), 1);
            }
        }
        // Reconnect window: recall every journaled holder. A live one
        // reasserts its cap (and flushes state); a dead or partitioned one
        // stays silent and the cap timeout evicts it.
        let now = ctx.now();
        // Recalls are sent per holder: inode order, not the map's.
        let mut holders: Vec<(Ino, NodeId)> = replay.cap_holders.into_iter().collect();
        holders.sort_unstable();
        for (ino, holder) in holders {
            self.caps.insert(
                ino,
                CapState::reconnect(CapPolicyConfig::best_effort(), holder, now),
            );
            ctx.send(holder, MdsMsg::CapRecall { ino });
            ctx.metrics().bump(counter!("mds.reconnect_recalls"), 1);
        }
        ctx.metrics().bump(counter!("mds.journal_replays"), 1);
        if !self.seq_layouts.is_empty() {
            self.start_seals(ctx, self.seq_layouts.clone());
        }
        self.become_ready(ctx);
    }

    /// Starts serving: the requests stashed so far are handled once each,
    /// in arrival order. One that stashes itself again (a cap request on
    /// a sequencer mid-seal) waits for the next drain, not this one.
    fn become_ready(&mut self, ctx: &mut Context<'_>) {
        self.ready = true;
        for (from, msg) in std::mem::take(&mut self.stashed) {
            self.handle_client(ctx, from, msg);
        }
    }

    // ---- failover ----

    /// Reports `line` to the monitor's central cluster log as `mds.<rank>`.
    fn cluster_log(&self, ctx: &mut Context<'_>, line: String) {
        ctx.send(
            self.monitor,
            MonMsg::ClusterLog {
                source: format!("mds.{}", self.rank),
                line,
            },
        );
    }

    /// Subscribes to each map this daemon follows whose snapshot has not
    /// landed, in the order it always has: the mdsmap, the osdmap — through
    /// the embedded client, whose `on_start` is its subscribe — and the
    /// Mantle policy map.
    fn subscribe(&mut self, ctx: &mut Context<'_>) {
        if !self.mdsmap.landed() {
            self.mdsmap.subscribe(ctx);
        }
        if !self.rados.map_landed() {
            self.rados.on_start(ctx);
        }
        if !self.mantle.landed() {
            self.mantle.subscribe(ctx);
        }
    }

    /// Liveness beacon. Active daemons report their rank; standbys send
    /// `None`, which doubles as standby registration at the monitor.
    fn send_beacon(&mut self, ctx: &mut Context<'_>) {
        let rank = if self.standby { None } else { Some(self.rank) };
        ctx.send(self.monitor, MonMsg::MdsBeacon { rank });
    }

    /// Reacts to an mdsmap change: a standby that now holds a rank takes
    /// over; an active daemon whose rank moved to another node deposes
    /// itself (the monitor declared it dead — it must not keep serving).
    fn check_promotion(&mut self, ctx: &mut Context<'_>) {
        if self.standby {
            if let Some(rank) = self.mdsmap.view().rank_of(ctx.me()) {
                self.takeover(ctx, rank);
            }
        } else if let Some(entry) = self.mdsmap.view().ranks.get(&self.rank) {
            if entry.up && entry.node != ctx.me() {
                self.depose(ctx);
            }
        }
    }

    fn takeover(&mut self, ctx: &mut Context<'_>, rank: u32) {
        self.standby = false;
        self.rank = rank;
        self.journal_oid = journal_oid_of(rank);
        self.ready = false;
        self.namespace = Namespace::new();
        ctx.metrics().bump(counter!("mds.takeovers"), 1);
        let me = ctx.me().0;
        self.cluster_log(ctx, format!("standby {me} taking over rank {rank}"));
        if self.config.journal {
            // Replay the rank's journal: the read completes the takeover.
            self.try_recover(ctx);
        } else {
            self.become_ready(ctx);
        }
    }

    /// Steps down: the monitor re-assigned this rank elsewhere. Dropping
    /// caps and buffered journal entries is safe — the new authority
    /// replays the durable journal and re-establishes caps through the
    /// reconnect window. Store requests still in flight lose their routes
    /// and are cancelled: a deposed daemon retransmits nothing.
    fn depose(&mut self, ctx: &mut Context<'_>) {
        self.standby = true;
        self.ready = false;
        self.caps.clear();
        self.journal_buf.clear();
        if let Some(flush) = self.journal_inflight.take() {
            ctx.span_tag(flush.span, "error", "deposed");
            ctx.span_end(flush.span);
        }
        self.unflushed_replies.clear();
        for held in self.recovering_seqs.values().flat_map(|rec| &rec.held) {
            ctx.span_tag(held.span, "error", "deposed");
            ctx.span_end(held.span);
        }
        self.recovering_seqs.clear();
        self.unsealed_seqs.clear();
        self.forget_policy_fetch(ctx);
        self.rados.cancel_where(ctx, |_| true);
        self.stashed.clear();
        ctx.metrics().bump(counter!("mds.deposed"), 1);
    }

    /// The reply carrying `err` to `request`, or `None` for a
    /// fire-and-forget message.
    fn error_reply(&self, request: &MdsMsg, err: MdsError) -> Option<MdsMsg> {
        let reply = match *request {
            MdsMsg::Resolve { reqid, .. } => MdsMsg::Resolved {
                reqid,
                result: Err(err),
            },
            MdsMsg::Create { reqid, .. } => MdsMsg::Created {
                reqid,
                result: Err(err),
            },
            MdsMsg::TypeOp { reqid, .. } => self.type_op_reply(reqid, Err(err)),
            _ => return None,
        };
        Some(reply)
    }

    /// Begins the seal/maxpos protocol for `seqs` — every layout known
    /// after a journal replay, or one whose layout arrived later (see
    /// `unsealed_seqs`). Until an inode's seal completes, its type ops
    /// answer `Recovering` or wait for it (see [`Mds::serve_type_op`]).
    fn start_seals(
        &mut self,
        ctx: &mut Context<'_>,
        seqs: impl IntoIterator<Item = (Ino, crate::namespace::SeqLayout)>,
    ) {
        // Submit seqs dedup per client *node*: a second incarnation on the
        // same node (crash → takeover → crash → takeover) restarting the
        // counter at 1 would have its epoch bump deduped against the
        // earlier one's — acked, but not applied — and would seal the
        // stripes at an epoch the zlog map never reached. Virtual time is
        // strictly increasing across incarnations.
        self.mon_seq = self.mon_seq.max(ctx.now().as_micros());
        for (ino, layout) in seqs {
            self.recovering_seqs.insert(
                ino,
                SealRecovery {
                    maxpos: vec![None; layout.stripe_width as usize],
                    layout,
                    stage: SealStage::GetEpoch,
                    new_epoch: 0,
                    waiters: Vec::new(),
                    held: Vec::new(),
                },
            );
        }
        follower::get(ctx, self.monitor, SERVICE_MAP_ZLOG);
        if !self.seal_tick_armed {
            self.seal_tick_armed = true;
            ctx.set_timer(SEAL_TICK, TIMER_SEAL);
        }
    }

    /// Answers `client`'s seal request `reqid` when `ino`'s seal completes,
    /// joining the one under way — a takeover's, or another client's — or
    /// starting one. A client's re-sent request replaces its earlier one.
    fn await_seal(&mut self, ctx: &mut Context<'_>, ino: Ino, client: NodeId, reqid: u64) {
        if !self.recovering_seqs.contains_key(&ino) {
            if let Some(layout) = self.seq_layouts.get(&ino).cloned() {
                self.start_seals(ctx, [(ino, layout)]);
            }
        }
        if let Some(rec) = self.recovering_seqs.get_mut(&ino) {
            rec.waiters.retain(|&(waiting, _)| waiting != client);
            rec.waiters.push((client, reqid));
        }
    }

    /// Answers the read of every seal still reading its epoch: each one
    /// bumps its log's epoch past the one in `snap` with its one `Submit`,
    /// under a seq of its own.
    fn on_zlog_map(&mut self, ctx: &mut Context<'_>, snap: &MapSnapshot) {
        let inos: Vec<Ino> = self.recovering_seqs.keys().copied().collect();
        for ino in inos {
            let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
                continue;
            };
            if rec.stage != SealStage::GetEpoch {
                continue;
            }
            let key = LogEpoch::key(&rec.layout.name);
            let cur = snap.entries.get(&key).and_then(|v| LogEpoch::parse(v));
            rec.new_epoch = cur.map_or(0, |LogEpoch(epoch)| epoch) + 1;
            rec.stage = SealStage::AwaitCommit { seq: self.mon_seq };
            self.mon_seq += 1;
            self.submit_epoch_bump(ctx, ino);
        }
    }

    /// Sends `ino`'s epoch bump: the same `Submit` each time, so the
    /// monitor applies it once however often it comes, and acks each
    /// copy (a repeat of one whose ack was lost too). A copy that applies
    /// after a newer seal's bump is refused at commit (the epoch only
    /// rises), and still acked: the stripes that seal answers for then
    /// answer this seal's `seal` with an error, and it reads their
    /// `maxpos` instead.
    fn submit_epoch_bump(&self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get(&ino) else {
            return;
        };
        let SealStage::AwaitCommit { seq } = rec.stage else {
            return;
        };
        let key = LogEpoch::key(&rec.layout.name);
        let bump = LogEpoch(rec.new_epoch).encode();
        let updates = vec![MapUpdate::set(SERVICE_MAP_ZLOG, &key, bump)];
        ctx.send(self.monitor, MonMsg::Submit { seq, updates });
    }

    /// Whether `ino`'s seal is in its last round trip: the epoch bump has
    /// committed and every stripe that has not answered has its `seal` /
    /// `maxpos` call out.
    fn seal_calls_out(&self, ino: Ino) -> bool {
        let Some(rec) = self.recovering_seqs.get(&ino) else {
            return false;
        };
        let mut open = (0u32..).zip(&rec.maxpos).filter(|(_, m)| m.is_none());
        rec.stage == SealStage::Sealing
            && open.all(|(stripe, _)| self.rados.has_waiter(&StoreWait::Seal { ino, stripe }))
    }

    /// A stripe call of `ino`'s seal failed: the seal waits for
    /// `TIMER_SEAL` now, so the ops it held answer `Recovering`.
    fn release_held(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
            return;
        };
        for held in std::mem::take(&mut rec.held) {
            let (span, client, reqid) = (held.span, held.client, held.reqid);
            self.refuse_type_op(ctx, span, client, reqid, "recovering", MdsError::Recovering);
        }
    }

    /// Enters the sealing stage and calls `seal(new_epoch)` on every
    /// stripe object of `ino`'s log that has neither answered nor a call
    /// out: a call in flight is the client's to retransmit, and one that
    /// completed with an error is made again when `TIMER_SEAL` comes back
    /// here.
    fn seal_stripes(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
            return;
        };
        rec.stage = SealStage::Sealing;
        let open = (0u32..).zip(&rec.maxpos).filter(|(_, m)| m.is_none());
        let open: Vec<u32> = open.map(|(stripe, _)| stripe).collect();
        for stripe in open {
            if !self.rados.has_waiter(&StoreWait::Seal { ino, stripe }) {
                self.send_seal_call(ctx, ino, stripe, "seal");
            }
        }
    }

    /// Calls `method` — `seal` with the recovery's new epoch, or the
    /// read-only `maxpos` — on one stripe object of `ino`'s log.
    fn send_seal_call(&mut self, ctx: &mut Context<'_>, ino: Ino, stripe: u32, method: &str) {
        let Some(rec) = self.recovering_seqs.get(&ino) else {
            return;
        };
        let name = format!("{}.{}", rec.layout.name, stripe);
        let oid = ObjectId::new(Rc::clone(&rec.layout.pool), name);
        let input = if method == "seal" {
            rec.new_epoch.to_string()
        } else {
            String::new()
        };
        let call = Op::Call {
            class: "zlog".into(),
            method: method.into(),
            input: input.as_bytes().into(),
        };
        self.rados
            .submit_spanned(ctx, oid, vec![call], None, StoreWait::Seal { ino, stripe });
    }

    /// Handles the reply of one stripe's seal/maxpos call.
    fn on_seal_reply(&mut self, ctx: &mut Context<'_>, ino: Ino, stripe: u32, result: StoreResult) {
        let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
            return;
        };
        match result {
            Ok(results) => {
                let maxpos = match results.first() {
                    Some(OpResult::CallOut(data)) => strict_decimal(data),
                    _ => None,
                };
                let Some(maxpos) = maxpos else {
                    // Class code is installed live, so the reply is outside
                    // input. One that is no number is no answer: read as
                    // "empty stripe" it could resume the sequencer below a
                    // written position. The stripe stays unanswered and
                    // `TIMER_SEAL` calls it again.
                    ctx.metrics().bump(counter!("mds.seal_call_errors"), 1);
                    self.release_held(ctx, ino);
                    return;
                };
                rec.maxpos[stripe as usize] = Some(maxpos);
            }
            Err(OsdError::Class(_)) => {
                // Already sealed at (or past) our epoch by a concurrent
                // recovery: the write fence holds either way; fall back to
                // the read-only maxpos query for this stripe.
                self.send_seal_call(ctx, ino, stripe, "maxpos");
                return;
            }
            Err(_) => {
                // No OSD placed, the client's deadline passed, or the class
                // is not installed yet: the stripe stays unanswered and
                // `TIMER_SEAL` submits its seal again.
                ctx.metrics().bump(counter!("mds.seal_call_errors"), 1);
                self.release_held(ctx, ino);
                return;
            }
        }
        self.finish_seal_if_done(ctx, ino);
    }

    /// Once every stripe reported its maxpos, fence-and-resume: the new
    /// tail is `max(in-memory tail, max(maxpos)+1)` — gap-free and never
    /// reissuing a position the store may already hold — and the seal
    /// requests waiting on it are answered with it and the new epoch.
    fn finish_seal_if_done(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get(&ino) else {
            return;
        };
        if rec.stage != SealStage::Sealing || rec.maxpos.iter().any(|m| m.is_none()) {
            return;
        }
        let Some(rec) = self.recovering_seqs.remove(&ino) else {
            return;
        };
        let store_tail = rec
            .maxpos
            .iter()
            .filter_map(|m| *m)
            .map(|m| m + 1)
            .max()
            .unwrap_or(0)
            .max(0) as u64;
        if let Some(inode) = self.namespace.get_mut(ino) {
            if store_tail > inode.embedded {
                inode.embedded = store_tail;
                self.journal(JournalEntry::SetEmbedded {
                    ino,
                    value: store_tail,
                });
                self.flush_journal(ctx);
            }
        }
        ctx.metrics().bump(counter!("mds.seq_seals"), 1);
        let (name, epoch) = (&rec.layout.name, rec.new_epoch);
        self.cluster_log(
            ctx,
            format!("sealed log {name} at epoch {epoch}, tail resumes at {store_tail}"),
        );
        let tail = self.namespace.get(ino).map_or(store_tail, |i| i.embedded);
        for (client, reqid) in rec.waiters {
            ctx.send(client, MdsMsg::Sealed { reqid, epoch, tail });
        }
        // Ops held through the last round trip, and requests stashed while
        // this inode recovered, can now be served.
        for held in rec.held {
            self.serve_type_op(ctx, ino, held);
        }
        if self.ready {
            let stashed = std::mem::take(&mut self.stashed);
            for (from, msg) in stashed {
                self.handle_client(ctx, from, msg);
            }
        }
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
                    let entry = JournalEntry::Create {
                        ino,
                        parent,
                        name: name.clone(),
                        ftype,
                    }
                    .encode();
                    for (rank, e) in self.mdsmap.view().ranks.clone() {
                        if rank != self.rank && e.up {
                            ctx.send(
                                e.node,
                                MdsPeer::NsReplicate {
                                    entry: entry.clone(),
                                },
                            );
                        }
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
            MdsMsg::CapRequest { ino } => {
                if !self.is_auth(ino) {
                    // Capability traffic follows authority.
                    return;
                }
                if self.recovering_seqs.contains_key(&ino) {
                    // Don't grant caps on a sequencer mid-seal; re-drive
                    // the request once the tail is fenced.
                    self.stashed.push_back((from, MdsMsg::CapRequest { ino }));
                    return;
                }
                let now = ctx.now();
                let actions = self.cap_entry(ino).request(from, now);
                self.run_cap_actions(ctx, ino, actions);
            }
            MdsMsg::CapRelease { ino, state } => {
                // Only the recorded holder may write back state. A client
                // that was evicted (timed out while partitioned) races its
                // stale release against the new holder's writes — reject.
                let known = self.caps.contains_key(&ino);
                let holder = self.caps.get(&ino).and_then(|c| c.holder());
                let hist = self.cap_history.as_ref().map(|rec| {
                    let op = RegOp::Write {
                        key: ino,
                        value: state,
                    };
                    (rec.clone(), rec.invoke(u64::from(from.0), ctx.now(), op))
                });
                if known && holder != Some(from) {
                    ctx.metrics().bump(counter!("mds.stale_releases"), 1);
                    if let Some((rec, id)) = hist {
                        rec.fail(id, ctx.now(), "stale release rejected");
                    }
                    return;
                }
                if let Some(inode) = self.namespace.get_mut(ino) {
                    if state > inode.embedded {
                        inode.embedded = state;
                        self.journal_now(ctx, JournalEntry::SetEmbedded { ino, value: state });
                    }
                }
                if let Some((rec, id)) = hist {
                    rec.ok(id, ctx.now(), RegRet::Written);
                }
                if holder == Some(from) {
                    self.journal_now(ctx, JournalEntry::CapDrop { ino });
                }
                let now = ctx.now();
                let actions = self
                    .caps
                    .get_mut(&ino)
                    .map(|c| c.release(from, now))
                    .unwrap_or_default();
                self.run_cap_actions(ctx, ino, actions);
                // A deferred export can proceed once the cap is home.
                if let Some(export) = self.pending_exports.remove(&ino) {
                    self.start_export(ctx, export);
                }
            }
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
        ctx.set_timer(SimDuration::from_millis(500), TIMER_JOURNAL);
        self.last_tick_at = ctx.now();
        if !self.config.journal && !self.standby {
            self.ready = true;
        }
        self.try_recover(ctx);
        self.send_beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TIMER_BEACON);
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
                    MdsPeer::NsReplicate { entry } => {
                        if let Some(JournalEntry::Create {
                            ino,
                            parent,
                            name,
                            ftype,
                        }) = JournalEntry::decode(entry.trim_end())
                        {
                            let _ = self.namespace.apply_create(ino, parent, &name, ftype);
                            self.split_cache = None;
                        }
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
            // A retransmit timer of the embedded client; when it fires past
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
            TIMER_CAP => {
                let now = ctx.now();
                let mut due: Vec<(Ino, Vec<CapAction>)> = self
                    .caps
                    .iter_mut()
                    .map(|(ino, cap)| (*ino, cap.on_tick(now)))
                    .filter(|(_, a)| !a.is_empty())
                    .collect();
                // Grants and recalls are sent per entry: inode order, not
                // the map's hash order.
                due.sort_unstable_by_key(|(ino, _)| *ino);
                for (ino, actions) in due {
                    self.run_cap_actions(ctx, ino, actions);
                }
                ctx.set_timer(CAP_TICK, TIMER_CAP);
            }
            TIMER_JOURNAL => {
                // The store tick: collect a request refused at submit
                // (`NoOsdsUp` completes without a message), submit again
                // what completed with an error — the journal read, the
                // flush in doubt — and flush what was buffered since.
                self.drain_store(ctx);
                self.try_recover(ctx);
                self.flush_journal(ctx);
                ctx.set_timer(SimDuration::from_millis(500), TIMER_JOURNAL);
            }
            TIMER_MANTLE_TIMEOUT if self.mantle_fetch_deadline.is_some_and(|d| ctx.now() >= d) => {
                // §5.1.2: the synchronous policy read gave up.
                ctx.metrics().bump(counter!("mds.mantle_fetch_timeouts"), 1);
                self.forget_policy_fetch(ctx);
                let line = "mantle: Connection Timeout reading balancer policy";
                self.cluster_log(ctx, line.to_string());
            }
            TIMER_BEACON => {
                self.send_beacon(ctx);
                // The one-shot Subscribes at start can die to message
                // loss; a daemon without the osdmap can never replay its
                // journal, and one without the mdsmap can never be
                // promoted. Re-assert each until its snapshot has landed
                // (subscribing twice is idempotent at the monitor).
                self.subscribe(ctx);
                ctx.set_timer(BEACON_INTERVAL, TIMER_BEACON);
            }
            TIMER_SEAL => {
                if self.recovering_seqs.is_empty() {
                    self.seal_tick_armed = false;
                    return;
                }
                // Each open seal repeats the request of its step: the read
                // while it is unanswered (one for all), the same `Submit`
                // while it is unacked, and the stripe calls that completed
                // with an error while sealing.
                let reading = |rec: &SealRecovery| rec.stage == SealStage::GetEpoch;
                if self.recovering_seqs.values().any(reading) {
                    follower::get(ctx, self.monitor, SERVICE_MAP_ZLOG);
                }
                let inos: Vec<Ino> = self.recovering_seqs.keys().copied().collect();
                for ino in inos {
                    match self.recovering_seqs.get(&ino).map(|rec| rec.stage) {
                        Some(SealStage::AwaitCommit { .. }) => self.submit_epoch_bump(ctx, ino),
                        Some(SealStage::Sealing) => self.seal_stripes(ctx, ino),
                        _ => {}
                    }
                }
                ctx.set_timer(SEAL_TICK, TIMER_SEAL);
            }
            _ => {}
        }
    }
}
