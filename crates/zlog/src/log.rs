//! The ZLog client: append/read/fill/trim over striped storage objects,
//! with CORFU's epoch protocol and sequencer recovery.
//!
//! A log named `L` with stripe width `K` stores position `p` in object
//! `L.{p % K}` via the scripted [`crate::storage`] class. The current
//! epoch lives in the monitor's `zlog` service-metadata map (key
//! `epoch.L`), so it is durable and consistently propagated; requests
//! tagged with an older epoch bounce off sealed objects with `ESTALE` and
//! the client refreshes.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use mala_consensus::maps::LogEpoch;
use mala_consensus::{follower, MonMsg, SERVICE_MAP_ZLOG};
use mala_mds::types::{MdsError, MdsMsg, SeqOp};
use mala_mds::{FileType, Ino};
use mala_rados::client::{REQUEST_DEADLINE, RETRY_TOKEN_BASE as RADOS_RETRY_TOKEN_BASE};
use mala_rados::{ObjectId, Op, OpResult, OsdError, RadosClient};
use mala_sim::history::Recorder;
use mala_sim::linearize::{LogOp, LogRead, LogRet};
use mala_sim::{
    counter, Actor, Context, IdMap, NodeId, Requests, Routes, Sim, SimDuration, SimTime,
    SpanContext, TimerHandle,
};

use crate::route::SeqRouter;
use crate::storage::{
    checkpoint_of, encode_checkpoint, encode_read_batch, encode_write_batch, read_outcomes,
    ZLOG_CLASS,
};
use crate::window::Window;

mod append;
mod history;
mod names;
mod probe;
mod read;
mod seq;
mod trim;

use append::StripeWrite;
pub use history::log_read_of;
use history::{log_op_of, SealClose};
use names::{Method, Names};
use read::{read_reply, Cursor};
use seq::MdsSent;

/// Client configuration for one log.
#[derive(Debug, Clone)]
pub struct ZlogConfig {
    /// Log name (also its namespace entry `/zlog/<name>`).
    pub name: String,
    /// RADOS pool storing stripe objects.
    pub pool: String,
    /// Number of stripe objects.
    pub stripe_width: u32,
    /// MDS rank → node.
    pub mds_nodes: HashMap<u32, NodeId>,
    /// Rank serving the sequencer inode.
    pub home_rank: u32,
    /// Monitor node.
    pub monitor: NodeId,
}

/// Tuning for the pipelined append path ([`ZlogClient::append_async`]).
///
/// Queued appends are drained into *batches*: one `GetPosBatch` round
/// trip grants the whole batch's position range, and same-stripe members
/// travel to the OSD in one vectored `write_batch` call (one RADOS
/// transaction, one journal group-commit).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum queued appends drained into one grant (batch size cap).
    pub queue_depth: usize,
    /// How long an enqueued append may wait before a forced flush.
    pub flush_window: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            queue_depth: 16,
            flush_window: SimDuration::from_millis(1),
        }
    }
}

/// Tuning for the pipelined tailing reader ([`ZlogClient::tail_cursor`]).
///
/// The cursor prefetches up to `readahead` positions beyond its delivery
/// point with at most `max_inflight` vectored `read_batch` RADOS ops in
/// flight — the window is the backpressure bound; a slow consumer never
/// piles up more than `readahead` undelivered entries.
#[derive(Debug, Clone)]
pub struct ReadConfig {
    /// Read-ahead window: positions prefetched beyond the delivery point.
    pub readahead: usize,
    /// Cap on concurrently in-flight vectored read ops.
    pub max_inflight: usize,
}

impl Default for ReadConfig {
    fn default() -> ReadConfig {
        ReadConfig {
            readahead: 64,
            max_inflight: 4,
        }
    }
}

/// Outcome of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Entry data.
    Data(Vec<u8>),
    /// Position was junk-filled.
    Filled,
    /// Position was trimmed.
    Trimmed,
    /// Nothing written there yet.
    NotWritten,
}

/// Completed operation results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendResult {
    /// The op succeeded; payload depends on the op kind.
    Ok(ZlogOut),
    /// The op failed terminally.
    Err(String),
}

/// Success payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZlogOut {
    /// Append: the assigned position.
    Pos(u64),
    /// Read outcome.
    Read(ReadOutcome),
    /// Fill/trim acknowledgement.
    Done,
    /// `check_tail` result.
    Tail(u64),
    /// Recovery: the new epoch and restored tail.
    Recovered {
        /// New epoch installed everywhere.
        epoch: u64,
        /// Tail the sequencer restarts from.
        tail: u64,
    },
    /// Namespace setup finished (sequencer inode).
    SetUp(Ino),
    /// Vectored read: per-position outcomes, in request order.
    ReadBatch(Vec<(u64, ReadOutcome)>),
    /// Tail-cursor batch: in-order entries from the delivery point; an
    /// empty batch means the cursor is caught up with a fresh tail.
    CursorBatch(Vec<(u64, ReadOutcome)>),
    /// Checkpoint write: the position the checkpoint object now holds
    /// (ours, or a later one that already superseded it).
    CheckpointAt(u64),
    /// Latest checkpoint `(position, blob)`, if one was ever taken.
    Checkpoint(Option<(u64, Vec<u8>)>),
}

enum Stage {
    /// Enqueued for the pipelined append path; a flush drains it into a
    /// batch. Progress is owned by the flush timer: the watchdog holds
    /// only the op's hard deadline.
    Queued,
    /// Member of the in-flight batch `batch` (an [`OpKind::Batch`] entry),
    /// which owns its progress.
    InBatch { batch: u64 },
    /// A batch waiting for the sequencer resolve or the `GetPosBatch`
    /// reply. Its `zlog.grant` span opens on the first drive and stays
    /// open across re-drives: it ends when the grant lands, or with an
    /// error tag when the batch concludes without one.
    BatchGrant { span: Option<SpanContext> },
    /// A batch waiting for its stripe-grouped `write_batch` calls, one
    /// entry per call still in flight.
    BatchWrite { groups: Vec<StripeWrite> },
    /// Waiting for `/zlog` mkdir.
    SetupDir,
    /// Waiting for sequencer create.
    SetupSeq,
    /// Waiting for a Resolve of the sequencer inode.
    ResolveSeq,
    /// An append's write at `pos` timed out or bounced as occupied:
    /// probing the cell (a one-position `read_batch`) to learn whether our
    /// payload landed.
    WriteProbe { pos: u64 },
    /// The probe saw a hole at `pos`: junk-filling it so the in-flight
    /// write can never land later, before retrying at a fresh position.
    WriteSeal { pos: u64 },
    /// Waiting for stripe-grouped `read_batch` calls, a point read's one
    /// among them; keeps each group's decoded reply until every group
    /// replied.
    ReadVector {
        outstanding: usize,
        parts: Vec<Vec<(u64, ReadOutcome)>>,
    },
    /// Waiting for per-stripe `trim_upto` watermark calls.
    TrimFan { outstanding: usize },
    /// Waiting for the checkpoint write on the checkpoint object.
    CkptWrite,
    /// Waiting for `checkpoint_read` on the checkpoint object.
    CkptRead,
    /// A cursor `next_batch` waiting for deliverable entries; progress is
    /// owned by the cursor machinery, the watchdog only re-kicks it.
    CursorWait,
    /// Waiting for a fill.
    Mutate,
    /// Waiting for the tail round trip.
    Tail,
    /// Recovery: waiting for the authority's seal, then, with the epoch
    /// it installed and the tail it restarted at, for that epoch.
    Recover { sealed: Option<(u64, u64)> },
}

struct PendingOp {
    kind: OpKind,
    stage: Stage,
    /// Who takes the op's result when it concludes.
    owner: Owner,
    /// History op id when a recorder is attached.
    hist: Option<u64>,
    /// Per-position history records of a vectored read (`(id, pos)`):
    /// each position is its own read in the checker's model.
    multi_hist: Vec<(u64, u64)>,
    /// History op id of an open probe-seal fill (see
    /// [`Stage::WriteSeal`]): the fill mutates the cell, so it records as
    /// its own history op even though the append's state machine drives
    /// it.
    seal_hist: Option<u64>,
    /// Root trace span for the whole op (`zlog.append`), ended at
    /// completion.
    span: Option<SpanContext>,
    /// Open `zlog.queue` child while the op waits in the append queue.
    queue_span: Option<SpanContext>,
    /// Where the op's latest MDS request went, and under which epoch.
    mds_sent: Option<MdsSent>,
}

/// Who an op's result goes to.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// The caller, through [`ZlogClient::take_result`].
    Caller,
    /// Nobody: a hole fill or a batch completes silently.
    Nobody,
    /// Cursor `id`'s internal op (consult, tail, fetch, heal): the cursor
    /// takes the result itself.
    Cursor(u64),
    /// Cursor `id`'s `next_batch` waiter: the result is the caller's, and
    /// the cursor learns that its waiter is gone.
    Waiter(u64),
}

/// A reply route, held by its op in `ops`: a request of the embedded RADOS
/// client or an MDS request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Route {
    Rados(u64),
    Mds(u64),
}

/// What a parked op waits for before it goes again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    /// A zlog epoch newer than this one.
    Epoch(u64),
    /// A fresh mdsmap: the op's rank was unroutable.
    MdsMap,
}

#[derive(Debug, Clone)]
enum OpKind {
    Setup,
    Append {
        data: Vec<u8>,
    },
    /// A point read: a `read_batch` of one position.
    Read {
        pos: u64,
    },
    ReadBatch {
        positions: Vec<u64>,
    },
    Fill {
        pos: u64,
    },
    /// Prefix trim: every position `< pos` becomes trimmed, fanned out as
    /// one `trim_upto` watermark per stripe.
    TrimUpto {
        pos: u64,
    },
    Checkpoint {
        pos: u64,
        blob: Vec<u8>,
    },
    CheckpointRead,
    /// A cursor `next_batch` waiter (the cursor id lives on the op).
    CursorBatch,
    CheckTail,
    Recover,
    /// One in-flight append batch: a grant round trip for the whole range,
    /// then stripe-grouped vectored writes. Holds the member op ids in
    /// grant order (member `i` owns `base + i`).
    Batch {
        members: Vec<u64>,
    },
}

impl OpKind {
    /// The stage an op of this kind enters the table in.
    fn first_stage(&self) -> Stage {
        match self {
            OpKind::Setup => Stage::SetupDir,
            OpKind::Append { .. } => Stage::Queued,
            OpKind::Read { .. } | OpKind::ReadBatch { .. } => Stage::ReadVector {
                outstanding: 0,
                parts: Vec::new(),
            },
            OpKind::Fill { .. } => Stage::Mutate,
            OpKind::TrimUpto { .. } => Stage::TrimFan { outstanding: 0 },
            OpKind::Checkpoint { .. } => Stage::CkptWrite,
            OpKind::CheckpointRead => Stage::CkptRead,
            OpKind::CursorBatch => Stage::CursorWait,
            OpKind::CheckTail => Stage::Tail,
            OpKind::Recover => Stage::Recover { sealed: None },
            OpKind::Batch { .. } => Stage::BatchGrant { span: None },
        }
    }
}

/// What a RADOS request of the embedded client completed with.
type RadosResult = Result<Vec<OpResult>, OsdError>;

/// The append-queue flush-window timer.
const TOKEN_FLUSH: u64 = 1;
/// The watchdog's one timer, for the looks of [`ZlogClient::ops`]. Both
/// sit below the embedded RADOS client's token (`1 << 48`).
const TOKEN_WATCH: u64 = 2;

/// First watchdog delay; doubles per attempt up to [`RETRY_CAP`].
const RETRY_BASE: SimDuration = SimDuration::from_millis(20);
/// Cap on the watchdog backoff.
const RETRY_CAP: SimDuration = SimDuration::from_secs(2);
/// Per-op deadline (start → typed timeout failure).
const OP_DEADLINE: SimDuration = SimDuration::from_secs(60);
/// A batch has no deadline of its own: its members carry theirs.
const NO_DEADLINE: SimTime = SimTime::from_micros(u64::MAX);
/// Retry backstop: ops failing this many attempts give up.
const MAX_ATTEMPTS: u32 = 16;

/// The ZLog client actor.
pub struct ZlogClient {
    /// Embedded RADOS client (delegated object I/O); each request is a
    /// route of the op it replies to.
    rados: RadosClient,
    config: ZlogConfig,
    names: Names,
    /// Current CORFU epoch for this log (from the `zlog` map).
    epoch: u64,
    /// Placement-aware MDS routing: live mdsmap plus the cached
    /// authoritative rank of the sequencer inode.
    router: SeqRouter,
    seq_ino: Option<Ino>,
    /// Every op in flight: its watchdog is its look, its requests out are
    /// its routes, and a parked one goes again once a newer epoch or a
    /// fresh mdsmap arrives.
    ops: Requests<PendingOp, Park, Route>,
    results: IdMap<u64, AppendResult>,
    next_op: u64,
    next_seq: u64,
    /// Pipelined append tuning.
    batch_cfg: BatchConfig,
    /// Ops in [`Stage::Queued`], awaiting a flush.
    append_queue: Vec<u64>,
    /// Pending flush-window timer, if the queue is non-empty.
    flush_timer: Option<TimerHandle>,
    /// Optional op-history recorder (linearizability checking).
    history: Option<Recorder<LogOp, LogRet>>,
    /// Live tailing readers by id.
    cursors: IdMap<u64, Cursor>,
    next_cursor: u64,
    /// Tailing-reader tuning for cursors created without an explicit one.
    read_cfg: ReadConfig,
}

impl ZlogClient {
    /// Creates a client for `config`.
    ///
    /// # Panics
    ///
    /// If `config.stripe_width` is 0: the width is a deployment setting,
    /// and a log of no stripes has nowhere to put a position.
    pub fn new(config: ZlogConfig) -> ZlogClient {
        assert!(
            config.stripe_width > 0,
            "a zlog stripe width must be positive"
        );
        ZlogClient {
            rados: RadosClient::embedded(config.monitor),
            router: SeqRouter::new(config.mds_nodes.clone(), config.home_rank, config.monitor),
            names: Names::new(&config),
            config,
            epoch: 0,
            seq_ino: None,
            ops: Requests::new(TOKEN_WATCH),
            results: IdMap::default(),
            next_op: 1,
            next_seq: 1,
            batch_cfg: BatchConfig::default(),
            append_queue: Vec::new(),
            flush_timer: None,
            history: None,
            cursors: IdMap::default(),
            next_cursor: 1,
            read_cfg: ReadConfig::default(),
        }
    }

    /// Creates a client with non-default tailing-reader tuning.
    pub fn with_read_config(config: ZlogConfig, read: ReadConfig) -> ZlogClient {
        let mut client = ZlogClient::new(config);
        client.read_cfg = read;
        client
    }

    /// Creates a client with non-default pipelined-append tuning.
    pub fn with_batching(config: ZlogConfig, batch: BatchConfig) -> ZlogClient {
        let mut client = ZlogClient::new(config);
        client.batch_cfg = batch;
        client
    }

    /// The current epoch this client operates under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sequencer inode, once resolved.
    pub fn seq_ino(&self) -> Option<Ino> {
        self.seq_ino
    }

    /// The routing state (placement cache + cached mdsmap view).
    pub fn router(&self) -> &SeqRouter {
        &self.router
    }

    /// Takes a completed result.
    pub fn take_result(&mut self, op: u64) -> Option<AppendResult> {
        self.results.remove(&op)
    }

    /// Whether `op` completed.
    pub fn is_done(&self, op: u64) -> bool {
        self.results.contains_key(&op)
    }

    /// Whether the client holds no work and no trace of any: no pending
    /// op (nor its park entry), reply route, RADOS request still being
    /// retransmitted, uncollected completion or queued append.
    pub fn is_idle(&self) -> bool {
        self.ops.is_empty()
            && !self.rados.holds_requests()
            && !self.rados.holds_completions()
            && self.append_queue.is_empty()
    }

    /// Cross-checks the ops' RADOS routes with the embedded client (DESIGN
    /// §23): they name exactly the requests it holds. It walks every op, so
    /// it is for tests, not for a serving path.
    pub fn check_routes(&self) -> Result<(), String> {
        let routes = self.ops.iter().flat_map(|(op, _)| self.ops.routes(op));
        let mut routed: Vec<u64> = routes
            .filter_map(|route| match route {
                Route::Rados(reqid) => Some(reqid),
                Route::Mds(_) => None,
            })
            .collect();
        let mut held: Vec<u64> = self.rados.waiters().map(|(reqid, _)| reqid).collect();
        routed.sort_unstable();
        held.sort_unstable();
        match routed == held {
            true => Ok(()),
            false => Err(format!("routed {routed:?}, in flight {held:?}")),
        }
    }

    /// Enters an op of `kind` for `owner` and takes its first step.
    fn start(&mut self, ctx: &mut Context<'_>, kind: OpKind, owner: Owner) -> u64 {
        let op = self.begin(ctx, kind, owner);
        self.step(ctx, op);
        op
    }

    /// Enters an op of `kind` for `owner` under its watchdog.
    fn begin(&mut self, ctx: &mut Context<'_>, kind: OpKind, owner: Owner) -> u64 {
        let op = self.insert_op(ctx, kind, owner, ctx.now() + OP_DEADLINE);
        // Every op runs under a watchdog: lost replies anywhere in the
        // chain (MDS, monitor, OSD) re-drive it with backoff instead of
        // hanging forever.
        self.arm_watchdog(ctx, op);
        op
    }

    /// Enters a new op into the table, watchdog not yet armed.
    fn insert_op(
        &mut self,
        ctx: &mut Context<'_>,
        kind: OpKind,
        owner: Owner,
        deadline: SimTime,
    ) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        // The model op holds a copy of an append's payload: built only for
        // a recorder.
        let hist = self.history.as_ref().and_then(|rec| {
            let logop = log_op_of(&kind)?;
            Some(rec.invoke(u64::from(ctx.me().0), ctx.now(), logop))
        });
        let pending = PendingOp {
            stage: kind.first_stage(),
            kind,
            owner,
            hist,
            multi_hist: Vec::new(),
            seal_hist: None,
            span: None,
            queue_span: None,
            mds_sent: None,
        };
        self.ops.insert(op, pending, deadline);
        op
    }

    /// Sets when the watchdog looks at `op` — single op or batch — next.
    /// An entry whose progress is someone else's (`Queued`: the flush
    /// timer's; `InBatch`: its batch's; `BatchWrite`: the embedded RADOS
    /// client's) holds its hard deadline and nothing else, which for a
    /// batch is nothing. Every other stage is re-driven after a capped
    /// exponential backoff with jitter from the sim's seeded RNG, or
    /// failed at its deadline if that comes first.
    fn arm_watchdog(&mut self, ctx: &mut Context<'_>, op: u64) {
        let (Some(pending), Some(deadline)) = (self.ops.get(op), self.ops.deadline(op)) else {
            return;
        };
        let at = match pending.stage {
            Stage::Queued | Stage::InBatch { .. } | Stage::BatchWrite { .. } => deadline,
            _ => {
                let delay = ctx.backoff(RETRY_BASE, RETRY_CAP, self.ops.attempts(op));
                deadline.min(ctx.now() + delay)
            }
        };
        if at == NO_DEADLINE {
            self.ops.unlook(op);
        } else {
            self.ops.look(ctx, op, at);
        }
    }

    /// Junk-fills `pos`; resolves to [`ZlogOut::Done`].
    pub fn fill(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        self.start(ctx, OpKind::Fill { pos }, Owner::Caller)
    }

    // ---- plumbing ----

    /// Moves `op` to `stage`.
    fn set_stage(&mut self, op: u64, stage: Stage) {
        if let Some(pending) = self.ops.get_mut(op) {
            pending.stage = stage;
        }
    }

    fn finish(&mut self, ctx: &mut Context<'_>, op: u64, result: AppendResult) {
        self.conclude(ctx, op, result, false);
    }

    /// Definite failure: the op certainly did not take effect.
    fn fail(&mut self, ctx: &mut Context<'_>, op: u64, msg: impl Into<String>) {
        self.conclude(ctx, op, AppendResult::Err(msg.into()), false);
    }

    /// Failure whose history classification depends on the stage the op
    /// died in: an op that gives up while a write/fill/trim request may
    /// still be in flight (or may already have applied) records `info` —
    /// possibly applied — instead of `fail`.
    fn fail_auto(&mut self, ctx: &mut Context<'_>, op: u64, msg: impl Into<String>) {
        self.conclude(ctx, op, AppendResult::Err(msg.into()), true);
    }

    fn conclude(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        result: AppendResult,
        ambiguous_hint: bool,
    ) {
        // Kept as found (DESIGN §23): a look at the op's deadline, a
        // minute away, goes with the op; one a backoff away is left to
        // come due at nothing.
        let Some((pending, routes)) = self.ops.remove_leaving_backoff(op) else {
            return;
        };
        if let AppendResult::Err(msg) = &result {
            // The op may die with requests out: cancel them.
            self.forget_requests(ctx, &routes);
            // A batch only fails before any write went out, so it takes
            // its members with it, definitely failed.
            if let OpKind::Batch { members } = &pending.kind {
                for &member in members {
                    self.fail(ctx, member, msg.clone());
                }
            }
        }
        if let Some(queue) = pending.queue_span {
            ctx.span_end(queue);
        }
        if let Stage::BatchGrant { span: Some(grant) } = pending.stage {
            ctx.span_tag(grant, "error", "no grant");
            ctx.span_end(grant);
        }
        if let Some(span) = pending.span {
            if let AppendResult::Err(msg) = &result {
                ctx.span_tag(span, "error", msg);
            }
            ctx.span_end(span);
        }
        if !self.append_queue.is_empty() {
            self.append_queue.retain(|o| *o != op);
        }
        self.record_end(ctx.now(), op, &pending, &result, ambiguous_hint);
        match pending.owner {
            Owner::Caller => {
                self.results.insert(op, result);
            }
            // A hole fill's EEXIST ("already written") is success too: the
            // cell is occupied either way.
            Owner::Nobody => {}
            Owner::Cursor(id) => self.on_cursor_op_done(ctx, id, pending.kind, result),
            Owner::Waiter(id) => {
                if let Some(cursor) = self.cursors.get_mut(&id) {
                    if cursor.waiter.is_some_and(|(w, _)| w == op) {
                        cursor.waiter = None;
                    }
                }
                self.drive_cursor(ctx, id);
                self.results.insert(op, result);
            }
        }
    }

    fn is_batch(&self, op: u64) -> bool {
        matches!(self.ops.get(op), Some(p) if matches!(p.kind, OpKind::Batch { .. }))
    }

    /// Collects completions from the embedded RADOS client and routes them
    /// into the owning ops. Completions drive sends and timers, so they
    /// are taken in request order.
    fn drain_rados(&mut self, ctx: &mut Context<'_>) {
        let drain = self.rados.drain_completed();
        while let Some(event) = drain.next(&mut self.rados) {
            let Some(op) = self.ops.release(Route::Rados(event.reqid)) else {
                continue;
            };
            if self.is_batch(op) {
                self.on_batch_write_done(ctx, op, event.reqid, event.result);
            } else {
                self.on_rados_done(ctx, op, event.result);
            }
        }
    }

    /// Adopts `value`, the log's entry in the zlog map, as the epoch if it
    /// is a newer one: ops parked on an older epoch go again, each a retry,
    /// in park order.
    fn adopt_epoch(&mut self, ctx: &mut Context<'_>, value: &[u8]) {
        if let Some(LogEpoch(epoch)) = LogEpoch::parse(value).filter(|e| e.0 > self.epoch) {
            self.epoch = epoch;
            let newer = |park: &Park| matches!(*park, Park::Epoch(e) if epoch > e);
            for op in self.ops.unpark(newer) {
                self.restart_op(ctx, op);
            }
        }
    }

    /// Re-asks for the zlog map by subscribing again (the monitor answers
    /// with the map, and one restarted since `on_start` learns of this
    /// client again): a newer epoch in it re-drives the ops blocked on the
    /// one they ran under.
    fn resubscribe_epoch(&self, ctx: &mut Context<'_>) {
        follower::subscribe(ctx, self.config.monitor, SERVICE_MAP_ZLOG);
    }

    /// Charges `op` one attempt of its retry budget. Past the budget the
    /// op fails — a batch with all its members — and `false` comes back.
    fn burn_attempt(&mut self, ctx: &mut Context<'_>, op: u64) -> bool {
        let Some(attempts) = self.ops.charge(op) else {
            return false;
        };
        if attempts <= MAX_ATTEMPTS {
            return true;
        }
        let msg = match self.ops.get(op).map(|pending| &pending.kind) {
            Some(OpKind::Batch { .. }) => "bulk grant: too many retries",
            _ => "too many retries",
        };
        self.fail_auto(ctx, op, msg);
        false
    }

    fn restart_op(&mut self, ctx: &mut Context<'_>, op: u64) {
        if !self.burn_attempt(ctx, op) {
            return;
        }
        // Kept as found: a watchdog or redirect re-drive counts as a
        // retry for a single op, not for a batch.
        if !self.is_batch(op) {
            ctx.metrics().bump(counter!("zlog.retries"), 1);
        }
        self.redrive_op(ctx, op);
    }

    /// Cancels the RADOS requests among `routes`, which `ops` handed back,
    /// in hold order (ascending reqid): each cancel ends a span, and hash
    /// order would reorder the trace from run to run.
    fn forget_requests(&mut self, ctx: &mut Context<'_>, routes: &Routes<Route>) {
        for route in routes.iter() {
            if let Route::Rados(reqid) = route {
                self.rados.cancel(ctx, reqid);
            }
        }
    }

    /// Re-dispatches `op` from its current stage without touching the
    /// attempt budget (the caller decides whether the re-drive is a
    /// retry or externally-driven progress, e.g. a fresh mdsmap).
    fn redrive_op(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        if matches!(
            pending.stage,
            Stage::Queued | Stage::InBatch { .. } | Stage::BatchWrite { .. }
        ) {
            // Batched appends are re-driven by the flush timer and their
            // batch, never through the single-op path (a stray restart
            // here would double-assign the op), and a batch with writes
            // out keeps their reply routes. Their watchdog entry is their
            // hard deadline already: nothing to re-arm.
            return;
        }
        // Drop any stale epoch-block entry and abandon outstanding
        // requests from earlier attempts: their late replies must not be
        // routed into the fresh attempt's state machine (for a batch, a
        // late duplicate grant must not double-grant).
        let routes = self.ops.take_routes(op);
        self.ops.unpark_id(op);
        self.forget_requests(ctx, &routes);
        self.step(ctx, op);
        self.arm_watchdog(ctx, op);
    }

    /// Takes `op`'s next step from its stage: (re-)sends what that stage
    /// waits for. The one map from an op's kind to its protocol: a
    /// starter and [`ZlogClient::redrive_op`] both go through it.
    fn step(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        match &pending.kind {
            // Outside its queue and batch, an append is resolving a write
            // of unknown fate at `pos`: never abandon the position blindly
            // (the payload may have landed and would be orphaned) — probe
            // it again.
            OpKind::Append { .. } => {
                if let Stage::WriteProbe { pos } | Stage::WriteSeal { pos } = pending.stage {
                    self.enter_write_probe(ctx, op, pos);
                }
            }
            &OpKind::Fill { pos } => self.call_cell(ctx, op, Method::Fill, pos),
            OpKind::Read { .. } | OpKind::ReadBatch { .. } => self.step_read_batch(ctx, op),
            OpKind::TrimUpto { .. } => self.step_trim_upto(ctx, op),
            OpKind::Checkpoint { pos, blob } => {
                let input = encode_checkpoint(self.epoch, *pos, blob);
                let oid = self.names.ckpt.clone();
                self.call_class(ctx, op, oid, Method::Checkpoint, input);
            }
            OpKind::CheckpointRead => {
                let oid = self.names.ckpt.clone();
                self.call_class(ctx, op, oid, Method::CheckpointRead, Vec::new());
            }
            // The waiter owns no in-flight requests; re-kick the cursor
            // machinery instead.
            OpKind::CursorBatch => {
                if let Owner::Waiter(id) = pending.owner {
                    self.drive_cursor(ctx, id);
                }
            }
            OpKind::CheckTail => self.send_verb(ctx, op, SeqOp::Read, Stage::Tail),
            OpKind::Batch { .. } => self.drive_batch_grant(ctx, op),
            OpKind::Setup => self.step_setup(ctx, op),
            OpKind::Recover => self.step_recover(ctx, op),
        }
    }

    fn on_rados_done(&mut self, ctx: &mut Context<'_>, op: u64, result: RadosResult) {
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        match &result {
            // A timed-out RADOS request (the embedded client exhausted its
            // retransmit deadline) is retryable at this level: re-drive the
            // whole op rather than surfacing a hang.
            Err(OsdError::Timeout) => {
                ctx.metrics().bump(counter!("zlog.rados_timeouts"), 1);
                return self.restart_op(ctx, op);
            }
            // The committed map places no OSD for the stripe (drain/removal
            // emptied the acting set). Unlike Timeout this arrives
            // instantly, so re-drive through the backoff watchdog rather
            // than restarting in a hot loop; a membership change clears
            // the condition.
            Err(OsdError::NoOsdsUp) => {
                ctx.metrics().bump(counter!("zlog.no_osds_up_retries"), 1);
                return self.arm_watchdog(ctx, op);
            }
            // Epoch guard: sealed object rejected our epoch.
            Err(OsdError::Class(ce)) if ce.code == -116 => {
                // A probe-seal fill bounced by the epoch guard was
                // validated before applying: definitely not applied.
                if matches!(pending.stage, Stage::WriteSeal { .. }) {
                    self.close_seal_hist(ctx.now(), op, SealClose::NotApplied);
                }
                ctx.metrics().bump(counter!("zlog.estale_retries"), 1);
                self.ops.park(op, Park::Epoch(self.epoch));
                return self.resubscribe_epoch(ctx);
            }
            _ => {}
        }
        match pending.stage {
            Stage::WriteProbe { .. } | Stage::WriteSeal { .. } => {
                self.on_probe_done(ctx, op, result)
            }
            Stage::ReadVector { .. } => self.on_read_done(ctx, op, result),
            Stage::TrimFan { .. } | Stage::CkptWrite | Stage::CkptRead => {
                self.on_trim_done(ctx, op, result)
            }
            Stage::Mutate => match result {
                Ok(_) => self.finish(ctx, op, AppendResult::Ok(ZlogOut::Done)),
                Err(OsdError::Class(ce)) if ce.code == -17 => {
                    self.fail(ctx, op, "position already written")
                }
                Err(e) => self.fail(ctx, op, format!("mutation failed: {e}")),
            },
            _ => {}
        }
    }
}

impl Actor for ZlogClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rados.on_start(ctx);
        follower::subscribe(ctx, self.config.monitor, SERVICE_MAP_ZLOG);
        self.router.mdsmap.subscribe(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        // MDS replies.
        let msg = match msg.downcast::<MdsMsg>() {
            Ok(mds) => return self.on_mds_reply(ctx, *mds),
            Err(other) => other,
        };
        // Monitor traffic: the zlog map is ours and the mdsmap the router's;
        // the rest (the osdmap) feeds the embedded RADOS client below.
        let msg: Box<dyn Any> = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                match self.router.mdsmap.follow(&mon) {
                    // A fresh map is progress: re-drive ops parked on an
                    // unroutable rank right away instead of letting them
                    // sit out the watchdog backoff.
                    Some(true) => return self.redrive_on_mdsmap(ctx),
                    Some(false) => return,
                    None => {}
                }
                if let MonMsg::Snapshot(snap) = &*mon {
                    if snap.map == SERVICE_MAP_ZLOG {
                        if let Some(v) = snap.entries.get(&self.names.epoch_key) {
                            self.adopt_epoch(ctx, v);
                        }
                        return;
                    }
                }
                mon
            }
            Err(other) => other,
        };
        // The osdmap and OSD replies: feed the RADOS client, then collect
        // completions — a map adopted can complete a request too.
        self.rados.on_message(ctx, from, msg);
        self.drain_rados(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        // Retransmit timers of the embedded RADOS client (its token
        // namespace sits above ours).
        if token >= RADOS_RETRY_TOKEN_BASE {
            self.rados.on_timer(ctx, token);
            // A fired retransmit timer can complete a request (Timeout).
            self.drain_rados(ctx);
            return;
        }
        if token == TOKEN_WATCH {
            ctx.metrics().bump(counter!("zlog.watchdog_fires"), 1);
            while let Some(op) = self.ops.pop_due(ctx) {
                // Queued / batched appends progress through the flush
                // timer and their batch, and a batch's writes through the
                // embedded RADOS client's own retransmit/timeout
                // machinery: such an entry is due at its deadline only.
                if self.ops.deadline(op).is_some_and(|at| ctx.now() >= at) {
                    ctx.metrics().bump(counter!("zlog.timeouts"), 1);
                    self.fail_auto(ctx, op, "op deadline exceeded");
                } else {
                    self.restart_op(ctx, op);
                }
            }
            return;
        }
        if token == TOKEN_FLUSH {
            self.flush_timer = None;
            self.flush(ctx);
        }
    }
}

/// A class reply that is one decimal number.
fn decimal<T: std::str::FromStr>(bytes: &[u8]) -> Option<T> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// Synchronous harness helper: runs `f` against the client at `node`, then
/// drives the simulation until the returned op completes.
pub fn run_op(
    sim: &mut Sim,
    node: NodeId,
    timeout: SimDuration,
    f: impl FnOnce(&mut ZlogClient, &mut Context<'_>) -> u64,
) -> AppendResult {
    let op = sim.with_actor::<ZlogClient, _>(node, f);
    let deadline = sim.now() + timeout;
    let done = sim.run_until_pred(deadline, |s| s.actor::<ZlogClient>(node).is_done(op));
    assert!(done, "zlog op {op} timed out after {timeout}");
    sim.actor_mut::<ZlogClient>(node)
        .take_result(op)
        .unwrap_or_else(|| panic!("completion for zlog op {op} missing"))
}

#[cfg(test)]
mod tests;
