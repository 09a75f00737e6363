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

use mala_consensus::MonMsg;
use mala_mds::types::{MdsError, MdsMsg, SeqOp};
use mala_mds::{FileType, Ino};
use mala_rados::client::RETRY_TOKEN_BASE as RADOS_RETRY_TOKEN_BASE;
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

/// Monitor map holding ZLog service metadata (per-log epochs).
pub const ZLOG_MAP: &str = "zlog";

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
    /// Client-internal op (hole fill): completion is dropped, never
    /// surfaced as a result.
    internal: bool,
    /// History op id when a recorder is attached.
    hist: Option<u64>,
    /// Per-position history records of a vectored read (`(id, pos)`):
    /// each position is its own read in the checker's model.
    multi_hist: Vec<(u64, u64)>,
    /// Cursor this op feeds, if it is part of the tailing-reader
    /// machinery; its conclusion routes back into the cursor.
    cursor: Option<u64>,
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

/// An MDS request as it left: a map that moves `rank` off `node` leaves it
/// unanswered, and a `Recovering` answer to it waits for an epoch above
/// `epoch`.
#[derive(Debug, Clone, Copy)]
struct MdsSent {
    rank: u32,
    node: NodeId,
    epoch: u64,
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

/// How an open probe-seal fill record resolves.
enum SealClose {
    /// The fill landed.
    Applied,
    /// The fill definitely bounced (cell occupied).
    NotApplied,
    /// Outcome unknown (reply lost / epoch bounce mid-flight).
    Unknown,
}

/// One in-flight `write_batch` call of a batch.
struct StripeWrite {
    /// The RADOS request carrying it.
    reqid: u64,
    /// Its open `zlog.stripe_write` span.
    span: SpanContext,
    /// The cells it writes, as `(member index, position)`.
    cells: Vec<(usize, u64)>,
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
    /// The positions a read op asks for: a point read's one, or a vector.
    fn read_positions(&self) -> Option<&[u64]> {
        match self {
            OpKind::Read { pos } => Some(std::slice::from_ref(pos)),
            OpKind::ReadBatch { positions } => Some(positions),
            _ => None,
        }
    }
}

/// One pipelined tailing reader: discovers the tail via the sequencer,
/// prefetches entries with stripe-grouped `read_batch` ops inside a
/// bounded window, resolves holes with the fill machinery, and hands
/// contiguous runs to `next_batch` waiters in position order.
struct Cursor {
    cfg: ReadConfig,
    /// Next position to deliver and what is known about the positions
    /// from there on.
    window: Window,
    /// Exclusive tail bound last learned from the sequencer.
    tail: u64,
    /// Start position resolved (checkpoint object consulted).
    started: bool,
    /// Checkpoint consult in flight.
    ckpt_inflight: bool,
    /// Tail refresh in flight.
    tail_inflight: bool,
    /// The tail was refreshed since the current waiter arrived, so
    /// "caught up" can be answered against a fresh bound.
    tail_fresh: bool,
    /// Outstanding fetch ops (the `max_inflight` bound).
    inflight_ops: usize,
    /// Waiting `next_batch` op and its delivery cap.
    waiter: Option<(u64, usize)>,
}

/// A method of the `zlog` class, as the client calls it: an index into the
/// handles [`Names`] built.
#[derive(Debug, Clone, Copy)]
enum Method {
    WriteBatch,
    ReadBatch,
    Fill,
    TrimUpto,
    Checkpoint,
    CheckpointRead,
}

impl Method {
    /// Every method with its name in the class source, in discriminant
    /// order.
    const ALL: [(Method, &'static str); 6] = [
        (Method::WriteBatch, "write_batch"),
        (Method::ReadBatch, "read_batch"),
        (Method::Fill, "fill"),
        (Method::TrimUpto, "trim_upto"),
        (Method::Checkpoint, "checkpoint"),
        (Method::CheckpointRead, "checkpoint_read"),
    ];
}

/// Every name one client's requests carry, allocated when the client is
/// built: a request takes refcounts of these and formats nothing
/// (DESIGN §30).
struct Names {
    /// The log's pool and name, as `SetSeqLayout` carries them.
    pool: Rc<str>,
    log: Rc<str>,
    /// The log's key in the monitor's [`ZLOG_MAP`], `epoch.<log>`.
    epoch_key: String,
    /// The sequencer inode's path, `/zlog/<log>`.
    seq_path: String,
    /// The stripe objects `<log>.<i>`, by stripe index.
    stripes: Vec<ObjectId>,
    /// The per-log checkpoint object (not a stripe: seals never touch it,
    /// so checkpoint traffic survives recovery untouched).
    ckpt: ObjectId,
    class: Rc<str>,
    /// Method-name handles, indexed by [`Method`].
    methods: [Rc<str>; Method::ALL.len()],
}

impl Names {
    fn new(config: &ZlogConfig) -> Names {
        let pool: Rc<str> = config.pool.as_str().into();
        let stripe = |i: u32| ObjectId::new(Rc::clone(&pool), format!("{}.{i}", config.name));
        Names {
            stripes: (0..config.stripe_width).map(stripe).collect(),
            ckpt: ObjectId::new(Rc::clone(&pool), format!("{}.ckpt", config.name)),
            log: config.name.as_str().into(),
            epoch_key: format!("epoch.{}", config.name),
            seq_path: format!("/zlog/{}", config.name),
            class: ZLOG_CLASS.into(),
            methods: Method::ALL.map(|(_, name)| name.into()),
            pool,
        }
    }
}

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
    pub fn new(config: ZlogConfig) -> ZlogClient {
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

    /// Attaches a history recorder: every externally visible op (and
    /// every internal hole fill, which also mutates cells) records
    /// invoke/ok/fail/info events with sim-clock stamps for the
    /// linearizability checker.
    pub fn with_history(mut self, recorder: Recorder<LogOp, LogRet>) -> ZlogClient {
        self.history = Some(recorder);
        self
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

    // ---- op starters ----

    fn begin(&mut self, ctx: &mut Context<'_>, kind: OpKind, stage: Stage) -> u64 {
        let op = self.insert_op(ctx, kind, stage, ctx.now() + OP_DEADLINE);
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
        stage: Stage,
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
            kind,
            stage,
            internal: false,
            hist,
            multi_hist: Vec::new(),
            cursor: None,
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

    /// Creates `/zlog/<name>` (directory + sequencer inode) if needed.
    pub fn setup(&mut self, ctx: &mut Context<'_>) -> u64 {
        let op = self.begin(ctx, OpKind::Setup, Stage::SetupDir);
        self.step_setup(ctx, op);
        op
    }

    /// Appends `data`; resolves to [`ZlogOut::Pos`]. A batch of one: the
    /// append skips the queue and goes out at once, a `GetPosBatch` grant
    /// of one position and then a one-entry `write_batch`.
    pub fn append(&mut self, ctx: &mut Context<'_>, data: Vec<u8>) -> u64 {
        let op = self.new_append(ctx, data);
        self.start_batch(ctx, vec![op]);
        op
    }

    /// Enqueues an append on the pipelined path; resolves to
    /// [`ZlogOut::Pos`] like [`ZlogClient::append`], but positions come
    /// from bulk `GetPosBatch` grants amortized across the queue and
    /// same-stripe writes coalesce into one `write_batch` RADOS
    /// transaction. The queue drains when it reaches
    /// [`BatchConfig::queue_depth`], when the flush window elapses, or on
    /// an explicit [`ZlogClient::flush`].
    pub fn append_async(&mut self, ctx: &mut Context<'_>, data: Vec<u8>) -> u64 {
        let op = self.new_append(ctx, data);
        self.append_queue.push(op);
        if self.append_queue.len() >= self.batch_cfg.queue_depth.max(1) {
            self.flush(ctx);
        } else {
            self.arm_flush_timer(ctx);
        }
        op
    }

    /// Enters an append, `Queued` under its `zlog.append` span with the
    /// `zlog.queue` child open: whoever starts its batch ends that.
    fn new_append(&mut self, ctx: &mut Context<'_>, data: Vec<u8>) -> u64 {
        let op = self.begin(ctx, OpKind::Append { data }, Stage::Queued);
        let root = ctx.span_start("zlog.append", None);
        let queue = ctx.span_start("zlog.queue", Some(root));
        if let Some(pending) = self.ops.get_mut(op) {
            pending.span = Some(root);
            pending.queue_span = Some(queue);
        }
        op
    }

    /// Drains the append queue now, forming one batch per
    /// [`BatchConfig::queue_depth`] chunk.
    pub fn flush(&mut self, ctx: &mut Context<'_>) {
        if let Some(timer) = self.flush_timer.take() {
            ctx.cancel_timer(timer);
        }
        while !self.append_queue.is_empty() {
            let take = self
                .append_queue
                .len()
                .min(self.batch_cfg.queue_depth.max(1));
            let members: Vec<u64> = self.append_queue.drain(..take).collect();
            self.start_batch(ctx, members);
        }
    }

    fn arm_flush_timer(&mut self, ctx: &mut Context<'_>) {
        if self.flush_timer.is_none() && !self.append_queue.is_empty() {
            self.flush_timer = Some(ctx.set_timer(self.batch_cfg.flush_window, TOKEN_FLUSH));
        }
    }

    /// Reads `pos`; resolves to [`ZlogOut::Read`]. A `read_batch` of one
    /// position that records as one read in the history.
    pub fn read(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        self.start_read(ctx, OpKind::Read { pos }, None)
    }

    /// Vectored read: one `read_batch` RADOS op per stripe object covers
    /// the whole position vector. Resolves to [`ZlogOut::ReadBatch`] with
    /// a tagged outcome for every requested position, in request order —
    /// unwritten positions come back as [`ReadOutcome::NotWritten`], not
    /// as errors.
    pub fn read_batch(&mut self, ctx: &mut Context<'_>, positions: Vec<u64>) -> u64 {
        self.start_read(ctx, OpKind::ReadBatch { positions }, None)
    }

    /// Starts a read op of `kind` under its `zlog.read_batch` span; one a
    /// cursor starts is the cursor's internal op.
    fn start_read(&mut self, ctx: &mut Context<'_>, kind: OpKind, cursor: Option<u64>) -> u64 {
        let stage = Stage::ReadVector {
            outstanding: 0,
            parts: Vec::new(),
        };
        let op = self.begin(ctx, kind, stage);
        let span = ctx.span_start("zlog.read_batch", None);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.internal = cursor.is_some();
            pending.cursor = cursor;
            pending.span = Some(span);
        }
        self.record_batch_reads(ctx, op);
        self.step_read_batch(ctx, op);
        op
    }

    /// Prefix trim: every position strictly below `pos` becomes trimmed,
    /// one `trim_upto` watermark call per stripe object (O(1) state per
    /// stripe; covered omap entries are purged for space reclaim).
    /// Resolves to [`ZlogOut::Done`].
    pub fn trim_to(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        let op = self.begin(
            ctx,
            OpKind::TrimUpto { pos },
            Stage::TrimFan { outstanding: 0 },
        );
        self.step_trim_upto(ctx, op);
        op
    }

    /// Persists `(pos, blob)` on the per-log checkpoint object: `blob`
    /// captures the state after applying positions `[0, pos)`. The
    /// checkpoint only ever advances; resolves to
    /// [`ZlogOut::CheckpointAt`] with the position now held.
    pub fn checkpoint(&mut self, ctx: &mut Context<'_>, pos: u64, blob: Vec<u8>) -> u64 {
        let op = self.begin(ctx, OpKind::Checkpoint { pos, blob }, Stage::CkptWrite);
        self.step_checkpoint(ctx, op);
        op
    }

    /// Reads the latest checkpoint; resolves to [`ZlogOut::Checkpoint`]
    /// (`None` when no checkpoint was ever taken).
    pub fn checkpoint_read(&mut self, ctx: &mut Context<'_>) -> u64 {
        let op = self.begin(ctx, OpKind::CheckpointRead, Stage::CkptRead);
        self.step_ckpt_read(ctx, op);
        op
    }

    /// Creates a pipelined tailing reader and returns its cursor id. The
    /// cursor starts from the latest checkpoint position (position 0 when
    /// none exists), discovers the tail via the sequencer, and prefetches
    /// within the client's [`ReadConfig`] window. Drive it with
    /// [`ZlogClient::cursor_next_batch`].
    pub fn tail_cursor(&mut self, ctx: &mut Context<'_>) -> u64 {
        let id = self.next_cursor;
        self.next_cursor += 1;
        self.cursors.insert(
            id,
            Cursor {
                cfg: self.read_cfg.clone(),
                window: Window::default(),
                tail: 0,
                started: false,
                ckpt_inflight: false,
                tail_inflight: false,
                tail_fresh: false,
                inflight_ops: 0,
                waiter: None,
            },
        );
        self.drive_cursor(ctx, id);
        id
    }

    /// Requests the next in-order batch (at most `max` entries) from
    /// cursor `id`; resolves to [`ZlogOut::CursorBatch`]. An empty batch
    /// means the cursor is caught up with a freshly read tail. Holes
    /// below the tail are resolved (junk-filled, then re-read) before
    /// delivery, so entries always arrive in contiguous position order.
    pub fn cursor_next_batch(&mut self, ctx: &mut Context<'_>, id: u64, max: usize) -> u64 {
        let op = self.begin(ctx, OpKind::CursorBatch, Stage::CursorWait);
        let span = ctx.span_start("zlog.cursor_batch", None);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.span = Some(span);
            pending.cursor = Some(id);
        }
        let Some(cursor) = self.cursors.get_mut(&id) else {
            self.fail(ctx, op, format!("no such cursor {id}"));
            return op;
        };
        cursor.tail_fresh = false;
        let old = cursor.waiter.replace((op, max.max(1)));
        if let Some((old_op, _)) = old {
            // One waiter at a time; a superseded one fails cleanly.
            self.fail(ctx, old_op, "superseded by a newer next_batch");
        }
        self.drive_cursor(ctx, id);
        op
    }

    /// Junk-fills `pos`; resolves to [`ZlogOut::Done`].
    pub fn fill(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        let op = self.begin(ctx, OpKind::Fill { pos }, Stage::Mutate);
        self.step_fill(ctx, op);
        op
    }

    /// Reads the sequencer tail without advancing it.
    pub fn check_tail(&mut self, ctx: &mut Context<'_>) -> u64 {
        let op = self.begin(ctx, OpKind::CheckTail, Stage::Tail);
        self.step_tail(ctx, op);
        op
    }

    /// Runs CORFU sequencer recovery through the sequencer's authority,
    /// which seals the log as a promoted standby does — a new epoch in the
    /// monitor's zlog map, `seal` on every stripe object — and restarts
    /// the tail past the highest written position. Resolves to
    /// [`ZlogOut::Recovered`] once this client runs under the epoch that
    /// seal installed.
    pub fn recover(&mut self, ctx: &mut Context<'_>) -> u64 {
        let op = self.begin(ctx, OpKind::Recover, Stage::Recover { sealed: None });
        self.step_recover(ctx, op);
        op
    }

    // ---- plumbing ----

    /// Sends `msg` to `rank`'s node if one is known (the live map wins
    /// over the static config — after a failover the rank lives on the
    /// promoted standby's node). With the rank unroutable the message
    /// is withheld and the owning op is parked on the mdsmap:
    /// adoption of a fresh map re-drives it immediately
    /// ([`ZlogClient::redrive_on_mdsmap`]), and the
    /// watchdog backoff remains the backstop for lost maps. A request
    /// sent is noted on its op ([`MdsSent`]).
    fn send_mds(
        &mut self,
        ctx: &mut Context<'_>,
        rank: u32,
        msg: MdsMsg,
        span: Option<SpanContext>,
    ) {
        let op = self.mds_owner(&msg);
        match self.router.node_for_rank(rank) {
            Some(node) => {
                let epoch = self.epoch;
                if let Some(pending) = op.and_then(|op| self.ops.get_mut(op)) {
                    pending.mds_sent = Some(MdsSent { rank, node, epoch });
                }
                ctx.send_spanned(node, msg, span);
            }
            None => {
                ctx.metrics().bump(counter!("zlog.mds_unroutable"), 1);
                if let Some(op) = op {
                    self.ops.park(op, Park::MdsMap);
                }
            }
        }
    }

    /// The op awaiting the reply to `msg`. Messages with no reply routing
    /// (fire-and-forget `SetSeqLayout`) have none.
    fn mds_owner(&self, msg: &MdsMsg) -> Option<u64> {
        let reqid = match msg {
            MdsMsg::Resolve { reqid, .. }
            | MdsMsg::Create { reqid, .. }
            | MdsMsg::TypeOp { reqid, .. } => *reqid,
            _ => return None,
        };
        self.ops.owner(Route::Mds(reqid))
    }

    /// Sends a namespace op (resolve/create) to the home rank, which
    /// owns the directory tree.
    fn send_home(&mut self, ctx: &mut Context<'_>, msg: MdsMsg) {
        self.send_mds(ctx, self.router.home_rank(), msg, None);
    }

    /// Sends sequencer traffic for `ino` to its cached authoritative
    /// rank (home until a placement is learned).
    fn send_seq(&mut self, ctx: &mut Context<'_>, ino: Ino, msg: MdsMsg) {
        self.send_mds(ctx, self.router.rank_of(ino), msg, None);
    }

    /// Typed transient MDS error (frozen inode, mid-takeover recovery,
    /// missing layout, vacant rank). Those replies arrive at full message
    /// speed, so pacing must come from us: the watchdog's capped exponential
    /// backoff is re-armed (superseding the old timer) and re-drives the
    /// op; a flat short delay would burn the whole attempt budget inside
    /// one takeover window. `MdsUnavailable` additionally drops every
    /// cached placement at the vacant rank (affected logs re-resolve
    /// through home instead of hammering a dead address) and parks the op
    /// on the mdsmap so adoption re-drives it at once. `LayoutMissing`
    /// sends the layout the authority asked for. `Recovering` parks the op
    /// on the epoch its request went out under: the seal ends by
    /// installing a newer one, whose adoption re-drives it, and a request
    /// sent before this client adopted that epoch goes again now.
    fn on_mds_transient(&mut self, ctx: &mut Context<'_>, op: u64, e: &MdsError) {
        match (e, self.seq_ino) {
            (MdsError::MdsUnavailable { rank }, _) => {
                self.router.invalidate_rank(*rank);
                self.ops.park(op, Park::MdsMap);
            }
            (MdsError::LayoutMissing, Some(ino)) => self.register_layout(ctx, ino),
            (MdsError::Recovering, _) => {
                let sent = self.ops.get(op).and_then(|p| p.mds_sent);
                let sent = sent.map_or(self.epoch, |sent| sent.epoch);
                if sent < self.epoch {
                    return self.restart_op(ctx, op);
                }
                ctx.metrics().bump(counter!("zlog.recovering_parks"), 1);
                self.ops.park(op, Park::Epoch(sent));
            }
            _ => {}
        }
        // Kept as found: a batch pays an attempt and counts a retry for a
        // transient reply, a single op does neither.
        if self.is_batch(op) {
            if !self.burn_attempt(ctx, op) {
                return;
            }
            ctx.metrics().bump(counter!("zlog.retries"), 1);
        }
        self.arm_watchdog(ctx, op);
    }

    /// `NotAuth { rank }` redirect (direct-mode migration): cache the
    /// new placement and re-drive immediately. Going through
    /// `restart_op` burns an attempt, which bounds the ping-pong when
    /// two ranks disagree mid-migration.
    fn on_redirect(&mut self, ctx: &mut Context<'_>, op: u64, rank: u32) {
        ctx.metrics().bump(counter!("zlog.redirects"), 1);
        if let Some(ino) = self.seq_ino {
            self.router.learn(ino, rank);
        }
        self.restart_op(ctx, op);
    }

    /// Tells the authoritative MDS where this log's stripe objects live so
    /// a promoted standby can seal them before reissuing positions.
    /// Fire-and-forget and idempotent; sent on every resolve and whenever
    /// an MDS answers `LayoutMissing`, so a lost copy (or an MDS whose
    /// journal missed the `SeqLayout` entry before a crash) costs a retry,
    /// never a layout-blind authority.
    fn register_layout(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        ctx.metrics().bump(counter!("zlog.layouts_sent"), 1);
        self.send_seq(
            ctx,
            ino,
            MdsMsg::SetSeqLayout {
                ino,
                pool: Rc::clone(&self.names.pool),
                name: Rc::clone(&self.names.log),
                stripe_width: self.config.stripe_width,
            },
        );
    }

    fn mds_reqid(&mut self, op: u64) -> u64 {
        let reqid = self.next_seq;
        self.next_seq += 1;
        self.ops.hold(op, Route::Mds(reqid));
        reqid
    }

    /// The stripe object holding `pos`: a refcount of the id built with
    /// the client.
    fn stripe_oid(&self, pos: u64) -> ObjectId {
        let stripe = pos % self.names.stripes.len() as u64;
        self.names.stripes[stripe as usize].clone()
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
        let now = ctx.now();
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
        if let Some(rec) = &self.history {
            // An open probe-seal fill dies with the op: its outcome stays
            // unknown (the fill request may still land).
            if let Some(id) = pending.seal_hist {
                rec.info(id, now, None, "fill outcome unknown");
            }
            // A vectored read closes one record per position. Reads have
            // no side effects, so a dead batch is a definite failure.
            if !pending.multi_hist.is_empty() {
                let by_pos: HashMap<u64, &ReadOutcome> = match &result {
                    AppendResult::Ok(ZlogOut::ReadBatch(entries)) => {
                        entries.iter().map(|(p, o)| (*p, o)).collect()
                    }
                    _ => HashMap::new(),
                };
                for (id, pos) in &pending.multi_hist {
                    match by_pos.get(pos) {
                        Some(o) => rec.ok(*id, now, LogRet::Read(log_read_of(o))),
                        None => rec.fail(*id, now, "batch read failed"),
                    }
                }
            }
            if let Some(hist) = pending.hist {
                match &result {
                    AppendResult::Ok(out) => {
                        if let Some(ret) = log_ret_of(out) {
                            rec.ok(hist, now, ret);
                        }
                    }
                    AppendResult::Err(msg) => {
                        // Outer None = definite failure; Some(maybe) =
                        // ambiguous, with the return the op would have
                        // yielded had it applied.
                        let info: Option<Option<LogRet>> = if !ambiguous_hint {
                            None
                        } else {
                            match &pending.stage {
                                Stage::WriteProbe { pos } | Stage::WriteSeal { pos } => {
                                    Some(Some(LogRet::Pos(*pos)))
                                }
                                Stage::Mutate => Some(None),
                                // A trim fan with any stripe outstanding may
                                // have trimmed a prefix of the range already.
                                Stage::TrimFan { .. } => Some(None),
                                Stage::InBatch { batch } => self
                                    .inflight_batch_pos(*batch, op)
                                    .map(|pos| Some(LogRet::Pos(pos))),
                                _ => None,
                            }
                        };
                        match info {
                            Some(maybe) => rec.info(hist, now, maybe, msg.clone()),
                            None => rec.fail(hist, now, msg.clone()),
                        }
                    }
                }
            }
        }
        match pending.cursor {
            // A cursor's internal op (consult, tail, fetch, heal) has no
            // other consumer: the cursor takes the result itself.
            Some(cid) if pending.internal => self.on_cursor_op_done(ctx, cid, pending.kind, result),
            // A `next_batch` waiter: the cursor only learns that it is
            // gone; the result is the caller's.
            Some(cid) => {
                if let Some(cursor) = self.cursors.get_mut(&cid) {
                    if cursor.waiter.is_some_and(|(w, _)| w == op) {
                        cursor.waiter = None;
                    }
                }
                self.drive_cursor(ctx, cid);
                self.results.insert(op, result);
            }
            // Hole fills complete silently; EEXIST ("already written") is
            // success here — the cell is occupied either way.
            None if pending.internal => {}
            None => {
                self.results.insert(op, result);
            }
        }
    }

    /// Position of a write of `batch` still in flight that carries `op`,
    /// if any: an `InBatch` member dying mid-write is ambiguous at that
    /// position.
    fn inflight_batch_pos(&self, batch: u64, op: u64) -> Option<u64> {
        let pending = self.ops.get(batch)?;
        let (OpKind::Batch { members }, Stage::BatchWrite { groups }) =
            (&pending.kind, &pending.stage)
        else {
            return None;
        };
        groups
            .iter()
            .flat_map(|group| &group.cells)
            .find(|(i, _)| members.get(*i) == Some(&op))
            .map(|(_, pos)| *pos)
    }

    fn is_batch(&self, op: u64) -> bool {
        matches!(self.ops.get(op), Some(p) if matches!(p.kind, OpKind::Batch { .. }))
    }

    /// Closes the open probe-seal fill record on `op`, if any.
    fn close_seal_hist(&mut self, now: SimTime, op: u64, how: SealClose) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        let Some(id) = pending.seal_hist.take() else {
            return;
        };
        let Some(rec) = &self.history else {
            return;
        };
        match how {
            SealClose::Applied => rec.ok(id, now, LogRet::Done),
            SealClose::NotApplied => rec.fail(id, now, "position already written"),
            SealClose::Unknown => rec.info(id, now, None, "fill outcome unknown"),
        }
    }

    /// The `Op::Call` of `method` on the `zlog` class: its names are
    /// refcounts of the client's handles.
    fn class_call(&self, method: Method, input: Vec<u8>) -> Op {
        Op::Call {
            class: Rc::clone(&self.names.class),
            method: Rc::clone(&self.names.methods[method as usize]),
            input: input.into(),
        }
    }

    fn call_class(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        oid: ObjectId,
        method: Method,
        input: Vec<u8>,
    ) {
        let call = self.class_call(method, input);
        let reqid = self.rados.submit_spanned(ctx, oid, vec![call], None, ());
        self.ops.hold(op, Route::Rados(reqid));
    }

    /// Calls a per-cell class method (`fill`, `trim_upto`) on the stripe
    /// object holding `pos`; each takes `epoch|pos`.
    fn call_cell(&mut self, ctx: &mut Context<'_>, op: u64, method: Method, pos: u64) {
        let input = format!("{}|{pos}", self.epoch).into_bytes();
        let oid = self.stripe_oid(pos);
        self.call_class(ctx, op, oid, method, input);
    }

    /// Asks the home rank, which owns the directory tree, for the
    /// sequencer inode and its authoritative rank; the reply routes to
    /// `op`, and `span` (a batch's grant) parents the round trip.
    fn send_resolve(&mut self, ctx: &mut Context<'_>, op: u64, span: Option<SpanContext>) {
        let reqid = self.mds_reqid(op);
        let path = self.names.seq_path.clone();
        let home = self.router.home_rank();
        self.send_mds(ctx, home, MdsMsg::Resolve { reqid, path }, span);
    }

    /// (Re-)starts namespace setup from the top: mkdir/create tolerate
    /// `Exists`, so replaying is safe.
    fn step_setup(&mut self, ctx: &mut Context<'_>, op: u64) {
        if let Some(p) = self.ops.get_mut(op) {
            p.stage = Stage::SetupDir;
        }
        let reqid = self.mds_reqid(op);
        self.send_home(
            ctx,
            MdsMsg::Create {
                reqid,
                parent_path: "/".into(),
                name: "zlog".into(),
                ftype: FileType::Dir,
            },
        );
    }

    /// (Re-)drives recovery: the seal request until the authority answers
    /// it, then the wait for the epoch that seal installed. A seal request
    /// that arrives while a seal runs joins it, so a re-sent one starts no
    /// second seal; the seal joined may be one whose epoch this client
    /// already runs under.
    fn step_recover(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        let sealed = match pending.stage {
            Stage::Recover { sealed } => sealed,
            _ => None,
        };
        match sealed {
            None => self.send_seq_op(ctx, op, SeqOp::Seal, Stage::Recover { sealed: None }),
            Some((epoch, tail)) if self.epoch >= epoch => {
                let out = ZlogOut::Recovered { epoch, tail };
                self.finish(ctx, op, AppendResult::Ok(out));
            }
            Some((epoch, _)) => {
                // Re-driven once the client's epoch passes the one below.
                self.ops.park(op, Park::Epoch(epoch - 1));
                self.fetch_epoch(ctx);
            }
        }
    }

    fn step_tail(&mut self, ctx: &mut Context<'_>, op: u64) {
        self.send_seq_op(ctx, op, SeqOp::Read, Stage::Tail);
    }

    /// Sends sequencer verb `verb` for `op` to the inode's authority, the
    /// op waiting in `stage`, or resolves the inode first.
    fn send_seq_op(&mut self, ctx: &mut Context<'_>, op: u64, verb: SeqOp, stage: Stage) {
        let Some(ino) = self.seq_ino else {
            if let Some(p) = self.ops.get_mut(op) {
                p.stage = Stage::ResolveSeq;
            }
            self.send_resolve(ctx, op, None);
            return;
        };
        // Re-entered after a lazy resolve: move the stage back so the
        // TypeOpReply is not dropped by the ResolveSeq arm's catch-all.
        if let Some(p) = self.ops.get_mut(op) {
            p.stage = stage;
        }
        let reqid = self.mds_reqid(op);
        self.send_seq(
            ctx,
            ino,
            MdsMsg::TypeOp {
                reqid,
                ino,
                op: verb,
            },
        );
    }

    /// (Re-)issues a fill's one call.
    fn step_fill(&mut self, ctx: &mut Context<'_>, op: u64) {
        if let Some(OpKind::Fill { pos }) = self.ops.get(op).map(|p| &p.kind) {
            let pos = *pos;
            self.call_cell(ctx, op, Method::Fill, pos);
        }
    }

    /// (Re-)issues a vectored read: the op's position vector grouped by
    /// stripe, one `read_batch` RADOS op per stripe object, in ascending
    /// stripe order.
    fn step_read_batch(&mut self, ctx: &mut Context<'_>, op: u64) {
        let width = u64::from(self.config.stripe_width).max(1);
        let Some(positions) = self.ops.get(op).and_then(|p| p.kind.read_positions()) else {
            return;
        };
        if positions.is_empty() {
            self.finish(ctx, op, AppendResult::Ok(ZlogOut::ReadBatch(Vec::new())));
            return;
        }
        // Stripe by stripe, each stripe's positions in request order: the
        // sort is stable.
        let mut sorted = positions.to_vec();
        sorted.sort_by_key(|pos| pos % width);
        let mut rest = &sorted[..];
        let mut groups = 0;
        while let Some(first) = rest.first() {
            let on_stripe = rest.iter().take_while(|pos| *pos % width == first % width);
            let (group, tail) = rest.split_at(on_stripe.count());
            self.call_read_batch(ctx, op, group);
            rest = tail;
            groups += 1;
        }
        if let Some(pending) = self.ops.get_mut(op) {
            pending.stage = Stage::ReadVector {
                outstanding: groups,
                parts: Vec::with_capacity(groups),
            };
        }
    }

    /// Calls `read_batch` for `positions`, which share one stripe object.
    fn call_read_batch(&mut self, ctx: &mut Context<'_>, op: u64, positions: &[u64]) {
        let oid = self.stripe_oid(positions[0]);
        ctx.metrics().bump(counter!("rados.read_batch_ops"), 1);
        ctx.metrics().bump(
            counter!("rados.read_batch_positions"),
            positions.len() as u64,
        );
        let input = encode_read_batch(self.epoch, positions);
        self.call_class(ctx, op, oid, Method::ReadBatch, input);
    }

    /// (Re-)issues the per-stripe `trim_upto` fan of a prefix trim.
    fn step_trim_upto(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        let OpKind::TrimUpto { pos } = pending.kind else {
            return;
        };
        if pos == 0 {
            self.finish(ctx, op, AppendResult::Ok(ZlogOut::Done));
            return;
        }
        let width = u64::from(self.config.stripe_width).max(1);
        let last = pos - 1;
        // Per stripe: the greatest position <= last living there, if any.
        let mut targets: Vec<u64> = Vec::new();
        for s in 0..width {
            let delta = (last % width + width - s) % width;
            if let Some(p) = last.checked_sub(delta) {
                targets.push(p);
            }
        }
        pending.stage = Stage::TrimFan {
            outstanding: targets.len(),
        };
        for p in targets {
            self.call_cell(ctx, op, Method::TrimUpto, p);
        }
    }

    fn step_checkpoint(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        let OpKind::Checkpoint { pos, blob } = pending.kind.clone() else {
            return;
        };
        let input = encode_checkpoint(self.epoch, pos, &blob);
        let oid = self.names.ckpt.clone();
        self.call_class(ctx, op, oid, Method::Checkpoint, input);
    }

    fn step_ckpt_read(&mut self, ctx: &mut Context<'_>, op: u64) {
        let oid = self.names.ckpt.clone();
        self.call_class(ctx, op, oid, Method::CheckpointRead, Vec::new());
    }

    /// Records one history read per position of a vectored read op, so
    /// the checker sees each position's observation individually.
    fn record_batch_reads(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(rec) = &self.history else {
            return;
        };
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        let OpKind::ReadBatch { positions } = &pending.kind else {
            return;
        };
        let client = u64::from(ctx.me().0);
        let now = ctx.now();
        let ids: Vec<(u64, u64)> = positions
            .iter()
            .map(|&pos| (rec.invoke(client, now, LogOp::Read { pos }), pos))
            .collect();
        if let Some(pending) = self.ops.get_mut(op) {
            pending.multi_hist = ids;
        }
    }

    // ---- tailing cursors ----

    /// Advances cursor `id` as far as current state allows: resolve the
    /// checkpointed start, serve the waiter a contiguous run (or a fresh
    /// "caught up"), and keep the prefetch window full.
    fn drive_cursor(&mut self, ctx: &mut Context<'_>, id: u64) {
        {
            let Some(cursor) = self.cursors.get(&id) else {
                return;
            };
            if !cursor.started {
                if !cursor.ckpt_inflight {
                    self.spawn_cursor_ckpt(ctx, id);
                }
                return;
            }
        }
        // Delivery: a contiguous run from the delivery point, capped by
        // the waiter's batch size.
        let mut deliver: Option<(u64, Vec<(u64, ReadOutcome)>)> = None;
        let mut need_tail = false;
        if let Some(cursor) = self.cursors.get_mut(&id) {
            if let Some((op, max)) = cursor.waiter {
                let entries = cursor.window.deliver(max);
                if !entries.is_empty() {
                    cursor.waiter = None;
                    deliver = Some((op, entries));
                } else if cursor.window.next_pos() >= cursor.tail {
                    if cursor.tail_fresh {
                        // Caught up against a freshly read tail.
                        cursor.waiter = None;
                        deliver = Some((op, Vec::new()));
                    } else if !cursor.tail_inflight {
                        need_tail = true;
                    }
                }
            }
        }
        if need_tail {
            self.spawn_cursor_tail(ctx, id);
        }
        if let Some((op, entries)) = deliver {
            ctx.metrics()
                .bump(counter!("zlog.cursor_entries"), entries.len() as u64);
            self.finish(ctx, op, AppendResult::Ok(ZlogOut::CursorBatch(entries)));
        }
        // Prefetch: fill the read-ahead window, one fetch op per stripe
        // group, without exceeding the in-flight cap. Only the part of the
        // window above the high-water mark can hold anything to request.
        let groups = {
            let Some(cursor) = self.cursors.get_mut(&id) else {
                return;
            };
            let room = cursor
                .cfg
                .max_inflight
                .max(1)
                .saturating_sub(cursor.inflight_ops);
            if room == 0 {
                return;
            }
            let width = u64::from(self.config.stripe_width).max(1);
            let hi = cursor
                .tail
                .min(cursor.window.next_pos() + cursor.cfg.readahead.max(1) as u64);
            let mut by_stripe: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for p in cursor.window.missing(hi) {
                by_stripe.entry(p % width).or_default().push(p);
            }
            let mut groups: Vec<Vec<u64>> = by_stripe.into_values().collect();
            // Groups the cap leaves out stay above the mark for the next
            // pass.
            let left_out = groups.split_off(room.min(groups.len()));
            let mark = left_out.iter().map(|g| g[0]).fold(hi, u64::min);
            cursor.window.set_requested(mark);
            groups
        };
        for group in groups {
            self.spawn_cursor_fetch(ctx, id, group);
        }
    }

    /// Internal checkpoint consult resolving the cursor's start position.
    fn spawn_cursor_ckpt(&mut self, ctx: &mut Context<'_>, id: u64) {
        if let Some(cursor) = self.cursors.get_mut(&id) {
            cursor.ckpt_inflight = true;
        }
        let op = self.begin(ctx, OpKind::CheckpointRead, Stage::CkptRead);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.internal = true;
            pending.cursor = Some(id);
        }
        self.step_ckpt_read(ctx, op);
    }

    /// Internal tail read refreshing the cursor's upper bound.
    fn spawn_cursor_tail(&mut self, ctx: &mut Context<'_>, id: u64) {
        if let Some(cursor) = self.cursors.get_mut(&id) {
            cursor.tail_inflight = true;
        }
        let op = self.begin(ctx, OpKind::CheckTail, Stage::Tail);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.internal = true;
            pending.cursor = Some(id);
        }
        self.step_tail(ctx, op);
    }

    /// Internal vectored read prefetching one stripe group.
    fn spawn_cursor_fetch(&mut self, ctx: &mut Context<'_>, id: u64, positions: Vec<u64>) {
        if let Some(cursor) = self.cursors.get_mut(&id) {
            cursor.inflight_ops += 1;
            cursor.window.fetching(&positions);
        }
        self.start_read(ctx, OpKind::ReadBatch { positions }, Some(id));
    }

    /// Internal fill resolving a hole the cursor found below the tail
    /// (an append abandoned its grant; fence the cell so delivery can
    /// proceed — the re-read then observes Filled, or the racing write
    /// that beat the fill).
    fn spawn_cursor_heal(&mut self, ctx: &mut Context<'_>, id: u64, pos: u64) {
        if let Some(cursor) = self.cursors.get_mut(&id) {
            cursor.window.healing(pos);
        }
        ctx.metrics().bump(counter!("zlog.cursor_hole_fills"), 1);
        let op = self.begin(ctx, OpKind::Fill { pos }, Stage::Mutate);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.internal = true;
            pending.cursor = Some(id);
        }
        self.step_fill(ctx, op);
    }

    /// A cursor's internal op concluded: fold its result into the cursor
    /// and re-drive. The cursor is the result's only consumer, so it
    /// arrives by value and the outcomes move into the window.
    fn on_cursor_op_done(
        &mut self,
        ctx: &mut Context<'_>,
        id: u64,
        kind: OpKind,
        result: AppendResult,
    ) {
        let mut heal = Vec::new();
        {
            let Some(cursor) = self.cursors.get_mut(&id) else {
                return;
            };
            match kind {
                OpKind::CheckpointRead => {
                    cursor.ckpt_inflight = false;
                    if let AppendResult::Ok(ZlogOut::Checkpoint(ckpt)) = result {
                        cursor.started = true;
                        let start = ckpt.map_or(0, |(p, _)| p);
                        cursor.window.start_at(start);
                        cursor.tail = cursor.tail.max(start);
                    }
                    // On failure the cursor stays unstarted and the next
                    // drive (waiter watchdog) retries the consult.
                }
                OpKind::CheckTail => {
                    cursor.tail_inflight = false;
                    if let AppendResult::Ok(ZlogOut::Tail(t)) = result {
                        cursor.tail = cursor.tail.max(t);
                        cursor.tail_fresh = true;
                    }
                }
                OpKind::ReadBatch { positions } => {
                    cursor.inflight_ops = cursor.inflight_ops.saturating_sub(1);
                    // A failed fetch simply re-enters the needed set.
                    let entries = match result {
                        AppendResult::Ok(ZlogOut::ReadBatch(entries)) => Some(entries),
                        _ => None,
                    };
                    heal = cursor.window.fetched(&positions, entries, cursor.tail);
                }
                OpKind::Fill { pos } => cursor.window.healed(pos),
                _ => {}
            }
        }
        for p in heal {
            self.spawn_cursor_heal(ctx, id, p);
        }
        self.drive_cursor(ctx, id);
    }

    // ---- ambiguous-write resolution (probe/seal) ----
    //
    // A write whose reply is lost is *ambiguous*: the payload may sit in
    // the cell with nobody holding the ack. So is one bounced as occupied
    // (`EEXIST`): a retransmit of the same write may have landed it and
    // lost the reply that said so. Retrying at a fresh position
    // would orphan that data — a reader would then observe an entry no
    // acknowledged op wrote, which is a real linearizability violation.
    // Instead the append resolves the old position first: probe (read)
    // the cell; if our payload is there, claim the position; if someone
    // else owns it, the write-once class guarantees ours can never land,
    // so a fresh position is safe; if it is still a hole, junk-fill it so
    // the zombie write is fenced out, then take a fresh position. The
    // fill can itself race the in-flight write (EEXIST), in which case we
    // probe again; each leg burns an attempt, so the loop is bounded.

    /// Starts (or restarts) probe/seal resolution for an append whose
    /// write at `pos` has an unknown fate.
    fn enter_write_probe(&mut self, ctx: &mut Context<'_>, op: u64, pos: u64) {
        // Leaving WriteSeal with the fill unresolved (lost reply): the
        // fill may still apply, so its record closes as unknown.
        self.close_seal_hist(ctx.now(), op, SealClose::Unknown);
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        pending.stage = Stage::WriteProbe { pos };
        ctx.metrics().bump(counter!("zlog.write_probes"), 1);
        self.call_read_batch(ctx, op, &[pos]);
        self.arm_watchdog(ctx, op);
    }

    /// The probe found a hole: junk-fill `pos` so the in-flight write is
    /// fenced out before the append retries elsewhere.
    fn enter_write_seal(&mut self, ctx: &mut Context<'_>, op: u64, pos: u64) {
        let client = u64::from(ctx.me().0);
        let now = ctx.now();
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        pending.stage = Stage::WriteSeal { pos };
        if let Some(rec) = &self.history {
            let id = rec.invoke(client, now, LogOp::Fill { pos });
            if let Some(pending) = self.ops.get_mut(op) {
                pending.seal_hist = Some(id);
            }
        }
        ctx.metrics().bump(counter!("zlog.probe_seals"), 1);
        self.call_cell(ctx, op, Method::Fill, pos);
        self.arm_watchdog(ctx, op);
    }

    /// The probed position is resolved as not-ours (occupied by someone
    /// else, or fenced by our fill): retry the append at a fresh one, as a
    /// batch of one that skips the queue.
    fn retry_fresh_pos(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        // The old position is resolved as not-applied and no new write
        // was issued: past the budget this is a definite failure, which
        // is what an op dying in `Queued` records.
        pending.stage = Stage::Queued;
        if !self.burn_attempt(ctx, op) {
            return;
        }
        ctx.metrics().bump(counter!("zlog.retries"), 1);
        self.start_batch(ctx, vec![op]);
        // Its progress is the batch's now: the watchdog holds only its
        // deadline.
        self.arm_watchdog(ctx, op);
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
        match decimal::<u64>(value) {
            Some(epoch) if epoch > self.epoch => {
                self.epoch = epoch;
                let newer = |park: &Park| matches!(*park, Park::Epoch(e) if epoch > e);
                for op in self.ops.unpark(newer) {
                    self.restart_op(ctx, op);
                }
            }
            _ => {}
        }
    }

    /// Asks the monitor for the zlog map: a newer epoch in it re-drives
    /// the ops blocked on the one they ran under.
    fn fetch_epoch(&self, ctx: &mut Context<'_>) {
        let map = ZLOG_MAP.to_string();
        ctx.send(self.config.monitor, MonMsg::Get { map });
    }

    /// Re-drives every op parked on the mdsmap, then every op whose MDS
    /// request went to a node the map has moved its rank off: a crashed
    /// daemon answers nothing, and its promoted standby seals and grants
    /// only what reaches it. Runs on mdsmap adoption: the map change is
    /// progress, so no attempt is burned — without this, either would sit
    /// out the full watchdog backoff after the fresh map arrived.
    fn redrive_on_mdsmap(&mut self, ctx: &mut Context<'_>) {
        let mut parked = self.ops.unpark(|park| *park == Park::MdsMap);
        // Single ops go before batches, each in park order: the event
        // order of every seed so far depends on it.
        parked.sort_by_key(|op| self.is_batch(*op));
        self.redrive_after_map(ctx, parked);
        // Looked for after the parked ones went: those now have a request
        // out to a live node.
        let moved = |sent: &MdsSent| self.router.node_for_rank(sent.rank) != Some(sent.node);
        let mut stranded: Vec<u64> = (self.ops.iter())
            .filter(|(_, pending)| pending.mds_sent.as_ref().is_some_and(moved))
            .filter(|(op, _)| self.ops.routes(*op).any(|r| matches!(r, Route::Mds(_))))
            .map(|(op, _)| op)
            .collect();
        stranded.sort_unstable();
        self.redrive_after_map(ctx, stranded);
    }

    /// Re-drives each op of `ops` still in flight, in order, counting it
    /// in `zlog.mdsmap_redrives`.
    fn redrive_after_map(&mut self, ctx: &mut Context<'_>, ops: Vec<u64>) {
        for op in ops {
            if self.ops.contains_key(op) {
                ctx.metrics().bump(counter!("zlog.mdsmap_redrives"), 1);
                self.redrive_op(ctx, op);
            }
        }
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
        let write_pos = match pending.stage {
            Stage::WriteProbe { pos } | Stage::WriteSeal { pos } => Some(pos),
            _ => None,
        };
        // Drop any stale epoch-block entry and abandon outstanding
        // requests from earlier attempts: their late replies must not be
        // routed into the fresh attempt's state machine (for a batch, a
        // late duplicate grant must not double-grant).
        let routes = self.ops.take_routes(op);
        self.ops.unpark_id(op);
        self.forget_requests(ctx, &routes);
        let Some(pending) = self.ops.get(op) else {
            return;
        };
        match pending.kind {
            // Outside its queue and batch, an append is resolving a write
            // of unknown fate at `pos`: never abandon the position blindly
            // (the payload may have landed and would be orphaned) — probe
            // it again.
            OpKind::Append { .. } => {
                if let Some(pos) = write_pos {
                    self.enter_write_probe(ctx, op, pos);
                }
            }
            OpKind::Fill { .. } => self.step_fill(ctx, op),
            OpKind::Read { .. } | OpKind::ReadBatch { .. } => self.step_read_batch(ctx, op),
            OpKind::TrimUpto { .. } => self.step_trim_upto(ctx, op),
            OpKind::Checkpoint { .. } => self.step_checkpoint(ctx, op),
            OpKind::CheckpointRead => self.step_ckpt_read(ctx, op),
            OpKind::CursorBatch => {
                // The waiter owns no in-flight requests; re-kick the
                // cursor machinery instead.
                if let Some(id) = self.ops.get(op).and_then(|p| p.cursor) {
                    self.drive_cursor(ctx, id);
                }
            }
            OpKind::CheckTail => self.step_tail(ctx, op),
            OpKind::Batch { .. } => self.drive_batch_grant(ctx, op),
            OpKind::Setup => self.step_setup(ctx, op),
            OpKind::Recover => self.step_recover(ctx, op),
        }
        self.arm_watchdog(ctx, op);
    }

    fn on_rados_done(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        result: Result<Vec<OpResult>, OsdError>,
    ) {
        if !self.ops.contains_key(op) {
            return;
        }
        // A timed-out RADOS request (the embedded client exhausted its
        // retransmit deadline) is retryable at this level: re-drive the
        // whole op rather than surfacing a hang.
        if matches!(result, Err(OsdError::Timeout)) {
            ctx.metrics().bump(counter!("zlog.rados_timeouts"), 1);
            self.restart_op(ctx, op);
            return;
        }
        // The committed map places no OSD for the stripe (drain/removal
        // emptied the acting set). Unlike Timeout this arrives instantly,
        // so re-drive through the backoff watchdog rather than restarting
        // in a hot loop; a membership change clears the condition.
        if matches!(result, Err(OsdError::NoOsdsUp)) {
            ctx.metrics().bump(counter!("zlog.no_osds_up_retries"), 1);
            self.arm_watchdog(ctx, op);
            return;
        }
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        // Epoch guard: sealed object rejected our epoch.
        if let Err(OsdError::Class(ce)) = &result {
            if ce.code == -116 {
                // A probe-seal fill bounced by the epoch guard was
                // validated before applying: definitely not applied.
                if matches!(pending.stage, Stage::WriteSeal { .. }) {
                    self.close_seal_hist(ctx.now(), op, SealClose::NotApplied);
                }
                ctx.metrics().bump(counter!("zlog.estale_retries"), 1);
                self.ops.park(op, Park::Epoch(self.epoch));
                self.fetch_epoch(ctx);
                return;
            }
        }
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        match &mut pending.stage {
            Stage::WriteProbe { pos } => {
                let pos = *pos;
                let cell = read_reply(&result).and_then(|mut cells| cells.pop());
                match cell
                    .filter(|(at, _)| *at == pos)
                    .map(|(_, outcome)| outcome)
                {
                    Some(ReadOutcome::Data(held)) => {
                        if matches!(&pending.kind, OpKind::Append { data } if *data == held) {
                            // Our write landed; the ack was lost.
                            ctx.metrics().bump(counter!("zlog.probes_claimed"), 1);
                            self.finish(ctx, op, AppendResult::Ok(ZlogOut::Pos(pos)));
                        } else {
                            // Foreign entry: write-once means our write can
                            // never land here.
                            self.retry_fresh_pos(ctx, op);
                        }
                    }
                    Some(ReadOutcome::Filled | ReadOutcome::Trimmed) => {
                        self.retry_fresh_pos(ctx, op)
                    }
                    Some(ReadOutcome::NotWritten) => self.enter_write_seal(ctx, op, pos),
                    // An error or a malformed reply: probe again with backoff.
                    None => self.restart_op(ctx, op),
                }
            }
            Stage::WriteSeal { .. } => match result {
                Ok(_) => {
                    // The hole is fenced: the zombie write can never land.
                    self.close_seal_hist(ctx.now(), op, SealClose::Applied);
                    ctx.metrics().bump(counter!("zlog.probes_sealed"), 1);
                    self.retry_fresh_pos(ctx, op);
                }
                Err(OsdError::Class(ce)) if ce.code == -17 => {
                    // The cell got occupied between probe and fill —
                    // possibly by our own in-flight write. Probe again.
                    self.close_seal_hist(ctx.now(), op, SealClose::NotApplied);
                    self.restart_op(ctx, op);
                }
                Err(_) => self.restart_op(ctx, op),
            },
            Stage::Mutate => match result {
                Ok(_) => self.finish(ctx, op, AppendResult::Ok(ZlogOut::Done)),
                Err(OsdError::Class(ce)) if ce.code == -17 => {
                    self.fail(ctx, op, "position already written")
                }
                Err(e) => self.fail(ctx, op, format!("mutation failed: {e}")),
            },
            Stage::ReadVector { outstanding, parts } => {
                let Some(part) = read_reply(&result) else {
                    self.restart_op(ctx, op);
                    return;
                };
                parts.push(part);
                *outstanding = outstanding.saturating_sub(1);
                if *outstanding > 0 {
                    return;
                }
                let Some(positions) = pending.kind.read_positions() else {
                    return;
                };
                let point = matches!(pending.kind, OpKind::Read { .. });
                let width = u64::from(self.config.stripe_width).max(1);
                let out = match in_request_order(positions, std::mem::take(parts), width) {
                    Some(mut one) if point => one.pop().map(|(_, outcome)| ZlogOut::Read(outcome)),
                    ordered => ordered.map(ZlogOut::ReadBatch),
                };
                match out {
                    Some(out) => self.finish(ctx, op, AppendResult::Ok(out)),
                    // A group replied without one of its positions:
                    // malformed; re-issue the vector.
                    None => self.restart_op(ctx, op),
                }
            }
            Stage::TrimFan { outstanding } => match result {
                Ok(_) => {
                    *outstanding = outstanding.saturating_sub(1);
                    if *outstanding == 0 {
                        self.finish(ctx, op, AppendResult::Ok(ZlogOut::Done));
                    }
                }
                // trim_upto is idempotent: any stripe error re-issues the
                // whole fan.
                Err(_) => self.restart_op(ctx, op),
            },
            Stage::CkptWrite => match result {
                Ok(outs) => {
                    let held = match outs.first() {
                        Some(OpResult::CallOut(bytes)) => decimal::<u64>(bytes),
                        _ => None,
                    };
                    match held {
                        Some(held) => {
                            self.finish(ctx, op, AppendResult::Ok(ZlogOut::CheckpointAt(held)))
                        }
                        None => self.restart_op(ctx, op),
                    }
                }
                Err(OsdError::Class(ce)) => {
                    self.fail(ctx, op, format!("checkpoint rejected: {}", ce.message))
                }
                Err(_) => self.restart_op(ctx, op),
            },
            Stage::CkptRead => {
                let ckpt = match result.as_ref().map(|outs| outs.first()) {
                    Ok(Some(OpResult::CallList(items))) => checkpoint_of(items).ok(),
                    _ => None,
                };
                match ckpt {
                    Some(ckpt) => self.finish(ctx, op, AppendResult::Ok(ZlogOut::Checkpoint(ckpt))),
                    None => self.restart_op(ctx, op),
                }
            }
            _ => {}
        }
    }

    fn on_mds_reply(&mut self, ctx: &mut Context<'_>, op: u64, msg: MdsMsg) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        match (&mut pending.stage, msg) {
            (Stage::SetupDir, MdsMsg::Created { result, .. }) => match result {
                Ok(_) | Err(MdsError::Exists) => {
                    pending.stage = Stage::SetupSeq;
                    let reqid = self.mds_reqid(op);
                    let name = self.config.name.clone();
                    self.send_home(
                        ctx,
                        MdsMsg::Create {
                            reqid,
                            parent_path: "/zlog".into(),
                            name,
                            ftype: FileType::Sequencer,
                        },
                    );
                }
                Err(e) if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                Err(e) => self.fail(ctx, op, format!("mkdir /zlog failed: {e}")),
            },
            (Stage::SetupSeq, MdsMsg::Created { result, .. }) => match result {
                Ok(ino) => {
                    self.seq_ino = Some(ino);
                    self.register_layout(ctx, ino);
                    self.finish(ctx, op, AppendResult::Ok(ZlogOut::SetUp(ino)));
                }
                Err(MdsError::Exists) => {
                    pending.stage = Stage::ResolveSeq;
                    self.send_resolve(ctx, op, None);
                }
                Err(e) if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                Err(e) => self.fail(ctx, op, format!("create sequencer failed: {e}")),
            },
            (Stage::ResolveSeq | Stage::BatchGrant { .. }, MdsMsg::Resolved { result, .. }) => {
                match result {
                    Ok((ino, rank)) => {
                        self.seq_ino = Some(ino);
                        // The resolve carries the authoritative rank: route
                        // sequencer traffic straight there.
                        self.router.learn(ino, rank);
                        let kind = pending.kind.clone();
                        self.register_layout(ctx, ino);
                        match kind {
                            OpKind::Setup => {
                                self.finish(ctx, op, AppendResult::Ok(ZlogOut::SetUp(ino)))
                            }
                            OpKind::CheckTail => self.step_tail(ctx, op),
                            OpKind::Recover => self.step_recover(ctx, op),
                            OpKind::Batch { .. } => self.redrive_op(ctx, op),
                            _ => {}
                        }
                    }
                    Err(e) if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                    Err(e) => self.fail(ctx, op, format!("sequencer resolve failed: {e}")),
                }
            }
            (Stage::Tail, MdsMsg::TypeOpReply { result, .. }) => match result {
                Ok(tail) => self.finish(ctx, op, AppendResult::Ok(ZlogOut::Tail(tail))),
                Err(MdsError::NotAuth { rank }) => self.on_redirect(ctx, op, rank),
                Err(e) if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                Err(e) => self.fail(ctx, op, format!("tail read failed: {e}")),
            },
            (Stage::Recover { sealed }, MdsMsg::Sealed { epoch, tail, .. }) => {
                *sealed = Some((epoch, tail));
                self.step_recover(ctx, op);
            }
            (Stage::Recover { .. }, MdsMsg::TypeOpReply { result: Err(e), .. }) => match e {
                MdsError::NotAuth { rank } => self.on_redirect(ctx, op, rank),
                e if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                e => self.fail(ctx, op, format!("sequencer seal failed: {e}")),
            },
            (Stage::BatchGrant { span }, MdsMsg::TypeOpReply { result, .. }) => match result {
                Ok(base) => {
                    if let Some(span) = span.take() {
                        ctx.span_end(span);
                    }
                    self.launch_batch_writes(ctx, op, base)
                }
                Err(MdsError::NotAuth { rank }) => self.on_redirect(ctx, op, rank),
                Err(e) if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
                Err(e) => self.fail(ctx, op, format!("bulk grant failed: {e}")),
            },
            _ => {}
        }
    }

    // ---- pipelined append batches ----
    //
    // A batch is an entry of `ops` like any other: the watchdog, redirect,
    // transient, park and conclude paths above drive it. Only what a batch
    // does that a single op does not lives here.

    fn start_batch(&mut self, ctx: &mut Context<'_>, members: Vec<u64>) {
        // Inserted unarmed (the grant drive below arms the watchdog; a
        // second arm would draw from the RNG once more) and empty: the
        // members move in once they carry the batch's id.
        let kind = OpKind::Batch {
            members: Vec::new(),
        };
        let id = self.insert_op(ctx, kind, Stage::BatchGrant { span: None }, NO_DEADLINE);
        for &op in &members {
            if let Some(p) = self.ops.get_mut(op) {
                p.stage = Stage::InBatch { batch: id };
                if let Some(queue) = p.queue_span.take() {
                    ctx.span_end(queue);
                }
            }
        }
        if let Some(batch) = self.ops.get_mut(id) {
            batch.kind = OpKind::Batch { members };
            batch.internal = true;
        }
        self.redrive_op(ctx, id);
    }

    /// (Re-)sends the batch's grant round trip: a sequencer resolve if
    /// the inode is unknown, else `GetPosBatch` for the live member
    /// count. Runs under [`ZlogClient::redrive_op`], which has dropped
    /// the earlier grant's reply route and arms the watchdog after.
    fn drive_batch_grant(&mut self, ctx: &mut Context<'_>, id: u64) {
        let Some(mut members) = self.take_members(id) else {
            return;
        };
        // Members may have died (op deadline) while the batch waited.
        members.retain(|o| self.ops.contains_key(*o));
        let Some(&first) = members.first() else {
            self.finish(ctx, id, AppendResult::Ok(ZlogOut::Done));
            return;
        };
        let n = members.len() as u64;
        // The grant is traced under the first member's append span, once
        // however often it is re-driven; the MDS parents its own work
        // beneath it via the wire.
        let span = match self.ops.get(id).map(|batch| &batch.stage) {
            Some(Stage::BatchGrant { span: Some(span) }) => *span,
            _ => {
                let parent = self.ops.get(first).and_then(|p| p.span);
                let span = ctx.span_start("zlog.grant", parent);
                ctx.span_tag_display(span, "members", n);
                span
            }
        };
        self.put_members(id, members);
        if let Some(batch) = self.ops.get_mut(id) {
            batch.stage = Stage::BatchGrant { span: Some(span) };
        }
        match self.seq_ino {
            // Grants go to the sequencer's cached authoritative rank; the
            // resolve that discovers the rank goes to home.
            Some(ino) => {
                let reqid = self.mds_reqid(id);
                let rank = self.router.rank_of(ino);
                self.send_mds(ctx, rank, MdsMsg::get_pos_batch(reqid, ino, n), Some(span));
            }
            None => self.send_resolve(ctx, id, Some(span)),
        }
    }

    /// The grant landed: member `i` owns `base + i`. Fan the writes out
    /// to the stripe objects, one vectored `write_batch` per stripe, so
    /// every same-stripe member rides one RADOS transaction (and one OSD
    /// journal group-commit).
    fn launch_batch_writes(&mut self, ctx: &mut Context<'_>, id: u64, base: u64) {
        let Some(members) = self.take_members(id) else {
            return;
        };
        let (n, width) = (members.len() as u64, self.names.stripes.len() as u64);
        ctx.metrics().bump(counter!("zlog.pos_grants"), 1);
        // Round trips the bulk grant saved over position-at-a-time.
        ctx.metrics().bump(counter!("zlog.grants_saved"), n - 1);
        for (pos, op) in (base..).zip(&members) {
            if !self.ops.contains_key(*op) {
                // The member died while the grant was in flight: its cell
                // would stay a hole nobody owns. Junk-fill it now.
                self.spawn_hole_fill(ctx, pos);
            }
        }
        // `base..base + n` covers `min(n, width)` stripes, each first at
        // one of the first offsets: those below `wrap` sit on stripes
        // `base % width..`, the rest wrapped around to stripe 0. Ascending
        // stripe order keeps the event trace seed-stable.
        let covered = n.min(width);
        let wrap = (width - base % width).min(covered);
        let epoch = self.epoch;
        let mut groups = Vec::with_capacity(covered as usize);
        for first in (wrap..covered).chain(0..wrap) {
            let on_stripe = (n - first).div_ceil(width) as usize;
            let mut cells = Vec::with_capacity(on_stripe);
            let mut entries: Vec<(u64, &[u8])> = Vec::with_capacity(on_stripe);
            for i in (first..n).step_by(width as usize) {
                let Some(member) = self.ops.get(members[i as usize]) else {
                    continue;
                };
                cells.push((i as usize, base + i));
                if let OpKind::Append { data } = &member.kind {
                    entries.push((base + i, data));
                }
            }
            let Some(&(lead, pos)) = cells.first() else {
                continue;
            };
            let call = self.class_call(Method::WriteBatch, encode_write_batch(epoch, &entries));
            let oid = self.stripe_oid(pos);
            // One stripe-write span per vectored call, parented under the
            // first member's append; the rados.op rides beneath it.
            let parent = self.ops.get(members[lead]).and_then(|p| p.span);
            let span = ctx.span_start("zlog.stripe_write", parent);
            ctx.span_tag_display(span, "entries", cells.len());
            let reqid = self
                .rados
                .submit_spanned(ctx, oid, vec![call], Some(span), ());
            self.ops.hold(id, Route::Rados(reqid));
            groups.push(StripeWrite { reqid, span, cells });
        }
        self.put_members(id, members);
        if groups.is_empty() {
            self.finish(ctx, id, AppendResult::Ok(ZlogOut::Done));
            return;
        }
        if let Some(batch) = self.ops.get_mut(id) {
            batch.stage = Stage::BatchWrite { groups };
        }
        self.arm_watchdog(ctx, id);
    }

    /// Borrows batch `id`'s member list out of the op table, so that the
    /// table can be read and written while the list is walked;
    /// [`ZlogClient::put_members`] hands it back. Nothing that runs in
    /// between reads the list: a member that concludes meanwhile looks its
    /// cell up in the batch's in-flight groups only, and finds it there or
    /// not whatever the list holds.
    fn take_members(&mut self, id: u64) -> Option<Vec<u64>> {
        match &mut self.ops.get_mut(id)?.kind {
            OpKind::Batch { members } => Some(std::mem::take(members)),
            _ => None,
        }
    }

    fn put_members(&mut self, id: u64, members: Vec<u64>) {
        if let Some(OpKind::Batch { members: slot }) = self.ops.get_mut(id).map(|p| &mut p.kind) {
            *slot = members;
        }
    }

    /// One stripe group of a batch completed. Success finishes every
    /// member with its position. A timeout or an `EEXIST` leaves the
    /// cells' fate unknown, and each member resolves its own through
    /// probe/seal. Any other failure is an authoritative, group-atomic
    /// rejection (`write_batch` validates before applying), so the
    /// CORFU-safe reaction is uniform: re-enqueue the members for a
    /// *fresh* grant — never rewrite old positions after a possible seal,
    /// the restarted sequencer may reissue them — and junk-fill the
    /// abandoned cells so readers never block on them. On ESTALE the epoch
    /// refresh is kicked first; the fills ride the normal blocked-on-epoch
    /// path.
    fn on_batch_write_done(
        &mut self,
        ctx: &mut Context<'_>,
        id: u64,
        reqid: u64,
        result: Result<Vec<OpResult>, OsdError>,
    ) {
        let Some(Stage::BatchWrite { groups }) = self.ops.get_mut(id).map(|p| &mut p.stage) else {
            return;
        };
        let Some(at) = groups.iter().position(|group| group.reqid == reqid) else {
            return;
        };
        let StripeWrite { span, cells, .. } = groups.swap_remove(at);
        let last = groups.is_empty();
        let Some(members) = self.take_members(id) else {
            return;
        };
        ctx.span_end(span);
        match result {
            Ok(_) => {
                ctx.metrics().bump(counter!("zlog.batch_writes"), 1);
                ctx.metrics()
                    .bump(counter!("zlog.coalesced_entries"), cells.len() as u64);
                for (i, pos) in cells {
                    self.finish(ctx, members[i], AppendResult::Ok(ZlogOut::Pos(pos)));
                }
            }
            Err(OsdError::Timeout) => {
                ctx.metrics().bump(counter!("zlog.rados_timeouts"), 1);
                self.probe_cells(ctx, &members, cells);
            }
            Err(OsdError::Class(ce)) if ce.code == -17 => self.probe_cells(ctx, &members, cells),
            Err(err) => {
                // The other class errors are authoritative rejections
                // (`write_batch` validates the whole vector before applying
                // anything): nothing landed, so re-enqueueing for a fresh
                // grant and junk-filling the abandoned cells is safe.
                if matches!(&err, OsdError::Class(ce) if ce.code == -116) {
                    ctx.metrics().bump(counter!("zlog.estale_retries"), 1);
                    self.fetch_epoch(ctx);
                }
                let retry: Vec<u64> = cells.iter().map(|(i, _)| members[*i]).collect();
                self.requeue_members(ctx, &retry);
                for (_, pos) in cells {
                    self.spawn_hole_fill(ctx, pos);
                }
            }
        }
        self.put_members(id, members);
        if last {
            self.finish(ctx, id, AppendResult::Ok(ZlogOut::Done));
        }
    }

    /// A stripe group's cells have an unknown fate: each live member
    /// resolves its own by probe/seal before it retries anywhere else.
    fn probe_cells(&mut self, ctx: &mut Context<'_>, members: &[u64], cells: Vec<(usize, u64)>) {
        for (i, pos) in cells {
            let op = members[i];
            if self.ops.contains_key(op) {
                self.enter_write_probe(ctx, op, pos);
            } else {
                // The member died while the write was in flight; fence its
                // cell so readers never block on it.
                self.spawn_hole_fill(ctx, pos);
            }
        }
    }

    /// Puts failed batch members back on the append queue for a fresh
    /// grant, burning one attempt each; the flush window paces the retry
    /// (and gives an in-flight epoch refresh time to land).
    fn requeue_members(&mut self, ctx: &mut Context<'_>, members: &[u64]) {
        for &op in members {
            if !self.burn_attempt(ctx, op) {
                continue;
            }
            let Some(pending) = self.ops.get_mut(op) else {
                continue;
            };
            pending.stage = Stage::Queued;
            let root = pending.span;
            pending.queue_span = Some(ctx.span_start("zlog.queue", root));
            self.append_queue.push(op);
            ctx.metrics().bump(counter!("zlog.retries"), 1);
        }
        self.arm_flush_timer(ctx);
    }

    /// Junk-fills a granted-but-abandoned cell (CORFU hole fill) with an
    /// internal op: the result is dropped, EEXIST counts as occupied.
    fn spawn_hole_fill(&mut self, ctx: &mut Context<'_>, pos: u64) {
        ctx.metrics().bump(counter!("zlog.hole_fills"), 1);
        let op = self.begin(ctx, OpKind::Fill { pos }, Stage::Mutate);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.internal = true;
        }
        self.step_fill(ctx, op);
    }
}

impl Actor for ZlogClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rados.on_start(ctx);
        let map = ZLOG_MAP.to_string();
        ctx.send(self.config.monitor, MonMsg::Subscribe { map });
        self.router.mdsmap.subscribe(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        // MDS replies.
        let msg = match msg.downcast::<MdsMsg>() {
            Ok(mds) => {
                let reqid = match &*mds {
                    MdsMsg::Resolved { reqid, .. }
                    | MdsMsg::Created { reqid, .. }
                    | MdsMsg::TypeOpReply { reqid, .. }
                    | MdsMsg::Sealed { reqid, .. } => *reqid,
                    _ => return,
                };
                if let Some(op) = self.ops.release(Route::Mds(reqid)) {
                    self.on_mds_reply(ctx, op, *mds);
                }
                return;
            }
            Err(other) => other,
        };
        // Monitor traffic: the zlog map is ours and the mdsmap the router's;
        // the rest (the osdmap) feeds the embedded RADOS client below.
        let msg: Box<dyn Any> = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                match self.router.mdsmap.follow(ctx, &mon) {
                    // A fresh map is progress: re-drive ops parked on an
                    // unroutable rank right away instead of letting them
                    // sit out the watchdog backoff.
                    Some(true) => return self.redrive_on_mdsmap(ctx),
                    Some(false) => return,
                    None => {}
                }
                match &*mon {
                    MonMsg::Snapshot(snap) if snap.map == ZLOG_MAP => {
                        if let Some(v) = snap.entries.get(&self.names.epoch_key) {
                            self.adopt_epoch(ctx, v);
                        }
                        return;
                    }
                    MonMsg::Changed { map, delta, .. } if map == ZLOG_MAP => {
                        for (k, v) in delta {
                            match v {
                                Some(v) if *k == self.names.epoch_key => self.adopt_epoch(ctx, v),
                                _ => {}
                            }
                        }
                        return;
                    }
                    _ => {}
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

/// The history-model operation a client op records as, if any (setup and
/// recovery are administrative and stay out of the history).
fn log_op_of(kind: &OpKind) -> Option<LogOp> {
    match kind {
        OpKind::Append { data } => Some(LogOp::Append { data: data.clone() }),
        OpKind::Read { pos } => Some(LogOp::Read { pos: *pos }),
        OpKind::Fill { pos } => Some(LogOp::Fill { pos: *pos }),
        OpKind::CheckTail => Some(LogOp::ReadTail),
        OpKind::TrimUpto { pos } => Some(LogOp::TrimTo { pos: *pos }),
        // Batch reads record per-position (see `multi_hist`); checkpoint and
        // cursor plumbing are administrative.
        OpKind::ReadBatch { .. }
        | OpKind::Checkpoint { .. }
        | OpKind::CheckpointRead
        | OpKind::CursorBatch
        | OpKind::Setup
        | OpKind::Recover
        | OpKind::Batch { .. } => None,
    }
}

/// The outcomes a `read_batch` call answered, or `None` for an error or a
/// malformed reply. The reply is the list the method returned, each value
/// the buffer the stripe object stores; payloads are copied here, once,
/// into the outcomes the reader is handed.
fn read_reply(result: &Result<Vec<OpResult>, OsdError>) -> Option<Vec<(u64, ReadOutcome)>> {
    match result.as_ref().ok()?.first()? {
        OpResult::CallList(items) => read_outcomes(items.iter().map(|item| &**item)).ok(),
        _ => None,
    }
}

/// Puts the per-stripe replies of a vectored read into request order. A
/// reply lists its stripe's positions in the order the request named them,
/// so every requested position takes the next entry of its stripe's reply;
/// `None` when that entry is missing or for another position.
fn in_request_order(
    positions: &[u64],
    mut parts: Vec<Vec<(u64, ReadOutcome)>>,
    width: u64,
) -> Option<Vec<(u64, ReadOutcome)>> {
    if let [part] = &mut parts[..] {
        // One stripe: its reply is in request order already.
        let ordered = part.len() >= positions.len()
            && part.iter().zip(positions).all(|((at, _), pos)| at == pos);
        part.truncate(positions.len());
        return parts.pop().filter(|_| ordered);
    }
    let mut by_stripe: BTreeMap<u64, std::vec::IntoIter<(u64, ReadOutcome)>> = parts
        .into_iter()
        .filter_map(|part| Some((part.first()?.0 % width, part.into_iter())))
        .collect();
    positions
        .iter()
        .map(|p| {
            let entry = by_stripe.get_mut(&(p % width))?.next()?;
            (entry.0 == *p).then_some(entry)
        })
        .collect()
}

fn log_ret_of(out: &ZlogOut) -> Option<LogRet> {
    match out {
        ZlogOut::Pos(p) => Some(LogRet::Pos(*p)),
        ZlogOut::Read(o) => Some(LogRet::Read(log_read_of(o))),
        ZlogOut::Done => Some(LogRet::Done),
        ZlogOut::Tail(t) => Some(LogRet::Tail(*t)),
        ZlogOut::Recovered { .. }
        | ZlogOut::SetUp(_)
        | ZlogOut::ReadBatch(_)
        | ZlogOut::CursorBatch(_)
        | ZlogOut::CheckpointAt(_)
        | ZlogOut::Checkpoint(_) => None,
    }
}

/// Maps a client read outcome onto the checker's model type.
pub fn log_read_of(outcome: &ReadOutcome) -> LogRead {
    match outcome {
        ReadOutcome::Data(d) => LogRead::Data(d.clone()),
        ReadOutcome::Filled => LogRead::Filled,
        ReadOutcome::Trimmed => LogRead::Trimmed,
        ReadOutcome::NotWritten => LogRead::NotWritten,
    }
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
