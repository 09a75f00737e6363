//! The MDS round trips: setup, resolve, tail, seal and the layout.

use super::*;

/// An MDS request as it left: a map that moves `rank` off `node` leaves it
/// unanswered, and a `Recovering` answer to it waits for an epoch above
/// `epoch`.
#[derive(Debug, Clone, Copy)]
pub(super) struct MdsSent {
    rank: u32,
    node: NodeId,
    epoch: u64,
}

impl ZlogClient {
    /// Creates `/zlog/<name>` (directory + sequencer inode) if needed.
    pub fn setup(&mut self, ctx: &mut Context<'_>) -> u64 {
        self.start(ctx, OpKind::Setup, Owner::Caller)
    }

    /// Reads the sequencer tail without advancing it.
    pub fn check_tail(&mut self, ctx: &mut Context<'_>) -> u64 {
        self.start(ctx, OpKind::CheckTail, Owner::Caller)
    }

    /// Runs CORFU sequencer recovery through the sequencer's authority,
    /// which seals the log as a promoted standby does — a new epoch in the
    /// monitor's zlog map, `seal` on every stripe object — and restarts
    /// the tail past the highest written position. Resolves to
    /// [`ZlogOut::Recovered`] once this client runs under the epoch that
    /// seal installed.
    pub fn recover(&mut self, ctx: &mut Context<'_>) -> u64 {
        self.start(ctx, OpKind::Recover, Owner::Caller)
    }

    /// Sends `msg`, `op`'s request if it has one, to `rank`'s node if one
    /// is known (the live map wins over the static config — after a
    /// failover the rank lives on the promoted standby's node). With the
    /// rank unroutable the message is withheld and `op` is parked on the
    /// mdsmap: adoption of a fresh map re-drives it immediately
    /// ([`ZlogClient::redrive_on_mdsmap`]), and the watchdog backoff
    /// remains the backstop for lost maps. A request sent is noted on its
    /// op ([`MdsSent`]).
    pub(super) fn send_mds(
        &mut self,
        ctx: &mut Context<'_>,
        op: Option<u64>,
        rank: u32,
        msg: MdsMsg,
        span: Option<SpanContext>,
    ) {
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

    /// An MDS answered `op`'s request for `what` with `e`: a redirect, a
    /// transient error, or a failure.
    fn on_mds_error(&mut self, ctx: &mut Context<'_>, op: u64, e: MdsError, what: &str) {
        match e {
            MdsError::NotAuth { rank } => self.on_redirect(ctx, op, rank),
            e if e.is_retryable() => self.on_mds_transient(ctx, op, &e),
            e => self.fail(ctx, op, format!("{what} failed: {e}")),
        }
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
        let msg = MdsMsg::SetSeqLayout {
            ino,
            pool: Rc::clone(&self.names.pool),
            name: Rc::clone(&self.names.log),
            stripe_width: self.names.width() as u32,
        };
        self.send_mds(ctx, None, self.router.rank_of(ino), msg, None);
    }

    pub(super) fn mds_reqid(&mut self, op: u64) -> u64 {
        let reqid = self.next_seq;
        self.next_seq += 1;
        self.ops.hold(op, Route::Mds(reqid));
        reqid
    }

    /// Asks the home rank, which owns the directory tree, for the
    /// sequencer inode and its authoritative rank; the reply routes to
    /// `op`, and `span` (a batch's grant) parents the round trip.
    pub(super) fn resolve(&mut self, ctx: &mut Context<'_>, op: u64, span: Option<SpanContext>) {
        let reqid = self.mds_reqid(op);
        let path = self.names.seq_path.clone();
        let home = self.router.home_rank();
        self.send_mds(ctx, Some(op), home, MdsMsg::Resolve { reqid, path }, span);
    }

    /// Sends `op`'s create of `name` in `parent_path` to the home rank,
    /// which owns the directory tree.
    fn send_create(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        parent_path: &str,
        name: String,
        ftype: FileType,
    ) {
        let reqid = self.mds_reqid(op);
        let parent_path = parent_path.into();
        let msg = MdsMsg::Create {
            reqid,
            parent_path,
            name,
            ftype,
        };
        self.send_mds(ctx, Some(op), self.router.home_rank(), msg, None);
    }

    /// (Re-)starts namespace setup from the top: mkdir/create tolerate
    /// `Exists`, so replaying is safe.
    pub(super) fn step_setup(&mut self, ctx: &mut Context<'_>, op: u64) {
        self.set_stage(op, Stage::SetupDir);
        self.send_create(ctx, op, "/", "zlog".into(), FileType::Dir);
    }

    /// (Re-)drives recovery: the seal request until the authority answers
    /// it, then the wait for the epoch that seal installed. A seal request
    /// that arrives while a seal runs joins it, so a re-sent one starts no
    /// second seal; the seal joined may be one whose epoch this client
    /// already runs under.
    pub(super) fn step_recover(&mut self, ctx: &mut Context<'_>, op: u64) {
        let sealed = match self.ops.get(op).map(|p| &p.stage) {
            Some(Stage::Recover { sealed }) => *sealed,
            Some(_) => None,
            None => return,
        };
        match sealed {
            None => self.send_verb(ctx, op, SeqOp::Seal, Stage::Recover { sealed: None }),
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

    /// Sends sequencer verb `verb` for `op` to the inode's authority, the
    /// op waiting in `stage`, or resolves the inode first.
    pub(super) fn send_verb(&mut self, ctx: &mut Context<'_>, op: u64, verb: SeqOp, stage: Stage) {
        let Some(ino) = self.seq_ino else {
            self.set_stage(op, Stage::ResolveSeq);
            self.resolve(ctx, op, None);
            return;
        };
        // Re-entered after a lazy resolve: move the stage back so the
        // TypeOpReply is not dropped by the ResolveSeq arm's catch-all.
        self.set_stage(op, stage);
        let reqid = self.mds_reqid(op);
        let msg = MdsMsg::TypeOp {
            reqid,
            ino,
            op: verb,
        };
        self.send_mds(ctx, Some(op), self.router.rank_of(ino), msg, None);
    }

    /// Re-drives every op parked on the mdsmap, then every op whose MDS
    /// request went to a node the map has moved its rank off: a crashed
    /// daemon answers nothing, and its promoted standby seals and grants
    /// only what reaches it. Runs on mdsmap adoption: the map change is
    /// progress, so no attempt is burned — without this, either would sit
    /// out the full watchdog backoff after the fresh map arrived.
    pub(super) fn redrive_on_mdsmap(&mut self, ctx: &mut Context<'_>) {
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

    /// An MDS reply, taken by the op whose request it answers.
    pub(super) fn on_mds_reply(&mut self, ctx: &mut Context<'_>, msg: MdsMsg) {
        let reqid = match &msg {
            MdsMsg::Resolved { reqid, .. }
            | MdsMsg::Created { reqid, .. }
            | MdsMsg::TypeOpReply { reqid, .. }
            | MdsMsg::Sealed { reqid, .. } => *reqid,
            _ => return,
        };
        let Some(op) = self.ops.release(Route::Mds(reqid)) else {
            return;
        };
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        match (&mut pending.stage, msg) {
            (Stage::SetupDir, MdsMsg::Created { result, .. }) => match result {
                Ok(_) | Err(MdsError::Exists) => {
                    pending.stage = Stage::SetupSeq;
                    let name = self.config.name.clone();
                    self.send_create(ctx, op, "/zlog", name, FileType::Sequencer);
                }
                Err(e) => self.on_mds_error(ctx, op, e, "mkdir /zlog"),
            },
            (Stage::SetupSeq, MdsMsg::Created { result, .. }) => match result {
                Ok(ino) => {
                    self.seq_ino = Some(ino);
                    self.register_layout(ctx, ino);
                    self.finish(ctx, op, AppendResult::Ok(ZlogOut::SetUp(ino)));
                }
                Err(MdsError::Exists) => {
                    pending.stage = Stage::ResolveSeq;
                    self.resolve(ctx, op, None);
                }
                Err(e) => self.on_mds_error(ctx, op, e, "create sequencer"),
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
                            OpKind::Batch { .. } => self.redrive_op(ctx, op),
                            _ => self.step(ctx, op),
                        }
                    }
                    Err(e) => self.on_mds_error(ctx, op, e, "sequencer resolve"),
                }
            }
            (Stage::Tail, MdsMsg::TypeOpReply { result, .. }) => match result {
                Ok(tail) => self.finish(ctx, op, AppendResult::Ok(ZlogOut::Tail(tail))),
                Err(e) => self.on_mds_error(ctx, op, e, "tail read"),
            },
            (Stage::Recover { sealed }, MdsMsg::Sealed { epoch, tail, .. }) => {
                *sealed = Some((epoch, tail));
                self.step_recover(ctx, op);
            }
            (Stage::Recover { .. }, MdsMsg::TypeOpReply { result: Err(e), .. }) => {
                self.on_mds_error(ctx, op, e, "sequencer seal")
            }
            (Stage::BatchGrant { span }, MdsMsg::TypeOpReply { result, .. }) => match result {
                Ok(base) => {
                    if let Some(span) = span.take() {
                        ctx.span_end(span);
                    }
                    self.launch_batch_writes(ctx, op, base)
                }
                Err(e) => self.on_mds_error(ctx, op, e, "bulk grant"),
            },
            _ => {}
        }
    }
}
