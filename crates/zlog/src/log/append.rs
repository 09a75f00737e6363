//! Appends: the queue, a batch's one grant and its stripe-grouped writes.

use super::*;

/// One in-flight `write_batch` call of a batch.
pub(super) struct StripeWrite {
    /// The RADOS request carrying it.
    reqid: u64,
    /// Its open `zlog.stripe_write` span.
    span: SpanContext,
    /// The cells it writes, as `(member index, position)`.
    cells: Vec<(usize, u64)>,
}

impl ZlogClient {
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
        let op = self.begin(ctx, OpKind::Append { data }, Owner::Caller);
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

    /// Position of a write of `batch` still in flight that carries `op`,
    /// if any: an `InBatch` member dying mid-write is ambiguous at that
    /// position.
    pub(super) fn inflight_batch_pos(&self, batch: u64, op: u64) -> Option<u64> {
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

    // ---- pipelined append batches ----
    //
    // A batch is an entry of `ops` like any other: the watchdog, redirect,
    // transient, park and conclude paths above drive it. Only what a batch
    // does that a single op does not lives here.

    pub(super) fn start_batch(&mut self, ctx: &mut Context<'_>, members: Vec<u64>) {
        // Inserted unarmed (armed once its grant is out: a second arm
        // would draw from the RNG once more) and empty: the members move
        // in once they carry the batch's id.
        let kind = OpKind::Batch {
            members: Vec::new(),
        };
        let id = self.insert_op(ctx, kind, Owner::Nobody, NO_DEADLINE);
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
        }
        self.step(ctx, id);
        self.arm_watchdog(ctx, id);
    }

    /// (Re-)sends the batch's grant round trip: a sequencer resolve if
    /// the inode is unknown, else `GetPosBatch` for the live member
    /// count. Runs under [`ZlogClient::redrive_op`], which has dropped
    /// the earlier grant's reply route and arms the watchdog after.
    pub(super) fn drive_batch_grant(&mut self, ctx: &mut Context<'_>, id: u64) {
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
        self.set_stage(id, Stage::BatchGrant { span: Some(span) });
        match self.seq_ino {
            // Grants go to the sequencer's cached authoritative rank; the
            // resolve that discovers the rank goes to home.
            Some(ino) => {
                let reqid = self.mds_reqid(id);
                let rank = self.router.rank_of(ino);
                let op = SeqOp::NextBatch(n);
                let msg = MdsMsg::TypeOp { reqid, ino, op };
                self.send_mds(ctx, Some(id), rank, msg, Some(span));
            }
            None => self.resolve(ctx, id, Some(span)),
        }
    }

    /// The grant landed: member `i` owns `base + i`. Fan the writes out
    /// to the stripe objects, one vectored `write_batch` per stripe, so
    /// every same-stripe member rides one RADOS transaction (and one OSD
    /// journal group-commit).
    pub(super) fn launch_batch_writes(&mut self, ctx: &mut Context<'_>, id: u64, base: u64) {
        let Some(members) = self.take_members(id) else {
            return;
        };
        let (n, width) = (members.len() as u64, self.names.width());
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
            let (txn, parent) = (vec![call], Some(span));
            let reqid = self
                .rados
                .submit_spanned(ctx, oid, txn, parent, (), REQUEST_DEADLINE);
            self.ops.hold(id, Route::Rados(reqid));
            groups.push(StripeWrite { reqid, span, cells });
        }
        self.put_members(id, members);
        if groups.is_empty() {
            self.finish(ctx, id, AppendResult::Ok(ZlogOut::Done));
            return;
        }
        self.set_stage(id, Stage::BatchWrite { groups });
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
    pub(super) fn on_batch_write_done(
        &mut self,
        ctx: &mut Context<'_>,
        id: u64,
        reqid: u64,
        result: RadosResult,
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
                    self.resubscribe_epoch(ctx);
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
        self.start(ctx, OpKind::Fill { pos }, Owner::Nobody);
    }
}
