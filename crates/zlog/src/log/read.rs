//! Point and vector reads, one `read_batch` per stripe, and the cursor.

use super::*;

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
#[derive(Default)]
pub(super) struct Cursor {
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
    pub(super) waiter: Option<(u64, usize)>,
}

impl ZlogClient {
    /// Reads `pos`; resolves to [`ZlogOut::Read`]. A `read_batch` of one
    /// position that records as one read in the history.
    pub fn read(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        self.start_read(ctx, OpKind::Read { pos }, Owner::Caller)
    }

    /// Vectored read: one `read_batch` RADOS op per stripe object covers
    /// the whole position vector. Resolves to [`ZlogOut::ReadBatch`] with
    /// a tagged outcome for every requested position, in request order —
    /// unwritten positions come back as [`ReadOutcome::NotWritten`], not
    /// as errors.
    pub fn read_batch(&mut self, ctx: &mut Context<'_>, positions: Vec<u64>) -> u64 {
        self.start_read(ctx, OpKind::ReadBatch { positions }, Owner::Caller)
    }

    /// Starts a read op of `kind` for `owner` under its `zlog.read_batch`
    /// span. A vectored read records one history read per position, so
    /// the checker sees each position's observation on its own.
    fn start_read(&mut self, ctx: &mut Context<'_>, kind: OpKind, owner: Owner) -> u64 {
        let op = self.begin(ctx, kind, owner);
        let span = ctx.span_start("zlog.read_batch", None);
        let (client, now) = (u64::from(ctx.me().0), ctx.now());
        if let Some(pending) = self.ops.get_mut(op) {
            pending.span = Some(span);
            if let (Some(rec), OpKind::ReadBatch { positions }) = (&self.history, &pending.kind) {
                let invoke = |pos| (rec.invoke(client, now, LogOp::Read { pos }), pos);
                pending.multi_hist = positions.iter().copied().map(invoke).collect();
            }
        }
        self.step(ctx, op);
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
        let cfg = self.read_cfg.clone();
        self.cursors.insert(
            id,
            Cursor {
                cfg,
                ..Cursor::default()
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
        let op = self.begin(ctx, OpKind::CursorBatch, Owner::Waiter(id));
        let span = ctx.span_start("zlog.cursor_batch", None);
        if let Some(pending) = self.ops.get_mut(op) {
            pending.span = Some(span);
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

    /// (Re-)issues a vectored read: the op's position vector grouped by
    /// stripe, one `read_batch` RADOS op per stripe object, in ascending
    /// stripe order.
    pub(super) fn step_read_batch(&mut self, ctx: &mut Context<'_>, op: u64) {
        let width = self.names.width();
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
        let parts = Vec::with_capacity(groups);
        self.set_stage(
            op,
            Stage::ReadVector {
                outstanding: groups,
                parts,
            },
        );
    }

    /// Calls `read_batch` for `positions`, which share one stripe object.
    pub(super) fn call_read_batch(&mut self, ctx: &mut Context<'_>, op: u64, positions: &[u64]) {
        let oid = self.stripe_oid(positions[0]);
        ctx.metrics().bump(counter!("rados.read_batch_ops"), 1);
        ctx.metrics().bump(
            counter!("rados.read_batch_positions"),
            positions.len() as u64,
        );
        let input = encode_read_batch(self.epoch, positions);
        self.call_class(ctx, op, oid, Method::ReadBatch, input);
    }

    // ---- tailing cursors ----

    /// Advances cursor `id` as far as current state allows: resolve the
    /// checkpointed start, serve the waiter a contiguous run (or a fresh
    /// "caught up"), and keep the prefetch window full.
    pub(super) fn drive_cursor(&mut self, ctx: &mut Context<'_>, id: u64) {
        let Some(cursor) = self.cursors.get_mut(&id) else {
            return;
        };
        if !cursor.started {
            // A checkpoint consult resolves the cursor's start position.
            if !cursor.ckpt_inflight {
                cursor.ckpt_inflight = true;
                self.start(ctx, OpKind::CheckpointRead, Owner::Cursor(id));
            }
            return;
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
                        cursor.tail_inflight = true;
                        need_tail = true;
                    }
                }
            }
        }
        if need_tail {
            // A tail read refreshes the cursor's upper bound.
            self.start(ctx, OpKind::CheckTail, Owner::Cursor(id));
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
            let width = self.names.width();
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
            for group in &groups {
                cursor.inflight_ops += 1;
                cursor.window.fetching(group);
            }
            groups
        };
        for positions in groups {
            self.start_read(ctx, OpKind::ReadBatch { positions }, Owner::Cursor(id));
        }
    }

    /// A cursor's internal op concluded: fold its result into the cursor
    /// and re-drive. The cursor is the result's only consumer, so it
    /// arrives by value and the outcomes move into the window.
    pub(super) fn on_cursor_op_done(
        &mut self,
        ctx: &mut Context<'_>,
        id: u64,
        kind: OpKind,
        result: AppendResult,
    ) {
        let mut heal = Vec::new();
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
                for &pos in &heal {
                    cursor.window.healing(pos);
                }
            }
            OpKind::Fill { pos } => cursor.window.healed(pos),
            _ => {}
        }
        // A hole below the tail: an append abandoned its grant. A fill
        // fences the cell so delivery can proceed; the re-read then observes
        // Filled, or the racing write that beat the fill.
        for pos in heal {
            ctx.metrics().bump(counter!("zlog.cursor_hole_fills"), 1);
            self.start(ctx, OpKind::Fill { pos }, Owner::Cursor(id));
        }
        self.drive_cursor(ctx, id);
    }

    /// A stripe group of `op`'s vectored read answered.
    pub(super) fn on_read_done(&mut self, ctx: &mut Context<'_>, op: u64, result: RadosResult) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        let Stage::ReadVector { outstanding, parts } = &mut pending.stage else {
            return;
        };
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
        let width = self.names.width();
        let out = match in_request_order(positions, std::mem::take(parts), width) {
            Some(mut one) if point => one.pop().map(|(_, outcome)| ZlogOut::Read(outcome)),
            ordered => ordered.map(ZlogOut::ReadBatch),
        };
        match out {
            Some(out) => self.finish(ctx, op, AppendResult::Ok(out)),
            // A group replied without one of its positions: malformed;
            // re-issue the vector.
            None => self.restart_op(ctx, op),
        }
    }
}

/// The outcomes a `read_batch` call answered, or `None` for an error or a
/// malformed reply. The reply is the list the method returned, each value
/// the buffer the stripe object stores; payloads are copied here, once,
/// into the outcomes the reader is handed.
pub(super) fn read_reply(result: &RadosResult) -> Option<Vec<(u64, ReadOutcome)>> {
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
