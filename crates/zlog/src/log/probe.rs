//! The probe and seal that resolve an append's write of unknown fate.

use super::*;

impl ZlogClient {
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
    pub(super) fn enter_write_probe(&mut self, ctx: &mut Context<'_>, op: u64, pos: u64) {
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
        let (client, now) = (u64::from(ctx.me().0), ctx.now());
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        pending.stage = Stage::WriteSeal { pos };
        let invoke = |rec: &Recorder<_, _>| rec.invoke(client, now, LogOp::Fill { pos });
        pending.seal_hist = self.history.as_ref().map(invoke);
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

    /// A probe or probe-seal fill of `op` answered.
    pub(super) fn on_probe_done(&mut self, ctx: &mut Context<'_>, op: u64, result: RadosResult) {
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
            _ => {}
        }
    }
}
