//! Prefix trims, one `trim_upto` per stripe, and the checkpoint.

use super::*;

impl ZlogClient {
    /// Prefix trim: every position strictly below `pos` becomes trimmed,
    /// one `trim_upto` watermark call per stripe object (O(1) state per
    /// stripe; covered omap entries are purged for space reclaim).
    /// Resolves to [`ZlogOut::Done`].
    pub fn trim_to(&mut self, ctx: &mut Context<'_>, pos: u64) -> u64 {
        self.start(ctx, OpKind::TrimUpto { pos }, Owner::Caller)
    }

    /// Persists `(pos, blob)` on the per-log checkpoint object: `blob`
    /// captures the state after applying positions `[0, pos)`. The
    /// checkpoint only ever advances; resolves to
    /// [`ZlogOut::CheckpointAt`] with the position now held.
    pub fn checkpoint(&mut self, ctx: &mut Context<'_>, pos: u64, blob: Vec<u8>) -> u64 {
        self.start(ctx, OpKind::Checkpoint { pos, blob }, Owner::Caller)
    }

    /// Reads the latest checkpoint; resolves to [`ZlogOut::Checkpoint`]
    /// (`None` when no checkpoint was ever taken).
    pub fn checkpoint_read(&mut self, ctx: &mut Context<'_>) -> u64 {
        self.start(ctx, OpKind::CheckpointRead, Owner::Caller)
    }

    /// (Re-)issues the per-stripe `trim_upto` fan of a prefix trim.
    pub(super) fn step_trim_upto(&mut self, ctx: &mut Context<'_>, op: u64) {
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
        let width = self.names.width();
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

    /// A trim fan call or a checkpoint call of `op` answered.
    pub(super) fn on_trim_done(&mut self, ctx: &mut Context<'_>, op: u64, result: RadosResult) {
        let Some(pending) = self.ops.get_mut(op) else {
            return;
        };
        match &mut pending.stage {
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
}
