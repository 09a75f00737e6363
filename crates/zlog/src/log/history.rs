//! What an op records for the linearizability checker.

use super::*;

/// How an open probe-seal fill record resolves.
pub(super) enum SealClose {
    /// The fill landed.
    Applied,
    /// The fill definitely bounced (cell occupied).
    NotApplied,
    /// Outcome unknown (reply lost / epoch bounce mid-flight).
    Unknown,
}

impl ZlogClient {
    /// Attaches a history recorder: every externally visible op (and
    /// every internal hole fill, which also mutates cells) records
    /// invoke/ok/fail/info events with sim-clock stamps for the
    /// linearizability checker.
    pub fn with_history(mut self, recorder: Recorder<LogOp, LogRet>) -> ZlogClient {
        self.history = Some(recorder);
        self
    }

    /// Closes `op`'s history records as it concludes with `result`; an
    /// error is ambiguous (`info`) where `ambiguous_hint` says the stage
    /// it died in may have applied.
    pub(super) fn record_end(
        &self,
        now: SimTime,
        op: u64,
        pending: &PendingOp,
        result: &AppendResult,
        ambiguous_hint: bool,
    ) {
        let Some(rec) = &self.history else {
            return;
        };
        // An open probe-seal fill dies with the op: its outcome stays
        // unknown (the fill request may still land).
        if let Some(id) = pending.seal_hist {
            rec.info(id, now, None, "fill outcome unknown");
        }
        // A vectored read closes one record per position. Reads have
        // no side effects, so a dead batch is a definite failure.
        if !pending.multi_hist.is_empty() {
            let by_pos: HashMap<u64, &ReadOutcome> = match result {
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
            match result {
                AppendResult::Ok(out) => {
                    if let Some(ret) = log_ret_of(out) {
                        rec.ok(hist, now, ret);
                    }
                }
                AppendResult::Err(msg) => {
                    // Outer None = definite failure; Some(maybe) =
                    // ambiguous, with the return the op would have
                    // yielded had it applied.
                    let info: Option<Option<LogRet>> = match &pending.stage {
                        _ if !ambiguous_hint => None,
                        Stage::WriteProbe { pos } | Stage::WriteSeal { pos } => {
                            Some(Some(LogRet::Pos(*pos)))
                        }
                        Stage::Mutate => Some(None),
                        // A trim fan with any stripe outstanding may have
                        // trimmed a prefix of the range already.
                        Stage::TrimFan { .. } => Some(None),
                        Stage::InBatch { batch } => self
                            .inflight_batch_pos(*batch, op)
                            .map(|pos| Some(LogRet::Pos(pos))),
                        _ => None,
                    };
                    match info {
                        Some(maybe) => rec.info(hist, now, maybe, msg.clone()),
                        None => rec.fail(hist, now, msg.clone()),
                    }
                }
            }
        }
    }

    /// Closes the open probe-seal fill record on `op`, if any.
    pub(super) fn close_seal_hist(&mut self, now: SimTime, op: u64, how: SealClose) {
        let id = self.ops.get_mut(op).and_then(|p| p.seal_hist.take());
        let (Some(id), Some(rec)) = (id, &self.history) else {
            return;
        };
        match how {
            SealClose::Applied => rec.ok(id, now, LogRet::Done),
            SealClose::NotApplied => rec.fail(id, now, "position already written"),
            SealClose::Unknown => rec.info(id, now, None, "fill outcome unknown"),
        }
    }
}

/// The history-model operation a client op records as, if any (setup and
/// recovery are administrative and stay out of the history).
pub(super) fn log_op_of(kind: &OpKind) -> Option<LogOp> {
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
