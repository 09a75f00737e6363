//! The seal/maxpos protocol a sequencer runs before it issues positions
//! again: the epoch bump at the monitor, the seal calls on the stripes,
//! and the ops and cap requests held until it completes.

use super::type_ops::TypeOpRequest;
use super::*;

/// How long the request of a seal's step goes unanswered before the tick
/// repeats it.
const SEAL_REPEAT: SimDuration = SimDuration::from_millis(500);

/// Progress of the seal/maxpos protocol an MDS runs for one sequencer
/// inode before it may issue positions again: after a takeover, once a
/// late layout arrives, or when a client asks for it ([`SeqOp::Seal`]).
#[derive(Debug, Clone)]
pub(super) struct SealRecovery {
    layout: crate::namespace::SeqLayout,
    pub(super) stage: SealStage,
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
    pub(super) held: Vec<TypeOpRequest>,
    /// The clients whose cap request on the sequencer waits for the seal,
    /// in arrival order: no cap is granted on a tail not yet fenced.
    pub(super) cap_requests: Vec<NodeId>,
    /// When the request of `stage` last went out: the tick repeats it once
    /// it has gone unanswered for [`SEAL_REPEAT`].
    asked: SimTime,
}

/// The step a seal is in, each one request that the tick repeats until it
/// is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SealStage {
    /// Reading the current epoch from the monitor's zlog map.
    GetEpoch,
    /// The epoch bump, submitted under `seq`, waits for its `SubmitAck`.
    AwaitCommit { seq: u64 },
    /// Seal calls in flight against the stripe objects.
    Sealing,
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

impl Mds {
    /// Begins the seal/maxpos protocol for `seqs` — every layout known
    /// after a journal replay, or one whose layout arrived later (see
    /// `unsealed_seqs`). Until an inode's seal completes, its type ops
    /// answer `Recovering` or wait for it (see [`Mds::serve_type_op`]).
    pub(super) fn start_seals(
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
                    cap_requests: Vec::new(),
                    asked: ctx.now(),
                },
            );
        }
        self.read_zlog_map(ctx);
    }

    /// Reads the monitor's zlog map. One read answers every seal still
    /// reading, so it is the request of each one's step.
    fn read_zlog_map(&mut self, ctx: &mut Context<'_>) {
        follower::get(ctx, self.monitor, SERVICE_MAP_ZLOG);
        let reading = self.recovering_seqs.values_mut();
        for rec in reading.filter(|rec| rec.stage == SealStage::GetEpoch) {
            rec.asked = ctx.now();
        }
    }

    /// Answers `client`'s seal request `reqid` when `ino`'s seal completes,
    /// joining the one under way — a takeover's, or another client's — or
    /// starting one. A client's re-sent request replaces its earlier one.
    pub(super) fn await_seal(
        &mut self,
        ctx: &mut Context<'_>,
        ino: Ino,
        client: NodeId,
        reqid: u64,
    ) {
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
    pub(super) fn on_zlog_map(&mut self, ctx: &mut Context<'_>, snap: &MapSnapshot) {
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
    fn submit_epoch_bump(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
            return;
        };
        let SealStage::AwaitCommit { seq } = rec.stage else {
            return;
        };
        rec.asked = ctx.now();
        let key = LogEpoch::key(&rec.layout.name);
        let bump = LogEpoch(rec.new_epoch).encode();
        let updates = vec![MapUpdate::set(SERVICE_MAP_ZLOG, &key, bump)];
        ctx.send(self.monitor, MonMsg::Submit { seq, updates });
    }

    /// Whether `ino`'s seal is in its last round trip: the epoch bump has
    /// committed and every stripe that has not answered has its `seal` /
    /// `maxpos` call out.
    pub(super) fn seal_calls_out(&self, ino: Ino) -> bool {
        let Some(rec) = self.recovering_seqs.get(&ino) else {
            return false;
        };
        let mut open = (0u32..).zip(&rec.maxpos).filter(|(_, m)| m.is_none());
        rec.stage == SealStage::Sealing
            && open.all(|(stripe, _)| self.rados.has_waiter(&StoreWait::Seal { ino, stripe }))
    }

    /// A stripe call of `ino`'s seal failed: the seal waits for the tick
    /// now, so the ops it held answer `Recovering`.
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
    /// completed with an error is made again when the tick comes back
    /// here.
    pub(super) fn seal_stripes(&mut self, ctx: &mut Context<'_>, ino: Ino) {
        let Some(rec) = self.recovering_seqs.get_mut(&ino) else {
            return;
        };
        rec.stage = SealStage::Sealing;
        rec.asked = ctx.now();
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
        let wait = StoreWait::Seal { ino, stripe };
        self.rados
            .submit_spanned(ctx, oid, vec![call], None, wait, REQUEST_DEADLINE);
    }

    /// Handles the reply of one stripe's seal/maxpos call.
    pub(super) fn on_seal_reply(
        &mut self,
        ctx: &mut Context<'_>,
        ino: Ino,
        stripe: u32,
        result: StoreResult,
    ) {
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
                    // the tick calls it again.
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
                // the tick submits its seal again.
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
        // Ops held through the last round trip, and the cap requests that
        // waited for the seal, can now be served.
        for held in rec.held {
            self.serve_type_op(ctx, ino, held);
        }
        for client in rec.cap_requests {
            self.handle_client(ctx, client, MdsMsg::CapRequest { ino });
        }
    }

    /// Repeats the request of each open seal's step that has gone
    /// unanswered for [`SEAL_REPEAT`]: the read of the zlog map while no
    /// snapshot has come back (one for every seal still reading), the same
    /// epoch-bump `Submit` while it is unacked, and the stripe calls that
    /// completed with an error while sealing.
    pub(super) fn repeat_seal_steps(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let due = (self.recovering_seqs.iter())
            .filter(|(_, rec)| now.saturating_since(rec.asked) >= SEAL_REPEAT);
        let due: Vec<(Ino, SealStage)> = due.map(|(ino, rec)| (*ino, rec.stage)).collect();
        if due.iter().any(|(_, stage)| *stage == SealStage::GetEpoch) {
            self.read_zlog_map(ctx);
        }
        for (ino, stage) in due {
            match stage {
                SealStage::GetEpoch => {}
                SealStage::AwaitCommit { .. } => self.submit_epoch_bump(ctx, ino),
                SealStage::Sealing => self.seal_stripes(ctx, ino),
            }
        }
    }
}
