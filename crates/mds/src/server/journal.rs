//! The journal: entries buffered and flushed to this rank's object, the
//! store's completions, and the replay that makes a daemon ready.

use super::*;

/// One journal append, from buffer to durable-ack. While its request is in
/// flight the client retransmits it (same reqid — the OSD reply cache
/// dedups); one that completed with an error goes out again under a new
/// reqid, so what waits on the flush rides with it, not in reqid-keyed maps.
pub(super) struct Flush {
    data: Vec<u8>,
    /// The `mds.journal` span: the commit latency the gated replies wait.
    pub(super) span: SpanContext,
    /// Group commit: acks released when the store confirms the append.
    replies: Vec<(SimDuration, NodeId, MdsMsg)>,
}

/// The journal object of `rank` in the metadata pool.
pub(super) fn journal_oid_of(rank: u32) -> ObjectId {
    ObjectId::new(META_POOL, format!("mds_journal.{rank}"))
}

/// A read of a whole object (the journal, a policy).
pub(super) fn read_whole() -> Vec<Op> {
    vec![Op::Read {
        offset: 0,
        len: usize::MAX / 2,
    }]
}

impl Mds {
    pub(super) fn journal(&mut self, entry: JournalEntry) {
        if self.config.journal {
            self.journal_buf.push_str(&entry.encode());
        }
    }

    /// Journals `entry` and, in `journal_sync` mode, flushes immediately so
    /// the record is durable before any dependent ack goes out.
    pub(super) fn journal_now(&mut self, ctx: &mut Context<'_>, entry: JournalEntry) {
        self.journal(entry);
        if self.config.journal_sync {
            self.flush_journal(ctx);
        }
    }

    pub(super) fn flush_journal(&mut self, ctx: &mut Context<'_>) {
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
                .submit_spanned(ctx, oid, txn, span, StoreWait::Journal, REQUEST_DEADLINE);
        }
    }

    /// Reads this rank's journal; the completion ([`Mds::on_journal_read`])
    /// makes the daemon ready. Until then every client op sits stashed.
    pub(super) fn try_recover(&mut self, ctx: &mut Context<'_>) {
        let wanted = self.config.journal && !self.standby && !self.ready;
        if wanted && !self.rados.has_waiter(&StoreWait::Recover) {
            let (oid, wait) = (self.journal_oid.clone(), StoreWait::Recover);
            self.rados
                .submit_spanned(ctx, oid, read_whole(), None, wait, REQUEST_DEADLINE);
        }
    }

    /// Collects the embedded client's completions, in request order, and
    /// hands each to what waits on it.
    pub(super) fn drain_store(&mut self, ctx: &mut Context<'_>) {
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
            // an acked mutation the store lost; the tick submits the same
            // bytes again.
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
            // stays un-ready and the tick submits the read again.
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
        for (ino, holder) in replay.cap_holders {
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

    /// Starts serving: the requests stashed before the journal replay are
    /// handled once each, in arrival order.
    pub(super) fn become_ready(&mut self, ctx: &mut Context<'_>) {
        self.ready = true;
        for (from, msg) in std::mem::take(&mut self.stashed) {
            self.handle_client(ctx, from, msg);
        }
    }
}
