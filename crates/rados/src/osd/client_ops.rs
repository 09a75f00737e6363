//! Client ops: admission, the one place a transaction runs, the reply
//! cache and the journal.

use super::repl::ack_bit;
use super::*;

/// Reply-cache entry: a request we have admitted but not yet answered, or
/// the answer we already sent (resent verbatim on retransmit, so a
/// non-idempotent op like `Append` is never applied twice).
pub(super) enum DupState {
    InFlight,
    Done(Outcome),
}

impl Osd {
    /// The outcome this OSD would answer a retransmit of `(client, reqid)`
    /// with: `None` if the request is outside the reply window or still
    /// waiting for its replicas' acks.
    pub fn cached_reply(
        &self,
        client: NodeId,
        reqid: u64,
    ) -> Option<&Result<Vec<OpResult>, OsdError>> {
        match self.replies.get(&client)?.get(&reqid)? {
            DupState::Done(outcome) => Some(outcome.as_ref()),
            DupState::InFlight => None,
        }
    }

    /// Applies `txn` to `oid` atomically — the one place class code runs —
    /// and returns, beside the results and whether any of its ops is a
    /// mutation, its effect: the post-image of the parts it touched, as
    /// large as the mutation, not the object. Built when there is a journal
    /// to write it ahead to (before the ack) or, for a mutation, `replicas`
    /// to ship it to, once for all of them; `None` if the transaction
    /// changed nothing or nobody wants the record.
    ///
    /// The object is borrowed where it is stored: the tracker owns it for
    /// the transaction (a script host must) and hands it back to the slot it
    /// came from, so an op probes the store once and the store's key — the
    /// id the object's first writer named it with — is never copied.
    fn apply(
        &mut self,
        oid: &ObjectId,
        txn: &Transaction,
        replicas: bool,
    ) -> (
        Result<Vec<OpResult>, OsdError>,
        bool,
        Option<Rc<JournalRecord>>,
    ) {
        let mut slot = self.store.get_mut(oid);
        let mut tracked = ObjTxn::begin(slot.as_deref_mut().map(std::mem::take));
        let result = tracked.run(txn, &self.registry);
        let is_mutation = tracked.mutates();
        let effect = if (is_mutation && replicas) || self.journal.is_some() {
            tracked.journal_record(oid).map(Rc::new)
        } else {
            None
        };
        if let (Some(journal), Some(effect)) = (&self.journal, &effect) {
            journal.append(Rc::clone(effect));
        }
        match (tracked.finish(), slot) {
            (Some(obj), Some(slot)) => *slot = obj,
            (Some(obj), None) => {
                self.store.insert(oid.clone(), obj);
            }
            (None, Some(_)) => {
                self.store.remove(oid);
            }
            (None, None) => {}
        }
        (result, is_mutation, effect)
    }

    /// Rebuilds durable state from the journal after a restart.
    pub(super) fn replay_journal(&mut self, ctx: &mut Context<'_>) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let snapshot = journal.replay();
        if snapshot.store.is_empty()
            && snapshot.interfaces.is_none()
            && snapshot.osdmap.is_none()
            && snapshot.replies.is_empty()
        {
            return;
        }
        self.store = snapshot.store;
        if let Some((epoch, entries)) = snapshot.interfaces {
            self.interfaces_epoch = epoch;
            self.interfaces = Rc::new(entries);
            self.install_classes(ctx);
        }
        if let Some((epoch, entries)) = snapshot.osdmap {
            // Loaded directly, without the map-change reactions: recovery
            // decisions belong to the *next* live map this OSD hears about,
            // which install_osdmap will diff against this restored view.
            self.set_map(epoch, entries);
        }
        self.replies = snapshot
            .replies
            .into_iter()
            .map(|(client, window)| {
                (
                    client,
                    window
                        .into_iter()
                        .map(|(reqid, outcome)| (reqid, DupState::Done(outcome)))
                        .collect(),
                )
            })
            .collect();
        ctx.metrics().bump(counter!("osd.journal_replays"), 1);
        let now = ctx.now();
        ctx.metrics()
            .observe("osd.journal_replay_objects", now, self.store.len() as f64);
    }

    /// Records the final answer for `(client, reqid)` in the in-memory
    /// cache and prunes the per-client window.
    pub(super) fn cache_reply(&mut self, client: NodeId, reqid: u64, outcome: Outcome) {
        let window = self.replies.entry(client).or_default();
        window.insert(reqid, DupState::Done(outcome));
        while window.len() > REPLY_CACHE_PER_CLIENT {
            window.pop_first();
        }
    }

    /// Durably records the outcome of `(client, reqid)` so retransmits
    /// after a restart are answered, never re-applied.
    pub(super) fn journal_reply(&mut self, client: NodeId, reqid: u64, outcome: &Outcome) {
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::Reply {
                client,
                reqid,
                result: Rc::clone(outcome),
            });
        }
    }

    /// Answers `client`'s `reqid` once the service time is up, closing the
    /// op's span then. A kept outcome comes borrowed and is copied here,
    /// once: [`OsdMsg::ClientReply`] is the client's edge, and the client
    /// owns what it gets.
    fn answer(
        &self,
        ctx: &mut Context<'_>,
        client: NodeId,
        reqid: u64,
        result: Cow<'_, Result<Vec<OpResult>, OsdError>>,
        op_span: Option<SpanContext>,
    ) {
        let after = self.config.service_time;
        if let Some(span) = op_span {
            if result.is_err() {
                ctx.span_tag(span, "error", "true");
            }
            ctx.span_end_at(span, ctx.now() + after);
        }
        let reply = OsdMsg::ClientReply {
            reqid,
            result: result.into_owned(),
        };
        ctx.send_after(after, client, reply);
    }

    /// Fixes `outcome` as the answer to `(client, reqid)` in the reply
    /// window and sends it.
    pub(super) fn conclude(
        &mut self,
        ctx: &mut Context<'_>,
        client: NodeId,
        reqid: u64,
        outcome: Outcome,
        op_span: SpanContext,
    ) {
        self.cache_reply(client, reqid, Rc::clone(&outcome));
        self.answer(ctx, client, reqid, Cow::Borrowed(&outcome), Some(op_span));
    }

    pub(super) fn handle_client_op(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        reqid: u64,
        req: Rc<(ObjectId, Transaction)>,
        map_epoch: u64,
    ) {
        let (oid, txn) = &*req;
        // A request not admitted is answered at once.
        let reject = |ctx: &mut Context<'_>, error| {
            ctx.send(
                from,
                OsdMsg::ClientReply {
                    reqid,
                    result: Err(error),
                },
            );
        };
        // Retransmit dedup: a request we already applied is answered from
        // the reply cache (ops like Append are not idempotent); one that is
        // still replicating stays pending and will be answered once.
        match self.replies.get(&from).and_then(|w| w.get(&reqid)) {
            Some(DupState::Done(outcome)) => {
                self.answer(ctx, from, reqid, Cow::Borrowed(outcome), None);
                ctx.metrics().bump(counter!("osd.dup_requests"), 1);
                return;
            }
            Some(DupState::InFlight) => {
                ctx.metrics().bump(counter!("osd.dup_requests"), 1);
                // Re-drive replication: the original Repl (or its ack) may
                // have died with a crashed replica. Replicas dedup by
                // (client, reqid), so re-sending is safe.
                let redrive = self.pending.iter();
                for (repl_id, p) in redrive.filter(|(_, p)| p.client == from && p.reqid == reqid) {
                    for node in p.waiting_on().filter_map(|osd| self.map.node_of(osd)) {
                        ctx.send(node, p.repl(*repl_id));
                    }
                }
                return;
            }
            None => {}
        }
        if map_epoch < self.map.epoch {
            let current = self.map.epoch;
            reject(ctx, OsdError::StaleEpoch { current });
            ctx.metrics().bump(counter!("osd.stale_epoch_rejects"), 1);
            return;
        }
        let Some(info) = self.map.pools.get(&*oid.pool).copied() else {
            reject(ctx, OsdError::NotReady);
            return;
        };
        let pg = pg_of_id(oid, info.pg_num);
        let acting = self
            .map
            .acting_set_for_pg(&oid.pool, pg.index)
            .unwrap_or_default();
        if acting.first() != Some(&self.id) {
            reject(ctx, OsdError::NotPrimary);
            ctx.metrics().bump(counter!("osd.not_primary_rejects"), 1);
            return;
        }
        if self.backfill_of(oid).is_some() {
            // This PG's snapshot has not landed yet; serving now could
            // miss acknowledged writes. The client retries on its backoff
            // timer — this rejection window is the availability cost of a
            // remap, measured by the elastic benchmark.
            reject(ctx, OsdError::NotReady);
            ctx.metrics().bump(counter!("osd.backfill_rejects"), 1);
            return;
        }
        // The admitted op's span, parented under whatever travelled with
        // the request (the client's `rados.op`).
        let parent = ctx.incoming_span();
        let op_span = ctx.span_start("osd.op", parent);
        // Write-ahead: durable before replication and before the ack.
        let (result, is_mutation, effect) = self.apply(oid, txn, acting.len() > 1);
        if is_mutation && result.is_ok() {
            // One group-commit covers every op the transaction batched
            // (e.g. a zlog `write_batch`); txn_ops / journal_commits is
            // the journal coalescing factor.
            let jspan = ctx.span_start("osd.journal_commit", Some(op_span));
            let done_at = ctx.now() + self.config.service_time;
            ctx.span_end_at(jspan, done_at);
            ctx.metrics().bump(counter!("osd.journal_commits"), 1);
            ctx.metrics()
                .bump(counter!("osd.txn_ops"), txn.len() as u64);
        }
        ctx.metrics().bump(counter!("osd.ops"), 1);
        if !is_mutation {
            // Nothing keeps a read's result: it leaves as it is.
            self.answer(ctx, from, reqid, Cow::Owned(result), Some(op_span));
            return;
        }
        // The outcome is fixed here, once (the PG-log analogue), and
        // journalled now so a restarted primary answers retransmits
        // instead of re-applying. A failed transaction rolled back, but
        // replaying it could succeed (e.g. exclusive create): its verdict
        // is kept too.
        let outcome = Rc::new(result);
        self.journal_reply(from, reqid, &outcome);
        if outcome.is_err() || acting.len() < 2 {
            self.conclude(ctx, from, reqid, outcome, op_span);
            return;
        }
        let repl_id = self.next_repl_id;
        self.next_repl_id += 1;
        let pending = PendingRepl {
            client: from,
            reqid,
            oid: oid.clone(),
            effect,
            outcome,
            // Every member but the primary.
            waiting: (1..acting.len()).fold(0, |mask, i| mask | ack_bit(i)),
            acting,
            op_span,
            ack_span: ctx.span_start("osd.replica_ack", Some(op_span)),
        };
        for node in pending.waiting_on().filter_map(|osd| self.map.node_of(osd)) {
            ctx.send_spanned(node, pending.repl(repl_id), Some(pending.ack_span));
        }
        // Answered once every replica acks; until then a retransmit
        // re-drives the replication.
        self.replies
            .entry(from)
            .or_default()
            .insert(reqid, DupState::InFlight);
        self.pending.insert(repl_id, pending);
    }
}
