//! Sequencer verbs: the one gate a type op passes, sent by the client or
//! forwarded by the inode's home rank, into `exec_type_op`, and the queue
//! cost and split surcharge it pays (DESIGN §33).

use super::*;

/// How a type op reached the rank handling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arrival {
    /// Sent by the client ([`MdsMsg::TypeOp`]).
    Direct,
    /// Forwarded by the inode's home rank ([`MdsPeer::ProxyOp`]).
    Proxied,
}

/// A type op as it reached this rank: its open `mds.typeop` span, whom to
/// answer, and how it came. A sequencer in the seal's last round trip
/// holds it whole until the seal ends.
#[derive(Debug, Clone, Copy)]
pub(super) struct TypeOpRequest {
    pub(super) span: SpanContext,
    pub(super) client: NodeId,
    pub(super) reqid: u64,
    op: SeqOp,
    arrival: Arrival,
}

impl Mds {
    /// Ranks participating in metadata service for client-facing inodes:
    /// the authoritative rank of every sequencer, plus the home rank of
    /// every proxied one. When two or more ranks participate, the
    /// namespace is *split* and the scatter-gather coherence protocol
    /// runs between them.
    fn participating_ranks(&self) -> BTreeSet<u32> {
        let mut ranks = BTreeSet::new();
        for ino in self.namespace.inodes_of_type(&FileType::Sequencer) {
            let route = self.route_of(ino);
            ranks.insert(route.auth);
            if route.style == ServeStyle::Proxy {
                ranks.insert(route.home);
            }
        }
        ranks
    }

    /// Per-request surcharge on *direct* service while the namespace is
    /// split. Proxied finds are exempt: shielding the slave from the
    /// client-facing coherence work is exactly the benefit the paper
    /// ascribes to proxy mode.
    fn split_surcharge(&mut self) -> SimDuration {
        let split = match self.split_cache {
            Some(split) => split,
            None => {
                let split = self.participating_ranks().len() >= 2;
                self.split_cache = Some(split);
                split
            }
        };
        if !split {
            return SimDuration::ZERO;
        }
        let mut extra = self.config.costs.coherence;
        if self.rank == 0 {
            extra = extra + self.config.costs.admin;
        }
        extra
    }

    fn account_request(&mut self, ino: Ino) {
        self.served_this_tick += 1;
        *self.per_inode_this_tick.entry(ino).or_insert(0) += 1;
    }

    fn exec_type_op(
        &mut self,
        ctx: &mut Context<'_>,
        ino: Ino,
        op: SeqOp,
    ) -> Result<u64, MdsError> {
        // A sequencer inherited from a journal replay without a layout
        // cannot prove its in-memory tail covers the store: minting or
        // reading positions before the seal/maxpos protocol runs could
        // double-issue a position or report a regressed tail, and the seal
        // itself waits for the layout.
        if self.unsealed_seqs.contains(&ino) {
            ctx.metrics().bump(counter!("mds.unsealed_seq_rejects"), 1);
            return Err(MdsError::LayoutMissing);
        }
        let inode = self.namespace.get_mut(ino).ok_or(MdsError::NotFound)?;
        // Every verb is a sequencer's: on any other file type it is the
        // wrong operation, whichever it is.
        if inode.ftype != FileType::Sequencer {
            return Err(MdsError::BadType);
        }
        match op {
            SeqOp::Next => {
                let v = inode.embedded;
                inode.embedded += 1;
                Ok(v)
            }
            // Bulk grant (`GetPosBatch { n }`): reserve a contiguous range
            // in one round trip. The reply carries the first position; the
            // caller owns `[first, first + n)`. Granted ranges a client
            // abandons become holes it must junk-fill — the tail never
            // moves backwards to reclaim them.
            SeqOp::NextBatch(0) => Err(MdsError::BadType),
            SeqOp::NextBatch(n) => {
                let v = inode.embedded;
                inode.embedded = inode.embedded.saturating_add(n);
                Ok(v)
            }
            SeqOp::Read => Ok(inode.embedded),
            // ZLog recovery runs against the registered layout; the caller
            // answers once the seal completes.
            SeqOp::Seal if self.seq_layouts.contains_key(&ino) => Ok(inode.embedded),
            SeqOp::Seal => Err(MdsError::LayoutMissing),
        }
    }

    /// Handles a sequencer verb for `client`, however it arrived. The gate
    /// is the same either way: a frozen inode answers `Frozen`, a
    /// sequencer mid-seal `Recovering` (a seal request joins the seal)
    /// unless the seal is in its last round trip, which holds the op
    /// until it ends, and only the authority serves.
    /// The arrival sets the queue cost, whether `mds.typeops` counts the
    /// op, and what a rank that is not the authority answers: the home of
    /// a proxied inode forwards a direct op and any other rank redirects
    /// it, while a forwarded op gets `Frozen` — its home sent it on a
    /// route this rank has given up, and the client's retry through the
    /// home finds the new one.
    pub(super) fn handle_type_op(
        &mut self,
        ctx: &mut Context<'_>,
        client: NodeId,
        reqid: u64,
        ino: Ino,
        op: SeqOp,
        arrival: Arrival,
    ) {
        let span = ctx.span_start("mds.typeop", ctx.incoming_span());
        ctx.span_tag_display(span, "op", op);
        let request = TypeOpRequest {
            span,
            client,
            reqid,
            op,
            arrival,
        };
        self.serve_type_op(ctx, ino, request);
    }

    /// [`Mds::handle_type_op`] past the span: also where a held op goes
    /// again once its seal completes.
    pub(super) fn serve_type_op(
        &mut self,
        ctx: &mut Context<'_>,
        ino: Ino,
        request: TypeOpRequest,
    ) {
        let TypeOpRequest {
            span,
            client,
            reqid,
            op,
            arrival,
        } = request;
        if self.frozen.contains(&ino) {
            self.refuse_type_op(ctx, span, client, reqid, "frozen", MdsError::Frozen);
            return;
        }
        if op != SeqOp::Seal && self.recovering_seqs.contains_key(&ino) {
            // The seal protocol hasn't finished: issuing a position now
            // could duplicate one the store already holds. In its last
            // round trip the op waits for it; before, or while a failed
            // stripe call waits to be made again, it answers at once.
            let last_step = self.seal_calls_out(ino);
            match self.recovering_seqs.get_mut(&ino) {
                Some(rec) if last_step => {
                    ctx.span_tag(span, "held", "seal");
                    rec.held.push(request);
                    ctx.metrics().bump(counter!("mds.seal_held"), 1);
                }
                _ => {
                    let err = MdsError::Recovering;
                    self.refuse_type_op(ctx, span, client, reqid, "recovering", err);
                }
            }
            return;
        }
        let route = self.route_of(ino);
        let costs = self.config.costs.clone();
        if route.auth == self.rank {
            // Serve. A proxied op pays only the find: the home did the rest.
            let cost = match arrival {
                Arrival::Direct => costs.handle + costs.find + self.split_surcharge(),
                Arrival::Proxied => costs.find,
            };
            let delay = self.enqueue(ctx.now(), cost);
            self.account_request(ino);
            let result = self.exec_type_op(ctx, ino, op);
            if arrival == Arrival::Direct {
                ctx.metrics().bump(counter!("mds.typeops"), 1);
            }
            if result.is_err() {
                ctx.span_tag(span, "error", "typeop failed");
            }
            // The reply leaves once the queueing delay elapses; that is
            // when this rank's work on the request ends. A seal's reply
            // waits for the seal.
            let done = ctx.now() + delay;
            ctx.span_end_at(span, done);
            if op == SeqOp::Seal && result.is_ok() {
                self.await_seal(ctx, ino, client, reqid);
            } else {
                ctx.send_after(delay, client, self.type_op_reply(reqid, result));
            }
        } else if arrival == Arrival::Proxied {
            // Forwarded on a route this rank gave up: never redirected, so
            // the client stays with its home and retries there.
            self.refuse_type_op(ctx, span, client, reqid, "stale proxy", MdsError::Frozen);
        } else if route.home == self.rank && route.style == ServeStyle::Proxy {
            // Proxy: the forward happens in the dispatch layer, off the
            // serialized request path — it adds latency but does not
            // occupy the server (which is what lets a proxy shovel far
            // more requests than it could fully process).
            self.account_request(ino);
            ctx.metrics().bump(counter!("mds.proxied"), 1);
            if let Some(node) = self.mdsmap.view().node_of(route.auth) {
                ctx.span_tag(span, "proxied", "true");
                let done = ctx.now() + costs.forward;
                ctx.span_end_at(span, done);
                ctx.send_after_spanned(
                    costs.forward,
                    node,
                    MdsPeer::ProxyOp {
                        reqid,
                        client,
                        ino,
                        op,
                    },
                    Some(span),
                );
            } else {
                // The authoritative rank has no live node (failover in
                // progress): a NotAuth redirect would just bounce the
                // client back here. Tell it to wait for the map.
                let err = MdsError::MdsUnavailable { rank: route.auth };
                self.refuse_type_op(ctx, span, client, reqid, "mds unavailable", err);
            }
        } else {
            // Client mode: redirect.
            let err = MdsError::NotAuth { rank: route.auth };
            self.refuse_type_op(ctx, span, client, reqid, "not auth", err);
        }
    }

    /// Refuses a type op: the span is tagged with the reason and ended,
    /// the client gets the typed error.
    pub(super) fn refuse_type_op(
        &self,
        ctx: &mut Context<'_>,
        span: SpanContext,
        client: NodeId,
        reqid: u64,
        reason: &str,
        err: MdsError,
    ) {
        ctx.span_tag(span, "error", reason);
        ctx.span_end(span);
        ctx.send(client, self.type_op_reply(reqid, Err(err)));
    }

    /// This rank's answer to type op `reqid`.
    pub(super) fn type_op_reply(&self, reqid: u64, result: Result<u64, MdsError>) -> MdsMsg {
        MdsMsg::TypeOpReply {
            reqid,
            result,
            served_by: self.rank,
        }
    }
}
