//! Replication: the primary's writes waiting for their acks, and a
//! replica's apply of a shipped effect.

use super::*;

pub(super) struct PendingRepl {
    pub(super) client: NodeId,
    pub(super) reqid: u64,
    pub(super) oid: ObjectId,
    pub(super) effect: Option<Rc<JournalRecord>>,
    pub(super) outcome: Outcome,
    /// The acting set the write was shipped to, as the map view holds it.
    pub(super) acting: Rc<[u32]>,
    /// `acting[i]`'s ack is still out where [`ack_bit`]`(i)` is set.
    pub(super) waiting: u64,
    /// The `osd.op` span of the originating client op, closed when the
    /// final reply leaves.
    pub(super) op_span: SpanContext,
    /// The `osd.replica_ack` span covering the replication round trip,
    /// closed when the last ack lands.
    pub(super) ack_span: SpanContext,
}

/// The ack bit of acting-set member `i`. A pool replicates at most 64
/// ways; a member past that has none, and is not waited for.
pub(super) fn ack_bit(i: usize) -> u64 {
    1u64.checked_shl(i.try_into().unwrap_or(u32::MAX))
        .unwrap_or(0)
}

impl PendingRepl {
    /// The effect shipment to a replica: refcounts of what the primary
    /// holds.
    pub(super) fn repl(&self, repl_id: u64) -> OsdMsg {
        OsdMsg::Repl {
            repl_id,
            oid: self.oid.clone(),
            effect: self.effect.clone(),
            outcome: Rc::clone(&self.outcome),
            origin_client: self.client,
            origin_reqid: self.reqid,
        }
    }

    /// The replicas whose ack is still out, in acting-set order.
    pub(super) fn waiting_on(&self) -> impl Iterator<Item = u32> + '_ {
        let acting = self.acting.iter().enumerate();
        acting
            .filter(|(i, _)| self.waiting & ack_bit(*i) != 0)
            .map(|(_, osd)| *osd)
    }

    /// Stops waiting on the replicas `settled` picks (one that acked, or
    /// one that left the up set and never will); true once none is out.
    pub(super) fn settle(&mut self, settled: impl Fn(u32) -> bool) -> bool {
        for (i, osd) in self.acting.iter().enumerate() {
            if settled(*osd) {
                self.waiting &= !ack_bit(i);
            }
        }
        self.waiting == 0
    }
}

/// An [`OsdMsg::Repl`] as the replica handles it: at once, or — parked
/// while the object's PG backfills — once the snapshot lands, deduped
/// against the source's shipped reply window. The effect names its object.
pub(super) struct DeferredRepl {
    pub(super) from: NodeId,
    pub(super) repl_id: u64,
    pub(super) effect: Option<Rc<JournalRecord>>,
    pub(super) outcome: Outcome,
    pub(super) origin_client: NodeId,
    pub(super) origin_reqid: u64,
}

impl Osd {
    /// Makes a primary-shipped effect this replica's own: applied as values
    /// and journalled, before the ack. Nothing here depends on which
    /// interface version this OSD has installed.
    fn apply_effect(&mut self, effect: Rc<JournalRecord>) {
        match effect.as_ref() {
            JournalRecord::Delta(oid, delta) => match self.store.get_mut(oid) {
                Some(obj) => obj.apply_post_image(delta),
                None => {
                    let mut obj = Object::new();
                    obj.apply_post_image(delta);
                    self.store.insert(oid.clone(), obj);
                }
            },
            JournalRecord::DelObject(oid) => {
                self.store.remove(oid);
            }
            // A primary ships nothing else.
            _ => return,
        }
        if let Some(journal) = &self.journal {
            journal.append(effect);
        }
    }

    /// Answers replicated write `repl_id` none of whose acks is out any
    /// more — the last one landed, or the replicas still out left the up
    /// set — and closes its spans.
    pub(super) fn release(&mut self, ctx: &mut Context<'_>, repl_id: u64) {
        if let Some(p) = self.pending.remove(&repl_id) {
            ctx.span_end(p.ack_span);
            self.conclude(ctx, p.client, p.reqid, p.outcome, p.op_span);
        }
    }

    /// Applies a primary-shipped effect on this replica and acks it. No
    /// class code runs here: the replica takes the primary's post-image and
    /// the primary's results, whatever interface version it has installed
    /// itself (DESIGN §28). Re-sent effects are deduped by
    /// `(client, reqid)`, so each is journalled and applied once.
    pub(super) fn handle_repl(&mut self, ctx: &mut Context<'_>, repl: DeferredRepl) {
        let (client, reqid) = (repl.origin_client, repl.origin_reqid);
        let window = self.replies.get(&client);
        let applied = window.is_some_and(|w| w.contains_key(&reqid));
        if applied {
            ctx.metrics().bump(counter!("osd.dup_repls"), 1);
        } else {
            let parent = ctx.incoming_span();
            let jspan = ctx.span_start("osd.repl_journal", parent);
            // Journalled before acking: the primary counts this ack as
            // a durable replica. Recording the primary's results lets
            // this replica answer client retransmits after a failover.
            if let Some(effect) = repl.effect {
                self.apply_effect(effect);
            }
            self.journal_reply(client, reqid, &repl.outcome);
            self.cache_reply(client, reqid, repl.outcome);
            let done_at = ctx.now() + self.config.service_time;
            ctx.span_end_at(jspan, done_at);
        }
        let ack = OsdMsg::ReplAck {
            repl_id: repl.repl_id,
        };
        ctx.send_after(self.config.service_time, repl.from, ack);
    }

    pub(super) fn on_repl_ack(&mut self, ctx: &mut Context<'_>, from: NodeId, repl_id: u64) {
        let mut osds = self.map.osds.iter();
        let acker = osds.find(|(_, e)| e.node == from).map(|(id, _)| *id);
        let pending = self.pending.get_mut(&repl_id);
        let done = pending.is_some_and(|p| p.settle(|osd| Some(osd) == acker));
        if done {
            self.release(ctx, repl_id);
        }
    }
}
