//! The capability path: cap requests and releases, the grants and recalls
//! they cause, and the cap tick that times a holder out.

use super::*;

impl Mds {
    fn run_cap_actions(&mut self, ctx: &mut Context<'_>, ino: Ino, actions: Vec<CapAction>) {
        let Some(cap) = self.caps.get(&ino) else {
            return;
        };
        let policy = cap.policy();
        let state = self.namespace.get(ino).map(|i| i.embedded).unwrap_or(0);
        let cost = self.config.costs.handle;
        for action in actions {
            let delay = self.enqueue(ctx.now(), cost);
            match action {
                CapAction::Grant { to } => {
                    ctx.metrics().bump(counter!("mds.cap_grants"), 1);
                    let span = ctx.span_start("mds.cap_grant", ctx.incoming_span());
                    if let Some(rec) = &self.cap_history {
                        let id = rec.invoke(u64::from(to.0), ctx.now(), RegOp::Read { key: ino });
                        rec.ok(id, ctx.now(), RegRet::Value(state));
                    }
                    // Journal the grant so a promoted standby knows who to
                    // recall during its reconnect window.
                    self.journal_now(ctx, JournalEntry::CapGrant { ino, holder: to });
                    let done = ctx.now() + delay;
                    ctx.span_end_at(span, done);
                    ctx.send_after_spanned(
                        delay,
                        to,
                        MdsMsg::CapGrant {
                            ino,
                            state,
                            quota: policy.quota,
                            max_hold: policy.max_hold,
                        },
                        Some(span),
                    );
                }
                CapAction::Recall { from } => {
                    ctx.metrics().bump(counter!("mds.cap_recalls"), 1);
                    ctx.send_after(delay, from, MdsMsg::CapRecall { ino });
                }
            }
        }
    }

    pub(super) fn cap_entry(&mut self, ino: Ino) -> &mut CapState {
        self.caps
            .entry(ino)
            .or_insert_with(|| CapState::new(CapPolicyConfig::best_effort()))
    }

    pub(super) fn on_cap_request(&mut self, ctx: &mut Context<'_>, from: NodeId, ino: Ino) {
        if !self.is_auth(ino) {
            // Capability traffic follows authority.
            return;
        }
        if let Some(rec) = self.recovering_seqs.get_mut(&ino) {
            // Don't grant caps on a sequencer mid-seal: the request
            // waits in the seal until the tail is fenced.
            rec.cap_requests.push(from);
            return;
        }
        let now = ctx.now();
        let actions = self.cap_entry(ino).request(from, now);
        self.run_cap_actions(ctx, ino, actions);
    }

    pub(super) fn on_cap_release(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        ino: Ino,
        state: u64,
    ) {
        // Only the recorded holder may write back state. A client
        // that was evicted (timed out while partitioned) races its
        // stale release against the new holder's writes — reject.
        let known = self.caps.contains_key(&ino);
        let holder = self.caps.get(&ino).and_then(|c| c.holder());
        let hist = self.cap_history.as_ref().map(|rec| {
            let op = RegOp::Write {
                key: ino,
                value: state,
            };
            (rec.clone(), rec.invoke(u64::from(from.0), ctx.now(), op))
        });
        if known && holder != Some(from) {
            ctx.metrics().bump(counter!("mds.stale_releases"), 1);
            if let Some((rec, id)) = hist {
                rec.fail(id, ctx.now(), "stale release rejected");
            }
            return;
        }
        if let Some(inode) = self.namespace.get_mut(ino) {
            if state > inode.embedded {
                inode.embedded = state;
                self.journal_now(ctx, JournalEntry::SetEmbedded { ino, value: state });
            }
        }
        if let Some((rec, id)) = hist {
            rec.ok(id, ctx.now(), RegRet::Written);
        }
        if holder == Some(from) {
            self.journal_now(ctx, JournalEntry::CapDrop { ino });
        }
        let now = ctx.now();
        let actions = self
            .caps
            .get_mut(&ino)
            .map(|c| c.release(from, now))
            .unwrap_or_default();
        self.run_cap_actions(ctx, ino, actions);
        // A deferred export can proceed once the cap is home.
        if let Some(export) = self.pending_exports.remove(&ino) {
            self.start_export(ctx, export);
        }
    }

    pub(super) fn on_cap_timer(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let mut due: Vec<(Ino, Vec<CapAction>)> = self
            .caps
            .iter_mut()
            .map(|(ino, cap)| (*ino, cap.on_tick(now)))
            .filter(|(_, a)| !a.is_empty())
            .collect();
        // Grants and recalls are sent per entry: inode order, not
        // the map's hash order.
        due.sort_unstable_by_key(|(ino, _)| *ino);
        for (ino, actions) in due {
            self.run_cap_actions(ctx, ino, actions);
        }
        ctx.set_timer(CAP_TICK, TIMER_CAP);
    }
}
