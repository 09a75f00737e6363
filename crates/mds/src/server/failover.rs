//! Failover: the cluster log, map subscriptions and beacons, a standby's
//! promotion into a rank and an active daemon's deposal from one.

use super::*;

impl Mds {
    /// Reports `line` to the monitor's central cluster log as `mds.<rank>`.
    pub(super) fn cluster_log(&self, ctx: &mut Context<'_>, line: String) {
        ctx.send(
            self.monitor,
            MonMsg::ClusterLog {
                source: format!("mds.{}", self.rank),
                line,
            },
        );
    }

    /// Subscribes to each map this daemon follows whose snapshot has not
    /// landed, in the order it always has: the mdsmap, the osdmap — through
    /// the embedded client, whose `on_start` is its subscribe — and the
    /// Mantle policy map.
    pub(super) fn subscribe(&mut self, ctx: &mut Context<'_>) {
        if !self.mdsmap.landed() {
            self.mdsmap.subscribe(ctx);
        }
        if !self.rados.map_landed() {
            self.rados.on_start(ctx);
        }
        if !self.mantle.landed() {
            self.mantle.subscribe(ctx);
        }
    }

    /// Liveness beacon. Active daemons report their rank; standbys send
    /// `None`, which doubles as standby registration at the monitor.
    pub(super) fn send_beacon(&mut self, ctx: &mut Context<'_>) {
        let rank = if self.standby { None } else { Some(self.rank) };
        ctx.send(self.monitor, MonMsg::MdsBeacon { rank });
    }

    /// Reacts to an mdsmap change: a standby that now holds a rank takes
    /// over; an active daemon whose rank moved to another node deposes
    /// itself (the monitor declared it dead — it must not keep serving).
    pub(super) fn check_promotion(&mut self, ctx: &mut Context<'_>) {
        if self.standby {
            if let Some(rank) = self.mdsmap.view().rank_of(ctx.me()) {
                self.takeover(ctx, rank);
            }
        } else if let Some(entry) = self.mdsmap.view().ranks.get(&self.rank) {
            if entry.up && entry.node != ctx.me() {
                self.depose(ctx);
            }
        }
    }

    fn takeover(&mut self, ctx: &mut Context<'_>, rank: u32) {
        self.standby = false;
        self.rank = rank;
        self.journal_oid = journal_oid_of(rank);
        self.ready = false;
        self.namespace = Namespace::new();
        ctx.metrics().bump(counter!("mds.takeovers"), 1);
        let me = ctx.me().0;
        self.cluster_log(ctx, format!("standby {me} taking over rank {rank}"));
        if self.config.journal {
            // Replay the rank's journal: the read completes the takeover.
            self.try_recover(ctx);
        } else {
            self.become_ready(ctx);
        }
    }

    /// Steps down: the monitor re-assigned this rank elsewhere. Dropping
    /// caps and buffered journal entries is safe — the new authority
    /// replays the durable journal and re-establishes caps through the
    /// reconnect window. Store requests still in flight lose their routes
    /// and are cancelled: a deposed daemon retransmits nothing. Nothing of
    /// the rank stays for a later promotion, into this rank or another, to
    /// inherit: no inode frozen for an export whose ack may never come, no
    /// export deferred for a cap, and no layout — the rank's journal holds
    /// those.
    fn depose(&mut self, ctx: &mut Context<'_>) {
        self.standby = true;
        self.ready = false;
        self.caps.clear();
        self.frozen.clear();
        self.pending_exports.clear();
        self.seq_layouts.clear();
        self.journal_buf.clear();
        if let Some(flush) = self.journal_inflight.take() {
            ctx.span_tag(flush.span, "error", "deposed");
            ctx.span_end(flush.span);
        }
        self.unflushed_replies.clear();
        for held in self.recovering_seqs.values().flat_map(|rec| &rec.held) {
            ctx.span_tag(held.span, "error", "deposed");
            ctx.span_end(held.span);
        }
        self.recovering_seqs.clear();
        self.unsealed_seqs.clear();
        self.forget_policy_fetch(ctx);
        self.rados.cancel_where(ctx, |_| true);
        self.stashed.clear();
        ctx.metrics().bump(counter!("mds.deposed"), 1);
    }

    /// The reply carrying `err` to `request`, or `None` for a
    /// fire-and-forget message.
    pub(super) fn error_reply(&self, request: &MdsMsg, err: MdsError) -> Option<MdsMsg> {
        let reply = match *request {
            MdsMsg::Resolve { reqid, .. } => MdsMsg::Resolved {
                reqid,
                result: Err(err),
            },
            MdsMsg::Create { reqid, .. } => MdsMsg::Created {
                reqid,
                result: Err(err),
            },
            MdsMsg::TypeOp { reqid, .. } => self.type_op_reply(reqid, Err(err)),
            _ => return None,
        };
        Some(reply)
    }
}
