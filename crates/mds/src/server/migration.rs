//! Migration: exporting an inode's authority to another rank, and the
//! routes that follow an import.

use super::*;

impl Mds {
    pub(super) fn start_export(&mut self, ctx: &mut Context<'_>, export: Export) {
        let ino = export.ino;
        // Mid-seal the tail that would travel with the inode is not yet
        // known, and the seal's waiters are answered here.
        let sealing = self.recovering_seqs.contains_key(&ino);
        if !self.is_auth(ino) || self.frozen.contains(&ino) || sealing {
            return;
        }
        // A held capability must come home before the inode can move.
        if let Some(cap) = self.caps.get_mut(&ino) {
            if let Some(holder) = cap.holder() {
                self.pending_exports.insert(ino, export);
                ctx.send(holder, MdsMsg::CapRecall { ino });
                return;
            }
        }
        let Some(target_node) = self.mdsmap.view().node_of(export.target) else {
            return;
        };
        let Some(inode) = self.namespace.get(ino) else {
            return;
        };
        let rate = self.last_rates.get(&ino).copied().unwrap_or(0.0);
        let policy = self
            .caps
            .get(&ino)
            .map(|c| c.policy())
            .unwrap_or_else(CapPolicyConfig::best_effort);
        self.frozen.insert(ino);
        ctx.metrics().bump(counter!("mds.exports"), 1);
        let now = ctx.now();
        ctx.metrics().observe("mds.export_events", now, ino as f64);
        ctx.send(
            target_node,
            MdsPeer::Export {
                ino,
                embedded: inode.embedded,
                policy,
                style: export.style,
                home: self.route_of(ino).home,
                rate,
            },
        );
    }

    /// The importer acknowledged: its route goes in as the inode thaws, so
    /// no op finds the inode unfrozen on a route that still names this
    /// rank, whichever of the ack and the route update lands first.
    pub(super) fn finish_export(&mut self, ctx: &mut Context<'_>, ino: Ino, route: Route) {
        self.install_route(ino, route);
        self.caps.remove(&ino);
        // Shedding an inode leaves residual coherence churn on the
        // exporter too, though smaller than the importer's.
        self.coherence_spike += self.last_rates.get(&ino).copied().unwrap_or(0.0) / 2.0;
        self.coherence_spike_at = ctx.now();
    }

    /// Routes `ino` by `route` and thaws it: a route is sent once an
    /// import is done, so any export of the inode from here is over.
    pub(super) fn install_route(&mut self, ino: Ino, route: Route) {
        self.routes.insert(ino, route);
        self.split_cache = None;
        self.frozen.remove(&ino);
    }

    pub(super) fn broadcast_route(&mut self, ctx: &mut Context<'_>, ino: Ino, route: Route) {
        self.install_route(ino, route);
        for node in self.peers() {
            ctx.send(node, MdsPeer::RouteUpdate { ino, route });
        }
    }
}
