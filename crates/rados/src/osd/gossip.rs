//! Maps: installing the osdmap and the interfaces map, and gossiping
//! them on to peers.

use super::*;

impl Osd {
    fn peers(&self) -> Vec<(u32, NodeId)> {
        self.map
            .osds
            .iter()
            .filter(|(id, e)| **id != self.id && e.up)
            .map(|(id, e)| (*id, e.node))
            .collect()
    }

    /// Installs every class of the held interfaces map at its epoch,
    /// counting the ones that do not compile.
    pub(super) fn install_classes(&mut self, ctx: &mut Context<'_>) {
        for (class, source) in self.interfaces.iter() {
            let source = String::from_utf8_lossy(source);
            if self
                .registry
                .install_scripted(class, &source, self.interfaces_epoch)
                .is_err()
            {
                ctx.metrics().bump(counter!("osd.iface_install_errors"), 1);
            }
        }
    }

    /// Adopts `entries` as the interfaces map if `epoch` is news, holding
    /// the handle it came in: nothing is copied but the journal's record.
    pub(super) fn install_interfaces(
        &mut self,
        ctx: &mut Context<'_>,
        epoch: u64,
        entries: Rc<BTreeMap<String, Vec<u8>>>,
    ) -> bool {
        if epoch <= self.interfaces_epoch {
            return false;
        }
        let prev_epoch = self.interfaces_epoch;
        self.interfaces_epoch = epoch;
        self.interfaces = entries;
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::Interfaces {
                epoch,
                entries: BTreeMap::clone(&self.interfaces),
            });
        }
        self.install_classes(ctx);
        // Figure 8's measurement point: the update is now live here. An
        // epoch jump makes every skipped update live transitively (the
        // newer map subsumes the older ones), so record them all.
        let now = ctx.now();
        for e in (prev_epoch + 1)..=epoch {
            ctx.metrics()
                .observe(&format!("osd.iface_live.e{e}"), now, f64::from(self.id));
        }
        ctx.metrics().bump(counter!("osd.iface_installs"), 1);
        true
    }

    /// Installs the view parsed from `entries` beside its encoding, which
    /// gossip carries; returns the view it replaces.
    pub(super) fn set_map(&mut self, epoch: u64, entries: BTreeMap<String, Vec<u8>>) -> OsdMapView {
        let map = SERVICE_MAP_OSD.to_string();
        let view = OsdMapView::from_snapshot(&MapSnapshot {
            map,
            epoch,
            entries,
        });
        self.map_entries = Rc::new(view.encode());
        std::mem::replace(&mut self.map, view)
    }

    /// Adopts the osdmap `entries` if `epoch` is news. Only then are they
    /// read, and copied only if another holder still shares them.
    pub(super) fn install_osdmap(
        &mut self,
        ctx: &mut Context<'_>,
        epoch: u64,
        entries: Rc<BTreeMap<String, Vec<u8>>>,
    ) -> bool {
        if epoch <= self.map.epoch {
            return false;
        }
        let entries = Rc::unwrap_or_clone(entries);
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::OsdMap {
                epoch,
                entries: entries.clone(),
            });
        }
        let old = self.set_map(epoch, entries);
        if self.map.skipped > 0 {
            // Surfaced exactly once per epoch per daemon: install_osdmap
            // is guarded on `epoch > self.map.epoch`, so a bad entry shows
            // up here the first time each daemon adopts the epoch carrying
            // it — visible without flooding on every gossip exchange.
            ctx.metrics()
                .bump(counter!("rados.osdmap_skipped_entries"), self.map.skipped);
            let now = ctx.now();
            ctx.metrics().observe(
                &format!("rados.osdmap_skipped.e{epoch}"),
                now,
                self.map.skipped as f64,
            );
        }
        self.on_map_change(ctx, &old);
        true
    }

    /// This OSD's current maps, whatever a peer holds: two refcounts. The
    /// interfaces go as the raw entries they came as; the osdmap as the
    /// entries encoded from the typed view when it was installed.
    pub(super) fn gossip_payload(&self) -> OsdMsg {
        OsdMsg::Gossip {
            interfaces: (self.interfaces_epoch, Rc::clone(&self.interfaces)),
            osdmap: (self.map.epoch, Rc::clone(&self.map_entries)),
        }
    }

    pub(super) fn push_gossip(&mut self, ctx: &mut Context<'_>) {
        let peers = self.peers();
        if peers.is_empty() {
            return;
        }
        let payload = self.gossip_payload();
        let mut order: Vec<_> = peers;
        order.shuffle(ctx.rng());
        for (_, node) in order.into_iter().take(self.config.gossip_fanout) {
            ctx.send(node, payload.clone());
        }
    }

    pub(super) fn on_gossip(
        &mut self,
        ctx: &mut Context<'_>,
        interfaces_epoch: u64,
        interfaces: Rc<BTreeMap<String, Vec<u8>>>,
        map_epoch: u64,
        osdmap: Rc<BTreeMap<String, Vec<u8>>>,
    ) {
        // Each install compares epochs before it reads the entries:
        // a round with no news drops two handles and copies nothing.
        let fresh = self.install_osdmap(ctx, map_epoch, osdmap)
            | self.install_interfaces(ctx, interfaces_epoch, interfaces);
        if fresh {
            // Epidemic push: forward news immediately.
            self.push_gossip(ctx);
        }
    }

    pub(super) fn on_gossip_timer(&mut self, ctx: &mut Context<'_>) {
        // Anti-entropy: periodic background exchange, in addition to
        // the epidemic push on fresh news.
        self.push_gossip(ctx);
        ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
    }
}
