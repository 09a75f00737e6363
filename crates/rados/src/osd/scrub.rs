//! Scrub: a primary checks its replicas' fingerprints and pushes its
//! copies to repair them.

use super::*;

impl Osd {
    pub(super) fn on_pg_push(&mut self, ctx: &mut Context<'_>, objects: Vec<(ObjectId, Object)>) {
        for (oid, obj) in objects {
            self.install_object(oid, obj);
        }
        ctx.metrics()
            .bump(counter!("osd.recovery_pushes_applied"), 1);
    }

    pub(super) fn on_scrub_check(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        pool: String,
        pg_index: u32,
        fingerprints: Vec<(ObjectId, u64)>,
    ) {
        let mine: BTreeMap<ObjectId, u64> = self
            .objects_in_pg(&pool, pg_index)
            .into_iter()
            .map(|(oid, obj)| (oid, obj.fingerprint()))
            .collect();
        let divergent: Vec<ObjectId> = fingerprints
            .into_iter()
            .filter(|(oid, fp)| mine.get(oid) != Some(fp))
            .map(|(oid, _)| oid)
            .collect();
        if !divergent.is_empty() {
            ctx.send(from, OsdMsg::ScrubDivergent { objects: divergent });
        }
    }

    pub(super) fn on_scrub_divergent(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        objects: Vec<ObjectId>,
    ) {
        // Repair: push the primary's copies to the reporting
        // replica.
        let repaired: Vec<(ObjectId, Object)> = objects
            .iter()
            .filter_map(|oid| self.store.get(oid).map(|o| (oid.clone(), o.clone())))
            .collect();
        ctx.metrics()
            .bump(counter!("osd.scrub_repairs"), repaired.len() as u64);
        ctx.send(from, OsdMsg::PgPush { objects: repaired });
    }

    pub(super) fn on_scrub_timer(&mut self, ctx: &mut Context<'_>) {
        for (pool, info) in self.map.pools.clone() {
            for pg_index in 0..info.pg_num {
                let Some(acting) = self.map.acting_set_for_pg(&pool, pg_index) else {
                    continue;
                };
                if acting.first() != Some(&self.id) {
                    continue;
                }
                let fingerprints: Vec<(ObjectId, u64)> = self
                    .objects_in_pg(&pool, pg_index)
                    .into_iter()
                    .map(|(oid, obj)| (oid, obj.fingerprint()))
                    .collect();
                if fingerprints.is_empty() {
                    continue;
                }
                for osd in &acting[1..] {
                    if let Some(node) = self.map.node_of(*osd) {
                        ctx.send(
                            node,
                            OsdMsg::ScrubCheck {
                                pool: pool.clone(),
                                pg_index,
                                fingerprints: fingerprints.clone(),
                            },
                        );
                    }
                }
                ctx.metrics().bump(counter!("osd.scrubs"), 1);
            }
        }
        if let Some(interval) = self.config.scrub_interval {
            ctx.set_timer(interval, TIMER_SCRUB);
        }
    }
}
