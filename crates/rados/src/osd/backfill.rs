//! Backfill: a PG this OSD acquires on a map change is pulled from a
//! prior member before it is served.

use super::*;

/// One source reply-cache entry carried by [`OsdMsg::BackfillPush`]:
/// `(origin client, reqid, outcome)` of an op the snapshot already
/// reflects, the outcome the source's window holds.
pub type AppliedReply = (NodeId, u64, Outcome);

/// One in-progress PG backfill on the receiving OSD.
pub(super) struct Backfill {
    /// The map epoch this backfill was (re-)issued under; pushes stamped
    /// with an older epoch are discarded.
    epoch: u64,
    /// Candidate source OSDs, prior acting-set members first. Rotated on
    /// each retry; pruned of departed OSDs as maps change.
    sources: Vec<u32>,
    /// Index into `sources` of the next pull target.
    next_source: usize,
    /// Replicated writes parked until the snapshot lands.
    pub(super) deferred: Vec<DeferredRepl>,
}

/// Approximate wire size of an object for data-movement accounting.
fn object_bytes(obj: &Object) -> u64 {
    let omap: usize = obj.omap.iter().map(|(k, v)| k.len() + v.len()).sum();
    let xattrs: usize = obj.xattrs.iter().map(|(k, v)| k.len() + v.len()).sum();
    (obj.data.len() + omap + xattrs) as u64
}

/// Backfill source candidates: prior acting-set members first (they hold
/// the data), then current peers, deduplicated, excluding `me` and anyone
/// not up.
fn source_candidates(me: u32, before_set: &[u32], now_set: &[u32], up: &BTreeSet<u32>) -> Vec<u32> {
    let mut sources = Vec::new();
    for osd in before_set.iter().chain(now_set.iter()) {
        if *osd != me && up.contains(osd) && !sources.contains(osd) {
            sources.push(*osd);
        }
    }
    sources
}

impl Osd {
    /// Installs a whole object shipped by backfill or repair, journalling
    /// its full state first.
    pub(super) fn install_object(&mut self, oid: ObjectId, obj: Object) {
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::PutObject(oid.clone(), obj.clone()));
        }
        self.store.insert(oid, obj);
    }

    /// Reacts to an osdmap change: resolve stuck replications and start
    /// recovery pulls for newly-acquired PGs.
    pub(super) fn on_map_change(&mut self, ctx: &mut Context<'_>, old: &OsdMapView) {
        // Re-evaluate pending replicated writes: replicas that left the up
        // set can never ack.
        let up: BTreeSet<u32> = self.map.up_osds().into_iter().collect();
        let pending = self.pending.iter_mut();
        let mut completed: Vec<u64> = pending
            .filter_map(|(repl_id, p)| p.settle(|osd| !up.contains(&osd)).then_some(*repl_id))
            .collect();
        // `pending` iterates in a fixed order, not a sorted one: releases
        // leave in repl_id order.
        completed.sort_unstable();
        for repl_id in completed {
            self.release(ctx, repl_id);
        }
        // Drop backfills for PGs this map takes away from us. The parked
        // replications are replayed through the normal replica path —
        // replicas apply shipped effects unconditionally, so this keeps
        // the primary's ack accounting moving even though we no longer
        // serve the PG.
        let dropped: Vec<(String, u32)> = self
            .backfills
            .keys()
            .filter(|(pool, pg_index)| {
                !self
                    .map
                    .acting_set_for_pg(pool, *pg_index)
                    .is_some_and(|set| set.contains(&self.id))
            })
            .cloned()
            .collect();
        for key in dropped {
            ctx.metrics().bump(counter!("osd.backfill_dropped"), 1);
            self.finish_backfill(ctx, key, &[]);
        }
        // Backfill: for every pool/PG where I am now acting but was not
        // before, copy the PG from a prior member before serving it. An
        // OSD whose first map arrives mid-life (a joiner, or a restart
        // without a journal) has no usable history: treat every acquired
        // PG as remapped and pull from current peers, who do hold the
        // data. The cluster's very first map (epoch 1) is exempt — there
        // is nothing to copy at creation.
        let unknown_history = old.epoch == 0 && self.map.epoch > 1;
        for (pool, info) in self.map.pools.clone() {
            for pg_index in 0..info.pg_num {
                let Some(now_set) = self.map.acting_set_for_pg(&pool, pg_index) else {
                    continue;
                };
                if !now_set.contains(&self.id) {
                    continue;
                }
                let key = (pool.clone(), pg_index);
                let before_set = old.acting_set_for_pg(&pool, pg_index).unwrap_or_default();
                if let Some(backfill) = self.backfills.get_mut(&key) {
                    // Still backfilling across another remap: re-stamp to
                    // the new epoch (pushes for the old epoch are now
                    // stale) and refresh the source candidates.
                    backfill.epoch = self.map.epoch;
                    let sources = source_candidates(self.id, &before_set, &now_set, &up);
                    if !sources.is_empty() {
                        backfill.sources = sources;
                        backfill.next_source = 0;
                    }
                    self.send_backfill_pull(ctx, &key);
                    continue;
                }
                if !unknown_history && before_set.contains(&self.id) {
                    continue;
                }
                if !unknown_history && before_set.is_empty() {
                    // Brand-new PG (pool just created): nothing to copy.
                    continue;
                }
                // Prior members first — they are known to hold the data;
                // current peers as fallback (for a joiner they are the
                // only candidates).
                let sources = source_candidates(self.id, &before_set, &now_set, &up);
                if sources.is_empty() {
                    // Nobody holds a copy we could pull; serve as-is.
                    ctx.metrics().bump(counter!("osd.backfill_no_source"), 1);
                    continue;
                }
                self.backfills.insert(
                    key.clone(),
                    Backfill {
                        epoch: self.map.epoch,
                        sources,
                        next_source: 0,
                        deferred: Vec::new(),
                    },
                );
                ctx.metrics().bump(counter!("osd.backfills_started"), 1);
                self.send_backfill_pull(ctx, &key);
            }
        }
    }

    /// Sends the next pull for an in-progress backfill, rotating through
    /// the source candidates.
    fn send_backfill_pull(&mut self, ctx: &mut Context<'_>, key: &(String, u32)) {
        let Some(backfill) = self.backfills.get_mut(key) else {
            return;
        };
        if backfill.sources.is_empty() {
            return;
        }
        let source = backfill.sources[backfill.next_source % backfill.sources.len()];
        backfill.next_source += 1;
        let epoch = backfill.epoch;
        if let Some(node) = self.map.node_of(source) {
            ctx.send(
                node,
                OsdMsg::PgPull {
                    pool: key.0.clone(),
                    pg_index: key.1,
                    epoch,
                },
            );
            ctx.metrics().bump(counter!("osd.recovery_pulls"), 1);
        }
    }

    /// Closes a backfill and replays its parked replications. Entries in
    /// `applied` (the source's reply window) are already reflected in the
    /// snapshot: record the outcome and ack without re-applying. The rest
    /// go through the normal replica path, which dedups by
    /// `(client, reqid)`.
    fn finish_backfill(
        &mut self,
        ctx: &mut Context<'_>,
        key: (String, u32),
        applied: &[AppliedReply],
    ) {
        let Some(backfill) = self.backfills.remove(&key) else {
            return;
        };
        for d in backfill.deferred {
            let done = applied
                .iter()
                .find(|(client, reqid, _)| *client == d.origin_client && *reqid == d.origin_reqid);
            if let Some((client, reqid, outcome)) = done {
                self.journal_reply(*client, *reqid, outcome);
                self.cache_reply(*client, *reqid, Rc::clone(outcome));
                ctx.send_after(
                    self.config.service_time,
                    d.from,
                    OsdMsg::ReplAck { repl_id: d.repl_id },
                );
                ctx.metrics()
                    .bump(counter!("osd.backfill_deduped_repls"), 1);
            } else {
                self.handle_repl(ctx, d);
            }
        }
    }

    /// The backfill in progress for `oid`'s PG, if any. None is running in
    /// the common case, and then nothing is placed or looked up.
    pub(super) fn backfill_of(&mut self, oid: &ObjectId) -> Option<&mut Backfill> {
        if self.backfills.is_empty() {
            return None;
        }
        let info = self.map.pools.get(&*oid.pool)?;
        let key = (oid.pool.to_string(), pg_of_id(oid, info.pg_num).index);
        self.backfills.get_mut(&key)
    }

    pub(super) fn objects_in_pg(&self, pool: &str, pg_index: u32) -> Vec<(ObjectId, Object)> {
        let Some(info) = self.map.pools.get(pool) else {
            return Vec::new();
        };
        let mut objects: Vec<(ObjectId, Object)> = self
            .store
            .iter()
            .filter(|(oid, _)| *oid.pool == *pool && pg_of_id(oid, info.pg_num).index == pg_index)
            .map(|(oid, obj)| (oid.clone(), obj.clone()))
            .collect();
        // The store iterates in hash order; callers put these on the wire
        // (backfill pushes, scrub fingerprints), in the order of the names.
        objects.sort_by(|(a, _), (b, _)| a.cmp(b));
        objects
    }

    pub(super) fn on_pg_pull(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        pool: String,
        pg_index: u32,
        epoch: u64,
    ) {
        // Serve only when safe: our map must be at least the
        // puller's epoch (otherwise we might still admit writes
        // under the old map after taking the snapshot), and our
        // own copy must be complete. The puller's backfill timer
        // retries against rotated sources.
        if self.map.epoch < epoch || self.backfills.contains_key(&(pool.clone(), pg_index)) {
            ctx.metrics()
                .bump(counter!("osd.backfill_pulls_unserved"), 1);
            return;
        }
        let objects = self.objects_in_pg(&pool, pg_index);
        let bytes: u64 = objects.iter().map(|(_, obj)| object_bytes(obj)).sum();
        ctx.metrics()
            .bump(counter!("osd.backfill_objects_sent"), objects.len() as u64);
        ctx.metrics()
            .bump(counter!("osd.backfill_bytes_sent"), bytes);
        // Ship the reply window too: it tells the puller which
        // replicated writes the snapshot already contains (the
        // PG-log role in Ceph's backfill).
        let mut applied: Vec<AppliedReply> = self
            .replies
            .iter()
            .flat_map(|(client, window)| {
                window.iter().filter_map(|(reqid, state)| match state {
                    DupState::Done(outcome) => Some((*client, *reqid, Rc::clone(outcome))),
                    DupState::InFlight => None,
                })
            })
            .collect();
        // Hash-map order must not reach the wire (determinism).
        applied.sort_by_key(|(client, reqid, _)| (*client, *reqid));
        ctx.send(
            from,
            OsdMsg::BackfillPush {
                pool,
                pg_index,
                epoch,
                objects,
                applied,
            },
        );
    }

    pub(super) fn on_backfill_push(
        &mut self,
        ctx: &mut Context<'_>,
        pool: String,
        pg_index: u32,
        epoch: u64,
        objects: Vec<(ObjectId, Object)>,
        applied: Vec<AppliedReply>,
    ) {
        let key = (pool, pg_index);
        let live = self
            .backfills
            .get(&key)
            .is_some_and(|backfill| backfill.epoch == epoch);
        if !live {
            // A push for a backfill we no longer run (superseded
            // epoch, duplicate source reply, or already finished).
            ctx.metrics().bump(counter!("osd.backfill_stale_pushes"), 1);
            return;
        }
        let bytes: u64 = objects.iter().map(|(_, obj)| object_bytes(obj)).sum();
        ctx.metrics()
            .bump(counter!("osd.backfill_objects"), objects.len() as u64);
        ctx.metrics().bump(counter!("osd.backfill_bytes"), bytes);
        // The snapshot is authoritative: the source held the PG
        // before the remap, so its copy supersedes anything this
        // newcomer might hold from an earlier tenure.
        for (oid, obj) in objects {
            self.install_object(oid, obj);
        }
        self.finish_backfill(ctx, key, &applied);
        ctx.metrics().bump(counter!("osd.backfills_completed"), 1);
    }

    pub(super) fn on_backfill_timer(&mut self, ctx: &mut Context<'_>) {
        // Liveness: re-issue pulls for backfills whose pull or
        // push was lost, whose source crashed, or whose source was
        // not yet at our epoch. Sources that left the up set are
        // pruned; a backfill with no remaining source finishes
        // with what it has (the data is unreachable — availability
        // over completeness, and scrub repairs any divergence), as
        // does one whose sources ignored several full rotations.
        let up: BTreeSet<u32> = self.map.up_osds().into_iter().collect();
        let mut finished: Vec<(String, u32)> = Vec::new();
        let mut pulls: Vec<(String, u32)> = Vec::new();
        for (key, backfill) in self.backfills.iter_mut() {
            backfill.sources.retain(|osd| up.contains(osd));
            if backfill.sources.is_empty() || backfill.next_source >= backfill.sources.len() * 8 {
                finished.push(key.clone());
            } else {
                pulls.push(key.clone());
            }
        }
        for key in finished {
            ctx.metrics().bump(counter!("osd.backfill_aborted"), 1);
            self.finish_backfill(ctx, key, &[]);
        }
        for key in pulls {
            ctx.metrics().bump(counter!("osd.backfill_retries"), 1);
            self.send_backfill_pull(ctx, &key);
        }
        ctx.set_timer(self.config.backfill_retry_interval, TIMER_BACKFILL);
    }
}
