//! Paxos glue: shipping a replica's messages, applying chosen batches
//! and pushing each touched map to its subscribers, and proposing.

use super::liveness::liveness_counter;
use super::*;

impl Monitor {
    pub(super) fn ship(&self, ctx: &mut Context<'_>, out: Vec<Outbound<TxBatch>>) {
        for o in out {
            let to = self.peers[o.to as usize];
            ctx.send(to, MonWire(o.msg));
        }
    }

    pub(super) fn apply_chosen(&mut self, ctx: &mut Context<'_>) {
        let watermark = self.paxos.first_unchosen();
        let batches: Vec<TxBatch> = self
            .paxos
            .chosen_from(self.applied)
            .take_while(|(slot, _)| *slot < watermark)
            .map(|(_, c)| c.clone())
            .collect();
        self.applied = self.applied.max(watermark);
        let mut mds_touched = false;
        for batch in &batches {
            mds_touched |= self.apply_batch(ctx, batch);
        }
        // A committed mdsmap may hold a vacant rank that a standby can fill
        // now (one just registered).
        if mds_touched {
            self.reap_mds(ctx);
        }
    }

    /// Applies one chosen batch; returns whether it changed the mdsmap.
    fn apply_batch(&mut self, ctx: &mut Context<'_>, batch: &TxBatch) -> bool {
        // Close the propose→commit span if this monitor proposed the batch.
        if let Some(span) = batch
            .txs
            .first()
            .and_then(|first| self.propose_spans.remove(&(first.client, first.seq)))
        {
            ctx.span_end(span);
        }
        // Dedup: a transaction re-proposed after a leader change may be
        // chosen in a second slot; it is applied once.
        let fresh: Vec<&Tx> = batch
            .txs
            .iter()
            .filter(|tx| self.applied_txids.insert((tx.client, tx.seq)))
            .collect();
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for up in fresh.iter().flat_map(|tx| &tx.updates) {
            // Deterministic: every replica applies the same batch and skips
            // the same updates.
            let committed = self
                .maps
                .get(&up.map)
                .and_then(|snap| snap.entries.get(&up.key));
            if !maps::commit_allows(up, committed.map(Vec::as_slice)) {
                let rejected = if up.map == SERVICE_MAP_ZLOG {
                    counter!("mon.zlog_rejected_updates")
                } else {
                    counter!("mon.osdmap_rejected_updates")
                };
                if batch.origin == self.rank {
                    ctx.metrics().bump(rejected, 1);
                }
                continue;
            }
            let snap = self
                .maps
                .entry(up.map.clone())
                .or_insert_with(|| MapSnapshot {
                    map: up.map.clone(),
                    epoch: 0,
                    entries: BTreeMap::new(),
                });
            match &up.value {
                Some(v) => {
                    snap.entries.insert(up.key.clone(), v.clone());
                }
                None => {
                    snap.entries.remove(&up.key);
                }
            }
            if up.map == SERVICE_MAP_MDS {
                // What the leader proposed for this key has landed.
                self.mds_proposed.remove(&up.key);
            }
            touched.insert(&up.map);
        }
        for &map in &touched {
            let Some(snap) = self.maps.get_mut(map) else {
                continue; // unreachable: every touched map was just inserted
            };
            snap.epoch += 1;
            for &sub in self.subs.get(map).into_iter().flatten() {
                ctx.send(sub, MonMsg::Snapshot(snap.clone()));
            }
            if batch.origin == self.rank {
                ctx.metrics().bump(counter!("mon.map_commits"), 1);
            }
            // Every replica records its own sighting of the epoch.
            let now = ctx.now();
            ctx.metrics()
                .observe(&format!("mon.commit.{map}"), now, snap.epoch as f64);
        }
        // Only the origin monitor counts its liveness actions, refusals and
        // commits and sends acks, so each counts once and a client gets one
        // ack per chosen batch.
        // A repeat is acked too: its client may have lost the first ack.
        if batch.origin == self.rank {
            let me = self.peers[self.rank as usize];
            let own = fresh
                .iter()
                .filter(|tx| tx.client == me && tx.seq >= SELF_SEQ_BASE);
            for counter in own.filter_map(|tx| liveness_counter(tx)) {
                ctx.metrics().bump(counter, 1);
            }
            for tx in &batch.txs {
                let mut epochs: Vec<(String, u64)> = Vec::new();
                for up in &tx.updates {
                    if !epochs.iter().any(|(map, _)| *map == up.map) {
                        let epoch = self.maps.get(&up.map).map_or(0, |snap| snap.epoch);
                        epochs.push((up.map.clone(), epoch));
                    }
                }
                let seq = tx.seq;
                ctx.send(tx.client, MonMsg::SubmitAck { seq, epochs });
            }
        }
        touched.contains(SERVICE_MAP_MDS)
    }

    /// The committed mdsmap, parsed.
    pub(super) fn mdsmap(&self) -> MdsMapView {
        self.maps
            .get(SERVICE_MAP_MDS)
            .map(MdsMapView::from_snapshot)
            .unwrap_or_default()
    }

    pub(super) fn snapshot_or_empty(&self, map: &str) -> MapSnapshot {
        self.maps.get(map).cloned().unwrap_or_else(|| MapSnapshot {
            map: map.to_string(),
            epoch: 0,
            entries: BTreeMap::new(),
        })
    }

    /// Proposes `txs` as one Paxos command. The proposal tick calls it with
    /// the client submits of its interval, a `Submit` wholly in at-once
    /// maps with its one transaction, and the leader with each transaction
    /// it decides itself. On a follower, Paxos forwards it to the leader.
    pub(super) fn propose(&mut self, ctx: &mut Context<'_>, txs: Vec<Tx>) {
        let Some(first) = txs.first() else {
            return;
        };
        let span = ctx.span_start("mon.propose", None);
        let updates: usize = txs.iter().map(|tx| tx.updates.len()).sum();
        ctx.span_tag_display(span, "updates", updates);
        self.propose_spans.insert((first.client, first.seq), span);
        let out = self.paxos.submit(TxBatch {
            origin: self.rank,
            txs,
        });
        self.ship(ctx, out);
        ctx.metrics().bump(counter!("mon.proposals"), 1);
    }
}
