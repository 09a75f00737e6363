//! The object storage daemon (OSD).
//!
//! Reproduces the RADOS behaviours the paper's experiments lean on:
//!
//! * **Primary-copy replication** — clients address the PG primary; the
//!   primary runs the transaction, ships what it changed (its *effect*, a
//!   post-image) to the acting set, and acknowledges once all replicas
//!   ack. Replicas apply values; only the primary runs class code.
//! * **Epoch-guarded admission** — requests tagged with a stale osdmap
//!   epoch are rejected so clients refresh (Ceph's map-epoch handshake);
//!   this is the transport-level half of CORFU's seal protocol.
//! * **Map propagation by subscription + gossip** — some OSDs subscribe to
//!   the monitor; all OSDs push newly-learned maps to a random fan-out of
//!   peers (epidemic dissemination). Figure 8 measures exactly this path
//!   for dynamic interface installs.
//! * **Recovery** — on map change, OSDs newly added to a PG's acting set
//!   pull the PG's objects from the primary.
//! * **Scrub** — primaries periodically compare replica fingerprints and
//!   repair divergent copies.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use mala_consensus::{MonMsg, SERVICE_MAP_INTERFACES, SERVICE_MAP_OSD};
use mala_sim::{counter, Actor, Context, IdMap, NodeId, SimDuration, SpanContext};
use rand::seq::SliceRandom;

use crate::class::ClassRegistry;
use crate::journal::{Journal, JournalRecord, REPLY_CACHE_PER_CLIENT};
use crate::object::{Object, ObjectId};
use crate::ops::{ObjTxn, OpResult, OsdError, Transaction};
use crate::osdmap::OsdMapView;
use crate::placement::pg_of_id;

/// OSD configuration.
#[derive(Debug, Clone)]
pub struct OsdConfig {
    /// Local service time applied before replying to a client op (models
    /// request processing; the paper's OSDs are in-memory for Fig. 8).
    pub service_time: SimDuration,
    /// Gossip fan-out when pushing newly-learned maps to peers. Push is
    /// infect-and-die, so the fan-out controls what fraction of the
    /// cluster the epidemic reaches before anti-entropy mops up
    /// (~`1 - e^-f`; 4 ≈ 98%).
    pub gossip_fanout: usize,
    /// Anti-entropy period: how often an OSD re-offers its maps to random
    /// peers, bounding the staleness of daemons the push missed.
    pub gossip_interval: SimDuration,
    /// Whether this OSD subscribes to the monitor for map changes (in Ceph
    /// a subset of daemons hears from the monitor first; the rest learn by
    /// gossip).
    pub subscribe_to_monitor: bool,
    /// Scrub period; `None` disables background scrubbing.
    pub scrub_interval: Option<SimDuration>,
    /// How often an OSD with unfinished backfills re-issues pulls (the
    /// first pull goes out immediately on map change; the timer only
    /// covers lost pulls, crashed sources, and sources that were not yet
    /// at our epoch).
    pub backfill_retry_interval: SimDuration,
}

impl Default for OsdConfig {
    fn default() -> Self {
        OsdConfig {
            service_time: SimDuration::from_micros(30),
            gossip_fanout: 4,
            gossip_interval: SimDuration::from_millis(100),
            subscribe_to_monitor: true,
            scrub_interval: None,
            backfill_retry_interval: SimDuration::from_millis(50),
        }
    }
}

/// Wire protocol of the OSD.
#[derive(Debug, Clone)]
pub enum OsdMsg {
    /// Client request: an atomic transaction against one object.
    ClientOp {
        /// Client-chosen request id, echoed in the reply.
        reqid: u64,
        /// The target object and the transaction, shared with the client's
        /// in-flight table: a retransmission is a refcount.
        req: Rc<(ObjectId, Transaction)>,
        /// The client's osdmap epoch (stale ⇒ rejected).
        map_epoch: u64,
    },
    /// Reply to [`OsdMsg::ClientOp`].
    ClientReply {
        /// Echoed request id.
        reqid: u64,
        /// Per-op results or the first error.
        result: Result<Vec<OpResult>, OsdError>,
        /// The OSD's current map epoch (lets clients refresh lazily).
        map_epoch: u64,
    },
    /// Primary → replica effect shipping.
    Repl {
        /// Primary-chosen id for ack matching.
        repl_id: u64,
        /// Target object.
        oid: ObjectId,
        /// What the transaction changed at the primary — a
        /// [`JournalRecord::Delta`] or [`JournalRecord::DelObject`], one
        /// allocation shared by every copy of this message; `None` when a
        /// mutation touched nothing.
        effect: Option<Rc<JournalRecord>>,
        /// The primary's per-op results: what this replica answers a
        /// retransmit of the request with, should it become primary.
        results: Vec<OpResult>,
        /// Originating client, for replica-side dedup of retransmits.
        origin_client: NodeId,
        /// The client's reqid (monotonic per client).
        origin_reqid: u64,
    },
    /// Replica → primary acknowledgement.
    ReplAck {
        /// Echoed id.
        repl_id: u64,
    },
    /// Peer gossip: the sender's current maps, whatever the receiver
    /// holds. Each map is the sender's own shared handle (DESIGN §31), so a
    /// payload and its copies to every peer cost refcounts, and a receiver
    /// already at the epoch drops its handle without reading the entries.
    Gossip {
        /// The interfaces map `(epoch, entries)`.
        interfaces: (u64, Rc<BTreeMap<String, Vec<u8>>>),
        /// The osdmap `(epoch, entries)`, encoded from the sender's view.
        osdmap: (u64, Rc<BTreeMap<String, Vec<u8>>>),
    },
    /// Backfill: a new acting-set member asks a prior member for a PG's
    /// objects. Epoch-stamped so a source that has not yet learned the
    /// remap (and so could still be admitting old-epoch writes) defers
    /// serving it; the puller retries on its backfill timer.
    PgPull {
        /// Pool name.
        pool: String,
        /// PG index within the pool.
        pg_index: u32,
        /// The puller's map epoch when the pull was issued.
        epoch: u64,
    },
    /// Backfill: an authoritative snapshot of one PG from a prior member.
    /// Overwrites the receiver's copies (the source's state is a superset
    /// of anything the backfilling newcomer holds); replicated writes that
    /// raced the snapshot are reconciled via `applied`.
    BackfillPush {
        /// Pool name (echoed from the pull).
        pool: String,
        /// PG index (echoed from the pull).
        pg_index: u32,
        /// The pull's epoch; a push for a superseded backfill is dropped.
        epoch: u64,
        /// The PG's objects at the source.
        objects: Vec<(ObjectId, Object)>,
        /// The source's reply-cache window: `(client, reqid, result)` of
        /// ops whose effects the snapshot already contains. Deferred
        /// replications matching an entry are acked without re-applying
        /// (the PG-log role in Ceph's backfill).
        applied: Vec<AppliedReply>,
    },
    /// Repair: objects of one PG, pushed by the scrub path. Repair pushes
    /// overwrite existing copies.
    PgPush {
        /// The objects.
        objects: Vec<(ObjectId, Object)>,
    },
    /// Scrub: primary sends its fingerprints for a PG.
    ScrubCheck {
        /// Pool name.
        pool: String,
        /// PG index.
        pg_index: u32,
        /// Primary's `(object, fingerprint)` pairs.
        fingerprints: Vec<(ObjectId, u64)>,
    },
    /// Scrub: replica reports objects that diverge from the primary.
    ScrubDivergent {
        /// Objects whose fingerprint mismatched (or were missing).
        objects: Vec<ObjectId>,
        /// Pool name (for re-push routing).
        pool: String,
    },
}

const TIMER_GOSSIP: u64 = 1;
const TIMER_SCRUB: u64 = 2;
const TIMER_BACKFILL: u64 = 3;

struct PendingRepl {
    client: NodeId,
    reqid: u64,
    oid: ObjectId,
    effect: Option<Rc<JournalRecord>>,
    results: Vec<OpResult>,
    /// Replicas whose ack is still out, in acting-set order.
    waiting_on: Vec<u32>,
    /// The `osd.op` span of the originating client op, closed when the
    /// final reply leaves.
    op_span: Option<SpanContext>,
    /// The `osd.replica_ack` span covering the replication round trip,
    /// closed when the last ack lands.
    ack_span: Option<SpanContext>,
}

/// Reply-cache entry: a request we have admitted but not yet answered, or
/// the answer we already sent (resent verbatim on retransmit, so a
/// non-idempotent op like `Append` is never applied twice).
enum DupState {
    InFlight,
    Done(Result<Vec<OpResult>, OsdError>),
}

/// One source reply-cache entry carried by [`OsdMsg::BackfillPush`]:
/// `(origin client, reqid, result)` of an op the snapshot already
/// reflects.
pub type AppliedReply = (NodeId, u64, Result<Vec<OpResult>, OsdError>);

/// An [`OsdMsg::Repl`] as the replica handles it: at once, or — parked
/// while the object's PG backfills — once the snapshot lands, deduped
/// against the source's shipped reply window. The effect names its object.
struct DeferredRepl {
    from: NodeId,
    repl_id: u64,
    effect: Option<Rc<JournalRecord>>,
    results: Vec<OpResult>,
    origin_client: NodeId,
    origin_reqid: u64,
}

/// One in-progress PG backfill on the receiving OSD.
struct Backfill {
    /// The map epoch this backfill was (re-)issued under; pushes stamped
    /// with an older epoch are discarded.
    epoch: u64,
    /// Candidate source OSDs, prior acting-set members first. Rotated on
    /// each retry; pruned of departed OSDs as maps change.
    sources: Vec<u32>,
    /// Index into `sources` of the next pull target.
    next_source: usize,
    /// Replicated writes parked until the snapshot lands.
    deferred: Vec<DeferredRepl>,
}

/// The OSD daemon actor.
pub struct Osd {
    /// This daemon's OSD id (index in the osdmap).
    pub id: u32,
    monitor: NodeId,
    config: OsdConfig,
    /// Local object store. An id hashes as the two words it carries, so a
    /// probe rehashes no name; iteration order is fixed, not sorted.
    store: IdMap<ObjectId, Object>,
    /// Parsed osdmap.
    map: OsdMapView,
    /// `map` as gossip carries it: encoded once per installed epoch, where
    /// `map` is assigned, and shared by every payload built under it.
    map_entries: Rc<BTreeMap<String, Vec<u8>>>,
    /// Interfaces map (scripted classes): epoch + raw entries, shared with
    /// every payload and with the peers that installed it from one.
    interfaces_epoch: u64,
    interfaces: Rc<BTreeMap<String, Vec<u8>>>,
    /// Class registry (builtins + installed scripted classes).
    registry: ClassRegistry,
    /// In-flight replicated writes, by repl_id.
    pending: IdMap<u64, PendingRepl>,
    next_repl_id: u64,
    /// Durable write-ahead journal; `None` runs the OSD memory-only (the
    /// pre-journal behaviour, still used by latency-focused experiments).
    journal: Option<Journal>,
    /// Reply cache for client-op dedup, per client, keyed by reqid.
    replies: IdMap<NodeId, BTreeMap<u64, DupState>>,
    /// In-progress PG backfills, keyed by `(pool, pg_index)`. A PG with an
    /// entry here is not served (`NotReady`) and its replications are
    /// deferred until the snapshot lands.
    backfills: HashMap<(String, u32), Backfill>,
}

impl Osd {
    /// Creates OSD `id` reporting to `monitor`.
    pub fn new(id: u32, monitor: NodeId, config: OsdConfig) -> Osd {
        Osd {
            id,
            monitor,
            config,
            store: IdMap::default(),
            map: OsdMapView::default(),
            map_entries: Rc::default(),
            interfaces_epoch: 0,
            interfaces: Rc::default(),
            registry: ClassRegistry::with_builtins(),
            pending: IdMap::default(),
            next_repl_id: 1,
            journal: None,
            replies: IdMap::default(),
            backfills: HashMap::new(),
        }
    }

    /// Creates OSD `id` backed by a durable journal: every applied
    /// mutation and installed map is logged before acking, and a restart
    /// with the same journal handle replays the durable state.
    pub fn with_journal(id: u32, monitor: NodeId, config: OsdConfig, journal: Journal) -> Osd {
        let mut osd = Osd::new(id, monitor, config);
        osd.journal = Some(journal);
        osd
    }

    /// The journal handle, if this OSD is durable.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Read-only access to the object store (tests and scrub checks).
    pub fn store(&self) -> &IdMap<ObjectId, Object> {
        &self.store
    }

    /// Mutable access to the object store. Test-only backdoor used by the
    /// scrub experiments to inject silent corruption ("bit rot") that the
    /// daemon itself cannot see happening.
    pub fn store_mut(&mut self) -> &mut IdMap<ObjectId, Object> {
        &mut self.store
    }

    /// The osdmap epoch this OSD currently operates under.
    pub fn map_epoch(&self) -> u64 {
        self.map.epoch
    }

    /// The osdmap this OSD currently operates under (placement checks in
    /// tests and harnesses).
    pub fn osdmap(&self) -> &OsdMapView {
        &self.map
    }

    /// The interfaces-map epoch currently live on this OSD.
    pub fn interfaces_epoch(&self) -> u64 {
        self.interfaces_epoch
    }

    /// The class registry (e.g. to check installed scripted classes).
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// The outcome this OSD would answer a retransmit of `(client, reqid)`
    /// with: `None` if the request is outside the reply window or still
    /// waiting for its replicas' acks.
    pub fn cached_reply(
        &self,
        client: NodeId,
        reqid: u64,
    ) -> Option<&Result<Vec<OpResult>, OsdError>> {
        match self.replies.get(&client)?.get(&reqid)? {
            DupState::Done(result) => Some(result),
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

    /// Makes a primary-shipped effect this replica's own: applied as values
    /// and journalled, before the ack. Nothing here depends on which
    /// interface version this OSD has installed.
    fn apply_effect(&mut self, effect: Rc<JournalRecord>) {
        match effect.as_ref() {
            JournalRecord::Delta(oid, delta) => match self.store.get_mut(oid) {
                Some(obj) => obj.apply_delta(delta),
                None => {
                    let mut obj = Object::new();
                    obj.apply_delta(delta);
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

    /// Installs a whole object shipped by backfill or repair, journalling
    /// its full state first.
    fn install_object(&mut self, oid: ObjectId, obj: Object) {
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::PutObject(oid.clone(), obj.clone()));
        }
        self.store.insert(oid, obj);
    }

    /// Rebuilds durable state from the journal after a restart.
    fn replay_journal(&mut self, ctx: &mut Context<'_>) {
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
            self.map = OsdMapView::from_snapshot(&mala_consensus::MapSnapshot {
                map: SERVICE_MAP_OSD.to_string(),
                epoch,
                entries,
            });
            self.map_entries = Rc::new(self.encode_osdmap_entries());
        }
        self.replies = snapshot
            .replies
            .into_iter()
            .map(|(client, window)| {
                (
                    client,
                    window
                        .into_iter()
                        .map(|(reqid, result)| (reqid, DupState::Done(result)))
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
    fn cache_reply(&mut self, client: NodeId, reqid: u64, result: Result<Vec<OpResult>, OsdError>) {
        let window = self.replies.entry(client).or_default();
        window.insert(reqid, DupState::Done(result));
        while window.len() > REPLY_CACHE_PER_CLIENT {
            window.pop_first();
        }
    }

    /// Durably records the outcome of `(client, reqid)` so retransmits
    /// after a restart are answered, never re-applied.
    fn journal_reply(
        &mut self,
        client: NodeId,
        reqid: u64,
        result: &Result<Vec<OpResult>, OsdError>,
    ) {
        if let Some(journal) = &self.journal {
            journal.append(JournalRecord::Reply {
                client,
                reqid,
                result: result.clone(),
            });
        }
    }

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
    fn install_classes(&mut self, ctx: &mut Context<'_>) {
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
    fn install_interfaces(
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

    /// Adopts the osdmap `entries` if `epoch` is news. Only then are they
    /// read, and copied only if another holder still shares them.
    fn install_osdmap(
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
        let old = std::mem::replace(
            &mut self.map,
            OsdMapView::from_snapshot(&mala_consensus::MapSnapshot {
                map: SERVICE_MAP_OSD.to_string(),
                epoch,
                entries,
            }),
        );
        self.map_entries = Rc::new(self.encode_osdmap_entries());
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

    /// Reacts to an osdmap change: resolve stuck replications and start
    /// recovery pulls for newly-acquired PGs.
    fn on_map_change(&mut self, ctx: &mut Context<'_>, old: &OsdMapView) {
        // Re-evaluate pending replicated writes: replicas that left the up
        // set can never ack.
        let up: HashSet<u32> = self.map.up_osds().into_iter().collect();
        let mut completed = Vec::new();
        for (repl_id, pending) in self.pending.iter_mut() {
            pending.waiting_on.retain(|osd| up.contains(osd));
            if pending.waiting_on.is_empty() {
                completed.push(*repl_id);
            }
        }
        // `pending` iterates in a fixed order, not a sorted one: releases
        // leave in repl_id order.
        completed.sort_unstable();
        for repl_id in completed {
            let Some(pending) = self.pending.remove(&repl_id) else {
                continue;
            };
            let epoch = self.map.epoch;
            let result = Ok(pending.results);
            self.cache_reply(pending.client, pending.reqid, result.clone());
            ctx.send_after(
                self.config.service_time,
                pending.client,
                OsdMsg::ClientReply {
                    reqid: pending.reqid,
                    result,
                    map_epoch: epoch,
                },
            );
        }
        // Drop backfills for PGs this map takes away from us. The parked
        // replications are replayed through the normal replica path —
        // replicas apply shipped effects unconditionally, so this keeps
        // the primary's ack accounting moving even though we no longer
        // serve the PG.
        let mut dropped: Vec<(String, u32)> = self
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
        dropped.sort();
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
            if let Some((client, reqid, result)) = done {
                self.journal_reply(*client, *reqid, result);
                self.cache_reply(*client, *reqid, result.clone());
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

    /// This OSD's current maps, whatever a peer holds: two refcounts. The
    /// interfaces go as the raw entries they came as; the osdmap as the
    /// entries encoded from the typed view when it was installed.
    fn gossip_payload(&self) -> OsdMsg {
        OsdMsg::Gossip {
            interfaces: (self.interfaces_epoch, Rc::clone(&self.interfaces)),
            osdmap: (self.map.epoch, Rc::clone(&self.map_entries)),
        }
    }

    fn encode_osdmap_entries(&self) -> BTreeMap<String, Vec<u8>> {
        let mut entries = BTreeMap::new();
        for (id, e) in &self.map.osds {
            entries.insert(
                format!("osd.{id}"),
                format!(
                    "node={},up={},weight={}",
                    e.node.0,
                    u8::from(e.up),
                    e.weight
                )
                .into_bytes(),
            );
        }
        for (pool, info) in &self.map.pools {
            entries.insert(
                format!("pool.{pool}"),
                format!("pg_num={},replicas={}", info.pg_num, info.replicas).into_bytes(),
            );
        }
        entries
    }

    fn push_gossip(&mut self, ctx: &mut Context<'_>) {
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

    fn handle_client_op(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        reqid: u64,
        req: Rc<(ObjectId, Transaction)>,
        map_epoch: u64,
    ) {
        let (oid, txn) = &*req;
        let reply = |osd: &Osd, result: Result<Vec<OpResult>, OsdError>| OsdMsg::ClientReply {
            reqid,
            result,
            map_epoch: osd.map.epoch,
        };
        // Retransmit dedup: a request we already applied is answered from
        // the reply cache (ops like Append are not idempotent); one that is
        // still replicating stays pending and will be answered once.
        match self.replies.get(&from).and_then(|w| w.get(&reqid)) {
            Some(DupState::Done(result)) => {
                let msg = reply(self, result.clone());
                ctx.send_after(self.config.service_time, from, msg);
                ctx.metrics().bump(counter!("osd.dup_requests"), 1);
                return;
            }
            Some(DupState::InFlight) => {
                ctx.metrics().bump(counter!("osd.dup_requests"), 1);
                // Re-drive replication: the original Repl (or its ack) may
                // have died with a crashed replica. Replicas dedup by
                // (client, reqid), so re-sending is safe.
                let resend: Vec<(NodeId, OsdMsg)> = self
                    .pending
                    .iter()
                    .filter(|(_, p)| p.client == from && p.reqid == reqid)
                    .flat_map(|(repl_id, p)| {
                        p.waiting_on.iter().filter_map(|osd| {
                            self.map.node_of(*osd).map(|node| {
                                (
                                    node,
                                    OsdMsg::Repl {
                                        repl_id: *repl_id,
                                        oid: p.oid.clone(),
                                        effect: p.effect.clone(),
                                        results: p.results.clone(),
                                        origin_client: p.client,
                                        origin_reqid: p.reqid,
                                    },
                                )
                            })
                        })
                    })
                    .collect();
                for (node, msg) in resend {
                    ctx.send(node, msg);
                }
                return;
            }
            None => {}
        }
        if map_epoch < self.map.epoch {
            let msg = reply(
                self,
                Err(OsdError::StaleEpoch {
                    current: self.map.epoch,
                }),
            );
            ctx.send(from, msg);
            ctx.metrics().bump(counter!("osd.stale_epoch_rejects"), 1);
            return;
        }
        let Some(info) = self.map.pools.get(&*oid.pool).copied() else {
            let msg = reply(self, Err(OsdError::NotReady));
            ctx.send(from, msg);
            return;
        };
        let pg = pg_of_id(oid, info.pg_num);
        let acting = self
            .map
            .acting_set_for_pg(&oid.pool, pg.index)
            .unwrap_or_default();
        if acting.first() != Some(&self.id) {
            let msg = reply(self, Err(OsdError::NotPrimary));
            ctx.send(from, msg);
            ctx.metrics().bump(counter!("osd.not_primary_rejects"), 1);
            return;
        }
        if self.backfill_of(oid).is_some() {
            // This PG's snapshot has not landed yet; serving now could
            // miss acknowledged writes. The client retries on its backoff
            // timer — this rejection window is the availability cost of a
            // remap, measured by the elastic benchmark.
            let msg = reply(self, Err(OsdError::NotReady));
            ctx.send(from, msg);
            ctx.metrics().bump(counter!("osd.backfill_rejects"), 1);
            return;
        }
        // The admitted op's span, parented under whatever travelled with
        // the request (the client's `rados.op`).
        let parent = ctx.incoming_span();
        let op_span = ctx.span_start("osd.op", parent);
        // Write-ahead: durable before replication and before the ack.
        let (result, is_mutation, effect) = self.apply(oid, txn, acting.len() > 1);
        let replicate = is_mutation && acting.len() > 1;
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
        match result {
            Ok(results) => {
                if replicate {
                    let replicas = &acting[1..];
                    let repl_id = self.next_repl_id;
                    self.next_repl_id += 1;
                    let ack_span = ctx.span_start("osd.replica_ack", Some(op_span));
                    for osd in replicas {
                        if let Some(node) = self.map.node_of(*osd) {
                            ctx.send_spanned(
                                node,
                                OsdMsg::Repl {
                                    repl_id,
                                    oid: oid.clone(),
                                    effect: effect.clone(),
                                    results: results.clone(),
                                    origin_client: from,
                                    origin_reqid: reqid,
                                },
                                Some(ack_span),
                            );
                        }
                    }
                    // The outcome is fixed at apply time (the PG-log
                    // analogue): journal it now so a restarted primary
                    // answers retransmits instead of re-applying. The
                    // in-memory state stays InFlight until the acks land.
                    self.journal_reply(from, reqid, &Ok(results.clone()));
                    self.replies
                        .entry(from)
                        .or_default()
                        .insert(reqid, DupState::InFlight);
                    self.pending.insert(
                        repl_id,
                        PendingRepl {
                            client: from,
                            reqid,
                            oid: oid.clone(),
                            effect,
                            results,
                            waiting_on: replicas.to_vec(),
                            op_span: Some(op_span),
                            ack_span: Some(ack_span),
                        },
                    );
                } else {
                    let result = Ok(results);
                    if is_mutation {
                        self.journal_reply(from, reqid, &result);
                        self.cache_reply(from, reqid, result.clone());
                    }
                    let msg = reply(self, result);
                    let done_at = ctx.now() + self.config.service_time;
                    ctx.span_end_at(op_span, done_at);
                    ctx.send_after(self.config.service_time, from, msg);
                }
            }
            Err(e) => {
                let result = Err(e);
                if is_mutation {
                    // A failed transaction rolled back, but replaying it
                    // could succeed (e.g. exclusive create) — cache the
                    // verdict so a retransmit sees the original outcome.
                    self.journal_reply(from, reqid, &result);
                    self.cache_reply(from, reqid, result.clone());
                }
                ctx.span_tag(op_span, "error", "true");
                let msg = reply(self, result);
                let done_at = ctx.now() + self.config.service_time;
                ctx.span_end_at(op_span, done_at);
                ctx.send_after(self.config.service_time, from, msg);
            }
        }
    }

    /// Applies a primary-shipped effect on this replica and acks it. No
    /// class code runs here: the replica takes the primary's post-image and
    /// the primary's results, whatever interface version it has installed
    /// itself (DESIGN §28). Re-sent effects are deduped by
    /// `(client, reqid)`, so each is journalled and applied once.
    fn handle_repl(&mut self, ctx: &mut Context<'_>, repl: DeferredRepl) {
        let DeferredRepl {
            from,
            repl_id,
            effect,
            results,
            origin_client,
            origin_reqid,
        } = repl;
        let applied = self
            .replies
            .get(&origin_client)
            .is_some_and(|w| w.contains_key(&origin_reqid));
        if applied {
            ctx.metrics().bump(counter!("osd.dup_repls"), 1);
        } else {
            let parent = ctx.incoming_span();
            let jspan = ctx.span_start("osd.repl_journal", parent);
            // Journalled before acking: the primary counts this ack as
            // a durable replica. Recording the primary's results lets
            // this replica answer client retransmits after a failover.
            if let Some(effect) = effect {
                self.apply_effect(effect);
            }
            let result = Ok(results);
            self.journal_reply(origin_client, origin_reqid, &result);
            self.cache_reply(origin_client, origin_reqid, result);
            let done_at = ctx.now() + self.config.service_time;
            ctx.span_end_at(jspan, done_at);
        }
        ctx.send_after(self.config.service_time, from, OsdMsg::ReplAck { repl_id });
    }

    /// The backfill in progress for `oid`'s PG, if any. None is running in
    /// the common case, and then nothing is placed or looked up.
    fn backfill_of(&mut self, oid: &ObjectId) -> Option<&mut Backfill> {
        if self.backfills.is_empty() {
            return None;
        }
        let info = self.map.pools.get(&*oid.pool)?;
        let key = (oid.pool.to_string(), pg_of_id(oid, info.pg_num).index);
        self.backfills.get_mut(&key)
    }

    fn objects_in_pg(&self, pool: &str, pg_index: u32) -> Vec<(ObjectId, Object)> {
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
}

impl Actor for Osd {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Recover durable state first: a restarted OSD must serve exactly
        // the writes it acked before crashing.
        self.replay_journal(ctx);
        // Every OSD needs the osdmap to route and gossip; the
        // `subscribe_to_monitor` knob only controls whether *interface*
        // updates arrive by subscription or exclusively by peer gossip
        // (the Fig. 8 propagation path).
        ctx.send(
            self.monitor,
            MonMsg::Subscribe {
                map: SERVICE_MAP_OSD.to_string(),
            },
        );
        if self.config.subscribe_to_monitor {
            ctx.send(
                self.monitor,
                MonMsg::Subscribe {
                    map: SERVICE_MAP_INTERFACES.to_string(),
                },
            );
        }
        ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
        if let Some(interval) = self.config.scrub_interval {
            ctx.set_timer(interval, TIMER_SCRUB);
        }
        ctx.set_timer(self.config.backfill_retry_interval, TIMER_BACKFILL);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        // Monitor traffic.
        let msg = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                match *mon {
                    MonMsg::Snapshot(snap) => {
                        if snap.map == SERVICE_MAP_OSD {
                            self.install_osdmap(ctx, snap.epoch, Rc::new(snap.entries));
                        } else if snap.map == SERVICE_MAP_INTERFACES
                            && self.install_interfaces(ctx, snap.epoch, Rc::new(snap.entries))
                        {
                            self.push_gossip(ctx);
                        }
                    }
                    MonMsg::Changed { map, epoch, delta } => {
                        if map == SERVICE_MAP_OSD {
                            let mut entries = BTreeMap::clone(&self.map_entries);
                            apply_delta(&mut entries, delta);
                            if self.install_osdmap(ctx, epoch, Rc::new(entries)) {
                                self.push_gossip(ctx);
                            }
                        } else if map == SERVICE_MAP_INTERFACES {
                            let mut entries = BTreeMap::clone(&self.interfaces);
                            apply_delta(&mut entries, delta);
                            if self.install_interfaces(ctx, epoch, Rc::new(entries)) {
                                self.push_gossip(ctx);
                            }
                        }
                    }
                    _ => {}
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(msg) = msg.downcast::<OsdMsg>() else {
            return;
        };
        match *msg {
            OsdMsg::ClientOp {
                reqid,
                req,
                map_epoch,
            } => self.handle_client_op(ctx, from, reqid, req, map_epoch),
            OsdMsg::Repl {
                repl_id,
                oid,
                effect,
                results,
                origin_client,
                origin_reqid,
            } => {
                // A mutation for a PG we are still backfilling is parked:
                // applying it to the incomplete copy could interleave
                // wrongly with the snapshot. It is replayed (deduped
                // against the source's reply window) when the snapshot
                // lands, and the primary's ack arrives then.
                let repl = DeferredRepl {
                    from,
                    repl_id,
                    effect,
                    results,
                    origin_client,
                    origin_reqid,
                };
                if let Some(backfill) = self.backfill_of(&oid) {
                    backfill.deferred.push(repl);
                    ctx.metrics()
                        .bump(counter!("osd.backfill_deferred_repls"), 1);
                } else {
                    self.handle_repl(ctx, repl);
                }
            }
            OsdMsg::ReplAck { repl_id } => {
                let from_osd = self
                    .map
                    .osds
                    .iter()
                    .find(|(_, e)| e.node == from)
                    .map(|(id, _)| *id);
                if let (Some(from_osd), Some(pending)) = (from_osd, self.pending.get_mut(&repl_id))
                {
                    pending.waiting_on.retain(|osd| *osd != from_osd);
                    let done = pending.waiting_on.is_empty();
                    if let Some(pending) = done.then(|| self.pending.remove(&repl_id)).flatten() {
                        let epoch = self.map.epoch;
                        let result = Ok(pending.results);
                        self.cache_reply(pending.client, pending.reqid, result.clone());
                        if let Some(span) = pending.ack_span {
                            ctx.span_end(span);
                        }
                        if let Some(span) = pending.op_span {
                            let done_at = ctx.now() + self.config.service_time;
                            ctx.span_end_at(span, done_at);
                        }
                        ctx.send_after(
                            self.config.service_time,
                            pending.client,
                            OsdMsg::ClientReply {
                                reqid: pending.reqid,
                                result,
                                map_epoch: epoch,
                            },
                        );
                    }
                }
            }
            OsdMsg::Gossip {
                interfaces: (interfaces_epoch, interfaces),
                osdmap: (map_epoch, osdmap),
            } => {
                // Each install compares epochs before it reads the entries:
                // a round with no news drops two handles and copies nothing.
                let fresh = self.install_osdmap(ctx, map_epoch, osdmap)
                    | self.install_interfaces(ctx, interfaces_epoch, interfaces);
                if fresh {
                    // Epidemic push: forward news immediately.
                    self.push_gossip(ctx);
                }
            }
            OsdMsg::PgPull {
                pool,
                pg_index,
                epoch,
            } => {
                // Serve only when safe: our map must be at least the
                // puller's epoch (otherwise we might still admit writes
                // under the old map after taking the snapshot), and our
                // own copy must be complete. The puller's backfill timer
                // retries against rotated sources.
                if self.map.epoch < epoch || self.backfills.contains_key(&(pool.clone(), pg_index))
                {
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
                let mut applied: Vec<(NodeId, u64, Result<Vec<OpResult>, OsdError>)> = self
                    .replies
                    .iter()
                    .flat_map(|(client, window)| {
                        window.iter().filter_map(|(reqid, state)| match state {
                            DupState::Done(result) => Some((*client, *reqid, result.clone())),
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
            OsdMsg::BackfillPush {
                pool,
                pg_index,
                epoch,
                objects,
                applied,
            } => {
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
            OsdMsg::PgPush { objects } => {
                for (oid, obj) in objects {
                    self.install_object(oid, obj);
                }
                ctx.metrics()
                    .bump(counter!("osd.recovery_pushes_applied"), 1);
            }
            OsdMsg::ScrubCheck {
                pool,
                pg_index,
                fingerprints,
            } => {
                let mine: HashMap<ObjectId, u64> = self
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
                    ctx.send(
                        from,
                        OsdMsg::ScrubDivergent {
                            objects: divergent,
                            pool,
                        },
                    );
                }
            }
            OsdMsg::ScrubDivergent { objects, pool: _ } => {
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
            OsdMsg::ClientReply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_GOSSIP => {
                // Anti-entropy: periodic background exchange, in addition to
                // the epidemic push on fresh news.
                self.push_gossip(ctx);
                ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
            }
            TIMER_BACKFILL => {
                // Liveness: re-issue pulls for backfills whose pull or
                // push was lost, whose source crashed, or whose source was
                // not yet at our epoch. Sources that left the up set are
                // pruned; a backfill with no remaining source finishes
                // with what it has (the data is unreachable — availability
                // over completeness, and scrub repairs any divergence), as
                // does one whose sources ignored several full rotations.
                let up: HashSet<u32> = self.map.up_osds().into_iter().collect();
                let mut finished: Vec<(String, u32)> = Vec::new();
                let mut pulls: Vec<(String, u32)> = Vec::new();
                for (key, backfill) in self.backfills.iter_mut() {
                    backfill.sources.retain(|osd| up.contains(osd));
                    if backfill.sources.is_empty()
                        || backfill.next_source >= backfill.sources.len() * 8
                    {
                        finished.push(key.clone());
                    } else {
                        pulls.push(key.clone());
                    }
                }
                // `backfills` is a HashMap: fix the retry order so runs
                // replay identically across processes.
                finished.sort();
                pulls.sort();
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
            TIMER_SCRUB => {
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
            _ => {}
        }
    }
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
fn source_candidates(me: u32, before_set: &[u32], now_set: &[u32], up: &HashSet<u32>) -> Vec<u32> {
    let mut sources = Vec::new();
    for osd in before_set.iter().chain(now_set.iter()) {
        if *osd != me && up.contains(osd) && !sources.contains(osd) {
            sources.push(*osd);
        }
    }
    sources
}

fn apply_delta(entries: &mut BTreeMap<String, Vec<u8>>, delta: Vec<(String, Option<Vec<u8>>)>) {
    for (key, value) in delta {
        match value {
            Some(v) => {
                entries.insert(key, v);
            }
            None => {
                entries.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osdmap::PoolInfo;
    use crate::JournalSet;
    use mala_consensus::MapUpdate;
    use mala_sim::Sim;

    type Entries = BTreeMap<String, Vec<u8>>;

    const MON: NodeId = NodeId(0);
    const OSD: NodeId = NodeId(10);
    const PEER: NodeId = NodeId(11);

    fn entries(updates: Vec<MapUpdate>) -> Entries {
        updates
            .into_iter()
            .filter_map(|u| Some((u.key, u.value?)))
            .collect()
    }

    /// OSD 0 (the one under test) and OSD 1, up or not, and one pool.
    fn osdmap(peer_up: bool) -> Entries {
        entries(vec![
            OsdMapView::update_osd(0, OSD, true),
            OsdMapView::update_osd(1, PEER, peer_up),
            OsdMapView::update_pool(
                "data",
                PoolInfo {
                    pg_num: 8,
                    replicas: 2,
                },
            ),
        ])
    }

    /// An interfaces map of one scripted class answering `reply`.
    fn interfaces(reply: &str) -> Entries {
        let source = format!("function get(input) return \"{reply}\" end");
        BTreeMap::from([("kv".to_string(), source.into_bytes())])
    }

    /// OSD 0 alone in a simulation, nothing run yet; it is driven through
    /// [`Sim::with_actor`].
    fn sim_with(osd: Osd) -> Sim {
        let mut sim = Sim::new(1);
        sim.add_node(OSD, osd);
        sim
    }

    /// Installs both maps at epoch 1, as news.
    fn install_first_maps(sim: &mut Sim) {
        sim.with_actor::<Osd, _>(OSD, |osd, ctx| {
            assert!(osd.install_osdmap(ctx, 1, Rc::new(osdmap(true))));
            assert!(osd.install_interfaces(ctx, 1, Rc::new(interfaces("v1"))));
        });
    }

    fn counters(sim: &Sim) -> Vec<(String, u64)> {
        let metrics = sim.metrics().counters();
        metrics.map(|(name, n)| (name.to_string(), n)).collect()
    }

    /// The `(interfaces, osdmap)` a gossip payload carries.
    type Maps = ((u64, Rc<Entries>), (u64, Rc<Entries>));

    fn maps_of(msg: OsdMsg) -> Maps {
        match msg {
            OsdMsg::Gossip { interfaces, osdmap } => (interfaces, osdmap),
            other => panic!("not gossip: {other:?}"),
        }
    }

    #[test]
    fn two_payloads_at_one_epoch_share_their_maps() {
        let mut sim = sim_with(Osd::new(0, MON, OsdConfig::default()));
        install_first_maps(&mut sim);
        let osd = sim.actor::<Osd>(OSD);
        let ((interfaces_epoch, interfaces), (map_epoch, map)) = maps_of(osd.gossip_payload());
        let ((_, interfaces_again), (_, map_again)) = maps_of(osd.gossip_payload());
        assert_eq!((interfaces_epoch, map_epoch), (1, 1));
        assert!(Rc::ptr_eq(&interfaces, &interfaces_again));
        assert!(Rc::ptr_eq(&map, &map_again));
        // They are the maps the OSD holds, not copies of them.
        assert!(Rc::ptr_eq(&interfaces, &osd.interfaces));
        assert!(Rc::ptr_eq(&map, &osd.map_entries));
    }

    /// Every place the view is assigned re-encodes the held entries: by
    /// gossip, by the monitor's delta, and by a journal replay. So what
    /// gossip carries is never a stale epoch, nor an entry the view skipped.
    #[test]
    fn held_entries_are_the_encoding_of_the_installed_view() {
        let journals = JournalSet::new();
        let journalled = || Osd::with_journal(0, MON, OsdConfig::default(), journals.journal(OSD));
        let mut sim = sim_with(journalled());
        install_first_maps(&mut sim);
        let held = |sim: &Sim| {
            let osd = sim.actor::<Osd>(OSD);
            assert_eq!(*osd.map_entries, osd.encode_osdmap_entries());
            let (_, (epoch, entries)) = maps_of(osd.gossip_payload());
            assert_eq!(epoch, osd.map_epoch());
            assert!(Rc::ptr_eq(&entries, &osd.map_entries));
            entries
        };
        let first = held(&sim);

        let mut next = osdmap(false);
        next.insert("osd.x".to_string(), b"garbage".to_vec());
        sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.install_osdmap(ctx, 2, Rc::new(next)));
        let second = held(&sim);
        assert!(!Rc::ptr_eq(&first, &second));
        assert_eq!(second["osd.1"], b"node=11,up=0,weight=100");
        assert!(!second.contains_key("osd.x"));

        let update = OsdMapView::update_osd(2, NodeId(12), true);
        let changed = MonMsg::Changed {
            map: SERVICE_MAP_OSD.to_string(),
            epoch: 3,
            delta: vec![(update.key, update.value)],
        };
        sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.on_message(ctx, MON, Box::new(changed)));
        let third = held(&sim);
        assert_eq!(sim.actor::<Osd>(OSD).map_epoch(), 3);
        assert!(third.contains_key("osd.2") && !third.contains_key("osd.x"));

        sim.restart(OSD, journalled());
        sim.step();
        let replayed = held(&sim);
        assert_eq!(sim.actor::<Osd>(OSD).map_epoch(), 3);
        assert_eq!(replayed, third);
    }

    #[test]
    fn gossip_at_an_equal_or_older_epoch_leaves_the_osd_as_it_was() {
        let mut sim = sim_with(Osd::new(0, MON, OsdConfig::default()));
        install_first_maps(&mut sim);
        let osd = sim.actor::<Osd>(OSD);
        let (held_map, held_ifaces) = (Rc::clone(&osd.map_entries), Rc::clone(&osd.interfaces));
        let view = osd.osdmap().clone();
        let (before, queued) = (counters(&sim), sim.queue_len());
        for (map_epoch, interfaces_epoch) in [(1, 1), (0, 0), (1, 0), (0, 1)] {
            let stale = OsdMsg::Gossip {
                interfaces: (interfaces_epoch, Rc::new(interfaces("stale"))),
                osdmap: (map_epoch, Rc::new(osdmap(false))),
            };
            sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.on_message(ctx, PEER, Box::new(stale)));
            let osd = sim.actor::<Osd>(OSD);
            assert!(Rc::ptr_eq(&osd.map_entries, &held_map));
            assert!(Rc::ptr_eq(&osd.interfaces, &held_ifaces));
            assert_eq!(*osd.osdmap(), view);
            assert_eq!((osd.map_epoch(), osd.interfaces_epoch()), (1, 1));
            assert_eq!(osd.registry().scripted_version("kv"), Some(1));
            assert_eq!(
                counters(&sim),
                before,
                "at ({map_epoch}, {interfaces_epoch})"
            );
            assert_eq!(sim.queue_len(), queued, "nothing sent, nothing armed");
        }
    }
}
