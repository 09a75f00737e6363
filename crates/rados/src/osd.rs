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
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;

use mala_consensus::{
    follower, MapSnapshot, MapView, MonMsg, SERVICE_MAP_INTERFACES, SERVICE_MAP_OSD,
};
use mala_sim::{counter, Actor, Context, IdMap, NodeId, SimDuration, SpanContext};
use rand::seq::SliceRandom;

use crate::class::ClassRegistry;
use crate::journal::{Journal, JournalRecord, REPLY_CACHE_PER_CLIENT};
use crate::object::{Object, ObjectId};
use crate::ops::{ObjTxn, OpResult, OsdError, Outcome, Transaction};
use crate::osdmap::OsdMapView;
use crate::placement::pg_of_id;

mod backfill;
mod client_ops;
mod gossip;
mod repl;
mod scrub;

pub use backfill::AppliedReply;
use backfill::Backfill;
use client_ops::DupState;
use repl::{DeferredRepl, PendingRepl};

/// OSD configuration. Backfill has no setting (`BACKFILL_RETRY`, DESIGN §16).
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
}

impl Default for OsdConfig {
    fn default() -> Self {
        OsdConfig {
            service_time: SimDuration::from_micros(30),
            gossip_fanout: 4,
            gossip_interval: SimDuration::from_millis(100),
            subscribe_to_monitor: true,
            scrub_interval: None,
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
        /// The primary's outcome, shared with its reply window: what this
        /// replica answers a retransmit of the request with, should it
        /// become primary.
        outcome: Outcome,
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
    },
}

const TIMER_GOSSIP: u64 = 1;
const TIMER_SCRUB: u64 = 2;
const TIMER_BACKFILL: u64 = 3;
/// How often an OSD re-issues unanswered backfill pulls (the first goes out
/// on the map change).
const BACKFILL_RETRY: SimDuration = SimDuration::from_millis(50);

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
    backfills: BTreeMap<(String, u32), Backfill>,
    /// The osdmap the journal restored, until this OSD is first up in a
    /// live map: a PG it acted for there is whole as of its crash.
    restored: Option<OsdMapView>,
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
            backfills: BTreeMap::new(),
            restored: None,
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
        follower::subscribe(ctx, self.monitor, SERVICE_MAP_OSD);
        if self.config.subscribe_to_monitor {
            follower::subscribe(ctx, self.monitor, SERVICE_MAP_INTERFACES);
        }
        ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
        if let Some(interval) = self.config.scrub_interval {
            ctx.set_timer(interval, TIMER_SCRUB);
        }
        ctx.set_timer(BACKFILL_RETRY, TIMER_BACKFILL);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        // Monitor traffic.
        let msg = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                // A fresh map is news: push it on to peers.
                if let MonMsg::Snapshot(MapSnapshot {
                    map,
                    epoch,
                    entries,
                }) = *mon
                {
                    let fresh = match map.as_str() {
                        SERVICE_MAP_OSD => self.install_osdmap(ctx, epoch, Rc::new(entries)),
                        SERVICE_MAP_INTERFACES => {
                            self.install_interfaces(ctx, epoch, Rc::new(entries))
                        }
                        _ => false,
                    };
                    if fresh {
                        self.push_gossip(ctx);
                    }
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
                outcome,
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
                    outcome,
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
            OsdMsg::ReplAck { repl_id } => self.on_repl_ack(ctx, from, repl_id),
            OsdMsg::Gossip {
                interfaces: (interfaces_epoch, interfaces),
                osdmap: (map_epoch, osdmap),
            } => self.on_gossip(ctx, interfaces_epoch, interfaces, map_epoch, osdmap),
            OsdMsg::PgPull {
                pool,
                pg_index,
                epoch,
            } => self.on_pg_pull(ctx, from, pool, pg_index, epoch),
            OsdMsg::BackfillPush {
                pool,
                pg_index,
                epoch,
                objects,
                applied,
            } => self.on_backfill_push(ctx, pool, pg_index, epoch, objects, applied),
            OsdMsg::PgPush { objects } => self.on_pg_push(ctx, objects),
            OsdMsg::ScrubCheck {
                pool,
                pg_index,
                fingerprints,
            } => self.on_scrub_check(ctx, from, pool, pg_index, fingerprints),
            OsdMsg::ScrubDivergent { objects } => self.on_scrub_divergent(ctx, from, objects),
            OsdMsg::ClientReply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TIMER_GOSSIP => self.on_gossip_timer(ctx),
            TIMER_BACKFILL => self.on_backfill_timer(ctx),
            TIMER_SCRUB => self.on_scrub_timer(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
