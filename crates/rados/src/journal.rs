//! Durable per-OSD write-ahead journal.
//!
//! A real OSD persists every mutation before acknowledging it; a restarted
//! daemon replays its journal and serves exactly the writes it acked. In
//! the simulation, actor state dies with [`mala_sim::Sim::crash`], so
//! durability is modelled by a [`Journal`] handle held *outside* the actor
//! (by the harness, keyed by [`NodeId`] in a [`JournalSet`]) and shared
//! with the OSD via `Rc`. The OSD appends a record for every applied
//! mutation, installed interfaces map, and installed osdmap; after a
//! restart, [`Journal::replay`] rebuilds the exact durable state.
//!
//! The journal is append-only with bounded growth: once the record count
//! passes a threshold it is compacted in place to one record per live key
//! (the fold of the log), exactly what replay would produce.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use mala_sim::{IdMap, NodeId};

use crate::object::{Object, ObjectDelta, ObjectId};
use crate::ops::{OpResult, OsdError};

/// Per-client window of remembered request outcomes (both in the OSD's
/// in-memory cache and in the journal fold). Client reqids are monotonic,
/// so pruning the lowest keeps the most recent requests.
pub const REPLY_CACHE_PER_CLIENT: usize = 128;

/// One durable record.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// Full state of an object: what backfill and repair install, and
    /// what compaction folds an object's history into.
    PutObject(ObjectId, Object),
    /// What one transaction changed in an object: the post-image of the
    /// parts it touched, applied on top of the records before it. Built
    /// by the primary; its replicas journal the same record.
    Delta(ObjectId, ObjectDelta),
    /// Object removal (by a transaction, so shipped like a `Delta`).
    DelObject(ObjectId),
    /// The interfaces map became live at this epoch.
    Interfaces {
        /// Interfaces-map epoch.
        epoch: u64,
        /// Raw map entries (class name → source).
        entries: BTreeMap<String, Vec<u8>>,
    },
    /// The osdmap became live at this epoch.
    OsdMap {
        /// Osdmap epoch.
        epoch: u64,
        /// Raw map entries.
        entries: BTreeMap<String, Vec<u8>>,
    },
    /// A request was applied and its outcome fixed (the PG-log analogue):
    /// a restarted OSD answers retransmits of `(client, reqid)` from this
    /// record instead of re-applying the transaction.
    Reply {
        /// Requesting client node.
        client: NodeId,
        /// The client's request id.
        reqid: u64,
        /// The recorded outcome.
        result: Result<Vec<OpResult>, OsdError>,
    },
}

/// The durable state a journal folds down to; what a restarted OSD loads.
#[derive(Debug, Clone, Default)]
pub struct JournalSnapshot {
    /// Live objects.
    pub store: IdMap<ObjectId, Object>,
    /// Latest interfaces map, if any was installed.
    pub interfaces: Option<(u64, BTreeMap<String, Vec<u8>>)>,
    /// Latest osdmap, if any was installed.
    pub osdmap: Option<(u64, BTreeMap<String, Vec<u8>>)>,
    /// Recorded request outcomes per client (bounded window).
    pub replies: IdMap<NodeId, BTreeMap<u64, Result<Vec<OpResult>, OsdError>>>,
}

#[derive(Debug, Default)]
struct JournalInner {
    /// A transaction's effect is one record shared with the other
    /// acting-set members' journals (DESIGN §28); the rest are this
    /// journal's alone.
    records: Vec<Rc<JournalRecord>>,
    appends: u64,
    compactions: u64,
}

/// A durable write-ahead journal for one OSD. Cheap to clone (shared
/// handle); clones see the same log, which is what lets the handle outlive
/// the actor across crash/restart.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Rc<RefCell<JournalInner>>,
}

/// Compact once the log holds this many records. Low enough that long
/// nemesis runs stay bounded, high enough that compaction stays rare
/// relative to appends.
const COMPACT_THRESHOLD: usize = 4096;

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends one record, compacting first if the log is past the
    /// threshold (write-ahead: the caller appends *before* acking).
    pub fn append(&self, record: impl Into<Rc<JournalRecord>>) {
        let mut inner = self.inner.borrow_mut();
        inner.appends += 1;
        if inner.records.len() >= COMPACT_THRESHOLD {
            let records = std::mem::take(&mut inner.records);
            inner.records = unfold(fold(records)).into_iter().map(Rc::new).collect();
            inner.compactions += 1;
        }
        inner.records.push(record.into());
    }

    /// Folds the log into the durable state (what a restart loads).
    pub fn replay(&self) -> JournalSnapshot {
        fold(self.inner.borrow().records.iter().cloned())
    }

    /// Current record count (post-compaction).
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever appended (survives compaction).
    pub fn appends(&self) -> u64 {
        self.inner.borrow().appends
    }

    /// Number of compactions performed.
    pub fn compactions(&self) -> u64 {
        self.inner.borrow().compactions
    }
}

fn fold(records: impl IntoIterator<Item = Rc<JournalRecord>>) -> JournalSnapshot {
    let mut snapshot = JournalSnapshot::default();
    for record in records {
        match Rc::unwrap_or_clone(record) {
            JournalRecord::PutObject(oid, obj) => {
                snapshot.store.insert(oid, obj);
            }
            JournalRecord::Delta(oid, delta) => {
                snapshot.store.entry(oid).or_default().apply_delta(&delta);
            }
            JournalRecord::DelObject(oid) => {
                snapshot.store.remove(&oid);
            }
            JournalRecord::Interfaces { epoch, entries } => {
                if snapshot.interfaces.as_ref().is_none_or(|(e, _)| *e < epoch) {
                    snapshot.interfaces = Some((epoch, entries));
                }
            }
            JournalRecord::OsdMap { epoch, entries } => {
                if snapshot.osdmap.as_ref().is_none_or(|(e, _)| *e < epoch) {
                    snapshot.osdmap = Some((epoch, entries));
                }
            }
            JournalRecord::Reply {
                client,
                reqid,
                result,
            } => {
                let window = snapshot.replies.entry(client).or_default();
                window.insert(reqid, result);
                while window.len() > REPLY_CACHE_PER_CLIENT {
                    window.pop_first();
                }
            }
        }
    }
    snapshot
}

fn unfold(snapshot: JournalSnapshot) -> Vec<JournalRecord> {
    let mut records = Vec::with_capacity(snapshot.store.len() + 2);
    if let Some((epoch, entries)) = snapshot.osdmap {
        records.push(JournalRecord::OsdMap { epoch, entries });
    }
    if let Some((epoch, entries)) = snapshot.interfaces {
        records.push(JournalRecord::Interfaces { epoch, entries });
    }
    // Deterministic order keeps replay traces stable across runs.
    let mut objects: Vec<_> = snapshot.store.into_iter().collect();
    objects.sort_by(|(a, _), (b, _)| a.cmp(b));
    for (oid, obj) in objects {
        records.push(JournalRecord::PutObject(oid, obj));
    }
    let mut clients: Vec<_> = snapshot.replies.into_iter().collect();
    clients.sort_by_key(|(c, _)| c.0);
    for (client, window) in clients {
        for (reqid, result) in window {
            records.push(JournalRecord::Reply {
                client,
                reqid,
                result,
            });
        }
    }
    records
}

/// The harness-side registry of journals, keyed by node. Cloning shares
/// the set, so builders and restart callbacks see the same journals.
#[derive(Debug, Clone, Default)]
pub struct JournalSet {
    inner: Rc<RefCell<HashMap<NodeId, Journal>>>,
}

impl JournalSet {
    /// An empty set.
    pub fn new() -> JournalSet {
        JournalSet::default()
    }

    /// The journal for `node`, created empty on first use.
    pub fn journal(&self, node: NodeId) -> Journal {
        self.inner.borrow_mut().entry(node).or_default().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(name: &str) -> ObjectId {
        ObjectId::new("p", name)
    }

    fn obj(data: &[u8]) -> Object {
        Object {
            data: data.to_vec(),
            ..Object::default()
        }
    }

    #[test]
    fn replay_returns_latest_object_state() {
        let j = Journal::new();
        j.append(JournalRecord::PutObject(oid("a"), obj(b"v1")));
        j.append(JournalRecord::PutObject(oid("a"), obj(b"v2")));
        j.append(JournalRecord::PutObject(oid("b"), obj(b"x")));
        j.append(JournalRecord::DelObject(oid("b")));
        let snap = j.replay();
        assert_eq!(snap.store.len(), 1);
        assert_eq!(snap.store[&oid("a")].data, b"v2");
    }

    #[test]
    fn replay_keeps_highest_epochs() {
        let j = Journal::new();
        let entries = BTreeMap::from([("k".to_string(), b"v".to_vec())]);
        j.append(JournalRecord::Interfaces {
            epoch: 3,
            entries: entries.clone(),
        });
        j.append(JournalRecord::Interfaces {
            epoch: 2,
            entries: BTreeMap::new(),
        });
        j.append(JournalRecord::OsdMap {
            epoch: 7,
            entries: entries.clone(),
        });
        let snap = j.replay();
        assert_eq!(snap.interfaces.as_ref().map(|(e, _)| *e), Some(3));
        assert_eq!(
            snap.interfaces.as_ref().map(|(_, en)| en.clone()),
            Some(entries)
        );
        assert_eq!(snap.osdmap.map(|(e, _)| e), Some(7));
    }

    #[test]
    fn clones_share_the_log() {
        let a = Journal::new();
        let b = a.clone();
        a.append(JournalRecord::PutObject(oid("x"), obj(b"1")));
        assert_eq!(b.len(), 1);
        assert_eq!(b.replay().store[&oid("x")].data, b"1");
    }

    #[test]
    fn compaction_bounds_growth_and_preserves_state() {
        let j = Journal::new();
        for i in 0..(COMPACT_THRESHOLD * 3) {
            let name = format!("o{}", i % 7);
            j.append(JournalRecord::PutObject(
                oid(&name),
                obj(format!("{i}").as_bytes()),
            ));
        }
        assert!(j.len() <= COMPACT_THRESHOLD + 7);
        assert!(j.compactions() >= 2);
        assert_eq!(j.appends(), (COMPACT_THRESHOLD * 3) as u64);
        let snap = j.replay();
        assert_eq!(snap.store.len(), 7);
        // Each key holds the value of its last write.
        let last = (COMPACT_THRESHOLD * 3) - 1;
        let last_name = format!("o{}", last % 7);
        assert_eq!(
            snap.store[&oid(&last_name)].data,
            format!("{last}").as_bytes()
        );
    }

    #[test]
    fn journal_set_hands_out_shared_handles() {
        let set = JournalSet::new();
        let a = set.journal(NodeId(10));
        a.append(JournalRecord::PutObject(oid("q"), obj(b"z")));
        let again = set.journal(NodeId(10));
        assert_eq!(again.len(), 1);
        assert!(set.journal(NodeId(11)).is_empty());
        let cloned = set.clone();
        assert_eq!(cloned.journal(NodeId(10)).len(), 1);
    }
}
