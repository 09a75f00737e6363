//! Per-node durable record logs: what a node keeps across a crash.
//!
//! Actor state dies with [`crate::Sim::crash`]. What a daemon must find
//! again after [`crate::Sim::restart`] it appends to its [`Disk`], a handle
//! the harness keeps outside the actor, one per node in a [`Disks`]; clones
//! share the log. A log is generic over a [`Record`], which says how its
//! records fold to a state. Once a log holds [`COMPACT_THRESHOLD`] records,
//! the next append first rewrites it as the unfolded fold, exactly what a
//! replay would produce. Records are `Rc`-shared, so one record appended
//! to several nodes' logs is one allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::NodeId;

/// Compact once a log holds this many records. Low enough that long
/// nemesis runs stay bounded, high enough that compaction stays rare
/// relative to appends.
pub const COMPACT_THRESHOLD: usize = 4096;

/// A durable record: how a log of them folds to a state, and how a state
/// is written back as records when the log is compacted.
pub trait Record: Sized {
    /// What a log folds down to; what a restarted node loads.
    type State;
    /// Folds records, oldest first, into the state they leave.
    fn fold(records: impl IntoIterator<Item = Rc<Self>>) -> Self::State;
    /// Records whose fold is `state`.
    fn unfold(state: Self::State) -> Vec<Self>;
}

struct Log<R> {
    records: Vec<Rc<R>>,
    appends: u64,
    compactions: u64,
}

/// One node's append-only record log, a shared handle.
pub struct Disk<R>(Rc<RefCell<Log<R>>>);

impl<R: Record> Disk<R> {
    /// An empty log.
    pub fn new() -> Disk<R> {
        let log = Log {
            records: Vec::new(),
            appends: 0,
            compactions: 0,
        };
        Disk(Rc::new(RefCell::new(log)))
    }

    /// Appends one record, compacting first if the log is at the
    /// threshold (write-ahead: the caller appends *before* acking).
    pub fn append(&self, record: impl Into<Rc<R>>) {
        let mut log = self.0.borrow_mut();
        log.appends += 1;
        if log.records.len() >= COMPACT_THRESHOLD {
            let state = R::fold(std::mem::take(&mut log.records));
            log.records = R::unfold(state).into_iter().map(Rc::new).collect();
            log.compactions += 1;
        }
        log.records.push(record.into());
    }

    /// Folds the log into the state it holds (what a restart loads).
    pub fn replay(&self) -> R::State {
        R::fold(self.0.borrow().records.iter().cloned())
    }

    /// Current record count (post-compaction).
    pub fn len(&self) -> usize {
        self.0.borrow().records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever appended (survives compaction).
    pub fn appends(&self) -> u64 {
        self.0.borrow().appends
    }

    /// Number of compactions performed.
    pub fn compactions(&self) -> u64 {
        self.0.borrow().compactions
    }
}

impl<R: Record> Default for Disk<R> {
    fn default() -> Self {
        Disk::new()
    }
}

impl<R> Clone for Disk<R> {
    fn clone(&self) -> Self {
        Disk(Rc::clone(&self.0))
    }
}

/// The harness-side registry of logs, keyed by node; clones share it.
pub struct Disks<R>(Rc<RefCell<BTreeMap<NodeId, Disk<R>>>>);

impl<R: Record> Disks<R> {
    /// An empty registry.
    pub fn new() -> Disks<R> {
        Disks(Rc::default())
    }

    /// The log of `node`, created empty on first use.
    pub fn journal(&self, node: NodeId) -> Disk<R> {
        self.0.borrow_mut().entry(node).or_default().clone()
    }
}

impl<R: Record> Default for Disks<R> {
    fn default() -> Self {
        Disks::new()
    }
}

impl<R> Clone for Disks<R> {
    fn clone(&self) -> Self {
        Disks(Rc::clone(&self.0))
    }
}
