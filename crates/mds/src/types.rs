//! Shared MDS types and the client-facing wire protocol.

use std::rc::Rc;

use mala_sim::SimDuration;

/// Inode number.
pub type Ino = u64;

/// The root directory's inode number.
pub const ROOT_INO: Ino = 1;

/// Inode file types (the File Type interface, paper §4.3.2).
///
/// A file type changes how the MDS serves the inode: which operations the
/// embedded state supports and what capability policy applies by default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileType {
    /// A directory.
    Dir,
    /// An ordinary file (data lives in RADOS; the MDS only tracks layout).
    Regular,
    /// A ZLog sequencer: the embedded state is the 64-bit tail of a log.
    /// Supports `next`/`read` operations and exclusive-cacheable caps.
    Sequencer,
}

impl FileType {
    /// Stable name used in journal entries.
    pub fn name(&self) -> &'static str {
        match self {
            FileType::Dir => "dir",
            FileType::Regular => "regular",
            FileType::Sequencer => "sequencer",
        }
    }

    /// Parses a journal name.
    pub fn parse(s: &str) -> Option<FileType> {
        match s {
            "dir" => Some(FileType::Dir),
            "regular" => Some(FileType::Regular),
            "sequencer" => Some(FileType::Sequencer),
            _ => None,
        }
    }
}

/// A sequencer's file-type operation: the closed set of verbs
/// [`FileType::Sequencer`] serves. A request carries the verb itself, not
/// its text, so nothing is formatted to send one or parsed to serve it;
/// `Display` prints the text the verbs used to travel as (`next`,
/// `next_batch:3`, `read`, `seal`), which is what span tags and logs show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqOp {
    /// Take the next position.
    Next,
    /// Reserve `n` contiguous positions; the reply carries the first
    /// (`GetPosBatch`). `n == 0` is [`MdsError::BadType`].
    NextBatch(u64),
    /// Read the tail without advancing it.
    Read,
    /// ZLog recovery: fence the log and restart its tail past every
    /// written position. The authority runs the seal a promoted standby
    /// runs (a new epoch, `seal` on every stripe of the registered layout)
    /// or joins one under way, and once it completes answers
    /// [`MdsMsg::Sealed`] with the epoch that seal installed and the tail.
    /// A refused seal is a `TypeOpReply` carrying the error.
    Seal,
}

impl std::fmt::Display for SeqOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqOp::Next => f.write_str("next"),
            SeqOp::NextBatch(n) => write!(f, "next_batch:{n}"),
            SeqOp::Read => f.write_str("read"),
            SeqOp::Seal => f.write_str("seal"),
        }
    }
}

/// How an exported inode is served after migration (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStyle {
    /// Clients are redirected to the new authoritative MDS and talk to it
    /// directly ("client mode").
    Direct,
    /// The original MDS keeps receiving client requests and forwards them
    /// to the new authority ("proxy mode").
    Proxy,
}

/// Client-visible errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// Path or inode not found.
    NotFound,
    /// Entry already exists.
    Exists,
    /// The inode's file type does not support the operation.
    BadType,
    /// This MDS is not authoritative; retry at `rank`.
    NotAuth {
        /// The authoritative rank (the redirect of "client mode").
        rank: u32,
    },
    /// The inode is mid-migration; retry shortly.
    Frozen,
    /// The serving MDS is replaying its journal or re-sealing a sequencer
    /// after a takeover; retry shortly.
    Recovering,
    /// No live MDS currently serves `rank` (failover window); retry after
    /// the mdsmap changes.
    MdsUnavailable {
        /// The rank with no live node.
        rank: u32,
    },
}

impl MdsError {
    /// Whether a client should retry the operation unchanged: the error is
    /// a transient condition of failover/migration, not a verdict on the
    /// request.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            MdsError::Frozen | MdsError::Recovering | MdsError::MdsUnavailable { .. }
        )
    }
}

impl std::fmt::Display for MdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdsError::NotFound => write!(f, "not found"),
            MdsError::Exists => write!(f, "already exists"),
            MdsError::BadType => write!(f, "operation unsupported by file type"),
            MdsError::NotAuth { rank } => write!(f, "not authoritative (try mds.{rank})"),
            MdsError::Frozen => write!(f, "inode frozen for migration"),
            MdsError::Recovering => write!(f, "mds recovering after takeover"),
            MdsError::MdsUnavailable { rank } => {
                write!(f, "no live mds for rank {rank} (failover in progress)")
            }
        }
    }
}

impl std::error::Error for MdsError {}

/// Capability sharing policy for an inode (paper §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapPolicyConfig {
    /// Longest a client may hold the cap once another client wants it.
    /// `None` = best-effort (recall immediately on contention).
    pub max_hold: Option<SimDuration>,
    /// Number of operations a holder may perform before it must yield.
    /// `None` = unlimited.
    pub quota: Option<u64>,
}

impl CapPolicyConfig {
    /// The paper's "default" best-effort policy.
    pub fn best_effort() -> CapPolicyConfig {
        CapPolicyConfig {
            max_hold: None,
            quota: None,
        }
    }

    /// The paper's "delay" policy: hold up to `d` under contention.
    pub fn delay(d: SimDuration) -> CapPolicyConfig {
        CapPolicyConfig {
            max_hold: Some(d),
            quota: None,
        }
    }

    /// The paper's "quota" policy: yield after `n` operations (with a
    /// backstop hold time).
    pub fn quota(n: u64, backstop: SimDuration) -> CapPolicyConfig {
        CapPolicyConfig {
            max_hold: Some(backstop),
            quota: Some(n),
        }
    }
}

/// The MDS client protocol.
#[derive(Debug, Clone)]
pub enum MdsMsg {
    // ---- namespace ----
    /// Resolve a path to an inode.
    Resolve {
        /// Request id echoed in the reply.
        reqid: u64,
        /// Absolute path, `/`-separated.
        path: String,
    },
    /// Reply to `Resolve`.
    Resolved {
        /// Echoed id.
        reqid: u64,
        /// Outcome: inode and its authoritative rank.
        result: Result<(Ino, u32), MdsError>,
    },
    /// Create a file (or directory) under `parent_path`.
    Create {
        /// Request id echoed in the reply.
        reqid: u64,
        /// Absolute path of the parent directory.
        parent_path: String,
        /// New entry name.
        name: String,
        /// File type (use [`FileType::Dir`] for mkdir).
        ftype: FileType,
    },
    /// Reply to `Create`.
    Created {
        /// Echoed id.
        reqid: u64,
        /// The new inode, or the error.
        result: Result<Ino, MdsError>,
    },

    // ---- file-type operations (round-trip / Shared Resource mode) ----
    /// Invoke the inode's file-type operation (e.g. sequencer `next`).
    TypeOp {
        /// Request id echoed in the reply.
        reqid: u64,
        /// Target inode.
        ino: Ino,
        /// The operation.
        op: SeqOp,
    },
    /// Reply to `TypeOp`.
    TypeOpReply {
        /// Echoed id.
        reqid: u64,
        /// Result value (sequencers: the log position).
        result: Result<u64, MdsError>,
        /// Which rank actually served the op (for mode verification).
        served_by: u32,
    },
    /// Answer to a [`SeqOp::Seal`] once the seal it started or joined
    /// completes.
    Sealed {
        /// Echoed id.
        reqid: u64,
        /// The epoch the seal installed in the zlog map: the seal may have
        /// been under way, its epoch known to the client, before the
        /// request joined it.
        epoch: u64,
        /// The tail the sequencer resumed at.
        tail: u64,
    },

    // ---- capabilities ----
    /// Request an exclusive, cacheable capability on `ino`.
    CapRequest {
        /// Target inode.
        ino: Ino,
    },
    /// Grant of a capability to the requesting client.
    CapGrant {
        /// Target inode.
        ino: Ino,
        /// Current embedded state (sequencer tail) at grant time.
        state: u64,
        /// Operation quota, if the policy sets one.
        quota: Option<u64>,
        /// Hold-time bound, if the policy sets one.
        max_hold: Option<SimDuration>,
    },
    /// MDS → holder: yield the capability.
    CapRecall {
        /// Target inode.
        ino: Ino,
    },
    /// Holder → MDS: capability released; carries the flushed state.
    CapRelease {
        /// Target inode.
        ino: Ino,
        /// Embedded state to write back (sequencer tail).
        state: u64,
    },
    /// Set the capability policy on an inode (administrative).
    SetCapPolicy {
        /// Target inode.
        ino: Ino,
        /// New policy.
        policy: CapPolicyConfig,
    },

    /// Register the storage layout of a sequencer's log so a promoted
    /// standby can run the seal/maxpos protocol against the right objects
    /// before issuing positions again. Journaled; idempotent.
    SetSeqLayout {
        /// The sequencer inode.
        ino: Ino,
        /// RADOS pool holding the log's stripe objects: the client's one
        /// allocation of the name, shared by every copy of this message.
        pool: Rc<str>,
        /// Log name (objects are `<name>.<stripe>`), shared likewise.
        name: Rc<str>,
        /// Stripe width.
        stripe_width: u32,
    },

    // ---- administrative ----
    /// Force-migrate an inode to another rank (harness/manual control).
    AdminExport {
        /// Inode to move.
        ino: Ino,
        /// Destination rank.
        target: u32,
        /// Serving style after migration.
        style: ServeStyle,
    },
}

impl MdsMsg {
    /// `GetPosBatch { n }`: one sequencer round trip reserving the
    /// contiguous position range `[first, first + n)`, where `first` is
    /// the value carried by the `TypeOpReply`. It is the type op
    /// [`SeqOp::NextBatch`], so it rides the ordinary `TypeOp` path —
    /// frozen / recovering / proxy / redirect handling and seal-based
    /// failover re-delegation all apply unchanged.
    pub fn get_pos_batch(reqid: u64, ino: Ino, n: u64) -> MdsMsg {
        MdsMsg::TypeOp {
            reqid,
            ino,
            op: SeqOp::NextBatch(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tags, the cluster log and the traced digests read a verb as the
    /// text it used to travel as.
    #[test]
    fn a_seq_op_prints_as_its_old_wire_text() {
        let text = |op: SeqOp| op.to_string();
        assert_eq!(text(SeqOp::Next), "next");
        assert_eq!(text(SeqOp::NextBatch(3)), "next_batch:3");
        assert_eq!(text(SeqOp::Read), "read");
        assert_eq!(text(SeqOp::Seal), "seal");
        let MdsMsg::TypeOp { op, .. } = MdsMsg::get_pos_batch(1, 2, 8) else {
            panic!("a bulk grant is a type op");
        };
        assert_eq!(op, SeqOp::NextBatch(8));
    }
}
