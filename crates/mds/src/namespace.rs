//! The POSIX-style hierarchical namespace and its journal encoding.
//!
//! Every MDS rank holds a replica of the namespace *structure* (as Ceph
//! MDSs cache dentries); authority over an inode — who may grant caps and
//! serve type operations — is tracked separately by the server. Mutations
//! are journaled as compact text records appended to a per-rank RADOS
//! object, and a restarted MDS replays that journal (the paper's
//! Durability interface backing the metadata service).

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use mala_sim::{IdMap, NodeId};

use crate::types::{FileType, Ino, MdsError, ROOT_INO};

/// One inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// Parent inode (self for root).
    pub parent: Ino,
    /// Entry name under the parent.
    pub name: String,
    /// File type.
    pub ftype: FileType,
    /// Embedded file-type state (e.g. the sequencer tail). The paper's
    /// File Type interface embeds domain state directly in the inode.
    pub embedded: u64,
    /// Children (directories only): name → ino.
    pub children: BTreeMap<String, Ino>,
}

/// The in-memory namespace.
#[derive(Debug, Clone)]
pub struct Namespace {
    inodes: IdMap<Ino, Inode>,
    next_ino: Ino,
}

impl Namespace {
    /// A namespace holding only `/`.
    pub fn new() -> Namespace {
        let mut inodes = IdMap::default();
        inodes.insert(
            ROOT_INO,
            Inode {
                ino: ROOT_INO,
                parent: ROOT_INO,
                name: String::new(),
                ftype: FileType::Dir,
                embedded: 0,
                children: BTreeMap::new(),
            },
        );
        Namespace {
            inodes,
            next_ino: ROOT_INO + 1,
        }
    }

    /// Looks up an inode by number.
    pub fn get(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(&ino)
    }

    /// Mutable inode access.
    pub fn get_mut(&mut self, ino: Ino) -> Option<&mut Inode> {
        self.inodes.get_mut(&ino)
    }

    /// Number of inodes (including root).
    pub fn len(&self) -> usize {
        self.inodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.inodes.len() == 1
    }

    /// Resolves an absolute path.
    pub fn resolve(&self, path: &str) -> Result<Ino, MdsError> {
        let mut cur = ROOT_INO;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let dir = self.inodes.get(&cur).ok_or(MdsError::NotFound)?;
            cur = *dir.children.get(part).ok_or(MdsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Creates an entry under `parent`. Returns the new inode number.
    ///
    /// # Errors
    ///
    /// `NotFound` for a missing/non-dir parent, `Exists` for a duplicate
    /// name.
    pub fn create(&mut self, parent: Ino, name: &str, ftype: FileType) -> Result<Ino, MdsError> {
        if name.is_empty() || name.contains('/') {
            return Err(MdsError::NotFound);
        }
        let ino = self.next_ino;
        {
            let dir = self.inodes.get_mut(&parent).ok_or(MdsError::NotFound)?;
            if dir.ftype != FileType::Dir {
                return Err(MdsError::BadType);
            }
            if dir.children.contains_key(name) {
                return Err(MdsError::Exists);
            }
            dir.children.insert(name.to_string(), ino);
        }
        self.inodes.insert(
            ino,
            Inode {
                ino,
                parent,
                name: name.to_string(),
                ftype,
                embedded: 0,
                children: BTreeMap::new(),
            },
        );
        self.next_ino += 1;
        Ok(ino)
    }

    /// Applies a create with a *fixed* inode number (replica application:
    /// the authoritative MDS allocated the number).
    pub fn apply_create(
        &mut self,
        ino: Ino,
        parent: Ino,
        name: &str,
        ftype: FileType,
    ) -> Result<(), MdsError> {
        if self.inodes.contains_key(&ino) {
            return Ok(()); // idempotent replay
        }
        let dir = self.inodes.get_mut(&parent).ok_or(MdsError::NotFound)?;
        dir.children.insert(name.to_string(), ino);
        self.inodes.insert(
            ino,
            Inode {
                ino,
                parent,
                name: name.to_string(),
                ftype,
                embedded: 0,
                children: BTreeMap::new(),
            },
        );
        self.next_ino = self.next_ino.max(ino + 1);
        Ok(())
    }

    /// All inodes of a given file type (used by type-aware balancers).
    pub fn inodes_of_type(&self, ftype: &FileType) -> Vec<Ino> {
        let mut v: Vec<Ino> = self
            .inodes
            .values()
            .filter(|i| &i.ftype == ftype)
            .map(|i| i.ino)
            .collect();
        v.sort_unstable();
        v
    }
}

/// A journal record: one namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// Entry creation.
    Create {
        /// Allocated inode number.
        ino: Ino,
        /// Parent inode.
        parent: Ino,
        /// Entry name.
        name: String,
        /// File type.
        ftype: FileType,
    },
    /// Embedded-state flush (e.g. sequencer tail written back on cap
    /// release).
    SetEmbedded {
        /// Target inode.
        ino: Ino,
        /// New embedded value.
        value: u64,
    },
    /// A capability was granted: `holder` now caches the inode's state.
    /// A failover replayer uses this to rebuild the reconnect set.
    CapGrant {
        /// Target inode.
        ino: Ino,
        /// Holder node.
        holder: NodeId,
    },
    /// The capability on `ino` was released or its holder evicted.
    CapDrop {
        /// Target inode.
        ino: Ino,
    },
    /// The Mantle balancer-policy version active when journaled.
    MantleVersion {
        /// Policy pointer epoch.
        version: u64,
    },
    /// Storage layout of a sequencer's log (registered by the zlog client)
    /// so a promoted standby can seal the right objects.
    SeqLayout {
        /// The sequencer inode.
        ino: Ino,
        /// Stripe width.
        stripe_width: u32,
        /// RADOS pool.
        pool: Rc<str>,
        /// Log name (objects `<name>.<stripe>`; kept last in the encoding
        /// because it may contain spaces).
        name: Rc<str>,
    },
}

impl JournalEntry {
    /// Encodes to one journal line.
    pub fn encode(&self) -> String {
        match self {
            JournalEntry::Create {
                ino,
                parent,
                name,
                ftype,
            } => format!("C {ino} {parent} {} {name}\n", ftype.name()),
            JournalEntry::SetEmbedded { ino, value } => format!("E {ino} {value}\n"),
            JournalEntry::CapGrant { ino, holder } => format!("G {ino} {}\n", holder.0),
            JournalEntry::CapDrop { ino } => format!("R {ino}\n"),
            JournalEntry::MantleVersion { version } => format!("M {version}\n"),
            JournalEntry::SeqLayout {
                ino,
                stripe_width,
                pool,
                name,
            } => format!("L {ino} {stripe_width} {pool} {name}\n"),
        }
    }

    /// Decodes one journal line; `None` for unparseable lines (a replayer
    /// must tolerate torn tails).
    pub fn decode(line: &str) -> Option<JournalEntry> {
        let mut parts = line.split(' ');
        match parts.next()? {
            "C" => {
                let ino = parts.next()?.parse().ok()?;
                let parent = parts.next()?.parse().ok()?;
                let ftype = FileType::parse(parts.next()?)?;
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return None;
                }
                Some(JournalEntry::Create {
                    ino,
                    parent,
                    name,
                    ftype,
                })
            }
            "E" => {
                let ino = parts.next()?.parse().ok()?;
                let value = parts.next()?.parse().ok()?;
                Some(JournalEntry::SetEmbedded { ino, value })
            }
            "G" => {
                let ino = parts.next()?.parse().ok()?;
                let holder = NodeId(parts.next()?.parse().ok()?);
                Some(JournalEntry::CapGrant { ino, holder })
            }
            "R" => {
                let ino = parts.next()?.parse().ok()?;
                Some(JournalEntry::CapDrop { ino })
            }
            "M" => {
                let version = parts.next()?.parse().ok()?;
                Some(JournalEntry::MantleVersion { version })
            }
            "L" => {
                let ino = parts.next()?.parse().ok()?;
                let stripe_width = parts.next()?.parse().ok()?;
                let pool = parts.next()?.into();
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return None;
                }
                Some(JournalEntry::SeqLayout {
                    ino,
                    stripe_width,
                    pool,
                    name: name.into(),
                })
            }
            _ => None,
        }
    }
}

/// Storage layout of a sequencer's backing log, as journaled. The names
/// are the shared handles the registering client sent: a re-registration
/// (one rides every grant) is compared and dropped without copying one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqLayout {
    /// RADOS pool.
    pub pool: Rc<str>,
    /// Log name (objects `<name>.<stripe>`).
    pub name: Rc<str>,
    /// Stripe width.
    pub stripe_width: u32,
}

/// Everything a promoted standby learns from replaying a rank's journal.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// The rebuilt namespace.
    pub namespace: Namespace,
    /// Capabilities outstanding at the time of the crash: ino → holder.
    /// These seed the reconnect window.
    pub cap_holders: HashMap<Ino, NodeId>,
    /// Registered sequencer layouts: ino → backing log.
    pub layouts: HashMap<Ino, SeqLayout>,
    /// Last journaled Mantle policy version (0 = never journaled).
    pub mantle_version: u64,
}

impl Default for Namespace {
    fn default() -> Self {
        Namespace::new()
    }
}

/// Replays a journal blob into a fresh namespace.
pub fn replay_journal(data: &[u8]) -> Namespace {
    replay_journal_full(data).namespace
}

fn apply_entry(state: &mut ReplayState, entry: JournalEntry) {
    match entry {
        JournalEntry::Create {
            ino,
            parent,
            name,
            ftype,
        } => {
            let _ = state.namespace.apply_create(ino, parent, &name, ftype);
        }
        JournalEntry::SetEmbedded { ino, value } => {
            if let Some(inode) = state.namespace.get_mut(ino) {
                inode.embedded = value;
            }
        }
        JournalEntry::CapGrant { ino, holder } => {
            state.cap_holders.insert(ino, holder);
        }
        JournalEntry::CapDrop { ino } => {
            state.cap_holders.remove(&ino);
        }
        JournalEntry::MantleVersion { version } => {
            state.mantle_version = version;
        }
        JournalEntry::SeqLayout {
            ino,
            stripe_width,
            pool,
            name,
        } => {
            state.layouts.insert(
                ino,
                SeqLayout {
                    pool,
                    name,
                    stripe_width,
                },
            );
        }
    }
}

/// Replays a journal blob, recovering namespace, cap holders, sequencer
/// layouts, and the Mantle policy version. Lossy: undecodable bytes and
/// lines are silently skipped.
pub fn replay_journal_full(data: &[u8]) -> ReplayState {
    let mut state = ReplayState::default();
    for line in String::from_utf8_lossy(data).lines() {
        if let Some(entry) = JournalEntry::decode(line) {
            apply_entry(&mut state, entry);
        }
    }
    state
}

/// Why a journal blob failed strict validation.
///
/// Carries the state rebuilt from the valid prefix, so the caller can
/// degrade (e.g. re-enter recovery with partial state) instead of aborting.
#[derive(Debug, Clone)]
pub struct JournalCorruption {
    /// 1-based number of the first corrupt line (0 when the blob is not
    /// valid UTF-8).
    pub line: usize,
    /// Human-readable description of the damage.
    pub reason: String,
    /// Everything replayed from the journal prefix before the damage.
    pub recovered: ReplayState,
}

impl std::fmt::Display for JournalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal corrupt at line {}: {}", self.line, self.reason)
    }
}

/// Strict replay: every line must decode, except a torn final line with no
/// trailing newline (an in-progress append cut off by a crash, which is
/// expected). Invalid UTF-8 or garbage mid-journal is reported as
/// [`JournalCorruption`] instead of being skipped, so a recovering rank can
/// tell "crash mid-write" apart from "the journal object was damaged".
pub fn replay_journal_checked(data: &[u8]) -> Result<ReplayState, Box<JournalCorruption>> {
    let text = match std::str::from_utf8(data) {
        Ok(t) => t,
        Err(e) => {
            let valid = &data[..e.valid_up_to()];
            return Err(Box::new(JournalCorruption {
                line: 0,
                reason: format!("invalid utf-8 at byte {}", e.valid_up_to()),
                recovered: replay_journal_full(valid),
            }));
        }
    };
    let mut state = ReplayState::default();
    let ends_complete = text.is_empty() || text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        match JournalEntry::decode(line) {
            Some(entry) => apply_entry(&mut state, entry),
            None => {
                let is_torn_tail = !ends_complete && i + 1 == lines.len();
                if is_torn_tail {
                    break;
                }
                let excerpt: String = line.chars().take(64).collect();
                return Err(Box::new(JournalCorruption {
                    line: i + 1,
                    reason: format!("undecodable entry: {excerpt:?}"),
                    recovered: state,
                }));
            }
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_resolve_paths() {
        let mut ns = Namespace::new();
        let dir = ns.create(ROOT_INO, "logs", FileType::Dir).unwrap();
        let seq = ns.create(dir, "seq0", FileType::Sequencer).unwrap();
        assert_eq!(ns.resolve("/logs"), Ok(dir));
        assert_eq!(ns.resolve("/logs/seq0"), Ok(seq));
        assert_eq!(ns.resolve("/"), Ok(ROOT_INO));
        assert_eq!(ns.resolve("/nope"), Err(MdsError::NotFound));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ns = Namespace::new();
        ns.create(ROOT_INO, "a", FileType::Regular).unwrap();
        assert_eq!(
            ns.create(ROOT_INO, "a", FileType::Regular),
            Err(MdsError::Exists)
        );
    }

    #[test]
    fn create_under_file_rejected() {
        let mut ns = Namespace::new();
        let f = ns.create(ROOT_INO, "f", FileType::Regular).unwrap();
        assert_eq!(
            ns.create(f, "child", FileType::Regular),
            Err(MdsError::BadType)
        );
    }

    #[test]
    fn bad_names_rejected() {
        let mut ns = Namespace::new();
        assert!(ns.create(ROOT_INO, "", FileType::Regular).is_err());
        assert!(ns.create(ROOT_INO, "a/b", FileType::Regular).is_err());
    }

    #[test]
    fn journal_round_trip() {
        let entries = vec![
            JournalEntry::Create {
                ino: 2,
                parent: 1,
                name: "logs".into(),
                ftype: FileType::Dir,
            },
            JournalEntry::Create {
                ino: 3,
                parent: 2,
                name: "seq with space".into(),
                ftype: FileType::Sequencer,
            },
            JournalEntry::SetEmbedded { ino: 3, value: 42 },
            JournalEntry::CapGrant {
                ino: 3,
                holder: NodeId(2001),
            },
            JournalEntry::CapDrop { ino: 3 },
            JournalEntry::MantleVersion { version: 7 },
            JournalEntry::SeqLayout {
                ino: 3,
                stripe_width: 4,
                pool: "logpool".into(),
                name: "mylog".into(),
            },
        ];
        for e in &entries {
            let line = e.encode();
            assert_eq!(JournalEntry::decode(line.trim_end()).as_ref(), Some(e));
        }
    }

    #[test]
    fn journal_replay_restores_namespace() {
        let mut ns = Namespace::new();
        let dir = ns.create(ROOT_INO, "d", FileType::Dir).unwrap();
        let seq = ns.create(dir, "s", FileType::Sequencer).unwrap();
        let mut blob = String::new();
        blob.push_str(
            &JournalEntry::Create {
                ino: dir,
                parent: ROOT_INO,
                name: "d".into(),
                ftype: FileType::Dir,
            }
            .encode(),
        );
        blob.push_str(
            &JournalEntry::Create {
                ino: seq,
                parent: dir,
                name: "s".into(),
                ftype: FileType::Sequencer,
            }
            .encode(),
        );
        blob.push_str(
            &JournalEntry::SetEmbedded {
                ino: seq,
                value: 99,
            }
            .encode(),
        );
        blob.push_str("garbage line that must be ignored\n");
        let replayed = replay_journal(blob.as_bytes());
        assert_eq!(replayed.resolve("/d/s"), Ok(seq));
        assert_eq!(replayed.get(seq).unwrap().embedded, 99);
        assert_eq!(replayed.get(seq).unwrap().ftype, FileType::Sequencer);
        // Allocation continues after the replayed range.
        let mut replayed = replayed;
        let fresh = replayed.create(ROOT_INO, "new", FileType::Regular).unwrap();
        assert!(fresh > seq);
    }

    #[test]
    fn full_replay_recovers_caps_layouts_and_mantle() {
        let mut blob = String::new();
        blob.push_str(
            &JournalEntry::Create {
                ino: 2,
                parent: ROOT_INO,
                name: "s".into(),
                ftype: FileType::Sequencer,
            }
            .encode(),
        );
        blob.push_str(
            &JournalEntry::SeqLayout {
                ino: 2,
                stripe_width: 4,
                pool: "logpool".into(),
                name: "mylog".into(),
            }
            .encode(),
        );
        blob.push_str(
            &JournalEntry::CapGrant {
                ino: 2,
                holder: NodeId(2000),
            }
            .encode(),
        );
        blob.push_str(&JournalEntry::CapDrop { ino: 2 }.encode());
        blob.push_str(
            &JournalEntry::CapGrant {
                ino: 2,
                holder: NodeId(2001),
            }
            .encode(),
        );
        blob.push_str(&JournalEntry::MantleVersion { version: 3 }.encode());
        let state = replay_journal_full(blob.as_bytes());
        assert_eq!(state.namespace.resolve("/s"), Ok(2));
        assert_eq!(state.cap_holders.get(&2), Some(&NodeId(2001)));
        assert_eq!(state.mantle_version, 3);
        let layout = &state.layouts[&2];
        assert_eq!(&*layout.pool, "logpool");
        assert_eq!(&*layout.name, "mylog");
        assert_eq!(layout.stripe_width, 4);
    }

    #[test]
    fn apply_create_is_idempotent() {
        let mut ns = Namespace::new();
        ns.apply_create(5, ROOT_INO, "x", FileType::Regular)
            .unwrap();
        ns.apply_create(5, ROOT_INO, "x", FileType::Regular)
            .unwrap();
        assert_eq!(ns.resolve("/x"), Ok(5));
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn inodes_of_type_filters() {
        let mut ns = Namespace::new();
        ns.create(ROOT_INO, "a", FileType::Sequencer).unwrap();
        ns.create(ROOT_INO, "b", FileType::Regular).unwrap();
        ns.create(ROOT_INO, "c", FileType::Sequencer).unwrap();
        assert_eq!(ns.inodes_of_type(&FileType::Sequencer).len(), 2);
        assert_eq!(ns.inodes_of_type(&FileType::Dir).len(), 1); // root
    }

    /// A valid journal blob of `n` entries, one per line.
    fn valid_journal(n: u64) -> String {
        let mut blob = String::new();
        for i in 0..n {
            blob.push_str(
                &JournalEntry::Create {
                    ino: 100 + i,
                    parent: ROOT_INO,
                    name: format!("f{i}"),
                    ftype: FileType::Regular,
                }
                .encode(),
            );
        }
        blob
    }

    #[test]
    fn checked_replay_accepts_clean_journal_and_torn_tail() {
        let mut blob = valid_journal(3);
        let clean = replay_journal_checked(blob.as_bytes()).unwrap();
        assert_eq!(clean.namespace.resolve("/f2"), Ok(102));
        // A crash mid-append leaves a torn final line with no newline:
        // expected damage, replay the prefix.
        blob.push_str("C 103 1 f");
        let torn = replay_journal_checked(blob.as_bytes()).unwrap();
        assert_eq!(torn.namespace.resolve("/f2"), Ok(102));
        assert!(torn.namespace.resolve("/f3").is_err());
    }

    #[test]
    fn checked_replay_reports_midstream_garbage_with_prefix_state() {
        let mut blob = valid_journal(2);
        blob.push_str("XYZZY not a journal line\n");
        blob.push_str(&valid_journal(1));
        let err = replay_journal_checked(blob.as_bytes()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("undecodable"), "{}", err.reason);
        // Everything before the damage was recovered.
        assert_eq!(err.recovered.namespace.resolve("/f1"), Ok(101));
    }

    #[test]
    fn checked_replay_reports_invalid_utf8() {
        let mut data = valid_journal(2).into_bytes();
        data.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        let err = replay_journal_checked(&data).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.reason.contains("invalid utf-8"), "{}", err.reason);
        assert_eq!(err.recovered.namespace.resolve("/f1"), Ok(101));
    }

    mod corrupt_journal_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Replaying arbitrary bytes — checked or lossy — must never
            /// panic: the journal object can come back from RADOS in any
            /// state after enough faults.
            #[test]
            fn replay_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                let _ = replay_journal_checked(&data);
                let _ = replay_journal_full(&data);
            }

            /// Flipping one byte of a valid journal to an arbitrary value
            /// either still replays or reports typed corruption — never a
            /// panic — and the recovered prefix never exceeds the clean
            /// replay.
            #[test]
            fn single_byte_corruption_is_typed(entries in 1u64..8, pos in 0usize..256, byte in any::<u8>()) {
                let clean = valid_journal(entries).into_bytes();
                let mut data = clean.clone();
                let idx = pos % data.len();
                data[idx] = byte;
                let clean_count = replay_journal_checked(&clean)
                    .expect("clean journal replays")
                    .namespace
                    .inodes_of_type(&FileType::Regular)
                    .len();
                match replay_journal_checked(&data) {
                    Ok(state) => {
                        prop_assert!(
                            state.namespace.inodes_of_type(&FileType::Regular).len() <= clean_count
                        );
                    }
                    Err(corrupt) => {
                        prop_assert!(
                            corrupt.recovered.namespace.inodes_of_type(&FileType::Regular).len()
                                <= clean_count
                        );
                    }
                }
            }
        }
    }
}
