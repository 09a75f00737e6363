//! Object operations and atomic transactions.
//!
//! RADOS executes a vector of operations against a single object
//! atomically: either every mutation applies or none does. Object-class
//! methods compose these native operations with application logic (paper
//! §4.2: "native interfaces may be transactionally composed along with
//! application specific logic").

use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use crate::class::{ClassError, ClassRegistry};
use crate::journal::JournalRecord;
use crate::object::{put_key, set_key, DataDelta, Key, Object, ObjectDelta, ObjectId};

/// One native operation against an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read `len` bytes at `offset` from the byte stream.
    Read { offset: usize, len: usize },
    /// Write `data` at `offset`.
    Write { offset: usize, data: Vec<u8> },
    /// Replace the whole byte stream.
    WriteFull { data: Vec<u8> },
    /// Append to the byte stream.
    Append { data: Vec<u8> },
    /// Truncate/extend the byte stream.
    Truncate { size: usize },
    /// Object size and existence.
    Stat,
    /// Create the object; errors if it exists and `exclusive`.
    Create { exclusive: bool },
    /// Remove the object.
    Remove,
    /// Read one omap value.
    OmapGet { key: String },
    /// Read all omap pairs in `[after, ...)`, up to `max` entries.
    OmapList { after: String, max: usize },
    /// Set one omap pair.
    OmapSet { key: String, value: Vec<u8> },
    /// Delete one omap key.
    OmapDel { key: String },
    /// Compare-and-swap an omap value: succeeds iff current == `expect`
    /// (`None` = key absent).
    OmapCmpXchg {
        key: String,
        expect: Option<Vec<u8>>,
        value: Vec<u8>,
    },
    /// Read one xattr.
    XattrGet { key: String },
    /// Set one xattr.
    XattrSet { key: String, value: Vec<u8> },
    /// Invoke `class.method` with `input` (the exec/cls mechanism). The
    /// names are shared handles — a client that calls one method often
    /// builds them once — and the input is a shared buffer: a scripted
    /// method receives this very allocation as its argument.
    Call {
        class: Rc<str>,
        method: Rc<str>,
        input: Rc<[u8]>,
    },
}

impl Op {
    /// Whether this op can mutate object state. Read-only transactions may
    /// skip replication.
    pub fn is_mutation(&self, registry: &ClassRegistry) -> bool {
        match self {
            Op::Read { .. }
            | Op::Stat
            | Op::OmapGet { .. }
            | Op::OmapList { .. }
            | Op::XattrGet { .. } => false,
            Op::Call { class, method, .. } => registry
                .method_kind(class, method)
                .map(|k| k == crate::class::MethodKind::ReadWrite)
                .unwrap_or(true),
            _ => true,
        }
    }
}

/// Result of one [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Mutation applied (no payload).
    Done,
    /// Bytes read.
    Data(Vec<u8>),
    /// Omap/xattr value (`None` = absent): the stored buffer.
    Maybe(Option<Rc<[u8]>>),
    /// Key-value pairs from [`Op::OmapList`], keys and values as stored.
    Pairs(Vec<(Key, Rc<[u8]>)>),
    /// `(size, exists)` from [`Op::Stat`].
    Stat { size: u64, exists: bool },
    /// Output of a class call.
    CallOut(Rc<[u8]>),
    /// Output of a class call whose scripted method returned a table: the
    /// items of its array part, each the buffer the script held (a stored
    /// value it read is the stored buffer). [`crate::frame::encode`] of
    /// these is the flat form, for whoever wants one.
    CallList(Vec<Rc<[u8]>>),
}

/// Errors surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsdError {
    /// Object does not exist (for ops requiring existence).
    NoEnt,
    /// `Create { exclusive: true }` on an existing object.
    Exists,
    /// An `OmapCmpXchg` comparison failed.
    CmpFailed,
    /// Class call failed with a class-defined code/message.
    Class(ClassError),
    /// Unknown class or method.
    NoClass(String),
    /// The request's map epoch was older than the OSD's.
    StaleEpoch {
        /// The OSD's current osdmap epoch, for client refresh.
        current: u64,
    },
    /// Request reached a non-primary OSD for the object's PG.
    NotPrimary,
    /// The OSD is not serving (stopped/recovering).
    NotReady,
    /// The committed map places no OSD for the object: every candidate is
    /// down or drained to weight zero. Retryable — membership changes
    /// (join, weight restore) clear it — but surfaced immediately so
    /// callers see the condition instead of wedging until their deadline.
    NoOsdsUp,
    /// The client gave up: the request deadline passed with no reply
    /// despite retransmissions.
    Timeout,
}

impl OsdError {
    /// Whether the error is transient routing/availability trouble that a
    /// caller should retry (with backoff), as opposed to a verdict about
    /// the operation itself.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            OsdError::StaleEpoch { .. }
                | OsdError::NotPrimary
                | OsdError::NotReady
                | OsdError::NoOsdsUp
                | OsdError::Timeout
        )
    }
}

impl std::fmt::Display for OsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsdError::NoEnt => write!(f, "no such object"),
            OsdError::Exists => write!(f, "object exists"),
            OsdError::CmpFailed => write!(f, "compare failed"),
            OsdError::Class(e) => write!(f, "class error: {}", e.message),
            OsdError::NoClass(name) => write!(f, "no such class/method: {name}"),
            OsdError::StaleEpoch { current } => write!(f, "stale map epoch (osd at {current})"),
            OsdError::NotPrimary => write!(f, "not primary"),
            OsdError::NotReady => write!(f, "osd not ready"),
            OsdError::NoOsdsUp => write!(f, "no osds up for placement"),
            OsdError::Timeout => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for OsdError {}

/// An atomic multi-op transaction against one object.
pub type Transaction = Vec<Op>;

/// One undo-log entry: the pre-image of exactly what one mutation touched.
#[derive(Debug)]
enum Undo {
    /// The object did not exist and was created (explicitly or by a write).
    Created,
    /// The object was removed; this is it, moved out of the slot.
    Removed(Object),
    /// An omap key and the value it held (`None` = absent).
    Omap(Key, Option<Rc<[u8]>>),
    /// An xattr and the value it held (`None` = absent).
    Xattr(Key, Option<Rc<[u8]>>),
    /// The byte stream was `len` long and held `old` at `offset`; the op
    /// wrote `[offset, end)`.
    Data {
        offset: usize,
        old: Vec<u8>,
        len: usize,
        end: usize,
    },
}

/// One transaction's view of its object: the only way to mutate an
/// [`Object`] on the op path.
///
/// Every mutator logs the pre-image of what it is about to overwrite —
/// moved out of the object where the container hands it back, else the
/// overwritten range alone — so [`ObjTxn::rollback`] undoes a failed
/// transaction by replaying the log backwards, and
/// [`ObjTxn::journal_record`] reads the post-image of the same touched
/// parts for the journal and the replicas. Both cost O(touched); a
/// transaction that only reads logs nothing.
#[derive(Debug, Default)]
pub struct ObjTxn {
    obj: Option<Object>,
    undo: Vec<Undo>,
    /// Some op run through [`ObjTxn::run`] may mutate, whether or not it
    /// got to (see [`ObjTxn::mutates`]).
    mutates: bool,
}

/// Final values of the logged keys, each key once: the object's own keys
/// and buffers, so the record, the replicas and their journals share them.
fn post_image(mut keys: Vec<&Key>, map: &BTreeMap<Key, Rc<[u8]>>) -> Vec<(Key, Option<Rc<[u8]>>)> {
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| (Rc::clone(k), map.get(k).cloned()))
        .collect()
}

impl ObjTxn {
    /// Starts a transaction on `obj` (`None` = the object is absent).
    pub fn begin(obj: Option<Object>) -> ObjTxn {
        ObjTxn {
            obj,
            undo: Vec::new(),
            mutates: false,
        }
    }

    /// Ends the transaction, handing the object back.
    pub fn finish(self) -> Option<Object> {
        self.obj
    }

    /// The object, if it exists.
    pub fn obj(&self) -> Option<&Object> {
        self.obj.as_ref()
    }

    /// Whether any op of the transactions [`ObjTxn::run`] here is a
    /// mutation ([`Op::is_mutation`]), including the ops behind a failed
    /// one. Known once the run returns; a transaction that succeeds
    /// resolves each class method once, where it calls it.
    pub fn mutates(&self) -> bool {
        self.mutates
    }

    /// A class call found its method read-write, or did not find it.
    pub(crate) fn note_mutation(&mut self) {
        self.mutates = true;
    }

    /// Reads an omap value: the stored buffer.
    pub fn omap_get(&self, key: &str) -> Option<&Rc<[u8]>> {
        self.obj.as_ref().and_then(|o| o.omap.get(key))
    }

    /// Reads an xattr: the stored buffer.
    pub fn xattr_get(&self, key: &str) -> Option<&Rc<[u8]>> {
        self.obj.as_ref().and_then(|o| o.xattrs.get(key))
    }

    /// The object (created if absent, as RADOS writes do) and the log.
    fn parts(&mut self) -> (&mut Object, &mut Vec<Undo>) {
        if self.obj.is_none() {
            self.undo.push(Undo::Created);
        }
        (self.obj.get_or_insert_with(Object::new), &mut self.undo)
    }

    /// Creates the object if it is absent.
    pub fn create(&mut self) {
        self.parts();
    }

    /// Removes the object; `false` if there was none.
    pub fn remove(&mut self) -> bool {
        match self.obj.take() {
            Some(o) => {
                self.undo.push(Undo::Removed(o));
                true
            }
            None => false,
        }
    }

    /// Sets one omap pair; the object holds `value` itself, under the key
    /// it already held or one allocated here.
    pub fn omap_set(&mut self, key: &str, value: Rc<[u8]>) {
        let (o, undo) = self.parts();
        let (key, prev) = set_key(&mut o.omap, key, value);
        undo.push(Undo::Omap(key, prev));
    }

    /// Deletes one omap key; an absent object stays absent.
    pub fn omap_del(&mut self, key: &str) {
        if let Some((key, prev)) = self.obj.as_mut().and_then(|o| o.omap.remove_entry(key)) {
            self.undo.push(Undo::Omap(key, Some(prev)));
        }
    }

    /// Deletes every omap key in `[lo, hi]`, returning how many there were.
    pub fn omap_del_range(&mut self, lo: &str, hi: &str) -> usize {
        let Some(o) = self.obj.as_mut() else {
            return 0;
        };
        if lo > hi {
            return 0;
        }
        let doomed: Vec<Key> = o
            .omap
            .range::<str, _>((Bound::Included(lo), Bound::Included(hi)))
            .map(|(k, _)| Rc::clone(k))
            .collect();
        let purged = doomed.len();
        for key in doomed {
            let prev = o.omap.remove(&*key);
            self.undo.push(Undo::Omap(key, prev));
        }
        purged
    }

    /// Sets one xattr; the object holds `value` itself, keyed as
    /// [`ObjTxn::omap_set`] keys.
    pub fn xattr_set(&mut self, key: &str, value: Rc<[u8]>) {
        let (o, undo) = self.parts();
        let (key, prev) = set_key(&mut o.xattrs, key, value);
        undo.push(Undo::Xattr(key, prev));
    }

    /// Deletes one xattr; an absent object stays absent.
    pub fn xattr_del(&mut self, key: &str) {
        if let Some((key, prev)) = self.obj.as_mut().and_then(|o| o.xattrs.remove_entry(key)) {
            self.undo.push(Undo::Xattr(key, Some(prev)));
        }
    }

    /// Writes `buf` at `offset`, zero-filling any gap.
    pub fn write(&mut self, offset: usize, buf: &[u8]) {
        let (o, undo) = self.parts();
        let len = o.data.len();
        let start = offset.min(len);
        let end = offset + buf.len();
        undo.push(Undo::Data {
            offset: start,
            old: o.data[start..end.min(len)].to_vec(),
            len,
            end,
        });
        o.write(offset, buf);
    }

    /// Replaces the whole byte stream.
    pub fn write_full(&mut self, data: Vec<u8>) {
        let (o, undo) = self.parts();
        let end = data.len();
        let old = std::mem::replace(&mut o.data, data);
        undo.push(Undo::Data {
            offset: 0,
            len: old.len(),
            old,
            end,
        });
    }

    /// Appends `buf` to the byte stream.
    pub fn append(&mut self, buf: &[u8]) {
        let (o, undo) = self.parts();
        let len = o.data.len();
        undo.push(Undo::Data {
            offset: len,
            old: Vec::new(),
            len,
            end: len + buf.len(),
        });
        o.append(buf);
    }

    /// Truncates (or zero-extends) the byte stream to `size`.
    pub fn truncate(&mut self, size: usize) {
        let (o, undo) = self.parts();
        let len = o.data.len();
        let old = if size < len {
            o.data.split_off(size)
        } else {
            Vec::new()
        };
        undo.push(Undo::Data {
            offset: size.min(len),
            old,
            len,
            end: size,
        });
        o.data.resize(size, 0);
    }

    /// Undoes every mutation since [`ObjTxn::begin`], newest first.
    pub fn rollback(&mut self) {
        while let Some(entry) = self.undo.pop() {
            // A key or byte-stream entry is only ever logged against an
            // existing object, which the entries above it restore first.
            match entry {
                Undo::Created => self.obj = None,
                Undo::Removed(o) => self.obj = Some(o),
                Undo::Omap(key, prev) => {
                    if let Some(o) = &mut self.obj {
                        put_key(&mut o.omap, key, prev);
                    }
                }
                Undo::Xattr(key, prev) => {
                    if let Some(o) = &mut self.obj {
                        put_key(&mut o.xattrs, key, prev);
                    }
                }
                Undo::Data {
                    offset, old, len, ..
                } => {
                    if let Some(o) = &mut self.obj {
                        o.data.resize(len, 0);
                        o.data[offset..offset + old.len()].copy_from_slice(&old);
                    }
                }
            }
        }
    }

    /// What this transaction did to `oid`, as the record the primary
    /// journals and ships to its replicas: the post-image of the logged
    /// parts, under the caller's id and the object's own keys (refcounts,
    /// not copies). `None` if it changed nothing.
    pub fn journal_record(&self, oid: &ObjectId) -> Option<JournalRecord> {
        if self.undo.is_empty() {
            return None;
        }
        let Some(obj) = &self.obj else {
            return Some(JournalRecord::DelObject(oid.clone()));
        };
        let mut reset = false;
        let mut written: Option<(usize, usize)> = None;
        let mut omap = Vec::new();
        let mut xattrs = Vec::new();
        for entry in &self.undo {
            match entry {
                Undo::Created => reset = true,
                // The object exists now, so a `Created` follows.
                Undo::Removed(_) => {}
                Undo::Omap(key, _) => omap.push(key),
                Undo::Xattr(key, _) => xattrs.push(key),
                Undo::Data { offset, end, .. } => {
                    let (lo, hi) = written.unwrap_or((*offset, *end));
                    written = Some((lo.min(*offset), hi.max(*end)));
                }
            }
        }
        let len = obj.data.len();
        let data = written.map(|(lo, hi)| DataDelta {
            len,
            offset: lo.min(len),
            bytes: obj.data[lo.min(len)..hi.min(len)].to_vec(),
        });
        Some(JournalRecord::Delta(
            oid.clone(),
            ObjectDelta {
                reset,
                data,
                omap: post_image(omap, &obj.omap),
                xattrs: post_image(xattrs, &obj.xattrs),
            },
        ))
    }

    /// Applies `txn` atomically: per-op results in order, or the first
    /// error with the object rolled back to its pre-transaction state.
    pub fn run(
        &mut self,
        txn: &Transaction,
        registry: &ClassRegistry,
    ) -> Result<Vec<OpResult>, OsdError> {
        let results = self.apply(txn, registry);
        if results.is_err() {
            // The ops behind the failed one never ran to say what they are.
            self.mutates = self.mutates || txn.iter().any(|op| op.is_mutation(registry));
            self.rollback();
        }
        results
    }

    fn apply(
        &mut self,
        txn: &Transaction,
        registry: &ClassRegistry,
    ) -> Result<Vec<OpResult>, OsdError> {
        let mut results = Vec::with_capacity(txn.len());
        for op in txn {
            // A class call says what it is where it resolves its method.
            self.mutates |= !matches!(op, Op::Call { .. }) && op.is_mutation(registry);
            let res = match op {
                Op::Create { exclusive } => {
                    if *exclusive && self.obj.is_some() {
                        return Err(OsdError::Exists);
                    }
                    self.create();
                    OpResult::Done
                }
                Op::Remove => {
                    if !self.remove() {
                        return Err(OsdError::NoEnt);
                    }
                    OpResult::Done
                }
                Op::Stat => OpResult::Stat {
                    size: self.obj().map_or(0, |o| o.size() as u64),
                    exists: self.obj.is_some(),
                },
                // Writes implicitly create, as in RADOS.
                Op::Write { offset, data } => {
                    self.write(*offset, data);
                    OpResult::Done
                }
                Op::WriteFull { data } => {
                    self.write_full(data.clone());
                    OpResult::Done
                }
                Op::Append { data } => {
                    self.append(data);
                    OpResult::Done
                }
                Op::Truncate { size } => {
                    self.truncate(*size);
                    OpResult::Done
                }
                Op::Read { offset, len } => {
                    let o = self.obj().ok_or(OsdError::NoEnt)?;
                    OpResult::Data(o.read(*offset, *len).to_vec())
                }
                Op::OmapGet { key } => {
                    let o = self.obj().ok_or(OsdError::NoEnt)?;
                    OpResult::Maybe(o.omap.get(key.as_str()).cloned())
                }
                Op::OmapList { after, max } => {
                    let o = self.obj().ok_or(OsdError::NoEnt)?;
                    let pairs = o
                        .omap
                        .range::<str, _>((Bound::Excluded(after.as_str()), Bound::Unbounded))
                        .take(*max)
                        .map(|(k, v)| (Rc::clone(k), Rc::clone(v)))
                        .collect();
                    OpResult::Pairs(pairs)
                }
                Op::OmapSet { key, value } => {
                    self.omap_set(key, value.as_slice().into());
                    OpResult::Done
                }
                Op::OmapDel { key } => {
                    self.create();
                    self.omap_del(key);
                    OpResult::Done
                }
                Op::OmapCmpXchg { key, expect, value } => {
                    self.create();
                    if self.omap_get(key).map(|held| &**held) != expect.as_deref() {
                        return Err(OsdError::CmpFailed);
                    }
                    self.omap_set(key, value.as_slice().into());
                    OpResult::Done
                }
                Op::XattrGet { key } => {
                    let o = self.obj().ok_or(OsdError::NoEnt)?;
                    OpResult::Maybe(o.xattrs.get(key.as_str()).cloned())
                }
                Op::XattrSet { key, value } => {
                    self.xattr_set(key, value.as_slice().into());
                    OpResult::Done
                }
                Op::Call {
                    class,
                    method,
                    input,
                } => registry.call_in(class, method, self, input)?,
            };
            results.push(res);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> ClassRegistry {
        ClassRegistry::with_builtins()
    }

    fn apply(slot: &mut Option<Object>, txn: Transaction) -> Result<Vec<OpResult>, OsdError> {
        let mut tracked = ObjTxn::begin(slot.take());
        let result = tracked.run(&txn, &reg());
        *slot = tracked.finish();
        result
    }

    #[test]
    fn create_write_read() {
        let mut slot = None;
        let res = apply(
            &mut slot,
            vec![
                Op::Create { exclusive: true },
                Op::Write {
                    offset: 0,
                    data: b"hi".to_vec(),
                },
                Op::Read { offset: 0, len: 2 },
            ],
        )
        .unwrap();
        assert_eq!(res[2], OpResult::Data(b"hi".to_vec()));
    }

    #[test]
    fn exclusive_create_fails_on_existing() {
        let mut slot = Some(Object::new());
        let err = apply(&mut slot, vec![Op::Create { exclusive: true }]).unwrap_err();
        assert_eq!(err, OsdError::Exists);
        // Non-exclusive create is a no-op.
        apply(&mut slot, vec![Op::Create { exclusive: false }]).unwrap();
    }

    #[test]
    fn transaction_rolls_back_atomically() {
        let mut slot = Some(Object::new());
        let err = apply(
            &mut slot,
            vec![
                Op::OmapSet {
                    key: "a".into(),
                    value: b"1".to_vec(),
                },
                Op::OmapCmpXchg {
                    key: "missing".into(),
                    expect: Some(b"x".to_vec()),
                    value: b"y".to_vec(),
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, OsdError::CmpFailed);
        assert!(
            slot.as_ref().unwrap().omap.is_empty(),
            "first op must be rolled back"
        );
    }

    /// A failing transaction after `omap_set` / `omap_del` / `xattr_set`
    /// puts back the keys and values that were there — the very
    /// allocations, since a key that exists is reused, not replaced.
    #[test]
    fn rollback_restores_the_keys_and_values_that_were_held() {
        let mut obj = Object::new();
        obj.omap.insert("kept".into(), b"v1"[..].into());
        obj.omap.insert("doomed".into(), b"d"[..].into());
        obj.xattrs.insert("maxpos".into(), b"7"[..].into());
        let held = |o: &Object| -> Vec<(Key, Rc<[u8]>)> {
            let pairs = o.omap.iter().chain(o.xattrs.iter());
            pairs.map(|(k, v)| (Rc::clone(k), Rc::clone(v))).collect()
        };
        let before = held(&obj);

        let mut tracked = ObjTxn::begin(Some(obj));
        tracked.omap_set("kept", b"v2"[..].into());
        tracked.omap_set("fresh", b"f"[..].into());
        tracked.omap_del("doomed");
        tracked.xattr_set("maxpos", b"8"[..].into());
        tracked.xattr_set("epoch", b"1"[..].into());
        // The rewritten keys are the stored ones, in the object and in the
        // record a replica would get.
        let now = tracked.obj().unwrap();
        assert!(Rc::ptr_eq(
            now.omap.get_key_value("kept").unwrap().0,
            &before[1].0
        ));
        assert!(Rc::ptr_eq(
            now.xattrs.get_key_value("maxpos").unwrap().0,
            &before[2].0
        ));
        let Some(JournalRecord::Delta(_, delta)) = tracked.journal_record(&ObjectId::new("p", "o"))
        else {
            panic!("the transaction touched the object");
        };
        let shipped = |key: &str| {
            delta
                .omap
                .iter()
                .chain(&delta.xattrs)
                .find(|(k, _)| &**k == key)
        };
        assert!(Rc::ptr_eq(&shipped("kept").unwrap().0, &before[1].0));
        assert!(Rc::ptr_eq(&shipped("maxpos").unwrap().0, &before[2].0));
        let fresh = now.omap.get_key_value("fresh").unwrap().0;
        assert!(Rc::ptr_eq(&shipped("fresh").unwrap().0, fresh));
        assert_eq!(shipped("doomed").unwrap().1, None);

        tracked.rollback();
        let after = held(tracked.obj().unwrap());
        assert_eq!(after.len(), before.len());
        for ((k0, v0), (k1, v1)) in before.iter().zip(&after) {
            assert!(Rc::ptr_eq(k0, k1) && Rc::ptr_eq(v0, v1), "{k0}");
        }
    }

    #[test]
    fn cmpxchg_success_path() {
        let mut slot = Some(Object::new());
        apply(
            &mut slot,
            vec![Op::OmapCmpXchg {
                key: "k".into(),
                expect: None,
                value: b"v1".to_vec(),
            }],
        )
        .unwrap();
        apply(
            &mut slot,
            vec![Op::OmapCmpXchg {
                key: "k".into(),
                expect: Some(b"v1".to_vec()),
                value: b"v2".to_vec(),
            }],
        )
        .unwrap();
        assert_eq!(&*slot.unwrap().omap["k"], b"v2");
    }

    #[test]
    fn omap_list_pagination() {
        let mut slot = Some(Object::new());
        for i in 0..10 {
            apply(
                &mut slot,
                vec![Op::OmapSet {
                    key: format!("k{i:02}"),
                    value: vec![i],
                }],
            )
            .unwrap();
        }
        let res = apply(
            &mut slot,
            vec![Op::OmapList {
                after: "k04".into(),
                max: 3,
            }],
        )
        .unwrap();
        let OpResult::Pairs(pairs) = &res[0] else {
            panic!()
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, vec!["k05", "k06", "k07"]);
    }

    #[test]
    fn reads_on_missing_object_error() {
        let mut slot = None;
        assert_eq!(
            apply(&mut slot, vec![Op::Read { offset: 0, len: 1 }]).unwrap_err(),
            OsdError::NoEnt
        );
        assert_eq!(
            apply(&mut slot, vec![Op::OmapGet { key: "k".into() }]).unwrap_err(),
            OsdError::NoEnt
        );
        // Stat reports absence without erroring.
        let res = apply(&mut slot, vec![Op::Stat]).unwrap();
        assert_eq!(
            res[0],
            OpResult::Stat {
                size: 0,
                exists: false
            }
        );
    }

    #[test]
    fn remove_then_recreate() {
        let mut slot = Some(Object::new());
        apply(&mut slot, vec![Op::Remove]).unwrap();
        assert!(slot.is_none());
        assert_eq!(
            apply(&mut slot, vec![Op::Remove]).unwrap_err(),
            OsdError::NoEnt
        );
        apply(
            &mut slot,
            vec![Op::Append {
                data: b"z".to_vec(),
            }],
        )
        .unwrap();
        assert!(slot.is_some());
    }

    #[test]
    fn writes_implicitly_create() {
        let mut slot = None;
        apply(
            &mut slot,
            vec![Op::OmapSet {
                key: "k".into(),
                value: b"v".to_vec(),
            }],
        )
        .unwrap();
        assert!(slot.is_some());
    }

    #[test]
    fn mutation_classification() {
        let registry = reg();
        assert!(!Op::Read { offset: 0, len: 1 }.is_mutation(&registry));
        assert!(!Op::Stat.is_mutation(&registry));
        assert!(Op::Append { data: vec![] }.is_mutation(&registry));
        assert!(Op::Remove.is_mutation(&registry));
        // Unknown classes are conservatively treated as mutations.
        assert!(Op::Call {
            class: "unknown".into(),
            method: "m".into(),
            input: Rc::default()
        }
        .is_mutation(&registry));
    }
}
