//! Objects: byte stream + omap + xattrs, as in RADOS.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use crate::placement::stable_hash;

/// An omap or xattr key: text, set whole and never edited, so it is one
/// shared allocation. A key is allocated where a native first names it;
/// the primary's map, the undo log, the shipped [`ObjectDelta`], every
/// replica's map and every journal then hold that allocation (DESIGN §30),
/// as they hold one buffer per value (§29). Keys are text because they are
/// what sorts and what a range names; values are bytes.
pub type Key = Rc<str>;

/// What an [`ObjectId`] names, with the two placement hash words computed
/// when it was built.
#[derive(Debug)]
pub struct ObjectName {
    /// Pool the object lives in.
    pub pool: Rc<str>,
    /// Object name within the pool.
    pub name: Rc<str>,
    pool_hash: u64,
    name_hash: u64,
}

/// Fully-qualified object name `(pool, name)`: an immutable shared handle.
///
/// Whoever names an object builds its id once ([`ObjectId::new`] is the
/// only constructor); a request, the primary's store, the shipped effect,
/// each replica's store and each journal record then hold refcounts of it.
/// The handle carries [`stable_hash`] of both parts from the moment it is
/// built — as Ceph's `hobject_t` carries its placement hash — so placement
/// ([`crate::placement::pg_of_id`]) and `Hash` rehash nothing.
///
/// `==`, `Ord` and `Display` are those of the `(pool, name)` pair. `Hash`
/// writes the two cached words: equal pairs have equal words, which is all
/// `Hash` must promise. `Ord` may not use them — the sorted order of ids
/// reaches the wire (backfill pushes, scrub fingerprints, journal
/// compaction) and must stay the order of the names.
#[derive(Debug, Clone)]
pub struct ObjectId(Rc<ObjectName>);

impl ObjectId {
    /// Builds an object id, hashing both parts once.
    pub fn new(pool: impl Into<Rc<str>>, name: impl Into<Rc<str>>) -> ObjectId {
        let (pool, name) = (pool.into(), name.into());
        ObjectId(Rc::new(ObjectName {
            pool_hash: stable_hash(&pool),
            name_hash: stable_hash(&name),
            pool,
            name,
        }))
    }

    /// [`stable_hash`] of the pool name.
    pub fn pool_hash(&self) -> u64 {
        self.0.pool_hash
    }

    /// [`stable_hash`] of the object name.
    pub fn name_hash(&self) -> u64 {
        self.0.name_hash
    }

    /// Whether `self` and `other` are one allocation (not merely equal).
    pub fn ptr_eq(&self, other: &ObjectId) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for ObjectId {
    type Target = ObjectName;

    fn deref(&self) -> &ObjectName {
        &self.0
    }
}

impl PartialEq for ObjectId {
    fn eq(&self, other: &ObjectId) -> bool {
        self.ptr_eq(other)
            || (self.name_hash == other.name_hash
                && self.pool_hash == other.pool_hash
                && self.name == other.name
                && self.pool == other.pool)
    }
}

impl Eq for ObjectId {}

impl std::hash::Hash for ObjectId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.pool_hash);
        state.write_u64(self.name_hash);
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &ObjectId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ObjectId {
    fn cmp(&self, other: &ObjectId) -> std::cmp::Ordering {
        (&*self.pool, &*self.name).cmp(&(&*other.pool, &*other.name))
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.pool, self.name)
    }
}

/// One stored object: a sparse-free byte stream, a sorted key-value
/// database (omap), and extended attributes.
///
/// The paper's "native interfaces ... reading and writing to a byte stream
/// ... and accessing a sorted key-value database" map onto these three
/// components; the ZLog storage interface stores log entries in the omap
/// and its epoch seal in an xattr.
///
/// Omap and xattr keys and values are immutable shared allocations: each is
/// set whole, never edited, so whoever holds one — a script, a reply, a
/// journal record, a replica's copy of the object — holds the same
/// allocation (DESIGN §29, §30). Cloning an object copies the byte stream
/// and takes a refcount per key and per value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Object {
    /// The byte stream.
    pub data: Vec<u8>,
    /// The sorted key-value database.
    pub omap: BTreeMap<Key, Rc<[u8]>>,
    /// Extended attributes.
    pub xattrs: BTreeMap<Key, Rc<[u8]>>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Writes `buf` at `offset`, zero-filling any gap (RADOS semantics).
    pub fn write(&mut self, offset: usize, buf: &[u8]) {
        let end = offset + buf.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[offset..end].copy_from_slice(buf);
    }

    /// Reads up to `len` bytes at `offset`; short reads at EOF.
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        if offset >= self.data.len() {
            return &[];
        }
        let end = (offset + len).min(self.data.len());
        &self.data[offset..end]
    }

    /// Appends `buf` to the byte stream.
    pub fn append(&mut self, buf: &[u8]) {
        self.data.extend_from_slice(buf);
    }

    /// Truncates (or zero-extends) the byte stream to `size`.
    pub fn truncate(&mut self, size: usize) {
        self.data.resize(size, 0);
    }

    /// Byte stream length.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// A deterministic content fingerprint covering all three components,
    /// used by scrub to compare replicas cheaply.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, applied over a canonical serialization.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(&(self.data.len() as u64).to_le_bytes());
        eat(&self.data);
        for (k, v) in &self.omap {
            eat(k.as_bytes());
            eat(&[0]);
            eat(v);
            eat(&[1]);
        }
        for (k, v) in &self.xattrs {
            eat(k.as_bytes());
            eat(&[2]);
            eat(v);
            eat(&[3]);
        }
        h
    }

    /// Applies a post-image — journalled, or shipped by the primary: after
    /// this the touched parts equal what the transaction left behind, the
    /// rest is as it was. By reference, because one delta is shared by every
    /// acting-set member and their journals.
    pub fn apply_post_image(&mut self, delta: &ObjectDelta) {
        if delta.reset {
            *self = Object::new();
        }
        if let Some(d) = &delta.data {
            self.data.resize(d.len, 0);
            self.data[d.offset..d.offset + d.bytes.len()].copy_from_slice(&d.bytes);
        }
        for (key, value) in &delta.omap {
            share_key(&mut self.omap, key, value.as_ref());
        }
        for (key, value) in &delta.xattrs {
            share_key(&mut self.xattrs, key, value.as_ref());
        }
    }
}

/// Makes `key` hold `value` in an omap or xattr map (`None` = absent): how
/// a rollback pre-image is put back.
pub(crate) fn put_key(map: &mut BTreeMap<Key, Rc<[u8]>>, key: Key, value: Option<Rc<[u8]>>) {
    match value {
        Some(v) => map.insert(key, v),
        None => map.remove(&key),
    };
}

/// Sets `key` to `value` and hands back the key the map holds with what it
/// held before: the stored key when there is one (a stripe's `maxpos` is
/// rewritten by every append), else a new allocation — the only one that
/// key gets on its way to every replica and journal.
pub(crate) fn set_key(
    map: &mut BTreeMap<Key, Rc<[u8]>>,
    key: &str,
    value: Rc<[u8]>,
) -> (Key, Option<Rc<[u8]>>) {
    let at = (Bound::Included(key), Bound::Included(key));
    if let Some((held, slot)) = map.range_mut::<str, _>(at).next() {
        return (Rc::clone(held), Some(std::mem::replace(slot, value)));
    }
    let held: Key = key.into();
    map.insert(Rc::clone(&held), value);
    (held, None)
}

/// [`put_key`] from a borrowed post-image: the map takes a reference to the
/// delta's key and buffer, and a key that is already there stays the one
/// held.
fn share_key(map: &mut BTreeMap<Key, Rc<[u8]>>, key: &Key, value: Option<&Rc<[u8]>>) {
    match (value, map.get_mut(&**key)) {
        (Some(v), Some(slot)) => *slot = Rc::clone(v),
        (Some(v), None) => {
            map.insert(Rc::clone(key), Rc::clone(v));
        }
        (None, _) => {
            map.remove(&**key);
        }
    }
}

/// What one committed transaction changed in an object, as *post-images*:
/// the values the touched parts hold afterwards, not the operations that
/// produced them. This is what the journal stores per mutation and what the
/// primary ships to its replicas, so a record is as large as what the
/// transaction touched, and replaying or replicating it runs no class code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectDelta {
    /// The transaction created the object, or removed and re-created it:
    /// the delta applies to an empty object.
    pub reset: bool,
    /// The byte stream's new length and the range that was written.
    pub data: Option<DataDelta>,
    /// Touched omap keys with their final value (`None` = deleted): the
    /// key and the buffer the primary's object holds.
    pub omap: Vec<(Key, Option<Rc<[u8]>>)>,
    /// Touched xattrs with their final value (`None` = deleted).
    pub xattrs: Vec<(Key, Option<Rc<[u8]>>)>,
}

/// The byte-stream part of an [`ObjectDelta`]: resize to `len` (zero-filling
/// growth), then `bytes` lands at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDelta {
    /// Length of the byte stream after the transaction.
    pub len: usize,
    /// Where the written range starts.
    pub offset: usize,
    /// The written range's final content.
    pub bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_with_gap_fill() {
        let mut o = Object::new();
        o.write(4, b"abcd");
        assert_eq!(o.size(), 8);
        assert_eq!(o.read(0, 4), &[0, 0, 0, 0]);
        assert_eq!(o.read(4, 4), b"abcd");
        assert_eq!(o.read(6, 100), b"cd");
        assert_eq!(o.read(100, 4), b"");
    }

    #[test]
    fn overwrite_in_place() {
        let mut o = Object::new();
        o.write(0, b"hello world");
        o.write(6, b"rados");
        assert_eq!(&o.data, b"hello rados");
    }

    #[test]
    fn append_and_truncate() {
        let mut o = Object::new();
        o.append(b"abc");
        o.append(b"def");
        assert_eq!(o.size(), 6);
        o.truncate(2);
        assert_eq!(&o.data, b"ab");
        o.truncate(4);
        assert_eq!(&o.data, &[b'a', b'b', 0, 0]);
    }

    #[test]
    fn fingerprint_sensitive_to_all_parts() {
        let mut a = Object::new();
        let base = a.fingerprint();
        a.append(b"x");
        let with_data = a.fingerprint();
        assert_ne!(base, with_data);
        a.omap.insert("k".into(), b"v"[..].into());
        let with_omap = a.fingerprint();
        assert_ne!(with_data, with_omap);
        a.xattrs.insert("e".into(), b"1"[..].into());
        assert_ne!(with_omap, a.fingerprint());
    }

    #[test]
    fn fingerprint_is_canonical() {
        let mut a = Object::new();
        a.omap.insert("a".into(), b"1"[..].into());
        a.omap.insert("b".into(), b"2"[..].into());
        let mut b = Object::new();
        b.omap.insert("b".into(), b"2"[..].into());
        b.omap.insert("a".into(), b"1"[..].into());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId::new("meta", "seq.0").to_string(), "meta/seq.0");
    }

    #[test]
    fn a_cloned_id_is_the_same_allocation_and_reads_through() {
        let id = ObjectId::new("meta", String::from("seq.0"));
        let copy = id.clone();
        assert!(copy.ptr_eq(&id));
        assert!(!ObjectId::new("meta", "seq.0").ptr_eq(&id));
        assert_eq!((&*copy.pool, &*copy.name), ("meta", "seq.0"));
    }

    #[test]
    fn set_key_reuses_the_key_the_map_holds() {
        let mut map = BTreeMap::new();
        let (first, prev) = set_key(&mut map, "maxpos", b"1"[..].into());
        assert_eq!(prev, None);
        let (again, prev) = set_key(&mut map, "maxpos", b"2"[..].into());
        assert!(
            Rc::ptr_eq(&first, &again),
            "an existing key is not reallocated"
        );
        assert_eq!(prev.as_deref(), Some(&b"1"[..]));
        let (held, value) = map.get_key_value("maxpos").unwrap();
        assert!(Rc::ptr_eq(held, &first));
        assert_eq!(&**value, b"2");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::hash::{BuildHasher, BuildHasherDefault, RandomState};

        fn name() -> impl Strategy<Value = String> {
            // A small alphabet, so equal and prefix-related names turn up.
            proptest::collection::vec(
                prop_oneof![Just('a'), Just('b'), Just('/'), Just('.')],
                0..6,
            )
            .prop_map(|chars| chars.into_iter().collect())
        }

        proptest! {
            /// An id is its `(pool, name)` pair to `==`, `cmp` and
            /// `to_string`, and ids that are equal hash equal — under the
            /// store's hasher and under SipHash.
            #[test]
            fn an_id_agrees_with_its_pair(p1 in name(), n1 in name(), p2 in name(), n2 in name()) {
                let (a, b) = (ObjectId::new(p1.as_str(), n1.as_str()), ObjectId::new(p2.as_str(), n2.as_str()));
                let (pa, pb) = ((&p1, &n1), (&p2, &n2));
                prop_assert_eq!(a == b, pa == pb);
                prop_assert_eq!(a.cmp(&b), pa.cmp(&pb));
                prop_assert_eq!(a.partial_cmp(&b), pa.partial_cmp(&pb));
                prop_assert_eq!(a.to_string(), format!("{p1}/{n1}"));
                if a == b {
                    let ids = BuildHasherDefault::<mala_sim::idmap::IdHasher>::default();
                    prop_assert_eq!(ids.hash_one(&a), ids.hash_one(&b));
                    let sip = RandomState::new();
                    prop_assert_eq!(sip.hash_one(&a), sip.hash_one(&b));
                }
            }
        }
    }
}
