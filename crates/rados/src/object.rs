//! Objects: byte stream + omap + xattrs, as in RADOS.

use std::collections::BTreeMap;
use std::rc::Rc;

/// Fully-qualified object name: `(pool, name)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// Pool the object lives in.
    pub pool: String,
    /// Object name within the pool.
    pub name: String,
}

impl ObjectId {
    /// Builds an object id.
    pub fn new(pool: impl Into<String>, name: impl Into<String>) -> ObjectId {
        ObjectId {
            pool: pool.into(),
            name: name.into(),
        }
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
/// Omap and xattr values are immutable shared buffers: a value is set
/// whole, never edited, so whoever holds it — a script, a reply, a journal
/// record, a replica's copy of the object — holds the same allocation
/// (DESIGN §29). Cloning an object copies the byte stream and the keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Object {
    /// The byte stream.
    pub data: Vec<u8>,
    /// The sorted key-value database.
    pub omap: BTreeMap<String, Rc<[u8]>>,
    /// Extended attributes.
    pub xattrs: BTreeMap<String, Rc<[u8]>>,
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
    pub fn apply_delta(&mut self, delta: &ObjectDelta) {
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
/// both a journalled post-image and a rollback pre-image are put back.
pub(crate) fn put_key(map: &mut BTreeMap<String, Rc<[u8]>>, key: String, value: Option<Rc<[u8]>>) {
    match value {
        Some(v) => map.insert(key, v),
        None => map.remove(&key),
    };
}

/// [`put_key`] from a borrowed post-image: the map takes a reference to the
/// delta's buffer, and a key that is already there is not allocated again
/// (a stripe's `maxpos` is rewritten by every append).
fn share_key(map: &mut BTreeMap<String, Rc<[u8]>>, key: &str, value: Option<&Rc<[u8]>>) {
    match (value, map.get_mut(key)) {
        (Some(v), Some(slot)) => *slot = Rc::clone(v),
        (Some(v), None) => {
            map.insert(key.to_string(), Rc::clone(v));
        }
        (None, _) => {
            map.remove(key);
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
    /// buffer the primary's object holds.
    pub omap: Vec<(String, Option<Rc<[u8]>>)>,
    /// Touched xattrs with their final value (`None` = deleted).
    pub xattrs: Vec<(String, Option<Rc<[u8]>>)>,
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
}
