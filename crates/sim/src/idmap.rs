//! Hash maps for keys the program mints itself.
//!
//! Node ids, inode numbers, request ids and op ids are small integers the
//! harness or an actor counts up; an object id carries the hash words it
//! was built with. Neither needs SipHash's defence against crafted keys,
//! and a per-process random seed makes a map's iteration order differ from
//! run to run. [`IdMap`] and [`IdSet`] hash such a key in one multiply per
//! word, the same in every process. A metric's name is chosen by the
//! program too, and hashes eight bytes to a multiply.
//!
//! A fixed order is not a sorted order: whoever iterates one of these on
//! the way to a send, a timer or an RNG draw still sorts first.

use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-xor step per word, seeded with nothing. Keys come from
/// inside the program, so there are no crafted collisions to defend
/// against; do not key one of these maps by input from outside it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    /// Bytes (a metric's name) go eight to a multiply, the tail
    /// zero-padded. A product's best-mixed bits are its top ones and the
    /// table indexes by the low ones, so the state is then turned to bring
    /// the top bits down: names that differ only in their last bytes would
    /// otherwise share their low bits. No integer key writes bytes, so an
    /// id hashes as it always has.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0; 8];
            buf.copy_from_slice(word);
            self.mix(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
        self.0 = self.0.rotate_left(26);
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by program-minted ids.
#[allow(clippy::disallowed_types)] // The one place std's map is named.
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-minted ids.
#[allow(clippy::disallowed_types)] // The one place std's set is named.
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        // The table indexes by the low bits: a run of consecutive ids must
        // not pile into a few buckets.
        let buckets: IdSet<u64> = (0..1024u64).map(|id| hash_of(id) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn word_width_does_not_change_a_small_key() {
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn names_that_differ_in_their_last_bytes_spread_over_the_buckets() {
        // 1,024 names into 1,024 buckets, at every alignment of the varying
        // digits within a word. A random function fills 1 - 1/e of the
        // buckets (647); a byte hasher that left the digits in the high
        // bits of the last word filled 32 of them at most alignments.
        let prefix = "osd.iface_live.epoch_of_the_name.";
        for len in 0..=24 {
            let buckets: IdSet<u64> = (0..1024)
                .map(|i| hash_of(format!("{}{i:04}", &prefix[..len]).as_str()) & 1023)
                .collect();
            assert!(buckets.len() >= 560, "prefix of {len}: {}", buckets.len());
        }
    }

    #[test]
    fn iteration_order_is_a_function_of_the_keys() {
        let order = |keys: &[u64]| -> Vec<u64> {
            let map: IdMap<u64, ()> = keys.iter().map(|k| (*k, ())).collect();
            map.into_keys().collect()
        };
        let keys: Vec<u64> = (0..200).map(|i| i * 37 + 5).collect();
        assert_eq!(order(&keys), order(&keys));
    }
}
