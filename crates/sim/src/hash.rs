//! A keyed, strongly universal hash for the integer-keyed tables every
//! job probes: the store's chunk index and admission map, the broker's
//! in-flight tables and the trace store.
//!
//! [`UniversalState`] is Dietzfelbinger's multiply-add-shift family on
//! 64-bit keys: h(x) = ⌊((a·x + b) mod 2¹²⁸) / 2⁶⁴⌋ with `a` and `b`
//! secret 128-bit values. For two distinct keys the pair of hashes is
//! uniform over a random key, so every output bit — the low ones a
//! table buckets by and the top ones it tags by — is as good as any
//! other. It costs two multiplies: ≈ 0.9 ns a key against std's
//! SipHash-1-3 at ≈ 7 ns (`hash_floor`'s last row).
//!
//! **Adversary model.** A key is a secret of the process: each thread
//! seeds a stream from std's `RandomState` once, and every map draws
//! its own `(a, b)` from that stream, with no SipHash run per map.
//! Someone who chooses keys without seeing the key — a student choosing
//! chunk digests — cannot pile them into one probe sequence, and one
//! map iterated into another stays linear, since the two maps hash
//! differently (rust-lang/rust#36481). Someone who can watch a map's
//! timing or order over many inserts could learn about its key; nothing
//! here faces such a client across a network, and a networked front
//! would have to revisit this.
//!
//! String keys keep std's hasher: the family takes 64-bit words, and a
//! string key is more than one.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A hash map with integer keys under [`UniversalState`].
pub type IntMap<K, V> = HashMap<K, V, UniversalState>;

/// A hash set of integers under [`UniversalState`].
pub type IntSet<K> = HashSet<K, UniversalState>;

thread_local! {
    /// This thread's stream of keys: a SplitMix64 counter, seeded once
    /// from std's `RandomState`.
    static STREAM: Cell<u64> = Cell::new(RandomState::new().hash_one(0u64));
}

/// The next 64 bits of this thread's key stream (SplitMix64).
fn draw() -> u64 {
    STREAM.with(|s| {
        let mut z = s.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        s.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// One secretly keyed member of the multiply-add-shift family: the
/// `BuildHasher` of [`IntMap`] and [`IntSet`]. Every value made by
/// `Default` has a key of its own, drawn from this thread's stream.
///
/// The key is kept as 64-bit words, so the state has a word's
/// alignment, as std's `RandomState` has, not a `u128`'s.
#[derive(Clone, Copy)]
pub struct UniversalState {
    a: [u64; 2],
    b: [u64; 2],
}

impl UniversalState {
    /// h(x) = ⌊((a·x + b) mod 2¹²⁸) / 2⁶⁴⌋.
    #[inline]
    fn hash(&self, x: u64) -> u64 {
        let word = |[lo, hi]: [u64; 2]| (u128::from(hi) << 64) | u128::from(lo);
        (word(self.a).wrapping_mul(u128::from(x)).wrapping_add(word(self.b)) >> 64) as u64
    }
}

impl Default for UniversalState {
    fn default() -> Self {
        UniversalState { a: [draw(), draw()], b: [draw(), draw()] }
    }
}

/// Opaque, like std's `RandomState`: the key is a secret.
impl fmt::Debug for UniversalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UniversalState").finish_non_exhaustive()
    }
}

impl BuildHasher for UniversalState {
    type Hasher = UniversalHasher;

    #[inline]
    fn build_hasher(&self) -> UniversalHasher {
        UniversalHasher { key: *self, h: 0 }
    }
}

/// The [`Hasher`] of [`UniversalState`]. A key that writes one integer
/// (`u64`, `usize`, or a newtype deriving `Hash` over one) hashes to
/// exactly h(x); each further word is folded in as h(h ^ word).
pub struct UniversalHasher {
    key: UniversalState,
    h: u64,
}

impl Hasher for UniversalHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.h = self.key.hash(self.h ^ x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Any other write, as little-endian words, the last zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[derive(Hash)]
    struct Id(u64);

    #[test]
    fn one_integer_hashes_to_the_family_member() {
        let s = UniversalState::default();
        for x in [0, 1, 0xFFFF_FFFF, u64::MAX, 0xAB00_0000_000C_0FFE] {
            // The family's definition, with the product split in halves.
            let ([a_lo, a_hi], [b_lo, b_hi]) = (s.a, s.b);
            let low = u128::from(a_lo) * u128::from(x);
            let top = (low >> 64) as u64;
            let carry = (low as u64).overflowing_add(b_lo).1;
            let want = top
                .wrapping_add(a_hi.wrapping_mul(x))
                .wrapping_add(b_hi)
                .wrapping_add(u64::from(carry));
            assert_eq!(s.hash_one(x), want, "u64 {x:#x}");
            assert_eq!(s.hash_one(Id(x)), want, "newtype {x:#x}");
            assert_eq!(s.hash_one(x as usize), want, "usize {x:#x}");
        }
    }

    #[test]
    fn every_map_draws_its_own_key() {
        // Two maps agreeing on a key's hash, or on the distance between
        // two keys' hashes, would let one map's order aim keys at the
        // other (rust-lang/rust#36481) and one crafted family at both.
        // A fixed multiplier keeps the distance to within a carry.
        let (s, t) = (UniversalState::default(), UniversalState::default());
        let [sx, sy] = [s.hash_one(1u64), s.hash_one(2u64)];
        let [tx, ty] = [t.hash_one(1u64), t.hash_one(2u64)];
        assert_ne!(sx, tx, "the maps share b");
        let drift = sx.wrapping_sub(sy).wrapping_sub(tx.wrapping_sub(ty));
        assert!(drift.wrapping_add(1) > 2, "the maps share a (drift {drift})");
        let other = std::thread::spawn(|| UniversalState::default().hash_one(1u64)).join().unwrap();
        assert!(other != sx && other != tx, "another thread drew the same key");
    }

    /// Integer key families aimed at weak integer hashes: identity and
    /// low-bit hashes bucket by the low bits, a 64-bit multiply keeps a
    /// key's trailing zero bits, and std's table tags by the top seven.
    fn adversarial_families() -> Vec<(&'static str, Vec<u64>)> {
        const N: u64 = 4096;
        let mut families = vec![
            ("consecutive", (0..N).collect()),
            ("multiples of 2^32", (0..N).map(|i| i << 32).collect()),
            ("top byte only", (0..256).map(|i| i << 56).collect()),
            // The crafted batch of the store's
            // `crafted_digests_cannot_degrade_the_index`: low 20 bits
            // and top byte agree.
            ("crafted digests", (0..N).map(|i| 0xAB00_0000_000C_0FFE | (i << 20)).collect()),
        ];
        for (name, k) in [("stride 2^12", 12), ("stride 2^24", 24), ("stride 2^44", 44)] {
            let keys = (0..N).map(|i| 0x0123_4567_89AB_CDEF_u64.wrapping_add(i << k));
            families.push((name, keys.collect()));
        }
        families
    }

    /// The fullest bucket of a power-of-two table sized as std sizes it
    /// (⅞ load), bucketed by the low bits, and the longest run of keys,
    /// in the family's order, sharing one 7-bit tag (the top bits).
    fn spread(keys: &[u64], hash: impl Fn(u64) -> u64) -> (usize, usize) {
        let buckets = (keys.len() * 8 / 7).next_power_of_two();
        let mut load = vec![0usize; buckets];
        let (mut run, mut longest, mut last_tag) = (0, 0, None);
        for &k in keys {
            let h = hash(k);
            load[h as usize & (buckets - 1)] += 1;
            let tag = h >> 57;
            run = if last_tag == Some(tag) { run + 1 } else { 1 };
            last_tag = Some(tag);
            longest = longest.max(run);
        }
        (load.into_iter().max().unwrap_or(0), longest)
    }

    #[test]
    fn adversarial_integer_families_spread_as_under_siphash() {
        // The median over nine keys of each hasher. A progression under
        // one multiply-add-shift key walks the table like a Kronecker
        // sequence: usually more evenly than SipHash, but a multiplier
        // near a fraction with a small denominator clusters it, with
        // chance ≈ 2/t² of a bucket of t. The median of nine keys puts
        // that tail out of reach; a hash with no key, or a weak one,
        // fails on every key alike.
        const KEYS: usize = 9;
        let median = |mut v: Vec<usize>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        for (name, keys) in adversarial_families() {
            let (mut ours, mut sip) = (Vec::new(), Vec::new());
            for _ in 0..KEYS {
                let u = UniversalState::default();
                ours.push(spread(&keys, |k| u.hash_one(k)));
                let r = RandomState::new();
                sip.push(spread(&keys, |k| r.hash_one(k)));
            }
            let bucket = median(ours.iter().map(|s| s.0).collect());
            let run = median(ours.iter().map(|s| s.1).collect());
            let sip_bucket = median(sip.iter().map(|s| s.0).collect());
            let sip_run = median(sip.iter().map(|s| s.1).collect());
            assert!(
                bucket <= 2 * sip_bucket + 2,
                "{name}: fullest bucket {bucket}, SipHash {sip_bucket}"
            );
            assert!(run <= sip_run + 3, "{name}: longest tag run {run}, SipHash {sip_run}");
        }
    }
}
