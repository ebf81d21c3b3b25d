//! FNV-1a 64-bit hashing, used for archive checksums and object-store
//! ETags. Not cryptographic — integrity against accidental corruption,
//! exactly what tar-style checksums provide.

/// FNV-1a 64-bit offset basis.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hasher starting from `basis` instead of [`OFFSET_BASIS`] — a
    /// keyed chain when `basis` mixes in a secret.
    pub fn with_basis(basis: u64) -> Self {
        Fnv1a(basis)
    }

    /// Fold bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        update_all(std::array::from_mut(self), bytes);
        self
    }

    /// Fold one byte into the state: the step every multi-chain loop
    /// is built from (see `update_all`).
    #[inline(always)]
    pub fn push(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(PRIME);
    }

    /// Current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Fold `bytes` into each of `chains` in one pass: exactly
/// `update(bytes)` on every chain, at close to the cost of one.
///
/// An FNV-1a chain is bound by the latency of its multiply, each step
/// waiting on the last, so more chains over the same bytes fill
/// pipeline slots the first leaves idle. The chains are copied into
/// locals for the loop and written back once, so none of them is stored
/// to memory per byte. The container codec folds an entry checksum and
/// the trailer this way.
pub(crate) fn update_all<const N: usize>(chains: &mut [Fnv1a; N], bytes: &[u8]) {
    let mut held = *chains;
    for &byte in bytes {
        for chain in &mut held {
            chain.push(byte);
        }
    }
    *chains = held;
}

/// [`hash`] of every part, handing each tagged digest to `done`: four
/// lanes run at once, each hashing its own part, and a lane that runs
/// out hands its digest over and takes the next part. Fewer than four
/// parts hash one after another.
///
/// The four chains fold *different* bytes, but that is no obstacle to
/// interleaving them: what bounds a chain is the latency of each step
/// waiting on the last, and steps of independent chains do not wait
/// on each other, whatever bytes they read (`update_all` overlaps
/// chains over the same bytes the same way). The lanes live on the
/// stack; `done` is called once per part, not in part order.
pub fn hash_lanes<'a, T>(
    parts: impl IntoIterator<Item = (T, &'a [u8])>,
    mut done: impl FnMut(T, u64),
) {
    struct Lane<'a, T> {
        tag: T,
        rest: &'a [u8],
        hash: Fnv1a,
    }
    let mut parts = parts.into_iter().fuse();
    let first = [(); 4].map(|_| parts.next());
    let [Some(a), Some(b), Some(c), Some(d)] = first else {
        for (tag, bytes) in first.into_iter().flatten() {
            done(tag, hash(bytes));
        }
        return;
    };
    let mut lanes = [a, b, c, d].map(|(tag, rest)| Lane { tag, rest, hash: Fnv1a::new() });
    'run: loop {
        let step = lanes.iter().map(|l| l.rest.len()).min().unwrap_or(0);
        let [w, x, y, z] = &mut lanes;
        let (mut hw, mut hx, mut hy, mut hz) = (w.hash, x.hash, y.hash, z.hash);
        let (w4, x4, y4, z4) = (&w.rest[..step], &x.rest[..step], &y.rest[..step], &z.rest[..step]);
        for (((&bw, &bx), &by), &bz) in w4.iter().zip(x4).zip(y4).zip(z4) {
            hw.push(bw);
            hx.push(bx);
            hy.push(by);
            hz.push(bz);
        }
        (w.hash, x.hash, y.hash, z.hash) = (hw, hx, hy, hz);
        for lane in &mut lanes {
            lane.rest = &lane.rest[step..];
        }
        for lane in &mut lanes {
            if lane.rest.is_empty() {
                let Some((tag, rest)) = parts.next() else { break 'run };
                let spent = std::mem::replace(lane, Lane { tag, rest, hash: Fnv1a::new() });
                done(spent.tag, spent.hash.digest());
            }
        }
    }
    // The parts ran out: what the lanes hold finishes one by one.
    for mut lane in lanes {
        done(lane.tag, lane.hash.update(lane.rest).digest());
    }
}

/// One-shot hash of a byte slice.
pub fn hash(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).digest()
}

/// Render a digest as the hex "etag" format used by the object store.
pub fn etag(bytes: &[u8]) -> String {
    etag_of(hash(bytes))
}

/// The etag of a payload whose digest is `digest`: its sixteen hex
/// digits.
pub(crate) fn etag_of(digest: u64) -> String {
    crate::digits::hex(digest, 16).as_str().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"hello ").update(b"world");
        assert_eq!(h.digest(), hash(b"hello world"));
    }

    #[test]
    fn two_chain_update_matches_two_updates() {
        let mut chains = [Fnv1a::new(), Fnv1a::new()];
        chains[0].update(b"only a");
        update_all(&mut chains, b"shared ");
        update_all(&mut chains, b"");
        update_all(&mut chains, b"bytes");
        let [a, b] = chains;
        assert_eq!(a.digest(), hash(b"only ashared bytes"));
        assert_eq!(b.digest(), hash(b"shared bytes"));
    }

    #[test]
    fn lanes_hash_every_part_once() {
        let lens = [5, 0, 300, 1, 0, 64, 7, 2, 0];
        let parts: Vec<Vec<u8>> = lens.iter().map(|&n| vec![n as u8; n]).collect();
        for n in 0..=parts.len() {
            let mut got = vec![None; n];
            hash_lanes(parts[..n].iter().enumerate().map(|(i, p)| (i, &p[..])), |i, h| {
                assert!(got[i].replace(h).is_none(), "part {i} reported twice");
            });
            let want: Vec<Option<u64>> = parts[..n].iter().map(|p| Some(hash(p))).collect();
            assert_eq!(got, want, "{n} parts");
        }
    }

    #[test]
    fn etag_is_16_hex_chars() {
        let e = etag(b"data");
        assert_eq!(e.len(), 16);
        assert!(e.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash(b"submission-1"), hash(b"submission-2"));
    }
}
