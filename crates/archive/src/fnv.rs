//! FNV-1a 64-bit hashing, used for archive checksums and object-store
//! ETags. Not cryptographic — integrity against accidental corruption,
//! exactly what tar-style checksums provide.

/// FNV-1a 64-bit offset basis.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
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
        let mut h = *self;
        for &b in bytes {
            h.push(b);
        }
        *self = h;
        self
    }

    /// Fold one byte into the state: the step every multi-chain loop
    /// is built from (see [`update2`]).
    #[inline(always)]
    pub fn push(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(PRIME);
    }

    /// Current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Fold `bytes` into two independent chains in one pass: exactly
/// `a.update(bytes); b.update(bytes)`, at close to the cost of one.
///
/// An FNV-1a chain is bound by the latency of its multiply, each step
/// waiting on the last, so a second chain over the same bytes fills
/// pipeline slots the first leaves idle. The container codec folds an
/// entry checksum and the trailer this way.
pub fn update2(a: &mut Fnv1a, b: &mut Fnv1a, bytes: &[u8]) {
    let (mut x, mut y) = (*a, *b);
    for &byte in bytes {
        x.push(byte);
        y.push(byte);
    }
    (*a, *b) = (x, y);
}

/// One-shot hash of a byte slice.
pub fn hash(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).digest()
}

/// Render a digest as the hex "etag" format used by the object store.
pub fn etag(bytes: &[u8]) -> String {
    format!("{:016x}", hash(bytes))
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
        let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
        a.update(b"only a");
        update2(&mut a, &mut b, b"shared ");
        update2(&mut a, &mut b, b"");
        update2(&mut a, &mut b, b"bytes");
        assert_eq!(a.digest(), hash(b"only ashared bytes"));
        assert_eq!(b.digest(), hash(b"shared bytes"));
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
