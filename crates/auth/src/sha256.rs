//! SHA-256 (FIPS 180-4), implemented from scratch — the offline crate
//! set has no hashing crate, and request signing needs a real MAC
//! construction rather than the FNV checksums used for integrity.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }
}

impl Sha256 {
    /// Fresh hasher on the fastest kernel this CPU runs.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
            kernel,
        }
    }

    /// Fold in bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                self.kernel.compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.kernel.compress(&mut self.state, block.try_into().expect("len 64"));
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
        self
    }

    /// Finish and produce the 32-byte digest.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length_bits;
        // Padding: 0x80, zeros up to byte 56 of a block (the next one
        // if this one is past 55), 8-byte big-endian bit length.
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_end = if self.buffered < 56 { 56 } else { 120 };
        self.update(&pad[..pad_end - self.buffered]);
        // Write the length directly (bypassing update's length tracking).
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which compression a hasher runs, chosen once per hasher from what
/// the CPU reports. Every kernel computes the same function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`compress_scalar`]: every CPU.
    Scalar,
    /// [`sha_ni::compress`]. Constructed only by [`Kernel::detect`],
    /// after the CPU reported every feature the kernel is compiled for.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }

    /// One block into `state`.
    #[inline]
    fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        match self {
            Kernel::Scalar => compress_scalar(state, block),
            // SAFETY: `ShaNi` is only constructed by `Kernel::detect`,
            // after `is_x86_feature_detected!` reported `sha`, `ssse3`
            // and `sse4.1`, the features `sha_ni::compress` enables.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Kernel::ShaNi => unsafe { sha_ni::compress(state, block) },
        }
    }
}

/// One block into the state. The schedule is a rolling 16 words
/// (word `i` in slot `i % 16`, written over the word 16 back), and
/// the rounds run eight to a macro that renames the working
/// variables instead of moving them.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("len 4"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // Round `i` of the eight that rotate through `a..h`: the new `a`
    // lands in `h`'s name and the new `e` in `d`'s.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add($g ^ ($e & ($f ^ $g)))
                .wrapping_add(K[$i])
                .wrapping_add(w[$i % 16]);
            $d = $d.wrapping_add(t1);
            $h = t1
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) | ($c & ($a | $b)));
        };
    }
    for i in (0..64).step_by(8) {
        if i >= 16 {
            for j in i..i + 8 {
                let (w15, w2) = (w[(j + 1) % 16], w[(j + 14) % 16]);
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[j % 16] = w[j % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) % 16])
                    .wrapping_add(s1);
            }
        }
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression on the x86 SHA extensions. The state is held as
/// two vectors, `ABEF` and `CDGH` (highest lane first), the layout
/// `sha256rnds2` reads; each `sha256rnds2` runs two rounds, so four
/// message words plus their `K` words feed two of them.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let (abef_in, cdgh_in) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        let word = |j: usize| i32::from_be_bytes(block[4 * j..4 * j + 4].try_into().expect("len 4"));
        // Slot `i` holds words 4i..4i+4, lowest lane first.
        let mut w: [__m128i; 4] = std::array::from_fn(|i| {
            _mm_set_epi32(word(4 * i + 3), word(4 * i + 2), word(4 * i + 1), word(4 * i))
        });
        for i in 0..16 {
            if i >= 4 {
                // Words 4i..4i+4 into the slot of the four 16 back,
                // from the 16 words before them: σ0 of the oldest four
                // and the words 16 and 7 back by `msg1` and `alignr`,
                // σ1 of the newest four by `msg2`.
                let (oldest, newest) = (w[i % 4], w[(i + 3) % 4]);
                let sum = _mm_add_epi32(
                    _mm_sha256msg1_epu32(oldest, w[(i + 1) % 4]),
                    _mm_alignr_epi8(newest, w[(i + 2) % 4], 4),
                );
                w[i % 4] = _mm_sha256msg2_epu32(sum, newest);
            }
            let k = _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            );
            // Two rounds on the low two words of `wk`, two on the high.
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256.
pub(crate) fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digest rendered as lowercase hex: one pre-sized `String` filled
/// from a nibble table (a signature renders three digests).
pub(crate) fn hex(digest: &[u8]) -> String {
    let mut out = String::with_capacity(digest.len() * 2);
    push_hex(&mut out, digest);
    out
}

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Append `digest` to `out` as lowercase hex.
pub(crate) fn push_hex(out: &mut String, digest: &[u8]) {
    for b in digest {
        out.push(NIBBLES[usize::from(b >> 4)] as char);
        out.push(NIBBLES[usize::from(b & 0xf)] as char);
    }
}

/// A SHA-256 digest's lowercase hex, on the stack.
pub(crate) fn hex_digits(digest: &[u8; 32]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (pair, b) in out.chunks_exact_mut(2).zip(digest) {
        pair[0] = NIBBLES[usize::from(b >> 4)];
        pair[1] = NIBBLES[usize::from(b & 0xf)];
    }
    out
}

/// `compress` as it was before it rolled its schedule and unrolled its
/// rounds: the 64-word schedule up front, one round per iteration.
#[cfg(test)]
fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("len 4"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every kernel this CPU runs: the scalar one, and the detected one
    /// if that is another.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Scalar];
        if Kernel::detect() != Kernel::Scalar {
            kernels.push(Kernel::detect());
        }
        kernels
    }

    /// One-shot SHA-256 on `kernel`.
    fn sha256_on(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn unrolled_compress_equals_the_reference(
            state in prop::collection::vec(any::<u32>(), 8),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut dispatched = state;
            Kernel::detect().compress(&mut dispatched, &block);
            let mut reference = state;
            compress_reference(&mut reference, &block);
            prop_assert_eq!(dispatched, reference);
        }

        #[test]
        fn every_kernel_equals_the_reference(
            state in prop::collection::vec(any::<u32>(), 8),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut reference = state;
            compress_reference(&mut reference, &block);
            for kernel in kernels() {
                let mut out = state;
                kernel.compress(&mut out, &block);
                prop_assert_eq!(out, reference, "{:?}", kernel);
            }
        }
    }

    #[test]
    fn fips_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (data, digest) in vectors {
            assert_eq!(hex(&sha256(data)), digest);
            for kernel in kernels() {
                assert_eq!(hex(&sha256_on(kernel, data)), digest, "{kernel:?}");
            }
        }
    }

    #[test]
    fn hex_matches_format_for_every_byte() {
        for b in 0..=255u8 {
            assert_eq!(hex(&[b]), format!("{b:02x}"));
        }
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), expected);
        assert_eq!(hex(&[]), "");
    }

    #[test]
    fn one_shot_padding_matches_byte_at_a_time_at_every_length() {
        // 55/56, 63/64 and 119/120 are where the pad changes length or
        // spills into a second block.
        let data: Vec<u8> = (0..=130u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..=130 {
            let one_shot = sha256(&data[..len]);
            for kernel in kernels() {
                let mut h = Sha256::with_kernel(kernel);
                for b in &data[..len] {
                    h.update(std::slice::from_ref(b));
                }
                assert_eq!(h.finalize(), one_shot, "length {len}, {kernel:?}");
                assert_eq!(sha256_on(kernel, &data[..len]), one_shot, "length {len}, {kernel:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        for kernel in kernels() {
            let mut h = Sha256::with_kernel(kernel);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = sha256(&data);
        for split in [1, 55, 56, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }
}
