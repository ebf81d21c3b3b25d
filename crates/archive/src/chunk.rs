//! Content-defined chunking (CDC) for the dedup store.
//!
//! Splits a byte stream into variable-size chunks whose boundaries are
//! decided by a Gear rolling hash over the content itself, so that an
//! insertion or edit near the front of a stream shifts at most the
//! chunks around the edit — the rest keep their digests and dedup
//! against previously stored copies. This is the mechanism behind the
//! storage model of DESIGN.md §10: objects are [`ChunkManifest`]s, the
//! store keeps each distinct chunk once, and clients upload only the
//! chunks the store reports missing.
//!
//! Digests are 64-bit FNV-1a over the chunk bytes (see [`crate::fnv`]),
//! the same hash the archive layer already uses for etags and
//! checksums. The chunker is fully deterministic: same input and
//! [`ChunkerParams`] ⇒ same boundaries, digests, and manifest.

use crate::fnv::Fnv1a;
use bytes::Bytes;

/// Per-byte mixing table for the Gear rolling hash, generated at
/// compile time from splitmix64 so the table is deterministic and
/// carries no external data.
const GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = splitmix64(0x5261_6953_746f_7265 ^ i as u64); // "RaiStore"
        i += 1;
    }
    table
};

const fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Boundary-selection parameters for the chunker.
///
/// `avg` must be a power of two; the boundary test fires when the low
/// `log2(avg)` bits of a mixed window of the rolling hash are zero, so
/// chunk sizes are roughly geometric with mean `avg` (clamped to
/// `[min, max]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkerParams {
    /// No boundary before this many bytes.
    pub min: usize,
    /// Target mean chunk size (power of two).
    pub avg: usize,
    /// Forced boundary at this many bytes.
    pub max: usize,
}

impl ChunkerParams {
    /// The floor of [`ChunkerParams::for_len`]: what every payload
    /// under 4 KiB chunks with. RAI project containers are ~1 KiB and
    /// resubmissions differ in a few short embedded values (the perf
    /// directive in `main.cu`, the profiler's `span_ms` line, entry
    /// checksums), so chunks this small quarantine each
    /// ~tens-of-bytes edit while the rest of the container keeps its
    /// digests; the 12-byte-per-chunk manifest overhead that costs on
    /// the wire is far smaller than re-shipping whole archives.
    pub const DEFAULT: ChunkerParams = ChunkerParams {
        min: 16,
        avg: 32,
        max: 256,
    };

    /// The parameters a payload of `len` bytes is chunked with: `avg`
    /// is the largest power of two ≤ √`len`, never below
    /// [`ChunkerParams::DEFAULT`]'s 32, with `min = avg / 2` and
    /// `max = 8 · avg` (`DEFAULT`'s proportions).
    ///
    /// A resubmission with *k* local edits costs ≈ `12 · len / avg`
    /// manifest bytes plus ≈ `1.5 · k · avg` re-shipped chunk bytes,
    /// least at `avg = √(8 · len / k)`; *k* ≈ 8 makes that √`len`,
    /// which is `DEFAULT` at the ~1 KiB containers it was tuned on and
    /// avg 1 024 (≈1 700 chunks instead of ≈55 000) at the paper's
    /// 2.5 MiB mean upload. Both ends of the delta protocol derive the
    /// parameters from the payload length alone, so they agree without
    /// negotiating. The price: `avg` doubles each time `len` crosses a
    /// power of four (4 KiB, 16 KiB, … 1 MiB, 4 MiB), and a payload
    /// that grows or shrinks across one re-chunks: most of it crosses
    /// the wire once more before deduplicating again (DESIGN.md §10).
    ///
    /// `avg` stops at 2²⁸ so that `max` fits [`ChunkRef::len`].
    pub fn for_len(len: usize) -> ChunkerParams {
        let avg = 1usize << (len.max(1).ilog2() / 2).clamp(5, 28);
        ChunkerParams {
            min: avg / 2,
            avg,
            max: 8 * avg,
        }
    }

    fn mask(&self) -> u64 {
        debug_assert!(self.avg.is_power_of_two(), "avg must be a power of two");
        debug_assert!(self.min >= 1 && self.min <= self.avg && self.avg <= self.max);
        (self.avg as u64) - 1
    }
}

/// Reference to one chunk inside a manifest: content digest plus
/// length. The digest is the chunk's identity in the store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkRef {
    /// FNV-1a digest of the chunk bytes.
    pub digest: u64,
    /// Chunk length in bytes.
    pub len: u32,
}

/// One materialized chunk: digest plus the bytes themselves.
#[derive(Clone, Debug, PartialEq)]
pub struct Chunk {
    /// FNV-1a digest of `data`.
    pub digest: u64,
    /// The chunk bytes.
    pub data: Bytes,
}

/// An object described as an ordered list of chunk references.
///
/// Reassembling the referenced chunks in order yields the original
/// byte stream; `etag` is the FNV-1a etag of that whole stream (the
/// same value [`crate::fnv::etag`] returns for the concatenation), so a
/// manifest-stored object keeps the etag a plain whole-object store
/// would have produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkManifest {
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
    /// Total payload length (sum of all chunk lengths).
    pub total_len: u64,
    /// FNV-1a etag of the whole payload.
    pub etag: String,
}

impl ChunkManifest {
    /// Digests of every referenced chunk, in stream order (may contain
    /// duplicates if the payload repeats a chunk).
    pub fn digests(&self) -> Vec<u64> {
        self.chunks.iter().map(|c| c.digest).collect()
    }

    /// Modeled wire size of the manifest itself in a delta upload.
    pub fn encoded_len(&self) -> u64 {
        Self::encoded_len_of(self.chunks.len())
    }

    /// Modeled wire size of a manifest of `chunks` references: a
    /// 16-byte header (total length + etag) plus 12 bytes per chunk
    /// reference (8-byte digest + 4-byte length).
    pub fn encoded_len_of(chunks: usize) -> u64 {
        16 + 12 * chunks as u64
    }
}

/// Split `data` into content-defined chunks and build its manifest.
///
/// Deterministic: equal `(data, params)` always produces equal output.
/// Empty input yields an empty manifest (zero chunks) whose etag is
/// the FNV-1a etag of the empty string. Copies `data` once into a
/// shared buffer and chunks that ([`chunk_shared`]).
pub fn chunk_bytes(data: &[u8], params: ChunkerParams) -> (ChunkManifest, Vec<Chunk>) {
    chunk_shared(&Bytes::copy_from_slice(data), params)
}

/// [`chunk_bytes`] over a shared buffer: the chunk bodies are views of
/// `data` — no per-chunk allocation, no bytes copied — and each keeps
/// `data`'s whole buffer alive.
///
/// One pass over the payload: the streaming cutter the container writer
/// chunks with, fed the payload once, with the stream etag as the chain
/// riding along.
pub fn chunk_shared(data: &Bytes, params: ChunkerParams) -> (ChunkManifest, Vec<Chunk>) {
    let mut cutter = Cutter::new(params, data.len());
    let mut etag = [Fnv1a::new()];
    cutter.feed(data, &mut etag);
    cutter.finish(data, etag[0].digest())
}

/// The content-defined chunker as a stream consumer: fed a payload in
/// pieces of any size, it makes exactly the cuts [`chunk_shared`] makes
/// on their concatenation, because everything a cut depends on — the
/// Gear hash, the chunk digest and the length of the open chunk —
/// carries over from one piece to the next.
///
/// [`Cutter::feed`] folds every byte into a caller's FNV-1a chains on
/// the way, so a producer that writes the payload (the container
/// writer) chunks it in the loop that writes it. The Gear hash, the
/// chunk digest and the caller's chains are independent dependency
/// chains advanced byte by byte in one loop (see
/// [`crate::fnv::update_all`] for why that costs about what the slowest
/// of them does alone).
pub(crate) struct Cutter {
    params: ChunkerParams,
    mask: u64,
    /// Gear rolling hash of the open chunk.
    hash: u64,
    /// FNV-1a digest of the open chunk.
    digest: Fnv1a,
    /// Bytes in the open chunk.
    len: usize,
    refs: Vec<ChunkRef>,
}

impl Cutter {
    /// A cutter for a payload of about `total_len` bytes.
    pub(crate) fn new(params: ChunkerParams, total_len: usize) -> Self {
        Cutter {
            params,
            mask: params.mask(),
            hash: 0,
            digest: Fnv1a::new(),
            len: 0,
            // Chunks average about `min + avg` bytes, so one reference
            // per `avg` bytes is room to spare: a KiB container's cuts
            // take one allocation. Past 256 the list grows as it is cut
            // instead — reserving a bulk payload's whole list up front
            // cost more in fresh pages than the doublings it saves.
            refs: Vec::with_capacity((total_len / params.avg + 1).min(256)),
        }
    }

    /// Fold the next piece of the payload into the open chunk, cutting
    /// where the content says to, and fold each byte into every one of
    /// `chains` too.
    ///
    /// The chains arrive as an array, not as a closure over `&mut`
    /// chains: a closure's captures are memory the loop must store to
    /// on every byte, lest they alias, while an array copied into a
    /// local lives in registers and is written back once per call.
    #[inline(always)]
    pub(crate) fn feed<const N: usize>(&mut self, mut bytes: &[u8], chains: &mut [Fnv1a; N]) {
        let (ChunkerParams { min, max, .. }, mask) = (self.params, self.mask);
        // The state lives in locals for the loop — the cut list too,
        // which keeps its length out of memory between cuts.
        let (mut hash, mut digest, mut len) = (self.hash, self.digest, self.len);
        let mut held = *chains;
        let mut refs = std::mem::take(&mut self.refs);
        while !bytes.is_empty() {
            // The first boundary test fires at len == min, i.e. after
            // the chunk's min-th byte folds in — so the first min-1
            // bytes only accumulate the hash, no cut test. Splitting the
            // loop this way skips roughly half the boundary tests at the
            // default min=16/avg=32 without moving a single boundary.
            let (quiet, rest) = bytes.split_at((min - 1).saturating_sub(len).min(bytes.len()));
            for &b in quiet {
                hash = (hash << 1).wrapping_add(GEAR[b as usize]);
                digest.push(b);
                for chain in &mut held {
                    chain.push(b);
                }
            }
            len += quiet.len();
            let window = &rest[..(max - len).min(rest.len())];
            let mut taken = window.len();
            let mut cut = len + taken == max;
            for (i, &b) in window.iter().enumerate() {
                hash = (hash << 1).wrapping_add(GEAR[b as usize]);
                digest.push(b);
                for chain in &mut held {
                    chain.push(b);
                }
                // Test a mixed window of the hash rather than its raw
                // low bits: the shift-accumulate form leaves the low bits
                // dominated by the most recent table entries, so fold
                // the high half in.
                if (hash ^ (hash >> 32)) & mask == 0 {
                    (taken, cut) = (i + 1, true);
                    break;
                }
            }
            len += taken;
            bytes = &rest[taken..];
            if cut {
                refs.push(ChunkRef { digest: digest.digest(), len: narrow(len) });
                (hash, digest, len) = (0, Fnv1a::new(), 0);
            }
        }
        (self.hash, self.digest, self.len, self.refs) = (hash, digest, len, refs);
        *chains = held;
    }

    /// Close the open chunk and return the manifest of `payload` — the
    /// bytes this cutter was fed, whose etag is `etag` — with its chunk
    /// bodies as views of it.
    pub(crate) fn finish(mut self, payload: &Bytes, etag: u64) -> (ChunkManifest, Vec<Chunk>) {
        if self.len > 0 {
            self.refs.push(ChunkRef { digest: self.digest.digest(), len: narrow(self.len) });
        }
        let chunks = chunk_views(payload, self.refs.iter().map(|r| (r.digest, r.len as usize)));
        let manifest = ChunkManifest {
            chunks: self.refs,
            total_len: payload.len() as u64,
            etag: crate::fnv::etag_of(etag),
        };
        debug_assert_eq!(
            manifest.chunks.iter().map(|r| u64::from(r.len)).sum::<u64>(),
            manifest.total_len,
            "the cutter was fed exactly the payload"
        );
        (manifest, chunks)
    }
}

/// A chunk length as [`ChunkRef::len`] holds it.
fn narrow(len: usize) -> u32 {
    u32::try_from(len).expect("ChunkerParams::max fits ChunkRef::len")
}

/// Cut the front of `buffer` into consecutive chunks, one per
/// `(digest, len)` of `parts`, each a view of `buffer`. Panics if the
/// lengths add up to more than `buffer` holds.
pub fn chunk_views(buffer: &Bytes, parts: impl IntoIterator<Item = (u64, usize)>) -> Vec<Chunk> {
    let mut at = 0usize;
    parts
        .into_iter()
        .map(|(digest, len)| {
            let data = buffer.slice(at..at + len);
            at += len;
            Chunk { digest, data }
        })
        .collect()
}

/// Reassemble a payload from its manifest and a chunk lookup.
///
/// `lookup` maps a digest to that chunk's bytes — owned or borrowed,
/// so a store can lend its resident copy instead of cloning a handle
/// per chunk; returns `None` if any referenced chunk is missing or a
/// length disagrees with the manifest.
pub fn assemble<B: AsRef<[u8]>>(
    manifest: &ChunkManifest,
    lookup: impl FnMut(u64) -> Option<B>,
) -> Option<Vec<u8>> {
    assemble_refs(manifest.chunks.iter().copied(), manifest.total_len, lookup)
}

/// [`assemble`] from the references alone, however their holder keeps
/// them: `refs` in stream order, `total_len` the payload length they
/// must add up to.
pub fn assemble_refs<B: AsRef<[u8]>>(
    refs: impl IntoIterator<Item = ChunkRef>,
    total_len: u64,
    mut lookup: impl FnMut(u64) -> Option<B>,
) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(total_len as usize);
    for r in refs {
        let data = lookup(r.digest)?;
        let data = data.as_ref();
        if data.len() as u64 != u64::from(r.len) {
            return None;
        }
        out.extend_from_slice(data);
    }
    if out.len() as u64 != total_len {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv;
    use proptest::prelude::*;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        // Simple deterministic byte stream with enough entropy to
        // exercise content-defined boundaries.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn empty_input_yields_empty_manifest() {
        let (m, chunks) = chunk_bytes(b"", ChunkerParams::DEFAULT);
        assert!(m.chunks.is_empty());
        assert!(chunks.is_empty());
        assert_eq!(m.total_len, 0);
        assert_eq!(m.etag, fnv::etag(b""));
    }

    #[test]
    fn for_len_is_default_below_4_kib_then_tracks_the_square_root() {
        for len in 0..4096 {
            assert_eq!(ChunkerParams::for_len(len), ChunkerParams::DEFAULT, "len={len}");
        }
        // Exhaustively past 4^10: `avg` is the power of two with
        // avg² ≤ len < (2·avg)², in DEFAULT's proportions.
        for len in 4096..=(1 << 20) + 1 {
            let p = ChunkerParams::for_len(len);
            assert!(p.avg.is_power_of_two());
            assert!(p.avg * p.avg <= len && len < 4 * p.avg * p.avg, "len={len} avg={}", p.avg);
            assert_eq!((p.min, p.max), (p.avg / 2, 8 * p.avg));
        }
        // `avg` doubles at each power of four and nowhere else, up to
        // the clamp that keeps `max` inside `ChunkRef::len`.
        let mut avg = ChunkerParams::DEFAULT.avg;
        for k in 6..usize::BITS / 2 {
            let edge = 1usize << (2 * k);
            assert_eq!(ChunkerParams::for_len(edge - 1).avg, avg, "below 4^{k}");
            avg = (2 * avg).min(1 << 28);
            for len in [edge, edge + 1, 2 * edge, 4 * (edge - 1) + 3] {
                assert_eq!(ChunkerParams::for_len(len).avg, avg, "len={len}, from 4^{k}");
            }
        }
        let top = ChunkerParams::for_len(usize::MAX);
        assert_eq!(top.avg, avg);
        assert!(top.min <= top.avg && top.avg <= top.max && top.max <= u32::MAX as usize);
    }

    #[test]
    fn reassembly_matches_input() {
        let data = sample(20_000, 7);
        let (m, chunks) = chunk_bytes(&data, ChunkerParams::DEFAULT);
        let map: std::collections::BTreeMap<u64, Bytes> =
            chunks.iter().map(|c| (c.digest, c.data.clone())).collect();
        let back = assemble(&m, |d| map.get(&d).cloned()).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.etag, fnv::etag(&data));
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let data = sample(50_000, 11);
        let p = ChunkerParams::DEFAULT;
        let (m, _) = chunk_bytes(&data, p);
        assert!(m.chunks.len() > 1, "expected multiple chunks");
        for (i, c) in m.chunks.iter().enumerate() {
            assert!(c.len as usize <= p.max, "chunk {i} over max");
            if i + 1 < m.chunks.len() {
                assert!(c.len as usize >= p.min, "non-final chunk {i} under min");
            }
        }
    }

    #[test]
    fn same_input_same_manifest() {
        let data = sample(10_000, 3);
        let (a, _) = chunk_bytes(&data, ChunkerParams::DEFAULT);
        let (b, _) = chunk_bytes(&data, ChunkerParams::DEFAULT);
        assert_eq!(a, b);
    }

    #[test]
    fn local_edit_preserves_most_chunks() {
        let base = sample(30_000, 21);
        let mut edited = base.clone();
        edited[15_000] ^= 0xA5;
        let (a, _) = chunk_bytes(&base, ChunkerParams::DEFAULT);
        let (b, _) = chunk_bytes(&edited, ChunkerParams::DEFAULT);
        let before: std::collections::BTreeSet<u64> = a.digests().into_iter().collect();
        let changed = b
            .digests()
            .into_iter()
            .filter(|d| !before.contains(d))
            .count();
        // One flipped byte must not churn more than a handful of
        // chunks: the byte's hash contribution is shifted out after 64
        // positions, so with ~32-byte mean chunks the blast radius is
        // the edited chunk plus a few neighbors — never the tail of
        // the stream.
        assert!(changed <= 8, "edit churned {changed} chunks");
        assert!(
            changed < b.chunks.len() / 10,
            "edit churned {changed} of {} chunks",
            b.chunks.len()
        );
    }

    #[test]
    fn assemble_rejects_missing_or_short_chunks() {
        let data = sample(5_000, 9);
        let (m, chunks) = chunk_bytes(&data, ChunkerParams::DEFAULT);
        assert_eq!(assemble(&m, |_| None::<Bytes>), None);
        let truncated = Bytes::copy_from_slice(&chunks[0].data[..1]);
        assert_eq!(assemble(&m, |_| Some(truncated.clone())), None);
    }

    #[test]
    fn chunk_bodies_are_views_of_one_buffer() {
        let data = Bytes::from(sample(20_000, 17));
        let (_, chunks) = chunk_shared(&data, ChunkerParams::DEFAULT);
        let mut at = data.as_ptr();
        for c in &chunks {
            assert_eq!(c.data.as_ptr(), at, "chunk body is not a view of the payload");
            at = at.wrapping_add(c.data.len());
        }
        assert_eq!(at, data.as_ptr_range().end);
    }

    /// The chunker as its definition reads, one pass per concern: a
    /// boundary after the first byte at length >= min whose mixed
    /// Gear hash clears the mask, or at max; then a digest per chunk
    /// and an etag over the stream.
    fn reference(data: &[u8], p: ChunkerParams) -> (ChunkManifest, Vec<Chunk>) {
        let mut refs = Vec::new();
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let mut hash = 0u64;
            let mut len = 0;
            for &b in &data[start..] {
                hash = (hash << 1).wrapping_add(GEAR[b as usize]);
                len += 1;
                let boundary = (hash ^ (hash >> 32)) & (p.avg as u64 - 1) == 0;
                if (len >= p.min && boundary) || len == p.max {
                    break;
                }
            }
            let body = &data[start..start + len];
            let digest = fnv::hash(body);
            refs.push(ChunkRef { digest, len: len as u32 });
            chunks.push(Chunk { digest, data: Bytes::copy_from_slice(body) });
            start += len;
        }
        let manifest = ChunkManifest {
            chunks: refs,
            total_len: data.len() as u64,
            etag: fnv::etag(data),
        };
        (manifest, chunks)
    }

    /// Arbitrary small parameters, or the ones [`ChunkerParams::for_len`]
    /// selects on either side of a flip (4^5 is below the floor).
    fn arb_params() -> impl Strategy<Value = ChunkerParams> {
        prop_oneof![
            (2u32..7, 1usize..=64, 1usize..=4).prop_map(|(exp, min, mul)| {
                let avg = 1usize << exp;
                ChunkerParams { min: min.min(avg), avg, max: avg * mul }
            }),
            (5u32..=8, 0usize..=2)
                .prop_map(|(k, d)| ChunkerParams::for_len((1usize << (2 * k)) - 1 + d)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_chunker_equals_reference(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            // Low-entropy streams repeat chunks and run to `max`.
            alphabet in 1u8..=255,
            params in arb_params(),
        ) {
            let data: Vec<u8> = data.into_iter().map(|b| b % alphabet).collect();
            // Whole input, plus prefixes straddling one and two chunks'
            // worth of `min` and `max`, plus the empty input.
            let mut lens = vec![data.len(), 0];
            for edge in [params.min, params.max, 2 * params.max] {
                lens.extend([edge - 1, edge, edge + 1]);
            }
            for len in lens {
                let prefix = &data[..len.min(data.len())];
                prop_assert_eq!(chunk_bytes(prefix, params), reference(prefix, params));
            }
        }

        #[test]
        fn cutter_fed_in_pieces_cuts_as_if_fed_once(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            alphabet in 1u8..=255,
            params in arb_params(),
            cuts in prop::collection::vec(any::<u16>(), 0..12),
            lead in prop::collection::vec(any::<u8>(), 0..16),
        ) {
            let data: Vec<u8> = data.into_iter().map(|b| b % alphabet).collect();
            // Pieces of any size, empty ones included, wherever they
            // fall against the chunk boundaries.
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.extend([0, data.len()]);
            cuts.sort_unstable();
            let payload = Bytes::from(data);
            let want = reference(&payload, params);
            check_pieces::<0>(&payload, params, &cuts, &lead, &want)?;
            check_pieces::<1>(&payload, params, &cuts, &lead, &want)?;
            check_pieces::<2>(&payload, params, &cuts, &lead, &want)?;
            check_pieces::<3>(&payload, params, &cuts, &lead, &want)?;
        }
    }

    /// Feed `payload` to a cutter in the pieces `cuts` marks, riding
    /// `N` chains that start from different states — chain `i` has
    /// folded the first `lead.len() >> i` bytes of `lead` — and check
    /// each chain against one hash of its prefix plus the payload, and
    /// the cuts against the reference chunker's.
    fn check_pieces<const N: usize>(
        payload: &Bytes,
        params: ChunkerParams,
        cuts: &[usize],
        lead: &[u8],
        want: &(ChunkManifest, Vec<Chunk>),
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let prefix = |i: usize| &lead[..lead.len() >> i];
        let mut chains: [Fnv1a; N] = std::array::from_fn(|i| *Fnv1a::new().update(prefix(i)));
        let mut cutter = Cutter::new(params, 0);
        for piece in cuts.windows(2) {
            cutter.feed(&payload[piece[0]..piece[1]], &mut chains);
        }
        for (i, chain) in chains.iter().enumerate() {
            let whole = [prefix(i), &payload[..]].concat();
            prop_assert_eq!(chain.digest(), fnv::hash(&whole), "chain {} of {}", i, N);
        }
        let fed = cutter.finish(payload, fnv::hash(payload));
        prop_assert_eq!(&fed, want, "{} chains", N);
        Ok(())
    }
}
