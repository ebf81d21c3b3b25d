//! Property tests for the archive substrate: container and chunker
//! round-trips over arbitrary data, corruption detection, and the
//! one-pass producers against the two-pass programs they replace.

use crate::fnv::{self, Fnv1a};
use crate::tree::normalize;
use crate::{
    chunk_shared, container_len, restore, write_container, write_container_chunked, ArchiveError,
    Bytes, ChunkerParams, FileTree,
};
use proptest::prelude::*;

fn arb_tree() -> impl Strategy<Value = FileTree> {
    let path = proptest::string::string_regex("[a-z][a-z0-9_.]{0,8}(/[a-z][a-z0-9_.]{0,8}){0,3}")
        .expect("valid regex");
    let data = prop::collection::vec(any::<u8>(), 0..512);
    prop::collection::vec((path, data), 0..12).prop_map(|files| {
        let mut t = FileTree::new();
        for (p, d) in files {
            // Duplicates simply overwrite — fine for generation.
            t.insert(&p, d).expect("generated path is valid");
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn container_round_trips(tree in arb_tree()) {
        prop_assert_eq!(restore(&write_container(&tree)).unwrap(), tree);
    }

    #[test]
    fn container_detects_single_bit_corruption(
        tree in arb_tree(),
        flip_seed in any::<u64>(),
    ) {
        let mut corrupted = write_container(&tree);
        let pos = (flip_seed as usize) % corrupted.len();
        corrupted[pos] ^= 1u8 << (flip_seed % 8);
        // Either the flip is detected, or (never) silently accepted as a
        // *different* tree. Equal output is allowed only if the bytes are
        // equal, which they are not.
        match restore(&corrupted) {
            Err(_) => {}
            Ok(t) => prop_assert_eq!(t, tree, "corruption silently changed content"),
        }
    }

    #[test]
    fn restore_never_panics(
        mut garbage in prop::collection::vec(any::<u8>(), 0..2048),
        fix_trailer in any::<bool>(),
    ) {
        if fix_trailer && garbage.len() >= 8 {
            // A trailer that vouches for the garbage, so the parse runs.
            let body = garbage.len() - 8;
            let trailer = fnv::hash(&garbage[..body]).to_le_bytes();
            garbage[body..].copy_from_slice(&trailer);
        }
        let _ = restore(&garbage);
    }
}

fn arb_chunker_params() -> impl Strategy<Value = crate::ChunkerParams> {
    // avg must be a power of two; min and max bracket it.
    (2u32..10, 1usize..=64, 1usize..=8).prop_map(|(exp, min, mul)| {
        let avg = 1usize << exp;
        crate::ChunkerParams {
            min: min.min(avg),
            avg,
            max: avg * mul,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunker_round_trips(
        data in prop::collection::vec(any::<u8>(), 0..8192),
        params in arb_chunker_params(),
    ) {
        let (manifest, chunks) = crate::chunk::chunk_bytes(&data, params);
        let map: std::collections::BTreeMap<_, _> =
            chunks.iter().map(|c| (c.digest, c.data.clone())).collect();
        let back = crate::chunk::assemble(&manifest, |d| map.get(&d).cloned());
        prop_assert_eq!(back.as_deref(), Some(&data[..]));
        prop_assert_eq!(manifest.total_len, data.len() as u64);
        prop_assert_eq!(&manifest.etag, &crate::fnv::etag(&data));
    }

    #[test]
    fn chunker_is_deterministic(
        data in prop::collection::vec(any::<u8>(), 0..8192),
        params in arb_chunker_params(),
    ) {
        let (a, _) = crate::chunk::chunk_bytes(&data, params);
        let (b, _) = crate::chunk::chunk_bytes(&data, params);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn chunker_respects_size_bounds(
        data in prop::collection::vec(any::<u8>(), 0..8192),
        params in arb_chunker_params(),
    ) {
        let (manifest, _) = crate::chunk::chunk_bytes(&data, params);
        let mut total = 0u64;
        for (i, c) in manifest.chunks.iter().enumerate() {
            prop_assert!((c.len as usize) <= params.max, "chunk {} over max", i);
            if i + 1 < manifest.chunks.len() {
                prop_assert!((c.len as usize) >= params.min, "non-final chunk {} under min", i);
            }
            prop_assert!(c.len > 0, "empty chunk {}", i);
            total += c.len as u64;
        }
        prop_assert_eq!(total, manifest.total_len);
    }
}

/// `restore` as two passes over the bytes: the whole-archive
/// checksum first, the entries only once it holds. The fused reader
/// must return exactly this for every input.
fn restore_two_pass(buf: &[u8]) -> Result<FileTree, ArchiveError> {
    fn take<'a>(rest: &mut &'a [u8], n: u64) -> Result<&'a [u8], ArchiveError> {
        if n > rest.len() as u64 {
            return Err(ArchiveError::Truncated);
        }
        let (head, tail) = rest.split_at(n as usize);
        *rest = tail;
        Ok(head)
    }
    fn le(rest: &mut &[u8], width: u64) -> Result<u64, ArchiveError> {
        let mut wide = [0u8; 8];
        wide[..width as usize].copy_from_slice(take(rest, width)?);
        Ok(u64::from_le_bytes(wide))
    }

    if buf.len() < 8 + 4 + 8 {
        return Err(ArchiveError::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - 8);
    if fnv::hash(body).to_le_bytes() != trailer {
        return Err(ArchiveError::ChecksumMismatch { context: "trailer" });
    }
    let mut rest = body;
    if take(&mut rest, 8)? != b"RAIAR1\0\0" {
        return Err(ArchiveError::BadMagic);
    }
    let mut tree = FileTree::new();
    for _ in 0..le(&mut rest, 4)? {
        let path_len = le(&mut rest, 2)?;
        let path_bytes = take(&mut rest, path_len)?;
        let path = std::str::from_utf8(path_bytes).map_err(|_| ArchiveError::BadPath)?;
        if normalize(path).ok().as_deref() != Some(path) {
            return Err(ArchiveError::BadPath);
        }
        match le(&mut rest, 1)? {
            0 => {}
            other => return Err(ArchiveError::BadKind(other as u8)),
        }
        let data_len = le(&mut rest, 8)?;
        let data = take(&mut rest, data_len)?;
        let stored = le(&mut rest, 8)?;
        if Fnv1a::new().update(path_bytes).update(data).digest() != stored {
            return Err(ArchiveError::ChecksumMismatch { context: "entry" });
        }
        if tree.contains(path) {
            return Err(ArchiveError::DuplicatePath(path.to_string()));
        }
        tree.insert(path, data.to_vec()).map_err(|_| ArchiveError::BadPath)?;
    }
    if !rest.is_empty() {
        return Err(ArchiveError::ChecksumMismatch { context: "length" });
    }
    Ok(tree)
}

/// One way of damaging a container, placed by the seeds the test draws.
#[derive(Clone, Copy, Debug)]
enum Damage {
    FlipBit,
    /// Overwrite eight bytes with a length-like extreme.
    Extreme(u64),
    /// Copy the bytes from `at` over the ones before them: duplicates
    /// paths and shifts framing with plausible content.
    Smear,
    Truncate,
    Append,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::FlipBit),
        prop_oneof![Just(0u64), Just(1), Just(u64::MAX), Just(u64::MAX - 7), Just(1 << 32)]
            .prop_map(Damage::Extreme),
        Just(Damage::Smear),
        Just(Damage::Truncate),
        Just(Damage::Append),
    ]
}

/// Fold `data` into `N` chains in the pieces `cuts` marks, chain `i`
/// having folded the first `lead.len() >> i` bytes of `lead` before,
/// and check each against one hash of its prefix plus `data`.
fn update_all_in_pieces<const N: usize>(
    data: &[u8],
    cuts: &[usize],
    lead: &[u8],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let prefix = |i: usize| &lead[..lead.len() >> i];
    let mut chains: [Fnv1a; N] = std::array::from_fn(|i| *Fnv1a::new().update(prefix(i)));
    for piece in cuts.windows(2) {
        fnv::update_all(&mut chains, &data[piece[0]..piece[1]]);
    }
    for (i, chain) in chains.iter().enumerate() {
        let whole = [prefix(i), data].concat();
        prop_assert_eq!(chain.digest(), fnv::hash(&whole), "chain {} of {}", i, N);
    }
    Ok(())
}

/// One piece of a byte string that may or may not be UTF-8: a whole
/// character of one to four bytes, a multi-byte character cut short, a
/// lone continuation byte, an encoding UTF-8 forbids (overlong,
/// surrogate, past U+10FFFF, a byte no encoding uses), or any byte.
fn arb_utf8_piece() -> impl Strategy<Value = Vec<u8>> {
    let encode = |c: u32| char::from_u32(c).unwrap_or('\u{FFFD}').to_string().into_bytes();
    prop_oneof![
        (0u32..0x80).prop_map(encode),
        (0x80u32..0x800).prop_map(encode),
        (0x800u32..0x1_0000).prop_map(encode),
        (0x1_0000u32..=0x10_FFFF).prop_map(encode),
        (0x80u32..=0x10_FFFF, 1usize..4).prop_map(move |(c, keep)| {
            let mut bytes = encode(c);
            bytes.truncate(keep.min(bytes.len() - 1));
            bytes
        }),
        (0x80u8..0xC0).prop_map(|b| vec![b]),
        prop_oneof![
            Just(vec![0xC0, 0x80]),
            Just(vec![0xE0, 0x80, 0x80]),
            Just(vec![0xED, 0xA0, 0x80]),
            Just(vec![0xF4, 0x90, 0x80, 0x80]),
            Just(vec![0xFF]),
        ],
        any::<u8>().prop_map(|b| vec![b]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn two_chain_update_equals_two_updates(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
        lead in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        // The chains start from different states and the input arrives
        // in arbitrary pieces, empty ones included; zero to three chains
        // ride one pass.
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        cuts.extend([0, data.len()]);
        cuts.sort_unstable();
        update_all_in_pieces::<0>(&data, &cuts, &lead)?;
        update_all_in_pieces::<1>(&data, &cuts, &lead)?;
        update_all_in_pieces::<2>(&data, &cuts, &lead)?;
        update_all_in_pieces::<3>(&data, &cuts, &lead)?;
    }

    #[test]
    fn text_equals_lossy_decode(pieces in prop::collection::vec(arb_utf8_piece(), 0..24)) {
        let bytes = pieces.concat();
        let got = crate::text(&bytes);
        prop_assert_eq!(&got, &String::from_utf8_lossy(&bytes));
        let borrowed = matches!(got, std::borrow::Cow::Borrowed(_));
        prop_assert_eq!(borrowed, std::str::from_utf8(&bytes).is_ok(), "borrowed iff valid");
    }

    #[test]
    fn fused_container_read_equals_two_pass_read(
        tree in arb_tree(),
        damage in prop::collection::vec((arb_damage(), any::<u64>()), 0..3),
        fix_trailer in any::<bool>(),
    ) {
        let mut bytes = write_container(&tree);
        for (kind, seed) in damage {
            let at = seed as usize % bytes.len().max(1);
            match kind {
                Damage::FlipBit => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << (seed >> 60 & 7);
                    }
                }
                Damage::Extreme(v) => {
                    let end = bytes.len().min(at + 8);
                    bytes[at..end].copy_from_slice(&v.to_le_bytes()[..end - at]);
                }
                Damage::Smear => {
                    let width = (seed >> 32) as usize % 64;
                    bytes.copy_within(at.., at.saturating_sub(width));
                }
                Damage::Truncate => bytes.truncate(at),
                Damage::Append => bytes.extend_from_slice(&seed.to_le_bytes()),
            }
        }
        if fix_trailer && bytes.len() >= 8 {
            // What any client can do: a damaged body under a trailer
            // that vouches for it, so the structural checks decide.
            let body = bytes.len() - 8;
            let trailer = fnv::hash(&bytes[..body]).to_le_bytes();
            bytes[body..].copy_from_slice(&trailer);
        }
        prop_assert_eq!(restore(&bytes), restore_two_pass(&bytes));
    }
}

/// A file size: empty, small, anywhere up to a few KiB, or on either
/// side of a chunk-size edge — `min`, `max` and `2·max` of the 4 KiB
/// floor's parameters (16 / 256 / 512) and `max` of the next two
/// `for_len` steps.
fn arb_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..64,
        0usize..3000,
        (0usize..5, 0usize..3).prop_map(|(edge, d)| [16, 256, 512, 512, 1024][edge] - 1 + d),
    ]
}

/// `len` bytes drawn from `seed` over the first `alphabet` byte values:
/// an alphabet of one or two repeats chunks and runs cuts to `max`.
fn file_bytes(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8 % alphabet
        })
        .collect()
}

/// Trees of 0..12 files under multi-byte, nested paths whose container
/// lands anywhere, or — padded by one last file — within two bytes of
/// a `for_len` flip (4 096 or 16 384 bytes of container).
fn arb_chunked_tree() -> impl Strategy<Value = FileTree> {
    let path = "[a-zé名][a-z0-9_.é]{0,8}(/[a-z名][a-z0-9_.]{0,8}){0,3}";
    let path = proptest::string::string_regex(path).expect("valid regex");
    let alphabet = prop_oneof![1u8..=2, 1u8..=255];
    let file = (path, arb_size(), alphabet, any::<u64>());
    let target = prop_oneof![
        Just(None),
        (0usize..2, 0usize..5).prop_map(|(flip, d)| Some([4096, 16384][flip] - 2 + d)),
    ];
    (prop::collection::vec(file, 0..12), target).prop_map(|(files, target)| {
        let mut tree = FileTree::new();
        for (path, len, alphabet, seed) in files {
            tree.insert(&path, file_bytes(len, alphabet, seed)).expect("generated path is valid");
        }
        const PAD: &str = "~pad";
        let room = target.and_then(|t: usize| t.checked_sub(container_len(&tree) + 19 + PAD.len()));
        if let Some(len) = room {
            tree.insert(PAD, file_bytes(len, 251, 0)).expect("valid path");
        }
        tree
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_producer_equals_write_then_chunk(tree in arb_chunked_tree()) {
        let (container, manifest, chunks) = write_container_chunked(&tree);
        let two_pass = write_container(&tree);
        prop_assert_eq!(&container[..], &two_pass[..]);
        prop_assert_eq!(container_len(&tree), two_pass.len());
        let params = ChunkerParams::for_len(two_pass.len());
        let (want_manifest, want_chunks) = chunk_shared(&Bytes::from(two_pass), params);
        prop_assert_eq!(&manifest, &want_manifest);
        prop_assert_eq!(&chunks, &want_chunks);
        // Every chunk is a view of the one container buffer, in order.
        let buffer = container.buffer().expect("a shared buffer");
        let mut at = container.as_ptr();
        for c in &chunks {
            prop_assert!(c.data.buffer().expect("a view").ptr_eq(&buffer));
            prop_assert_eq!(c.data.as_ptr(), at);
            at = at.wrapping_add(c.data.len());
        }
        prop_assert_eq!(at, container.as_ptr_range().end);
    }

    #[test]
    fn lanes_hash_each_part_as_one_chain_would(
        parts in prop::collection::vec(
            prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 0..300)],
            0..12,
        ),
    ) {
        let mut got = vec![None; parts.len()];
        let mut calls = 0;
        fnv::hash_lanes(parts.iter().enumerate().map(|(i, p)| (i, &p[..])), |i, digest| {
            calls += 1;
            got[i] = Some(digest);
        });
        prop_assert_eq!(calls, parts.len());
        let want: Vec<Option<u64>> = parts.iter().map(|p| Some(fnv::hash(p))).collect();
        prop_assert_eq!(got, want);
    }
}
