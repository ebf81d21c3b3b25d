//! Property tests for the archive substrate: container and chunker
//! round-trips over arbitrary data, and corruption detection.

use proptest::prelude::*;
use rai_archive::fnv::{self, Fnv1a};
use rai_archive::tree::normalize;
use rai_archive::{read_container, restore, write_container, ArchiveError, FileTree};

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
        prop_assert_eq!(read_container(&write_container(&tree)).unwrap(), tree);
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
        match read_container(&corrupted) {
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

fn arb_chunker_params() -> impl Strategy<Value = rai_archive::ChunkerParams> {
    // avg must be a power of two; min and max bracket it.
    (2u32..10, 1usize..=64, 1usize..=8).prop_map(|(exp, min, mul)| {
        let avg = 1usize << exp;
        rai_archive::ChunkerParams {
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
        let (manifest, chunks) = rai_archive::chunk_bytes(&data, params);
        let map: std::collections::BTreeMap<_, _> =
            chunks.iter().map(|c| (c.digest, c.data.clone())).collect();
        let back = rai_archive::chunk::assemble(&manifest, |d| map.get(&d).cloned());
        prop_assert_eq!(back.as_deref(), Some(&data[..]));
        prop_assert_eq!(manifest.total_len, data.len() as u64);
        prop_assert_eq!(&manifest.etag, &rai_archive::fnv::etag(&data));
    }

    #[test]
    fn chunker_is_deterministic(
        data in prop::collection::vec(any::<u8>(), 0..8192),
        params in arb_chunker_params(),
    ) {
        let (a, _) = rai_archive::chunk_bytes(&data, params);
        let (b, _) = rai_archive::chunk_bytes(&data, params);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn chunker_respects_size_bounds(
        data in prop::collection::vec(any::<u8>(), 0..8192),
        params in arb_chunker_params(),
    ) {
        let (manifest, _) = rai_archive::chunk_bytes(&data, params);
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

/// `read_container` as two passes over the bytes: the whole-archive
/// checksum first, the entries only once it holds. The fused reader
/// must return exactly this for every input.
fn read_container_two_pass(buf: &[u8]) -> Result<FileTree, ArchiveError> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn two_chain_update_equals_two_updates(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
        lead in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        // The chains start from different states and the input arrives
        // in arbitrary pieces, empty ones included.
        let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
        a.update(&lead);
        let (mut ref_a, mut ref_b) = (a, b);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        cuts.extend([0, data.len()]);
        cuts.sort_unstable();
        for piece in cuts.windows(2) {
            fnv::update2(&mut a, &mut b, &data[piece[0]..piece[1]]);
        }
        ref_a.update(&data);
        ref_b.update(&data);
        prop_assert_eq!(a.digest(), ref_a.digest());
        prop_assert_eq!(b.digest(), ref_b.digest());
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
        prop_assert_eq!(read_container(&bytes), read_container_two_pass(&bytes));
    }
}
