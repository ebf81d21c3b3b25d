//! The per-batch chunk path (DESIGN.md §10), from outside the crate.
//!
//! The arena index is a hash map whose iteration order differs from
//! one store to the next, so the first test pins that nothing durable
//! or reported depends on it. The second pins the delta protocol's
//! answer to every shape of hostile `put_delta`, reference by
//! reference, including the order of `MissingChunks::missing` and that
//! a refused request changes nothing.

use bytes::Bytes;
use rai_archive::chunk::{chunk_bytes, Chunk, ChunkManifest, ChunkRef, ChunkerParams};
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectMeta, ObjectStore, StoreError, StoreUsage};
use rai_wal::{DurabilityConfig, MemDisk, Wal};
use std::sync::Arc;

/// Non-repeating payload, so every chunk gets a distinct digest.
fn varied(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn disk_image(disk: &MemDisk) -> Vec<(u64, Vec<u8>)> {
    disk.list_segments().into_iter().map(|id| (id, disk.read_segment(id))).collect()
}

type Listing = Vec<(ObjectMeta, Bytes)>;

/// Everything a store lets an observer see, read without touching it
/// (`get` is journaled and counted, so payloads are read last).
fn observe(s: &ObjectStore) -> (StoreUsage, Listing) {
    let usage = s.usage();
    let listing = ["builds", "keep"]
        .iter()
        .flat_map(|b| s.list(b, "").unwrap().into_iter().map(move |m| (*b, m)))
        .map(|(b, m)| {
            let data = s.get(b, &m.key).unwrap().data;
            (m, data)
        })
        .collect();
    (usage, listing)
}

#[derive(PartialEq, Debug)]
struct Run {
    log: Vec<(u64, Vec<u8>)>,
    snapshot: Vec<(u64, Vec<u8>)>,
    usage: StoreUsage,
    recovered: (StoreUsage, Listing),
}

/// One scripted history on a fresh durable store — dedup, overwrite,
/// delete, expiry, a few hundred resident chunks at the end — then a
/// compaction and a recovery from the compacted disk.
fn scripted_run() -> Run {
    let config =
        DurabilityConfig { compact_min_bytes: 1, compact_factor: 1, ..DurabilityConfig::durable() };
    let disk = MemDisk::new();
    let s = ObjectStore::new(VirtualClock::new());
    s.attach_wal(Wal::open(Arc::new(disk.clone()), config));
    s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90))).unwrap();
    s.create_bucket("keep", LifecycleRule::Keep).unwrap();

    for i in 0..6u64 {
        s.put("builds", &format!("b{i}"), varied(1500 + 40 * i as usize, i), []).unwrap();
    }
    let tree = varied(9000, 77);
    let (manifest, chunks) = chunk_bytes(&tree, ChunkerParams::DEFAULT);
    s.put_delta("keep", "tree", &manifest, &chunks, [("team", "rust")]).unwrap();
    s.put_delta("keep", "copy", &manifest, &[], []).unwrap();
    s.put("keep", "tree", varied(7000, 78), []).unwrap(); // overwrite: releases shared chunks
    s.delete("builds", "b2").unwrap();
    s.get("keep", "copy").unwrap();
    s.clock().advance(SimDuration::from_days(95));
    assert_eq!(s.sweep_lifecycle(), 5);
    s.put("builds", "late", varied(3000, 79), []).unwrap();
    s.sync_wal();

    let log = disk_image(&disk);
    assert!(s.maybe_compact(), "thresholds of 1 always compact");
    let snapshot = disk_image(&disk);
    let usage = s.usage();
    assert!(usage.chunks > 300, "enough chunks that two hashers disagree on order");

    let (r, recovery) =
        ObjectStore::recover(s.clock().clone(), Wal::open(Arc::new(disk.clone()), config));
    assert_eq!((recovery.malformed_dropped, recovery.objects_dropped), (0, 0));
    assert_eq!(r.usage(), usage, "recovery from the snapshot is exact");
    Run { log, snapshot, usage, recovered: observe(&r) }
}

#[test]
fn nothing_observable_depends_on_the_index_hasher() {
    // Each store's arena draws its own hasher key.
    let (a, b) = (scripted_run(), scripted_run());
    assert!(a == b, "log, snapshot, usage or recovered state drifted between two stores");
}

// ---- adversarial delta protocol ------------------------------------------

fn store() -> ObjectStore {
    let s = ObjectStore::new(VirtualClock::new());
    s.create_bucket("keep", LifecycleRule::Keep).unwrap();
    s
}

fn manifest_of(chunks: &[&Chunk]) -> (ChunkManifest, Vec<u8>) {
    let payload: Vec<u8> = chunks.iter().flat_map(|c| c.data.iter().copied()).collect();
    let refs = chunks.iter().map(|c| ChunkRef { digest: c.digest, len: c.data.len() as u32 });
    let manifest = ChunkManifest {
        chunks: refs.collect(),
        total_len: payload.len() as u64,
        etag: "crafted".into(),
    };
    (manifest, payload)
}

const BAD_HASH: StoreError =
    StoreError::DeltaMismatch { reason: "chunk bytes do not match claimed digest" };
const BAD_LEN: StoreError =
    StoreError::DeltaMismatch { reason: "chunk length disagrees with manifest" };

/// `put_delta` must refuse with `expected` and leave the store as it
/// found it.
fn refused(s: &ObjectStore, manifest: &ChunkManifest, provided: &[Chunk], expected: StoreError) {
    let before = s.usage();
    assert_eq!(s.put_delta("keep", "victim", manifest, provided, []), Err(expected));
    assert_eq!(s.usage(), before, "a refused delta changed state");
    assert!(s.head("keep", "victim").is_err());
}

#[test]
fn hostile_deltas_get_the_pinned_answers() {
    let payload = varied(6000, 5);
    let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
    assert!(chunks.len() > 50);
    let payload_len = payload.len() as u64;
    let reference = {
        let s = store();
        s.put_delta("keep", "k", &manifest, &chunks, []).unwrap();
        s.usage()
    };

    // Shuffled: the order of `provided` is immaterial.
    let s = store();
    let mut shuffled = chunks.clone();
    shuffled.reverse();
    shuffled.rotate_left(chunks.len() / 3);
    s.put_delta("keep", "k", &manifest, &shuffled, []).unwrap();
    assert_eq!(s.usage(), reference);
    assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &payload[..]);

    // Duplicates: stored once, though every copy crossed the wire.
    let s = store();
    let doubled: Vec<Chunk> = chunks.iter().chain(&chunks).cloned().collect();
    s.put_delta("keep", "k", &manifest, &doubled, []).unwrap();
    let u = s.usage();
    assert_eq!(u.chunks, reference.chunks);
    assert_eq!((u.bytes_physical, u.chunks_dedup_total), (payload_len, 0));
    assert_eq!(u.bytes_wire, 2 * payload_len + manifest.encoded_len());
    assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &payload[..]);

    // Unreferenced extras: a sound one is ignored (not stored), an
    // unsound one fails the request like any other provided chunk.
    let (_, extra) = chunk_bytes(&varied(40, 6), ChunkerParams::DEFAULT);
    let s = store();
    let with_extra: Vec<Chunk> = chunks.iter().chain(&extra[..1]).cloned().collect();
    s.put_delta("keep", "k", &manifest, &with_extra, []).unwrap();
    assert_eq!(s.usage().chunks, reference.chunks);
    assert_eq!(s.has_chunks(&[extra[0].digest]).unwrap(), [false]);
    let forged = Chunk { digest: extra[0].digest, data: Bytes::from_static(b"forged") };
    let with_forged: Vec<Chunk> = chunks.iter().cloned().chain([forged]).collect();
    refused(&store(), &manifest, &with_forged, BAD_HASH);

    // Wrong digest, non-resident: refused on the hash, and the hash
    // outranks a wrong length and a missing chunk elsewhere.
    let mut bad = chunks.clone();
    bad[7].data = Bytes::from(vec![0xAB; bad[7].data.len() + 1]);
    refused(&store(), &manifest, &bad, BAD_HASH);
    refused(&store(), &manifest, &bad[1..], BAD_HASH);

    // Wrong digest, resident: the stored copy wins unread, so same-
    // length garbage is accepted and ignored; a wrong length is not.
    let s = store();
    s.put_delta("keep", "base", &manifest, &chunks, []).unwrap();
    let mut garbage = chunks.clone();
    garbage[7].data = Bytes::from(vec![0xAB; garbage[7].data.len()]);
    s.put_delta("keep", "k", &manifest, &garbage, []).unwrap();
    assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &payload[..]);
    assert_eq!(s.usage().bytes_physical, payload_len);
    bad[7].digest = chunks[7].digest;
    refused(&s, &manifest, &bad, BAD_LEN);

    // Wrong length, resident, nothing carried: a manifest that moves
    // one byte between two resident references still adds up to its
    // `total_len`, and is refused here rather than at the next `get`
    // of the key — alone, behind same-length garbage for the
    // lengthened reference, and ahead of a missing chunk wherever that
    // sits.
    let (c0, c1) = (&chunks[0], &chunks[1]);
    let absent = &extra[0];
    let skew = |parts: &[&Chunk]| {
        let (mut m, _) = manifest_of(parts);
        for r in &mut m.chunks {
            r.len = match r.digest {
                d if d == c0.digest => r.len + 1,
                d if d == c1.digest => r.len - 1,
                _ => r.len,
            };
        }
        m
    };
    refused(&s, &skew(&[c0, c1]), &[], BAD_LEN);
    let padded = Chunk { digest: c0.digest, data: Bytes::from(vec![0xAB; c0.data.len() + 1]) };
    refused(&s, &skew(&[c0, c1]), &[padded], BAD_LEN);
    refused(&s, &skew(&[absent, c0, c1]), &[], BAD_LEN);
    refused(&s, &skew(&[c0, c1, absent]), &[], BAD_LEN);
    assert_eq!(s.get("keep", "base").unwrap().data.as_ref(), &payload[..]);

    // A wrong length outranks a missing chunk, wherever each sits.
    let (mut lying, _) = manifest_of(&[&chunks[0], &chunks[1]]);
    lying.chunks[1].len += 1;
    lying.total_len += 1;
    refused(&store(), &lying, std::slice::from_ref(&chunks[1]), BAD_LEN);

    // Missing: every unresolved reference, in manifest order,
    // repeats included.
    refused(&store(), &manifest, &[], StoreError::MissingChunks { missing: manifest.digests() });
    let (repeated, repeated_payload) = manifest_of(&[c0, c1, c0]);
    refused(
        &store(),
        &repeated,
        std::slice::from_ref(c1),
        StoreError::MissingChunks { missing: vec![c0.digest, c0.digest] },
    );

    // A digest repeated in the manifest installs once and then dedups
    // against itself.
    let s = store();
    s.put_delta("keep", "k", &repeated, &[c1.clone(), c0.clone()], []).unwrap();
    let u = s.usage();
    assert_eq!((u.chunks, u.chunks_dedup_total), (2, 1));
    assert_eq!(u.bytes_physical, (c0.data.len() + c1.data.len()) as u64);
    assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &repeated_payload[..]);
    s.delete("keep", "k").unwrap();
    assert_eq!(s.usage().chunks, 0, "both references released");
}

#[test]
fn a_bulk_delta_is_refused_wherever_its_lie_sits_among_the_hash_lanes() {
    // The paper's mean upload, fresh: every chunk is verified, four
    // hash lanes at a time. A lie in the first lane's first part, the
    // last lane's, the first refill's and the drained tail's gets the
    // same answer as anywhere else.
    let payload = varied(2_500 * 1024, 9);
    let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::for_len(payload.len()));
    let last = chunks.len() - 1;
    assert!(last > 1_000, "{} chunks", chunks.len());
    let s = store();
    let body = chunks[0].data.buffer().expect("chunk bodies are views of one buffer");
    let held = body.strong_count();

    for at in [0, 3, 4, last] {
        let mut bad = chunks.clone();
        let mut bytes = bad[at].data.to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        bad[at].data = Bytes::from(bytes);
        refused(&s, &manifest, &bad, BAD_HASH);
        // The hash outranks a lying length elsewhere in the manifest.
        let mut lying = manifest.clone();
        let other = if at == 0 { last } else { 0 };
        lying.chunks[other].len += 1;
        lying.total_len += 1;
        refused(&s, &lying, &bad, BAD_HASH);
    }
    // A lying length behind bytes that hash true: refused on the length.
    for at in [0, 3, 4, last] {
        let mut lying = manifest.clone();
        lying.chunks[at].len -= 1;
        lying.total_len -= 1;
        refused(&s, &lying, &chunks, BAD_LEN);
    }
    // Nothing of the refused requests stayed behind: no view of the
    // request body is held but the caller's own.
    assert_eq!(s.usage(), store().usage());
    assert_eq!(body.strong_count(), held);
    s.put_delta("keep", "k", &manifest, &chunks, []).unwrap();
    assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &payload[..]);
}
