//! Property tests for the content-addressed store: model-based
//! put/get/delete round-trips, dedup idempotence under re-upload, the
//! physical-never-exceeds-logical invariant of the chunk arena, and
//! live state equal to its own replay.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rai_archive::chunk::{chunk_bytes, Chunk, ChunkerParams};
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectMeta, ObjectStore, StoreUsage};
use rai_wal::{DurabilityConfig, MemDisk, Wal};

fn store() -> ObjectStore {
    let s = ObjectStore::new(VirtualClock::new());
    s.create_bucket("keep", LifecycleRule::Keep).unwrap();
    s
}

/// A payload generator biased toward redundancy: short pseudorandom
/// seeds repeated a few times, so dedup actually has material to work
/// with (fully random payloads share nothing).
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(any::<u8>(), 0..512), 1usize..6)
        .prop_map(|(base, reps)| base.repeat(reps))
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    // Key index (small space so keys collide and overwrite) + payload.
    prop::collection::vec((0u8..6, arb_payload()), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn puts_read_back_and_physical_never_exceeds_logical(ops in arb_ops()) {
        let s = store();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (k, payload) in &ops {
            let key = format!("obj-{k}");
            s.put("keep", &key, payload.clone(), []).unwrap();
            model.insert(key, payload.clone());
            let u = s.usage();
            prop_assert!(
                u.bytes_physical <= u.bytes_stored,
                "physical {} exceeded logical {}",
                u.bytes_physical,
                u.bytes_stored
            );
        }
        // Every live object reassembles to exactly what the model holds.
        for (key, expected) in &model {
            let got = s.get("keep", key).unwrap();
            prop_assert_eq!(got.data.as_ref(), &expected[..]);
        }
        let u = s.usage();
        let logical: u64 = model.values().map(|v| v.len() as u64).sum();
        prop_assert_eq!(u.bytes_stored, logical);
    }

    #[test]
    fn re_upload_is_physically_idempotent(ops in arb_ops()) {
        let s = store();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (k, payload) in &ops {
            let key = format!("obj-{k}");
            s.put("keep", &key, payload.clone(), []).unwrap();
            model.insert(key, payload.clone());
        }
        let before = s.usage();
        // Re-uploading every object verbatim must not grow the arena:
        // all chunks are already resident, so every retain is a dedup
        // hit and physical/logical/chunk counts stay fixed.
        for (key, payload) in &model {
            s.put("keep", key, payload.clone(), []).unwrap();
        }
        let after = s.usage();
        prop_assert_eq!(after.bytes_physical, before.bytes_physical);
        prop_assert_eq!(after.bytes_stored, before.bytes_stored);
        prop_assert_eq!(after.chunks, before.chunks);
        prop_assert!(after.chunks_dedup_total >= before.chunks_dedup_total);
        for (key, expected) in &model {
            let got = s.get("keep", key).unwrap();
            prop_assert_eq!(got.data.as_ref(), &expected[..]);
        }
    }

    #[test]
    fn deleting_everything_frees_every_chunk(ops in arb_ops()) {
        let s = store();
        let mut keys = std::collections::BTreeSet::new();
        for (k, payload) in &ops {
            let key = format!("obj-{k}");
            s.put("keep", &key, payload.clone(), []).unwrap();
            keys.insert(key);
        }
        for key in &keys {
            s.delete("keep", key).unwrap();
        }
        let u = s.usage();
        prop_assert_eq!(u.objects, 0);
        prop_assert_eq!(u.bytes_stored, 0);
        prop_assert_eq!(u.bytes_physical, 0, "leaked chunk bytes after deleting all objects");
        prop_assert_eq!(u.chunks, 0, "leaked chunks after deleting all objects");
    }
}

// ---- live state equals its replay ----------------------------------------

const BUCKETS: [&str; 3] = ["uploads", "builds", "keep"];

#[derive(Clone, Debug)]
enum Op {
    Put(u8, Vec<u8>),
    /// `put_delta` carrying every chunk (`true`) or only the ones
    /// `has_chunks` reports missing.
    PutDelta(u8, Vec<u8>, bool),
    Get(u8),
    Delete(u8),
    /// Advance the clock this many days, then sweep.
    Sweep(u64),
    Sync,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..9, arb_payload()).prop_map(|(k, p)| Op::Put(k, p)),
        (0u8..9, arb_payload(), any::<bool>()).prop_map(|(k, p, full)| Op::PutDelta(k, p, full)),
        (0u8..9).prop_map(Op::Get),
        (0u8..9).prop_map(Op::Delete),
        (0u64..60).prop_map(Op::Sweep),
        Just(Op::Sync),
        Just(Op::Compact),
    ]
}

/// Nine keys over three buckets with three lifecycle rules, so keys
/// collide, overwrite and expire.
fn place(k: u8) -> (&'static str, String) {
    (BUCKETS[k as usize % 3], format!("obj-{}", k / 3))
}

fn run(s: &ObjectStore, op: &Op) {
    match op {
        Op::Put(k, payload) => {
            let (bucket, key) = place(*k);
            s.put(bucket, &key, payload.clone(), []).unwrap();
        }
        Op::PutDelta(k, payload, full) => {
            let (bucket, key) = place(*k);
            let (manifest, chunks) = chunk_bytes(payload, ChunkerParams::for_len(payload.len()));
            let resident = s.has_chunks(&manifest.digests()).unwrap();
            let provided: Vec<Chunk> =
                chunks.into_iter().zip(resident).filter(|(_, r)| *full || !r).map(|(c, _)| c).collect();
            s.put_delta(bucket, &key, &manifest, &provided, [("k", k.to_string().as_str())]).unwrap();
        }
        // Missing keys are refused and leave no trace, live or replayed.
        Op::Get(k) => {
            let (bucket, key) = place(*k);
            let _ = s.get(bucket, &key);
        }
        Op::Delete(k) => {
            let (bucket, key) = place(*k);
            let _ = s.delete(bucket, &key);
        }
        Op::Sweep(days) => {
            s.clock().advance(SimDuration::from_days(*days));
            s.sweep_lifecycle();
        }
        Op::Sync => s.sync_wal(),
        Op::Compact => {
            s.maybe_compact();
        }
    }
}

fn observe(s: &ObjectStore) -> (StoreUsage, Vec<Vec<ObjectMeta>>) {
    (s.usage(), BUCKETS.iter().map(|b| s.list(b, "").unwrap()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store's restart path is its normal path: whatever history
    /// the live API wrote, replaying the log rebuilds the same state,
    /// and replaying that store's log changes nothing again.
    #[test]
    fn recovery_reproduces_the_live_store(ops in prop::collection::vec(arb_op(), 1..40)) {
        // Thresholds this small compact on nearly every `Compact`.
        let config =
            DurabilityConfig { compact_min_bytes: 1, compact_factor: 1, ..DurabilityConfig::durable() };
        let disk = MemDisk::new();
        let open = || Wal::open(Arc::new(disk.clone()), config);
        let live = ObjectStore::new(VirtualClock::new());
        live.attach_wal(open());
        live.create_bucket("uploads", LifecycleRule::one_month_after_last_use()).unwrap();
        live.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90))).unwrap();
        live.create_bucket("keep", LifecycleRule::Keep).unwrap();
        for op in &ops {
            run(&live, op);
        }
        // Reads are journaled too, so the live store is read before its
        // log is replayed and left alone afterwards.
        let read_all = |s: &ObjectStore| -> Vec<_> {
            let keys = BUCKETS.iter().flat_map(|b| s.list(b, "").unwrap().into_iter().map(move |m| (b, m.key)));
            keys.map(|(b, key)| s.get(b, &key).unwrap()).collect()
        };
        let payloads = read_all(&live);
        live.sync_wal();

        let (replayed, recovery) = ObjectStore::recover(live.clock().clone(), open());
        prop_assert_eq!((recovery.malformed_dropped, recovery.objects_dropped), (0, 0));
        prop_assert_eq!(observe(&replayed), observe(&live));
        prop_assert_eq!(read_all(&replayed), payloads);

        replayed.sync_wal();
        let (again, _) = ObjectStore::recover(live.clock().clone(), open());
        prop_assert_eq!(observe(&again), observe(&replayed));
    }
}

// ---- the compact object record against a model -----------------------------

/// Metadata text with the awkward cases in reach: the empty string,
/// multi-byte characters, the codec's own length bytes, and few enough
/// letters that two pairs of one upload share a key.
fn arb_text() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 8] = ['a', 'b', '/', ' ', '\0', 'é', '漢', '🦀'];
    prop::collection::vec(0usize..ALPHABET.len(), 0..4)
        .prop_map(|letters| letters.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_meta() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((arb_text(), arb_text()), 0..8)
}

#[derive(Clone, Debug)]
enum MetaOp {
    Put(u8, Vec<u8>, Vec<(String, String)>),
    PutDelta(u8, Vec<u8>, Vec<(String, String)>),
    Get(u8),
    Delete(u8),
    /// Advance the clock this many days, then sweep.
    Sweep(u64),
    /// Compact (`true`) or not, then carry on from the recovered store.
    Recover(bool),
}

fn arb_meta_op() -> impl Strategy<Value = MetaOp> {
    prop_oneof![
        (0u8..6, arb_payload(), arb_meta()).prop_map(|(k, p, m)| MetaOp::Put(k, p, m)),
        (0u8..6, arb_payload(), arb_meta()).prop_map(|(k, p, m)| MetaOp::PutDelta(k, p, m)),
        (0u8..6).prop_map(MetaOp::Get),
        (0u8..6).prop_map(MetaOp::Delete),
        (0u64..25).prop_map(MetaOp::Sweep),
        any::<bool>().prop_map(MetaOp::Recover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What the store keeps per object is a packed record; what it
    /// answers with is the `ObjectMeta` a map-keeping store would: after
    /// every step, and on the far side of a compaction and a recovery,
    /// `head`, `list` and `get` equal the model exactly.
    #[test]
    fn object_metadata_matches_the_model(ops in prop::collection::vec(arb_meta_op(), 1..30)) {
        let config =
            DurabilityConfig { compact_min_bytes: 1, compact_factor: 1, ..DurabilityConfig::durable() };
        let disk = MemDisk::new();
        let open = || Wal::open(Arc::new(disk.clone()), config);
        let rule = LifecycleRule::one_month_after_last_use();
        let mut s = ObjectStore::new(VirtualClock::new());
        s.attach_wal(open());
        s.create_bucket("uploads", rule).unwrap();
        let mut model: BTreeMap<String, ObjectMeta> = BTreeMap::new();
        let key_of = |k: u8| format!("team-{}/obj-{k}", k % 2);

        for op in &ops {
            let now = s.clock().now();
            match op {
                MetaOp::Put(k, payload, meta) | MetaOp::PutDelta(k, payload, meta) => {
                    let key = key_of(*k);
                    let pairs = meta.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    let etag = if matches!(op, MetaOp::Put(..)) {
                        s.put("uploads", &key, payload.clone(), pairs).unwrap()
                    } else {
                        let (manifest, chunks) = chunk_bytes(payload, ChunkerParams::for_len(payload.len()));
                        s.put_delta("uploads", &key, &manifest, &chunks, pairs).unwrap()
                    };
                    prop_assert_eq!(&etag, &rai_archive::fnv::etag(payload));
                    let expected = ObjectMeta {
                        key: key.clone(),
                        size: payload.len() as u64,
                        etag,
                        uploaded_at: now,
                        last_used: now,
                        // Of two pairs with one key the later wins.
                        user: meta.iter().cloned().collect(),
                    };
                    model.insert(key, expected);
                }
                MetaOp::Get(k) => {
                    let key = key_of(*k);
                    if let Some(expected) = model.get_mut(&key) {
                        expected.last_used = now;
                    }
                    prop_assert_eq!(s.get("uploads", &key).ok().map(|o| o.meta), model.get(&key).cloned());
                }
                MetaOp::Delete(k) => {
                    let key = key_of(*k);
                    prop_assert_eq!(s.delete("uploads", &key).is_ok(), model.remove(&key).is_some());
                }
                MetaOp::Sweep(days) => {
                    s.clock().advance(SimDuration::from_days(*days));
                    let now = s.clock().now();
                    let before = model.len();
                    model.retain(|_, m| !rule.is_expired(m.uploaded_at, m.last_used, now));
                    prop_assert_eq!(s.sweep_lifecycle() as usize, before - model.len());
                }
                MetaOp::Recover(compact) => {
                    s.sync_wal();
                    if *compact {
                        s.maybe_compact();
                    }
                    let (recovered, recovery) = ObjectStore::recover(s.clock().clone(), open());
                    prop_assert_eq!((recovery.malformed_dropped, recovery.objects_dropped), (0, 0));
                    prop_assert_eq!(recovered.usage(), s.usage());
                    s = recovered;
                }
            }
            let all: Vec<ObjectMeta> = model.values().cloned().collect();
            prop_assert_eq!(s.list("uploads", "").unwrap(), all);
            let team0: Vec<ObjectMeta> =
                model.values().filter(|m| m.key.starts_with("team-0/")).cloned().collect();
            prop_assert_eq!(s.list("uploads", "team-0/").unwrap(), team0);
            for k in 0..6 {
                prop_assert_eq!(s.head("uploads", &key_of(k)).ok(), model.get(&key_of(k)).cloned());
            }
        }
    }
}
