//! Property tests for the content-addressed store: model-based
//! put/get/delete round-trips, dedup idempotence under re-upload, the
//! physical-never-exceeds-logical invariant of the chunk arena, live
//! state equal to its own replay, recovery from a damaged log, and
//! lying delta uploads answered as the protocol's model answers them,
//! with nothing left behind.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use rai_archive::chunk::{chunk_bytes, Chunk, ChunkManifest, ChunkRef, ChunkerParams};
use rai_archive::{fnv, Bytes};
use rai_sim::{SimDuration, SimTime, VirtualClock};
use rai_store::{LifecycleRule, ObjectMeta, ObjectStore, StoreError, StoreUsage};
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

proptest! {
    // A record whose loss strands a later one is a few cases in a
    // thousand: the damage has to land on it.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A log damaged after the fact — a bit flipped anywhere, a cut at
    /// any byte, a run smeared over the bytes before it, garbage
    /// appended — recovers without a panic to a store whose every
    /// listed object reads back as a payload its key held at some point
    /// of the history, and whose object count is what it lists.
    #[test]
    fn a_damaged_log_recovers_to_payloads_the_store_held(
        pool in prop::collection::vec(arb_payload(), 1..4),
        ops in prop::collection::vec((arb_op(), any::<bool>(), any::<usize>()), 1..40),
        damage in prop::collection::vec((arb_damage(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let ops: Vec<Op> =
            ops.into_iter().map(|(op, pooled, pick)| reuse(op, &pool, pooled.then_some(pick))).collect();
        let config =
            DurabilityConfig { compact_min_bytes: 1, compact_factor: 1, ..DurabilityConfig::durable() };
        let disk = MemDisk::new();
        let live = ObjectStore::new(VirtualClock::new());
        live.attach_wal(Wal::open(Arc::new(disk.clone()), config));
        live.create_bucket("uploads", LifecycleRule::one_month_after_last_use()).unwrap();
        live.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90))).unwrap();
        live.create_bucket("keep", LifecycleRule::Keep).unwrap();
        let mut held: BTreeMap<(&str, String), Vec<Vec<u8>>> = BTreeMap::new();
        for op in &ops {
            run(&live, op);
            if let Op::Put(k, payload) | Op::PutDelta(k, payload, _) = op {
                let (bucket, key) = place(*k);
                held.entry((bucket, key)).or_default().push(payload.clone());
            }
        }
        live.sync_wal();

        let mut image: Vec<(u64, Vec<u8>)> =
            disk.list_segments().into_iter().map(|id| (id, disk.read_segment(id))).collect();
        for (kind, which, seed) in damage {
            let segment = which as usize % image.len();
            let bytes = &mut image[segment].1;
            let at = seed as usize % bytes.len().max(1);
            match kind {
                Damage::FlipBit => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << (seed >> 60 & 7);
                    }
                }
                Damage::Cut => bytes.truncate(at),
                Damage::Smear => {
                    let width = (seed >> 32) as usize % 64;
                    bytes.copy_within(at.., at.saturating_sub(width));
                }
                Damage::Append => bytes.extend_from_slice(&seed.to_le_bytes()),
            }
        }
        let damaged = MemDisk::new();
        for (id, bytes) in &image {
            damaged.append(*id, bytes);
            damaged.sync(*id);
        }

        let (r, _) = ObjectStore::recover(VirtualClock::new(), Wal::open(Arc::new(damaged), config));
        let mut listed = 0;
        for bucket in BUCKETS {
            // A bucket whose creation was lost lists nothing.
            for meta in r.list(bucket, "").unwrap_or_default() {
                let data = r.get(bucket, &meta.key).unwrap().data;
                let payloads = held.get(&(bucket, meta.key.clone())).map_or(&[][..], Vec::as_slice);
                prop_assert!(
                    payloads.iter().any(|p| p[..] == data[..]),
                    "{}/{}: {} bytes it never held", bucket, meta.key, data.len()
                );
                listed += 1;
            }
        }
        prop_assert_eq!(r.usage().objects, listed);
    }
}

/// `op` with its payload swapped for the one `pick` names in `pool`, if
/// it picks one: a history that uploads the same bytes again, so that a
/// later record dedups against chunks an earlier one carried.
fn reuse(op: Op, pool: &[Vec<u8>], pick: Option<usize>) -> Op {
    let Some(pick) = pick else { return op };
    let payload = pool[pick % pool.len()].clone();
    match op {
        Op::Put(k, _) => Op::Put(k, payload),
        Op::PutDelta(k, _, full) => Op::PutDelta(k, payload, full),
        op => op,
    }
}

/// How a log image is damaged after it was written.
#[derive(Clone, Copy, Debug)]
enum Damage {
    FlipBit,
    /// Cut the segment at a byte.
    Cut,
    /// Copy the bytes from a point over the ones before them: drops a
    /// run and shifts the framing behind it.
    Smear,
    /// Eight bytes of garbage at the end of a segment.
    Append,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![Just(Damage::FlipBit), Just(Damage::Cut), Just(Damage::Smear), Just(Damage::Append)]
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

/// What the model keeps of an object: what `head` answers, the payload
/// `get` answers, and the last use its one-month rule reads.
struct Kept {
    meta: ObjectMeta,
    payload: Vec<u8>,
    last_used: SimTime,
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
    /// `head`, `list` and `get` equal the model exactly, and a sweep
    /// expires what a month without use expires in the model.
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
        let mut model: BTreeMap<String, Kept> = BTreeMap::new();
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
                        s.put_delta("uploads", &key, &manifest, &chunks, pairs).unwrap();
                        manifest.etag
                    };
                    prop_assert_eq!(&etag, &rai_archive::fnv::etag(payload));
                    let expected = ObjectMeta {
                        key: key.clone(),
                        etag,
                        // Of two pairs with one key the later wins.
                        user: meta.iter().cloned().collect(),
                    };
                    model.insert(key, Kept { meta: expected, payload: payload.clone(), last_used: now });
                }
                MetaOp::Get(k) => {
                    let key = key_of(*k);
                    if let Some(kept) = model.get_mut(&key) {
                        kept.last_used = now;
                    }
                    prop_assert_eq!(
                        s.get("uploads", &key).ok().map(|o| o.data.to_vec()),
                        model.get(&key).map(|kept| kept.payload.clone())
                    );
                }
                MetaOp::Delete(k) => {
                    let key = key_of(*k);
                    prop_assert_eq!(s.delete("uploads", &key).is_ok(), model.remove(&key).is_some());
                }
                MetaOp::Sweep(days) => {
                    s.clock().advance(SimDuration::from_days(*days));
                    let now = s.clock().now();
                    let before = model.len();
                    let month = SimDuration::from_days(30);
                    model.retain(|_, kept| now.duration_since(kept.last_used) <= month);
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
            let all: Vec<ObjectMeta> = model.values().map(|kept| kept.meta.clone()).collect();
            prop_assert_eq!(s.list("uploads", "").unwrap(), all);
            let team0: Vec<ObjectMeta> = model
                .values()
                .map(|kept| kept.meta.clone())
                .filter(|m| m.key.starts_with("team-0/"))
                .collect();
            prop_assert_eq!(s.list("uploads", "team-0/").unwrap(), team0);
            for k in 0..6 {
                let expected = model.get(&key_of(k)).map(|kept| kept.meta.clone());
                prop_assert_eq!(s.head("uploads", &key_of(k)).ok(), expected);
            }
        }
    }
}

// ---- lying delta uploads against a model of the protocol -------------

/// How one `put_delta` lies, at `at` (taken modulo what it lies about).
#[derive(Clone, Debug)]
enum Lie {
    /// A carried chunk's bytes no longer hash to its digest.
    WrongDigest(usize),
    /// A reference states a length one off (the total agrees with it).
    WrongLength(usize, bool),
    /// A chunk the upload should carry is left out.
    Dropped(usize),
    /// A carried chunk is sent twice.
    Duplicated(usize),
    /// No lie.
    Truthful,
}

fn arb_lie() -> impl Strategy<Value = Lie> {
    prop_oneof![
        any::<usize>().prop_map(Lie::WrongDigest),
        (any::<usize>(), any::<bool>()).prop_map(|(at, longer)| Lie::WrongLength(at, longer)),
        any::<usize>().prop_map(Lie::Dropped),
        any::<usize>().prop_map(Lie::Duplicated),
        Just(Lie::Truthful),
    ]
}

/// One delta upload: its references into the chunk pool, whether it
/// also carries the chunks the store already holds, and its lies — two
/// of them, sometimes, so that which one outranks the other shows.
type Upload = (Vec<usize>, bool, Vec<Lie>);

fn arb_upload() -> impl Strategy<Value = Upload> {
    let lies = prop::collection::vec(arb_lie(), 1..3);
    (prop::collection::vec(any::<usize>(), 1..10), any::<bool>(), lies)
}

/// The request `refs` into `pool` make, carrying the chunks `resident`
/// lacks (all of them with `carry_resident`), with `lies` told.
fn request(
    pool: &[Chunk],
    resident: &HashMap<u64, usize>,
    (refs, carry_resident, lies): &Upload,
) -> (ChunkManifest, Vec<Chunk>) {
    let picked: Vec<&Chunk> = refs.iter().map(|i| &pool[i % pool.len()]).collect();
    let mut manifest = ChunkManifest {
        chunks: picked.iter().map(|c| ChunkRef { digest: c.digest, len: c.data.len() as u32 }).collect(),
        total_len: picked.iter().map(|c| c.data.len() as u64).sum(),
        etag: "model".into(),
    };
    let mut provided: Vec<Chunk> = Vec::new();
    for c in picked {
        let sent = provided.iter().any(|p| p.digest == c.digest);
        if !sent && (*carry_resident || !resident.contains_key(&c.digest)) {
            provided.push(c.clone());
        }
    }
    for lie in lies {
        tell(lie, &mut manifest, &mut provided);
    }
    (manifest, provided)
}

/// Tell `lie` in a request.
fn tell(lie: &Lie, manifest: &mut ChunkManifest, provided: &mut Vec<Chunk>) {
    match *lie {
        Lie::WrongDigest(at) if !provided.is_empty() => {
            let at = at % provided.len();
            let mut bytes = provided[at].data.to_vec();
            bytes[0] ^= 0x5A;
            provided[at].data = Bytes::from(bytes);
        }
        Lie::WrongLength(at, longer) => {
            let at = at % manifest.chunks.len();
            let r = &mut manifest.chunks[at];
            if longer || r.len == 1 {
                (r.len, manifest.total_len) = (r.len + 1, manifest.total_len + 1);
            } else {
                (r.len, manifest.total_len) = (r.len - 1, manifest.total_len - 1);
            }
        }
        Lie::Dropped(at) if !provided.is_empty() => {
            provided.remove(at % provided.len());
        }
        Lie::Duplicated(at) if !provided.is_empty() => {
            let copy = provided[at % provided.len()].clone();
            provided.push(copy);
        }
        _ => {}
    }
}

/// The protocol's answer to a delta upload, from the chunk lengths the
/// store holds: a carried chunk the store lacks must hash to its digest;
/// then every reference must state the length of the carried copy (the
/// last one sent) and of the resident one; then each reference that is
/// neither carried nor resident is missing, in manifest order.
fn model_answer(
    resident: &HashMap<u64, usize>,
    manifest: &ChunkManifest,
    provided: &[Chunk],
) -> Result<(), StoreError> {
    let forged = |c: &&Chunk| !resident.contains_key(&c.digest) && fnv::hash(&c.data) != c.digest;
    if provided.iter().any(|c| forged(&c)) {
        return Err(StoreError::DeltaMismatch { reason: "chunk bytes do not match claimed digest" });
    }
    let mut missing = Vec::new();
    for r in &manifest.chunks {
        let carried = provided.iter().rev().find(|c| c.digest == r.digest).map(|c| c.data.len());
        let stored = resident.get(&r.digest).copied();
        if [carried, stored].into_iter().flatten().any(|n| n != r.len as usize) {
            return Err(StoreError::DeltaMismatch { reason: "chunk length disagrees with manifest" });
        }
        if carried.is_none() && stored.is_none() {
            missing.push(r.digest);
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(StoreError::MissingChunks { missing })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A delta upload is admitted in one pass that takes each reference
    /// as it probes it, so a lie found late meets references already
    /// taken. Whatever the lie and wherever it sits, the answer is the
    /// model's — the refusal's kind and every missing reference — and a
    /// refused put leaves usage, listing and every object's bytes as
    /// they were; an accepted one reads back.
    #[test]
    fn a_lying_delta_gets_the_models_answer_and_changes_nothing_it_refuses(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..48), 2..10),
        seeded in prop::collection::vec(prop::collection::vec(any::<usize>(), 1..6), 0..4),
        uploads in prop::collection::vec(arb_upload(), 1..12),
    ) {
        let mut pool: Vec<Chunk> = payloads
            .into_iter()
            .map(|bytes| Chunk { digest: fnv::hash(&bytes), data: Bytes::from(bytes) })
            .collect();
        pool.sort_by_key(|c| c.digest);
        pool.dedup_by_key(|c| c.digest);

        let s = store();
        let mut resident: HashMap<u64, usize> = HashMap::new();
        let mut objects: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let truthful = seeded.into_iter().map(|refs| (refs, false, vec![Lie::Truthful]));
        let lying = uploads.into_iter().map(|upload| (upload, true));
        let all = truthful.map(|upload| (upload, false)).chain(lying);
        for (n, (upload, checked)) in all.enumerate() {
            let (manifest, provided) = request(&pool, &resident, &upload);
            let expected = model_answer(&resident, &manifest, &provided);
            let (usage, listing) = (s.usage(), s.list("keep", "").unwrap());
            let key = format!("put-{n:02}");
            let answer = s.put_delta("keep", &key, &manifest, &provided, []);
            if checked {
                prop_assert_eq!(&answer, &expected, "{:?}", upload);
            } else {
                prop_assert!(answer.is_ok());
            }
            match answer {
                Ok(()) => {
                    let mut payload = Vec::new();
                    for r in &manifest.chunks {
                        let chunk = pool.iter().find(|c| c.digest == r.digest).expect("from the pool");
                        payload.extend_from_slice(&chunk.data);
                        resident.entry(r.digest).or_insert(chunk.data.len());
                    }
                    objects.insert(key, payload);
                }
                Err(_) => {
                    prop_assert_eq!(s.usage(), usage, "a refused put changed usage");
                    prop_assert_eq!(s.list("keep", "").unwrap(), listing, "a refused put changed the listing");
                    let digests: Vec<u64> = manifest.chunks.iter().map(|r| r.digest).collect();
                    let held: Vec<bool> = digests.iter().map(|d| resident.contains_key(d)).collect();
                    prop_assert_eq!(s.has_chunks(&digests).unwrap(), held, "a refused put left chunks behind");
                }
            }
            for (key, payload) in &objects {
                let stored = s.get("keep", key).unwrap().data;
                prop_assert_eq!(stored.as_ref(), &payload[..], "{}", key);
            }
        }
    }
}
