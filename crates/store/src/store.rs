//! The object store: buckets, CRUD, delta uploads, lifecycle sweeps
//! and usage accounting. Thread-safe and cheaply cloneable (clones
//! share state), like every live RAI data-plane component.
//!
//! Since the storage-model change (DESIGN.md §10) the store is
//! content-addressed: `put`/`put_delta` split payloads into
//! content-defined chunks ([`rai_archive::chunk`]) and objects are
//! manifests referencing a shared refcounted chunk arena
//! (`crate::dedup`). Identical content across objects, buckets and
//! re-uploads is stored once; `has_chunks` lets clients discover
//! which chunks the store already holds and upload only the rest.

use crate::dedup::ChunkStore;
use crate::journal::{SnapBucket, SnapCounters, SnapObject, StoreRecord};
use crate::lifecycle::LifecycleRule;
use crate::object::{ObjectMeta, StoredObject};
use bytes::Bytes;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use rai_archive::chunk::{assemble, chunk_shared, Chunk, ChunkManifest, ChunkerParams};
use rai_archive::fnv::{self, Fnv1a};
use rai_sim::{SimTime, VirtualClock};
use rai_wal::codec::{put_str, Reader};
use rai_wal::Wal;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Bucket does not exist.
    NoSuchBucket(String),
    /// Key does not exist in the bucket.
    NoSuchKey { bucket: String, key: String },
    /// Bucket already exists (create).
    BucketExists(String),
    /// A presigned URL failed validation (expired or tampered).
    BadPresignedUrl,
    /// Transient service failure (injected by tests/chaos runs; S3
    /// returns 503s under load and RAI must degrade gracefully).
    Unavailable,
    /// A delta upload referenced chunks that neither the request
    /// carried nor the store holds — e.g. they were garbage-collected
    /// between the uploader's [`ObjectStore::has_chunks`] probe and
    /// its put. The fix is to probe again and resend.
    MissingChunks {
        /// Digests that could not be resolved.
        missing: Vec<u64>,
    },
    /// A delta upload was internally inconsistent: a supplied chunk's
    /// bytes did not hash to its claimed digest, or lengths disagreed
    /// with the manifest.
    DeltaMismatch {
        /// What disagreed.
        reason: &'static str,
    },
    /// An upload's user metadata exceeds `MAX_USER_META_BYTES` of
    /// keys plus values.
    MetadataTooLarge,
}

/// Most bytes of user metadata — keys plus values — one object may
/// carry: S3's own limit. The store keeps metadata resident (and
/// journals and snapshots it) for as long as the object lives, so how
/// much of it there is cannot be the uploader's choice.
pub(crate) const MAX_USER_META_BYTES: usize = 2048;

/// Longest etag a delta upload may declare. The store's own etags
/// ([`rai_archive::fnv::etag`]) are 16 bytes.
pub(crate) const MAX_ETAG_BYTES: usize = 64;

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StoreError::NoSuchKey { bucket, key } => write!(f, "no such key: {bucket}/{key}"),
            StoreError::BucketExists(b) => write!(f, "bucket exists: {b}"),
            StoreError::Unavailable => write!(f, "file server temporarily unavailable"),
            StoreError::BadPresignedUrl => write!(f, "presigned URL is expired or invalid"),
            StoreError::MissingChunks { missing } => {
                write!(f, "delta upload references {} unknown chunk(s)", missing.len())
            }
            StoreError::DeltaMismatch { reason } => write!(f, "delta upload mismatch: {reason}"),
            StoreError::MetadataTooLarge => {
                write!(f, "user metadata exceeds {MAX_USER_META_BYTES} bytes")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What the store keeps per object, under its key in the bucket's map:
/// two timestamps, the user metadata packed into one block and the
/// manifest of chunks the payload reassembles from — which is also the
/// only copy of the object's size and etag. The public [`ObjectMeta`]
/// is a view built on read ([`ObjRecord::meta`]).
struct ObjRecord {
    uploaded_at: SimTime,
    last_used: SimTime,
    /// [`pack_user`]'s block.
    user: Box<[u8]>,
    manifest: ChunkManifest,
}

impl ObjRecord {
    /// The object's public metadata, as `head`/`list`/`get`, a snapshot
    /// and the journal see it.
    fn meta(&self, key: &str) -> ObjectMeta {
        ObjectMeta {
            key: key.to_string(),
            size: self.manifest.total_len,
            etag: self.manifest.etag.clone(),
            uploaded_at: self.uploaded_at,
            last_used: self.last_used,
            user: unpack_user(&self.user),
        }
    }
}

/// Pack user metadata into one block: the pairs in key order, each a
/// length-prefixed key then value ([`put_str`]); of several pairs with
/// one key the last wins, as collecting them into a map would have it.
fn pack_user(mut pairs: Vec<(&str, &str)>) -> Box<[u8]> {
    pairs.sort_by_key(|&(k, _)| k);
    let bytes: usize = pairs.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
    let mut block = Vec::with_capacity(bytes);
    for (i, &(k, v)) in pairs.iter().enumerate() {
        // The sort is stable: the last of a run of equal keys is the
        // last one given.
        if pairs.get(i + 1).is_none_or(|&(next, _)| next != k) {
            put_str(&mut block, k);
            put_str(&mut block, v);
        }
    }
    block.into_boxed_slice()
}

/// [`pack_user`] of an upload's metadata, refused when the pairs as
/// offered come to more than [`MAX_USER_META_BYTES`].
fn pack_upload_meta<'m>(
    pairs: impl IntoIterator<Item = (&'m str, &'m str)>,
) -> Result<Box<[u8]>, StoreError> {
    let pairs: Vec<(&str, &str)> = pairs.into_iter().collect();
    if pairs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() > MAX_USER_META_BYTES {
        return Err(StoreError::MetadataTooLarge);
    }
    Ok(pack_user(pairs))
}

/// [`pack_user`] of a journaled or snapshotted metadata map.
fn pack_map(user: &BTreeMap<String, String>) -> Box<[u8]> {
    pack_user(user.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect())
}

/// The map a [`pack_user`] block stands for.
fn unpack_user(block: &[u8]) -> BTreeMap<String, String> {
    let mut r = Reader::new(block);
    let mut user = BTreeMap::new();
    while !r.done() {
        let pair = r.str().zip(r.str()).expect("pack_user wrote whole pairs of UTF-8");
        user.insert(pair.0, pair.1);
    }
    user
}

struct BucketState {
    rule: LifecycleRule,
    objects: BTreeMap<String, ObjRecord>,
}

/// Everything the store remembers: manifests, the chunk arena they
/// reference and the cumulative counters, behind the one lock of
/// [`StoreInner`]. Every mutation is one `&mut self` transition below
/// that moves all three together; the live API validates and journals
/// under the write lock and then runs the transition, replay
/// ([`StoreState::apply`]) decodes a record and runs the same one.
#[derive(Default)]
struct StoreState {
    buckets: BTreeMap<String, BucketState>,
    chunks: ChunkStore,
    /// Cumulative counters, kept in the shape a compaction snapshot
    /// carries them in.
    counters: SnapCounters,
}

struct StoreInner {
    clock: VirtualClock,
    /// Secret for presigned-URL signatures (per store instance).
    presign_secret: u64,
    state: RwLock<StoreState>,
    /// Cumulative microseconds spent waiting on the contended state
    /// lock. A host fact: surfaced in reports and telemetry, never in
    /// fingerprints.
    lock_wait_micros: AtomicU64,
    /// Remaining operations that should fail (fault injection).
    faults: AtomicU64,
    /// Probability-driven fault injection (chaos runs). Deployment
    /// wiring, like `wal`: set at most once, before traffic flows.
    injector: OnceLock<rai_faults::FaultInjector>,
    /// Optional write-ahead log for object mutations. Newly admitted
    /// chunk bytes ride the `Put` record of the upload that brought
    /// them.
    wal: OnceLock<Wal>,
}

/// Decide, once per manifest reference and before anything mutates,
/// where its bytes come from: `Some(bytes)` when the request carried
/// the chunk (the last copy wins if it carried several), `None` when it
/// dedups against the copy `resident` reports the length of; a
/// reference that is neither fails the request with
/// [`StoreError::MissingChunks`]. `verify` runs the delta-protocol
/// checks first: provided bytes hash to their claimed digest — checked
/// only for non-resident chunks, the ones that would actually be
/// written, four at a time ([`fnv::hash_lanes`]); the rest dedup
/// against the stored copy — then every reference's length agrees with
/// the bytes it will read back: the carried copy's and, since a
/// resident copy is the one kept, the resident copy's too.
fn resolve<'a>(
    manifest: &ChunkManifest,
    provided: &'a [Chunk],
    verify: bool,
    resident: impl Fn(u64) -> Option<usize>,
) -> Result<Vec<Option<&'a Bytes>>, StoreError> {
    let mismatch = |reason| Err(StoreError::DeltaMismatch { reason });
    // Keyed hasher: the digests are the uploader's to choose.
    let mut carried: HashMap<u64, (&Bytes, Option<usize>)> = HashMap::with_capacity(provided.len());
    // Each provided chunk is looked up once, as the hash lanes pull it.
    let fresh = provided.iter().filter(|c| {
        let stored = resident(c.digest);
        carried.insert(c.digest, (&c.data, stored));
        stored.is_none()
    });
    let mut sound = true;
    if verify {
        let claims = fresh.map(|c| (c.digest, &c.data[..]));
        fnv::hash_lanes(claims, |claimed, digest| sound &= claimed == digest);
    } else {
        // Replay: its own log is trusted, only the lookups run.
        fresh.for_each(drop);
    }
    if !sound {
        return mismatch("chunk bytes do not match claimed digest");
    }
    let mut sources = Vec::with_capacity(manifest.chunks.len());
    let mut missing = Vec::new();
    for r in &manifest.chunks {
        let (source, stored) = match carried.get(&r.digest) {
            Some(&(data, stored)) => (Some(data), stored),
            None => (None, resident(r.digest)),
        };
        // A wrong length outranks a missing chunk wherever the two sit
        // in the manifest: it returns at once, `missing` at the end.
        let lengths = [source.map(|data| data.len()), stored];
        if verify && lengths.into_iter().flatten().any(|n| n as u64 != u64::from(r.len)) {
            return mismatch("chunk length disagrees with manifest");
        }
        if source.is_none() && stored.is_none() {
            missing.push(r.digest);
        }
        sources.push(source);
    }
    if !missing.is_empty() {
        return Err(StoreError::MissingChunks { missing });
    }
    Ok(sources)
}

impl StoreState {
    fn object(&self, bucket: &str, key: &str) -> Result<&ObjRecord, StoreError> {
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        b.objects.get(key).ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })
    }

    fn release(&mut self, manifest: &ChunkManifest) {
        for r in &manifest.chunks {
            self.chunks.release(r.digest);
        }
    }

    /// The chunks an install of `manifest` will newly admit — the first
    /// reference to each non-resident digest, in manifest order: the
    /// bytes its `Put` record must carry.
    fn newly_admitted(
        &self,
        manifest: &ChunkManifest,
        sources: &[Option<&Bytes>],
    ) -> Vec<(u64, Bytes)> {
        let mut seen = HashSet::with_capacity(manifest.chunks.len());
        let mut first_new = |d: u64| !self.chunks.contains(d) && seen.insert(d);
        manifest
            .chunks
            .iter()
            .zip(sources)
            .filter(|(r, _)| first_new(r.digest))
            .map(|(r, source)| (r.digest, source.expect("new chunk was provided").clone()))
            .collect()
    }

    // ---- transitions: one body each, run by the live API and by replay

    fn create_bucket(&mut self, name: String, rule: LifecycleRule) {
        self.buckets
            .entry(name)
            .or_insert_with(|| BucketState { rule, objects: BTreeMap::new() });
    }

    /// A put happened: the cumulative counters say so whether or not
    /// its object survives (see [`StoreState::apply`]).
    fn count_put(&mut self, total_len: u64, wire_bytes: u64, delta: bool) {
        self.counters.puts += 1;
        self.counters.delta_puts += u64::from(delta);
        self.counters.bytes_uploaded += total_len;
        self.counters.bytes_wire += wire_bytes;
    }

    /// Put `manifest` under `bucket/key`, which must exist; `sources`
    /// is [`resolve`]'s answer for it. New references are taken before
    /// the previous object's are released, so an overwrite never frees
    /// chunks the new manifest shares with the old.
    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        bucket: &str,
        key: String,
        now: SimTime,
        manifest: ChunkManifest,
        sources: &[Option<&Bytes>],
        user: Box<[u8]>,
        wire_bytes: u64,
        delta: bool,
    ) {
        self.count_put(manifest.total_len, wire_bytes, delta);
        for (r, source) in manifest.chunks.iter().zip(sources) {
            let hit = self.chunks.retain(r.digest, *source).expect("availability resolved by caller");
            self.counters.dedup_hits += u64::from(hit);
        }
        let record = ObjRecord { uploaded_at: now, last_used: now, user, manifest };
        let b = self.buckets.get_mut(bucket).expect("bucket checked by caller");
        if let Some(prev) = b.objects.insert(key, record) {
            self.release(&prev.manifest);
        }
    }

    /// A `get` of `size` bytes happened at `now`: refresh `last_used`
    /// (which is what makes the paper's "one month after the last use"
    /// policy work) if the object is still there.
    fn touch(&mut self, bucket: &str, key: &str, now: SimTime, size: u64) {
        self.counters.gets += 1;
        self.counters.bytes_downloaded += size;
        if let Some(rec) = self.buckets.get_mut(bucket).and_then(|b| b.objects.get_mut(key)) {
            rec.last_used = now;
        }
    }

    fn remove(&mut self, bucket: &str, key: &str) {
        self.counters.deletes += 1;
        if let Some(rec) = self.buckets.get_mut(bucket).and_then(|b| b.objects.remove(key)) {
            self.release(&rec.manifest);
        }
    }

    /// Expire every object its bucket's rule dooms at `now`; returns
    /// how many. Expiry is manifest-aware: it releases the doomed
    /// object's chunk references rather than deleting bytes, so chunks
    /// shared with live objects survive and only unreferenced ones are
    /// freed.
    fn expire(&mut self, now: SimTime) -> u64 {
        let mut released: Vec<ChunkManifest> = Vec::new();
        for b in self.buckets.values_mut() {
            let rule = b.rule;
            let doomed: Vec<String> = b
                .objects
                .iter()
                .filter(|(_, o)| rule.is_expired(o.uploaded_at, o.last_used, now))
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                released.push(b.objects.remove(&k).expect("doomed key just listed").manifest);
            }
        }
        for manifest in &released {
            self.release(manifest);
        }
        self.counters.expired += released.len() as u64;
        released.len() as u64
    }

    /// Replace everything with a compaction snapshot. It carries the
    /// full physical payload at refcount zero; references are
    /// re-derived from its manifests. Returns how many objects were
    /// dropped because a chunk of theirs is missing.
    fn load_snapshot(
        &mut self,
        buckets: Vec<SnapBucket>,
        chunks: Vec<(u64, Bytes)>,
        counters: SnapCounters,
    ) -> u64 {
        *self = StoreState { counters, ..StoreState::default() };
        for (digest, data) in chunks {
            self.chunks.restore_chunk(digest, data);
        }
        let mut dropped = 0;
        for b in buckets {
            let mut objects = BTreeMap::new();
            for o in b.objects {
                let digests = o.manifest.chunks.iter().map(|r| r.digest);
                if !digests.clone().all(|d| self.chunks.contains(d)) {
                    dropped += 1;
                    continue;
                }
                for d in digests {
                    self.chunks.retain(d, None).expect("residency checked above");
                }
                let ObjectMeta { key, uploaded_at, last_used, user, .. } = o.meta;
                let record =
                    ObjRecord { uploaded_at, last_used, user: pack_map(&user), manifest: o.manifest };
                objects.insert(key, record);
            }
            self.buckets.insert(b.name, BucketState { rule: b.rule, objects });
        }
        dropped
    }

    /// The record [`StoreState::load_snapshot`] reads back.
    fn snapshot(&self) -> StoreRecord {
        StoreRecord::SnapshotStore {
            buckets: self
                .buckets
                .iter()
                .map(|(name, b)| SnapBucket {
                    name: name.clone(),
                    rule: b.rule,
                    objects: b
                        .objects
                        .iter()
                        .map(|(key, o)| SnapObject { meta: o.meta(key), manifest: o.manifest.clone() })
                        .collect(),
                })
                .collect(),
            chunks: self.chunks.snapshot_chunks(),
            counters: self.counters,
        }
    }

    /// Replay one journaled mutation through the transition the live
    /// API ran when it wrote the record. Returns how many objects were
    /// dropped (chunk bytes unavailable).
    fn apply(&mut self, rec: StoreRecord) -> u64 {
        match rec {
            StoreRecord::CreateBucket { name, rule } => self.create_bucket(name, rule),
            StoreRecord::Put {
                bucket,
                key,
                time_millis,
                manifest,
                new_chunks,
                user,
                wire_bytes,
                delta,
            } => {
                let carried: Vec<Chunk> =
                    new_chunks.into_iter().map(|(digest, data)| Chunk { digest, data }).collect();
                // Atomicity, as in put_delta: every reference resolves
                // before anything mutates. A miss means the bytes rode a
                // WAL record that was dropped as corrupt — the object
                // is unreadable and must not be installed.
                let sources = if self.buckets.contains_key(&bucket) {
                    resolve(&manifest, &carried, false, |d| self.chunks.resident_len(d)).ok()
                } else {
                    None
                };
                let Some(sources) = sources else {
                    // The operation happened historically: the
                    // cumulative counters say so without the object.
                    self.count_put(manifest.total_len, wire_bytes, delta);
                    return 1;
                };
                let now = SimTime::from_millis(time_millis);
                self.install(&bucket, key, now, manifest, &sources, pack_map(&user), wire_bytes, delta);
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                self.touch(&bucket, &key, SimTime::from_millis(time_millis), size);
            }
            StoreRecord::Delete { bucket, key } => self.remove(&bucket, &key),
            StoreRecord::Sweep { time_millis } => {
                self.expire(SimTime::from_millis(time_millis));
            }
            StoreRecord::SnapshotStore { buckets, chunks, counters } => {
                return self.load_snapshot(buckets, chunks, counters);
            }
        }
        0
    }
}

/// Cumulative usage snapshot — backs the paper's §VII resource-usage
/// numbers ("the file server held 100GB of data for 176 students"),
/// extended with the dedup split between logical and physical bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreUsage {
    /// Logical bytes currently resident (sum of object sizes; what a
    /// non-deduplicating store would hold).
    pub bytes_stored: u64,
    /// Physical bytes currently resident (each distinct chunk once).
    pub bytes_physical: u64,
    /// Bytes of object records currently resident: keys, packed user
    /// metadata and manifests (chunk references and etag) — what the
    /// store keeps *about* the objects, beside their bytes.
    pub metadata_bytes: u64,
    /// Distinct chunks currently resident.
    pub chunks: u64,
    /// Cumulative chunk references resolved against already-resident
    /// chunks (uploads avoided by dedup).
    pub chunks_dedup_total: u64,
    /// Objects currently resident.
    pub objects: u64,
    /// Total logical bytes ever uploaded.
    pub bytes_uploaded: u64,
    /// Total bytes that actually crossed the wire on uploads (full
    /// payloads for plain puts; manifest + missing chunks for deltas).
    pub bytes_wire: u64,
    /// Total bytes ever served.
    pub bytes_downloaded: u64,
    /// Put operations (plain and delta).
    pub puts: u64,
    /// Delta-put operations (subset of `puts`).
    pub delta_puts: u64,
    /// Get operations.
    pub gets: u64,
    /// Explicit deletes.
    pub deletes: u64,
    /// Objects removed by lifecycle sweeps.
    pub expired: u64,
}

/// The S3-like object store.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<StoreInner>,
}

/// Per-instance presign secret: a process-unique counter diffused
/// through the splitmix64 finalizer.
fn next_presign_secret() -> u64 {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x5241_4953);
    let mut z = COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, std::sync::atomic::Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ObjectStore {
    /// A store reading time from `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Self::with_state(clock, StoreState::default())
    }

    fn with_state(clock: VirtualClock, state: StoreState) -> Self {
        ObjectStore {
            inner: Arc::new(StoreInner {
                presign_secret: next_presign_secret(),
                clock,
                state: RwLock::new(state),
                lock_wait_micros: AtomicU64::new(0),
                faults: AtomicU64::new(0),
                injector: OnceLock::new(),
                wal: OnceLock::new(),
            }),
        }
    }

    /// `fast` if the lock was free (the uncontended path costs one
    /// `try_*`), else `slow()` with its wait charged to the lock-wait
    /// counter.
    fn charged<G>(&self, fast: Option<G>, slow: impl FnOnce() -> G) -> G {
        fast.unwrap_or_else(|| {
            let start = std::time::Instant::now();
            let guard = slow();
            let waited = start.elapsed().as_micros() as u64;
            self.inner.lock_wait_micros.fetch_add(waited, Ordering::Relaxed);
            guard
        })
    }

    /// Lock the state exclusively: every mutation, `get` included.
    fn write_state(&self) -> RwLockWriteGuard<'_, StoreState> {
        self.charged(self.inner.state.try_write(), || self.inner.state.write())
    }

    /// Lock the state shared (`has_chunks` probes, `head`, `list`,
    /// accounting): readers exclude only mutations.
    fn read_state(&self) -> RwLockReadGuard<'_, StoreState> {
        self.charged(self.inner.state.try_read(), || self.inner.state.read())
    }

    /// Cumulative microseconds spent waiting on the contended state
    /// lock — a host fact, never fingerprinted.
    pub fn lock_wait_micros(&self) -> u64 {
        self.inner.lock_wait_micros.load(Ordering::Relaxed)
    }

    /// Create a bucket with a lifecycle rule.
    pub fn create_bucket(&self, name: &str, rule: LifecycleRule) -> Result<(), StoreError> {
        let mut state = self.write_state();
        if state.buckets.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_string()));
        }
        if let Some(w) = self.inner.wal.get() {
            w.append(&StoreRecord::CreateBucket { name: name.to_string(), rule }.encode());
        }
        state.create_bucket(name.to_string(), rule);
        Ok(())
    }

    /// Whether a bucket exists.
    pub fn has_bucket(&self, name: &str) -> bool {
        self.read_state().buckets.contains_key(name)
    }

    /// Make the next `n` data operations (put/get) fail with
    /// [`StoreError::Unavailable`] — chaos testing for the paper's
    /// "robust to failures" requirement.
    pub fn inject_faults(&self, n: u64) {
        self.inner.faults.store(n, Ordering::SeqCst);
    }

    /// Attach a seeded fault injector: each put/get additionally fails
    /// with [`StoreError::Unavailable`] per the injector's plan
    /// (`store_put` / `store_get` probabilities). Coexists with the
    /// [`ObjectStore::inject_faults`] budget, which always fires first.
    /// Deployment wiring: a second injector panics.
    pub fn set_fault_injector(&self, injector: rai_faults::FaultInjector) {
        assert!(self.inner.injector.set(injector).is_ok(), "store fault injector is wired once");
    }

    fn take_fault(&self) -> bool {
        self.inner
            .faults
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn injected_fault(&self, kind: rai_faults::FaultKind) -> bool {
        self.inner.injector.get().is_some_and(|inj| inj.should_fail(kind))
    }

    /// Upload (or overwrite) an object from a whole payload; returns
    /// its etag. The payload is chunked server-side, so even plain
    /// puts dedup against resident content — but the full payload
    /// still crosses the wire. Delta-aware clients use
    /// [`ObjectStore::has_chunks`] + [`ObjectStore::put_delta`] to
    /// avoid that.
    ///
    /// Newly admitted chunks are kept as views of `data`, so each
    /// pins the payload it arrived in (DESIGN.md §10). `user_meta` is
    /// kept packed, for as long as the object lives: more than
    /// `MAX_USER_META_BYTES` of it is [`StoreError::MetadataTooLarge`].
    pub fn put<'m>(
        &self,
        bucket: &str,
        key: &str,
        data: impl Into<Bytes>,
        user_meta: impl IntoIterator<Item = (&'m str, &'m str)>,
    ) -> Result<String, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let user = pack_upload_meta(user_meta)?;
        let data = data.into();
        let (manifest, chunks) = chunk_shared(&data, ChunkerParams::for_len(data.len()));
        let size = manifest.total_len;
        let etag = manifest.etag.clone();
        self.commit_put(bucket, key, manifest, &chunks, false, user, size)?;
        Ok(etag)
    }

    /// The shared validate → journal → install tail of `put`/`put_delta`,
    /// all of it under the state write lock, so a put either fully
    /// happens or (on [`StoreError::MissingChunks`] /
    /// [`StoreError::DeltaMismatch`]) changes nothing, and — with a log
    /// attached — admission order and log order agree.
    ///
    /// `delta` marks a delta upload: `provided` is any subset of the
    /// manifest's chunks in any order and [`resolve`] runs the protocol
    /// checks. Otherwise `provided` is the chunker's own output, which
    /// pairs with the manifest positionally and needs none.
    #[allow(clippy::too_many_arguments)]
    fn commit_put(
        &self,
        bucket: &str,
        key: &str,
        manifest: ChunkManifest,
        provided: &[Chunk],
        delta: bool,
        user: Box<[u8]>,
        wire_bytes: u64,
    ) -> Result<(), StoreError> {
        let mut state = self.write_state();
        if !state.buckets.contains_key(bucket) {
            return Err(StoreError::NoSuchBucket(bucket.to_string()));
        }
        let sources: Vec<Option<&Bytes>> = if delta {
            resolve(&manifest, provided, true, |d| state.chunks.resident_len(d))?
        } else {
            let digests = manifest.chunks.iter().map(|r| r.digest);
            debug_assert!(digests.eq(provided.iter().map(|c| c.digest)));
            provided.iter().map(|c| Some(&c.data)).collect()
        };
        let now = self.inner.clock.now();
        // The record takes the manifest by move and hands it back for
        // the install: journaling does not copy it.
        let manifest = match self.inner.wal.get() {
            Some(w) => {
                let record = StoreRecord::Put {
                    bucket: bucket.to_string(),
                    key: key.to_string(),
                    time_millis: now.as_millis(),
                    new_chunks: state.newly_admitted(&manifest, &sources),
                    manifest,
                    user: unpack_user(&user),
                    wire_bytes,
                    delta,
                };
                w.append(&record.encode());
                let StoreRecord::Put { manifest, .. } = record else { unreachable!() };
                manifest
            }
            None => manifest,
        };
        state.install(bucket, key.to_string(), now, manifest, &sources, user, wire_bytes, delta);
        Ok(())
    }

    /// Which of `digests` are already resident? Returns one flag per
    /// input digest, in order. This is the discovery step of the
    /// delta-upload protocol; it is a metadata round trip and subject
    /// to the same transient faults as data reads.
    ///
    /// Pure presence checks answer under the shared half of the state
    /// lock, one guard per call.
    pub fn has_chunks(&self, digests: &[u64]) -> Result<Vec<bool>, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let state = self.read_state();
        Ok(digests.iter().map(|&d| state.chunks.contains(d)).collect())
    }

    /// Upload (or overwrite) an object as a manifest plus only the
    /// chunks the store does not already hold; returns the etag.
    ///
    /// `provided` may carry any subset of the manifest's chunks; every
    /// referenced chunk must either be provided or already resident,
    /// otherwise the upload fails atomically with
    /// [`StoreError::MissingChunks`] and no state changes. Supplied
    /// bytes are verified against the manifest's lengths, and against
    /// their claimed digest when not already resident (resident chunks
    /// dedup against the stored copy, so their provided bytes are
    /// never admitted and need no re-hash); a reference to a resident
    /// chunk must state the resident copy's length. Chunk boundaries
    /// are the uploader's business: any partition whose digests and
    /// lengths check out is accepted. What the store then keeps per
    /// object is not: an etag over `MAX_ETAG_BYTES` or metadata over
    /// `MAX_USER_META_BYTES` is refused like any other mismatch,
    /// before anything changes.
    ///
    /// Newly admitted chunks are kept as the views they were handed
    /// in as — no bytes are copied — so each pins the buffer it is a
    /// view of: the request body, for chunks an uploader packed
    /// (DESIGN.md §10).
    pub fn put_delta<'m>(
        &self,
        bucket: &str,
        key: &str,
        manifest: &ChunkManifest,
        provided: &[Chunk],
        user_meta: impl IntoIterator<Item = (&'m str, &'m str)>,
    ) -> Result<String, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let declared: u64 = manifest.chunks.iter().map(|r| r.len as u64).sum();
        if declared != manifest.total_len {
            return Err(StoreError::DeltaMismatch {
                reason: "manifest total_len disagrees with chunk lengths",
            });
        }
        if manifest.etag.len() > MAX_ETAG_BYTES {
            return Err(StoreError::DeltaMismatch { reason: "etag longer than 64 bytes" });
        }
        let user = pack_upload_meta(user_meta)?;

        let provided_bytes: u64 = provided.iter().map(|c| c.data.len() as u64).sum();
        let etag = manifest.etag.clone();
        let wire: u64 = provided_bytes + manifest.encoded_len();

        // The clone is the store's own copy of the caller's manifest.
        self.commit_put(bucket, key, manifest.clone(), provided, true, user, wire)?;
        Ok(etag)
    }

    /// Download an object, reassembled from its chunks. Refreshes its
    /// `last_used` stamp (which is what makes the paper's "one month
    /// after the last use" policy work).
    pub fn get(&self, bucket: &str, key: &str) -> Result<StoredObject, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let now = self.inner.clock.now();
        let mut state = self.write_state();
        let rec = state.object(bucket, key)?;
        // Manifests and chunks share this lock, so every chunk a
        // resident manifest references is resident.
        let data = assemble(&rec.manifest, |d| state.chunks.data(d))
            .expect("resident manifests always resolve");
        let out = StoredObject {
            meta: ObjectMeta { last_used: now, ..rec.meta(key) },
            data: Bytes::from(data),
        };
        if let Some(w) = self.inner.wal.get() {
            // `last_used` drives lifecycle expiry, so reads are
            // journaled too (as a metadata touch, not the payload).
            w.append(
                &StoreRecord::Touch {
                    bucket: bucket.to_string(),
                    key: key.to_string(),
                    time_millis: now.as_millis(),
                    size: out.meta.size,
                }
                .encode(),
            );
        }
        state.touch(bucket, key, now, out.meta.size);
        Ok(out)
    }

    /// Metadata only, without touching `last_used`.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        self.read_state().object(bucket, key).map(|o| o.meta(key))
    }

    /// Delete an object, releasing its chunk references.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let mut state = self.write_state();
        state.object(bucket, key)?;
        if let Some(w) = self.inner.wal.get() {
            w.append(
                &StoreRecord::Delete { bucket: bucket.to_string(), key: key.to_string() }
                    .encode(),
            );
        }
        state.remove(bucket, key);
        Ok(())
    }

    /// List object metadata under a key prefix, in key order. The
    /// instructor's "download all final submissions" tool drives this.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        let state = self.read_state();
        let b = state
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        Ok(b.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(key, o)| o.meta(key))
            .collect())
    }

    /// Create a presigned URL for `bucket/key`, valid until
    /// `expires_at` (virtual time). This is what the worker actually
    /// hands the client for the `/build` archive — downloadable without
    /// credentials, like an S3 presigned GET.
    pub fn presign(&self, bucket: &str, key: &str, expires_at: rai_sim::SimTime) -> String {
        let sig = self.presign_signature(bucket, key, expires_at);
        format!("rai-s3://{bucket}/{key}?expires={}&sig={sig:016x}", expires_at.as_millis())
    }

    fn presign_signature(&self, bucket: &str, key: &str, expires_at: rai_sim::SimTime) -> u64 {
        // Keyed FNV-1a over (secret, bucket, key, expiry). Not
        // cryptographic — matches the store's integrity-not-secrecy
        // threat model; real deployments use SigV4.
        let mut h = Fnv1a::with_basis(fnv::OFFSET_BASIS ^ self.inner.presign_secret);
        for field in [bucket.as_bytes(), key.as_bytes()] {
            h.update(field).push(0);
        }
        h.update(&expires_at.as_millis().to_le_bytes());
        h.digest()
    }

    /// Fetch through a presigned URL, enforcing expiry and signature.
    pub fn get_presigned(&self, url: &str) -> Result<StoredObject, StoreError> {
        let rest = url.strip_prefix("rai-s3://").ok_or(StoreError::BadPresignedUrl)?;
        let (path, query) = rest.split_once('?').ok_or(StoreError::BadPresignedUrl)?;
        let (bucket, key) = path.split_once('/').ok_or(StoreError::BadPresignedUrl)?;
        let mut expires = None;
        let mut sig = None;
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("expires", v)) => expires = v.parse::<u64>().ok(),
                Some(("sig", v)) => sig = u64::from_str_radix(v, 16).ok(),
                _ => {}
            }
        }
        let (Some(expires), Some(sig)) = (expires, sig) else {
            return Err(StoreError::BadPresignedUrl);
        };
        let expires_at = rai_sim::SimTime::from_millis(expires);
        if self.presign_signature(bucket, key, expires_at) != sig {
            return Err(StoreError::BadPresignedUrl);
        }
        if self.inner.clock.now() > expires_at {
            return Err(StoreError::BadPresignedUrl);
        }
        self.get(bucket, key)
    }

    /// Run a lifecycle sweep at the clock's current time; returns how
    /// many objects were expired. A real deployment runs this daily.
    pub fn sweep_lifecycle(&self) -> u64 {
        let now = self.inner.clock.now();
        let mut state = self.write_state();
        let expired = state.expire(now);
        // A sweep that expired nothing is a no-op at any replay time
        // and is not journaled; one that did is replayed at its
        // recorded time (expiry depends on the journaled timestamps).
        if expired > 0 {
            if let Some(w) = self.inner.wal.get() {
                w.append(&StoreRecord::Sweep { time_millis: now.as_millis() }.encode());
            }
        }
        expired
    }

    /// Usage snapshot.
    pub fn usage(&self) -> StoreUsage {
        let state = self.read_state();
        let mut bytes_stored = 0;
        let mut metadata_bytes = 0;
        let mut objects = 0;
        for b in state.buckets.values() {
            for (key, o) in &b.objects {
                bytes_stored += o.manifest.total_len;
                let manifest = std::mem::size_of_val(&o.manifest.chunks[..]) + o.manifest.etag.len();
                metadata_bytes += (key.len() + o.user.len() + manifest) as u64;
                objects += 1;
            }
        }
        let c = state.counters;
        StoreUsage {
            bytes_stored,
            bytes_physical: state.chunks.physical_bytes(),
            metadata_bytes,
            chunks: state.chunks.count(),
            chunks_dedup_total: c.dedup_hits,
            objects,
            bytes_uploaded: c.bytes_uploaded,
            bytes_wire: c.bytes_wire,
            bytes_downloaded: c.bytes_downloaded,
            puts: c.puts,
            delta_puts: c.delta_puts,
            gets: c.gets,
            deletes: c.deletes,
            expired: c.expired,
        }
    }

    /// The clock this store reads.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    // ---- durability --------------------------------------------------

    /// Attach a write-ahead log: every committed mutation from here
    /// on is journaled. Attach before the first mutation — the log
    /// must cover the store's whole history (or start from a
    /// snapshot). Deployment wiring: a second log panics.
    pub fn attach_wal(&self, wal: Wal) {
        assert!(self.inner.wal.set(wal).is_ok(), "store WAL is wired once");
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<Wal> {
        self.inner.wal.get().cloned()
    }

    /// Force the attached log's buffered appends to stable storage
    /// (durability point). No-op without a WAL.
    pub fn sync_wal(&self) {
        if let Some(w) = self.inner.wal.get() {
            w.sync();
        }
    }

    /// Rebuild a store from `wal`, then attach the log to the rebuilt
    /// store so it keeps journaling. Corrupt WAL records were already
    /// dropped by the framing layer; logically-malformed payloads and
    /// objects whose chunk bytes were lost with a dropped record are
    /// counted in the returned [`StoreRecovery`] — replay never
    /// panics and never installs an unreadable object.
    pub fn recover(clock: VirtualClock, wal: Wal) -> (ObjectStore, StoreRecovery) {
        let replay = wal.replay();
        let mut recovery = StoreRecovery { stats: replay.stats, ..StoreRecovery::default() };
        let mut state = StoreState::default();
        for payload in &replay.records {
            match StoreRecord::decode(payload) {
                Some(rec) => {
                    recovery.objects_dropped += state.apply(rec);
                    recovery.applied += 1;
                }
                None => recovery.malformed_dropped += 1,
            }
        }
        // Chunks no surviving manifest references (a snapshot's, whose
        // object was dropped) would otherwise linger with a zero
        // refcount.
        state.chunks.prune_unreferenced();
        let store = ObjectStore::with_state(clock, state);
        store.attach_wal(wal);
        (store, recovery)
    }

    /// Compact the attached log into one snapshot record if its size
    /// warrants it (per [`rai_wal::DurabilityConfig`]). Call only at
    /// quiesced points — the snapshot must not interleave with
    /// concurrent mutations. Returns whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.get() else {
            return false;
        };
        if !wal.should_compact() {
            return false;
        }
        let state = self.read_state();
        wal.compact(std::iter::once(state.snapshot().encode()));
        true
    }
}

/// What [`ObjectStore::recover`] reconstructed and what it had to
/// drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Framing-layer replay statistics (records, corruption, torn
    /// bytes).
    pub stats: rai_wal::ReplayStats,
    /// Logical records applied.
    pub(crate) applied: u64,
    /// Records whose payload failed to decode (dropped, counted).
    pub malformed_dropped: u64,
    /// Objects discarded because their chunk bytes were lost with a
    /// corrupt record.
    pub objects_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_archive::chunk::{chunk_bytes, chunk_shared};
    use rai_sim::SimDuration;

    fn store() -> ObjectStore {
        let s = ObjectStore::new(VirtualClock::new());
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        s
    }

    /// Non-repeating payload so every chunk of it gets a distinct
    /// digest (uniform payloads dedup against themselves).
    fn varied(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn put_get_round_trip() {
        let s = store();
        let etag = s.put("uploads", "team1/proj.tar", &b"bytes"[..], []).unwrap();
        let obj = s.get("uploads", "team1/proj.tar").unwrap();
        assert_eq!(obj.data.as_ref(), b"bytes");
        assert_eq!(obj.meta.etag, etag);
        assert_eq!(obj.meta.size, 5);
    }

    #[test]
    fn missing_bucket_and_key() {
        let s = store();
        assert!(matches!(
            s.put("nope", "k", &b""[..], []),
            Err(StoreError::NoSuchBucket(_))
        ));
        assert!(matches!(
            s.get("uploads", "missing"),
            Err(StoreError::NoSuchKey { .. })
        ));
        assert!(matches!(
            s.delete("uploads", "missing"),
            Err(StoreError::NoSuchKey { .. })
        ));
        assert!(matches!(
            s.create_bucket("keep", LifecycleRule::Keep),
            Err(StoreError::BucketExists(_))
        ));
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = store();
        s.put("uploads", "k", &b"v1"[..], []).unwrap();
        s.put("uploads", "k", &b"v2!"[..], []).unwrap();
        assert_eq!(s.get("uploads", "k").unwrap().data.as_ref(), b"v2!");
        assert_eq!(s.usage().objects, 1);
        assert_eq!(s.usage().bytes_uploaded, 5, "uploads accumulate");
        assert_eq!(s.usage().bytes_stored, 3, "stored reflects current");
        assert_eq!(s.usage().bytes_physical, 3, "old chunks released");
    }

    #[test]
    fn list_by_prefix_is_ordered() {
        let s = store();
        s.put("uploads", "team2/a", &b""[..], []).unwrap();
        s.put("uploads", "team1/b", &b""[..], []).unwrap();
        s.put("uploads", "team1/a", &b""[..], []).unwrap();
        let keys: Vec<String> = s
            .list("uploads", "team1/")
            .unwrap()
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, vec!["team1/a", "team1/b"]);
        assert_eq!(s.list("uploads", "").unwrap().len(), 3);
    }

    #[test]
    fn user_metadata_preserved() {
        let s = store();
        s.put("uploads", "k", &b""[..], [("team", "rust")]).unwrap();
        let meta = s.head("uploads", "k").unwrap();
        assert_eq!(meta.user.get("team").map(String::as_str), Some("rust"));
    }

    #[test]
    fn packed_metadata_reads_back_as_the_map_it_stands_for() {
        let s = store();
        // Out of order, an empty key, an empty value, multi-byte text
        // and a key given twice: the later value wins.
        let pairs = [("team", "old"), ("", "no key"), ("kind", ""), ("名", "🦀"), ("team", "rust")];
        s.put("uploads", "k", &b"x"[..], pairs).unwrap();
        let expected: BTreeMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        assert_eq!(expected["team"], "rust");
        assert_eq!(s.head("uploads", "k").unwrap().user, expected);
        assert_eq!(s.get("uploads", "k").unwrap().meta.user, expected);
        assert_eq!(s.list("uploads", "").unwrap()[0].user, expected);
        // The block holds the pairs once, in key order.
        let state = s.inner.state.read();
        let block = &state.buckets["uploads"].objects["k"].user;
        assert_eq!(block.len(), expected.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>());
        assert_eq!(pack_map(&expected), *block);
    }

    #[test]
    fn oversized_etag_and_metadata_are_refused_before_anything_changes() {
        let s = store();
        let payload = varied(2000, 3);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        s.put_delta("keep", "k", &manifest, &chunks, [("team", "rust")]).unwrap();
        let before = (s.usage(), s.head("keep", "k").unwrap());

        // The uploader names the etag and the metadata; the store
        // decides how much of either it keeps.
        let long_etag = ChunkManifest { etag: "e".repeat(MAX_ETAG_BYTES + 1), ..manifest.clone() };
        assert_eq!(
            s.put_delta("keep", "k", &long_etag, &chunks, []),
            Err(StoreError::DeltaMismatch { reason: "etag longer than 64 bytes" })
        );
        let value = "v".repeat(MAX_USER_META_BYTES - 3);
        for bucket in ["keep", "nope"] {
            let refused = Err(StoreError::MetadataTooLarge);
            assert_eq!(s.put_delta(bucket, "k", &manifest, &chunks, [("team", value.as_str())]), refused);
            assert_eq!(s.put(bucket, "k", payload.clone(), [("team", value.as_str())]), refused);
        }
        assert_eq!((s.usage(), s.head("keep", "k").unwrap()), before);

        // At the cap exactly, and with an etag of 64 bytes, it is kept.
        let at_cap = ChunkManifest { etag: "e".repeat(MAX_ETAG_BYTES), ..manifest.clone() };
        s.put_delta("keep", "k", &at_cap, &[], [("tea", value.as_str())]).unwrap();
        let meta = s.head("keep", "k").unwrap();
        assert_eq!((meta.etag.len(), meta.user["tea"].len()), (MAX_ETAG_BYTES, MAX_USER_META_BYTES - 3));
    }

    #[test]
    fn lifecycle_after_upload() {
        let s = store();
        s.put("builds", "old", &b"x"[..], []).unwrap();
        s.clock().advance(SimDuration::from_days(91));
        s.put("builds", "new", &b"y"[..], []).unwrap();
        assert_eq!(s.sweep_lifecycle(), 1);
        assert!(s.get("builds", "old").is_err());
        assert!(s.get("builds", "new").is_ok());
        assert_eq!(s.usage().expired, 1);
    }

    #[test]
    fn lifecycle_last_use_refresh_keeps_object_alive() {
        let s = store();
        s.put("uploads", "proj", &b"x"[..], []).unwrap();
        // Touch it every 20 days for 100 days — survives a 30-day rule.
        for _ in 0..5 {
            s.clock().advance(SimDuration::from_days(20));
            s.get("uploads", "proj").unwrap();
            assert_eq!(s.sweep_lifecycle(), 0);
        }
        // Then go idle for 31 days.
        s.clock().advance(SimDuration::from_days(31));
        assert_eq!(s.sweep_lifecycle(), 1);
    }

    #[test]
    fn head_does_not_refresh_last_use() {
        let s = store();
        s.put("uploads", "proj", &b"x"[..], []).unwrap();
        s.clock().advance(SimDuration::from_days(29));
        s.head("uploads", "proj").unwrap();
        s.clock().advance(SimDuration::from_days(2));
        assert_eq!(s.sweep_lifecycle(), 1, "head must not reset the clock");
    }

    #[test]
    fn usage_counters() {
        let s = store();
        s.put("keep", "a", vec![0u8; 100], []).unwrap();
        s.put("keep", "b", vec![0u8; 50], []).unwrap();
        s.get("keep", "a").unwrap();
        s.delete("keep", "b").unwrap();
        let u = s.usage();
        assert_eq!(u.puts, 2);
        assert_eq!(u.gets, 1);
        assert_eq!(u.deletes, 1);
        assert_eq!(u.bytes_uploaded, 150);
        assert_eq!(u.bytes_downloaded, 100);
        assert_eq!(u.bytes_stored, 100);
        assert_eq!(u.objects, 1);
    }

    #[test]
    fn identical_payloads_share_chunks() {
        let s = store();
        let payload = varied(4000, 7);
        s.put("keep", "a", payload.clone(), []).unwrap();
        s.put("keep", "b", payload.clone(), []).unwrap();
        s.put("uploads", "c", payload.clone(), []).unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_stored, 12_000, "logical triples");
        assert_eq!(u.bytes_physical, 4_000, "physical stays one copy");
        assert!(u.chunks_dedup_total > 0);
        // Every copy reads back intact.
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(s.get("uploads", "c").unwrap().data.as_ref(), &payload[..]);
    }

    #[test]
    fn delete_frees_chunks_only_at_last_reference() {
        let s = store();
        let payload = varied(2000, 13);
        s.put("keep", "a", payload.clone(), []).unwrap();
        s.put("keep", "b", payload.clone(), []).unwrap();
        s.delete("keep", "a").unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_physical, 2000, "b still references the chunks");
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        s.delete("keep", "b").unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_physical, 0);
        assert_eq!(u.chunks, 0);
    }

    #[test]
    fn expiry_spares_chunks_shared_with_live_objects() {
        let s = store();
        let payload = varied(3000, 17);
        // One copy in a bucket that expires, one in a bucket that keeps.
        s.put("builds", "doomed", payload.clone(), []).unwrap();
        s.put("keep", "survivor", payload.clone(), []).unwrap();
        s.clock().advance(SimDuration::from_days(91));
        assert_eq!(s.sweep_lifecycle(), 1);
        let u = s.usage();
        assert_eq!(u.objects, 1);
        assert_eq!(u.bytes_physical, 3000, "shared chunks must survive expiry");
        assert_eq!(
            s.get("keep", "survivor").unwrap().data.as_ref(),
            &payload[..],
            "survivor still reassembles after the sweep"
        );
        // Once the survivor goes too, the chunks are actually freed.
        s.delete("keep", "survivor").unwrap();
        assert_eq!(s.usage().bytes_physical, 0);
    }

    #[test]
    fn has_chunks_reports_residency() {
        let s = store();
        let payload = vec![5u8; 1000];
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        let flags = s.has_chunks(&manifest.digests()).unwrap();
        assert!(flags.iter().all(|&f| !f), "nothing resident yet");
        s.put("keep", "a", payload, []).unwrap();
        let flags = s.has_chunks(&manifest.digests()).unwrap();
        assert!(flags.iter().all(|&f| f), "all resident after put");
    }

    #[test]
    fn put_delta_round_trips_and_saves_wire_bytes() {
        let s = store();
        let payload = varied(5000, 1);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        // First upload must carry everything.
        let etag = s.put_delta("keep", "a", &manifest, &chunks, []).unwrap();
        assert_eq!(s.get("keep", "a").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(s.get("keep", "a").unwrap().meta.etag, etag);
        // Second upload of the same content: manifest only.
        s.put_delta("keep", "b", &manifest, &[], []).unwrap();
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        let u = s.usage();
        assert_eq!(u.delta_puts, 2);
        assert_eq!(u.bytes_uploaded, 10_000, "logical counts both");
        assert_eq!(
            u.bytes_wire,
            5_000 + 2 * manifest.encoded_len(),
            "second upload ships the manifest only, no chunk bytes"
        );
        assert_eq!(u.bytes_physical, 5_000);
    }

    #[test]
    fn resident_chunks_are_the_views_they_arrived_as() {
        let s = store();
        let payload = varied(20_000, 23);
        // A request body and views of it, as an uploader sends them.
        let (manifest, chunks) = chunk_shared(&Bytes::from(payload.clone()), ChunkerParams::DEFAULT);
        let body = chunks[0].data.buffer().unwrap();
        s.put_delta("keep", "k", &manifest, &chunks, []).unwrap();
        {
            let state = s.inner.state.read();
            for c in &chunks {
                let held = state.chunks.data(c.digest).unwrap();
                assert!(held.buffer().unwrap().ptr_eq(&body), "chunk {:x} was copied", c.digest);
            }
        }
        // The store's views alone keep the body alive …
        drop(chunks);
        assert_eq!(body.upgrade().expect("pinned by resident chunks").len(), payload.len());
        assert_eq!(s.get("keep", "k").unwrap().data.as_ref(), &payload[..]);
        // … and the last object referencing it takes it along.
        s.delete("keep", "k").unwrap();
        assert!(body.upgrade().is_none(), "request body outlived its last chunk");
    }

    #[test]
    fn put_delta_missing_chunks_is_atomic() {
        let s = store();
        let payload = varied(4000, 2);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        assert!(manifest.chunks.len() >= 2, "payload must span chunks");
        // Send all but one chunk against an empty store.
        let partial = &chunks[1..];
        let err = s.put_delta("keep", "a", &manifest, partial, []).unwrap_err();
        match err {
            StoreError::MissingChunks { missing } => {
                assert_eq!(missing, vec![chunks[0].digest]);
            }
            other => panic!("expected MissingChunks, got {other:?}"),
        }
        // Nothing was stored, nothing leaked.
        let u = s.usage();
        assert_eq!(u.objects, 0);
        assert_eq!(u.bytes_physical, 0);
        assert_eq!(u.chunks, 0);
        assert!(s.get("keep", "a").is_err());
    }

    #[test]
    fn put_delta_rejects_corrupt_chunks() {
        let s = store();
        let payload = vec![4u8; 1000];
        let (manifest, mut chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        chunks[0].data = Bytes::copy_from_slice(b"not the real bytes");
        assert!(matches!(
            s.put_delta("keep", "a", &manifest, &chunks, []),
            Err(StoreError::DeltaMismatch { .. })
        ));
        let mut bad = manifest.clone();
        bad.total_len += 1;
        assert!(matches!(
            s.put_delta("keep", "a", &bad, &[], []),
            Err(StoreError::DeltaMismatch { .. })
        ));
    }

    #[test]
    fn presigned_url_round_trip_and_expiry() {
        let s = store();
        s.put("keep", "build.tar", &b"artifact"[..], []).unwrap();
        let url = s.presign("keep", "build.tar", SimTime::ZERO + SimDuration::from_days(7));
        assert!(url.starts_with("rai-s3://keep/build.tar?"));
        assert_eq!(s.get_presigned(&url).unwrap().data.as_ref(), b"artifact");
        // Tampered key fails.
        let tampered = url.replace("build.tar", "other.tar");
        assert_eq!(s.get_presigned(&tampered), Err(StoreError::BadPresignedUrl));
        // Tampered expiry fails (signature covers it).
        let extended = url.replace("expires=", "expires=9");
        assert_eq!(s.get_presigned(&extended), Err(StoreError::BadPresignedUrl));
        // Garbage fails.
        assert_eq!(s.get_presigned("http://nope"), Err(StoreError::BadPresignedUrl));
        // After expiry it stops working.
        s.clock().advance(SimDuration::from_days(8));
        assert_eq!(s.get_presigned(&url), Err(StoreError::BadPresignedUrl));
    }

    #[test]
    fn presigned_urls_differ_across_stores() {
        let a = store();
        let b = store();
        a.put("keep", "k", &b"x"[..], []).unwrap();
        b.put("keep", "k", &b"x"[..], []).unwrap();
        let url_a = a.presign("keep", "k", SimTime::ZERO + SimDuration::from_days(1));
        assert!(b.get_presigned(&url_a).is_err(), "cross-store URLs must not validate");
    }

    #[test]
    fn fault_injection_fails_then_recovers() {
        let s = store();
        s.put("keep", "k", &b"v"[..], []).unwrap();
        s.inject_faults(2);
        assert_eq!(s.get("keep", "k"), Err(StoreError::Unavailable));
        assert_eq!(s.put("keep", "k2", &b"v"[..], []), Err(StoreError::Unavailable));
        // Budget exhausted: service recovers.
        assert!(s.get("keep", "k").is_ok());
        assert!(s.put("keep", "k2", &b"v"[..], []).is_ok());
    }

    #[test]
    fn seeded_injector_fails_ops_reproducibly() {
        let run = || {
            let s = store();
            s.set_fault_injector(rai_faults::FaultInjector::new(rai_faults::FaultPlan {
                store_put: 0.2,
                store_get: 0.2,
                ..rai_faults::FaultPlan::none(5)
            }));
            let mut outcomes = Vec::new();
            for i in 0..100 {
                outcomes.push(s.put("keep", &format!("k{i}"), &b"v"[..], []).is_err());
                outcomes.push(s.get("keep", &format!("k{i}")).is_err());
            }
            outcomes
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fault stream");
        assert!(a.iter().any(|&e| e), "p=0.2 over 200 ops should fire");
        assert!(a.iter().any(|&e| !e), "and should not fire every time");
    }

    fn durable_store(config: rai_wal::DurabilityConfig) -> (ObjectStore, rai_wal::MemDisk) {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(Arc::new(disk.clone()), config);
        let s = ObjectStore::new(VirtualClock::new());
        // Attach before the first mutation so the log covers the
        // store's whole history, bucket creation included.
        s.attach_wal(wal);
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        (s, disk)
    }

    fn reopen(disk: &rai_wal::MemDisk, clock: VirtualClock) -> (ObjectStore, StoreRecovery) {
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        ObjectStore::recover(clock, wal)
    }

    fn fingerprint(s: &ObjectStore) -> (StoreUsage, Vec<(String, Vec<ObjectMeta>)>) {
        let listings = ["builds", "keep", "uploads"]
            .iter()
            .filter(|b| s.has_bucket(b))
            .map(|b| (b.to_string(), s.list(b, "").unwrap()))
            .collect();
        (s.usage(), listings)
    }

    #[test]
    fn recover_replays_to_identical_state() {
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let payload = varied(5000, 21);
        s.put("uploads", "team1/proj.tar", payload.clone(), []).unwrap();
        // Identical re-upload via delta: exercises dedup in the log
        // (the second Put journals zero new chunk bytes).
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        s.put_delta("keep", "copy", &manifest, &chunks, []).unwrap();
        s.put("builds", "b1", varied(800, 22), [("job", "42")])
            .unwrap();
        s.clock().advance(SimDuration::from_days(10));
        s.get("uploads", "team1/proj.tar").unwrap();
        s.put("builds", "b1", varied(900, 23), []).unwrap(); // overwrite
        s.put("builds", "gone", &b"x"[..], []).unwrap();
        s.delete("builds", "gone").unwrap();
        s.clock().advance(SimDuration::from_days(95));
        assert!(s.sweep_lifecycle() > 0, "builds + stale uploads expire");
        s.sync_wal();

        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_days(105));
        let (r, recovery) = reopen(&disk, clock);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.objects_dropped, 0);
        assert!(recovery.applied > 0);
        assert_eq!(fingerprint(&r), fingerprint(&s), "replayed state must be identical");
        assert_eq!(
            r.get("keep", "copy").unwrap().data.as_ref(),
            &payload[..],
            "payloads reassemble from replayed chunks"
        );

        // The recovered store keeps journaling: mutate, reopen again.
        r.put("keep", "after", &b"post-recovery"[..], []).unwrap();
        r.sync_wal();
        let (r2, _) = reopen(&disk, VirtualClock::new());
        assert_eq!(fingerprint(&r2), fingerprint(&r));
        assert_eq!(r2.get("keep", "after").unwrap().data.as_ref(), b"post-recovery");
    }

    #[test]
    fn store_compaction_preserves_state_and_shrinks_log() {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig {
                compact_min_bytes: 1,
                compact_factor: 2,
                ..rai_wal::DurabilityConfig::durable()
            },
        );
        let s = ObjectStore::new(VirtualClock::new());
        s.attach_wal(wal);
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        // Overwrite one key many times: the log accumulates dead puts
        // the snapshot does not carry.
        for i in 0..50u64 {
            s.put("keep", "hot", varied(1200, i), []).unwrap();
        }
        s.sync_wal();
        let before = disk.total_bytes();
        assert!(s.maybe_compact(), "50 dead overwrites must trip the threshold");
        let after = disk.total_bytes();
        assert!(
            after * 4 < before,
            "snapshot should be far smaller than the log ({after} vs {before})"
        );
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s));
        assert_eq!(
            r.get("keep", "hot").unwrap().data,
            s.get("keep", "hot").unwrap().data
        );
    }

    #[test]
    fn torn_tail_loses_only_unsynced_puts() {
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let a = varied(2000, 31);
        s.put("keep", "synced", a.clone(), []).unwrap();
        s.sync_wal();
        s.put("keep", "unsynced", varied(2000, 32), []).unwrap();
        let profile = rai_faults::DiskFaultProfile {
            torn_tail: 1.0,
            ..rai_faults::DiskFaultProfile::none(9)
        };
        let faults = disk.crash_with(&profile, 0);
        assert!(!faults.is_empty(), "profile guarantees a torn tail");
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert!(
            recovery.stats.torn_bytes > 0 || recovery.stats.corrupt_dropped > 0,
            "the tear must be detected, not silently accepted"
        );
        assert_eq!(
            r.get("keep", "synced").unwrap().data.as_ref(),
            &a[..],
            "synced object survives intact"
        );
        let objects = r.usage().objects;
        assert!(objects == 1 || objects == 2, "unsynced put may or may not survive");
        // Whatever survived is fully readable.
        for meta in r.list("keep", "").unwrap() {
            r.get("keep", &meta.key).unwrap();
        }
    }

    #[test]
    fn replay_drops_objects_whose_chunk_bytes_were_lost() {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        let payload = varied(3000, 41);
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        wal.append(
            &StoreRecord::CreateBucket { name: "keep".into(), rule: LifecycleRule::Keep }
                .encode(),
        );
        // A dedup'd Put whose chunk bytes rode an earlier record that
        // was dropped as corrupt: nothing in the log carries the bytes.
        wal.append(
            &StoreRecord::Put {
                bucket: "keep".into(),
                key: "orphan".into(),
                time_millis: 0,
                manifest,
                new_chunks: Vec::new(),
                user: BTreeMap::new(),
                wire_bytes: 0,
                delta: true,
            }
            .encode(),
        );
        wal.sync();
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.objects_dropped, 1, "unreadable object must be dropped");
        assert_eq!(r.usage().objects, 0);
        assert_eq!(r.usage().bytes_physical, 0, "no orphaned chunks linger");
        // The store stays fully functional.
        r.put("keep", "fresh", &b"ok"[..], []).unwrap();
        assert_eq!(r.get("keep", "fresh").unwrap().data.as_ref(), b"ok");
    }

    #[test]
    fn replay_reproduces_every_chunk_lifecycle_transition() {
        // Dedup'd delta puts, overwrites, deletes, expiry, and content
        // re-admitted after its last reference died (the bytes are
        // freed and ride the later `Put` record again).
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let payload = varied(5000, 77);
        s.put("uploads", "team/proj.tar", payload.clone(), []).unwrap();
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        s.put_delta("keep", "copy", &manifest, &chunks, []).unwrap();
        for i in 0..8u64 {
            s.put("builds", &format!("b{i}"), varied(1500 + i as usize * 37, i), [])
                .unwrap();
        }
        s.put("builds", "b3", varied(900, 103), []).unwrap(); // overwrite
        s.delete("keep", "copy").unwrap();
        s.delete("uploads", "team/proj.tar").unwrap();
        s.put("keep", "reborn", payload.clone(), []).unwrap();
        s.clock().advance(SimDuration::from_days(95));
        s.sweep_lifecycle();
        s.sync_wal();
        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_days(95));
        let (r, recovery) = reopen(&disk, clock);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s));
        assert_eq!(r.get("keep", "reborn").unwrap().data.as_ref(), &payload[..]);
    }

    #[test]
    fn replay_classifies_a_retired_record_tag_as_malformed() {
        // Tag 7 framed a per-shard chunk install in a layout this store
        // no longer writes. A log holding one is not this store's: the
        // record is dropped and counted, everything else recovers.
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let before = varied(3000, 51);
        s.put("keep", "before", before.clone(), []).unwrap();
        let mut retired = vec![7u8];
        retired.extend_from_slice(&0xFEED_FACE_u64.to_le_bytes());
        retired.extend_from_slice(&10u32.to_le_bytes());
        retired.extend_from_slice(b"chunk body");
        assert_eq!(StoreRecord::decode(&retired), None);
        s.wal().unwrap().append(&retired);
        let after = varied(3000, 52);
        s.put("keep", "after", after.clone(), []).unwrap();
        s.sync_wal();

        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.malformed_dropped, 1, "the retired record is counted, not applied");
        assert_eq!(recovery.stats.corrupt_dropped, 0, "its frame was intact");
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s));
        assert!(!r.has_chunks(&[0xFEED_FACE]).unwrap()[0], "nothing of it was installed");
        assert_eq!(r.get("keep", "before").unwrap().data.as_ref(), &before[..]);
        assert_eq!(r.get("keep", "after").unwrap().data.as_ref(), &after[..]);
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let s = store();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}/obj{i}");
                    s.put("keep", &key, vec![t as u8; 10], []).unwrap();
                    let got = s.get("keep", &key).unwrap();
                    assert_eq!(got.data.len(), 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.usage().objects, 400);
    }
}
