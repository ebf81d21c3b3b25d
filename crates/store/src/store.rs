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

use crate::dedup::{ChunkStore, Take};
use crate::journal::{self, SnapBucket, SnapCounters, StoreRecord};
use crate::lifecycle::LifecycleRule;
use crate::object::{ObjRecord, ObjectMeta, StoredObject};
use bytes::Bytes;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use rai_archive::chunk::{
    assemble_refs, chunk_shared, Chunk, ChunkManifest, ChunkRef, ChunkerParams,
};
use rai_archive::digits::{decimal, hex};
use rai_archive::fnv::{self, Fnv1a};
use rai_sim::{IntMap, SimTime, VirtualClock};
use rai_wal::{Wal, MAX_RECORD};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Store errors.
#[derive(Debug, PartialEq, Eq)]
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

/// An upload's metadata pairs, refused when they come, as offered, to
/// more than [`MAX_USER_META_BYTES`].
fn upload_pairs<'m>(
    pairs: impl IntoIterator<Item = (&'m str, &'m str)>,
) -> Result<Vec<(&'m str, &'m str)>, StoreError> {
    let pairs: Vec<(&str, &str)> = pairs.into_iter().collect();
    if pairs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() > MAX_USER_META_BYTES {
        return Err(StoreError::MetadataTooLarge);
    }
    Ok(pairs)
}

struct BucketState {
    rule: LifecycleRule,
    objects: BTreeMap<Box<str>, ObjRecord>,
}

/// Everything the store remembers: object records, the chunk arena they
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
    /// Probability-driven fault injection (chaos runs). Deployment
    /// wiring, like `wal`: set at most once, before traffic flows.
    injector: OnceLock<rai_faults::FaultInjector>,
    /// Optional write-ahead log for object mutations. Newly admitted
    /// chunk bytes ride the `Put` record of the upload that brought
    /// them.
    wal: OnceLock<Wal>,
}

/// The chunks a put carried, by digest — of several copies of one, the
/// last one given — and what the admission pass found of each digest,
/// which decides whose bytes [`Carried::hash_true`] hashes. The digests
/// are the uploader's to choose, so the map is keyed: an [`IntMap`].
struct Carried<'p> {
    chunks: &'p [Chunk],
    /// Each carried digest's last copy, by position, and what the pass
    /// found of it.
    copies: IntMap<u64, (usize, Seen)>,
}

/// What the admission pass found of a carried digest.
#[derive(Clone, Copy, PartialEq)]
enum Seen {
    /// No reference reached it (yet).
    Unreached,
    /// A reference found it resident.
    Resident,
    /// A reference admitted it from the carried copy.
    Admitted,
}

/// What an admission took: how many references were dedup hits, and
/// (when a journal records the put) the chunks it newly admitted.
struct Admission<'p> {
    hits: u64,
    admitted: Vec<(u64, &'p Bytes)>,
}

impl<'p> Carried<'p> {
    fn new(chunks: &'p [Chunk]) -> Self {
        let mut copies = IntMap::with_capacity_and_hasher(chunks.len(), Default::default());
        for (at, c) in chunks.iter().enumerate() {
            copies.insert(c.digest, (at, Seen::Unreached));
        }
        Carried { chunks, copies }
    }

    /// Whether every carried chunk that was not resident before the put
    /// hashes to its claimed digest — each copy of it, four at a time
    /// ([`fnv::hash_lanes`]), in the order they were carried. The rest
    /// dedup against the stored copy. A digest no reference reached is
    /// looked up in `resident`, which must answer as the arena stood
    /// before the put.
    fn hash_true(&self, resident: impl Fn(u64) -> bool) -> bool {
        let fresh = self.chunks.iter().filter(|c| match self.copies[&c.digest].1 {
            Seen::Admitted => true,
            Seen::Resident => false,
            Seen::Unreached => !resident(c.digest),
        });
        let mut sound = true;
        let claims = fresh.map(|c| (c.digest, &c.data[..]));
        fnv::hash_lanes(claims, |claimed, digest| sound &= claimed == digest);
        sound
    }
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

    fn release(&mut self, record: &ObjRecord) {
        for r in record.refs() {
            self.chunks.release(r.digest);
        }
    }

    /// Take one reference on each chunk `record` references, in
    /// manifest order, probing the arena once per reference: a
    /// resident chunk is a dedup hit, one `carried` holds is admitted
    /// from that copy, and any other is missing. With `verify` the
    /// delta protocol's checks run too, in their precedence: a carried
    /// chunk the arena did not hold must hash to its claimed digest;
    /// then every reference must state the length of the bytes it will
    /// read back — the carried copy's and, since a resident copy is the
    /// one kept, the resident copy's — which outranks a missing chunk
    /// wherever the two sit; then none may be missing
    /// ([`StoreError::MissingChunks`] lists every unresolved reference,
    /// in manifest order). A refused admission gives back every
    /// reference it took, so the arena is as it was.
    ///
    /// With `journal`, the admission lists the chunks it newly
    /// admitted — the first reference to each digest the arena did not
    /// hold, in manifest order: the bytes the put's `Put` record
    /// carries.
    fn admit<'p>(
        &mut self,
        record: &ObjRecord,
        carried: &mut Carried<'p>,
        verify: bool,
        journal: bool,
    ) -> Result<Admission<'p>, StoreError> {
        let mut admission = Admission { hits: 0, admitted: Vec::new() };
        let mut missing = Vec::new();
        let (mut taken, mut wrong_length) = (0, false);
        for r in record.refs() {
            let states = |n: usize| !verify || n as u64 == u64::from(r.len);
            let copy = carried.copies.get_mut(&r.digest);
            let data = copy.as_ref().map(|&&mut (at, _)| &carried.chunks[at].data);
            if !data.is_none_or(|data| states(data.len())) {
                wrong_length = true;
                break;
            }
            let taking = self.chunks.take(r.digest, data);
            taken += 1;
            let seen = match taking {
                Take::Hit { len } if !states(len) => {
                    wrong_length = true;
                    break;
                }
                Take::Hit { .. } => {
                    admission.hits += 1;
                    Seen::Resident
                }
                Take::Admitted => {
                    if journal {
                        admission.admitted.push((r.digest, data.expect("admitted from a copy")));
                    }
                    Seen::Admitted
                }
                Take::Missing => {
                    missing.push(r.digest);
                    continue;
                }
            };
            if let Some((_, first)) = copy {
                if *first == Seen::Unreached {
                    *first = seen;
                }
            }
        }
        let refusal = if wrong_length {
            Some(StoreError::DeltaMismatch { reason: "chunk length disagrees with manifest" })
        } else {
            (!missing.is_empty()).then_some(StoreError::MissingChunks { missing })
        };
        if refusal.is_some() {
            self.give_back(record.refs().take(taken));
        }
        if verify && !carried.hash_true(|digest| self.chunks.contains(digest)) {
            if refusal.is_none() {
                self.give_back(record.refs());
            }
            return Err(StoreError::DeltaMismatch { reason: "chunk bytes do not match claimed digest" });
        }
        match refusal {
            Some(refusal) => Err(refusal),
            None => Ok(admission),
        }
    }

    /// Release the references an admission took on `refs`: every one
    /// but the missing, which took none and are not resident.
    fn give_back(&mut self, refs: impl Iterator<Item = ChunkRef>) {
        for r in refs {
            if self.chunks.contains(r.digest) {
                self.chunks.release(r.digest);
            }
        }
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

    /// Put `record` under `bucket/key`, which must exist, once
    /// [`StoreState::admit`] took its references, `hits` of them dedup
    /// hits. The new references are taken before the previous object's
    /// are released, so an overwrite never frees chunks the new
    /// manifest shares with the old.
    fn install(
        &mut self,
        bucket: &str,
        key: Box<str>,
        record: ObjRecord,
        hits: u64,
        wire_bytes: u64,
        delta: bool,
    ) {
        self.count_put(record.size, wire_bytes, delta);
        self.counters.dedup_hits += hits;
        let b = self.buckets.get_mut(bucket).expect("bucket checked by caller");
        if let Some(prev) = b.objects.insert(key, record) {
            self.release(&prev);
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
        if let Some(rec) = self.buckets.get_mut(bucket).and_then(|b| b.objects.remove(key)) {
            self.release(&rec);
        }
    }

    /// Expire every object its bucket's rule dooms at `now`; returns
    /// how many. Expiry is manifest-aware: it releases the doomed
    /// object's chunk references rather than deleting bytes, so chunks
    /// shared with live objects survive and only unreferenced ones are
    /// freed.
    fn expire(&mut self, now: SimTime) -> u64 {
        let mut released: Vec<ObjRecord> = Vec::new();
        for b in self.buckets.values_mut() {
            let rule = b.rule;
            let doomed: Vec<Box<str>> = b
                .objects
                .iter()
                .filter(|(_, o)| rule.is_expired(o.uploaded_at, o.last_used, now))
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                released.push(b.objects.remove(&k).expect("doomed key just listed"));
            }
        }
        for record in &released {
            self.release(record);
        }
        released.len() as u64
    }

    /// Replace every bucket, object and counter with a compaction
    /// snapshot's. It carries the physical payload at refcount zero —
    /// in its own chunk list and in the `SnapshotChunks` records written
    /// ahead of it, whose chunks are already restored and stay —
    /// and references are re-derived from its objects. Returns how many
    /// objects were dropped because a chunk of theirs is missing.
    fn load_snapshot(
        &mut self,
        buckets: Vec<SnapBucket<'_>>,
        chunks: Vec<(u64, &[u8])>,
        counters: SnapCounters,
    ) -> u64 {
        let mut arena = std::mem::take(&mut self.chunks);
        arena.forget_references();
        *self = StoreState { counters, chunks: arena, ..StoreState::default() };
        self.restore_chunks(chunks);
        let mut dropped = 0;
        for b in buckets {
            let mut objects = BTreeMap::new();
            for (key, record) in b.objects {
                if !record.refs().all(|r| self.chunks.contains(r.digest)) {
                    dropped += 1;
                    continue;
                }
                for r in record.refs() {
                    self.chunks.retain(r.digest, None).expect("residency checked above");
                }
                objects.insert(key.into(), record);
            }
            self.buckets.insert(b.name.to_string(), BucketState { rule: b.rule, objects });
        }
        dropped
    }

    /// Install snapshot chunk bytes, unreferenced.
    fn restore_chunks(&mut self, chunks: Vec<(u64, &[u8])>) {
        for (digest, data) in chunks {
            self.chunks.restore_chunk(digest, Bytes::copy_from_slice(data));
        }
    }

    /// The `SnapshotStore` record [`StoreState::load_snapshot`] reads
    /// back, written with `chunks` as its chunk list.
    fn write_snapshot(&self, out: &mut Vec<u8>, chunks: &[(u64, Bytes)]) {
        let buckets = self.buckets.iter().map(|(name, b)| {
            (name.as_str(), b.rule, b.objects.iter().map(|(key, o)| (&**key, o)))
        });
        let chunks = chunks.iter().map(|(digest, data)| (*digest, &data[..]));
        journal::write_snapshot(out, buckets, chunks, &self.counters);
    }

    /// The records a compaction writes: the whole store as one
    /// `SnapshotStore` record — unless its chunk bytes take it past
    /// [`MAX_RECORD`]. Then the lowest digests go ahead of it into
    /// `SnapshotChunks` records, each filled up to `MAX_RECORD`, until
    /// what is left fits. Built one at a time, as the log takes them.
    fn snapshot_records(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        let mut chunks = self.chunks.snapshot_chunks();
        let entry = |(_, data): &(u64, Bytes)| journal::chunk_entry_len(data.len());
        let mut bare = Vec::new();
        self.write_snapshot(&mut bare, &[]);
        let whole = bare.len() + chunks.iter().map(entry).sum::<usize>();
        let mut excess = whole.saturating_sub(MAX_RECORD as usize);
        let mut runs = Vec::new();
        let mut at = 0;
        while excess > 0 {
            let start = at;
            let mut len = journal::SNAPSHOT_CHUNKS_HEAD;
            while let Some(c) = chunks.get(at).filter(|c| len + entry(c) <= MAX_RECORD as usize) {
                len += entry(c);
                excess = excess.saturating_sub(entry(c));
                at += 1;
                if excess == 0 {
                    break;
                }
            }
            assert!(at > start, "the store's snapshot does not split under MAX_RECORD");
            runs.push(start..at);
        }
        let kept = chunks.split_off(at);
        let moved = chunks;
        let continuation = runs.into_iter().map(move |run| {
            let mut out = Vec::new();
            let chunks = moved[run].iter().map(|(digest, data)| (*digest, &data[..]));
            journal::write_snapshot_chunks(&mut out, chunks);
            out
        });
        continuation.chain(std::iter::once_with(move || {
            let mut out = Vec::with_capacity(bare.len() + kept.iter().map(entry).sum::<usize>());
            self.write_snapshot(&mut out, &kept);
            out
        }))
    }

    /// Replay one journaled mutation through the transition the live
    /// API ran when it wrote the record. Returns how many objects were
    /// dropped (chunk bytes unavailable).
    fn apply(&mut self, rec: StoreRecord<'_>) -> u64 {
        match rec {
            StoreRecord::CreateBucket { name, rule } => self.create_bucket(name.to_string(), rule),
            StoreRecord::Put { bucket, key, object, new_chunks, wire_bytes, delta } => {
                let carried: Vec<Chunk> = new_chunks
                    .into_iter()
                    .map(|(digest, data)| Chunk { digest, data: Bytes::copy_from_slice(data) })
                    .collect();
                // Atomicity, as in put_delta: a reference that does not
                // resolve gives back what the admission took. A miss
                // means the bytes rode a WAL record that was dropped as
                // corrupt — the object is unreadable and must not be
                // installed.
                let admission = if self.buckets.contains_key(bucket) {
                    self.admit(&object, &mut Carried::new(&carried), false, false).ok()
                } else {
                    None
                };
                let Some(admission) = admission else {
                    // The operation happened historically: the
                    // cumulative counters say so without the object.
                    self.count_put(object.size, wire_bytes, delta);
                    return 1;
                };
                self.install(bucket, key.into(), object, admission.hits, wire_bytes, delta);
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                self.touch(bucket, key, SimTime::from_millis(time_millis), size);
            }
            StoreRecord::Delete { bucket, key } => self.remove(bucket, key),
            StoreRecord::Sweep { time_millis } => {
                self.expire(SimTime::from_millis(time_millis));
            }
            StoreRecord::SnapshotChunks { chunks } => self.restore_chunks(chunks),
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
    /// Bytes of object records currently resident: each key and its
    /// record's packed block (chunk references, etag and user metadata)
    /// — what the store keeps *about* the objects, beside their bytes.
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
            w.append_with(|out| journal::write_create_bucket(out, name, &rule));
        }
        state.create_bucket(name.to_string(), rule);
        Ok(())
    }

    /// Whether a bucket exists.
    pub fn has_bucket(&self, name: &str) -> bool {
        self.read_state().buckets.contains_key(name)
    }

    /// Attach a seeded fault injector: each put/get fails with
    /// [`StoreError::Unavailable`] per the injector's plan (`store_put`
    /// / `store_get` probabilities) — chaos testing for the paper's
    /// "robust to failures" requirement.
    /// Deployment wiring: a second injector panics.
    pub fn set_fault_injector(&self, injector: rai_faults::FaultInjector) {
        assert!(self.inner.injector.set(injector).is_ok(), "store fault injector is wired once");
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
        if self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let pairs = upload_pairs(user_meta)?;
        let data = data.into();
        let (manifest, chunks) = chunk_shared(&data, ChunkerParams::for_len(data.len()));
        self.commit_put(bucket, key, &manifest, &chunks, false, pairs, manifest.total_len)?;
        Ok(manifest.etag)
    }

    /// The shared validate → journal → install tail of `put`/`put_delta`,
    /// all of it under the state write lock, so a put either fully
    /// happens or (on [`StoreError::MissingChunks`] /
    /// [`StoreError::DeltaMismatch`]) changes nothing, and — with a log
    /// attached — admission order and log order agree.
    ///
    /// `delta` marks a delta upload: `provided` is any subset of the
    /// manifest's chunks in any order and the admission runs the
    /// protocol checks. Otherwise `provided` is the chunker's own
    /// output, which holds every chunk of the manifest and needs none.
    ///
    /// The store keeps the object as one record packed from `manifest`
    /// and `pairs`; only a journal's `Put` record owns a manifest.
    #[allow(clippy::too_many_arguments)]
    fn commit_put(
        &self,
        bucket: &str,
        key: &str,
        manifest: &ChunkManifest,
        provided: &[Chunk],
        delta: bool,
        pairs: Vec<(&str, &str)>,
        wire_bytes: u64,
    ) -> Result<(), StoreError> {
        let mut state = self.write_state();
        if !state.buckets.contains_key(bucket) {
            return Err(StoreError::NoSuchBucket(bucket.to_string()));
        }
        let record = ObjRecord::new(self.inner.clock.now(), manifest, pairs);
        let wal = self.inner.wal.get();
        let admission = state.admit(&record, &mut Carried::new(provided), delta, wal.is_some())?;
        if let Some(w) = wal {
            let new_chunks = admission.admitted.iter().map(|&(digest, data)| (digest, &data[..]));
            w.append_with(|out| {
                journal::write_put(out, bucket, key, &record, new_chunks, wire_bytes, delta);
            });
        }
        state.install(bucket, key.into(), record, admission.hits, wire_bytes, delta);
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
        if self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let state = self.read_state();
        Ok(digests.iter().map(|&d| state.chunks.contains(d)).collect())
    }

    /// Upload (or overwrite) an object as a manifest plus only the
    /// chunks the store does not already hold; its etag is the
    /// manifest's.
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
    ) -> Result<(), StoreError> {
        if self.injected_fault(rai_faults::FaultKind::StorePut) {
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
        let pairs = upload_pairs(user_meta)?;

        let provided_bytes: u64 = provided.iter().map(|c| c.data.len() as u64).sum();
        let wire: u64 = provided_bytes + manifest.encoded_len();

        self.commit_put(bucket, key, manifest, provided, true, pairs, wire)
    }

    /// Download an object, reassembled from its chunks. Refreshes its
    /// `last_used` stamp (which is what makes the paper's "one month
    /// after the last use" policy work).
    pub fn get(&self, bucket: &str, key: &str) -> Result<StoredObject, StoreError> {
        if self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let now = self.inner.clock.now();
        let mut state = self.write_state();
        let rec = state.object(bucket, key)?;
        let size = rec.size;
        // Records and chunks share this lock, so every chunk a resident
        // record references is resident.
        let data = assemble_refs(rec.refs(), size, |d| state.chunks.data(d))
            .expect("resident records always resolve");
        if let Some(w) = self.inner.wal.get() {
            // `last_used` drives lifecycle expiry, so reads are
            // journaled too (as a metadata touch, not the payload).
            w.append_with(|o| journal::write_touch(o, bucket, key, now.as_millis(), size));
        }
        state.touch(bucket, key, now, size);
        Ok(StoredObject { data: Bytes::from(data) })
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
            w.append_with(|out| journal::write_delete(out, bucket, key));
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
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(key, o)| o.meta(key))
            .collect())
    }

    /// Create a presigned URL for `bucket/key`, valid until
    /// `expires_at` (virtual time). This is what the worker actually
    /// hands the client for the `/build` archive — downloadable without
    /// credentials, like an S3 presigned GET.
    pub fn presign(&self, bucket: &str, key: &str, expires_at: rai_sim::SimTime) -> String {
        let sig = hex(self.presign_signature(bucket, key, expires_at), 16);
        let expires = decimal(expires_at.as_millis());
        ["rai-s3://", bucket, "/", key, "?expires=", expires.as_str(), "&sig=", sig.as_str()].concat()
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
                w.append_with(|out| journal::write_sweep(out, now.as_millis()));
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
                bytes_stored += o.size;
                metadata_bytes += (key.len() + o.block.len()) as u64;
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
        let mut recovery = StoreRecovery::default();
        let mut state = StoreState::default();
        recovery.stats = wal.replay_each(|payload| match StoreRecord::decode(payload) {
            Some(rec) => recovery.objects_dropped += state.apply(rec),
            None => recovery.malformed_dropped += 1,
        });
        // Chunks no surviving manifest references (a snapshot's, whose
        // object was dropped) would otherwise linger with a zero
        // refcount.
        state.chunks.prune_unreferenced();
        let store = ObjectStore::with_state(clock, state);
        store.attach_wal(wal);
        (store, recovery)
    }

    /// Compact the attached log into one snapshot record if its size
    /// warrants it (per [`rai_wal::DurabilityConfig`]) — or into as
    /// many as it takes to keep each under [`rai_wal::MAX_RECORD`]: chunk
    /// bytes that do not fit ride `SnapshotChunks` records ahead of it.
    /// Runs under the state lock every append is made under — its read
    /// half, held from the snapshot through the deletion of the old
    /// segments — so no mutation interleaves with it. Returns whether a
    /// compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.get() else {
            return false;
        };
        if !wal.should_compact() {
            return false;
        }
        let state = self.read_state();
        wal.compact(state.snapshot_records());
        true
    }
}

/// What [`ObjectStore::recover`] reconstructed and what it had to
/// drop.
#[derive(Debug, Default)]
pub struct StoreRecovery {
    /// Framing-layer replay statistics (records, corruption, torn
    /// bytes).
    pub stats: rai_wal::ReplayStats,
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
    use rai_wal::codec::put_str;

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
        assert_eq!(s.head("uploads", "team1/proj.tar").unwrap().etag, etag);
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
        assert_eq!(s.list("uploads", "").unwrap()[0].user, expected);
        // The block ends with the pairs, once each, in key order.
        let state = s.inner.state.read();
        let record = &state.buckets["uploads"].objects["k"];
        let mut pairs = Vec::new();
        for (k, v) in &expected {
            put_str(&mut pairs, k);
            put_str(&mut pairs, v);
        }
        assert_eq!(record.packed_pairs(), &pairs[..]);
    }

    #[test]
    fn a_record_is_its_manifest_and_metadata_in_one_block() {
        let s = store();
        let payload = varied(3000, 11);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        let pairs = [("team", "rust"), ("kind", "run")];
        s.put_delta("keep", "k", &manifest, &chunks, pairs).unwrap();
        let state = s.inner.state.read();
        let record = &state.buckets["keep"].objects["k"];
        // What a snapshot and the journal read back is what was put.
        assert_eq!(record.refs().collect::<Vec<_>>(), manifest.chunks);
        assert_eq!((record.size, record.etag()), (manifest.total_len, manifest.etag.as_str()));
        let user: BTreeMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        assert_eq!(record.meta("k").user, user);
        // Count, references, etag, pairs: nothing else, nothing spare.
        let user_bytes: usize = user.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
        let expected = 4 + 12 * manifest.chunks.len() + 4 + manifest.etag.len() + user_bytes;
        assert_eq!(record.block.len(), expected);
        let metadata = (1 + expected) as u64;
        drop(state);
        assert_eq!(s.usage().metadata_bytes, metadata, "the key and the block");
        // An object with no chunks, no etag and no metadata is the two
        // length words.
        let empty = ChunkManifest { chunks: Vec::new(), total_len: 0, etag: String::new() };
        s.put_delta("keep", "", &empty, &[], []).unwrap();
        assert_eq!(s.usage().metadata_bytes, metadata + 8);
        assert_eq!(s.get("keep", "").unwrap().data.len(), 0);
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
            let refused = StoreError::MetadataTooLarge;
            let delta = s.put_delta(bucket, "k", &manifest, &chunks, [("team", value.as_str())]);
            assert_eq!(delta.unwrap_err(), refused);
            let put = s.put(bucket, "k", payload.clone(), [("team", value.as_str())]);
            assert_eq!(put.unwrap_err(), refused);
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
        s.put_delta("keep", "a", &manifest, &chunks, []).unwrap();
        assert_eq!(s.get("keep", "a").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(s.head("keep", "a").unwrap().etag, manifest.etag);
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
                let put = s.put("keep", &format!("k{i}"), &b"v"[..], []);
                assert!(matches!(put, Ok(_) | Err(StoreError::Unavailable)), "{put:?}");
                outcomes.push(put.is_err());
                // A get fails by its own draw, or finds no object where
                // its put failed.
                let get = s.get("keep", &format!("k{i}"));
                assert!(matches!(get, Ok(_) | Err(StoreError::Unavailable | StoreError::NoSuchKey { .. })), "{get:?}");
                outcomes.push(get == Err(StoreError::Unavailable));
            }
            outcomes
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fault stream");
        for (first, op) in [(0, "put"), (1, "get")] {
            let failed: Vec<bool> = a.iter().skip(first).step_by(2).copied().collect();
            assert!(failed.contains(&true), "p=0.2 over 100 {op}s should fire");
            assert!(failed.contains(&false), "and should not fire every time: the service recovers");
        }
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

    /// Replay reproduced everything: the usage counters, every
    /// bucket's rule and every object record — timestamps, size and
    /// packed block — by key.
    fn assert_same_state(a: &ObjectStore, b: &ObjectStore) {
        assert_eq!(a.usage(), b.usage());
        let (a, b) = (a.inner.state.read(), b.inner.state.read());
        assert_eq!(a.buckets.keys().collect::<Vec<_>>(), b.buckets.keys().collect::<Vec<_>>());
        for (x, y) in a.buckets.values().zip(b.buckets.values()) {
            assert_eq!((x.rule, &x.objects), (y.rule, &y.objects));
        }
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
        assert_same_state(&r, &s);
        assert_eq!(
            r.get("keep", "copy").unwrap().data.as_ref(),
            &payload[..],
            "payloads reassemble from replayed chunks"
        );

        // The recovered store keeps journaling: mutate, reopen again.
        r.put("keep", "after", &b"post-recovery"[..], []).unwrap();
        r.sync_wal();
        let (r2, _) = reopen(&disk, VirtualClock::new());
        assert_same_state(&r2, &r);
        assert_eq!(r2.get("keep", "after").unwrap().data.as_ref(), b"post-recovery");
    }

    /// A store holding more distinct chunk bytes than one log record may
    /// carry — 70 MiB, past `MAX_RECORD`'s 64 — compacts into
    /// `SnapshotChunks` records ahead of its snapshot, each one under
    /// the bound, and recovers to the live store. One `SnapshotStore`
    /// record used to be asked to hold it all and the log refused.
    #[test]
    fn a_store_past_max_record_compacts_into_records_that_fit() {
        let config = rai_wal::DurabilityConfig {
            compact_min_bytes: 1,
            compact_factor: 1,
            ..rai_wal::DurabilityConfig::durable()
        };
        let (s, disk) = durable_store(config);
        const CHUNK: usize = 7 << 20;
        // Ten distinct 7 MiB chunks over three uploads, each put record
        // under the bound; a fourth object shares two of them.
        let chunk = |i: u8| {
            let data = Bytes::from(vec![i; CHUNK]);
            Chunk { digest: fnv::hash(&data), data }
        };
        let manifest = |chunks: &[Chunk]| ChunkManifest {
            chunks: chunks.iter().map(|c| ChunkRef { digest: c.digest, len: CHUNK as u32 }).collect(),
            total_len: (chunks.len() * CHUNK) as u64,
            etag: format!("etag-{}", chunks.len()),
        };
        let mut first = Vec::new();
        for (key, ids) in [("a", 0..4u8), ("b", 4..7), ("c", 7..10)] {
            let chunks: Vec<Chunk> = ids.map(chunk).collect();
            s.put_delta("keep", key, &manifest(&chunks), &chunks, [("k", key)]).unwrap();
            first.push(chunks[0].clone());
        }
        s.put_delta("keep", "shared", &manifest(&first[..2]), &[], []).unwrap();
        s.sync_wal();
        assert_eq!(s.usage().bytes_physical, 10 * CHUNK as u64);

        assert!(s.maybe_compact());
        let mut records = Vec::new();
        Wal::open(Arc::new(disk.clone()), config).replay_each(|p| records.push((p[0], p.len())));
        assert!(records.len() >= 2, "{records:?}");
        let (snapshot, ahead) = records.split_last().unwrap();
        assert_eq!(snapshot.0, 6);
        assert!(ahead.iter().all(|&(tag, _)| tag == 8), "{records:?}");
        assert!(records.iter().all(|&(_, len)| len <= MAX_RECORD as usize), "{records:?}");

        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!((recovery.malformed_dropped, recovery.objects_dropped), (0, 0));
        assert_same_state(&r, &s);
        for key in ["a", "b", "c", "shared"] {
            assert!(r.get("keep", key).unwrap().data == s.get("keep", key).unwrap().data, "{key}");
        }
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
        assert_same_state(&r, &s);
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
        wal.append_with(|out| journal::write_create_bucket(out, "keep", &LifecycleRule::Keep));
        // A dedup'd Put whose chunk bytes rode an earlier record that
        // was dropped as corrupt: nothing in the log carries the bytes.
        let object = ObjRecord::new(SimTime::ZERO, &manifest, vec![]);
        wal.append_with(|out| journal::write_put(out, "keep", "orphan", &object, [], 0, true));
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
        assert_same_state(&r, &s);
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
        assert_same_state(&r, &s);
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
