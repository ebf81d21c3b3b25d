//! The object store: buckets, CRUD, delta uploads, lifecycle sweeps
//! and usage accounting. Thread-safe and cheaply cloneable (clones
//! share state), like every live RAI data-plane component.
//!
//! Since the storage-model change (DESIGN.md §10) the store is
//! content-addressed: `put`/`put_delta` split payloads into
//! content-defined chunks ([`rai_archive::chunk`]) and objects are
//! manifests referencing a shared refcounted chunk arena
//! ([`crate::dedup`]). Identical content across objects, buckets and
//! re-uploads is stored once; `has_chunks` lets clients discover
//! which chunks the store already holds and upload only the rest.

use crate::dedup::ChunkArena;
use crate::journal::{SnapBucket, SnapCounters, SnapObject, StoreRecord};
use crate::lifecycle::LifecycleRule;
use crate::object::{ObjectMeta, StoredObject};
use bytes::Bytes;
use parking_lot::RwLock;
use rai_archive::chunk::{assemble, chunk_shared_on, Chunk, ChunkManifest, ChunkerParams};
use rai_archive::fnv;
use rai_exec::Executor;
use rai_sim::{SimTime, VirtualClock};
use rai_wal::{DurabilityConfig, LogBackend, StripedBackend, Wal};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// carried nor the store holds — the uploader's digest cache was
    /// stale (e.g. the chunks were garbage-collected since it was
    /// filled). The fix is to re-query [`ObjectStore::has_chunks`]
    /// and resend.
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
}

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
        }
    }
}

impl std::error::Error for StoreError {}

/// One stored object: metadata plus the manifest of chunks its
/// payload reassembles from.
struct ObjRecord {
    meta: ObjectMeta,
    manifest: ChunkManifest,
}

struct BucketState {
    rule: LifecycleRule,
    objects: BTreeMap<String, ObjRecord>,
}

/// Bucket and object metadata. Since the sharding change (DESIGN.md
/// §16) the chunk arena lives in its own lock domains
/// ([`crate::dedup::ChunkArena`]); this lock covers manifests only.
///
/// Lock-order invariant: `state` before arena shards (shards among
/// themselves in ascending index order), never the reverse. Chunk
/// *releases* (overwrite, delete, sweep) always run under the state
/// write lock, so a reader holding it (or even the read half — writers
/// are excluded either way) can assemble a resident manifest from the
/// arena without its chunks being freed mid-read. Chunk *admissions*
/// only ever add bytes and references, so they may run outside the
/// state lock — that is what lets concurrent `put_delta`s on disjoint
/// digest prefixes proceed in parallel.
struct StoreState {
    buckets: BTreeMap<String, BucketState>,
}

#[derive(Default)]
struct Counters {
    bytes_uploaded: u64,
    bytes_downloaded: u64,
    bytes_wire: u64,
    puts: u64,
    delta_puts: u64,
    gets: u64,
    deletes: u64,
    expired: u64,
}

struct StoreInner {
    clock: VirtualClock,
    /// Secret for presigned-URL signatures (per store instance).
    presign_secret: u64,
    state: RwLock<StoreState>,
    /// The refcounted chunk arena, hash-partitioned by digest prefix
    /// into independent lock domains (1 shard = the reference config).
    arena: ChunkArena,
    counters: RwLock<Counters>,
    /// Remaining operations that should fail (fault injection).
    faults: std::sync::atomic::AtomicU64,
    /// Probability-driven fault injection (chaos runs).
    injector: RwLock<Option<rai_faults::FaultInjector>>,
    /// Executor for server-side chunking and chunk verification.
    /// Sequential by default; a pool spreads the per-chunk digest work
    /// without changing any stored byte (DESIGN.md §12).
    executor: RwLock<Executor>,
    /// Optional write-ahead log for object mutations. When attached
    /// without chunk logs (the legacy single-log layout), chunk bytes
    /// ride `Put` records and every put serializes under the state
    /// lock so log order matches application order.
    wal: RwLock<Option<Wal>>,
    /// Sharded-durable mode: one chunk log per arena shard (empty
    /// otherwise). Newly admitted chunk bytes are journaled as
    /// [`StoreRecord::ChunkInstall`] under the owning shard's lock, so
    /// each shard's log order matches its admission order and the main
    /// log's `Put` records carry no bytes — which is what lets
    /// admissions run outside the state lock without racing replay.
    chunk_wals: RwLock<Vec<Wal>>,
}

/// Minimum total provided-chunk bytes before `put_delta` pre-hashes on
/// the pool instead of hashing inline under the state lock. Small
/// deltas (the steady-state resubmission) stay on the inline path.
const PAR_VERIFY_MIN_BYTES: u64 = 32 * 1024;

/// Decide, once per manifest reference and before anything mutates,
/// where its bytes come from: `Some(bytes)` when the request carried
/// the chunk (the last copy wins if it carried several), `None` when it
/// dedups against the copy `resident` reports the length of; a
/// reference that is neither fails the request with
/// [`StoreError::MissingChunks`]. `verify` runs the delta-protocol
/// checks first: provided bytes hash to their claimed digest — checked
/// only for non-resident chunks, the ones that would actually be
/// written; the rest dedup against the stored copy — then every
/// reference's length agrees with the bytes it will read back: the
/// carried copy's and, since a resident copy is the one kept, the
/// resident copy's too.
fn resolve<'a>(
    manifest: &ChunkManifest,
    provided: &'a [Chunk],
    pre_hashed: Option<&[u64]>,
    verify: bool,
    resident: impl Fn(u64) -> Option<usize>,
) -> Result<Vec<Option<&'a Bytes>>, StoreError> {
    let mismatch = |reason| Err(StoreError::DeltaMismatch { reason });
    // Keyed hasher: the digests are the uploader's to choose.
    let mut carried: HashMap<u64, (&Bytes, Option<usize>)> = HashMap::with_capacity(provided.len());
    for (i, c) in provided.iter().enumerate() {
        let stored = resident(c.digest);
        let actual = || pre_hashed.map_or_else(|| fnv::hash(&c.data), |h| h[i]);
        if verify && stored.is_none() && actual() != c.digest {
            return mismatch("chunk bytes do not match claimed digest");
        }
        carried.insert(c.digest, (&c.data, stored));
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
    /// A store reading time from `clock`, with a single-lock chunk
    /// arena (the reference configuration).
    pub fn new(clock: VirtualClock) -> Self {
        Self::with_shards(clock, 1)
    }

    /// A store whose chunk arena is partitioned into `shards`
    /// digest-prefix lock domains (clamped to at least 1). Shard
    /// assignment is a pure function of the digest, and every
    /// observable result is byte-identical at any shard count — only
    /// contention changes.
    pub fn with_shards(clock: VirtualClock, shards: usize) -> Self {
        ObjectStore {
            inner: Arc::new(StoreInner {
                presign_secret: next_presign_secret(),
                clock,
                state: RwLock::new(StoreState {
                    buckets: BTreeMap::new(),
                }),
                arena: ChunkArena::new(shards),
                counters: RwLock::new(Counters::default()),
                faults: std::sync::atomic::AtomicU64::new(0),
                injector: RwLock::new(None),
                executor: RwLock::new(Executor::sequential()),
                wal: RwLock::new(None),
                chunk_wals: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Number of chunk-arena lock domains.
    pub fn shard_count(&self) -> usize {
        self.inner.arena.shard_count()
    }

    /// Resident chunks per arena shard (telemetry gauge).
    pub fn shard_chunk_counts(&self) -> Vec<u64> {
        self.inner.arena.shard_chunk_counts()
    }

    /// Cumulative microseconds spent waiting on contended arena shard
    /// locks — a host fact (never fingerprinted), like `ExecStats`.
    pub fn lock_wait_micros(&self) -> u64 {
        self.inner.arena.lock_wait_micros()
    }

    /// Exclusive (write) acquisitions of the arena's shard locks — a
    /// host fact used to audit that pure presence reads stay off the
    /// write path (DESIGN.md §17).
    pub fn arena_write_acquisitions(&self) -> u64 {
        self.inner.arena.write_acquisitions()
    }

    /// Shared (read) acquisitions of the arena's shard locks — the
    /// counterpart audit counter to
    /// [`ObjectStore::arena_write_acquisitions`].
    pub fn arena_read_acquisitions(&self) -> u64 {
        self.inner.arena.read_acquisitions()
    }

    /// Route server-side chunking/digesting onto `exec`. Results are
    /// byte-identical at any parallelism; only wall-clock changes.
    pub fn set_executor(&self, exec: Executor) {
        *self.inner.executor.write() = exec;
    }

    /// Create a bucket with a lifecycle rule.
    pub fn create_bucket(&self, name: &str, rule: LifecycleRule) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        if state.buckets.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_string()));
        }
        if let Some(w) = &wal {
            w.append(&StoreRecord::CreateBucket { name: name.to_string(), rule }.encode());
        }
        state.buckets.insert(
            name.to_string(),
            BucketState {
                rule,
                objects: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Whether a bucket exists.
    pub fn has_bucket(&self, name: &str) -> bool {
        self.inner.state.read().buckets.contains_key(name)
    }

    /// Make the next `n` data operations (put/get) fail with
    /// [`StoreError::Unavailable`] — chaos testing for the paper's
    /// "robust to failures" requirement.
    pub fn inject_faults(&self, n: u64) {
        self.inner
            .faults
            .store(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Attach a seeded fault injector: each put/get additionally fails
    /// with [`StoreError::Unavailable`] per the injector's plan
    /// (`store_put` / `store_get` probabilities). Coexists with the
    /// [`ObjectStore::inject_faults`] budget, which always fires first.
    pub fn set_fault_injector(&self, injector: rai_faults::FaultInjector) {
        *self.inner.injector.write() = Some(injector);
    }

    fn take_fault(&self) -> bool {
        self.inner
            .faults
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |n| n.checked_sub(1),
            )
            .is_ok()
    }

    fn injected_fault(&self, kind: rai_faults::FaultKind) -> bool {
        match self.inner.injector.read().as_ref() {
            Some(inj) => inj.should_fail(kind),
            None => false,
        }
    }

    /// Take one arena reference per manifest chunk, atomically: every
    /// shard a referenced (or provided) chunk hashes into is locked —
    /// once, in ascending index order — for the whole
    /// resolve-then-retain sequence, so an admission either fully
    /// happens or (on [`StoreError::MissingChunks`] /
    /// [`StoreError::DeltaMismatch`]) changes nothing.
    ///
    /// `verify` marks a delta upload: `provided` is any subset of the
    /// manifest's chunks in any order and [`resolve`] runs the protocol
    /// checks. Otherwise `provided` is the chunker's own output, which
    /// pairs with the manifest positionally and needs none. In
    /// sharded-durable mode each newly admitted chunk is journaled as a
    /// [`StoreRecord::ChunkInstall`] to its shard's log *under that
    /// shard's lock*; otherwise (when `collect_new`) the new bytes are
    /// returned, in manifest order, for the caller's `Put` record.
    fn admit(
        &self,
        manifest: &ChunkManifest,
        provided: &[Chunk],
        pre_hashed: Option<&[u64]>,
        verify: bool,
        collect_new: bool,
    ) -> Result<Vec<(u64, Bytes)>, StoreError> {
        let arena = &self.inner.arena;
        let chunk_wals = self.inner.chunk_wals.read();
        let digests = manifest.chunks.iter().map(|r| r.digest);
        let mut shards = arena.lock_for(digests.clone().chain(provided.iter().map(|c| c.digest)));
        let sources: Vec<Option<&Bytes>> = if verify {
            resolve(manifest, provided, pre_hashed, true, |d| shards.resident_len(d))?
        } else {
            debug_assert!(digests.eq(provided.iter().map(|c| c.digest)));
            provided.iter().map(|c| Some(&c.data)).collect()
        };

        let mut new_chunks: Vec<(u64, Bytes)> = Vec::new();
        for (r, source) in manifest.chunks.iter().zip(sources) {
            let hit = shards
                .shard_mut(r.digest)
                .retain(r.digest, source)
                .expect("availability resolved above");
            if !hit {
                let data = source.expect("new chunk was provided").clone();
                if let Some(w) = chunk_wals.get(arena.shard_of(r.digest)) {
                    w.append(
                        &StoreRecord::ChunkInstall { digest: r.digest, bytes: data }.encode(),
                    );
                } else if collect_new {
                    new_chunks.push((r.digest, data));
                }
            }
        }
        Ok(new_chunks)
    }

    /// Drop one arena reference per manifest chunk, under one guard per
    /// shard. Must be called with the state write lock held — releases
    /// are serialized under it so concurrent readers can assemble
    /// resident manifests safely (see [`StoreState`]).
    fn release_manifest(&self, manifest: &ChunkManifest, replay: bool) {
        let mut shards = self.inner.arena.lock_for(manifest.chunks.iter().map(|r| r.digest));
        for r in &manifest.chunks {
            if replay {
                shards.shard_mut(r.digest).release_replay(r.digest);
            } else {
                shards.shard_mut(r.digest).release(r.digest);
            }
        }
    }

    /// Whether the legacy single-log layout is active: a WAL is
    /// attached with no per-shard chunk logs, so chunk bytes must ride
    /// `Put` records and puts must serialize under the state lock
    /// (admission order and main-log order must agree for replay).
    fn legacy_log_layout(&self) -> bool {
        self.inner.wal.read().is_some() && self.inner.chunk_wals.read().is_empty()
    }

    /// Upload (or overwrite) an object from a whole payload; returns
    /// its etag. The payload is chunked server-side, so even plain
    /// puts dedup against resident content — but the full payload
    /// still crosses the wire. Delta-aware clients use
    /// [`ObjectStore::has_chunks`] + [`ObjectStore::put_delta`] to
    /// avoid that.
    ///
    /// Newly admitted chunks are kept as views of `data`, so each
    /// pins the payload it arrived in (DESIGN.md §10).
    pub fn put(
        &self,
        bucket: &str,
        key: &str,
        data: impl Into<Bytes>,
        user_meta: impl IntoIterator<Item = (String, String)>,
    ) -> Result<String, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let data = data.into();
        let exec = self.inner.executor.read().clone();
        let (manifest, chunks) = chunk_shared_on(&exec, &data, ChunkerParams::for_len(data.len()));
        let size = manifest.total_len;
        let etag = manifest.etag.clone();
        let user: BTreeMap<String, String> = user_meta.into_iter().collect();
        // The chunker emits refs and chunk bodies in lockstep, so the
        // pairing is positional and needs no protocol checks.
        self.commit_put(bucket, key, manifest, &chunks, None, false, user, size)?;

        let mut c = self.inner.counters.write();
        c.puts += 1;
        c.bytes_uploaded += size;
        c.bytes_wire += size;
        Ok(etag)
    }

    /// The shared admit → journal → install tail of `put`/`put_delta`.
    /// In the legacy single-log layout the whole sequence holds the
    /// state write lock (admission order must match log order); in
    /// sharded or log-free mode only the install does, and admissions
    /// on disjoint digest prefixes run concurrently.
    #[allow(clippy::too_many_arguments)]
    fn commit_put(
        &self,
        bucket: &str,
        key: &str,
        manifest: ChunkManifest,
        provided: &[Chunk],
        pre_hashed: Option<&[u64]>,
        delta: bool,
        user: BTreeMap<String, String>,
        wire_bytes: u64,
    ) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let (new_chunks, mut state) = if self.legacy_log_layout() {
            let state = self.inner.state.write();
            if !state.buckets.contains_key(bucket) {
                return Err(StoreError::NoSuchBucket(bucket.to_string()));
            }
            let new = self.admit(&manifest, provided, pre_hashed, delta, wal.is_some())?;
            (new, state)
        } else {
            if !self.inner.state.read().buckets.contains_key(bucket) {
                return Err(StoreError::NoSuchBucket(bucket.to_string()));
            }
            // Buckets are monotonic (no deletion API), so the check
            // above stays valid without holding the lock across the
            // admission.
            let new = self.admit(&manifest, provided, pre_hashed, delta, wal.is_some())?;
            (new, self.inner.state.write())
        };
        let now = self.inner.clock.now();
        // The record takes the manifest and metadata by move and hands
        // them back for the install: journaling copies neither.
        let (manifest, user) = match &wal {
            Some(w) => {
                let record = StoreRecord::Put {
                    bucket: bucket.to_string(),
                    key: key.to_string(),
                    time_millis: now.as_millis(),
                    manifest,
                    new_chunks,
                    user,
                    wire_bytes,
                    delta,
                };
                w.append(&record.encode());
                let StoreRecord::Put { manifest, user, .. } = record else { unreachable!() };
                (manifest, user)
            }
            None => (manifest, user),
        };
        self.install_record(&mut state, bucket, key, manifest, user, now);
        Ok(())
    }

    /// Which of `digests` are already resident? Returns one flag per
    /// input digest, in order. This is the discovery step of the
    /// delta-upload protocol; it is a metadata round trip and subject
    /// to the same transient faults as data reads.
    ///
    /// Pure presence checks answer from the shard *read* locks, one
    /// guard per shard the batch touches: many concurrent `has_chunks`
    /// probes share each shard without excluding one another, and
    /// never stall behind this call.
    pub fn has_chunks(&self, digests: &[u64]) -> Result<Vec<bool>, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let shards = self.inner.arena.read_for(digests.iter().copied());
        Ok(digests.iter().map(|&d| shards.contains(d)).collect())
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
    /// lengths check out is accepted.
    ///
    /// Newly admitted chunks are kept as the views they were handed
    /// in as — no bytes are copied — so each pins the buffer it is a
    /// view of: the request body, for chunks an uploader packed
    /// (DESIGN.md §10).
    pub fn put_delta(
        &self,
        bucket: &str,
        key: &str,
        manifest: &ChunkManifest,
        provided: &[Chunk],
        user_meta: impl IntoIterator<Item = (String, String)>,
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
        let user: BTreeMap<String, String> = user_meta.into_iter().collect();

        // Under a pool executor, bulk deltas pre-hash their provided
        // bytes in parallel *before* the state lock; the verification
        // loop below then compares precomputed digests instead of
        // hashing inline while writers wait. The accept/reject outcome
        // is identical (same chunks checked, in the same order).
        let exec = self.inner.executor.read().clone();
        let provided_bytes: u64 = provided.iter().map(|c| c.data.len() as u64).sum();
        let pre_hashed: Option<Vec<u64>> =
            if !exec.is_sequential() && provided_bytes >= PAR_VERIFY_MIN_BYTES {
                Some(exec.par_map(provided.iter().collect(), |c: &Chunk| fnv::hash(&c.data)))
            } else {
                None
            };

        let etag = manifest.etag.clone();
        let wire: u64 = provided_bytes + manifest.encoded_len();

        // The clone is the store's own copy of the caller's manifest.
        self.commit_put(
            bucket,
            key,
            manifest.clone(),
            provided,
            pre_hashed.as_deref(),
            true,
            user,
            wire,
        )?;

        let mut c = self.inner.counters.write();
        c.puts += 1;
        c.delta_puts += 1;
        c.bytes_uploaded += manifest.total_len;
        c.bytes_wire += wire;
        Ok(etag)
    }

    /// Insert the new record (references already taken), releasing the
    /// previous object under this key if any. New references are taken
    /// before old ones are released so an overwrite never frees chunks
    /// the new manifest shares with the old.
    fn install_record(
        &self,
        state: &mut StoreState,
        bucket: &str,
        key: &str,
        manifest: ChunkManifest,
        user: BTreeMap<String, String>,
        now: SimTime,
    ) {
        let record = ObjRecord {
            meta: ObjectMeta {
                key: key.to_string(),
                size: manifest.total_len,
                etag: manifest.etag.clone(),
                uploaded_at: now,
                last_used: now,
                user,
            },
            manifest,
        };
        let b = state.buckets.get_mut(bucket).expect("bucket checked by caller");
        let prev = b.objects.insert(key.to_string(), record);
        if let Some(prev) = prev {
            // New references were taken by `admit` before this release,
            // so an overwrite never frees chunks the new manifest
            // shares with the old.
            self.release_manifest(&prev.manifest, false);
        }
    }

    /// Download an object, reassembled from its chunks. Refreshes its
    /// `last_used` stamp (which is what makes the paper's "one month
    /// after the last use" policy work).
    pub fn get(&self, bucket: &str, key: &str) -> Result<StoredObject, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let now = self.inner.clock.now();
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        let b = state
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        let rec = b.objects.get_mut(key).ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })?;
        rec.meta.last_used = now;
        // Assembling while holding the state write lock is what makes
        // this safe: all chunk releases serialize under it, so every
        // chunk this resident manifest references stays resident. The
        // arena is only read: shared guards, one per shard, suffice.
        let data = {
            let shards = self.inner.arena.read_for(rec.manifest.chunks.iter().map(|r| r.digest));
            assemble(&rec.manifest, |d| shards.shard(d)?.data(d))
        }
        .expect("resident manifests always resolve");
        let out = StoredObject {
            meta: rec.meta.clone(),
            data: Bytes::from(data),
        };
        if let Some(w) = &wal {
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
        drop(state);
        let mut c = self.inner.counters.write();
        c.gets += 1;
        c.bytes_downloaded += out.meta.size;
        Ok(out)
    }

    /// Metadata only, without touching `last_used`.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let state = self.inner.state.read();
        let b = state
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        b.objects
            .get(key)
            .map(|o| o.meta.clone())
            .ok_or_else(|| StoreError::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            })
    }

    /// Delete an object, releasing its chunk references.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        let b = state
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        let rec = b.objects.remove(key).ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })?;
        self.release_manifest(&rec.manifest, false);
        if let Some(w) = &wal {
            w.append(
                &StoreRecord::Delete { bucket: bucket.to_string(), key: key.to_string() }
                    .encode(),
            );
        }
        drop(state);
        self.inner.counters.write().deletes += 1;
        Ok(())
    }

    /// List object metadata under a key prefix, in key order. The
    /// instructor's "download all final submissions" tool drives this.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        let state = self.inner.state.read();
        let b = state
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        Ok(b.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, o)| o.meta.clone())
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
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.inner.presign_secret;
        for b in bucket
            .as_bytes()
            .iter()
            .chain(&[0u8])
            .chain(key.as_bytes())
            .chain(&[0u8])
            .chain(&expires_at.as_millis().to_le_bytes())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
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
    ///
    /// Expiry is manifest-aware: it releases the doomed object's chunk
    /// references rather than deleting bytes, so chunks shared with
    /// live objects survive and only unreferenced ones are freed.
    pub fn sweep_lifecycle(&self) -> u64 {
        let now = self.inner.clock.now();
        let wal = self.inner.wal.read().clone();
        let mut expired = 0u64;
        let mut state = self.inner.state.write();
        let mut released: Vec<ChunkManifest> = Vec::new();
        for b in state.buckets.values_mut() {
            let rule = b.rule;
            let doomed: Vec<String> = b
                .objects
                .iter()
                .filter(|(_, o)| rule.is_expired(o.meta.uploaded_at, o.meta.last_used, now))
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                let rec = b.objects.remove(&k).expect("doomed key just listed");
                released.push(rec.manifest);
                expired += 1;
            }
        }
        for manifest in &released {
            self.release_manifest(manifest, false);
        }
        // A sweep that expired nothing is a no-op at any replay time
        // and is not journaled; one that did is replayed at its
        // recorded time (expiry depends on the journaled timestamps).
        if expired > 0 {
            if let Some(w) = &wal {
                w.append(&StoreRecord::Sweep { time_millis: now.as_millis() }.encode());
            }
        }
        drop(state);
        self.inner.counters.write().expired += expired;
        expired
    }

    /// Usage snapshot.
    pub fn usage(&self) -> StoreUsage {
        let state = self.inner.state.read();
        let mut bytes_stored = 0;
        let mut objects = 0;
        for b in state.buckets.values() {
            for o in b.objects.values() {
                bytes_stored += o.meta.size;
                objects += 1;
            }
        }
        let (chunks, bytes_physical, chunks_dedup_total) = self.inner.arena.totals();
        drop(state);
        let c = self.inner.counters.read();
        StoreUsage {
            bytes_stored,
            bytes_physical,
            chunks,
            chunks_dedup_total,
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

    /// Attach a write-ahead log in the legacy single-log layout (chunk
    /// bytes ride `Put` records): every committed mutation from here
    /// on is journaled. Attach before the first mutation — the log
    /// must cover the store's whole history (or start from a
    /// snapshot).
    pub fn attach_wal(&self, wal: Wal) {
        self.attach_logs(wal, Vec::new());
    }

    /// Attach the sharded-durable log streams: a main object log plus
    /// one chunk log per arena shard (or none, for the legacy layout).
    /// Newly admitted chunk bytes go to their shard's log; `Put`
    /// records in the main log then carry no bytes.
    pub fn attach_logs(&self, main: Wal, chunk_wals: Vec<Wal>) {
        assert!(
            chunk_wals.is_empty() || chunk_wals.len() == self.inner.arena.shard_count(),
            "one chunk log per arena shard"
        );
        *self.inner.wal.write() = Some(main);
        *self.inner.chunk_wals.write() = chunk_wals;
    }

    /// The attached main WAL, if any.
    pub fn wal(&self) -> Option<Wal> {
        self.inner.wal.read().clone()
    }

    /// The attached per-shard chunk logs (empty in the legacy layout).
    pub fn chunk_wals(&self) -> Vec<Wal> {
        self.inner.chunk_wals.read().clone()
    }

    /// Force the attached logs' buffered appends to stable storage
    /// (durability point). Chunk logs sync before the main log so a
    /// crash between the two can lose an admitted chunk's `Put`, but
    /// never a synced `Put`'s chunk bytes... except when the tear
    /// itself lands on a chunk lane, which replay handles by dropping
    /// (and counting) the unreadable object. No-op without a WAL.
    pub fn sync_wal(&self) {
        for w in self.inner.chunk_wals.read().iter() {
            w.sync();
        }
        if let Some(w) = self.inner.wal.read().as_ref() {
            w.sync();
        }
    }

    /// Open a store's log streams over one backend, per the arena
    /// shard count. At `shards == 1` the backend carries the single
    /// legacy log byte-for-byte (no striping, no chunk lanes); at
    /// `shards > 1` the backend's segment-id space is striped into
    /// `shards + 1` interleaved lanes — lane 0 the main object log,
    /// lanes `1..=shards` one chunk log per arena shard — so drivers
    /// keep provisioning exactly one store log either way.
    pub fn open_store_logs(
        backend: Arc<dyn LogBackend>,
        config: DurabilityConfig,
        shards: usize,
    ) -> (Wal, Vec<Wal>) {
        if shards <= 1 {
            return (Wal::open(backend, config), Vec::new());
        }
        let stride = shards as u64 + 1;
        let main = Wal::open(
            Arc::new(StripedBackend::new(backend.clone(), 0, stride)),
            config,
        );
        let chunks = (0..shards)
            .map(|i| {
                Wal::open(
                    Arc::new(StripedBackend::new(backend.clone(), i as u64 + 1, stride)),
                    config,
                )
            })
            .collect();
        (main, chunks)
    }

    /// Rebuild a store from `wal`, then attach the log to the rebuilt
    /// store so it keeps journaling. Corrupt WAL records were already
    /// dropped by the framing layer; logically-malformed payloads and
    /// objects whose chunk bytes were lost with a dropped record are
    /// counted in the returned [`StoreRecovery`] — replay never
    /// panics and never installs an unreadable object.
    pub fn recover(clock: VirtualClock, wal: Wal) -> (ObjectStore, StoreRecovery) {
        Self::recover_sharded(clock, wal, Vec::new())
    }

    /// Rebuild a sharded-durable store: one chunk log per arena shard
    /// plus the main object log. The arena shard count is implied by
    /// the lane count (`chunk_wals.len()`, or 1 when empty — the
    /// legacy layout).
    ///
    /// Replay runs in two phases. Phase 1 restores every lane's
    /// [`StoreRecord::ChunkInstall`] bytes at refcount zero; phase 2
    /// replays the main log, re-deriving each put's dedup outcome from
    /// the refcount (see `ChunkStore::retain_replay`) so the rebuilt
    /// state is byte-identical regardless of how installs interleaved
    /// across lanes. Chunks left unreferenced at the end — orphaned by
    /// dropped objects or freed before the crash — are pruned.
    pub fn recover_sharded(
        clock: VirtualClock,
        main: Wal,
        chunk_wals: Vec<Wal>,
    ) -> (ObjectStore, StoreRecovery) {
        fn add(into: &mut rai_wal::ReplayStats, s: rai_wal::ReplayStats) {
            into.replayed += s.replayed;
            into.corrupt_dropped += s.corrupt_dropped;
            into.torn_bytes += s.torn_bytes;
        }
        let store = ObjectStore::with_shards(clock, chunk_wals.len().max(1));
        let sharded = !chunk_wals.is_empty();
        let mut recovery = StoreRecovery::default();
        // Phase 1: restore the chunk lanes. Lane `i` holds exactly
        // shard `i`'s admissions in admission order; a record lost to
        // a torn lane tail surfaces in phase 2 as an unresolvable
        // object (dropped, counted), never as a panic.
        for (i, wal) in chunk_wals.iter().enumerate() {
            let replay = wal.replay();
            add(&mut recovery.stats, replay.stats);
            let mut shard = store.inner.arena.lock(i);
            for payload in &replay.records {
                match StoreRecord::decode(payload) {
                    Some(StoreRecord::ChunkInstall { digest, bytes }) => {
                        shard.restore_chunk(digest, bytes);
                        recovery.applied += 1;
                    }
                    _ => recovery.malformed_dropped += 1,
                }
            }
        }
        // Phase 2: the main object log.
        let replay = main.replay();
        add(&mut recovery.stats, replay.stats);
        {
            let mut state = store.inner.state.write();
            let mut counters = store.inner.counters.write();
            for payload in &replay.records {
                match StoreRecord::decode(payload) {
                    Some(rec) => {
                        recovery.objects_dropped +=
                            store.apply(&mut state, &mut counters, rec, sharded);
                        recovery.applied += 1;
                    }
                    None => recovery.malformed_dropped += 1,
                }
            }
        }
        // Chunks no surviving manifest references (snapshot leftovers,
        // dropped objects, frees before the crash) would otherwise
        // linger with a zero refcount.
        store.inner.arena.prune_unreferenced();
        store.attach_logs(main, chunk_wals);
        (store, recovery)
    }

    /// Apply one journaled mutation during replay. Returns how many
    /// objects were dropped (chunk bytes unavailable). `sharded` picks
    /// the chunk-reference semantics: chunk bytes pre-restored from
    /// per-shard lanes (refcounts re-derived in place, releases keep
    /// bytes) versus the legacy layout where bytes ride the `Put`
    /// records themselves.
    fn apply(
        &self,
        state: &mut StoreState,
        counters: &mut Counters,
        rec: StoreRecord,
        sharded: bool,
    ) -> u64 {
        let arena = &self.inner.arena;
        match rec {
            StoreRecord::CreateBucket { name, rule } => {
                state
                    .buckets
                    .entry(name)
                    .or_insert_with(|| BucketState { rule, objects: BTreeMap::new() });
                0
            }
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
                // The operation happened historically: reconstruct the
                // cumulative counters whether or not the object itself
                // survives.
                counters.puts += 1;
                counters.bytes_uploaded += manifest.total_len;
                counters.bytes_wire += wire_bytes;
                if delta {
                    counters.delta_puts += 1;
                }
                if !state.buckets.contains_key(&bucket) {
                    return 1;
                }
                let carried: Vec<Chunk> =
                    new_chunks.into_iter().map(|(digest, data)| Chunk { digest, data }).collect();
                {
                    let referenced = manifest.chunks.iter().map(|r| r.digest);
                    let mut shards =
                        arena.lock_for(referenced.chain(carried.iter().map(|c| c.digest)));
                    // Atomicity, as in put_delta: resolve every
                    // reference before mutating anything. A miss means
                    // the bytes rode a WAL record that was dropped as
                    // corrupt — the object is unreadable and must not
                    // be installed.
                    let resident = |d| shards.resident_len(d);
                    let Ok(sources) = resolve(&manifest, &carried, None, false, resident) else {
                        return 1;
                    };
                    for (r, source) in manifest.chunks.iter().zip(sources) {
                        let shard = shards.shard_mut(r.digest);
                        let retained = if sharded {
                            // Bytes normally live in the shard's lane
                            // already; a record that carried its own
                            // bytes (mixed-layout log) installs them
                            // first (a no-op when resident).
                            if let Some(data) = source {
                                shard.restore_chunk(r.digest, data.clone());
                            }
                            shard.retain_replay(r.digest)
                        } else {
                            shard.retain(r.digest, source).ok()
                        };
                        retained.expect("availability resolved above");
                    }
                }
                let now = SimTime::from_millis(time_millis);
                let record = ObjRecord {
                    meta: ObjectMeta {
                        key: key.clone(),
                        size: manifest.total_len,
                        etag: manifest.etag.clone(),
                        uploaded_at: now,
                        last_used: now,
                        user,
                    },
                    manifest,
                };
                let b = state.buckets.get_mut(&bucket).expect("existence checked above");
                let prev = b.objects.insert(key, record);
                if let Some(prev) = prev {
                    self.release_manifest(&prev.manifest, sharded);
                }
                0
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                counters.gets += 1;
                counters.bytes_downloaded += size;
                if let Some(rec) = state
                    .buckets
                    .get_mut(&bucket)
                    .and_then(|b| b.objects.get_mut(&key))
                {
                    rec.meta.last_used = SimTime::from_millis(time_millis);
                }
                0
            }
            StoreRecord::Delete { bucket, key } => {
                counters.deletes += 1;
                if let Some(rec) =
                    state.buckets.get_mut(&bucket).and_then(|b| b.objects.remove(&key))
                {
                    self.release_manifest(&rec.manifest, sharded);
                }
                0
            }
            StoreRecord::Sweep { time_millis } => {
                let now = SimTime::from_millis(time_millis);
                let mut released: Vec<ChunkManifest> = Vec::new();
                for b in state.buckets.values_mut() {
                    let rule = b.rule;
                    let doomed: Vec<String> = b
                        .objects
                        .iter()
                        .filter(|(_, o)| {
                            rule.is_expired(o.meta.uploaded_at, o.meta.last_used, now)
                        })
                        .map(|(k, _)| k.clone())
                        .collect();
                    for k in doomed {
                        let rec = b.objects.remove(&k).expect("doomed key just listed");
                        released.push(rec.manifest);
                        counters.expired += 1;
                    }
                }
                for m in &released {
                    self.release_manifest(m, sharded);
                }
                0
            }
            StoreRecord::ChunkInstall { digest, bytes } => {
                // Chunk installs belong to the per-shard lanes; one in
                // the main log (mixed-layout history) still restores.
                arena.lock(arena.shard_of(digest)).restore_chunk(digest, bytes);
                0
            }
            StoreRecord::SnapshotStore { buckets, chunks, counters: snap } => {
                let mut dropped = 0u64;
                state.buckets.clear();
                if sharded {
                    // The physical payload was already restored from
                    // the chunk lanes in phase 1; discard whatever
                    // references pre-snapshot replay accumulated and
                    // re-derive them from the snapshot's manifests.
                    arena.reset_refs();
                } else {
                    arena.wipe();
                }
                let mut shards = arena.lock_for(chunks.iter().map(|&(d, _)| d));
                for (digest, data) in chunks {
                    shards.shard_mut(digest).restore_chunk(digest, data);
                }
                drop(shards);
                for b in buckets {
                    let mut objects = BTreeMap::new();
                    for o in b.objects {
                        let digests = o.manifest.chunks.iter().map(|r| r.digest);
                        let mut shards = arena.lock_for(digests.clone());
                        if !digests.clone().all(|d| shards.contains(d)) {
                            dropped += 1;
                            continue;
                        }
                        for d in digests {
                            shards.shard_mut(d).ref_existing(d);
                        }
                        drop(shards);
                        objects.insert(
                            o.meta.key.clone(),
                            ObjRecord { meta: o.meta, manifest: o.manifest },
                        );
                    }
                    state
                        .buckets
                        .insert(b.name, BucketState { rule: b.rule, objects });
                }
                arena.set_dedup_hits_total(snap.dedup_hits);
                *counters = Counters {
                    bytes_uploaded: snap.bytes_uploaded,
                    bytes_downloaded: snap.bytes_downloaded,
                    bytes_wire: snap.bytes_wire,
                    puts: snap.puts,
                    delta_puts: snap.delta_puts,
                    gets: snap.gets,
                    deletes: snap.deletes,
                    expired: snap.expired,
                };
                dropped
            }
        }
    }

    /// Compact the attached logs into snapshot records if any log's
    /// size warrants it (per [`rai_wal::DurabilityConfig`]). All lanes
    /// compact together — a snapshot is one consistent point, and the
    /// main-log snapshot's manifests must resolve against exactly the
    /// chunk set the lanes retain. Call only at quiesced points — the
    /// snapshot must not interleave with concurrent mutations. Returns
    /// whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.read().clone() else {
            return false;
        };
        let chunk_wals = self.inner.chunk_wals.read().clone();
        if !wal.should_compact() && !chunk_wals.iter().any(|w| w.should_compact()) {
            return false;
        }
        let state = self.inner.state.read();
        let counters = self.inner.counters.read();
        let arena = &self.inner.arena;
        // Legacy layout: the snapshot record itself carries the
        // physical payload, digest-sorted (shard partitioning keeps
        // per-shard maps sorted; the merge just re-sorts the
        // concatenation). Sharded: the lanes carry it instead.
        let snap_chunks: Vec<(u64, Bytes)> = if chunk_wals.is_empty() {
            let mut all: Vec<(u64, Bytes)> = Vec::new();
            for i in 0..arena.shard_count() {
                all.extend(arena.read(i).snapshot_chunks());
            }
            all.sort_by_key(|&(d, _)| d);
            all
        } else {
            Vec::new()
        };
        let (_, _, dedup_hits) = arena.totals();
        let snapshot = StoreRecord::SnapshotStore {
            buckets: state
                .buckets
                .iter()
                .map(|(name, b)| SnapBucket {
                    name: name.clone(),
                    rule: b.rule,
                    objects: b
                        .objects
                        .values()
                        .map(|o| SnapObject {
                            meta: o.meta.clone(),
                            manifest: o.manifest.clone(),
                        })
                        .collect(),
                })
                .collect(),
            chunks: snap_chunks,
            counters: SnapCounters {
                bytes_uploaded: counters.bytes_uploaded,
                bytes_downloaded: counters.bytes_downloaded,
                bytes_wire: counters.bytes_wire,
                puts: counters.puts,
                delta_puts: counters.delta_puts,
                gets: counters.gets,
                deletes: counters.deletes,
                expired: counters.expired,
                dedup_hits,
            },
        };
        wal.compact(std::iter::once(snapshot.encode()));
        for (i, cw) in chunk_wals.iter().enumerate() {
            let resident = arena.read(i).snapshot_chunks();
            cw.compact(resident.into_iter().map(|(digest, bytes)| {
                StoreRecord::ChunkInstall { digest, bytes }.encode()
            }));
        }
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
    pub applied: u64,
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
        s.put(
            "uploads",
            "k",
            &b""[..],
            [("team".to_string(), "rust".to_string())],
        )
        .unwrap();
        let meta = s.head("uploads", "k").unwrap();
        assert_eq!(meta.user.get("team").map(String::as_str), Some("rust"));
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
            let shards = s.inner.arena.read_for(manifest.chunks.iter().map(|r| r.digest));
            for c in &chunks {
                let held = shards.shard(c.digest).unwrap().data(c.digest).unwrap();
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
    fn pool_executor_store_matches_sequential() {
        // Big enough to cross both PAR_CHUNK_MIN_BYTES (server-side
        // put chunking) and PAR_VERIFY_MIN_BYTES (delta pre-hash), so
        // the pool paths actually run.
        let payload = varied(100_000, 9);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        let reference = {
            let s = store();
            let etag = s.put("keep", "whole", payload.clone(), []).unwrap();
            let detag = s.put_delta("keep", "delta", &manifest, &chunks, []).unwrap();
            (etag, detag, s.usage())
        };
        for threads in [2, 8] {
            let s = store();
            s.set_executor(Executor::new(threads));
            let etag = s.put("keep", "whole", payload.clone(), []).unwrap();
            let detag = s.put_delta("keep", "delta", &manifest, &chunks, []).unwrap();
            assert_eq!(
                (etag, detag, s.usage()),
                reference,
                "store accounting drift at threads={threads}"
            );
            assert_eq!(s.get("keep", "delta").unwrap().data.as_ref(), &payload[..]);
            // Corruption is still rejected on the pre-hashed path
            // (fresh store: the chunk must not already be resident,
            // or its provided bytes would be ignored by design).
            let fresh = store();
            fresh.set_executor(Executor::new(threads));
            let mut bad = chunks.clone();
            bad[0].data = Bytes::from(vec![0xAB; bad[0].data.len()]);
            assert!(matches!(
                fresh.put_delta("keep", "x", &manifest, &bad, []),
                Err(StoreError::DeltaMismatch { .. })
            ));
        }
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
        s.put("builds", "b1", varied(800, 22), [("job".into(), "42".into())])
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

    // ---- sharded arena and sharded-durable layout --------------------

    fn store_with_shards(shards: usize) -> ObjectStore {
        let s = ObjectStore::with_shards(VirtualClock::new(), shards);
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        s
    }

    /// A workload exercising every chunk-lifecycle transition replay
    /// must reproduce: dedup'd delta puts, overwrites, deletes, expiry,
    /// and — the subtle one — content re-admitted after its last
    /// reference died (live, the bytes are freed and re-uploaded; in
    /// sharded replay they stay resident at refcount zero).
    fn sharded_workload(s: &ObjectStore) {
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
        s.put("keep", "reborn", payload, []).unwrap();
        s.clock().advance(SimDuration::from_days(95));
        s.sweep_lifecycle();
    }

    fn durable_sharded(shards: usize) -> (ObjectStore, rai_wal::MemDisk) {
        let disk = rai_wal::MemDisk::new();
        let (main, lanes) = ObjectStore::open_store_logs(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
            shards,
        );
        let s = ObjectStore::with_shards(VirtualClock::new(), shards);
        s.attach_logs(main, lanes);
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        (s, disk)
    }

    fn reopen_sharded(
        disk: &rai_wal::MemDisk,
        shards: usize,
        clock: VirtualClock,
    ) -> (ObjectStore, StoreRecovery) {
        let (main, lanes) = ObjectStore::open_store_logs(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
            shards,
        );
        ObjectStore::recover_sharded(clock, main, lanes)
    }

    #[test]
    fn presence_reads_take_no_write_locks() {
        let s = store_with_shards(4);
        let payload = varied(5000, 7);
        s.put("uploads", "team/proj.tar", payload.clone(), []).unwrap();
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::for_len(payload.len()));
        let mut digests: Vec<u64> = manifest.chunks.iter().map(|r| r.digest).collect();
        digests.push(0xdead_beef_dead_beef); // absent digest probes the same path
        assert!(digests.len() > 4 * s.shard_count(), "batch must dwarf the shard count");
        let arena = &s.inner.arena;
        let (writes_before, reads_before) = (arena.write_acquisitions(), arena.read_acquisitions());
        let flags = s.has_chunks(&digests).unwrap();
        assert!(flags[..flags.len() - 1].iter().all(|&f| f));
        assert!(!flags[flags.len() - 1]);
        assert_eq!(s.get("uploads", "team/proj.tar").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(
            arena.write_acquisitions(),
            writes_before,
            "presence checks and reassembly must never take an exclusive shard lock"
        );
        let reads = arena.read_acquisitions() - reads_before;
        assert!(
            (2..=2 * s.shard_count() as u64).contains(&reads),
            "each call costs at most one shared guard per shard, not one per chunk: {reads}"
        );
    }

    #[test]
    fn sharded_arena_matches_single_lock_reference() {
        let run = |shards: usize| {
            let s = store_with_shards(shards);
            sharded_workload(&s);
            (fingerprint(&s), s.get("keep", "reborn").unwrap().data)
        };
        let reference = run(1);
        for shards in [4, 16] {
            assert_eq!(run(shards), reference, "shards={shards} must be observationally identical");
        }
        // The occupancy gauge partitions the resident set exactly.
        let s = store_with_shards(4);
        sharded_workload(&s);
        let counts = s.shard_chunk_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<u64>(), s.usage().chunks);
    }

    #[test]
    fn sharded_durable_recovery_round_trip() {
        let (s, disk) = durable_sharded(4);
        sharded_workload(&s);
        s.sync_wal();
        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_days(95));
        let (r, recovery) = reopen_sharded(&disk, 4, clock);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s), "per-shard replay must be exact");
        // ...and byte-identical to the legacy single-log reference run
        // (compared before any reads — gets are journaled and counted).
        let (legacy, _) = durable_store(rai_wal::DurabilityConfig::durable());
        sharded_workload(&legacy);
        assert_eq!(fingerprint(&r), fingerprint(&legacy));
        // Read through `r` only: `s` still journals into the same
        // disk, and a stray Touch would double-count on the reopen.
        assert_eq!(r.get("keep", "reborn").unwrap().data.as_ref(), &varied(5000, 77)[..]);
        // The recovered store keeps journaling into its lanes.
        r.put("keep", "after", &b"post-recovery"[..], []).unwrap();
        r.sync_wal();
        let (r2, _) = reopen_sharded(&disk, 4, VirtualClock::new());
        assert_eq!(fingerprint(&r2), fingerprint(&r));
        assert_eq!(r2.get("keep", "after").unwrap().data.as_ref(), b"post-recovery");
    }

    #[test]
    fn sharded_compaction_compacts_all_lanes_together() {
        let disk = rai_wal::MemDisk::new();
        let config = rai_wal::DurabilityConfig {
            compact_min_bytes: 1,
            compact_factor: 2,
            ..rai_wal::DurabilityConfig::durable()
        };
        let (main, lanes) = ObjectStore::open_store_logs(Arc::new(disk.clone()), config, 4);
        let s = ObjectStore::with_shards(VirtualClock::new(), 4);
        s.attach_logs(main, lanes);
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        for i in 0..50u64 {
            s.put("keep", "hot", varied(1200, i), []).unwrap();
        }
        s.sync_wal();
        let before = disk.total_bytes();
        assert!(s.maybe_compact(), "50 dead overwrites must trip the threshold");
        let after = disk.total_bytes();
        assert!(
            after * 4 < before,
            "snapshot + resident lane chunks should be far smaller ({after} vs {before})"
        );
        let (r, recovery) = reopen_sharded(&disk, 4, VirtualClock::new());
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s));
        assert_eq!(r.get("keep", "hot").unwrap().data, s.get("keep", "hot").unwrap().data);
    }

    #[test]
    fn sharded_torn_lane_loses_only_unsynced_objects() {
        let (s, disk) = durable_sharded(4);
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
        // The tear lands in whichever lane owns the highest physical
        // segment — possibly a chunk lane (Put resolves nothing and is
        // dropped) or the main lane (the Put itself is lost). Either
        // way the synced object survives and nothing half-exists.
        let (r, recovery) = reopen_sharded(&disk, 4, VirtualClock::new());
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
        for meta in r.list("keep", "").unwrap() {
            r.get("keep", &meta.key).unwrap();
        }
        let counts = r.shard_chunk_counts();
        assert_eq!(counts.iter().sum::<u64>(), r.usage().chunks, "no orphaned chunks linger");
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
