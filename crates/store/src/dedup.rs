//! Refcounted content-addressed chunk arena — the physical layer of
//! the store.
//!
//! Objects (see [`crate::store::ObjectStore`]) are manifests of chunk
//! digests; every distinct chunk lives here exactly once with a
//! reference count. Overwrites, deletes and lifecycle expiry release
//! references, and a chunk's bytes are freed only when the last
//! manifest referencing it is gone — which is what makes lifecycle GC
//! safe in the presence of cross-object sharing (DESIGN.md §10).

use bytes::Bytes;
use parking_lot::{RwLockReadGuard, RwLockWriteGuard};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::{Deref, DerefMut};

struct ChunkEntry {
    data: Bytes,
    refs: u64,
}

/// The chunk arena: digest → (bytes, refcount), plus physical-usage
/// accounting.
///
/// The index is hash maps (see [`SEGMENTS`]) under std's default
/// *keyed* hasher: digests are FNV values of student-supplied bytes,
/// so an unkeyed or identity hasher would let one upload aim every
/// chunk at a single probe sequence. Iteration order is therefore
/// per-process random and nothing may observe it —
/// [`ChunkStore::snapshot_chunks`], the one ordered view, sorts.
#[derive(Default)]
pub(crate) struct ChunkStore {
    chunks: [HashMap<u64, ChunkEntry>; SEGMENTS],
    physical_bytes: u64,
    dedup_hits: u64,
}

/// Tables the index is split into. One table for ≈450 000 chunks is a
/// 20 MiB allocation that doubles by reallocating; under glibc's
/// sliding mmap threshold those tables end up inside the heap, and
/// each growth strands a hole half their size. Sixteen keep every
/// table near 1 MiB (`bulk_fresh` in `BENCHMARK.json`: `peak_rss_mib`
/// 124 against 133–137 unsplit, throughput equal).
const SEGMENTS: usize = 16;

/// Which table holds `digest`: bits 48–51, disjoint from the top byte
/// the arena shards by. An uploader can aim every chunk at one table;
/// that is the unsplit index again, still under its keyed hasher.
fn segment_of(digest: u64) -> usize {
    (digest >> 48) as usize % SEGMENTS
}

impl ChunkStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn segment(&self, digest: u64) -> &HashMap<u64, ChunkEntry> {
        &self.chunks[segment_of(digest)]
    }

    /// Whether a chunk with this digest is resident.
    pub fn contains(&self, digest: u64) -> bool {
        self.segment(digest).contains_key(&digest)
    }

    /// The chunk's bytes, if resident.
    pub fn data(&self, digest: u64) -> Option<&Bytes> {
        self.segment(digest).get(&digest).map(|e| &e.data)
    }

    /// Take one reference on `digest`. If the chunk is already
    /// resident this is a dedup hit and `data` is ignored; otherwise
    /// `data` must carry the bytes, or `Err(())` is returned and no
    /// reference is taken. Returns `Ok(true)` on a dedup hit.
    pub fn retain(&mut self, digest: u64, data: Option<&Bytes>) -> Result<bool, ()> {
        match self.chunks[segment_of(digest)].entry(digest) {
            Entry::Occupied(mut e) => {
                e.get_mut().refs += 1;
                self.dedup_hits += 1;
                Ok(true)
            }
            Entry::Vacant(v) => {
                let Some(data) = data else { return Err(()) };
                self.physical_bytes += data.len() as u64;
                v.insert(ChunkEntry {
                    data: data.clone(),
                    refs: 1,
                });
                Ok(false)
            }
        }
    }

    /// Drop one reference; frees the chunk bytes when the count hits
    /// zero. Releasing an unknown digest is a logic error upstream and
    /// is ignored in release builds.
    pub fn release(&mut self, digest: u64) {
        let Entry::Occupied(mut e) = self.chunks[segment_of(digest)].entry(digest) else {
            debug_assert!(false, "release of untracked chunk {digest:016x}");
            return;
        };
        e.get_mut().refs -= 1;
        if e.get().refs == 0 {
            self.physical_bytes -= e.remove().data.len() as u64;
        }
    }

    /// Number of distinct resident chunks.
    pub fn count(&self) -> u64 {
        self.chunks.iter().map(|m| m.len() as u64).sum()
    }

    /// Bytes actually held (each distinct chunk counted once).
    pub fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    /// Cumulative count of retains that found the chunk already
    /// resident.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    // ---- recovery support (crate::journal) ---------------------------

    /// Every resident chunk in digest order — the physical payload of a
    /// compaction snapshot. Sorted here because the index is not:
    /// snapshot and WAL bytes must not depend on the hasher's key.
    pub fn snapshot_chunks(&self) -> Vec<(u64, Bytes)> {
        let mut all: Vec<(u64, Bytes)> =
            self.chunks.iter().flatten().map(|(d, e)| (*d, e.data.clone())).collect();
        all.sort_unstable_by_key(|&(d, _)| d);
        all
    }

    /// Install chunk bytes with a zero refcount during snapshot
    /// restore; references are re-derived from object manifests via
    /// [`ChunkStore::ref_existing`]. No-op if the digest is already
    /// resident.
    pub fn restore_chunk(&mut self, digest: u64, data: Bytes) {
        if let Entry::Vacant(v) = self.chunks[segment_of(digest)].entry(digest) {
            self.physical_bytes += data.len() as u64;
            v.insert(ChunkEntry { data, refs: 0 });
        }
    }

    /// Take one reference on an already-resident chunk without
    /// counting a dedup hit (restore path). Returns `false` if the
    /// digest is not resident.
    pub fn ref_existing(&mut self, digest: u64) -> bool {
        match self.chunks[segment_of(digest)].get_mut(&digest) {
            Some(entry) => {
                entry.refs += 1;
                true
            }
            None => false,
        }
    }

    /// Overwrite the cumulative dedup-hit counter (snapshot restore).
    pub fn set_dedup_hits(&mut self, hits: u64) {
        self.dedup_hits = hits;
    }

    /// Replay-mode retain, used when chunk bytes are restored up front
    /// (per-shard chunk logs) rather than riding the object records.
    ///
    /// Replay pre-installs every logged chunk at refcount zero, so
    /// "resident" no longer means what it meant live and plain
    /// [`ChunkStore::retain`] would count phantom dedup hits. Here the
    /// original run's outcome is re-derived from the refcount instead:
    /// `refs > 0` means some earlier replayed object still references
    /// the chunk, so the original op found it resident — a dedup hit;
    /// `refs == 0` means the original op admitted it fresh — no hit.
    /// Returns `None` when the bytes are absent entirely (lost with a
    /// torn record; the object must be dropped).
    pub fn retain_replay(&mut self, digest: u64) -> Option<bool> {
        let entry = self.chunks[segment_of(digest)].get_mut(&digest)?;
        let hit = entry.refs > 0;
        entry.refs += 1;
        if hit {
            self.dedup_hits += 1;
        }
        Some(hit)
    }

    /// Replay-mode release: drops the reference but keeps the bytes
    /// resident at refcount zero, because a later replayed object may
    /// re-admit the same content (live, it would re-supply the bytes;
    /// in replay they only exist here). Orphans are swept once at the
    /// end by [`ChunkStore::prune_unreferenced`].
    pub fn release_replay(&mut self, digest: u64) {
        if let Some(entry) = self.chunks[segment_of(digest)].get_mut(&digest) {
            entry.refs = entry.refs.saturating_sub(1);
        }
    }

    /// Zero every refcount, keeping bytes resident — replaying a
    /// snapshot record re-derives references from the snapshot's own
    /// manifests, discarding whatever pre-snapshot replay accumulated.
    pub fn reset_refs(&mut self) {
        for entry in self.chunks.iter_mut().flat_map(HashMap::values_mut) {
            entry.refs = 0;
        }
    }

    /// Drop chunks no surviving manifest references (objects discarded
    /// during a faulted replay leave their restored bytes orphaned).
    pub fn prune_unreferenced(&mut self) {
        let physical_bytes = &mut self.physical_bytes;
        for segment in &mut self.chunks {
            segment.retain(|_, e| {
                if e.refs == 0 {
                    *physical_bytes -= e.data.len() as u64;
                }
                e.refs > 0
            });
        }
    }
}

// ---- sharded arena ---------------------------------------------------

/// The chunk arena partitioned into independent lock domains by digest
/// prefix: chunk `d` lives in shard `(d >> 56) % N`, a pure function of
/// the digest, so a chunk lands in the same shard on every run and
/// every replay (DESIGN.md §16). Gear digests diffuse content into the
/// top byte, so shards load-balance without coordination.
///
/// Each shard is a [`ChunkStore`] behind its own reader-writer lock;
/// admissions touching disjoint shards proceed concurrently, and pure
/// presence reads (`read_for`, `totals`, occupancy gauges) share the
/// read half without excluding each other. All cross-shard accounting
/// is the sum over shards — shards partition the digest space, so sums
/// are exact, not approximations.
///
/// `N = 1` (the default) is the preserved single-lock reference
/// configuration.
pub(crate) struct ChunkArena {
    shards: Vec<parking_lot::RwLock<ChunkStore>>,
    /// Cumulative microseconds spent waiting on contended shard locks.
    /// A host fact (like `ExecStats`): surfaced in reports and
    /// telemetry, never in fingerprints.
    lock_wait_micros: std::sync::atomic::AtomicU64,
    /// Exclusive (write) guard acquisitions — lets tests assert that a
    /// pure read path never took a writer lock.
    write_acquisitions: std::sync::atomic::AtomicU64,
    /// Shared (read) guard acquisitions.
    read_acquisitions: std::sync::atomic::AtomicU64,
}

/// The shards one batch of digests touches, each locked once for the
/// whole batch ([`ChunkArena::lock_for`] / [`ChunkArena::read_for`]):
/// guards by shard index, `None` where the batch touches nothing.
pub(crate) struct Locked<'a, G> {
    arena: &'a ChunkArena,
    guards: Vec<Option<G>>,
}

impl<G: Deref<Target = ChunkStore>> Locked<'_, G> {
    /// The shard owning `digest`, if this batch locked it.
    pub fn shard(&self, digest: u64) -> Option<&ChunkStore> {
        self.guards[self.arena.shard_of(digest)].as_deref()
    }

    /// Whether `digest` is resident (`false` outside the batch's shards).
    pub fn contains(&self, digest: u64) -> bool {
        self.shard(digest).is_some_and(|cs| cs.contains(digest))
    }

    /// The resident chunk's length (`None` if it is not resident, or
    /// outside the batch's shards).
    pub fn resident_len(&self, digest: u64) -> Option<usize> {
        Some(self.shard(digest)?.data(digest)?.len())
    }
}

impl<G: DerefMut<Target = ChunkStore>> Locked<'_, G> {
    /// The shard owning `digest`, which must be one of the batch's own.
    pub fn shard_mut(&mut self, digest: u64) -> &mut ChunkStore {
        self.guards[self.arena.shard_of(digest)]
            .as_deref_mut()
            .expect("digest belongs to the batch the shards were locked for")
    }
}

impl ChunkArena {
    pub fn new(shards: usize) -> Self {
        ChunkArena {
            shards: (0..shards.max(1)).map(|_| Default::default()).collect(),
            lock_wait_micros: std::sync::atomic::AtomicU64::new(0),
            write_acquisitions: std::sync::atomic::AtomicU64::new(0),
            read_acquisitions: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of lock domains.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `digest` — pure function of the digest prefix.
    pub fn shard_of(&self, digest: u64) -> usize {
        ((digest >> 56) as usize) % self.shards.len()
    }

    /// Lock one shard exclusively (mutation path), charging contended
    /// waits to the lock-wait counter. The uncontended fast path costs
    /// one `try_write`.
    pub fn lock(&self, shard: usize) -> RwLockWriteGuard<'_, ChunkStore> {
        self.write_acquisitions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(g) = self.shards[shard].try_write() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.shards[shard].write();
        self.lock_wait_micros.fetch_add(
            start.elapsed().as_micros() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        g
    }

    /// Lock one shard shared (pure read path): presence checks and
    /// accounting sums run here without excluding each other — only a
    /// concurrent admission on the *same* shard blocks, and that wait
    /// is charged to the lock-wait counter like any other.
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, ChunkStore> {
        self.read_acquisitions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(g) = self.shards[shard].try_read() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.shards[shard].read();
        self.lock_wait_micros.fetch_add(
            start.elapsed().as_micros() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        g
    }

    /// Take `acquire`'s guard on every shard `digests` touch, once
    /// each, in ascending index order — the global order that makes
    /// multi-shard admission deadlock-free — so a whole batch pays one
    /// acquisition per shard, not one per chunk.
    fn guard_each<G>(
        &self,
        digests: impl IntoIterator<Item = u64>,
        acquire: impl Fn(usize) -> G,
    ) -> Locked<'_, G> {
        let mut involved = vec![false; self.shards.len()];
        let mut untouched = involved.len();
        for d in digests {
            if untouched == 0 {
                break;
            }
            let hit = &mut involved[self.shard_of(d)];
            untouched -= usize::from(!*hit);
            *hit = true;
        }
        let guards = involved.iter().enumerate().map(|(s, hit)| hit.then(|| acquire(s)));
        Locked { arena: self, guards: guards.collect() }
    }

    /// Lock every shard `digests` touch exclusively (mutation paths).
    pub fn lock_for(
        &self,
        digests: impl IntoIterator<Item = u64>,
    ) -> Locked<'_, RwLockWriteGuard<'_, ChunkStore>> {
        self.guard_each(digests, |s| self.lock(s))
    }

    /// Lock every shard `digests` touch shared, for pure reads
    /// (presence probes, reassembly): never blocks other readers.
    pub fn read_for(
        &self,
        digests: impl IntoIterator<Item = u64>,
    ) -> Locked<'_, RwLockReadGuard<'_, ChunkStore>> {
        self.guard_each(digests, |s| self.read(s))
    }

    /// Aggregate `(chunks, physical_bytes, dedup_hits)` over shards.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for i in 0..self.shards.len() {
            let g = self.read(i);
            t.0 += g.count();
            t.1 += g.physical_bytes();
            t.2 += g.dedup_hits();
        }
        t
    }

    /// Resident chunks per shard, by shard index — the occupancy gauge
    /// surfaced as `rai_store_shard_chunks`.
    pub fn shard_chunk_counts(&self) -> Vec<u64> {
        (0..self.shards.len()).map(|i| self.read(i).count()).collect()
    }

    /// Cumulative contended lock-wait time, in microseconds.
    pub fn lock_wait_micros(&self) -> u64 {
        self.lock_wait_micros.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cumulative exclusive-guard acquisitions (tests assert read
    /// paths leave this untouched).
    pub fn write_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cumulative shared-guard acquisitions.
    pub fn read_acquisitions(&self) -> u64 {
        self.read_acquisitions.load(std::sync::atomic::Ordering::Relaxed)
    }

    // ---- replay support (single-threaded recovery paths) -------------

    /// Drop every shard's contents (legacy snapshot replay: the
    /// snapshot record carries the full physical payload).
    pub fn wipe(&self) {
        for s in &self.shards {
            *s.write() = ChunkStore::new();
        }
    }

    /// Zero every refcount in every shard, keeping bytes resident
    /// (sharded snapshot replay re-derives references from manifests).
    pub fn reset_refs(&self) {
        for s in &self.shards {
            s.write().reset_refs();
        }
    }

    /// Overwrite the cumulative dedup-hit total (snapshot restore).
    /// The counter is a sum over shards; park the whole total on shard
    /// 0 and zero the rest — per-shard attribution of pre-snapshot
    /// hits is not reconstructible, only the total is journaled.
    pub fn set_dedup_hits_total(&self, hits: u64) {
        for (i, s) in self.shards.iter().enumerate() {
            s.write().set_dedup_hits(if i == 0 { hits } else { 0 });
        }
    }

    /// Drop refcount-zero chunks in every shard (end of replay).
    pub fn prune_unreferenced(&self) {
        for s in &self.shards {
            s.write().prune_unreferenced();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn retain_release_lifecycle() {
        let mut cs = ChunkStore::new();
        assert_eq!(cs.retain(1, Some(&b(b"aaaa"))), Ok(false));
        assert_eq!(cs.retain(1, None), Ok(true), "second ref is a dedup hit");
        assert_eq!(cs.count(), 1);
        assert_eq!(cs.physical_bytes(), 4);
        assert_eq!(cs.dedup_hits(), 1);
        cs.release(1);
        assert!(cs.contains(1), "one ref left");
        cs.release(1);
        assert!(!cs.contains(1));
        assert_eq!(cs.physical_bytes(), 0);
    }

    #[test]
    fn retain_without_data_fails_for_unknown_chunk() {
        let mut cs = ChunkStore::new();
        assert_eq!(cs.retain(42, None), Err(()));
        assert!(!cs.contains(42));
    }

    #[test]
    fn distinct_chunks_accumulate_physical_bytes() {
        let mut cs = ChunkStore::new();
        cs.retain(1, Some(&b(b"xx"))).unwrap();
        cs.retain(2, Some(&b(b"yyy"))).unwrap();
        assert_eq!(cs.physical_bytes(), 5);
        assert_eq!(cs.count(), 2);
        assert_eq!(cs.data(2).unwrap().as_ref(), b"yyy");
        assert_eq!(cs.data(3), None);
    }

    #[test]
    fn replay_retain_reconstructs_hits_through_release_cycles() {
        // Mirrors the original run: A admits X, B dedups X (1 hit),
        // A deleted, C re-admits X fresh (no hit). In replay, bytes are
        // pre-installed at refs 0 and the hit/fresh outcome is
        // re-derived from the refcount.
        let mut cs = ChunkStore::new();
        cs.restore_chunk(7, b(b"chunk"));
        assert_eq!(cs.retain_replay(7), Some(false), "A: fresh admission");
        assert_eq!(cs.retain_replay(7), Some(true), "B: dedup hit");
        assert_eq!(cs.dedup_hits(), 1);
        cs.release_replay(7); // delete A
        cs.release_replay(7); // delete B
        assert!(cs.contains(7), "replay release keeps bytes at refs 0");
        assert_eq!(cs.retain_replay(7), Some(false), "C: fresh again, no hit");
        assert_eq!(cs.dedup_hits(), 1);
        assert_eq!(cs.retain_replay(99), None, "absent bytes: object dropped");
        cs.release_replay(7);
        cs.prune_unreferenced();
        assert!(!cs.contains(7), "final prune frees true orphans");
        assert_eq!(cs.physical_bytes(), 0);
    }

    #[test]
    fn reset_refs_keeps_bytes() {
        let mut cs = ChunkStore::new();
        cs.retain(1, Some(&b(b"xx"))).unwrap();
        cs.retain(1, None).unwrap();
        cs.reset_refs();
        assert!(cs.contains(1));
        assert!(cs.ref_existing(1), "snapshot replay re-references");
        cs.release(1);
        assert!(!cs.contains(1), "exactly one ref after reset");
    }

    #[test]
    fn arena_shards_partition_by_digest_prefix() {
        let arena = ChunkArena::new(4);
        assert_eq!(arena.shard_count(), 4);
        // Digest prefix picks the shard; low bits are irrelevant.
        let d0 = 0xABCDu64;
        let d1 = 0x01u64 << 56 | 0xABCD;
        let d5 = 0x05u64 << 56;
        assert_eq!(arena.shard_of(d0), 0);
        assert_eq!(arena.shard_of(d1), 1);
        assert_eq!(arena.shard_of(d5), 1, "prefix mod shard count");
        arena.lock(arena.shard_of(d0)).retain(d0, Some(&b(b"aa"))).unwrap();
        arena.lock(arena.shard_of(d1)).retain(d1, Some(&b(b"bbb"))).unwrap();
        assert_eq!(arena.totals(), (2, 5, 0));
        assert_eq!(arena.shard_chunk_counts(), vec![1, 1, 0, 0]);
        // A batch takes one guard per shard it touches, however many
        // digests land there, and none for the rest.
        let (reads, writes) = (arena.read_acquisitions(), arena.write_acquisitions());
        let batch = arena.read_for([d5, d1, d0, d0]);
        let held: Vec<bool> = batch.guards.iter().map(Option::is_some).collect();
        assert_eq!(held, vec![true, true, false, false]);
        assert!(batch.contains(d0) && batch.contains(d1) && !batch.contains(d5));
        assert!(batch.shard(2u64 << 56).is_none(), "untouched shards stay unlocked");
        drop(batch);
        assert_eq!(arena.read_acquisitions(), reads + 2);
        let mut batch = arena.lock_for([3u64 << 56, d1, d1]);
        let held: Vec<bool> = batch.guards.iter().map(Option::is_some).collect();
        assert_eq!(held, vec![false, true, false, true]);
        batch.shard_mut(d1).release(d1);
        drop(batch);
        assert_eq!(arena.write_acquisitions(), writes + 2);
        assert_eq!(arena.totals(), (1, 2, 0));
    }

    /// Wall-clock of retaining, probing and releasing `digests`: the
    /// best of three passes, to shed scheduler noise.
    fn churn_seconds(digests: &[u64]) -> f64 {
        let data = b(b"x");
        (0..3)
            .map(|_| {
                let mut cs = ChunkStore::new();
                let start = std::time::Instant::now();
                for d in digests {
                    cs.retain(*d, Some(&data)).unwrap();
                }
                assert!(digests.iter().all(|d| cs.contains(*d)));
                for d in digests {
                    cs.release(*d);
                }
                assert_eq!(cs.count(), 0);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn crafted_digests_cannot_degrade_the_index() {
        // 100 000 digests agreeing in their low 20 bits and their top
        // byte — the bits an unkeyed or identity hasher would bucket
        // and tag by, so every one would share a probe sequence and
        // the batch would go quadratic (minutes, not milliseconds).
        // Under the keyed hasher they cost what scattered digests cost.
        const N: u64 = 100_000;
        let crafted: Vec<u64> = (0..N).map(|i| 0xAB00_0000_000C_0FFE | (i << 20)).collect();
        assert!(crafted.iter().all(|d| d & 0xF_FFFF == 0xC0FFE && d >> 56 == 0xAB));
        let scattered: Vec<u64> =
            (1..=N).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let (crafted, scattered) = (churn_seconds(&crafted), churn_seconds(&scattered));
        assert!(
            crafted < scattered * 20.0,
            "crafted batch took {crafted:.3}s against {scattered:.3}s scattered"
        );
    }
}
