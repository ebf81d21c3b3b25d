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
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Which table holds `digest`: bits 48–51. An uploader can aim every
/// chunk at one table; that is the unsplit index again, still under
/// its keyed hasher.
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

    /// The resident chunk's length, if resident.
    pub fn resident_len(&self, digest: u64) -> Option<usize> {
        self.data(digest).map(Bytes::len)
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

/// The chunk arena's lock domain: one [`ChunkStore`] behind one
/// reader-writer lock. Pure reads (`has_chunks` probes, reassembly,
/// accounting) share the read half; every mutation takes the write half
/// once per call, however many chunks the call touches.
#[derive(Default)]
pub(crate) struct ChunkArena {
    chunks: RwLock<ChunkStore>,
    /// Cumulative microseconds spent waiting on the contended lock. A
    /// host fact: surfaced in reports and telemetry, never in
    /// fingerprints.
    lock_wait_micros: AtomicU64,
    /// Exclusive (write) guard acquisitions — lets tests assert that a
    /// pure read path never took the writer lock.
    write_acquisitions: AtomicU64,
    /// Shared (read) guard acquisitions.
    read_acquisitions: AtomicU64,
}

impl ChunkArena {
    /// Lock the arena exclusively (mutation path), charging a contended
    /// wait to the lock-wait counter. The uncontended fast path costs
    /// one `try_write`.
    pub fn lock(&self) -> RwLockWriteGuard<'_, ChunkStore> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.chunks.try_write() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.chunks.write();
        self.lock_wait_micros.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        g
    }

    /// Lock the arena shared (pure read path): readers never exclude
    /// each other — only a concurrent mutation blocks, and that wait is
    /// charged to the lock-wait counter like any other.
    pub fn read(&self) -> RwLockReadGuard<'_, ChunkStore> {
        self.read_acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.chunks.try_read() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.chunks.read();
        self.lock_wait_micros.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        g
    }

    /// `(chunks, physical_bytes, dedup_hits)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let g = self.read();
        (g.count(), g.physical_bytes(), g.dedup_hits())
    }

    /// Cumulative contended lock-wait time, in microseconds.
    pub fn lock_wait_micros(&self) -> u64 {
        self.lock_wait_micros.load(Ordering::Relaxed)
    }

    /// Cumulative exclusive-guard acquisitions (tests assert read
    /// paths leave this untouched).
    pub fn write_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Cumulative shared-guard acquisitions.
    pub fn read_acquisitions(&self) -> u64 {
        self.read_acquisitions.load(Ordering::Relaxed)
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
    fn restored_chunks_hold_no_reference_until_a_manifest_takes_one() {
        let mut cs = ChunkStore::new();
        cs.restore_chunk(1, b(b"xx"));
        cs.restore_chunk(2, b(b"orphan"));
        assert!(cs.ref_existing(1), "snapshot replay re-references");
        assert!(!cs.ref_existing(3), "absent bytes: the object must be dropped");
        cs.prune_unreferenced();
        assert!(cs.contains(1) && !cs.contains(2), "the prune frees true orphans only");
        assert_eq!((cs.physical_bytes(), cs.resident_len(1)), (2, Some(2)));
        cs.release(1);
        assert!(!cs.contains(1), "exactly one ref after restore");
    }

    #[test]
    fn arena_counts_one_acquisition_per_guard() {
        let arena = ChunkArena::default();
        arena.lock().retain(1, Some(&b(b"aa"))).unwrap();
        arena.lock().retain(2, Some(&b(b"bbb"))).unwrap();
        assert_eq!(arena.totals(), (2, 5, 0));
        let (reads, writes) = (arena.read_acquisitions(), arena.write_acquisitions());
        {
            let batch = arena.read();
            assert!(batch.contains(1) && batch.contains(2) && !batch.contains(5));
        }
        assert_eq!((arena.read_acquisitions(), arena.write_acquisitions()), (reads + 1, writes));
        arena.lock().release(1);
        assert_eq!(arena.write_acquisitions(), writes + 1);
        assert_eq!(arena.totals(), (1, 3, 0));
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
