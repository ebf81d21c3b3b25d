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
use rai_sim::IntMap;
use std::collections::hash_map::Entry;

struct ChunkEntry {
    data: Bytes,
    refs: u64,
}

/// The chunk arena: digest → (bytes, refcount), plus the physical byte
/// total. It has no lock of its own: it is a field of the store's one
/// state (`store.rs`) and is read and written under that state's lock.
///
/// The index is an [`IntMap`]: keyed and strongly universal, with a
/// secret key of its own. Digests are FNV values of student-supplied
/// bytes, so an unkeyed or identity hasher would let one upload aim
/// every chunk at a single probe sequence. Iteration order is therefore
/// per-map random and nothing may observe it —
/// [`ChunkStore::snapshot_chunks`], the one ordered view, sorts.
/// What taking a reference on a chunk found.
pub(crate) enum Take {
    /// Resident already: one more reference on bytes of length `len`.
    Hit { len: usize },
    /// Not resident: admitted from the bytes given, with one reference.
    Admitted,
    /// Neither resident nor given: no reference taken.
    Missing,
}

#[derive(Default)]
pub(crate) struct ChunkStore {
    chunks: IntMap<u64, ChunkEntry>,
    physical_bytes: u64,
}

impl ChunkStore {
    /// Whether a chunk with this digest is resident.
    pub(crate) fn contains(&self, digest: u64) -> bool {
        self.chunks.contains_key(&digest)
    }

    /// The chunk's bytes, if resident.
    pub(crate) fn data(&self, digest: u64) -> Option<&Bytes> {
        self.chunks.get(&digest).map(|e| &e.data)
    }

    /// Take one reference on `digest`, in one probe. If the chunk is
    /// already resident this is a dedup hit and `data` is ignored;
    /// otherwise `data` is admitted as its bytes, or, if there are
    /// none, the chunk is missing and no reference is taken.
    pub(crate) fn take(&mut self, digest: u64, data: Option<&Bytes>) -> Take {
        match self.chunks.entry(digest) {
            Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.refs += 1;
                Take::Hit { len: e.data.len() }
            }
            Entry::Vacant(v) => {
                let Some(data) = data else { return Take::Missing };
                self.physical_bytes += data.len() as u64;
                v.insert(ChunkEntry {
                    data: data.clone(),
                    refs: 1,
                });
                Take::Admitted
            }
        }
    }

    /// [`ChunkStore::take`], answering `Ok(true)` on a dedup hit,
    /// `Ok(false)` on an admission and `Err(())` for a missing chunk.
    pub(crate) fn retain(&mut self, digest: u64, data: Option<&Bytes>) -> Result<bool, ()> {
        match self.take(digest, data) {
            Take::Hit { .. } => Ok(true),
            Take::Admitted => Ok(false),
            Take::Missing => Err(()),
        }
    }

    /// Drop one reference; frees the chunk bytes when the count hits
    /// zero. Releasing an unknown digest is a logic error upstream and
    /// is ignored in release builds.
    pub(crate) fn release(&mut self, digest: u64) {
        let Entry::Occupied(mut e) = self.chunks.entry(digest) else {
            debug_assert!(false, "release of untracked chunk {digest:016x}");
            return;
        };
        e.get_mut().refs -= 1;
        if e.get().refs == 0 {
            self.physical_bytes -= e.remove().data.len() as u64;
        }
    }

    /// Number of distinct resident chunks.
    pub(crate) fn count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Bytes actually held (each distinct chunk counted once).
    pub(crate) fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    // ---- recovery support (crate::journal) ---------------------------

    /// Every resident chunk in digest order — the physical payload of a
    /// compaction snapshot. Sorted here because the index is not:
    /// snapshot and WAL bytes must not depend on the hasher's key.
    pub(crate) fn snapshot_chunks(&self) -> Vec<(u64, Bytes)> {
        let mut all: Vec<(u64, Bytes)> =
            self.chunks.iter().map(|(d, e)| (*d, e.data.clone())).collect();
        all.sort_unstable_by_key(|&(d, _)| d);
        all
    }

    /// Install chunk bytes with a zero refcount during snapshot
    /// restore; references are re-derived from object manifests via
    /// [`ChunkStore::retain`]. No-op if the digest is already resident.
    pub(crate) fn restore_chunk(&mut self, digest: u64, data: Bytes) {
        if let Entry::Vacant(v) = self.chunks.entry(digest) {
            self.physical_bytes += data.len() as u64;
            v.insert(ChunkEntry { data, refs: 0 });
        }
    }

    /// Set every refcount to zero, keeping the bytes: where a snapshot
    /// restore starts, so the chunks its `SnapshotChunks` records
    /// restored ahead of it stay for its manifests to reference.
    pub(crate) fn forget_references(&mut self) {
        for e in self.chunks.values_mut() {
            e.refs = 0;
        }
    }

    /// Drop chunks no surviving manifest references (objects discarded
    /// during a faulted replay leave their restored bytes orphaned).
    pub(crate) fn prune_unreferenced(&mut self) {
        let physical_bytes = &mut self.physical_bytes;
        self.chunks.retain(|_, e| {
            if e.refs == 0 {
                *physical_bytes -= e.data.len() as u64;
            }
            e.refs > 0
        });
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
        let mut cs = ChunkStore::default();
        assert_eq!(cs.retain(1, Some(&b(b"aaaa"))), Ok(false));
        assert_eq!(cs.retain(1, None), Ok(true), "second ref is a dedup hit");
        assert_eq!(cs.count(), 1);
        assert_eq!(cs.physical_bytes(), 4);
        cs.release(1);
        assert!(cs.contains(1), "one ref left");
        cs.release(1);
        assert!(!cs.contains(1));
        assert_eq!(cs.physical_bytes(), 0);
    }

    #[test]
    fn retain_without_data_fails_for_unknown_chunk() {
        let mut cs = ChunkStore::default();
        assert_eq!(cs.retain(42, None), Err(()));
        assert!(!cs.contains(42));
    }

    #[test]
    fn distinct_chunks_accumulate_physical_bytes() {
        let mut cs = ChunkStore::default();
        cs.retain(1, Some(&b(b"xx"))).unwrap();
        cs.retain(2, Some(&b(b"yyy"))).unwrap();
        assert_eq!(cs.physical_bytes(), 5);
        assert_eq!(cs.count(), 2);
        assert_eq!(cs.data(2).unwrap().as_ref(), b"yyy");
        assert_eq!(cs.data(3), None);
    }

    #[test]
    fn restored_chunks_hold_no_reference_until_a_manifest_takes_one() {
        let mut cs = ChunkStore::default();
        cs.restore_chunk(1, b(b"xx"));
        cs.restore_chunk(2, b(b"orphan"));
        assert_eq!(cs.retain(1, None), Ok(true), "snapshot replay re-references");
        assert_eq!(cs.retain(3, None), Err(()), "absent bytes: the object must be dropped");
        cs.prune_unreferenced();
        assert!(cs.contains(1) && !cs.contains(2), "the prune frees true orphans only");
        assert_eq!((cs.physical_bytes(), cs.data(1).map(Bytes::len)), (2, Some(2)));
        cs.release(1);
        assert!(!cs.contains(1), "exactly one ref after restore");
    }

    /// Wall-clock of retaining, probing and releasing `digests`: the
    /// best of three passes, to shed scheduler noise.
    fn churn_seconds(digests: &[u64]) -> f64 {
        let data = b(b"x");
        (0..3)
            .map(|_| {
                let mut cs = ChunkStore::default();
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
        // Batches of 100 000 digests, each aimed at a weak hasher. The
        // first agrees in its low 20 bits and its top byte — the bits
        // an unkeyed or identity hasher would bucket and tag by. The
        // others are aimed at a multiply: a 64-bit product keeps a
        // key's trailing zeros, so multiples of 2^32, or keys that
        // differ only in their top 17 bits, would all land in bucket 0
        // under x·a mod 2^64. Any of them sharing one probe sequence
        // would go quadratic (minutes, not milliseconds); under the
        // keyed hasher each costs what scattered digests cost.
        const N: u64 = 100_000;
        let crafted: Vec<u64> = (0..N).map(|i| 0xAB00_0000_000C_0FFE | (i << 20)).collect();
        assert!(crafted.iter().all(|d| d & 0xF_FFFF == 0xC0FFE && d >> 56 == 0xAB));
        let batches = [
            ("low 20 bits and top byte fixed", crafted),
            ("multiples of 2^32", (1..=N).map(|i| i << 32).collect()),
            ("top 17 bits only", (1..=N).map(|i| i << 47).collect()),
        ];
        let scattered: Vec<u64> =
            (1..=N).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let scattered = churn_seconds(&scattered);
        for (name, digests) in batches {
            let crafted = churn_seconds(&digests);
            assert!(
                crafted < scattered * 20.0,
                "{name}: crafted batch took {crafted:.3}s against {scattered:.3}s scattered"
            );
        }
    }
}
