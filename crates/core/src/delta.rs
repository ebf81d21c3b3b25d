//! Uploader side of the store's delta protocol (DESIGN.md §10).
//!
//! Both the client (project uploads) and the worker (`/build` output
//! uploads) ship payloads as chunk manifests: the payload is split
//! with the same content-defined chunker the store uses, one
//! [`rai_store::ObjectStore::has_chunks`] round trip says which chunks
//! the store is missing, and only those cross the wire via
//! [`rai_store::ObjectStore::put_delta`]. The uploader keeps no state
//! between uploads: the store is the only authority on what is
//! resident. Re-submissions of a near-identical project tree therefore
//! upload a few hundred bytes instead of the whole archive — the
//! paper's dominant workload (30 782 submissions in the final two
//! weeks, most of them retries).

use rai_archive::chunk::{chunk_shared, chunk_views, Chunk, ChunkManifest, ChunkerParams};
use rai_archive::Bytes;
use rai_store::{ObjectStore, StoreError};
use std::collections::HashSet;

/// A payload already split into its chunk manifest, ready to commit.
///
/// Preparation (content-defined chunking + digesting) is the pure,
/// CPU-bound half of a delta upload; committing it (`has_chunks` +
/// `put_delta`) is the half that talks to the store. A worker prepares
/// its upload in the execute phase and commits it in the commit phase
/// (DESIGN.md §12), so store traffic — and with it the fault-draw
/// stream — stays in claim order.
#[derive(Clone, Debug)]
pub struct PreparedUpload {
    manifest: ChunkManifest,
    chunks: Vec<Chunk>,
}

impl PreparedUpload {
    /// Chunk `payload` with the parameters its length selects
    /// ([`ChunkerParams::for_len`], as the store's own `put` does).
    /// The payload is handed over by value: nothing is copied, the
    /// prepared chunks are views of it.
    pub fn prepare(payload: impl Into<Bytes>) -> Self {
        let payload = payload.into();
        let (manifest, chunks) = chunk_shared(&payload, ChunkerParams::for_len(payload.len()));
        PreparedUpload { manifest, chunks }
    }

    /// Chunks the payload splits into.
    pub fn chunks_total(&self) -> usize {
        self.manifest.chunks.len()
    }

    /// Logical payload size in bytes.
    pub fn bytes_logical(&self) -> u64 {
        self.manifest.total_len
    }
}

/// What a delta upload actually cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReceipt {
    /// Etag of the uploaded object.
    pub etag: String,
    /// Chunks the payload splits into.
    pub chunks_total: usize,
    /// Chunks that had to cross the wire.
    pub chunks_sent: usize,
    /// Chunk bytes that crossed the wire (manifest overhead excluded).
    pub bytes_sent: u64,
    /// Logical payload size.
    pub bytes_logical: u64,
}

impl DeltaReceipt {
    /// Total bytes on the wire: sent chunks plus the manifest
    /// encoding ([`ChunkManifest::encoded_len_of`], the wire model's
    /// one source).
    pub fn wire_bytes(&self) -> u64 {
        self.bytes_sent + ChunkManifest::encoded_len_of(self.chunks_total)
    }
}

/// The stateless uploader of the delta protocol: every upload asks
/// the store what it holds and sends the rest.
#[derive(Default)]
pub struct DeltaUploader;

impl DeltaUploader {
    /// An uploader.
    pub fn new() -> Self {
        DeltaUploader
    }

    /// Chunk a borrowed `payload`, ready for
    /// [`DeltaUploader::upload_prepared`]: [`PreparedUpload::prepare`]
    /// of one copy of it.
    pub fn prepare(&self, payload: &[u8]) -> PreparedUpload {
        PreparedUpload::prepare(Bytes::copy_from_slice(payload))
    }

    /// Upload `payload` to `bucket/key` sending only missing chunks.
    ///
    /// Transient [`StoreError::Unavailable`] from either protocol step
    /// is returned to the caller, whose existing retry policy applies.
    pub fn upload<'m>(
        &self,
        store: &ObjectStore,
        bucket: &str,
        key: &str,
        payload: &[u8],
        user_meta: impl IntoIterator<Item = (&'m str, &'m str)> + Clone,
    ) -> Result<DeltaReceipt, StoreError> {
        self.upload_prepared(store, bucket, key, &self.prepare(payload), user_meta)
    }

    /// Commit an already-prepared upload, sending only the chunks the
    /// store is missing. Retrying a transient failure with the same
    /// [`PreparedUpload`] skips the chunking pass entirely.
    ///
    /// The missing chunks travel as views of one request body holding
    /// exactly their bytes (`request_body`), so what the store keeps
    /// resident pins the bytes that crossed the wire — never the
    /// prepared payload, most of which a resubmission does not send.
    pub fn upload_prepared<'m>(
        &self,
        store: &ObjectStore,
        bucket: &str,
        key: &str,
        prepared: &PreparedUpload,
        user_meta: impl IntoIterator<Item = (&'m str, &'m str)> + Clone,
    ) -> Result<DeltaReceipt, StoreError> {
        let PreparedUpload { manifest, chunks } = prepared;
        // The distinct chunks, in first-occurrence manifest order, so
        // they pair with the probe's answers by position.
        let distinct: Vec<&Chunk> = {
            let mut seen = HashSet::with_capacity(chunks.len());
            chunks.iter().filter(|c| seen.insert(c.digest)).collect()
        };
        let digests: Vec<u64> = distinct.iter().map(|c| c.digest).collect();

        let attempt = || {
            let resident = store.has_chunks(&digests)?;
            let missing: Vec<&Chunk> = distinct
                .iter()
                .zip(resident)
                .filter(|(_, resident)| !resident)
                .map(|(c, _)| *c)
                .collect();
            let to_send = request_body(&missing);
            let etag = store.put_delta(bucket, key, manifest, &to_send, user_meta.clone())?;
            Ok(DeltaReceipt {
                etag,
                chunks_total: manifest.chunks.len(),
                chunks_sent: to_send.len(),
                bytes_sent: to_send.iter().map(|c| c.data.len() as u64).sum(),
                bytes_logical: manifest.total_len,
            })
        };
        // A chunk the probe saw resident can be collected before the
        // put lands; the store then refuses the whole put, and one
        // fresh probe sends what went missing.
        match attempt() {
            Err(StoreError::MissingChunks { .. }) => attempt(),
            outcome => outcome,
        }
    }
}

/// Pack `missing` into one request body — the copy that stands for
/// the wire hop — and return the same chunks as views of it.
fn request_body(missing: &[&Chunk]) -> Vec<Chunk> {
    let mut body = Vec::with_capacity(missing.iter().map(|c| c.data.len()).sum());
    for c in missing {
        body.extend_from_slice(&c.data);
    }
    chunk_views(&Bytes::from(body), missing.iter().map(|c| (c.digest, c.data.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_archive::chunk::ChunkRef;
    use rai_sim::VirtualClock;
    use rai_store::LifecycleRule;

    fn store() -> ObjectStore {
        let s = ObjectStore::new(VirtualClock::new());
        s.create_bucket("b", LifecycleRule::Keep).unwrap();
        s
    }

    fn payload(len: usize, seed: u64) -> Vec<u8> {
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
    fn first_upload_ships_everything_second_nothing() {
        let s = store();
        let up = DeltaUploader::new();
        let data = payload(8000, 1);
        let r1 = up.upload(&s, "b", "k1", &data, []).unwrap();
        assert_eq!(r1.chunks_sent, r1.chunks_total);
        assert_eq!(r1.bytes_sent, 8000);
        let r2 = up.upload(&s, "b", "k2", &data, []).unwrap();
        assert_eq!(r2.chunks_sent, 0, "identical content re-uses every chunk");
        assert_eq!(r2.bytes_sent, 0);
        assert_eq!(s.get("b", "k2").unwrap().data.as_ref(), &data[..]);
        assert_eq!(r1.etag, r2.etag);
    }

    #[test]
    fn small_edit_ships_only_changed_chunks() {
        let s = store();
        let up = DeltaUploader::new();
        let base = payload(16_000, 2);
        up.upload(&s, "b", "v1", &base, []).unwrap();
        let mut edited = base.clone();
        edited[8_000] ^= 0xFF;
        let r = up.upload(&s, "b", "v2", &edited, []).unwrap();
        assert!(
            r.bytes_sent < 4_000,
            "one-byte edit resent {} of {} bytes",
            r.bytes_sent,
            r.bytes_logical
        );
        assert_eq!(s.get("b", "v2").unwrap().data.as_ref(), &edited[..]);
    }

    #[test]
    fn resubmission_pins_its_request_body_not_its_payload() {
        // The paper's mean upload, resubmitted with one byte changed.
        let s = store();
        let up = DeltaUploader::new();
        let base = payload(2_500 * 1024, 8);
        up.upload(&s, "b", "v1", &base, []).unwrap();
        let mut edited = base.clone();
        edited[1_000_000] ^= 0xFF;

        let prepared = PreparedUpload::prepare(edited.clone());
        let payload_buffer = prepared.chunks[0].data.buffer().unwrap();
        let resident: HashSet<u64> =
            PreparedUpload::prepare(base.clone()).manifest.digests().into_iter().collect();
        let missing: Vec<&Chunk> =
            prepared.chunks.iter().filter(|c| !resident.contains(&c.digest)).collect();
        assert!(!missing.is_empty() && missing.len() <= 8, "{} chunks changed", missing.len());

        let r = up.upload_prepared(&s, "b", "v2", &prepared, []).unwrap();
        assert_eq!(r.chunks_sent, missing.len());
        // What crosses the wire is one body of exactly the sent bytes,
        // and every sent chunk is a view of it.
        let sent = request_body(&missing);
        let body = sent[0].data.buffer().unwrap();
        assert_eq!(body.upgrade().unwrap().len() as u64, r.bytes_sent);
        assert!(sent.iter().all(|c| c.data.buffer().unwrap().ptr_eq(&body)));
        assert!(!body.ptr_eq(&payload_buffer));
        for (sent, chunk) in sent.iter().zip(&missing) {
            assert_eq!((sent.digest, &sent.data), (chunk.digest, &chunk.data));
        }
        // The store holds the new chunks, yet nothing of the 2.5 MiB
        // payload outlives the upload: no resident chunk aliases it.
        drop((prepared, sent));
        assert!(payload_buffer.upgrade().is_none(), "the store pinned the payload buffer");
        assert_eq!(s.get("b", "v2").unwrap().data.as_ref(), &edited[..]);
    }

    #[test]
    fn bulk_one_byte_edit_ships_a_few_chunks_and_a_short_manifest() {
        // What sizing chunks by the payload buys: at the floor
        // parameters the manifest of a 2.5 MiB upload alone is a
        // quarter of its size.
        let s = store();
        let up = DeltaUploader::new();
        let base = payload(2_500 * 1024, 8);
        let first = up.upload(&s, "b", "v1", &base, []).unwrap();
        assert!((1_300..2_600).contains(&first.chunks_total), "{} chunks", first.chunks_total);
        let mut edited = base;
        edited[1_000_000] ^= 0xFF;
        let r = up.upload(&s, "b", "v2", &edited, []).unwrap();
        assert!((1..=3).contains(&r.chunks_sent), "{} chunks re-shipped", r.chunks_sent);
        assert!(
            r.wire_bytes() * 50 < r.bytes_logical,
            "{} wire bytes for {} logical",
            r.wire_bytes(),
            r.bytes_logical
        );
        assert_eq!(s.get("b", "v2").unwrap().data.as_ref(), &edited[..]);
    }

    #[test]
    fn growing_across_a_power_of_four_re_ships_most_of_the_payload_once() {
        // What it costs: `avg` doubles at 4^10 bytes, so the grown
        // payload is cut elsewhere and most of it (here 84 %: a cut at
        // avg 1 024 is also one at avg 512, so some chunks survive)
        // crosses the wire again. Once, not per upload.
        let s = store();
        let up = DeltaUploader::new();
        let grown = payload((1 << 20) + 100, 12);
        let base = &grown[..(1 << 20) - 100];
        up.upload(&s, "b", "v1", base, []).unwrap();
        let again = up.upload(&s, "b", "v1-again", base, []).unwrap();
        assert_eq!(again.bytes_sent, 0);
        let flip = up.upload(&s, "b", "v2", &grown, []).unwrap();
        assert!(
            flip.bytes_sent * 4 > flip.bytes_logical * 3 && flip.bytes_sent <= flip.bytes_logical,
            "the flip re-shipped {} of {} bytes",
            flip.bytes_sent,
            flip.bytes_logical
        );
        let settled = up.upload(&s, "b", "v3", &grown, []).unwrap();
        assert_eq!((settled.chunks_sent, settled.bytes_sent), (0, 0));
        assert_eq!(s.get("b", "v3").unwrap().data.as_ref(), &grown[..]);
    }

    #[test]
    fn sub_4_kib_container_chunks_as_it_always_has() {
        // A semester-shaped project container sits under the 4 KiB
        // floor of `ChunkerParams::for_len`; its manifest is pinned to
        // the digests the fixed 16/32/256 chunker produced.
        let container =
            rai_archive::write_container(&crate::client::ProjectDir::sample_cuda_project().tree);
        assert!((512..4096).contains(&container.len()), "{} bytes", container.len());
        let prepared = PreparedUpload::prepare(container.clone());
        assert_eq!(prepared.manifest, chunk_shared(&container.into(), ChunkerParams::DEFAULT).0);
        let refs = &prepared.manifest.chunks;
        assert_eq!((refs.len(), prepared.manifest.etag.as_str()), (14, "bba26439ca210c0d"));
        let pinned = [
            ChunkRef { digest: 0x3638_70a2_e3f1_1973, len: 59 },
            ChunkRef { digest: 0xe8c2_39d6_b2a0_3f08, len: 162 },
            ChunkRef { digest: 0xeb58_142c_01a3_69cd, len: 25 },
        ];
        assert_eq!([refs[0], refs[7], refs[13]], pinned);
    }

    #[test]
    fn put_and_client_chunked_put_delta_dedup_against_each_other() {
        // Server-side `put` and a client's `PreparedUpload` size their
        // chunks from the same length, on both sides of the 4 KiB floor
        // and at the paper's mean upload.
        for len in [3 * 1024, 5 * 1024, 2_500 * 1024] {
            let data = payload(len, len as u64);
            let s = store();
            s.put("b", "whole", data.clone(), []).unwrap();
            let r = DeltaUploader::new().upload(&s, "b", "delta", &data, []).unwrap();
            assert_eq!((r.chunks_sent, r.bytes_sent), (0, 0), "len={len}: put then put_delta");

            let s = store();
            DeltaUploader::new().upload(&s, "b", "delta", &data, []).unwrap();
            let before = s.usage();
            s.put("b", "whole", data.clone(), []).unwrap();
            let after = s.usage();
            assert_eq!(
                (after.chunks, after.bytes_physical),
                (before.chunks, before.bytes_physical),
                "len={len}: put_delta then put"
            );
            assert_eq!(
                after.chunks_dedup_total - before.chunks_dedup_total,
                r.chunks_total as u64,
                "len={len}: every reference of the put was a dedup hit"
            );
        }
    }

    #[test]
    fn fresh_uploader_still_dedups_via_has_chunks() {
        let s = store();
        let data = payload(8000, 3);
        DeltaUploader::new().upload(&s, "b", "k1", &data, []).unwrap();
        // New uploader — the has_chunks query discovers
        // the resident chunks (this is the per-client-process case).
        let r = DeltaUploader::new().upload(&s, "b", "k2", &data, []).unwrap();
        assert_eq!(r.chunks_sent, 0);
    }

    #[test]
    fn upload_after_store_gc_resends_everything() {
        let s = store();
        let up = DeltaUploader::new();
        let data = payload(8000, 4);
        up.upload(&s, "b", "k", &data, []).unwrap();
        // The store drops the object, and with it every chunk.
        s.delete("b", "k").unwrap();
        let r = up.upload(&s, "b", "k", &data, []).unwrap();
        assert_eq!(r.chunks_sent, r.chunks_total, "nothing was resident any more");
        assert_eq!(s.get("b", "k").unwrap().data.as_ref(), &data[..]);
    }

    #[test]
    fn unavailable_surfaces_to_caller() {
        let s = store();
        let up = DeltaUploader::new();
        s.inject_faults(1);
        let err = up.upload(&s, "b", "k", &payload(1000, 5), []).unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
        // Next attempt succeeds (budget exhausted).
        assert!(up.upload(&s, "b", "k", &payload(1000, 5), []).is_ok());
    }

    #[test]
    fn concurrent_uploads_of_resident_content_send_nothing() {
        // Many threads uploading content the store already holds
        // through one uploader: all succeed with zero chunks sent.
        let s = store();
        let up = std::sync::Arc::new(DeltaUploader::new());
        let data = payload(32_000, 11);
        up.upload(&s, "b", "base", &data, []).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = s.clone();
                let up = std::sync::Arc::clone(&up);
                let data = data.clone();
                std::thread::spawn(move || {
                    up.upload(&s, "b", &format!("copy-{i}"), &data, []).unwrap()
                })
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.chunks_sent, 0, "the probe finds every chunk resident");
        }
    }

    #[test]
    fn user_metadata_travels_with_delta_puts() {
        let s = store();
        let up = DeltaUploader::new();
        up.upload(&s, "b", "k", &payload(500, 6), [("team", "rust")]).unwrap();
        let meta = s.head("b", "k").unwrap();
        assert_eq!(meta.user.get("team").map(String::as_str), Some("rust"));
    }
}
