//! Durability for the object store: logical records journaled to a
//! [`rai_wal::Wal`] and replayed by
//! [`ObjectStore::recover`](crate::ObjectStore::recover).
//!
//! A `Put` journals the manifest plus only the chunk bytes that were
//! *newly admitted* to the arena by that put — dedup hits reference
//! bytes an earlier record already carries, so the log inherits the
//! store's own dedup ratio. Replay decodes a record and runs the state
//! transition the live API ran when it wrote it, which reconstructs
//! refcounts, dedup accounting and counters; an object whose chunk
//! bytes were lost to a corrupt-record drop is itself dropped (and
//! counted) rather than installed unreadable.
//!
//! Timestamps are journaled (`uploaded_at`/`last_used` drive lifecycle
//! expiry) because replay runs at recovery time, not historical time.
//!
//! Every record layout is spelled once, by one writer below. The live
//! API writes through them from what it already holds — names it was
//! handed, the object record it keeps — straight into the log's frame
//! ([`rai_wal::Wal::append_with`]); [`StoreRecord`] is what the decoder
//! reads back, borrowing the payload it lies in.

use crate::lifecycle::LifecycleRule;
use crate::object::ObjRecord;
use rai_sim::{SimDuration, SimTime};
use rai_wal::codec::{put_bytes, put_str, put_u32, put_u64, Reader};

fn encode_rule(rule: &LifecycleRule, out: &mut Vec<u8>) {
    match rule {
        LifecycleRule::Keep => out.push(0),
        LifecycleRule::AfterUpload(d) => {
            out.push(1);
            put_u64(out, d.as_millis());
        }
        LifecycleRule::AfterLastUse(d) => {
            out.push(2);
            put_u64(out, d.as_millis());
        }
    }
}

fn decode_rule(r: &mut Reader<'_>) -> Option<LifecycleRule> {
    Some(match r.u8()? {
        0 => LifecycleRule::Keep,
        1 => LifecycleRule::AfterUpload(SimDuration::from_millis(r.u64()?)),
        2 => LifecycleRule::AfterLastUse(SimDuration::from_millis(r.u64()?)),
        _ => return None,
    })
}

/// An object's manifest: its reference count and references, then its
/// length and etag.
fn put_manifest(out: &mut Vec<u8>, object: &ObjRecord) {
    out.extend_from_slice(object.packed_refs());
    put_u64(out, object.size);
    put_str(out, object.etag());
}

/// A manifest as [`put_manifest`] wrote it: the packed references
/// (count included), the length and the etag.
fn read_manifest<'a>(r: &mut Reader<'a>) -> Option<(&'a [u8], u64, &'a str)> {
    let from = r.pos();
    let n = r.u32()? as usize;
    r.take(n.checked_mul(12)?)?;
    Some((r.since(from), r.u64()?, r.str()?))
}

/// An object's user metadata: the pair count, then the pairs.
fn put_user(out: &mut Vec<u8>, object: &ObjRecord) {
    put_u32(out, object.pairs().count() as u32);
    out.extend_from_slice(object.packed_pairs());
}

/// Metadata as [`put_user`] wrote it: the pairs, packed.
fn read_user<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let n = r.u32()?;
    let from = r.pos();
    for _ in 0..n {
        r.str()?;
        r.str()?;
    }
    Some(r.since(from))
}

/// A chunk list: the count, then each digest and its bytes. The count
/// is patched in once the chunks are written.
fn put_chunks<'c>(out: &mut Vec<u8>, chunks: impl IntoIterator<Item = (u64, &'c [u8])>) {
    let at = out.len();
    put_u32(out, 0);
    let mut n = 0u32;
    for (digest, data) in chunks {
        put_u64(out, digest);
        put_bytes(out, data);
        n += 1;
    }
    out[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

fn read_chunks<'a>(r: &mut Reader<'a>) -> Option<Vec<(u64, &'a [u8])>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push((r.u64()?, r.bytes()?));
    }
    Some(out)
}

/// Cumulative store counters: what the store state keeps and a
/// snapshot carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SnapCounters {
    /// Logical bytes ever uploaded.
    pub(crate) bytes_uploaded: u64,
    /// Bytes ever served.
    pub(crate) bytes_downloaded: u64,
    /// Wire bytes ever shipped on uploads.
    pub(crate) bytes_wire: u64,
    /// Put operations.
    pub(crate) puts: u64,
    /// Delta-put operations.
    pub(crate) delta_puts: u64,
    /// Get operations.
    pub(crate) gets: u64,
    /// Dedup hits in the chunk arena.
    pub(crate) dedup_hits: u64,
}

// ---- writers: one per record layout, tagged by the first byte --------

/// 1 — `create_bucket(name, rule)`.
pub(crate) fn write_create_bucket(out: &mut Vec<u8>, name: &str, rule: &LifecycleRule) {
    out.push(1);
    put_str(out, name);
    encode_rule(rule, out);
}

/// 2 — a successful `put`/`put_delta` of `object` at its upload time:
/// the manifest, only the chunks this put newly admitted, the metadata,
/// the wire bytes it cost and whether it was a delta put.
pub(crate) fn write_put<'c>(
    out: &mut Vec<u8>,
    bucket: &str,
    key: &str,
    object: &ObjRecord,
    new_chunks: impl IntoIterator<Item = (u64, &'c [u8])>,
    wire_bytes: u64,
    delta: bool,
) {
    out.push(2);
    put_str(out, bucket);
    put_str(out, key);
    put_u64(out, object.uploaded_at.as_millis());
    put_manifest(out, object);
    put_chunks(out, new_chunks);
    put_user(out, object);
    put_u64(out, wire_bytes);
    out.push(u8::from(delta));
}

/// 3 — a successful `get` at `time_millis` of an object of `size`
/// bytes.
pub(crate) fn write_touch(out: &mut Vec<u8>, bucket: &str, key: &str, time_millis: u64, size: u64) {
    out.push(3);
    put_str(out, bucket);
    put_str(out, key);
    put_u64(out, time_millis);
    put_u64(out, size);
}

/// 4 — a successful `delete`.
pub(crate) fn write_delete(out: &mut Vec<u8>, bucket: &str, key: &str) {
    out.push(4);
    put_str(out, bucket);
    put_str(out, key);
}

/// 5 — a lifecycle sweep at `time_millis` that expired something.
pub(crate) fn write_sweep(out: &mut Vec<u8>, time_millis: u64) {
    out.push(5);
    put_u64(out, time_millis);
}

/// 6 — a compaction snapshot: every bucket with its objects in key
/// order, the distinct chunks not already carried by the
/// [`write_snapshot_chunks`] records written ahead of it, and the
/// cumulative counters. An object is written as its metadata (key,
/// size, etag, both timestamps, pairs) then its manifest.
pub(crate) fn write_snapshot<'s, B, O, C>(
    out: &mut Vec<u8>,
    buckets: B,
    chunks: C,
    counters: &SnapCounters,
) where
    B: ExactSizeIterator<Item = (&'s str, LifecycleRule, O)>,
    O: ExactSizeIterator<Item = (&'s str, &'s ObjRecord)>,
    C: IntoIterator<Item = (u64, &'s [u8])>,
{
    out.push(6);
    put_u32(out, buckets.len() as u32);
    for (name, rule, objects) in buckets {
        put_str(out, name);
        encode_rule(&rule, out);
        put_u32(out, objects.len() as u32);
        for (key, o) in objects {
            put_str(out, key);
            put_u64(out, o.size);
            put_str(out, o.etag());
            put_u64(out, o.uploaded_at.as_millis());
            put_u64(out, o.last_used.as_millis());
            put_user(out, o);
            put_manifest(out, o);
        }
    }
    put_chunks(out, chunks);
    let c = counters;
    for v in [
        c.bytes_uploaded,
        c.bytes_downloaded,
        c.bytes_wire,
        c.puts,
        c.delta_puts,
        c.gets,
        c.dedup_hits,
    ] {
        put_u64(out, v);
    }
}

/// 8 — chunk bytes of a snapshot too large for one record, written
/// ahead of it. (7 framed a per-shard chunk install in a layout this
/// store no longer writes; it decodes, like any unknown tag, to
/// `None`.)
pub(crate) fn write_snapshot_chunks<'c>(
    out: &mut Vec<u8>,
    chunks: impl IntoIterator<Item = (u64, &'c [u8])>,
) {
    out.push(8);
    put_chunks(out, chunks);
}

/// Bytes a [`write_snapshot_chunks`] record takes besides its chunks:
/// the tag and the count.
pub(crate) const SNAPSHOT_CHUNKS_HEAD: usize = 5;

/// Bytes a chunk of `len` bytes takes in a chunk list: its digest, its
/// length and its bytes.
pub(crate) fn chunk_entry_len(len: usize) -> usize {
    12 + len
}

// ---- reading back ----------------------------------------------------

/// One bucket inside a [`StoreRecord::SnapshotStore`].
#[derive(Debug, PartialEq)]
pub(crate) struct SnapBucket<'a> {
    /// Bucket name.
    pub(crate) name: &'a str,
    /// Lifecycle rule.
    pub(crate) rule: LifecycleRule,
    /// Every object, in key order.
    pub(crate) objects: Vec<(&'a str, ObjRecord)>,
}

/// One committed store mutation, decoded from the payload it borrows:
/// names and chunk bytes are views of it, an object is the record the
/// store will keep.
#[derive(Debug, PartialEq)]
pub(crate) enum StoreRecord<'a> {
    /// [`write_create_bucket`].
    CreateBucket {
        /// Bucket name.
        name: &'a str,
        /// Lifecycle rule.
        rule: LifecycleRule,
    },
    /// [`write_put`].
    Put {
        /// Target bucket.
        bucket: &'a str,
        /// Object key.
        key: &'a str,
        /// The object, uploaded and last used at the put's time.
        object: ObjRecord,
        /// Chunks admitted by this put: `(digest, bytes)`.
        new_chunks: Vec<(u64, &'a [u8])>,
        /// Wire bytes this upload cost (for counter reconstruction).
        wire_bytes: u64,
        /// Whether this was a delta put.
        delta: bool,
    },
    /// [`write_touch`]: refreshes `last_used` (lifecycle-relevant) and
    /// reconstructs download counters.
    Touch {
        /// Target bucket.
        bucket: &'a str,
        /// Object key.
        key: &'a str,
        /// Access time.
        time_millis: u64,
        /// Object size at access (for `bytes_downloaded`).
        size: u64,
    },
    /// [`write_delete`].
    Delete {
        /// Target bucket.
        bucket: &'a str,
        /// Object key.
        key: &'a str,
    },
    /// [`write_sweep`], replayed at its recorded time.
    Sweep {
        /// Sweep time.
        time_millis: u64,
    },
    /// [`write_snapshot`].
    SnapshotStore {
        /// Every bucket, in name order.
        buckets: Vec<SnapBucket<'a>>,
        /// Distinct resident chunks, in digest order.
        chunks: Vec<(u64, &'a [u8])>,
        /// Cumulative counters.
        counters: SnapCounters,
    },
    /// [`write_snapshot_chunks`]: restored unreferenced, for the
    /// snapshot that follows to take references on.
    SnapshotChunks {
        /// Chunks, in digest order.
        chunks: Vec<(u64, &'a [u8])>,
    },
}

impl<'a> StoreRecord<'a> {
    /// Serialize through the writer of the record's layout.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            StoreRecord::CreateBucket { name, rule } => write_create_bucket(&mut out, name, rule),
            StoreRecord::Put { bucket, key, object, new_chunks, wire_bytes, delta } => {
                let new_chunks = new_chunks.iter().copied();
                write_put(&mut out, bucket, key, object, new_chunks, *wire_bytes, *delta);
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                write_touch(&mut out, bucket, key, *time_millis, *size);
            }
            StoreRecord::Delete { bucket, key } => write_delete(&mut out, bucket, key),
            StoreRecord::Sweep { time_millis } => write_sweep(&mut out, *time_millis),
            StoreRecord::SnapshotStore { buckets, chunks, counters } => {
                let buckets = buckets
                    .iter()
                    .map(|b| (b.name, b.rule, b.objects.iter().map(|(k, o)| (*k, o))));
                write_snapshot(&mut out, buckets, chunks.iter().copied(), counters);
            }
            StoreRecord::SnapshotChunks { chunks } => {
                write_snapshot_chunks(&mut out, chunks.iter().copied());
            }
        }
        out
    }

    /// Deserialize a WAL payload. `None` on malformed input (dropped
    /// and counted by recovery, never a panic).
    pub(crate) fn decode(bytes: &'a [u8]) -> Option<StoreRecord<'a>> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            1 => StoreRecord::CreateBucket { name: r.str()?, rule: decode_rule(&mut r)? },
            2 => {
                let (bucket, key) = (r.str()?, r.str()?);
                let time = SimTime::from_millis(r.u64()?);
                let (refs, size, etag) = read_manifest(&mut r)?;
                let new_chunks = read_chunks(&mut r)?;
                let pairs = read_user(&mut r)?;
                StoreRecord::Put {
                    bucket,
                    key,
                    object: ObjRecord::from_parts(time, time, refs, size, etag, pairs),
                    new_chunks,
                    wire_bytes: r.u64()?,
                    delta: r.u8()? != 0,
                }
            }
            3 => StoreRecord::Touch {
                bucket: r.str()?,
                key: r.str()?,
                time_millis: r.u64()?,
                size: r.u64()?,
            },
            4 => StoreRecord::Delete { bucket: r.str()?, key: r.str()? },
            5 => StoreRecord::Sweep { time_millis: r.u64()? },
            6 => {
                let nb = r.u32()? as usize;
                let mut buckets = Vec::with_capacity(nb.min(1 << 10));
                for _ in 0..nb {
                    let name = r.str()?;
                    let rule = decode_rule(&mut r)?;
                    let no = r.u32()? as usize;
                    let mut objects = Vec::with_capacity(no.min(1 << 16));
                    for _ in 0..no {
                        // The metadata's size and etag repeat the
                        // manifest's; the manifest's are kept.
                        let key = r.str()?;
                        r.u64()?;
                        r.str()?;
                        let uploaded_at = SimTime::from_millis(r.u64()?);
                        let last_used = SimTime::from_millis(r.u64()?);
                        let pairs = read_user(&mut r)?;
                        let (refs, size, etag) = read_manifest(&mut r)?;
                        let object =
                            ObjRecord::from_parts(uploaded_at, last_used, refs, size, etag, pairs);
                        objects.push((key, object));
                    }
                    buckets.push(SnapBucket { name, rule, objects });
                }
                let chunks = read_chunks(&mut r)?;
                let mut vals = [0u64; 7];
                for v in &mut vals {
                    *v = r.u64()?;
                }
                StoreRecord::SnapshotStore {
                    buckets,
                    chunks,
                    counters: SnapCounters {
                        bytes_uploaded: vals[0],
                        bytes_downloaded: vals[1],
                        bytes_wire: vals[2],
                        puts: vals[3],
                        delta_puts: vals[4],
                        gets: vals[5],
                        dedup_hits: vals[6],
                    },
                }
            }
            8 => StoreRecord::SnapshotChunks { chunks: read_chunks(&mut r)? },
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_archive::chunk::{ChunkManifest, ChunkRef};

    #[test]
    fn records_round_trip() {
        let manifest = ChunkManifest {
            chunks: vec![ChunkRef { digest: 0xDEAD, len: 4 }, ChunkRef { digest: 0xBEEF, len: 6 }],
            total_len: 10,
            etag: "fnv1a:abc".into(),
        };
        let at = |millis| SimTime::from_millis(millis);
        let put = ObjRecord::new(at(123_456), &manifest, vec![("team", "a"), ("kind", "run")]);
        let kept = ObjRecord { last_used: at(2), ..ObjRecord::new(at(1), &manifest, vec![]) };
        let records = vec![
            StoreRecord::CreateBucket {
                name: "uploads",
                rule: LifecycleRule::AfterLastUse(SimDuration::from_days(30)),
            },
            StoreRecord::Put {
                bucket: "uploads",
                key: "team/x.tar",
                object: put,
                new_chunks: vec![(0xDEAD, &b"abcd"[..])],
                wire_bytes: 42,
                delta: true,
            },
            StoreRecord::Touch {
                bucket: "uploads",
                key: "team/x.tar",
                time_millis: 200_000,
                size: 10,
            },
            StoreRecord::Delete { bucket: "uploads", key: "team/x.tar" },
            StoreRecord::Sweep { time_millis: 300_000 },
            StoreRecord::SnapshotChunks { chunks: vec![(3, &b"big"[..]), (5, &b""[..])] },
            StoreRecord::SnapshotStore {
                buckets: vec![SnapBucket {
                    name: "uploads",
                    rule: LifecycleRule::Keep,
                    objects: vec![("k", kept)],
                }],
                chunks: vec![(7, &b"zz"[..])],
                counters: SnapCounters { puts: 3, dedup_hits: 1, ..SnapCounters::default() },
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(StoreRecord::decode(&bytes), Some(rec));
        }
    }

    /// The layouts byte for byte, as the map-keeping store wrote them: a
    /// log written before the object record was packed replays the same.
    #[test]
    fn a_put_is_laid_out_as_it_always_was() {
        let manifest = ChunkManifest {
            chunks: vec![ChunkRef { digest: 0x0102_0304_0506_0708, len: 3 }],
            total_len: 3,
            etag: "e".into(),
        };
        let object =
            ObjRecord::new(SimTime::from_millis(9), &manifest, vec![("b", "2"), ("a", "1")]);
        let mut expected = vec![2];
        put_str(&mut expected, "keep");
        put_str(&mut expected, "k");
        put_u64(&mut expected, 9);
        put_u32(&mut expected, 1);
        put_u64(&mut expected, 0x0102_0304_0506_0708);
        put_u32(&mut expected, 3);
        put_u64(&mut expected, 3);
        put_str(&mut expected, "e");
        put_u32(&mut expected, 1);
        put_u64(&mut expected, 0x0102_0304_0506_0708);
        put_bytes(&mut expected, b"xyz");
        put_u32(&mut expected, 2);
        for s in ["a", "1", "b", "2"] {
            put_str(&mut expected, s);
        }
        put_u64(&mut expected, 77);
        expected.push(1);
        let mut out = Vec::new();
        write_put(&mut out, "keep", "k", &object, [(0x0102_0304_0506_0708, &b"xyz"[..])], 77, true);
        assert_eq!(out, expected);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(StoreRecord::decode(&[]), None);
        assert_eq!(StoreRecord::decode(&[77]), None);
        let mut bytes = StoreRecord::Sweep { time_millis: 1 }.encode();
        bytes.push(9);
        assert_eq!(StoreRecord::decode(&bytes), None);
        bytes.truncate(4);
        assert_eq!(StoreRecord::decode(&bytes), None);
        // A manifest whose count runs past the payload.
        let mut put = vec![2];
        put_str(&mut put, "b");
        put_str(&mut put, "k");
        put_u64(&mut put, 0);
        put_u32(&mut put, u32::MAX);
        assert_eq!(StoreRecord::decode(&put), None);
    }
}
