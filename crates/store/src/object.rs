//! Stored-object model: the public [`ObjectMeta`] and [`StoredObject`],
//! and the packed record the store keeps per object.

use bytes::Bytes;
use rai_archive::chunk::{ChunkManifest, ChunkRef};
use rai_sim::SimTime;
use rai_wal::codec::{put_str, put_u32, put_u64};
use std::collections::BTreeMap;

/// Metadata about a stored object, returned by `head`/`list`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Key within its bucket.
    pub key: String,
    /// FNV-1a etag of the payload.
    pub etag: String,
    /// User-supplied metadata (e.g. `team`, `submission=final`).
    pub user: BTreeMap<String, String>,
}

/// An object's payload, reassembled from its chunks on read.
#[derive(Debug, PartialEq, Eq)]
pub struct StoredObject {
    /// Payload.
    pub data: Bytes,
}

/// Bytes one chunk reference takes in an object record's block: its
/// digest, then its length, little-endian — the 12 bytes a manifest
/// costs per chunk on the wire.
const REF_BYTES: usize = 12;

/// What the store keeps per object, under its key in the bucket's map:
/// two timestamps, the payload length and one block — a `u32` count of
/// chunk references, the references [`REF_BYTES`] each, the etag
/// ([`put_str`]), then the user metadata pairs, each a [`put_str`] key
/// then value, in key order and one per key. The count and references
/// are laid out as a journaled manifest lists its chunks, and the pairs
/// as journaled metadata follows its count, so the journal writes both
/// from the block as they stand (`crate::journal`). The public
/// [`ObjectMeta`] is a view built on read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ObjRecord {
    pub(crate) uploaded_at: SimTime,
    pub(crate) last_used: SimTime,
    /// Payload length: the sum of the references' lengths.
    pub(crate) size: u64,
    pub(crate) block: Box<[u8]>,
}

/// The little-endian `u32` at the front of `bytes`, as a length.
fn word(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes")) as usize
}

/// The [`put_str`] string at the front of `rest`, which moves past it.
fn next_str<'a>(rest: &mut &'a [u8]) -> &'a str {
    let (len, tail) = rest.split_at(4);
    let (s, tail) = tail.split_at(word(len));
    *rest = tail;
    std::str::from_utf8(s).expect("packed from a str")
}

impl ObjRecord {
    /// The record of `manifest` with user metadata `pairs`, uploaded at
    /// `now`. The pairs are packed in key order; of several pairs with
    /// one key the last wins, as collecting them into a map would have
    /// it.
    pub(crate) fn new(
        now: SimTime,
        manifest: &ChunkManifest,
        mut pairs: Vec<(&str, &str)>,
    ) -> Self {
        // Reversed, the last pair given is the first of its key's run
        // after the stable sort, and that is the one dedup keeps.
        pairs.reverse();
        pairs.sort_by_key(|&(k, _)| k);
        pairs.dedup_by_key(|&mut (k, _)| k);
        let user: usize = pairs.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
        let refs = &manifest.chunks;
        let mut block = Vec::with_capacity(8 + REF_BYTES * refs.len() + manifest.etag.len() + user);
        put_u32(&mut block, u32::try_from(refs.len()).expect("a manifest under 2^32 chunks"));
        for r in refs {
            put_u64(&mut block, r.digest);
            put_u32(&mut block, r.len);
        }
        put_str(&mut block, &manifest.etag);
        for (k, v) in pairs {
            put_str(&mut block, k);
            put_str(&mut block, v);
        }
        let block = block.into_boxed_slice();
        ObjRecord { uploaded_at: now, last_used: now, size: manifest.total_len, block }
    }

    /// The record a journal holds, from its parts as the journal laid
    /// them out (and its decoder checked): `refs` the count and packed
    /// references, `pairs` the packed metadata pairs.
    pub(crate) fn from_parts(
        uploaded_at: SimTime,
        last_used: SimTime,
        refs: &[u8],
        size: u64,
        etag: &str,
        pairs: &[u8],
    ) -> Self {
        let mut block = Vec::with_capacity(refs.len() + 4 + etag.len() + pairs.len());
        block.extend_from_slice(refs);
        put_str(&mut block, etag);
        block.extend_from_slice(pairs);
        ObjRecord { uploaded_at, last_used, size, block: block.into_boxed_slice() }
    }

    /// The block split after the packed references, count included.
    fn split(&self) -> (&[u8], &[u8]) {
        self.block.split_at(4 + REF_BYTES * word(&self.block))
    }

    /// The reference count and the packed references.
    pub(crate) fn packed_refs(&self) -> &[u8] {
        self.split().0
    }

    /// The chunk references, in stream order.
    pub(crate) fn refs(&self) -> impl ExactSizeIterator<Item = ChunkRef> + '_ {
        self.packed_refs()[4..].chunks_exact(REF_BYTES).map(|r| ChunkRef {
            digest: u64::from_le_bytes(r[..8].try_into().expect("eight bytes")),
            len: word(&r[8..]) as u32,
        })
    }

    /// The etag, and the packed user metadata pairs.
    fn etag_and_pairs(&self) -> (&str, &[u8]) {
        let mut rest = self.split().1;
        let etag = next_str(&mut rest);
        (etag, rest)
    }

    /// The etag.
    pub(crate) fn etag(&self) -> &str {
        self.etag_and_pairs().0
    }

    /// The user metadata pairs, packed.
    pub(crate) fn packed_pairs(&self) -> &[u8] {
        self.etag_and_pairs().1
    }

    /// The user metadata pairs, in key order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut rest = self.packed_pairs();
        std::iter::from_fn(move || {
            (!rest.is_empty()).then(|| (next_str(&mut rest), next_str(&mut rest)))
        })
    }

    /// The object's public metadata, as `head`/`list`/`get` see it.
    pub(crate) fn meta(&self, key: &str) -> ObjectMeta {
        // Inserted one by one: collecting would first gather the pairs
        // into a `Vec` to sort what is already sorted.
        let mut user = BTreeMap::new();
        user.extend(self.pairs().map(|(k, v)| (k.to_string(), v.to_string())));
        ObjectMeta { key: key.to_string(), etag: self.etag().to_string(), user }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_etag_matches_archive_etag() {
        // The store's etags come straight from the chunker's manifest,
        // which uses rai_archive::fnv — one hash construction end to end.
        let meta = ObjectMeta {
            key: "k".into(),
            etag: rai_archive::fnv::etag(b"abc"),
            user: BTreeMap::new(),
        };
        assert_eq!(meta.etag.len(), 16);
        assert_eq!(meta.etag, rai_archive::fnv::etag(b"abc"));
    }
}
