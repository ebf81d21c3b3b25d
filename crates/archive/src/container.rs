//! The tar-like entry container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            "RAIAR1\0"           8 bytes
//! entry count      u32
//! per entry:
//!   path length    u16
//!   path bytes     UTF-8, normalized
//!   kind           u8  (0 = regular file)
//!   data length    u64
//!   data bytes
//!   checksum       u64 FNV-1a over (path bytes ++ data bytes)
//! trailer checksum u64 FNV-1a over everything before it
//! ```

use crate::chunk::{Chunk, ChunkManifest, ChunkerParams, Cutter};
use crate::fnv::{self, Fnv1a};
use crate::tree::{normalized, FileTree, Files, MAX_ENTRIES, MAX_TREE_BYTES};
use std::collections::btree_map::Entry;
use bytes::Bytes;

const MAGIC: &[u8; 8] = b"RAIAR1\0\0";

/// Entry kind. Only regular files exist today; the discriminant is kept
/// explicit so that the format can grow (symlinks, exec bits) without a
/// magic bump.
#[repr(u8)]
pub(crate) enum EntryKind {
    /// A regular file.
    Regular = 0,
}

/// Error reading or writing an archive.
#[derive(Debug, PartialEq)]
pub enum ArchiveError {
    /// Wrong magic bytes.
    BadMagic,
    /// Stream ended early.
    Truncated,
    /// Entry path was not valid UTF-8 or not a normalized relative path.
    BadPath,
    /// Unknown entry kind byte.
    BadKind(u8),
    /// A per-entry or trailer checksum mismatched.
    ChecksumMismatch { context: &'static str },
    /// Two entries shared a path.
    DuplicatePath(String),
    /// More files or bytes than a tree holds ([`crate::tree::MAX_ENTRIES`],
    /// [`crate::tree::MAX_TREE_BYTES`]).
    TooLarge,
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::BadMagic => write!(f, "archive: bad magic"),
            ArchiveError::Truncated => write!(f, "archive: truncated"),
            ArchiveError::BadPath => write!(f, "archive: invalid entry path"),
            ArchiveError::BadKind(k) => write!(f, "archive: unknown entry kind {k}"),
            ArchiveError::ChecksumMismatch { context } => {
                write!(f, "archive: checksum mismatch ({context})")
            }
            ArchiveError::DuplicatePath(p) => write!(f, "archive: duplicate path {p:?}"),
            ArchiveError::TooLarge => write!(f, "archive: more than a file tree holds"),
        }
    }
}

// Framing bytes: the magic and entry count ahead of the entries, per
// entry its path length, kind, data length and checksum, and the
// trailer after them.
const HEADER_BYTES: usize = MAGIC.len() + 4;
const ENTRY_FRAMING_BYTES: usize = 2 + 1 + 8 + 8;
const TRAILER_BYTES: usize = 8;

/// The exact length of `tree`'s container, read off the tree alone.
pub fn container_len(tree: &FileTree) -> usize {
    let entries: usize = tree.iter().map(|(p, d)| ENTRY_FRAMING_BYTES + p.len() + d.len()).sum();
    HEADER_BYTES + entries + TRAILER_BYTES
}

/// What else reads the container bytes as they are written: nothing,
/// or a [`Cutter`] chunking them in the same loop.
trait Ride {
    /// Take `bytes`, folding each of them into every one of `chains`.
    fn ride<const N: usize>(&mut self, bytes: &[u8], chains: &mut [Fnv1a; N]);
}

impl Ride for () {
    #[inline(always)]
    fn ride<const N: usize>(&mut self, bytes: &[u8], chains: &mut [Fnv1a; N]) {
        fnv::update_all(chains, bytes);
    }
}

impl Ride for Cutter {
    #[inline(always)]
    fn ride<const N: usize>(&mut self, bytes: &[u8], chains: &mut [Fnv1a; N]) {
        self.feed(bytes, chains);
    }
}

/// Container bytes under construction, with the trailer chain — and
/// whatever rides along — folded as they are appended.
struct Writer<R> {
    out: Vec<u8>,
    trailer: Fnv1a,
    rider: R,
}

impl<R: Ride> Writer<R> {
    /// Append framing bytes: trailer chain only.
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.rider.ride(bytes, std::array::from_mut(&mut self.trailer));
    }

    /// Append bytes an entry checksum covers too: both chains, one pass.
    fn put_into(&mut self, bytes: &[u8], entry: &mut Fnv1a) {
        self.out.extend_from_slice(bytes);
        let mut chains = [*entry, self.trailer];
        self.rider.ride(bytes, &mut chains);
        [*entry, self.trailer] = chains;
    }
}

/// The container layout, written once for every caller: `tree`'s
/// `len`-byte container, `rider` after it has read every byte, and the
/// FNV-1a etag of the whole container — the trailer chain continued
/// over the trailer's own bytes, so no third chain runs for it.
fn write_with<R: Ride>(tree: &FileTree, len: usize, rider: R) -> (Vec<u8>, R, u64) {
    let mut w = Writer { out: Vec::with_capacity(len), trailer: Fnv1a::new(), rider };
    w.put(MAGIC);
    w.put(&u32::try_from(tree.len()).expect("a tree holds fewer than 2^32 files").to_le_bytes());
    for (path, data) in tree.iter() {
        let mut entry = Fnv1a::new();
        let path_len = u16::try_from(path.len()).expect("FileTree bounds paths at MAX_PATH_BYTES");
        w.put(&path_len.to_le_bytes());
        w.put_into(path.as_bytes(), &mut entry);
        w.put(&[EntryKind::Regular as u8]);
        w.put(&(data.len() as u64).to_le_bytes());
        w.put_into(data, &mut entry);
        w.put(&entry.digest().to_le_bytes());
    }
    let trailer = w.trailer.digest().to_le_bytes();
    let mut etag = [w.trailer];
    w.out.extend_from_slice(&trailer);
    w.rider.ride(&trailer, &mut etag);
    debug_assert_eq!(w.out.len(), len, "container_len is exact");
    (w.out, w.rider, etag[0].digest())
}

/// Serialize a [`FileTree`] into the container format (uncompressed).
/// Each file's bytes are read once for both checksums that cover them.
pub fn write_container(tree: &FileTree) -> Vec<u8> {
    write_with(tree, container_len(tree), ()).0
}

/// [`write_container`] and [`chunk_shared`] of its output, with the
/// parameters its length selects ([`ChunkerParams::for_len`]), in one
/// pass: each path and data byte advances the entry checksum, the
/// trailer, the Gear hash and the chunk digest in the loop that writes
/// it. Returns the container and its manifest, whose chunk bodies are
/// views of it.
///
/// [`chunk_shared`]: crate::chunk::chunk_shared
pub fn write_container_chunked(tree: &FileTree) -> (Bytes, ChunkManifest, Vec<Chunk>) {
    let len = container_len(tree);
    let (out, cutter, etag) = write_with(tree, len, Cutter::new(ChunkerParams::for_len(len), len));
    let out = Bytes::from(out);
    let (manifest, chunks) = cutter.finish(&out, etag);
    (out, manifest, chunks)
}

/// Cursor over a container body that folds every byte it hands out
/// into the trailer chain, so parsing and the whole-archive checksum
/// share one pass.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    trailer: Fnv1a,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, not yet folded into any chain. `n` comes
    /// from the container, so it is compared against what remains
    /// rather than added to the position.
    fn take_unhashed(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        if n > self.buf.len() - self.pos {
            return Err(ArchiveError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `n` bytes, folded into the trailer chain.
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let s = self.take_unhashed(n)?;
        self.trailer.update(s);
        Ok(s)
    }

    /// The next `n` bytes, folded into the trailer chain and `entry`
    /// in one pass.
    fn take_into(&mut self, n: usize, entry: &mut Fnv1a) -> Result<&'a [u8], ArchiveError> {
        let s = self.take_unhashed(n)?;
        let mut chains = [*entry, self.trailer];
        fnv::update_all(&mut chains, s);
        [*entry, self.trailer] = chains;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Deserialize a container back into a [`FileTree`], verifying every
/// checksum. Copies `buf` once into a shared buffer and reads that
/// ([`restore_shared`]).
pub fn restore(buf: &[u8]) -> Result<FileTree, ArchiveError> {
    restore_shared(&Bytes::copy_from_slice(buf))
}

/// [`restore`] over a shared buffer: the files of the returned
/// tree are views of `buf` — no file bytes are copied, and the tree
/// keeps `buf`'s buffer alive.
///
/// The entries are parsed and the trailer checksum folded in the same
/// pass, but the verdict is the two-pass one: the whole-archive
/// checksum is judged first, so a trailer mismatch outranks whatever
/// the parse made of the damaged bytes.
pub fn restore_shared(buf: &Bytes) -> Result<FileTree, ArchiveError> {
    if buf.len() < MAGIC.len() + 4 + 8 {
        return Err(ArchiveError::Truncated);
    }
    let (body, trailer_bytes) = buf.split_at(buf.len() - 8);
    let mut r = Reader { buf: body, pos: 0, trailer: Fnv1a::new() };
    let parsed = read_entries(&mut r, buf);
    // A failed parse stopped early: the trailer covers the rest too.
    r.trailer.update(&body[r.pos..]);
    if r.trailer.digest().to_le_bytes() != trailer_bytes {
        return Err(ArchiveError::ChecksumMismatch { context: "trailer" });
    }
    parsed
}

/// Parse the body under `r` (a prefix of `shared`) into a tree whose
/// files are views of `shared`. Each path is copied once, into the key
/// it becomes, and probed once.
fn read_entries(r: &mut Reader<'_>, shared: &Bytes) -> Result<FileTree, ArchiveError> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    let count = r.u32()?;
    let (mut files, mut bytes) = (Files::new(), 0);
    for _ in 0..count {
        let mut entry = Fnv1a::new();
        let path_len = r.u16()? as usize;
        let path_bytes = r.take_into(path_len, &mut entry)?;
        let path = std::str::from_utf8(path_bytes).map_err(|_| ArchiveError::BadPath)?;
        if normalized(path) != Ok(path) {
            return Err(ArchiveError::BadPath);
        }
        let kind = r.take(1)?[0];
        if kind != EntryKind::Regular as u8 {
            return Err(ArchiveError::BadKind(kind));
        }
        // A length that does not fit the address space cannot fit the
        // buffer either.
        let data_len = usize::try_from(r.u64()?).map_err(|_| ArchiveError::Truncated)?;
        let data_at = r.pos;
        r.take_into(data_len, &mut entry)?;
        if entry.digest() != r.u64()? {
            return Err(ArchiveError::ChecksumMismatch { context: "entry" });
        }
        let len = files.len();
        let Entry::Vacant(slot) = files.entry(path.to_string()) else {
            return Err(ArchiveError::DuplicatePath(path.to_string()));
        };
        bytes += data_len as u64;
        if len + 1 > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(ArchiveError::TooLarge);
        }
        slot.insert(shared.slice(data_at..data_at + data_len));
    }
    if r.pos != r.buf.len() {
        // Trailing garbage between last entry and trailer.
        return Err(ArchiveError::ChecksumMismatch { context: "length" });
    }
    Ok(FileTree::from_files(files, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> FileTree {
        FileTree::new()
            .with("rai-build.yml", &b"rai:\n  version: 0.1\n"[..])
            .with("src/main.cu", &b"__global__ void k() {}\n"[..])
            .with("report.pdf", &b"%PDF-1.4 fake"[..])
    }

    #[test]
    fn round_trip() {
        let t = sample_tree();
        let bytes = write_container(&t);
        let back = restore(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tree_round_trips() {
        let t = FileTree::new();
        assert_eq!(restore(&write_container(&t)).unwrap(), t);
    }

    #[test]
    fn detects_bit_flip_anywhere() {
        let bytes = write_container(&sample_tree());
        // Flip one bit in several positions across the archive.
        for pos in [0, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            assert!(
                restore(&corrupted).is_err(),
                "bit flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = write_container(&sample_tree());
        for cut in [4, bytes.len() / 2, bytes.len() - 1] {
            assert!(restore(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = write_container(&FileTree::new());
        bytes[0] = b'X';
        // Fix the trailer so only the magic is wrong.
        let body_len = bytes.len() - 8;
        let mut h = Fnv1a::new();
        h.update(&bytes[..body_len]);
        let digest = h.digest().to_le_bytes();
        bytes[body_len..].copy_from_slice(&digest);
        assert_eq!(restore(&bytes), Err(ArchiveError::BadMagic));
    }

    #[test]
    fn entry_length_near_u64_max_is_truncated_not_a_panic() {
        // 48 bytes any client can build: one entry whose data length
        // would wrap `pos + n`, under a correctly recomputed trailer.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'a');
        bytes.push(EntryKind::Regular as u8);
        bytes.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let trailer = fnv::hash(&bytes);
        bytes.extend_from_slice(&trailer.to_le_bytes());
        assert_eq!(bytes.len(), 48);
        assert_eq!(restore(&bytes), Err(ArchiveError::Truncated));
    }

    #[test]
    fn shared_read_hands_out_views_of_the_container() {
        let t = sample_tree();
        let container = Bytes::from(write_container(&t));
        let back = restore_shared(&container).unwrap();
        assert_eq!(back, t);
        let span = container.as_ptr_range();
        for (path, data) in back.iter() {
            assert!(
                span.contains(&data.as_ptr()) && data.as_ptr_range().end <= span.end,
                "{path} was copied out of the container"
            );
        }
    }

    #[test]
    fn error_display() {
        let e = ArchiveError::ChecksumMismatch { context: "entry" };
        assert!(e.to_string().contains("checksum"));
        assert!(ArchiveError::DuplicatePath("a".into()).to_string().contains("a"));
    }
}
