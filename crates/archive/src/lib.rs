//! # rai-archive — project archives (the paper's `.tar.bz2` path)
//!
//! When a student submits a job, the RAI client "compresses the project
//! directory into a `.tar.bz2` file and uploads it to the file server"
//! (paper §V); the worker does the same for `/build` on the way back.
//! This crate reproduces that path from scratch:
//!
//! * [`tree`] — [`FileTree`], the in-memory directory-tree model shared
//!   by the client (project dir), the sandbox (mounted volumes) and the
//!   grading tools (downloaded submissions).
//! * [`fnv`] — FNV-1a hashing used for content checksums.
//! * [`lzss`] — an LZ77-family compressor (LZSS: 4 KiB sliding window,
//!   3–18 byte matches, 8-token flag bytes) standing in for bzip2.
//! * [`container`] — the tar-like entry container with per-entry and
//!   whole-archive checksums.
//! * [`bundle`] — the top-level [`pack`]/[`unpack`] API: container +
//!   compression in one call, like `tar cjf` / `tar xjf` — plus
//!   format-sniffing [`restore`], which accepts both compressed
//!   bundles and raw containers.
//! * [`chunk`] — the content-defined chunker (Gear rolling hash) and
//!   [`ChunkManifest`] behind the store's dedup and delta uploads
//!   (DESIGN.md §10).

pub mod bundle;
pub mod chunk;
pub mod container;
pub mod fnv;
pub mod lzss;
pub mod tree;

pub use bundle::{pack, restore, restore_shared, unpack, Bundle};
/// The shared byte-buffer view that file contents, chunk bodies and
/// fetched objects are handed around as; re-exported so crates that
/// take or return those need no dependency edge of their own.
pub use bytes::Bytes;
pub use chunk::{chunk_bytes, chunk_shared, Chunk, ChunkManifest, ChunkRef, ChunkerParams};
pub use container::{
    read_container, read_container_shared, write_container, ArchiveError, Entry, EntryKind,
};
pub use tree::FileTree;
