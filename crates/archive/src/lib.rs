//! # rai-archive — project archives (the paper's `.tar.bz2` path)
//!
//! When a student submits a job, the RAI client "compresses the project
//! directory into a `.tar.bz2` file and uploads it to the file server"
//! (paper §V); the worker does the same for `/build` on the way back.
//! This crate reproduces that path from scratch, minus the `bz2`:
//!
//! * [`tree`] — [`FileTree`], the in-memory directory-tree model shared
//!   by the client (project dir), the sandbox (mounted volumes) and the
//!   grading tools (downloaded submissions).
//! * [`fnv`] — FNV-1a hashing used for content checksums.
//! * [`digits`] — the hex and decimal digits of etags, keys, topics
//!   and URLs, written without the formatter.
//! * `container` — the tar-like entry container with per-entry and
//!   whole-archive checksums: [`write_container`] (or
//!   [`write_container_chunked`], which chunks it as it writes) on the
//!   way up, [`restore`] (a borrowed buffer, copied once) or
//!   [`restore_shared`] (a shared one, whose bytes the restored files
//!   view) on the way down, one name each. Uploads are uncompressed
//!   containers — chunked dedup, not compression, is the byte saver
//!   (DESIGN.md §10) — so there is one format and no sniff.
//! * [`chunk`] — the content-defined chunker (Gear rolling hash, fed a
//!   payload whole or, by the container writer, as it is written) and
//!   [`ChunkManifest`](chunk::ChunkManifest) behind the store's dedup and delta uploads
//!   (DESIGN.md §10).

#![forbid(unsafe_code)]

pub mod chunk;
mod container;
pub mod digits;
pub mod fnv;
pub mod tree;

#[cfg(test)]
mod proptests;

/// The shared byte-buffer view that file contents, chunk bodies and
/// fetched objects are handed around as; re-exported so crates that
/// take or return those need no dependency edge of their own.
pub use bytes::Bytes;
pub use chunk::{chunk_shared, ChunkerParams};
pub use container::{
    container_len, restore, restore_shared, write_container, write_container_chunked, ArchiveError,
};
pub use tree::{text, FileTree};
