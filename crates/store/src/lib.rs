//! # rai-store — the file server (paper §IV "File Storage Server")
//!
//! RAI uploads every submitted project directory to a file server
//! (Amazon S3 in the paper's deployment) and uploads each job's `/build`
//! output directory back to it; instructors bulk-download final
//! submissions from the same place. "Files uploaded to the file server
//! can be configured to have a particular lifetime after which they get
//! deleted. The current lifetime is set between 1 and 3 months" — and
//! client uploads are "deleted one month after the last use".
//!
//! This crate is an in-process object store with those semantics,
//! implemented as a **content-addressed, deduplicating** store
//! (DESIGN.md §10) — the paper's workload is dominated by
//! near-identical resubmissions of the same project tree, which dedup
//! collapses:
//!
//! * buckets and keys, opaque byte payloads, user metadata (kept as one
//!   packed block per object and capped; [`ObjectMeta`] is a view built
//!   on read);
//! * payloads split into content-defined chunks
//!   ([`rai_archive::chunk`]); objects are chunk manifests over a
//!   refcounted chunk arena (`dedup`), so identical content is
//!   stored once no matter how often it is uploaded;
//! * a delta-upload protocol — [`ObjectStore::has_chunks`] +
//!   [`ObjectStore::put_delta`] — so clients ship only chunks the
//!   store does not already hold;
//! * FNV-1a etags computed on upload ([`rai_archive::fnv::etag`]);
//! * per-bucket lifecycle rules — expire N after creation or N after
//!   last access — evaluated against the shared [`rai_sim::VirtualClock`];
//!   expiry releases chunk references, never raw bytes, so chunks
//!   shared with live objects survive sweeps;
//! * usage accounting (logical vs physical bytes, wire bytes, dedup
//!   hits, object counts) backing the paper's §VII storage numbers.
//!
//! Entry point: [`ObjectStore`].

#![forbid(unsafe_code)]

mod dedup;
mod journal;
mod lifecycle;
mod object;
mod store;

pub use lifecycle::LifecycleRule;
pub use object::{ObjectMeta, StoredObject};
pub use store::{ObjectStore, StoreError, StoreRecovery, StoreUsage};
