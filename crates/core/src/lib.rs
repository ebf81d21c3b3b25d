//! # rai-core — the RAI project-submission system
//!
//! The paper's primary contribution, assembled from the substrate
//! crates: an interactive submission pipeline in which a **client**
//! packages a student project, uploads it to the **file server**,
//! enqueues a job on the **message broker**, and streams logs back while
//! a **worker** runs the build inside a **sandboxed container** and
//! records metadata in the **database**.
//!
//! Modules, mapped to the paper:
//!
//! * [`spec`] — `rai-build.yml` (§V "Execution Specification",
//!   Listings 1 & 2);
//! * [`protocol`] — the job message format exchanged over the broker
//!   (§V "Message Broker Operations");
//! * [`client`] — the student-side client, steps ①–⑧ (§V "Client
//!   Execution");
//! * `ratelimit` — "each student can only submit a job every 30
//!   seconds" (§V "Container Execution");
//! * [`worker`] — the worker agent, steps ①–⑥ (§V "Worker
//!   Operations"): one claim at a time, with `max_in_flight` modelling
//!   only the contention noise of co-scheduled jobs;
//! * `ranking` — the competition ranking ([`RankingBoard`]) with
//!   anonymized views (§VI "Competition Ranking");
//! * [`grading`] — instructor utilities: required-file checks, bulk
//!   download, re-run-and-take-minimum, grade reports (§VI, §VII
//!   "Project Grading");
//! * [`delivery`] — the cross-compiled client delivery matrix (§VII
//!   "RAI Client Delivery", Fig. 3);
//! * [`compare`] — the qualitative feature model behind Table I;
//! * `interactive` — instructor-gated interactive sessions
//!   ([`InteractiveSession`]), the paper's §VIII future work,
//!   implemented;
//! * [`delta`] — the client side of the store's delta-upload protocol
//!   ([`DeltaUploader`]), shared by [`client`] and [`worker`] so
//!   resubmissions ship only new chunks (DESIGN.md §10);
//! * [`system`] — [`system::RaiSystem`], a whole in-process deployment,
//!   and the one scheduling round every driver runs (DESIGN.md §12).

#![forbid(unsafe_code)]

pub mod cli;
pub mod client;
mod commands;
pub mod compare;
pub mod delta;
pub mod delivery;
pub mod grading;
mod interactive;
#[cfg(test)]
mod proptests;
pub mod protocol;
mod ranking;
mod ratelimit;
pub mod spec;
pub mod system;
pub mod worker;

/// The workspace's one FNV-1a, re-exported so fingerprint code in
/// crates with no `rai-archive` edge (`rai-workload`) shares it.
pub use rai_archive::fnv::Fnv1a;

pub use client::{ProjectDir, RaiClient, SubmitMode, SubmitReceipt};
pub use delta::DeltaUploader;
pub use interactive::{ExecOutput, InteractiveSession, SessionError};
pub use ranking::{RankEntry, RankingBoard};
pub use spec::BuildSpec;
pub use system::{RaiSystem, RecoveryReport, SystemConfig};
pub use worker::Worker;
