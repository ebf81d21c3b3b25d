//! # RAI — a scalable project submission system for parallel programming courses
//!
//! This workspace is a from-scratch Rust reproduction of
//! *"RAI: A Scalable Project Submission System for Parallel Programming
//! Courses"* (Dakkak, Pearson, Li, Hwu — IPDPS Workshops 2017).
//!
//! The `rai` crate is a facade that re-exports every subsystem:
//!
//! * [`sim`] — discrete-event simulation engine (virtual clock, event queue).
//! * [`yaml`] — parser for the YAML subset used by `rai-build.yml`.
//! * [`archive`] — tar-like archive container (the paper's `.tar.bz2`
//!   upload format, uncompressed) and the content-defined chunker behind
//!   the store's dedup.
//! * [`broker`] — NSQ-style pub/sub message broker with topics, channels
//!   and ephemeral log topics.
//! * [`store`] — S3-like object store with lifecycle (TTL) rules.
//! * [`db`] — MongoDB-like document database (queries, updates, indexes).
//! * [`sandbox`] — Docker-like container runtime simulation with resource
//!   limits and a deterministic build-command interpreter.
//! * [`auth`] — access/secret key generation, request signing, class
//!   roster handling and the key-delivery e-mail template.
//! * [`cluster`] — AWS-style instance catalogue, elastic worker pool and
//!   cost model.
//! * [`core`] — the paper's contribution: client, worker, job protocol,
//!   submissions, ranking, grading and delivery utilities.
//! * [`workload`] — student/team behaviour models used to regenerate the
//!   paper's figures.
//!
//! ## Quickstart
//!
//! ```
//! use rai::core::system::{RaiSystem, SystemConfig};
//! use rai::core::client::ProjectDir;
//!
//! // Stand up an in-process RAI deployment (broker + store + db + workers).
//! let mut system = RaiSystem::new(SystemConfig::default());
//! let creds = system.register_team("team-rust", &["alice", "bob"]);
//!
//! // A student project: source tree + rai-build.yml.
//! let project = ProjectDir::sample_cuda_project();
//! let receipt = system.submit(&creds, &project).expect("submission should succeed");
//!
//! // The log the student saw: the client keeps the message bodies and
//! // renders a line when it is read.
//! assert!(receipt.log.iter().any(|l| l.contains("Building project")));
//! assert_eq!(receipt.log.iter().count(), receipt.log.len());
//! ```

#![forbid(unsafe_code)]

pub use rai_archive as archive;
pub use rai_auth as auth;
pub use rai_broker as broker;
pub use rai_cluster as cluster;
pub use rai_core as core;
pub use rai_db as db;
pub use rai_sandbox as sandbox;
pub use rai_sim as sim;
pub use rai_store as store;
pub use rai_telemetry as telemetry;
pub use rai_workload as workload;
pub use rai_yaml as yaml;
