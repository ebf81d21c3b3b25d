//! # rai-sandbox — the container runtime (paper §IV/§V "Container Execution")
//!
//! Every student command runs "within a sandboxed container": a Docker
//! container started from a whitelisted base image, with the
//! nvidia-docker CUDA volume mounted, the project at `/src`, a fresh
//! `/build` working directory, *no network*, 8 GB of memory and a 1-hour
//! maximum lifetime. This crate reproduces that runtime as a
//! deterministic simulation:
//!
//! * [`image`] — base-image registry with the instructor's whitelist,
//!   preloaded `/data` volumes (test datasets, model weights) and a pull
//!   latency model;
//! * [`limits`] — the paper's resource limits: 8 GB of memory and the
//!   lifetime (1 hour for a job); no container reaches the network;
//! * `perf` — the performance model: student sources carry a
//!   `rai:perf` directive (mode, full-dataset runtime, accuracy, memory
//!   footprint) that the "compiler" bakes into the produced binary and
//!   the "program" replays at run time — this is the substitution for
//!   real CUDA execution, and what the workload models tune per team;
//! * [`exec`] — the build-command interpreter (`echo`, `cmake`, `make`,
//!   `nvprof`, `/usr/bin/time`, `cp -r`, program invocation), charging
//!   simulated time/memory and enforcing the limits;
//! * [`container`] — container lifecycle (create → run commands →
//!   destroy), mounts, GPU attachment, and the execution report the
//!   worker ships back.

#![forbid(unsafe_code)]

pub mod container;
pub mod exec;
pub mod image;
pub mod limits;
mod perf;

pub use container::{Container, ContainerStatus, LogLine, LogStream, MAX_OUTPUT_BYTES};
pub use image::{Image, ImageRegistry};
pub use limits::ResourceLimits;
