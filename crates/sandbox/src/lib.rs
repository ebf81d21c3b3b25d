//! # rai-sandbox — the container runtime (paper §IV/§V "Container Execution")
//!
//! Every student command runs "within a sandboxed container": a Docker
//! container started from a whitelisted base image, with the
//! nvidia-docker CUDA volume mounted, the project at `/src`, a fresh
//! `/build` working directory, *no network*, 8 GB of memory and a 1-hour
//! maximum lifetime. This crate reproduces that runtime as a
//! deterministic simulation:
//!
//! * `image` — base-image registry with the instructor's whitelist,
//!   preloaded `/data` volumes (test datasets, model weights) and a pull
//!   latency model;
//! * `limits` — the paper's resource limits: 8 GB of memory and the
//!   lifetime (1 hour for a job); no container reaches the network;
//! * `perf` — the performance model: student sources carry a
//!   `rai:perf` directive (mode, full-dataset runtime, accuracy, memory
//!   footprint) that the "compiler" bakes into the produced binary and
//!   the "program" replays at run time — this is the substitution for
//!   real CUDA execution, and what the workload models tune per team;
//! * `decimal` — how the interpreter prints numbers: simulated time
//!   and a program's accuracy from the integers they are, byte for byte
//!   what `format!` printed;
//! * [`exec`] — the build-command interpreter for the commands courses
//!   issue (`echo`, `cmake`, `make`, program invocation, `nvprof
//!   [--export-profile FILE]`, `time` and `/usr/bin/time`, `cp -r`,
//!   `cat`, `grep`, `sleep`, `true`, and the denied network tools),
//!   charging simulated time/memory and enforcing the limits; any other
//!   command is not found (exit 127);
//! * `layers` — the container's filesystem: the image's files and the
//!   `/src` volume by reference under one upper layer that every write
//!   lands in, `/build` kept as the tree the container hands over;
//! * `container` — container lifecycle (create → run commands →
//!   destroy), mounts, GPU attachment, the job's output (one buffer of
//!   lines, capped at [`MAX_OUTPUT_BYTES`]) and the execution report the
//!   worker ships back.

#![forbid(unsafe_code)]

mod container;
mod decimal;
pub mod exec;
mod image;
mod layers;
mod limits;
mod perf;
#[cfg(test)]
mod proptests;

pub use container::{
    Container, ContainerStatus, ExecutionReport, JobOutput, KillReason, LogLine, LogStream,
    OutputLine, MAX_OUTPUT_BYTES,
};
pub use image::{Image, ImageError, ImageRegistry};
pub use limits::ResourceLimits;
