//! The repo benchmark: four workloads, seven end-to-end metrics, and an
//! outside-in phase + layer trace. See `README.md` for the catalogue.

pub mod catalogue;
pub mod check;
pub mod e2e;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod per_layer;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Bytes in a MiB, for the `MiB/s` metrics.
pub(crate) const MIB: f64 = (1u64 << 20) as f64;
