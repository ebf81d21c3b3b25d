//! # rai-sim — discrete-event simulation substrate
//!
//! The paper evaluates RAI on a real AWS deployment over a five-week
//! course project. This crate provides the virtual-time substrate that
//! lets the reproduction run an entire semester of submissions in
//! milliseconds, deterministically:
//!
//! * [`time`] — [`SimTime`]/[`SimDuration`], millisecond-resolution
//!   virtual timestamps with calendar-ish helpers (hours, days).
//! * [`clock`] — [`VirtualClock`], a shared monotonically advancing
//!   clock used by components that only need "what time is it?"
//!   (object-store lifecycle expiry, rate limiters, container deadlines).
//! * [`engine`] — a classic event-calendar discrete-event engine:
//!   schedule closures at future instants, run to quiescence.
//!
//! The statistics toolkit (online mean/variance, histograms,
//! time-bucketed series, percentiles) that used to live here moved to
//! `rai-telemetry`, which also layers a metrics registry, spans, and
//! per-job traces on top of this crate's virtual clock.

#![forbid(unsafe_code)]

pub mod clock;
pub mod engine;
pub mod time;

pub use clock::VirtualClock;
pub use engine::{Scheduler, Simulation};
pub use time::{SimDuration, SimTime};
