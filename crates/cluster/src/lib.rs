//! # rai-cluster — elastic worker infrastructure (paper §IV, §VII)
//!
//! The paper's deployment moved through three provisioning phases:
//! cheap AWS G2 instances while students ran the serial baseline, ~10
//! P2 (K80) instances with multiple in-flight jobs mid-project, and
//! 20–30 single-job P2 instances during the benchmark-sensitive final
//! week — "students worked in bursts, which required RAI to be elastic
//! to remain reliable and cost-efficient."
//!
//! * [`instance`] — the instance-type catalogue (GPU model, hourly
//!   price, boot latency) and individual instance lifecycle;
//! * [`pool`] — the elastic pool: launch/terminate, readiness after
//!   provisioning latency, EC2-style rounded-up instance-hour billing;
//! * [`autoscaler`] — a reactive queue-depth policy plus the paper's
//!   explicit phase schedule.

#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod instance;
pub mod pool;

pub use autoscaler::{PhaseSchedule, ReactiveAutoscaler, ScaleAction};
pub use instance::InstanceType;
pub use pool::WorkerPool;
