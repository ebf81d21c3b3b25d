//! Instance types and lifecycle.

use rai_sim::{SimDuration, SimTime};

/// An AWS-style instance type.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceType {
    /// API name, e.g. `p2.xlarge`.
    pub name: &'static str,
    /// GPU model string (as the paper describes the fleet).
    pub gpu_model: &'static str,
    /// Hourly price in USD cents.
    pub(crate) hourly_cents: u64,
    /// Boot + agent-start latency before the worker accepts jobs.
    pub provision_latency: SimDuration,
}

impl InstanceType {
    /// The early-project instance: "AWS G2 instances with NVIDIA Tesla
    /// K40 GPUs. These instances are cheaper…" (paper §VII).
    pub(crate) const fn g2() -> &'static InstanceType {
        &G2
    }

    /// The main fleet: "AWS P2 instances with NVIDIA Tesla K80 GPUs".
    pub const fn p2() -> &'static InstanceType {
        &P2
    }
}

static G2: InstanceType = InstanceType {
    name: "g2.2xlarge",
    gpu_model: "NVIDIA Tesla K40",
    hourly_cents: 65,
    provision_latency: SimDuration::from_millis(3 * 60_000),
};

static P2: InstanceType = InstanceType {
    name: "p2.xlarge",
    gpu_model: "NVIDIA Tesla K80",
    hourly_cents: 90,
    provision_latency: SimDuration::from_millis(4 * 60_000),
};

/// Instance lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum InstanceState {
    /// Booting; not yet accepting jobs.
    Provisioning,
    /// Accepting jobs.
    Running,
    /// Terminated; billing stopped.
    Terminated,
}

/// A launched instance.
#[derive(Debug)]
pub(crate) struct Instance {
    /// Type.
    pub(crate) itype: &'static InstanceType,
    /// Launch request time.
    pub(crate) launched_at: SimTime,
    /// When it becomes/became ready.
    pub(crate) ready_at: SimTime,
    /// Termination time, if terminated.
    pub(crate) terminated_at: Option<SimTime>,
}

impl Instance {
    /// State at time `now`.
    pub(crate) fn state(&self, now: SimTime) -> InstanceState {
        if self.terminated_at.is_some_and(|t| now >= t) {
            InstanceState::Terminated
        } else if now >= self.ready_at {
            InstanceState::Running
        } else {
            InstanceState::Provisioning
        }
    }

    /// Billable cost in cents up to `now` (EC2-classic semantics: whole
    /// hours, rounded up, from launch to termination).
    pub(crate) fn cost_cents(&self, now: SimTime) -> u64 {
        let end = self.terminated_at.map_or(now, |t| t.min(now));
        if end <= self.launched_at {
            return 0;
        }
        let hours = end.duration_since(self.launched_at).as_millis() as f64 / 3_600_000.0;
        (hours.ceil() as u64).max(1) * self.itype.hourly_cents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_paper() {
        assert_eq!(InstanceType::g2().gpu_model, "NVIDIA Tesla K40");
        assert_eq!(InstanceType::p2().gpu_model, "NVIDIA Tesla K80");
        assert!(InstanceType::g2().hourly_cents < InstanceType::p2().hourly_cents);
    }

    fn launched_at(t: SimTime) -> Instance {
        Instance {
            itype: InstanceType::p2(),
            launched_at: t,
            ready_at: t + InstanceType::p2().provision_latency,
            terminated_at: None,
        }
    }

    #[test]
    fn state_transitions() {
        let t0 = SimTime::from_secs(100);
        let mut inst = launched_at(t0);
        assert_eq!(inst.state(t0), InstanceState::Provisioning);
        assert_eq!(inst.state(t0 + SimDuration::from_mins(10)), InstanceState::Running);
        inst.terminated_at = Some(t0 + SimDuration::from_hours(2));
        assert_eq!(inst.state(t0 + SimDuration::from_hours(3)), InstanceState::Terminated);
        assert_eq!(inst.state(t0 + SimDuration::from_mins(30)), InstanceState::Running);
    }

    #[test]
    fn billing_rounds_up_hours() {
        let t0 = SimTime::ZERO;
        let mut inst = launched_at(t0);
        // 10 minutes in: still one whole hour billed.
        assert_eq!(inst.cost_cents(t0 + SimDuration::from_mins(10)), 90);
        // 1h30 in: two hours.
        assert_eq!(inst.cost_cents(t0 + SimDuration::from_mins(90)), 180);
        // Terminated at 2h: cost frozen afterwards.
        inst.terminated_at = Some(t0 + SimDuration::from_hours(2));
        assert_eq!(inst.cost_cents(t0 + SimDuration::from_days(5)), 180);
    }
}
