//! Scaling policies: the reactive queue-depth autoscaler used in the
//! elasticity experiments, and the explicit phase schedule the staff
//! actually ran during the semester (paper §VII "Resource Usage").

use crate::instance::InstanceType;
use rai_sim::{SimDuration, SimTime};

/// Decision from a scaling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleAction {
    /// Launch this many instances.
    Out(usize),
    /// Terminate this many instances.
    In(usize),
    /// Do nothing.
    Hold,
}

/// Desired queued jobs per ready worker.
const TARGET_DEPTH_PER_WORKER: f64 = 2.0;

/// Minimum time between scaling actions.
const COOLDOWN: SimDuration = SimDuration::from_mins(10);

/// Reactive policy: keep queue depth per ready worker near
/// `TARGET_DEPTH_PER_WORKER`, within bounds, acting at most once per
/// `COOLDOWN` to avoid thrashing.
#[derive(Clone, Debug)]
pub struct ReactiveAutoscaler {
    /// Never fewer than this many live instances.
    min_instances: usize,
    /// Never more than this many live instances.
    max_instances: usize,
    last_action: Option<SimTime>,
}

impl ReactiveAutoscaler {
    /// A policy keeping between `min` and `max` live instances.
    pub fn new(min: usize, max: usize) -> Self {
        ReactiveAutoscaler { min_instances: min, max_instances: max, last_action: None }
    }

    /// Decide given current state. `live` counts provisioning + running
    /// (capacity already paid for), `queue_depth` is ready jobs waiting.
    pub fn decide(&mut self, now: SimTime, queue_depth: usize, live: usize) -> ScaleAction {
        if let Some(last) = self.last_action {
            if now.duration_since(last) < COOLDOWN {
                return ScaleAction::Hold;
            }
        }
        let live_f = live.max(1) as f64;
        let per_worker = queue_depth as f64 / live_f;
        let action = if live < self.min_instances {
            ScaleAction::Out(self.min_instances - live)
        } else if per_worker > TARGET_DEPTH_PER_WORKER && live < self.max_instances {
            // Grow toward the depth target, capped.
            let desired = ((queue_depth as f64 / TARGET_DEPTH_PER_WORKER).ceil() as usize)
                .clamp(live + 1, self.max_instances);
            ScaleAction::Out(desired - live)
        } else if queue_depth == 0 && live > self.min_instances && per_worker == 0.0 {
            ScaleAction::In(1) // gentle scale-in, one at a time
        } else {
            ScaleAction::Hold
        };
        if action != ScaleAction::Hold {
            self.last_action = Some(now);
        }
        action
    }
}

/// One phase of the semester's explicit provisioning plan.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase begins at this offset from the project start.
    pub starts_at: SimTime,
    /// Instance type to run.
    pub itype: &'static InstanceType,
    /// Fleet size.
    pub fleet: usize,
    /// Concurrent jobs each worker accepts (paper: multiple early, one
    /// during the benchmarking weeks).
    pub jobs_per_worker: usize,
    /// Human-readable label.
    pub label: &'static str,
}

/// The semester schedule from §VII.
#[derive(Clone, Debug)]
pub struct PhaseSchedule {
    /// Phases in chronological order.
    pub phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// The paper's plan over a 5-week project:
    /// * weeks 1–2 — a few cheap G2 (K40) workers, single job each
    ///   (serial baseline jobs are long; consistency matters);
    /// * weeks 3–4 — 10 P2 (K80) workers, multiple jobs in flight;
    /// * week 5 — 25 P2 workers, one job at a time for stable timing.
    pub fn paper_semester() -> Self {
        PhaseSchedule {
            phases: vec![
                Phase {
                    starts_at: SimTime::ZERO,
                    itype: InstanceType::g2(),
                    fleet: 4,
                    jobs_per_worker: 1,
                    label: "baseline exploration (G2/K40)",
                },
                Phase {
                    starts_at: SimTime::ZERO + SimDuration::from_days(14),
                    itype: InstanceType::p2(),
                    fleet: 10,
                    jobs_per_worker: 4,
                    label: "optimization (10x P2/K80, multi-job)",
                },
                Phase {
                    starts_at: SimTime::ZERO + SimDuration::from_days(28),
                    itype: InstanceType::p2(),
                    fleet: 25,
                    jobs_per_worker: 1,
                    label: "benchmarking week (25x P2/K80, single-job)",
                },
            ],
        }
    }

    /// The phase in force at `now` (none before the first phase).
    pub fn phase_at(&self, now: SimTime) -> Option<&Phase> {
        self.phases.iter().rev().find(|p| now >= p.starts_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_out_under_backlog() {
        let mut a = ReactiveAutoscaler::new(1, 30);
        let t = SimTime::from_secs(0);
        match a.decide(t, 40, 5) {
            ScaleAction::Out(n) => assert!(n >= 1 && 5 + n <= 30, "n={n}"),
            other => panic!("expected Out, got {other:?}"),
        }
    }

    #[test]
    fn respects_max() {
        let mut a = ReactiveAutoscaler::new(1, 10);
        match a.decide(SimTime::ZERO, 1000, 10) {
            ScaleAction::Hold => {}
            other => panic!("at max, expected Hold, got {other:?}"),
        }
    }

    #[test]
    fn cooldown_prevents_thrash() {
        let mut a = ReactiveAutoscaler::new(1, 30);
        assert!(matches!(a.decide(SimTime::ZERO, 50, 2), ScaleAction::Out(_)));
        // One minute later, still backlogged: held by cooldown.
        assert_eq!(
            a.decide(SimTime::ZERO + SimDuration::from_mins(1), 80, 2),
            ScaleAction::Hold
        );
        // After cooldown: acts again.
        assert!(matches!(
            a.decide(SimTime::ZERO + SimDuration::from_mins(11), 80, 2),
            ScaleAction::Out(_)
        ));
    }

    #[test]
    fn scales_in_when_idle() {
        let mut a = ReactiveAutoscaler::new(2, 30);
        assert_eq!(a.decide(SimTime::ZERO, 0, 10), ScaleAction::In(1));
        // Never below min, cooldown or not.
        assert_eq!(a.decide(SimTime::ZERO + COOLDOWN, 0, 2), ScaleAction::Hold);
    }

    #[test]
    fn grows_to_min() {
        let mut a = ReactiveAutoscaler::new(5, 30);
        assert_eq!(a.decide(SimTime::ZERO, 0, 1), ScaleAction::Out(4));
    }

    #[test]
    fn paper_schedule_phases() {
        let s = PhaseSchedule::paper_semester();
        assert!(s.phase_at(SimTime::ZERO).unwrap().label.contains("G2"));
        let mid = SimTime::ZERO + SimDuration::from_days(20);
        let p = s.phase_at(mid).unwrap();
        assert_eq!(p.fleet, 10);
        assert_eq!(p.jobs_per_worker, 4);
        let last = SimTime::ZERO + SimDuration::from_days(30);
        let p = s.phase_at(last).unwrap();
        assert_eq!(p.fleet, 25);
        assert_eq!(p.jobs_per_worker, 1, "single-job for timing accuracy");
    }
}
