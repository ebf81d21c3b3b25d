//! The elastic worker pool.

use crate::instance::{Instance, InstanceState, InstanceType};
use rai_sim::VirtualClock;

/// The elastic pool: the instances a course launched, in launch order,
/// billed on the course's clock.
pub struct WorkerPool {
    instances: Vec<Instance>,
    clock: VirtualClock,
}

impl WorkerPool {
    /// An empty pool reading time from `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        WorkerPool { instances: Vec::new(), clock }
    }

    /// Launch `n` instances of a type; they become ready after the
    /// type's provisioning latency.
    pub fn launch(&mut self, itype: &'static InstanceType, n: usize) {
        let now = self.clock.now();
        self.instances.extend((0..n).map(|_| Instance {
            itype,
            launched_at: now,
            ready_at: now + itype.provision_latency,
            terminated_at: None,
        }));
    }

    /// Terminate up to `n` live instances, oldest first. Used by
    /// scale-in.
    pub fn terminate_n(&mut self, n: usize) {
        let now = self.clock.now();
        for inst in self.instances.iter_mut().filter(|i| i.state(now) != InstanceState::Terminated).take(n) {
            inst.terminated_at = Some(now);
        }
    }

    /// How many instances are ready for work.
    pub fn ready_count(&self) -> usize {
        self.count_in(|state| state == InstanceState::Running)
    }

    /// Count of non-terminated instances (provisioning + running).
    pub fn live_count(&self) -> usize {
        self.count_in(|state| state != InstanceState::Terminated)
    }

    /// Cumulative billed cost in cents at the current clock time
    /// (terminated instances and live ones so far).
    pub fn cost_cents(&self) -> u64 {
        let now = self.clock.now();
        self.instances.iter().map(|i| i.cost_cents(now)).sum()
    }

    fn count_in(&self, pred: impl Fn(InstanceState) -> bool) -> usize {
        let now = self.clock.now();
        self.instances.iter().filter(|i| pred(i.state(now))).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::SimDuration;

    #[test]
    fn launch_becomes_ready_after_latency() {
        let clock = VirtualClock::new();
        let mut pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 3);
        assert_eq!(pool.ready_count(), 0);
        assert_eq!(pool.live_count(), 3);
        clock.advance(SimDuration::from_mins(5));
        assert_eq!(pool.ready_count(), 3);
        assert_eq!(pool.live_count(), 3);
    }

    #[test]
    fn terminate_n_scales_in() {
        let clock = VirtualClock::new();
        let mut pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 5);
        clock.advance(SimDuration::from_mins(10));
        pool.terminate_n(3);
        assert_eq!(pool.live_count(), 2);
        pool.terminate_n(10);
        assert_eq!(pool.live_count(), 0, "only what exists");
    }

    #[test]
    fn cost_accrues_per_instance_hour() {
        let clock = VirtualClock::new();
        let mut pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 10); // $0.90/hr each
        clock.advance(SimDuration::from_hours(2));
        // 10 instances × 2 hours × 90¢.
        assert_eq!(pool.cost_cents(), 10 * 2 * 90);
        pool.terminate_n(10);
        clock.advance(SimDuration::from_days(1));
        assert_eq!(pool.cost_cents(), 10 * 2 * 90, "billing stops at terminate");
    }

    #[test]
    fn paper_fleet_cost_sanity() {
        // Section VII: 20–30 P2 instances during the last week. A week of
        // 30 P2s ≈ 30 × 168 h × $0.90 ≈ $4,536.
        let clock = VirtualClock::new();
        let mut pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 30);
        clock.advance(SimDuration::from_days(7));
        let dollars = pool.cost_cents() as f64 / 100.0;
        assert!((4_500.0..4_600.0).contains(&dollars), "got ${dollars}");
    }
}
