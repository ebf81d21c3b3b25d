//! The elastic worker pool.

use crate::instance::{Instance, InstanceId, InstanceState, InstanceType};
use parking_lot::Mutex;
use rai_sim::VirtualClock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pool statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Instances still provisioning.
    pub(crate) provisioning: usize,
    /// Instances accepting work.
    pub(crate) running: usize,
    /// Instances terminated (ever), including failures.
    pub(crate) terminated: usize,
    /// Instances that died rather than being scaled in (subset of
    /// `terminated`).
    pub failed: usize,
    /// Cumulative billed cost in cents (terminated + live so far).
    pub cost_cents: u64,
}

/// A shared handle to the elastic pool.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Mutex<PoolInner>>,
    clock: VirtualClock,
}

struct PoolInner {
    instances: BTreeMap<InstanceId, Instance>,
    next_id: u64,
}

impl WorkerPool {
    /// An empty pool reading time from `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        WorkerPool {
            inner: Arc::new(Mutex::new(PoolInner {
                instances: BTreeMap::new(),
                next_id: 1,
            })),
            clock,
        }
    }

    /// Launch `n` instances of a type; they become ready after the
    /// type's provisioning latency. Returns their ids.
    pub fn launch(&self, itype: &'static InstanceType, n: usize) -> Vec<InstanceId> {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        (0..n)
            .map(|_| {
                let id = InstanceId(inner.next_id);
                inner.next_id += 1;
                inner.instances.insert(
                    id,
                    Instance {
                        id,
                        itype,
                        launched_at: now,
                        ready_at: now + itype.provision_latency,
                        terminated_at: None,
                        failed: false,
                    },
                );
                id
            })
            .collect()
    }

    /// Kill an instance abruptly (spot reclaim, hardware death —
    /// chaos-scenario instance death). Billing stops like a terminate,
    /// but the instance is recorded as failed. Returns `false` if
    /// unknown or already down.
    pub fn fail(&self, id: InstanceId) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        match inner.instances.get_mut(&id) {
            Some(inst) if inst.terminated_at.is_none() => {
                inst.terminated_at = Some(now);
                inst.failed = true;
                true
            }
            _ => false,
        }
    }

    /// Terminate `n` running instances (oldest first); returns how many
    /// actually stopped. Used by scale-in.
    pub fn terminate_n(&self, n: usize) -> usize {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let ids: Vec<InstanceId> = inner
            .instances
            .values()
            .filter(|i| i.state(now) != InstanceState::Terminated)
            .map(|i| i.id)
            .take(n)
            .collect();
        for id in &ids {
            if let Some(inst) = inner.instances.get_mut(id) {
                inst.terminated_at = Some(now);
            }
        }
        ids.len()
    }

    /// Ids of instances currently ready for work.
    pub fn ready_instances(&self) -> Vec<InstanceId> {
        let now = self.clock.now();
        self.inner
            .lock()
            .instances
            .values()
            .filter(|i| i.state(now) == InstanceState::Running)
            .map(|i| i.id)
            .collect()
    }

    /// Count of non-terminated instances (provisioning + running).
    pub fn live_count(&self) -> usize {
        let now = self.clock.now();
        self.inner
            .lock()
            .instances
            .values()
            .filter(|i| i.state(now) != InstanceState::Terminated)
            .count()
    }

    /// Statistics at the current clock time.
    pub fn stats(&self) -> PoolStats {
        let now = self.clock.now();
        let inner = self.inner.lock();
        let mut s = PoolStats::default();
        for i in inner.instances.values() {
            match i.state(now) {
                InstanceState::Provisioning => s.provisioning += 1,
                InstanceState::Running => s.running += 1,
                InstanceState::Terminated => {
                    s.terminated += 1;
                    if i.failed {
                        s.failed += 1;
                    }
                }
            }
            s.cost_cents += i.cost_cents(now);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::SimDuration;

    #[test]
    fn launch_becomes_ready_after_latency() {
        let clock = VirtualClock::new();
        let pool = WorkerPool::new(clock.clone());
        let ids = pool.launch(InstanceType::p2(), 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(pool.ready_instances().len(), 0);
        assert_eq!(pool.stats().provisioning, 3);
        clock.advance(SimDuration::from_mins(5));
        assert_eq!(pool.ready_instances().len(), 3);
        assert_eq!(pool.stats().running, 3);
    }

    #[test]
    fn fail_marks_instance_dead_and_stops_billing() {
        let clock = VirtualClock::new();
        let pool = WorkerPool::new(clock.clone());
        let ids = pool.launch(InstanceType::p2(), 2);
        clock.advance(SimDuration::from_mins(10));
        assert!(pool.fail(ids[1]));
        assert!(!pool.fail(ids[1]), "double fail is a no-op");
        assert_eq!(pool.ready_instances(), vec![ids[0]]);
        let s = pool.stats();
        assert_eq!(s.terminated, 1);
        assert_eq!(s.failed, 1);
        let cost_at_death = s.cost_cents;
        clock.advance(SimDuration::from_hours(5));
        let s2 = pool.stats();
        assert_eq!(s2.failed, 1);
        assert!(s2.cost_cents - cost_at_death < 5 * 90 * 2, "dead instance stopped billing");
    }

    #[test]
    fn terminate_n_scales_in() {
        let clock = VirtualClock::new();
        let pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 5);
        clock.advance(SimDuration::from_mins(10));
        assert_eq!(pool.terminate_n(3), 3);
        assert_eq!(pool.live_count(), 2);
        assert_eq!(pool.terminate_n(10), 2, "only what exists");
    }

    #[test]
    fn cost_accrues_per_instance_hour() {
        let clock = VirtualClock::new();
        let pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 10); // $0.90/hr each
        clock.advance(SimDuration::from_hours(2));
        // 10 instances × 2 hours × 90¢.
        assert_eq!(pool.stats().cost_cents, 10 * 2 * 90);
        pool.terminate_n(10);
        clock.advance(SimDuration::from_days(1));
        assert_eq!(pool.stats().cost_cents, 10 * 2 * 90, "billing stops at terminate");
    }

    #[test]
    fn paper_fleet_cost_sanity() {
        // Section VII: 20–30 P2 instances during the last week. A week of
        // 30 P2s ≈ 30 × 168 h × $0.90 ≈ $4,536.
        let clock = VirtualClock::new();
        let pool = WorkerPool::new(clock.clone());
        pool.launch(InstanceType::p2(), 30);
        clock.advance(SimDuration::from_days(7));
        let dollars = pool.stats().cost_cents as f64 / 100.0;
        assert!((4_500.0..4_600.0).contains(&dollars), "got ${dollars}");
    }
}
