//! A shared, monotonically advancing virtual clock.
//!
//! Components that only need to *read* the current virtual time (object
//! store lifecycle expiry, the 30-second submission rate limiter,
//! container lifetime enforcement) hold a cheap [`VirtualClock`] handle.
//! The discrete-event engine — or a test — advances it.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable handle to a shared virtual clock.
///
/// Cloning the handle shares the underlying clock: advancing through one
/// handle is observed by all clones. The clock is monotone — it can only
/// move forward.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now_ms: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A new clock starting at the simulation epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new clock starting at `t`.
    pub fn starting_at(t: SimTime) -> Self {
        let c = Self::new();
        c.now_ms.store(t.as_millis(), Ordering::SeqCst);
        c
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.now_ms.load(Ordering::SeqCst))
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let new = self
            .now_ms
            .fetch_add(d.as_millis(), Ordering::SeqCst)
            .saturating_add(d.as_millis());
        SimTime::from_millis(new)
    }

    /// Move the clock forward to `t`. If `t` is in the past the clock is
    /// left unchanged (monotonicity), and the actual current time is
    /// returned.
    pub(crate) fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_millis();
        let mut cur = self.now_ms.load(Ordering::SeqCst);
        while cur < target {
            match self
                .now_ms
                .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime::from_millis(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(VirtualClock::new().now(), SimTime::ZERO);
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(5));
        assert_eq!(b.now(), SimTime::from_secs(5));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::starting_at(SimTime::from_secs(100));
        // Going backwards is a no-op.
        assert_eq!(c.advance_to(SimTime::from_secs(50)), SimTime::from_secs(100));
        assert_eq!(c.now(), SimTime::from_secs(100));
        // Going forwards works.
        assert_eq!(c.advance_to(SimTime::from_secs(200)), SimTime::from_secs(200));
    }

    #[test]
    fn concurrent_advance_to_converges() {
        let c = VirtualClock::new();
        let threads: Vec<_> = (1..=8u64)
            .map(|i| {
                let c = c.clone();
                std::thread::spawn(move || {
                    c.advance_to(SimTime::from_secs(i * 10));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), SimTime::from_secs(80));
    }
}
