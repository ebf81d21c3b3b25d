//! Submission rate limiting (paper §V): "to limit denial of service
//! attacks and to maintain fairness, each student can only submit a job
//! every 30 seconds."

use parking_lot::Mutex;
use rai_sim::{SimDuration, SimTime, VirtualClock};
use std::collections::HashMap;

/// Per-key minimum-interval rate limiter over virtual time.
pub(crate) struct RateLimiter {
    min_interval: SimDuration,
    clock: VirtualClock,
    last_seen: Mutex<HashMap<String, SimTime>>,
}

/// Result of a rate-limit check.
#[derive(Debug, PartialEq)]
pub(crate) enum RateDecision {
    /// Allowed; the attempt is recorded.
    Allowed,
    /// Denied; retry after this long.
    Denied { retry_after: SimDuration },
}

impl RateLimiter {
    /// A limiter admitting one attempt per key every `min_interval`.
    pub(crate) fn new(clock: VirtualClock, min_interval: SimDuration) -> Self {
        RateLimiter {
            min_interval,
            clock,
            last_seen: Mutex::new(HashMap::new()),
        }
    }

    /// Check (and on success record) an attempt for `key`.
    pub(crate) fn check(&self, key: &str) -> RateDecision {
        let now = self.clock.now();
        let mut seen = self.last_seen.lock();
        // One lookup; a key is copied only the first time it is seen.
        let Some(last) = seen.get_mut(key) else {
            seen.insert(key.to_string(), now);
            return RateDecision::Allowed;
        };
        let since = now.duration_since(*last);
        if since < self.min_interval {
            return RateDecision::Denied {
                retry_after: self.min_interval - since,
            };
        }
        *last = now;
        RateDecision::Allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforces_thirty_seconds() {
        let clock = VirtualClock::new();
        let rl = RateLimiter::new(clock.clone(), SimDuration::from_secs(30));
        assert_eq!(rl.check("alice"), RateDecision::Allowed);
        match rl.check("alice") {
            RateDecision::Denied { retry_after } => {
                assert_eq!(retry_after, SimDuration::from_secs(30))
            }
            other => panic!("expected denial, got {other:?}"),
        }
        clock.advance(SimDuration::from_secs(29));
        assert!(matches!(rl.check("alice"), RateDecision::Denied { .. }));
        clock.advance(SimDuration::from_secs(1));
        assert_eq!(rl.check("alice"), RateDecision::Allowed);
    }

    #[test]
    fn keys_are_independent() {
        let clock = VirtualClock::new();
        let rl = RateLimiter::new(clock, SimDuration::from_secs(30));
        assert_eq!(rl.check("alice"), RateDecision::Allowed);
        assert_eq!(rl.check("bob"), RateDecision::Allowed);
    }

    #[test]
    fn denied_attempts_do_not_reset_the_window() {
        let clock = VirtualClock::new();
        let rl = RateLimiter::new(clock.clone(), SimDuration::from_secs(30));
        rl.check("t");
        clock.advance(SimDuration::from_secs(20));
        assert!(matches!(rl.check("t"), RateDecision::Denied { .. }));
        clock.advance(SimDuration::from_secs(10));
        // 30s since the *allowed* attempt → allowed again.
        assert_eq!(rl.check("t"), RateDecision::Allowed);
    }

    #[test]
    fn retry_after_counts_down() {
        let clock = VirtualClock::new();
        let rl = RateLimiter::new(clock.clone(), SimDuration::from_secs(30));
        rl.check("t");
        clock.advance(SimDuration::from_secs(12));
        match rl.check("t") {
            RateDecision::Denied { retry_after } => {
                assert_eq!(retry_after, SimDuration::from_secs(18));
            }
            other => panic!("{other:?}"),
        }
    }
}
