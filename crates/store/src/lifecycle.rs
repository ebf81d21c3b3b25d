//! Bucket lifecycle rules — the "files get deleted after 1–3 months"
//! policy from the paper, parameterized.

use rai_sim::{SimDuration, SimTime};

/// When an object becomes eligible for expiry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleRule {
    /// Never expires (the paper's ranking database bucket).
    Keep,
    /// Expire a fixed duration after upload (the worker-output bucket:
    /// "between 1 and 3 months").
    AfterUpload(SimDuration),
    /// Expire a fixed duration after last use (the client-upload bucket:
    /// "deleted one month after the last use").
    AfterLastUse(SimDuration),
}

impl LifecycleRule {
    /// The paper's client-upload policy.
    pub fn one_month_after_last_use() -> Self {
        LifecycleRule::AfterLastUse(SimDuration::from_days(30))
    }

    /// Whether an object with the given timestamps is expired at `now`.
    pub(crate) fn is_expired(&self, uploaded_at: SimTime, last_used: SimTime, now: SimTime) -> bool {
        match self {
            LifecycleRule::Keep => false,
            LifecycleRule::AfterUpload(ttl) => now.duration_since(uploaded_at) > *ttl,
            LifecycleRule::AfterLastUse(ttl) => now.duration_since(last_used) > *ttl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_never_expires() {
        assert!(!LifecycleRule::Keep.is_expired(SimTime::ZERO, SimTime::ZERO, SimTime::MAX));
    }

    #[test]
    fn after_upload_ignores_access() {
        let r = LifecycleRule::AfterUpload(SimDuration::from_days(30));
        let up = SimTime::ZERO;
        let accessed = SimTime::ZERO + SimDuration::from_days(29);
        assert!(!r.is_expired(up, accessed, SimTime::ZERO + SimDuration::from_days(30)));
        assert!(r.is_expired(up, accessed, SimTime::ZERO + SimDuration::from_days(31)));
    }

    #[test]
    fn after_last_use_refreshes() {
        let r = LifecycleRule::one_month_after_last_use();
        let up = SimTime::ZERO;
        let used = SimTime::ZERO + SimDuration::from_days(20);
        // 31 days after upload but only 11 after last use: alive.
        assert!(!r.is_expired(up, used, SimTime::ZERO + SimDuration::from_days(31)));
        // 31 days after last use: expired.
        assert!(r.is_expired(up, used, SimTime::ZERO + SimDuration::from_days(52)));
    }
}
