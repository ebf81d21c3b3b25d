//! The submission-arrival model behind Fig. 4.
//!
//! "Students made a significant number of submissions during the last
//! week of the course which followed their circadian rhythm." The
//! arrival process is a non-homogeneous Poisson process per team:
//!
//! ```text
//! λ_team(t) = base · activity_team · diurnal(hour of day) · ramp(day)
//! ```
//!
//! sampled by thinning, then post-processed with the client's 30-second
//! minimum spacing. `base` is calibrated so a 58-team class produces
//! ≈30 800 submissions over the last 14 days, the paper's count.

use rand::rngs::StdRng;
use rand::Rng;
use rai_sim::{SimDuration, SimTime};

/// Relative intensity per hour of day (0–23), the epoch being
/// midnight. Students' day: quiet overnight, climbing through the
/// afternoon, peaking 21:00–01:00 (the classic pre-deadline rhythm
/// visible in the paper's Fig. 4).
const DIURNAL: [f64; 24] = [
    0.75, 0.55, 0.35, 0.20, 0.10, 0.08, 0.10, 0.18, // 00-07
    0.30, 0.45, 0.60, 0.72, 0.80, 0.85, 0.90, 0.95, // 08-15
    1.00, 1.00, 0.95, 0.95, 1.00, 1.10, 1.15, 1.00, // 16-23
];

/// Deadline-ramp exponent: intensity scales with
/// `(day / horizon)^RAMP_POWER` plus a floor.
const RAMP_POWER: f64 = 3.0;

/// Floor on the ramp (early-period activity never hits zero).
const RAMP_FLOOR: f64 = 0.08;

/// The arrival-intensity model, calibrated to the paper's
/// last-two-weeks volume: 58 teams × 14 days ⇒ ≈30.8k submissions,
/// with a late-evening peak and a 4–9 am trough.
#[derive(Clone, Debug)]
pub struct CircadianModel {
    /// Project length in days (the ramp peaks at the end).
    pub horizon_days: f64,
    /// Base events/hour for an `activity = 1` team at diurnal = 1,
    /// ramp = 1.
    pub base_per_hour: f64,
}

impl CircadianModel {
    /// The paper's 35-day project.
    pub fn paper_calibrated() -> Self {
        CircadianModel { horizon_days: 35.0, base_per_hour: 3.6 }
    }

    /// Deadline ramp at an absolute time.
    pub(crate) fn ramp(&self, t: SimTime) -> f64 {
        let day = t.as_millis() as f64 / SimDuration::DAY.as_millis() as f64;
        let x = (day / self.horizon_days).clamp(0.0, 1.0);
        RAMP_FLOOR + (1.0 - RAMP_FLOOR) * x.powf(RAMP_POWER)
    }

    /// Intensity (events/hour) for a team at `t`.
    pub(crate) fn intensity(&self, activity: f64, t: SimTime) -> f64 {
        self.base_per_hour * activity * DIURNAL[t.hour_of_day() as usize] * self.ramp(t)
    }

    /// Upper bound on intensity for thinning.
    fn intensity_max(&self, activity: f64) -> f64 {
        let d = DIURNAL.iter().cloned().fold(0.0f64, f64::max);
        self.base_per_hour * activity * d
    }

    /// Sample one team's submission instants in `[start, end)` by
    /// Poisson thinning, enforcing the client-side minimum gap.
    pub fn sample_team_events(
        &self,
        activity: f64,
        start: SimTime,
        end: SimTime,
        min_gap: SimDuration,
        rng: &mut StdRng,
    ) -> Vec<SimTime> {
        let lambda_max = self.intensity_max(activity).max(1e-9);
        let mut events = Vec::new();
        let mut t = start;
        let mut last_accepted: Option<SimTime> = None;
        loop {
            // Exponential(λmax) inter-arrival, in hours.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let dt_hours = -u.ln() / lambda_max;
            t += SimDuration::from_secs_f64(dt_hours * 3600.0);
            if t >= end {
                break;
            }
            let accept = rng.gen_range(0.0..1.0) < self.intensity(activity, t) / lambda_max;
            if !accept {
                continue;
            }
            if let Some(last) = last_accepted {
                if t.duration_since(last) < min_gap {
                    // The client refuses; the student retries right after
                    // the window opens.
                    t = last + min_gap;
                    if t >= end {
                        break;
                    }
                }
            }
            events.push(t);
            last_accepted = Some(t);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn window() -> (SimTime, SimTime) {
        // The Fig. 4 window: days 21–35 of a 35-day project.
        (
            SimTime::ZERO + SimDuration::from_days(21),
            SimTime::ZERO + SimDuration::from_days(35),
        )
    }

    #[test]
    fn sampled_volume_matches_expectation() {
        let m = CircadianModel::paper_calibrated();
        let (start, end) = window();
        let mut rng = StdRng::seed_from_u64(9);
        let mut total = 0usize;
        for i in 0..58 {
            let activity = 0.4 + 1.5 * (i as f64 / 57.0); // mean 1.15
            total += m
                .sample_team_events(activity, start, end, SimDuration::from_secs(30), &mut rng)
                .len();
        }
        assert!(
            (24_000..39_000).contains(&total),
            "sampled {total}, paper reports 30 782"
        );
    }

    #[test]
    fn ramp_increases_toward_deadline() {
        let m = CircadianModel::paper_calibrated();
        let early = m.ramp(SimTime::ZERO + SimDuration::from_days(5));
        let late = m.ramp(SimTime::ZERO + SimDuration::from_days(34));
        assert!(late > early * 5.0, "early={early} late={late}");
        assert!(early >= RAMP_FLOOR);
    }

    #[test]
    fn diurnal_trough_before_dawn() {
        let m = CircadianModel::paper_calibrated();
        let peak: f64 = DIURNAL.iter().cloned().fold(0.0, f64::max);
        let trough = DIURNAL[5];
        assert!(trough < peak / 5.0);
        // 10 pm busier than 6 am on the same day.
        let day30 = SimTime::ZERO + SimDuration::from_days(30);
        let night = m.intensity(1.0, day30 + SimDuration::from_hours(22));
        let dawn = m.intensity(1.0, day30 + SimDuration::from_hours(6));
        assert!(night > dawn * 3.0);
    }

    #[test]
    fn min_gap_is_enforced() {
        let m = CircadianModel::paper_calibrated();
        let (start, end) = window();
        let mut rng = StdRng::seed_from_u64(4);
        let events = m.sample_team_events(5.0, start, end, SimDuration::from_secs(30), &mut rng);
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(
                pair[1].duration_since(pair[0]) >= SimDuration::from_secs(30),
                "rate limit violated: {:?}",
                pair
            );
        }
    }

    #[test]
    fn events_are_sorted_and_within_window() {
        let m = CircadianModel::paper_calibrated();
        let (start, end) = window();
        let mut rng = StdRng::seed_from_u64(2);
        let events = m.sample_team_events(1.0, start, end, SimDuration::from_secs(30), &mut rng);
        for pair in events.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(events.iter().all(|&t| t >= start && t < end));
    }
}
