//! Property tests for the discrete-event engine.
//!
//! The statistics property tests moved to `rai-telemetry` along with
//! the stats toolkit itself.

use proptest::prelude::*;
use rai_sim::{SimTime, Simulation, VirtualClock};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events always fire in non-decreasing time order, regardless of
    /// scheduling order, and every event fires exactly once.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 0..60)) {
        let mut sim = Simulation::with_clock(Vec::<u64>::new(), VirtualClock::new());
        for &t in &times {
            sim.scheduler().at(SimTime::from_millis(t), move |log: &mut Vec<u64>, _| {
                log.push(t);
            });
        }
        sim.run();
        let log = sim.into_state();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(log, sorted);
    }

    /// The clock never goes backwards while running.
    #[test]
    fn clock_is_monotone(times in prop::collection::vec(0u64..100_000, 1..40)) {
        let mut sim = Simulation::with_clock(Vec::<SimTime>::new(), VirtualClock::new());
        for &t in &times {
            sim.scheduler().at(SimTime::from_millis(t), |log: &mut Vec<SimTime>, sched| {
                log.push(sched.now());
            });
        }
        sim.run();
        let observed = sim.into_state();
        for w in observed.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}
