//! The discrete-event engine.
//!
//! An event calendar (binary heap keyed on `(time, sequence)`) of boxed
//! closures over a user-supplied state type `S`. Events scheduled at the
//! same instant fire in scheduling order, which keeps simulations
//! deterministic. Events may schedule further events.
//!
//! The engine deliberately stays single-threaded: RAI's *modelled*
//! concurrency (many students, many workers) is expressed as interleaved
//! events over virtual time, while the *host* concurrency of the live
//! data-plane components (broker, store) is tested separately with real
//! threads in their own crates.

use crate::clock::VirtualClock;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct ScheduledEvent<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

impl<S> PartialEq for ScheduledEvent<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for ScheduledEvent<S> {}
impl<S> PartialOrd for ScheduledEvent<S> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for ScheduledEvent<S> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with sequence number as a deterministic tie-break.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The scheduling half of the engine, passed to every firing event so it
/// can enqueue follow-up work.
pub struct Scheduler<S> {
    heap: BinaryHeap<ScheduledEvent<S>>,
    next_seq: u64,
    now: SimTime,
    clock: VirtualClock,
}

impl<S> Scheduler<S> {
    fn new(clock: VirtualClock) -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: clock.now(),
            clock,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shared clock driven by this engine.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past
    /// clamps to "now" (the event fires next, after already-queued events
    /// at the current instant).
    pub fn at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            at,
            seq,
            run: Box::new(f),
        });
    }

    /// Schedule `f` to run `after` from now.
    pub fn after<F>(&mut self, after: SimDuration, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.at(self.now + after, f);
    }

    /// Schedule `f` to run every `interval` starting one interval from
    /// now, until (and excluding) `until` — the pattern control loops
    /// (autoscalers, lifecycle sweeps) use.
    pub fn every<F>(&mut self, interval: SimDuration, until: SimTime, f: F)
    where
        F: FnMut(&mut S, &mut Scheduler<S>) + Clone + 'static,
    {
        assert!(!interval.is_zero(), "recurring interval must be positive");
        let next = self.now + interval;
        if next >= until {
            return;
        }
        self.at(next, move |state: &mut S, sched: &mut Scheduler<S>| {
            let mut f = f;
            f(state, sched);
            sched.every(interval, until, f);
        });
    }
}

/// A discrete-event simulation over a state `S`.
pub struct Simulation<S> {
    state: S,
    sched: Scheduler<S>,
    executed: u64,
}

impl<S> Simulation<S> {
    /// Create a simulation with its own fresh clock.
    pub fn new(state: S) -> Self {
        Self::with_clock(state, VirtualClock::new())
    }

    /// Create a simulation driving an externally shared clock, so that
    /// clock-reading components (store lifecycle, rate limiters) observe
    /// simulated time.
    pub fn with_clock(state: S, clock: VirtualClock) -> Self {
        Simulation {
            state,
            sched: Scheduler::new(clock),
            executed: 0,
        }
    }

    /// Immutable access to the simulated state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The scheduler, for seeding initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<S> {
        &mut self.sched
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    fn step(&mut self, horizon: SimTime) -> bool {
        if self.sched.heap.peek().is_none_or(|top| top.at > horizon) {
            return false;
        }
        let ev = self.sched.heap.pop().expect("peeked event must pop");
        self.sched.now = ev.at;
        self.sched.clock.advance_to(ev.at);
        (ev.run)(&mut self.state, &mut self.sched);
        self.executed += 1;
        true
    }

    /// Run until the event calendar is empty. Returns the number of
    /// events executed.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Run events with timestamps `<= horizon`; the clock ends at the last
    /// executed event (or `horizon` if nothing was pending beyond it).
    /// Returns the number of events executed by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let before = self.executed;
        while self.step(horizon) {}
        if horizon != SimTime::MAX && self.sched.now < horizon {
            self.sched.now = horizon;
            self.sched.clock.advance_to(horizon);
        }
        self.executed - before
    }

    /// Consume the simulation, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.scheduler().at(SimTime::from_secs(3), |s: &mut Vec<u32>, _| s.push(3));
        sim.scheduler().at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        sim.scheduler().at(SimTime::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        sim.run();
        assert_eq!(sim.state(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.scheduler().at(SimTime::from_secs(1), move |s: &mut Vec<u32>, _| s.push(i));
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_reschedule() {
        // A self-rescheduling "process": counts up once per second for 5 ticks.
        fn tick(count: &mut u32, sched: &mut Scheduler<u32>) {
            *count += 1;
            if *count < 5 {
                sched.after(SimDuration::SECOND, tick);
            }
        }
        let mut sim = Simulation::new(0u32);
        sim.scheduler().after(SimDuration::SECOND, tick);
        sim.run();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn recurring_schedule_ticks_until_horizon() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.scheduler().every(
            SimDuration::from_secs(10),
            SimTime::from_secs(60),
            |log: &mut Vec<u64>, sched| log.push(sched.now().as_secs()),
        );
        sim.run();
        // Fires at 10..50 (60 is excluded).
        assert_eq!(sim.state(), &vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn recurring_schedule_with_zero_window_never_fires() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler()
            .every(SimDuration::from_secs(10), SimTime::from_secs(5), |n: &mut u32, _| {
                *n += 1;
            });
        sim.run();
        assert_eq!(*sim.state(), 0);
    }

    #[test]
    fn run_until_horizon() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler().at(SimTime::from_secs(1), |s: &mut u32, _| *s += 1);
        sim.scheduler().at(SimTime::from_secs(10), |s: &mut u32, _| *s += 100);
        let ran = sim.run_until(SimTime::from_secs(5));
        assert_eq!(ran, 1);
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run();
        assert_eq!(*sim.state(), 101);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.scheduler().at(SimTime::from_secs(5), |s: &mut Vec<u64>, sched| {
            // "Yesterday" clamps to now.
            sched.at(SimTime::from_secs(1), |s: &mut Vec<u64>, sched2| {
                s.push(sched2.now().as_secs());
            });
            s.push(sched.now().as_secs());
        });
        sim.run();
        assert_eq!(sim.state(), &vec![5, 5]);
    }

    #[test]
    fn shared_clock_tracks_engine() {
        let clock = VirtualClock::new();
        let mut sim = Simulation::with_clock((), clock.clone());
        sim.scheduler().at(SimTime::from_secs(42), |_, _| {});
        sim.run();
        assert_eq!(clock.now(), SimTime::from_secs(42));
    }
}
