//! The full-semester discrete-event simulation (Fig. 4 and §VII).
//!
//! Every submission runs the real pipeline — client packaging, file
//! server upload, broker queue, worker, container, database — while the
//! event engine advances virtual time, the paper's phase schedule sets
//! the fleet capacity, and the cluster pool bills instance-hours.

use crate::circadian::CircadianModel;
use crate::teams::TeamRoster;
use rai_cluster::{InstanceType, PhaseSchedule, ReactiveAutoscaler, ScaleAction, WorkerPool};
use rai_core::client::PendingJob;
use rai_core::worker::StepEvent;
use rai_core::{Fnv1a, RaiSystem, SubmitMode, SystemConfig};
use rai_sim::{SimDuration, SimTime, Simulation, VirtualClock};
use rai_telemetry::{
    duration_micros, names, GaugeSeries, JobTrace, LogHistogram, MetricsSnapshot, TimeSeries,
};
use rai_store::StoreUsage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Duration;

/// Semester parameters.
#[derive(Clone, Debug)]
pub struct SemesterConfig {
    /// Teams (paper: 58).
    pub teams: usize,
    /// Students (paper: 176).
    pub students: u32,
    /// Project length in days (paper: 5 weeks).
    pub duration_days: u64,
    /// The Fig. 4 reporting window: last N days (paper: 14).
    pub window_days: u64,
    /// RNG seed.
    pub seed: u64,
    /// How the worker fleet is provisioned.
    pub fleet: FleetPolicy,
    /// Arrival model.
    pub arrivals: CircadianModel,
}

/// Fleet provisioning policy for the semester (the elasticity
/// ablation's independent variable).
#[derive(Clone, Debug)]
pub enum FleetPolicy {
    /// The paper's explicit three-phase schedule (§VII).
    PaperSchedule,
    /// A fixed fleet of single-job P2 workers from day 0.
    Fixed(usize),
    /// The reactive queue-depth autoscaler, evaluated every 5 minutes,
    /// paying real provisioning latency on every scale-out.
    Reactive {
        /// Lower bound on live instances.
        min: usize,
        /// Upper bound on live instances.
        max: usize,
    },
}

impl SemesterConfig {
    /// The paper's semester.
    pub fn paper() -> Self {
        SemesterConfig {
            teams: 58,
            students: 176,
            duration_days: 35,
            window_days: 14,
            seed: 2016,
            fleet: FleetPolicy::PaperSchedule,
            arrivals: CircadianModel::paper_calibrated(),
        }
    }

    /// A scaled-down semester for tests: fewer teams, shorter horizon.
    pub fn scaled(teams: usize, days: u64, seed: u64) -> Self {
        let mut arrivals = CircadianModel::paper_calibrated();
        arrivals.horizon_days = days as f64;
        SemesterConfig {
            teams,
            students: (teams * 3) as u32,
            duration_days: days,
            window_days: days.min(14),
            seed,
            fleet: FleetPolicy::PaperSchedule,
            arrivals,
        }
    }

}

/// Semester outputs.
#[derive(Debug)]
pub struct SemesterResult {
    /// Total submissions processed over the whole project.
    pub total_submissions: u64,
    /// Submissions that failed (build errors etc.).
    pub failures: u64,
    /// Hourly submission counts across the whole project.
    pub full_timeline: TimeSeries,
    /// Hourly submission counts over the last `window_days` (Fig. 4).
    pub window_timeline: TimeSeries,
    /// Submissions in the window (paper: 30 782).
    pub window_submissions: u64,
    /// Queue-wait percentiles in seconds over the window (p50/p90/p99),
    /// read from [`SemesterResult::queue_wait`]'s deterministic
    /// log-bucketed histogram.
    pub queue_wait_secs: (f64, f64, f64),
    /// The full queue-wait latency distribution (µs resolution,
    /// byte-identical across same-seed runs).
    pub queue_wait: LogHistogram,
    /// Broker queue depth sampled at every submit/dispatch transition,
    /// bucketed hourly (per-bucket maxima show backpressure peaks).
    pub depth_series: GaugeSeries,
    /// Jobs in flight on the fleet, sampled alongside `depth_series`.
    pub in_flight_series: GaugeSeries,
    /// Per-job causal span trees (submit + every delivery attempt) for
    /// critical-path attribution and Chrome trace export.
    pub traces: Vec<JobTrace>,
    /// File-server usage at the end.
    pub store: StoreUsage,
    /// Fleet cost in cents over the project.
    pub cost_cents: u64,
    /// Final leaderboard.
    pub final_standings: Vec<(String, f64)>,
    /// Total bytes of log traffic published by workers (paper §VIII:
    /// "25GB of logs and meta-data").
    pub log_bytes: u64,
    /// Telemetry snapshot at semester end (job counters, stage
    /// histograms, broker / store / db mirrors, pool-size gauge).
    pub metrics: MetricsSnapshot,
}

impl SemesterResult {
    /// FNV-1a digest of every deterministic output of the run: totals,
    /// hourly timelines, queue-wait percentiles, store accounting,
    /// fleet cost, standings, and log bytes. Same-seed runs must
    /// produce byte-identical fingerprints; `perf_report` commits this
    /// value to `BENCH_perf.json` and CI re-checks it, so wall-clock
    /// optimisations have to be observationally pure.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv1a::new();
        fp.update(&self.total_submissions.to_le_bytes());
        fp.update(&self.failures.to_le_bytes());
        fp.update(&self.window_submissions.to_le_bytes());
        for series in [&self.full_timeline, &self.window_timeline] {
            for count in series.counts() {
                fp.update(&count.to_le_bytes());
            }
        }
        let (p50, p90, p99) = self.queue_wait_secs;
        for p in [p50, p90, p99] {
            fp.update(&p.to_bits().to_le_bytes());
        }
        // The whole latency distribution, not just three quantiles: any
        // scheduling leak that shifts a single queue wait by one
        // microsecond breaks the fingerprint.
        fp.update(self.queue_wait.encode().as_bytes());
        for n in [
            self.store.bytes_stored,
            self.store.bytes_physical,
            self.store.bytes_uploaded,
            self.store.bytes_wire,
            self.store.chunks,
            self.store.chunks_dedup_total,
            self.store.puts,
            self.store.delta_puts,
        ] {
            fp.update(&n.to_le_bytes());
        }
        fp.update(&self.cost_cents.to_le_bytes());
        for (team, secs) in &self.final_standings {
            fp.update(team.as_bytes());
            fp.update(&secs.to_bits().to_le_bytes());
        }
        fp.update(&self.log_bytes.to_le_bytes());
        fp.digest()
    }
}

struct SemState {
    system: RaiSystem,
    creds: HashMap<String, rai_auth::Credentials>,
    pool: WorkerPool,
    schedule: PhaseSchedule,
    policy: FleetPolicy,
    autoscaler: ReactiveAutoscaler,
    roster: TeamRoster,
    rng: StdRng,
    deadline: SimTime,
    window_start: SimTime,
    // Queue of submissions accepted but not yet dispatched: job ids in
    // FIFO order (the broker holds the actual messages).
    waiting: VecDeque<u64>,
    in_flight: usize,
    pending: HashMap<u64, (PendingJob, SimTime)>,
    next_worker: usize,
    // Metrics.
    full_timeline: TimeSeries,
    window_timeline: TimeSeries,
    waits: LogHistogram,
    pressure: Pressure,
    total: u64,
    failures: u64,
}

impl SemState {
    fn capacity(&self, now: SimTime) -> usize {
        match &self.policy {
            FleetPolicy::Fixed(n) => *n,
            FleetPolicy::PaperSchedule => match self.schedule.phase_at(now) {
                Some(p) => p.fleet * p.jobs_per_worker,
                None => 1,
            },
            // Reactive: only instances past their provisioning latency
            // take jobs, one at a time.
            FleetPolicy::Reactive { .. } => self.pool.ready_instances().len(),
        }
    }
}

type Sched<'a> = rai_sim::Scheduler<SemState>;

/// The backpressure series: broker depth and fleet occupancy, bucketed
/// hourly. Sampled at every queue transition, so the buckets hold true
/// per-bucket maxima (a sample *between* transitions can't differ).
struct Pressure {
    depth: GaugeSeries,
    in_flight: GaugeSeries,
}

impl Pressure {
    fn sample(&mut self, now: SimTime, waiting: usize, in_flight: usize) {
        self.depth.record(now, waiting as u64);
        self.in_flight.record(now, in_flight as u64);
    }
}

/// The semester's pop policy over the shared round (DESIGN.md §12):
/// FIFO arrival order, round-robin over the workers, up to the free
/// fleet capacity.
fn dispatch(state: &mut SemState, sched: &mut Sched<'_>) {
    let now = sched.now();
    loop {
        // The broker is FIFO, so the head of `waiting` is what the next
        // worker will pop; at most one job per worker.
        let n_workers = state.system.workers_mut().len();
        let budget = state
            .capacity(now)
            .saturating_sub(state.in_flight)
            .min(state.waiting.len())
            .min(n_workers);
        if budget == 0 {
            return;
        }
        let mut popped = Vec::with_capacity(budget);
        for _ in 0..budget {
            let expect_id = state.waiting.pop_front().expect("bounded by len");
            let wi = state.next_worker % n_workers;
            state.next_worker = state.next_worker.wrapping_add(1);
            let task = state.system.workers_mut()[wi]
                .pop_task()
                .expect("broker held a queued job");
            debug_assert_eq!(task.job_id(), expect_id);
            popped.push((wi, task));
        }
        // Between commits: book the finished job and schedule its
        // worker's release. The tally is dropped unsettled: the event
        // engine owns the clock and, with no fault plan, nothing crashes.
        let _ = state.system.run_round(popped, |event| {
            let StepEvent::Done(outcome) = event else {
                unreachable!("semester jobs neither crash nor idle")
            };
            let (pending, submitted_at) = state
                .pending
                .remove(&outcome.job_id)
                .expect("every queued job has a pending entry");
            state
                .waits
                .record_micros(duration_micros(now.duration_since(submitted_at)));
            if !outcome.success {
                state.failures += 1;
            }
            // Drain the log stream so the ephemeral topic is GC'd.
            let _ = pending.wait(Duration::from_millis(50));
            state.in_flight += 1;
            state.pressure.sample(now, state.waiting.len(), state.in_flight);
            sched.after(outcome.service_time, |state: &mut SemState, sched: &mut Sched<'_>| {
                state.in_flight -= 1;
                state.pressure.sample(sched.now(), state.waiting.len(), state.in_flight);
                dispatch(state, sched);
            });
            ControlFlow::Continue(())
        });
    }
}

fn submit_event(state: &mut SemState, sched: &mut Sched<'_>, team_idx: usize, mode: SubmitMode) {
    let now = sched.now();
    let team = state.roster.teams[team_idx].clone();
    let project = match mode {
        SubmitMode::Run => team.project_at(now, state.deadline, &mut state.rng),
        SubmitMode::Submit => team.final_project(),
    };
    // Team credentials were registered up front.
    let Some(creds) = state.creds.get(&team.name).cloned() else {
        return;
    };
    let Ok(pending) = state.system.begin_submit(&creds, &project, mode) else {
        state.failures += 1;
        return;
    };
    state.total += 1;
    state.full_timeline.record(now);
    if now >= state.window_start {
        state.window_timeline.record(now);
    }
    state.waiting.push_back(pending.job_id);
    state.pending.insert(pending.job_id, (pending, now));
    dispatch(state, sched);
    // Sample after dispatch: the series holds the *resting* depth, so a
    // non-zero bucket means capacity was saturated, not merely touched.
    state.pressure.sample(now, state.waiting.len(), state.in_flight);
}

/// Run the semester.
pub fn run_semester(config: &SemesterConfig) -> SemesterResult {
    let clock = VirtualClock::new();
    let mut system = RaiSystem::with_clock(
        SystemConfig {
            workers: 32,
            rate_limit: None, // spacing is enforced by the arrival model
            seed: config.seed,
            ..Default::default()
        },
        clock.clone(),
    );
    let roster = TeamRoster::generate(config.teams, config.students, config.seed);
    let mut creds_by_team = HashMap::new();
    for team in &roster.teams {
        let creds = system.register_team(&team.name, &[]);
        creds_by_team.insert(team.name.clone(), creds);
    }

    let deadline = SimTime::ZERO + SimDuration::from_days(config.duration_days);
    let window_start = deadline - SimDuration::from_days(config.window_days);
    let pool = WorkerPool::new(clock.clone());
    {
        let pool = pool.clone();
        system.telemetry().register_collector(move |reg| {
            reg.gauge(names::AUTOSCALER_POOL_SIZE, &[])
                .set(pool.live_count() as f64);
        });
    }
    let schedule = PhaseSchedule::paper_semester();

    // Pre-sample every team's submission instants.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA11CE);
    let mut events: Vec<(SimTime, usize, SubmitMode)> = Vec::new();
    for (i, team) in roster.teams.iter().enumerate() {
        for t in config.arrivals.sample_team_events(
            team.activity,
            SimTime::ZERO,
            deadline,
            SimDuration::from_secs(30),
            &mut rng,
        ) {
            events.push((t, i, SubmitMode::Run));
        }
        // Final submission in the last day, after their last dev run.
        let final_at = deadline - SimDuration::from_hours(1 + (i as u64 % 20));
        events.push((final_at, i, SubmitMode::Submit));
    }

    let state = SemState {
        system,
        creds: creds_by_team,
        pool: pool.clone(),
        schedule: schedule.clone(),
        policy: config.fleet.clone(),
        autoscaler: match config.fleet {
            FleetPolicy::Reactive { min, max } => {
                ReactiveAutoscaler::new(min, max, 2.0, SimDuration::from_mins(10))
            }
            _ => ReactiveAutoscaler::paper_bounds(),
        },
        roster,
        rng: StdRng::seed_from_u64(config.seed ^ 0xF00D),
        deadline,
        window_start,
        waiting: VecDeque::new(),
        in_flight: 0,
        pending: HashMap::new(),
        next_worker: 0,
        full_timeline: TimeSeries::new(SimTime::ZERO, SimDuration::HOUR),
        window_timeline: TimeSeries::new(window_start, SimDuration::HOUR),
        waits: LogHistogram::new(),
        pressure: Pressure {
            depth: GaugeSeries::new(SimTime::ZERO, SimDuration::HOUR),
            in_flight: GaugeSeries::new(SimTime::ZERO, SimDuration::HOUR),
        },
        total: 0,
        failures: 0,
    };

    let mut sim = Simulation::with_clock(state, clock.clone());

    // Fleet provisioning per policy (the billing pool tracks cost; the
    // reactive policy also drives capacity through it).
    match config.fleet {
        FleetPolicy::PaperSchedule => {
            for phase in &schedule.phases {
                let fleet = phase.fleet;
                let itype: &'static InstanceType = phase.itype;
                sim.scheduler().at(phase.starts_at, move |state: &mut SemState, _sched: &mut Sched<'_>| {
                    let live = state.pool.live_count();
                    if fleet > live {
                        state.pool.launch(itype, fleet - live);
                    } else if live > fleet {
                        state.pool.terminate_n(live - fleet);
                    }
                });
            }
        }
        FleetPolicy::Fixed(fleet) => {
            sim.scheduler().at(SimTime::ZERO, move |state: &mut SemState, _| {
                state.pool.launch(InstanceType::p2(), fleet);
            });
        }
        FleetPolicy::Reactive { .. } => {
            // Periodic control loop: observe queue + fleet, scale, and
            // retry dispatch (new instances may just have become ready).
            let control = |state: &mut SemState, sched: &mut Sched<'_>| {
                let now = sched.now();
                let action = state.autoscaler.decide(
                    now,
                    state.waiting.len(),
                    state.pool.live_count(),
                );
                match action {
                    ScaleAction::Out(n) => {
                        state.pool.launch(InstanceType::p2(), n);
                        state
                            .system
                            .telemetry()
                            .counter(names::AUTOSCALER_SCALE_EVENTS_TOTAL, &[("direction", "out")])
                            .inc();
                    }
                    ScaleAction::In(n) => {
                        // Never terminate busier than idle capacity.
                        let ready = state.pool.ready_instances().len();
                        let idle = ready.saturating_sub(state.in_flight);
                        if state.pool.terminate_n(n.min(idle)) > 0 {
                            state
                                .system
                                .telemetry()
                                .counter(names::AUTOSCALER_SCALE_EVENTS_TOTAL, &[("direction", "in")])
                                .inc();
                        }
                    }
                    ScaleAction::Hold => {}
                }
                dispatch(state, sched);
            };
            sim.scheduler().at(SimTime::ZERO, control);
            sim.scheduler()
                .every(SimDuration::from_mins(5), deadline, control);
        }
    }

    for (t, team_idx, mode) in events {
        sim.scheduler().at(t, move |state: &mut SemState, sched: &mut Sched<'_>| {
            submit_event(state, sched, team_idx, mode);
        });
    }

    sim.run();
    let state = sim.into_state();
    // Terminate the fleet at semester end so billing stops.
    state.pool.terminate_n(usize::MAX / 2);

    let queue_wait_secs = (
        state.waits.quantile_micros(0.50) as f64 / 1e6,
        state.waits.quantile_micros(0.90) as f64 / 1e6,
        state.waits.quantile_micros(0.99) as f64 / 1e6,
    );
    let standings = state.system.rankings().standings();
    // Dogfood the database's aggregation pipeline for the log tally.
    let log_bytes = {
        use rai_db::aggregate::{aggregate, Accumulator, Stage};
        let coll = state.system.db().collection("submissions");
        let rows = aggregate(
            &coll.read(),
            &[Stage::Group {
                by: None,
                fields: vec![("bytes".into(), Accumulator::Sum("log_bytes".into()))],
            }],
        );
        rows.first()
            .and_then(|r| r.get("bytes"))
            .and_then(rai_db::Value::as_i64)
            .unwrap_or(0) as u64
    };
    SemesterResult {
        total_submissions: state.total,
        failures: state.failures,
        window_submissions: state.window_timeline.total(),
        full_timeline: state.full_timeline,
        window_timeline: state.window_timeline,
        queue_wait_secs,
        queue_wait: state.waits,
        depth_series: state.pressure.depth,
        in_flight_series: state.pressure.in_flight,
        // The snapshot first: its resident-traces gauge reads the store
        // the next line empties. The course is over, so its traces are
        // moved out, not copied.
        metrics: state.system.telemetry().snapshot(),
        traces: state.system.telemetry().take_job_traces(),
        store: state.system.store().usage(),
        cost_cents: state.pool.stats().cost_cents,
        final_standings: standings,
        log_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_semester_end_to_end() {
        // 6 teams, 10 days: a few hundred submissions through the full
        // pipeline.
        let result = run_semester(&SemesterConfig::scaled(6, 10, 11));
        assert!(result.total_submissions > 50, "got {}", result.total_submissions);
        assert_eq!(result.failures, 0, "no submission should fail");
        assert_eq!(result.final_standings.len(), 6, "every team ranked");
        assert_eq!(
            result.full_timeline.total(),
            result.total_submissions,
            "every submission counted once"
        );
        // Store accounted for uploads and build outputs.
        assert!(result.store.puts >= 2 * result.total_submissions);
        assert!(result.cost_cents > 0);
        // Telemetry mirrors the pipeline: one JOBS_TOTAL count per
        // submission and non-empty stage histograms.
        assert_eq!(
            result.metrics.counter_total(names::JOBS_TOTAL),
            result.total_submissions
        );
        assert!(!result.metrics.histograms_named(names::JOB_STAGE_SECONDS).is_empty());
        assert!(result.metrics.gauge(names::AUTOSCALER_POOL_SIZE, &[]).is_some());
    }

    #[test]
    fn deadline_ramp_visible_in_timeline() {
        let result = run_semester(&SemesterConfig::scaled(6, 10, 13));
        let counts = result.full_timeline.counts();
        let n = counts.len();
        let first_half: u64 = counts[..n / 2].iter().sum();
        let second_half: u64 = counts[n / 2..].iter().sum();
        assert!(
            second_half > first_half * 2,
            "expected late-half dominance: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn reactive_policy_scales_and_completes() {
        let mut cfg = SemesterConfig::scaled(6, 8, 23);
        cfg.fleet = FleetPolicy::Reactive { min: 1, max: 10 };
        let result = run_semester(&cfg);
        assert!(result.total_submissions > 50);
        assert_eq!(result.failures, 0);
        assert_eq!(result.final_standings.len(), 6);
        assert!(result.cost_cents > 0, "autoscaled fleet still bills");
    }

    #[test]
    fn fixed_fleet_ablation_waits_longer() {
        let mut starved_cfg = SemesterConfig::scaled(8, 8, 17);
        starved_cfg.fleet = FleetPolicy::Fixed(1);
        let starved = run_semester(&starved_cfg);
        let elastic = run_semester(&SemesterConfig::scaled(8, 8, 17));
        // One worker for eight bursty teams waits far longer at p99.
        assert!(
            starved.queue_wait_secs.2 >= elastic.queue_wait_secs.2,
            "starved p99 {:?} vs elastic {:?}",
            starved.queue_wait_secs,
            elastic.queue_wait_secs
        );
    }
}
