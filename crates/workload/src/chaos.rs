//! The chaos semester: a fault-injected workload proving the
//! no-lost-submissions guarantee.
//!
//! A scaled course runs with a deterministic [`FaultPlan`] active —
//! store/db/broker faults, worker crashes and stalls at named pipeline
//! points, poison jobs that can never complete, and instance deaths
//! mid-run — and the driver then audits the invariant the paper's
//! architecture is meant to provide: **every accepted submission
//! reaches a terminal state exactly once** — either one terminal row in
//! the submissions collection or one appearance on the dead-letter
//! topic — with nothing lost, nothing double-counted, and the whole run
//! byte-identical across same-seed executions.

use rai_auth::Credentials;
use rai_broker::{dead_letter_topic, Subscription};
use rai_cluster::{InstanceId, InstanceType, WorkerPool};
use rai_core::protocol::{routes, JobRequest};
use rai_core::{Fnv1a, PendingJob, ProjectDir, RaiSystem, SubmitMode, SystemConfig};
use rai_faults::{FaultKind, FaultPlan};
use rai_sim::{SimDuration, SimTime, VirtualClock};
use rai_telemetry::{JobTrace, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{ControlFlow, Range};

/// Chaos-run parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Teams submitting.
    pub teams: usize,
    /// Submission rounds; each round every team submits once.
    pub rounds: usize,
    /// Sim-time gap between rounds (the arrival spacing — what lets
    /// the run reach the plan's instance-death times).
    pub arrival_gap: SimDuration,
    /// Worker fleet size (must exceed the plan's instance deaths).
    pub workers: usize,
    /// Per-message delivery cap before dead-lettering.
    pub broker_attempts: u32,
    /// Seed for teams, projects, and the fault plan.
    pub seed: u64,
    /// The fault plan to execute.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// The acceptance profile: ≥5% worker crash rate, ≥2% store/db
    /// fault rate, poison jobs, and an instance death at six hours —
    /// with enough rounds to get there.
    pub fn acceptance(seed: u64) -> Self {
        ChaosConfig {
            teams: 6,
            rounds: 160,
            arrival_gap: SimDuration::from_mins(3),
            workers: 4,
            broker_attempts: 8,
            seed,
            plan: FaultPlan::chaos(seed),
        }
    }

    /// A fast profile for unit tests: smaller scale, earlier death.
    pub fn quick(seed: u64) -> Self {
        let mut plan = FaultPlan::chaos(seed);
        plan.instance_deaths = vec![SimDuration::from_mins(8)];
        plan.poison_every = Some(13);
        ChaosConfig {
            teams: 4,
            rounds: 12,
            arrival_gap: SimDuration::from_mins(1),
            workers: 3,
            broker_attempts: 6,
            seed,
            plan,
        }
    }

    /// The deployment the course runs on (in-memory; the restart-resume
    /// scenario adds its durability settings).
    pub(crate) fn system_config(&self) -> SystemConfig {
        SystemConfig {
            workers: self.workers,
            rate_limit: None,
            seed: self.seed,
            broker_attempts: self.broker_attempts,
            fault_plan: Some(self.plan.clone()),
            ..Default::default()
        }
    }

    /// The course's team names, in registration order.
    pub(crate) fn team_names(&self) -> impl Iterator<Item = String> {
        (0..self.teams).map(|i| format!("chaos-team-{i:02}"))
    }
}

/// Audited outputs of a chaos run.
#[derive(Debug)]
pub struct ChaosResult {
    /// Job ids the system accepted (client `begin_submit` returned Ok).
    pub accepted: Vec<u64>,
    /// Job ids the client was *told* failed to submit (visible errors,
    /// not losses).
    pub rejected: u64,
    /// Job ids with a terminal row in the submissions collection.
    pub terminal: Vec<u64>,
    /// Job ids that left the queue through the dead-letter topic.
    pub dead_lettered: Vec<u64>,
    /// Job ids with more than one submissions row (must be empty).
    pub duplicated: Vec<u64>,
    /// Accepted ids with neither a terminal row nor a dead-letter
    /// appearance (must be empty).
    pub lost: Vec<u64>,
    /// Worker instances that died mid-run.
    pub instances_failed: usize,
    /// Injected-fault counts by kind label.
    pub injected: Vec<(String, u64)>,
    /// Final leaderboard.
    pub standings: Vec<(String, f64)>,
    /// FNV-1a digest of the terminal database state + dead-letter
    /// order: byte-identical across same-seed runs.
    pub fingerprint: u64,
    /// Telemetry snapshot at run end.
    pub metrics: MetricsSnapshot,
    /// Per-job causal span trees. Crash-redelivered jobs carry one
    /// subtree per delivery attempt (non-final attempts are the wasted
    /// work the critical-path extractor charges to `retry-wait`).
    pub traces: Vec<JobTrace>,
    /// File-server usage at run end (dedup ratios must hold under
    /// faults too — crash-redelivered uploads land on the same chunks).
    pub store: rai_store::StoreUsage,
}

impl ChaosResult {
    /// The no-lost-submissions guarantee, as one checkable statement.
    pub fn verify(&self) -> Result<(), String> {
        if !self.lost.is_empty() {
            return Err(format!("lost submissions: {:?}", self.lost));
        }
        if !self.duplicated.is_empty() {
            return Err(format!("double-counted submissions: {:?}", self.duplicated));
        }
        let accounted = self.terminal.len() + self.dead_lettered.len();
        if accounted < self.accepted.len() {
            return Err(format!(
                "{} accepted but only {} accounted for",
                self.accepted.len(),
                accounted
            ));
        }
        Ok(())
    }
}

/// One life of the round-structured course, shared by [`run_chaos`]
/// (in-memory deployment, never killed) and the restart-resume
/// scenario (`crate::recovery`: durable deployment, one `Course` per
/// life of the process) — so "recovered run equals uninterrupted run"
/// compares the same loop and the same audit.
///
/// Field order is drop order: a kill drops the log subscriptions, then
/// the audit tap, then the deployment.
pub(crate) struct Course<'a> {
    config: &'a ChaosConfig,
    /// Log subscriptions, kept alive until the end so late frames from
    /// redelivered attempts land somewhere.
    pendings: Vec<PendingJob>,
    /// Audit tap on the dead-letter topic.
    dead_sub: Subscription,
    pub system: RaiSystem,
    /// A billing pool mirroring the worker fleet, so instance deaths
    /// show up in cost and failure accounting.
    pub pool: WorkerPool,
    instance_ids: Vec<InstanceId>,
    alive: Vec<bool>,
    /// Scheduled instance deaths still to come.
    pub deaths: VecDeque<SimTime>,
    /// Job ids the system accepted (client `begin_submit` returned Ok).
    pub accepted: Vec<u64>,
    /// Submit errors after the client's bounded retries: *visible*
    /// failures, not lost submissions.
    pub rejected: u64,
}

impl<'a> Course<'a> {
    /// Tap the dead-letter topic (before any job can reach it) and
    /// provision the fleet; the plan's instance deaths count from the
    /// moment the fleet is up.
    pub fn deploy(config: &'a ChaosConfig, system: RaiSystem) -> Self {
        let dead_sub = system
            .broker()
            .subscribe(&dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL), "audit");
        let clock = system.clock();
        let pool = WorkerPool::new(clock.clone());
        let instance_ids = pool.launch(InstanceType::p2(), config.workers);
        clock.advance(InstanceType::p2().provision_latency);
        let start = clock.now();
        Course {
            config,
            pendings: Vec::new(),
            dead_sub,
            pool,
            instance_ids,
            alive: vec![true; config.workers],
            deaths: config.plan.instance_deaths.iter().map(|d| start + *d).collect(),
            accepted: Vec::new(),
            rejected: 0,
            system,
        }
    }

    /// Register the course's teams, in the order recovery re-registers
    /// them.
    pub fn register_teams(&mut self) -> Vec<Credentials> {
        self.config
            .team_names()
            .map(|name| self.system.register_team(&name, &[]))
            .collect()
    }

    /// Kill fleet instances whose scheduled death time has passed: the
    /// pool stops billing them, their worker releases its claims (the
    /// un-acked job redelivers elsewhere) and stops taking work.
    fn apply_due_deaths(&mut self) {
        while let Some(&at) = self.deaths.front() {
            if self.system.clock().now() < at {
                break;
            }
            self.deaths.pop_front();
            let Some(victim) = self.alive.iter().position(|a| *a) else { continue };
            self.alive[victim] = false;
            self.pool.fail(self.instance_ids[victim]);
            self.system.workers_mut()[victim].crash_recover();
            if let Some(inj) = self.system.fault_injector() {
                inj.note_injected(FaultKind::InstanceDeath);
            }
        }
    }

    /// One arrival gap later, every team submits once.
    pub fn submit_round(&mut self, creds: &[Credentials], round: usize) {
        let config = self.config;
        self.system.clock().advance(config.arrival_gap);
        self.apply_due_deaths();
        for (i, cred) in creds.iter().enumerate() {
            // Vary the project per (team, round) so runtimes differ
            // deterministically.
            let ms = 400.0 + ((config.seed ^ (round as u64) << 8 ^ i as u64) % 900) as f64;
            let project = ProjectDir::cuda_project_with_perf(ms, 0.92, 1024).with_final_artifacts();
            let mode = if round == config.rounds - 1 { SubmitMode::Submit } else { SubmitMode::Run };
            match self.system.begin_submit(cred, &project, mode) {
                Ok(pending) => {
                    self.accepted.push(pending.job_id);
                    self.pendings.push(pending);
                }
                Err(_) => self.rejected += 1,
            }
        }
    }

    /// Drive every live worker until none makes progress, one settled
    /// round at a time: deaths land at the round boundary, then each
    /// live worker pops at most one job, in worker order. With
    /// `kill_after = Some(n)` the process dies once `n` jobs have
    /// committed — between two commits, mid-queue, claims and all —
    /// unless the queue drains first.
    pub fn drive(&mut self, kill_after: Option<u64>) {
        let kill_due = |commits: u64| kill_after.is_some_and(|n| commits >= n);
        let mut commits = 0;
        while !kill_due(commits) {
            self.apply_due_deaths();
            let alive = &self.alive;
            let popped: Vec<_> = self
                .system
                .workers_mut()
                .iter_mut()
                .enumerate()
                .filter(|(wi, _)| alive[*wi])
                .filter_map(|(wi, w)| w.pop_task().map(|task| (wi, task)))
                .collect();
            if popped.is_empty() {
                return;
            }
            let tally = self.system.run_round(popped, |_| {
                commits += 1;
                if kill_due(commits) { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
            });
            self.system.settle(tally);
        }
    }

    /// Submit and fully drive each of `rounds`. Round boundaries are
    /// quiesced points: compact the logs if they have outgrown their
    /// last snapshot, so a later kill recovers from snapshot + tail
    /// instead of the full history (a no-op without a WAL).
    pub fn run_rounds(&mut self, creds: &[Credentials], rounds: Range<usize>) {
        for round in rounds {
            self.submit_round(creds, round);
            self.drive(None);
            self.system.maybe_compact();
        }
    }

    /// Final drain — anything still queued (e.g. claims released by
    /// the last instance death) runs to completion — then the
    /// terminal-state audit.
    pub fn finish(&mut self) -> AuditOutcome {
        self.drive(None);
        self.system.sync_wals();
        self.pendings.clear();
        // Dead letters, in arrival order. At-least-once re-publish can
        // (rarely) dead-letter the same job in both lives of a claim;
        // the audit counts the first appearance.
        let mut dead_lettered = Vec::new();
        while let Some(msg) = self.dead_sub.try_recv() {
            if let Some(req) = JobRequest::decode(&msg.body_str()) {
                if !dead_lettered.contains(&req.job_id) {
                    dead_lettered.push(req.job_id);
                }
            }
            self.dead_sub.ack(msg.id);
        }
        audit_terminal_state(&self.system, &self.accepted, dead_lettered)
    }
}

/// Row/dead-letter accounting plus the run fingerprint.
pub(crate) struct AuditOutcome {
    pub terminal: Vec<u64>,
    pub dead_lettered: Vec<u64>,
    pub duplicated: Vec<u64>,
    pub lost: Vec<u64>,
    pub standings: Vec<(String, f64)>,
    pub fingerprint: u64,
}

fn audit_terminal_state(
    system: &RaiSystem,
    accepted: &[u64],
    dead_lettered: Vec<u64>,
) -> AuditOutcome {
    let mut rows_per_id: BTreeMap<u64, u64> = BTreeMap::new();
    let submissions = system.db().collection("submissions");
    let all_rows = submissions.read().find(&rai_db::doc! {});
    for row in &all_rows {
        if let Some(id) = row.get("job_id").and_then(rai_db::Value::as_i64) {
            *rows_per_id.entry(id as u64).or_insert(0) += 1;
        }
    }
    let dead_set: BTreeSet<u64> = dead_lettered.iter().copied().collect();
    let terminal: Vec<u64> = rows_per_id.keys().copied().collect();
    let duplicated: Vec<u64> = rows_per_id
        .iter()
        .filter(|(_, n)| **n > 1)
        .map(|(id, _)| *id)
        .collect();
    let lost: Vec<u64> = accepted
        .iter()
        .copied()
        .filter(|id| !rows_per_id.contains_key(id) && !dead_set.contains(id))
        .collect();
    let standings = system.rankings().standings();

    // Fingerprint: terminal rows (sorted by job id) + dead-letter order
    // + standings. Presigned URLs are deliberately excluded (their
    // secret is process-global, not seed-derived).
    let mut fp = Fnv1a::new();
    for id in rows_per_id.keys() {
        let row = submissions
            .read()
            .find_one(&rai_db::doc! { "job_id" => *id })
            .expect("counted above");
        fp.update(&id.to_le_bytes());
        fp.update(row.get("team").and_then(rai_db::Value::as_str).unwrap_or("").as_bytes());
        fp.update(row.get("kind").and_then(rai_db::Value::as_str).unwrap_or("").as_bytes());
        fp.update(&[u8::from(row.get("success").and_then(rai_db::Value::as_bool).unwrap_or(false))]);
        let secs = row.get("internal_secs").and_then(rai_db::Value::as_f64).unwrap_or(0.0);
        fp.update(&secs.to_bits().to_le_bytes());
    }
    for id in &dead_lettered {
        fp.update(&id.to_le_bytes());
    }
    for (team, secs) in &standings {
        fp.update(team.as_bytes());
        fp.update(&secs.to_bits().to_le_bytes());
    }
    AuditOutcome {
        terminal,
        dead_lettered,
        duplicated,
        lost,
        standings,
        fingerprint: fp.digest(),
    }
}

/// Run the chaos scenario and audit it.
pub fn run_chaos(config: &ChaosConfig) -> ChaosResult {
    let system = RaiSystem::with_clock(config.system_config(), VirtualClock::new());
    let mut course = Course::deploy(config, system);
    let creds = course.register_teams();
    course.run_rounds(&creds, 0..config.rounds);
    let audit = course.finish();

    let system = &course.system;
    let injected = system
        .fault_injector()
        .map(|inj| {
            inj.injected_counts()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default();
    ChaosResult {
        rejected: course.rejected,
        terminal: audit.terminal,
        dead_lettered: audit.dead_lettered,
        duplicated: audit.duplicated,
        lost: audit.lost,
        instances_failed: course.pool.stats().failed,
        injected,
        standings: audit.standings,
        fingerprint: audit.fingerprint,
        metrics: system.telemetry().snapshot(),
        traces: system.telemetry().take_job_traces(),
        store: system.store().usage(),
        accepted: course.accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_telemetry::names;

    #[test]
    fn quick_chaos_loses_nothing_and_dead_letters_poison() {
        let result = run_chaos(&ChaosConfig::quick(42));
        result.verify().expect("no-lost-submissions invariant");
        assert!(!result.accepted.is_empty());
        // Poison jobs (id % 13 == 0) can only leave via dead-letter.
        for id in &result.dead_lettered {
            assert_eq!(id % 13, 0, "only poison jobs should dead-letter, got {id}");
        }
        assert!(
            !result.dead_lettered.is_empty(),
            "accepted {} jobs but no poison id dead-lettered",
            result.accepted.len()
        );
        assert_eq!(result.instances_failed, 1, "the scheduled death happened");
        assert!(
            result.metrics.counter_total(names::FAULTS_INJECTED_TOTAL) > 0,
            "faults were injected"
        );
        assert_eq!(
            result.metrics.counter_total(names::DEAD_LETTERED_TOTAL),
            result.dead_lettered.len() as u64
        );
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let a = run_chaos(&ChaosConfig::quick(7));
        let b = run_chaos(&ChaosConfig::quick(7));
        assert_eq!(a.fingerprint, b.fingerprint, "same seed, same bytes");
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.dead_lettered, b.dead_lettered);
        let c = run_chaos(&ChaosConfig::quick(8));
        assert_ne!(a.fingerprint, c.fingerprint, "different seed, different run");
    }

    #[test]
    fn fault_free_plan_matches_no_injector_row_counts() {
        let mut cfg = ChaosConfig::quick(3);
        cfg.plan = FaultPlan::none(3);
        let result = run_chaos(&cfg);
        result.verify().unwrap();
        assert!(result.dead_lettered.is_empty());
        assert_eq!(result.rejected, 0);
        assert_eq!(result.terminal.len(), result.accepted.len());
        assert_eq!(result.metrics.counter_total(names::WORKER_CRASHES_TOTAL), 0);
    }
}
