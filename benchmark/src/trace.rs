//! The phase trace: a serial one-job-at-a-time driver, in the
//! benchmark's own code, that walks one submission through the
//! pipeline's public phase calls with a span around each. The program
//! under test carries no instrumentation for this; every span is
//! recorded from outside.

use crate::inputs::{course_stream, StreamItem, BULK_TEAMS};
use crate::json::Json;
use crate::workloads::{counts_from, Counts, Workload};
use rai_core::worker::StepEvent;
use rai_core::{RaiSystem, SubmitMode, SystemConfig, Worker};
use rai_sim::VirtualClock;
use rai_wal::{DurabilityConfig, MemDisk};
use rai_workload::CircadianModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The spanned calls in pipeline order, each with the metric its median
/// is reported as. `client_for` is spanned like the rest so the phase
/// sum covers it, but has no metric of its own.
pub const PHASES: [(&str, Option<&str>); 7] = [
    ("client_for", None),
    ("begin_submit", Some("core.begin_submit_us")),
    ("pop_task", Some("core.pop_task_us")),
    ("claim_popped", Some("core.claim_popped_us")),
    ("execute", Some("core.execute_us")),
    ("commit", Some("core.commit_us")),
    ("wait", Some("core.wait_us")),
];

const NO_PARENT: u32 = u32::MAX;

/// Length of the modelled course `durable_chaos`'s phase trace draws
/// its submissions from (the flagship semester's).
const CHAOS_COURSE_DAYS: u64 = 21;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`NO_PARENT` for roots).
    pub parent: u32,
    /// Spans of one submission share its job id (0 outside any job).
    pub job: u64,
}

/// In-memory span log, written out once when the run ends.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for about `jobs` submissions. Reserving up front
    /// keeps reallocation of the span log out of the traced wall.
    pub fn new(enabled: bool, jobs: usize) -> Self {
        let capacity = if enabled {
            jobs * (PHASES.len() + 1)
        } else {
            0
        };
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`]. Returns its
    /// index, for children to name as their parent.
    fn open(&mut self, name: &'static str, parent: u32, job: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, index: u32) {
        if self.enabled {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    fn span<T>(&mut self, name: &'static str, parent: u32, job: u64, f: impl FnOnce() -> T) -> T {
        let index = self.open(name, parent, job);
        let out = f();
        self.close(index);
        out
    }

    /// Stamp `job` on every span from `root` on: a submission's first
    /// spans open before its job id is known.
    fn set_job_from(&mut self, root: u32, job: u64) {
        if self.enabled {
            for span in &mut self.spans[root as usize..] {
                span.job = job;
            }
        }
    }

    /// Microseconds spent in each call of phase `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("job", Json::Num(s.job as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the phase driver submits, and on what deployment shape.
pub struct PhasePlan {
    pub team_names: Vec<String>,
    pub workers: usize,
    pub system_seed: u64,
    /// Journal to a pair of `MemDisk`s and recover after the pass.
    pub durable: bool,
    /// Submitted before the traced jobs, outside the traced wall.
    pub prelude: Vec<StreamItem>,
    pub jobs: Vec<StreamItem>,
}

impl PhasePlan {
    /// The plan for `workload`: its own trees for the bulk workloads,
    /// the modelled course stream for the other two.
    pub fn of(workload: &Workload) -> PhasePlan {
        let bulk_names = || {
            (0..BULK_TEAMS)
                .map(|i| format!("bulk-team-{i:02}"))
                .collect()
        };
        let run = |team: usize, project: &rai_core::ProjectDir| StreamItem {
            team,
            project: project.clone(),
            mode: SubmitMode::Run,
        };
        match workload {
            Workload::Semester(config) => {
                let stream = course_stream(
                    config.teams,
                    config.duration_days,
                    config.seed,
                    &config.arrivals,
                );
                PhasePlan {
                    team_names: stream.team_names,
                    workers: 32,
                    system_seed: config.seed,
                    durable: false,
                    prelude: Vec::new(),
                    jobs: stream.items,
                }
            }
            Workload::DurableChaos(config) => {
                let chaos = &config.chaos;
                let mut arrivals = CircadianModel::paper_calibrated();
                arrivals.horizon_days = CHAOS_COURSE_DAYS as f64;
                let mut stream =
                    course_stream(chaos.teams, CHAOS_COURSE_DAYS, chaos.seed, &arrivals);
                // As many submissions as the workload accepts, taken
                // from the deadline end of the course.
                let keep = (chaos.teams * chaos.rounds).min(stream.items.len());
                let jobs = stream.items.split_off(stream.items.len() - keep);
                PhasePlan {
                    team_names: stream.team_names,
                    workers: chaos.workers,
                    system_seed: chaos.seed,
                    durable: true,
                    prelude: Vec::new(),
                    jobs,
                }
            }
            Workload::BulkFresh(trees) => {
                let rounds = trees[0].len();
                PhasePlan {
                    team_names: bulk_names(),
                    workers: 2,
                    system_seed: crate::workloads::SYSTEM_SEED,
                    durable: false,
                    prelude: Vec::new(),
                    jobs: (0..rounds)
                        .flat_map(|r| trees.iter().enumerate().map(move |(t, tree)| (t, &tree[r])))
                        .map(|(t, p)| run(t, p))
                        .collect(),
                }
            }
            Workload::BulkResubmit(trees) => {
                let resubmits = trees[0].1.len();
                PhasePlan {
                    team_names: bulk_names(),
                    workers: 2,
                    system_seed: crate::workloads::SYSTEM_SEED,
                    durable: false,
                    prelude: trees
                        .iter()
                        .enumerate()
                        .map(|(t, (base, _))| run(t, base))
                        .collect(),
                    jobs: (0..resubmits)
                        .flat_map(|k| {
                            trees
                                .iter()
                                .enumerate()
                                .map(move |(t, (_, edits))| (t, &edits[k]))
                        })
                        .map(|(t, p)| run(t, p))
                        .collect(),
                }
            }
        }
    }

    fn config(&self, durable: bool) -> SystemConfig {
        SystemConfig {
            workers: self.workers,
            rate_limit: None,
            seed: self.system_seed,
            durability: if durable {
                DurabilityConfig::durable()
            } else {
                DurabilityConfig::default()
            },
            ..Default::default()
        }
    }
}

/// A crash-free restart timed from outside.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    pub secs: f64,
    /// Log records replayed (database + store).
    pub records: u64,
}

/// One pass of the phase driver over a plan's jobs.
pub struct Pass {
    /// Wall-clock seconds from the first traced job's start to the last
    /// one's end.
    pub wall_s: f64,
    pub jobs: u64,
    /// Jobs without a successful receipt.
    pub failed: u64,
    /// Ledger counts of the traced jobs (the prelude's are subtracted).
    pub counts: Counts,
    /// Set on durable passes.
    pub recovery: Option<Recovery>,
}

/// Walk one submission through the pipeline on worker 0.
fn drive_one(
    system: &mut RaiSystem,
    creds: &rai_auth::Credentials,
    item: &StreamItem,
    rec: &mut Recorder,
) -> bool {
    let root = rec.open("submission", NO_PARENT, 0);
    let client = rec.span("client_for", root, 0, || system.client_for(creds));
    let Ok(pending) = rec.span("begin_submit", root, 0, || {
        client.begin_submit(&item.project, item.mode)
    }) else {
        rec.close(root);
        return false;
    };
    let job = pending.job_id;
    let popped = rec.span("pop_task", root, job, || system.workers_mut()[0].pop_task());
    let Some(popped) = popped else {
        rec.close(root);
        return false;
    };
    let claimed = rec.span("claim_popped", root, job, || {
        system.workers_mut()[0].claim_popped(popped)
    });
    let executed = rec.span("execute", root, job, || Worker::execute(claimed));
    let event = rec.span("commit", root, job, || {
        system.workers_mut()[0].commit(executed)
    });
    // What `drive_until` does between rounds: the sim clock moves on by
    // the job's service time. Outside every span, so it lands in the
    // part of the traced wall the phases do not explain.
    if let StepEvent::Done(outcome) = &event {
        system.clock().advance(outcome.service_time);
    }
    let receipt = rec.span("wait", root, job, || {
        pending.wait(Duration::from_millis(500))
    });
    rec.close(root);
    rec.set_job_from(root, job);
    receipt.is_ok_and(|r| r.success)
}

/// Run the plan's jobs once, recording into `rec` when it is enabled.
/// `durable` overrides the plan for the one extra pass that times
/// recovery on workloads that do not journal.
pub fn pass(plan: &PhasePlan, durable: bool, rec: &mut Recorder) -> Pass {
    let config = plan.config(durable);
    let clock = VirtualClock::new();
    let disks = durable.then(|| (MemDisk::new(), MemDisk::new()));
    let mut system = match &disks {
        Some((db, store)) => RaiSystem::with_clock_durable(
            config.clone(),
            clock.clone(),
            Arc::new(db.clone()),
            Arc::new(store.clone()),
        ),
        None => RaiSystem::with_clock(config.clone(), clock.clone()),
    };
    let creds: Vec<_> = plan
        .team_names
        .iter()
        .map(|name| system.register_team(name, &[]))
        .collect();
    let mut failed = 0u64;
    let mut untraced = Recorder::new(false, 0);
    for item in &plan.prelude {
        failed += u64::from(!drive_one(
            &mut system,
            &creds[item.team],
            item,
            &mut untraced,
        ));
    }
    let ledger = |system: &RaiSystem| {
        let report = system.report();
        counts_from(&report.metrics, &report.store)
    };
    let before = ledger(&system);
    let start = Instant::now();
    for item in &plan.jobs {
        failed += u64::from(!drive_one(&mut system, &creds[item.team], item, rec));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let counts = ledger(&system).since(&before);
    let recovery = disks.map(|(db, store)| {
        system.sync_wals();
        let resume_at = clock.now();
        drop(system);
        db.crash_clean();
        store.crash_clean();
        let start = Instant::now();
        let (recovered, report) = RaiSystem::recover_with_clock(
            config,
            VirtualClock::starting_at(resume_at),
            Arc::new(db),
            Arc::new(store),
            None,
        );
        let secs = start.elapsed().as_secs_f64();
        drop(recovered);
        Recovery {
            secs,
            records: report.db.stats.replayed + report.store.stats.replayed,
        }
    });
    Pass {
        wall_s,
        jobs: plan.jobs.len() as u64,
        failed,
        counts,
        recovery,
    }
}
