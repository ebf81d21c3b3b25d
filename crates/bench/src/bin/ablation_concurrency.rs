//! Ablation for the **§V timing-accuracy claim**: "In the last two
//! weeks of the project … the worker accepts only one task at a time —
//! this makes the performance timing more accurate and repeatable."
//!
//! The same final submission is measured repeatedly on workers
//! configured with 1, 2, 4 and 8 job slots
//! ([`WorkerConfig::max_in_flight`]: a job is measured with the other
//! slots as neighbours); the coefficient of variation (std-dev / mean)
//! of the measured runtime is the repeatability metric. Every job goes
//! the way a student's does: a client submits it on the worker's
//! broker and the worker steps once.
//!
//! ```text
//! cargo run --release -p rai-bench --bin ablation_concurrency
//! ```

use parking_lot::RwLock;
use rai_auth::{CredentialRegistry, KeyGenerator};
use rai_broker::Broker;
use rai_core::client::{ProjectDir, RaiClient, SubmitMode};
use rai_core::worker::{StepEvent, Worker, WorkerConfig};
use rai_db::Database;
use rai_sandbox::ImageRegistry;
use rai_sim::VirtualClock;
use rai_telemetry::OnlineStats;
use rai_store::{LifecycleRule, ObjectStore};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const RUNS: usize = 60;

fn main() {
    let store = ObjectStore::new(VirtualClock::new());
    store
        .create_bucket(rai_core::client::UPLOAD_BUCKET, LifecycleRule::Keep)
        .expect("fresh store");
    store
        .create_bucket(rai_core::client::BUILD_BUCKET, LifecycleRule::Keep)
        .expect("fresh store");
    let registry = Arc::new(RwLock::new(CredentialRegistry::new()));
    let creds = KeyGenerator::from_seed(7).generate("bench-team");
    registry.write().register(creds.clone());
    let project = ProjectDir::cuda_project_with_perf(470.0, 0.93, 1024).with_final_artifacts();

    rai_bench::header("timing repeatability vs jobs-in-flight per worker");
    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>8}",
        "jobs/worker", "mean (s)", "min (s)", "max (s)", "CV"
    );
    let mut cvs = Vec::new();
    let next_job_id = Arc::new(AtomicU64::new(1));
    for jobs_per_worker in [1usize, 2, 4, 8] {
        let broker = Broker::default();
        let client = RaiClient::new(
            creds.clone(),
            "bench-team",
            broker.clone(),
            store.clone(),
            next_job_id.clone(),
        );
        let mut worker = Worker::new(
            WorkerConfig {
                worker_id: format!("bench-{jobs_per_worker}"),
                max_in_flight: jobs_per_worker,
                noise_seed: 42,
                ..Default::default()
            },
            broker,
            store.clone(),
            Database::new(),
            registry.clone(),
            Arc::new(ImageRegistry::course_default()),
        );
        let mut stats = OnlineStats::new();
        for _ in 0..RUNS {
            client.begin_submit(&project, SubmitMode::Submit).expect("upload and publish");
            let StepEvent::Done(outcome) = worker.try_step() else {
                panic!("the worker runs the job it was just sent");
            };
            assert!(outcome.success, "bench job must succeed");
            stats.push(outcome.measured_secs.expect("program ran"));
        }
        println!(
            "  {:<14} {:>10.4} {:>10.4} {:>10.4} {:>7.2}%",
            jobs_per_worker,
            stats.mean(),
            stats.min(),
            stats.max(),
            stats.cv() * 100.0
        );
        cvs.push(stats.cv());
    }

    rai_bench::header("paper vs measured");
    println!("  paper: single-job workers give 'more accurate and repeatable' timing");
    println!(
        "  measured: CV grows monotonically with co-scheduled jobs: {:?}",
        cvs.iter().map(|c| format!("{:.2}%", c * 100.0)).collect::<Vec<_>>()
    );
    assert!(cvs[0] < 0.01, "single-job timing should be near-deterministic");
    assert!(cvs[3] > cvs[0], "contention must hurt repeatability");
}
