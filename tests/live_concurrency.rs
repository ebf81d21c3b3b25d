//! Live-mode soak: real OS threads for workers and clients sharing one
//! broker/store/database, the way an actual deployment runs (the
//! discrete-event semester drives the same components single-threaded).

use parking_lot::RwLock;
use rai::auth::{CredentialRegistry, KeyGenerator};
use rai::broker::Broker;
use rai::core::client::{ProjectDir, RaiClient, SubmitMode, BUILD_BUCKET, UPLOAD_BUCKET};
use rai::core::worker::{StepEvent, Worker, WorkerConfig};
use rai::db::{doc, Database};
use rai::sandbox::ImageRegistry;
use rai::sim::VirtualClock;
use rai::store::{LifecycleRule, ObjectStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 6;
const WORKERS: usize = 3;

#[test]
fn threaded_workers_and_clients() {
    let broker = Broker::default();
    let store = ObjectStore::new(VirtualClock::new());
    store
        .create_bucket(UPLOAD_BUCKET, LifecycleRule::one_month_after_last_use())
        .expect("fresh store");
    store
        .create_bucket(BUILD_BUCKET, LifecycleRule::Keep)
        .expect("fresh store");
    let db = Database::new();
    let registry = Arc::new(RwLock::new(CredentialRegistry::new()));
    let images = Arc::new(ImageRegistry::course_default());
    let next_job_id = Arc::new(AtomicU64::new(1));

    // Issue credentials for every client team up front.
    let mut keygen = KeyGenerator::from_seed(404);
    let creds: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let c = keygen.generate(&format!("live-team-{i}"));
            registry.write().register(c.clone());
            c
        })
        .collect();

    // Worker threads: poll until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let mut worker_handles = Vec::new();
    for w in 0..WORKERS {
        let mut worker = Worker::new(
            WorkerConfig {
                worker_id: format!("live-worker-{w}"),
                noise_seed: w as u64,
                ..Default::default()
            },
            broker.clone(),
            store.clone(),
            db.clone(),
            registry.clone(),
            images.clone(),
        );
        let stop = stop.clone();
        worker_handles.push(std::thread::spawn(move || {
            let mut processed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match worker.try_step() {
                    StepEvent::Done(_) => processed += 1,
                    StepEvent::Idle => std::thread::sleep(Duration::from_millis(1)),
                    StepEvent::Crashed(report) => panic!("no fault is planned: {report:?}"),
                }
            }
            processed
        }));
    }

    // Client threads: submit and wait for each receipt.
    let mut client_handles = Vec::new();
    for creds in creds {
        let client = RaiClient::new(
            creds.clone(),
            &creds.user_name,
            broker.clone(),
            store.clone(),
            next_job_id.clone(),
        );
        client_handles.push(std::thread::spawn(move || {
            let mut ok = 0;
            for _ in 0..JOBS_PER_CLIENT {
                let pending = client
                    .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
                    .expect("submit starts");
                let receipt = pending.wait(Duration::from_secs(30)).expect("job completes");
                assert!(receipt.success, "log: {:#?}", receipt.log);
                assert!(receipt.build_url.is_some());
                ok += 1;
            }
            ok
        }));
    }

    let total_ok: usize = client_handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    stop.store(true, Ordering::Relaxed);
    let total_processed: u64 = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .sum();

    assert_eq!(total_ok, CLIENTS * JOBS_PER_CLIENT);
    assert_eq!(total_processed as usize, CLIENTS * JOBS_PER_CLIENT);
    // Every job recorded exactly once; queue fully drained.
    assert_eq!(
        db.read().submissions.count(&doc! {}),
        CLIENTS * JOBS_PER_CLIENT
    );
    let stats = broker.topic_stats("rai").expect("task topic");
    assert_eq!(stats.depth, 0);
    assert_eq!(stats.in_flight, 0);
    // Uploads + build outputs both landed.
    assert_eq!(store.usage().puts, 2 * (CLIENTS * JOBS_PER_CLIENT) as u64);
}

/// A live ephemeral subscription receives every frame published to it,
/// while another subscription on the same log topic comes and goes as
/// fast as it can: the other's drop may collect the topic only once no
/// subscription is left on it, never one that is still joining.
#[test]
fn a_live_log_subscription_gets_every_frame_through_subscription_churn() {
    const ROUNDS: u64 = 100_000;
    let broker = Broker::default();
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let (broker, done) = (broker.clone(), done.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                drop(broker.subscribe_ephemeral("log_x", "churn"));
            }
        })
    };
    let mut lost = 0;
    for _ in 0..ROUNDS {
        let sub = broker.subscribe_ephemeral("log_x", "reader");
        broker.publish_ephemeral("log_x", &b"frame"[..]).expect("no fault is planned");
        match sub.try_recv() {
            Some(m) => assert!(sub.ack(m.id)),
            None => lost += 1,
        }
    }
    done.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    assert_eq!(lost, 0, "{lost} of {ROUNDS} frames lost to a live subscription");
    assert_eq!(broker.stats().topics, 0, "the log topic is collected");
}

/// A compaction racing writes loses nothing: one thread writes rows to
/// two tables while another compacts the journal as often as its
/// thresholds allow, and the database recovered from the disk holds
/// every row the live one does. A compaction snapshots the tables and
/// replaces the log under the lock every write journals under, so no
/// write can land between a table's snapshot and the deletion of the
/// segments its record went to.
#[test]
fn a_compaction_racing_writes_loses_no_row() {
    const RUNS: usize = 10;
    const SUBMISSIONS: i64 = 5_000;
    const RANKINGS: i64 = 715;
    let config = rai_wal::DurabilityConfig {
        segment_bytes: 16 << 10,
        compact_min_bytes: 1 << 10,
        compact_factor: 2,
    };
    let mut compactions = 0;
    for run in 0..RUNS {
        let disk = rai_wal::MemDisk::new();
        let db = Database::new();
        db.attach_wal(rai_wal::Wal::open(Arc::new(disk.clone()), config));
        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        compactions += std::thread::scope(|scope| {
            let compactor = scope.spawn(|| {
                started.store(true, Ordering::Relaxed);
                let mut compactions = 0u64;
                while !done.load(Ordering::Relaxed) {
                    compactions += u64::from(db.maybe_compact());
                }
                compactions
            });
            while !started.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            for i in 0..SUBMISSIONS {
                db.write().submissions.insert_one(doc! { "job_id" => i });
                if i % 7 == 0 {
                    db.write().rankings.insert_one(doc! { "team" => i });
                }
                // Between two writes the compactor can take the lock.
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            compactor.join().expect("compactor thread")
        });
        db.sync_wal();
        let live = {
            let tables = db.read();
            (tables.submissions.len(), tables.rankings.len())
        };
        assert_eq!(live, (SUBMISSIONS as usize, RANKINGS as usize));
        let (recovered, recovery) = Database::recover(rai_wal::Wal::open(Arc::new(disk), config));
        let tables = recovered.read();
        assert_eq!((tables.submissions.len(), tables.rankings.len()), live, "run {run}: {recovery:?}");
    }
    assert!(compactions > RUNS as u64, "the log compacted {compactions} times under the writes");
}
