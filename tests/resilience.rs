//! Failure injection across the distributed pipeline: a crashed worker,
//! a flaky file server, replayed and malformed queue messages. The
//! paper's §V requirement: "since RAI is a distributed architecture,
//! these operations need to happen in order and be robust to failures."

use rai::archive::{fnv, write_container};
use rai::core::client::{ProjectDir, SubmitMode, UPLOAD_BUCKET};
use rai::core::protocol::routes;
use rai::core::system::{RaiSystem, SystemConfig};
use rai::telemetry::names;
use rai_faults::{FaultInjector, FaultKind, FaultPlan};
use std::time::Duration;

fn system() -> RaiSystem {
    RaiSystem::new(SystemConfig {
        rate_limit: None,
        ..Default::default()
    })
}

/// A deployment whose file server fails the reads `fails` marks (`true`
/// for a 503), in order, and serves the eight after them; writes never
/// fail. A read is a download or an upload's chunk probe. The plan is
/// the first seed whose draws come out that way.
fn system_failing_reads(fails: &[bool]) -> RaiSystem {
    let draws = [fails, &[false; 8]].concat();
    let fault_plan = (0..)
        .map(|seed| FaultPlan { store_get: 0.5, ..FaultPlan::none(seed) })
        .find(|plan| {
            let probe = FaultInjector::new(plan.clone());
            draws.iter().all(|&f| probe.should_fail(FaultKind::StoreGet) == f)
        })
        .expect("a seed draws the pattern");
    RaiSystem::new(SystemConfig {
        rate_limit: None,
        fault_plan,
        ..Default::default()
    })
}

#[test]
fn crashed_worker_job_is_redelivered() {
    let mut sys = system();
    let creds = sys.register_team("resilient", &[]);
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();

    // A "worker" takes the job off the queue and dies before acking.
    {
        let doomed = sys.broker().subscribe(routes::TASK_TOPIC, routes::TASK_CHANNEL);
        let msg = doomed.try_recv().expect("job queued");
        assert_eq!(msg.attempts, 1);
        drop(doomed); // crash: subscription dropped without ack
    }

    // A healthy worker picks the redelivered message up and completes it.
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success);
    let receipt = pending.wait(Duration::from_millis(500)).unwrap();
    assert!(receipt.success);
}

#[test]
fn file_server_outage_fails_job_without_wedging_the_queue() {
    // The upload's probe is served; the four fetches after it 503.
    let mut sys = system_failing_reads(&[false, true, true, true, true]);
    let creds = sys.register_team("unlucky", &[]);
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();

    // The file server 503s for longer than the worker's retry budget
    // (4 attempts with sim-time backoff), so the fetch fails for real.
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].success, "job fails cleanly");
    let receipt = pending.wait(Duration::from_millis(500)).unwrap();
    assert!(!receipt.success);
    assert!(receipt
        .log
        .iter()
        .any(|l| l.contains("failed to fetch project")));
    assert_eq!(sys.fault_injector().injected_counts(), [("store_get", 4)]);

    // The next submission works: no stuck state.
    let receipt = sys.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap();
    assert!(receipt.success);
}

#[test]
fn brief_file_server_blip_is_retried_transparently() {
    // The upload's probe is served; the first fetch 503s.
    let mut sys = system_failing_reads(&[false, true]);
    let creds = sys.register_team("lucky", &[]);
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();

    // A single 503 sits within the worker's retry budget: the job
    // succeeds, paying only backoff in sim time.
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success, "one 503 is absorbed by retry");
    assert!(pending.wait(Duration::from_millis(500)).unwrap().success);
    assert_eq!(sys.fault_injector().injected_counts(), [("store_get", 1)]);
    let retried = sys.telemetry().snapshot().counter_total(names::RETRIES_TOTAL);
    assert_eq!(retried, 1, "the worker's fetch retried");
}

#[test]
fn client_upload_rides_out_file_server_blips() {
    let mut sys = system_failing_reads(&[true, true]);
    let creds = sys.register_team("patient", &[]);
    let client = sys.client_for(&creds);
    let project = ProjectDir::sample_cuda_project();

    // Two 503s land on the client's upload conversation. It chunked
    // the container once, up front; each retry repeats only the store
    // round trips, and the third attempt goes through.
    let before = sys.store().usage();
    let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
    let usage = sys.store().usage();
    assert_eq!(sys.fault_injector().injected_counts(), [("store_get", 2)]);
    assert_eq!(usage.puts - before.puts, 1, "failed attempts stored nothing");
    assert_eq!(usage.objects - before.objects, 1);
    let uploads = sys.store().list(UPLOAD_BUCKET, "").unwrap();
    assert_eq!(uploads.len(), 1);
    assert_eq!(
        uploads[0].etag,
        fnv::etag(&write_container(&project.tree)),
        "the retried upload is the container, byte for byte"
    );

    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success);
    assert!(pending.wait(Duration::from_millis(500)).unwrap().success);
}

#[test]
fn garbage_on_task_queue_does_not_block_real_jobs() {
    let mut sys = system();
    let creds = sys.register_team("team", &[]);
    // Garbage before and after a real job.
    sys.broker()
        .publish(routes::TASK_TOPIC, &b"\xFF\xFEnot yaml at all"[..])
        .unwrap();
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();
    sys.broker()
        .publish(routes::TASK_TOPIC, &b"job_id: 1\n"[..]) // missing fields
        .unwrap();

    let outcomes = sys.drain();
    // Only the real job produced an outcome; garbage was dropped.
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success);
    assert!(pending.wait(Duration::from_millis(500)).unwrap().success);
    // Queue fully drained: nothing ready, nothing in flight.
    let stats = sys.broker().topic_stats(routes::TASK_TOPIC).unwrap();
    assert_eq!(stats.depth, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn replayed_job_message_executes_but_cannot_double_rank() {
    let mut sys = system();
    let creds = sys.register_team("replay", &[]);
    let client = sys.client_for(&creds);
    let project = ProjectDir::sample_cuda_project().with_final_artifacts();
    // The spy channel must exist before publish to receive its copy.
    let spy = sys.broker().subscribe(routes::TASK_TOPIC, "spy-channel");
    let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();

    // Capture and replay the exact job message (a valid signature!).
    let replayed = {
        // The spy channel gets its own copy; the original stays on tasks.
        let msg = spy.recv_timeout(Duration::from_millis(200)).unwrap();
        spy.ack(msg.id);
        msg.body
    };
    drop(spy);

    let outcomes = sys.drain();
    assert!(outcomes.iter().all(|o| o.success));
    assert!(pending.wait(Duration::from_millis(500)).unwrap().success);

    // Replay the message verbatim.
    sys.broker().publish(routes::TASK_TOPIC, replayed).unwrap();
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    // Replay still verifies (same bytes) and runs, but the ranking table
    // keeps one row per team — the overwrite semantics make replays
    // idempotent rather than rank-inflating.
    assert_eq!(sys.db().read().rankings.len(), 1);
    assert_eq!(sys.rankings().standings().len(), 1);
}

#[test]
fn client_timeout_when_no_workers_exist() {
    // A deployment whose workers never poll (we just don't drive them).
    let sys = system();
    let mut sys = sys;
    let creds = sys.register_team("stranded", &[]);
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();
    // Without drive_until, nobody processes the job: the client times out
    // rather than hanging forever.
    let err = pending.wait(Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, rai::core::client::SubmitError::Timeout));
}

#[test]
fn a_client_that_stops_reading_leaves_no_log_topic() {
    // The student's client goes away before the worker runs the job:
    // the job still runs and records, and its log frames, which
    // nobody will read, are dropped rather than parked in a topic that
    // no subscription would ever collect.
    let mut sys = system();
    let creds = sys.register_team("vanished", &[]);
    let pending = sys
        .client_for(&creds)
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();
    let log_topic = routes::log_topic(pending.job_id);
    drop(pending);
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].success);
    assert!(sys.broker().topic_stats(&log_topic).is_none(), "{log_topic} left behind");
    let stats = sys.broker().stats();
    assert_eq!((stats.topics, stats.depth), (1, 0), "only the task topic, drained");
}
