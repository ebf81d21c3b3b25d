//! Whole-semester simulation invariants: conservation of submissions
//! across the pipeline's independent ledgers (timeline, database, file
//! server, broker).

use rai::db::doc;
use rai::workload::chaos::{run_chaos, ChaosConfig};
use rai::workload::recovery::{run_recovery, KillPoint, RecoveryConfig};
use rai::workload::semester::run_semester;
use rai::workload::SemesterConfig;

#[test]
fn ledgers_agree_across_subsystems() {
    let result = run_semester(&SemesterConfig::scaled(5, 7, 21));
    let n = result.total_submissions;
    assert!(n > 30, "enough traffic to be meaningful, got {n}");

    // Timeline counted every submission exactly once.
    assert_eq!(result.full_timeline.total(), n);

    // The store saw one project upload and one build upload per job,
    // plus nothing else.
    assert_eq!(result.store.puts, 2 * n);
    // Everything uploaded was also downloaded once by a worker.
    assert_eq!(result.store.gets, n);

    // Every team got a final ranking.
    assert_eq!(result.final_standings.len(), 5);
    // Standings are sorted.
    for w in result.final_standings.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }

    // No failures in a healthy class.
    assert_eq!(result.failures, 0);
}

#[test]
fn database_records_match_simulation_totals() {
    // Run a tiny semester and cross-check the DB via a fresh run that
    // exposes the system: easiest is to re-derive from the result—the
    // submissions ledger is internal, so use window/total consistency.
    let result = run_semester(&SemesterConfig::scaled(4, 6, 33));
    assert_eq!(
        result.window_timeline.total(),
        result.window_submissions,
        "window ledger is self-consistent"
    );
    assert!(result.window_submissions <= result.total_submissions);
    // Cost is positive whenever a fleet existed.
    assert!(result.cost_cents > 0);
}

#[test]
fn seeds_reproduce_and_differ() {
    let a = run_semester(&SemesterConfig::scaled(4, 5, 77));
    let b = run_semester(&SemesterConfig::scaled(4, 5, 77));
    assert_eq!(a.total_submissions, b.total_submissions, "same seed, same run");
    assert_eq!(a.final_standings, b.final_standings);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The trace exports are functions of the seed too, not just the
    // scalar fingerprint.
    let exports = |r: &rai::workload::semester::SemesterResult| {
        let sample = r.traces.len().min(64);
        (
            rai::telemetry::attribute(&r.traces).table(),
            r.queue_wait.encode(),
            r.depth_series.sparkline(32),
            rai::telemetry::render_chrome_trace(&r.traces[..sample]),
        )
    };
    assert!(!exports(&a).0.is_empty(), "attribution table rendered");
    assert_eq!(exports(&a), exports(&b));
    let c = run_semester(&SemesterConfig::scaled(4, 5, 78));
    assert_ne!(
        (a.total_submissions, a.final_standings.clone()),
        (c.total_submissions, c.final_standings.clone()),
        "different seed, different semester"
    );

    // So are a fault-plan course and the same course killed three
    // commits into round 4, recovered and resumed.
    let chaos = |seed| {
        let result = run_chaos(&ChaosConfig::quick(seed));
        result.verify().expect("chaos invariants hold");
        result.fingerprint
    };
    assert_eq!(chaos(77), chaos(77));
    assert_ne!(chaos(77), chaos(78));
    let resumed = |seed| {
        let result = run_recovery(&RecoveryConfig {
            chaos: ChaosConfig::quick(seed),
            kill: Some(KillPoint::mid_drive(4, 3)),
            disk_faults: None,
            durability: rai_wal::DurabilityConfig::durable(),
        });
        assert!(result.killed, "seed {seed}: the mid-round kill fired");
        result.verify().expect("no-lost across restart");
        result.fingerprint
    };
    assert_eq!(resumed(77), resumed(77));
}

#[test]
fn submissions_collection_schema() {
    // Verify DB rows written during an end-to-end run have the fields
    // grading depends on.
    use rai::core::client::ProjectDir;
    use rai::core::system::{RaiSystem, SystemConfig};
    let mut sys = RaiSystem::new(SystemConfig {
        rate_limit: None,
        ..Default::default()
    });
    let creds = sys.register_team("schema", &[]);
    sys.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap();
    let row = sys.db().read().submissions.find_one(&doc! { "team" => "schema" }).unwrap();
    for field in ["job_id", "user", "kind", "success", "wall_secs", "worker", "upload_key"] {
        assert!(row.get(field).is_some(), "missing field {field}: {row}");
    }
}

#[test]
fn two_instance_deaths_in_one_round_fail_two_workers() {
    // Both deaths fall due at the same round boundary: each takes a
    // different live worker, both are counted, and the course still
    // accounts for every submission, run after run.
    let run = || {
        let mut config = ChaosConfig::quick(31);
        let at = rai::sim::SimDuration::from_mins(8);
        config.plan.instance_deaths = vec![at, at];
        run_chaos(&config)
    };
    let result = run();
    assert_eq!(result.instances_failed, 2, "two distinct workers died");
    let deaths = result.injected.iter().find(|(kind, _)| kind == "instance_death");
    assert_eq!(deaths.map(|(_, n)| *n), Some(2), "injected: {:?}", result.injected);
    result.verify().expect("nothing lost, nothing double-counted");
    assert_eq!(run().fingerprint, result.fingerprint, "same seed, same bytes");
}
