//! A team's key acts for its team only. Credentials are per team (paper
//! §V: keys mailed from the roster, every request signed), so a request
//! signed with one team's key may name neither another team nor another
//! team's upload. Either attempt is rejected like a bad signature, and
//! leaves the other team's submissions row, ranking and upload as they
//! were. A rejected request that carries another team's job id leaves
//! that team's row alone too: with a bad signature it speaks for no
//! team, and rejected after its key was proven it speaks for its own.

use rai::auth::{sign_request, Credentials};
use rai::core::client::{ProjectDir, UPLOAD_BUCKET};
use rai::core::protocol::{routes, JobKind, JobRequest};
use rai::core::system::{RaiSystem, SystemConfig};
use rai::db::{doc, Document, Value};
use rai::telemetry::names;

/// What team-b has on record: the submissions row of its graded job,
/// its ranking row and the bytes of its upload.
#[derive(Debug, PartialEq)]
struct Standing {
    row: Option<Document>,
    ranking: Option<Document>,
    upload: Vec<u8>,
}

fn standing(sys: &RaiSystem, b: &Graded) -> Standing {
    Standing {
        row: sys.db().read().submissions.find_one(&doc! { "job_id" => b.job_id }),
        ranking: sys.db().read().rankings.find_one(&doc! { "team" => "team-b" }),
        upload: sys.store().get(UPLOAD_BUCKET, &b.upload_key).expect("team-b's upload").data.to_vec(),
    }
}

/// Team-b's graded final submission.
struct Graded {
    job_id: u64,
    upload_key: String,
}

/// A course of two teams: team-b's final submission is graded and
/// ranked, team-a has run once. Returns team-a's credentials and
/// upload key, and team-b's graded submission.
fn course() -> (RaiSystem, Credentials, String, Graded) {
    let mut sys = RaiSystem::new(SystemConfig { rate_limit: None, ..Default::default() });
    let a = sys.register_team("team-a", &[]);
    let b = sys.register_team("team-b", &[]);
    let fast = ProjectDir::cuda_project_with_perf(300.0, 0.95, 1024).with_final_artifacts();
    let graded = sys.submit_final(&b, &fast).expect("team-b submits");
    assert!(graded.success);
    let ran = sys.submit(&a, &ProjectDir::sample_cuda_project()).expect("team-a runs");
    assert!(ran.success);
    let key_of = |job_id: u64| {
        let row = sys.db().read().submissions.find_one(&doc! { "job_id" => job_id });
        match row.expect("a row per job").get("upload_key") {
            Some(Value::Str(key)) => key.clone(),
            other => panic!("upload_key {other:?}"),
        }
    };
    let (a_key, b_key) = (key_of(ran.job_id), key_of(graded.job_id));
    assert!(a_key.starts_with("team-a/") && b_key.starts_with("team-b/"));
    (sys, a, a_key, Graded { job_id: graded.job_id, upload_key: b_key })
}

/// A `kind` request of job `job_id` signed with `creds`, for `team`
/// from `upload_key`.
fn signed(creds: &Credentials, job_id: u64, kind: JobKind, team: &str, upload_key: &str) -> JobRequest {
    let mut request = JobRequest {
        job_id,
        access_key: creds.access_key.clone(),
        signature: String::new(),
        team: team.to_string(),
        upload_bucket: UPLOAD_BUCKET.to_string(),
        upload_key: upload_key.to_string(),
        build_yml: rai::core::spec::DEFAULT_BUILD_YML.to_string(),
        kind,
    };
    request.signature = sign_request(&creds.secret_key, &creds.access_key, &request.signing_payload());
    request
}

/// Publish `request`, drain the queue, and return the row that holds
/// its job id.
fn publish(sys: &mut RaiSystem, request: &JobRequest) -> Option<Document> {
    sys.broker().publish(routes::TASK_TOPIC, request.encode()).unwrap();
    let outcomes = sys.drain();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].success, "the forged job is rejected");
    sys.db().read().submissions.find_one(&doc! { "job_id" => request.job_id })
}

/// Publish a final submission signed with `creds`, for `team` from
/// `upload_key`, drain the queue and return the job's row.
fn forge(sys: &mut RaiSystem, creds: &Credentials, team: &str, upload_key: &str) -> Document {
    let request = signed(creds, 1_000, JobKind::Submit, team, upload_key);
    publish(sys, &request).expect("a rejected job has its terminal row")
}

/// How many jobs ended with `outcome`.
fn ended(sys: &RaiSystem, kind: &str, outcome: &str) -> Option<u64> {
    sys.report().metrics.counter(names::JOBS_TOTAL, &[("kind", kind), ("outcome", outcome)])
}

fn assert_rejected(row: &Document) {
    assert_eq!(row.get("user"), Some(&Value::Str("auth-rejected".into())), "{row:?}");
    assert_eq!(row.get("success"), Some(&Value::Bool(false)), "{row:?}");
}

#[test]
fn a_teams_key_cannot_submit_as_another_team() {
    let (mut sys, a, a_key, b) = course();
    let before = standing(&sys, &b);
    // team-a's own upload, ranked as team-b's.
    let row = forge(&mut sys, &a, "team-b", &a_key);
    assert_rejected(&row);
    assert_eq!(standing(&sys, &b), before);
}

#[test]
fn a_teams_key_cannot_run_another_teams_upload() {
    let (mut sys, a, _, b) = course();
    let before = standing(&sys, &b);
    let row = forge(&mut sys, &a, "team-a", &b.upload_key);
    assert_rejected(&row);
    assert_eq!(standing(&sys, &b), before);
    // team-a is not ranked with team-b's code either.
    let ranked = sys.db().read().rankings.find_one(&doc! { "team" => "team-a" });
    assert_eq!(ranked, None);
}

#[test]
fn a_bad_signature_cannot_overwrite_another_teams_row() {
    let (mut sys, a, a_key, b) = course();
    let before = standing(&sys, &b);
    // A Run of team-a's upload under team-b's finished job id, with a
    // signature no key made.
    let mut request = signed(&a, b.job_id, JobKind::Run, "team-a", &a_key);
    request.signature = "0".repeat(request.signature.len());
    let row = publish(&mut sys, &request);
    assert_eq!(ended(&sys, "run", "auth-rejected"), Some(1));
    assert_eq!(row, before.row, "team-b's row holds its job id");
    assert_eq!(standing(&sys, &b), before);
}

#[test]
fn a_rejection_after_auth_cannot_overwrite_another_teams_row() {
    let (mut sys, a, _, b) = course();
    let before = standing(&sys, &b);
    // team-a's own key and its own upload key for team-b's job id, as
    // the client derives it (`{team}/{job_id:08x}.tar.bz2`): the key
    // acts for team-a, and the fetch fails, for nothing was uploaded
    // there.
    let upload_key = format!("team-a/{:08x}.tar.bz2", b.job_id);
    let request = signed(&a, b.job_id, JobKind::Submit, "team-a", &upload_key);
    let row = publish(&mut sys, &request);
    assert_eq!(ended(&sys, "submit", "fetch-failed"), Some(1));
    assert_eq!(row, before.row, "team-b's row holds its job id");
    assert_eq!(standing(&sys, &b), before);
}
