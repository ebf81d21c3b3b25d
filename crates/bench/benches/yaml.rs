//! Build-file parsing benchmarks: the Listing 1 file and a large
//! student-authored variant — and, under `request/*` and
//! `telemetry/handle_hit`, the other text a submission handles per hop:
//! the job request's codec and signature, and a per-event metric lookup.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rai_auth::{sign_request, verify_request, KeyGenerator};
use rai_core::client::UPLOAD_BUCKET;
use rai_core::protocol::{JobKind, JobRequest};
use rai_core::spec::{BuildSpec, DEFAULT_BUILD_YML};
use rai_telemetry::{names, MetricsRegistry};

fn big_student_file() -> String {
    let mut s = String::from("rai:\n  version: 0.1\n  image: webgpu/rai:root\nresources:\n  gpus: 1\ncommands:\n  build:\n");
    for i in 0..200 {
        s.push_str(&format!("    - echo step {i} of a very long experiment script\n"));
    }
    s
}

fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("yaml/parse");
    g.throughput(Throughput::Bytes(DEFAULT_BUILD_YML.len() as u64));
    g.bench_function("listing1_default", |b| {
        b.iter(|| rai_yaml::parse(DEFAULT_BUILD_YML).expect("valid"));
    });
    let big = big_student_file();
    g.throughput(Throughput::Bytes(big.len() as u64));
    g.bench_function("student_200_commands", |b| {
        b.iter(|| rai_yaml::parse(&big).expect("valid"));
    });
    g.finish();
}

fn bench_spec_validation(c: &mut Criterion) {
    c.bench_function("yaml/build_spec_parse_validate", |b| {
        b.iter(|| BuildSpec::parse(DEFAULT_BUILD_YML).expect("valid"));
    });
}

fn bench_emit(c: &mut Criterion) {
    c.bench_function("yaml/emit_round_trip", |b| {
        let doc = rai_yaml::parse(DEFAULT_BUILD_YML).expect("valid");
        b.iter(|| {
            let text = rai_yaml::to_string(&doc);
            criterion::black_box(text.len())
        });
    });
}

/// The request a semester development run publishes: Listing 1 build
/// file, generated credentials, `team/job.tar.bz2` upload key.
fn bench_request(c: &mut Criterion) {
    let creds = KeyGenerator::from_seed(2016).generate("team-07");
    let mut request = JobRequest {
        job_id: 0x1234,
        access_key: creds.access_key.clone(),
        signature: String::new(),
        team: creds.user_name.clone(),
        upload_bucket: UPLOAD_BUCKET.to_string(),
        upload_key: "team-07/00001234.tar.bz2".to_string(),
        build_yml: DEFAULT_BUILD_YML.to_string(),
        kind: JobKind::Run,
    };
    let sign = |r: &JobRequest| sign_request(&creds.secret_key, &creds.access_key, &r.signing_payload());
    request.signature = sign(&request);
    let encoded = request.encode();

    let mut g = c.benchmark_group("request");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(&request).encode()));
    g.bench_function("decode", |b| {
        b.iter(|| JobRequest::decode(black_box(&encoded)).expect("own encoding"));
    });
    g.bench_function("sign", |b| b.iter(|| sign(black_box(&request))));
    g.bench_function("verify", |b| {
        b.iter(|| {
            let r = black_box(&request);
            assert!(verify_request(&creds.secret_key, &r.access_key, &r.signing_payload(), &r.signature));
        });
    });
    g.finish();
}

/// One `counter` lookup of an existing two-label key in a registry as
/// populated as a deployment's (a few dozen names).
fn bench_handle_hit(c: &mut Criterion) {
    let registry = MetricsRegistry::new();
    for i in 0..48 {
        registry.counter(&format!("rai_filler_{i:02}_total"), &[]);
    }
    for (kind, outcome) in [("run", "ok"), ("run", "failed"), ("submit", "ok"), ("submit", "failed")] {
        registry.counter(names::JOBS_TOTAL, &[("kind", kind), ("outcome", outcome)]);
    }
    c.bench_function("telemetry/handle_hit", |b| {
        b.iter(|| {
            registry
                .counter(names::JOBS_TOTAL, black_box(&[("kind", "run"), ("outcome", "ok")]))
                .inc()
        });
    });
}

criterion_group!(
    benches,
    bench_parse,
    bench_spec_validation,
    bench_emit,
    bench_request,
    bench_handle_hit
);
criterion_main!(benches);
