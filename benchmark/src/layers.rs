//! Layer replay: direct timed calls into each crate's public functions
//! on the corpus the phase trace just used. Isolated per-op time is an
//! estimate of what the op costs inside the pipeline, so the busy
//! shares built from it are reported, not gated.

use crate::inputs::StreamItem;
use crate::report::Metric;
use crate::trace::PhasePlan;
use crate::MIB;
use rai_archive::chunk::{assemble, chunk_bytes, Chunk, ChunkManifest, ChunkerParams};
use rai_archive::{restore, write_container};
use rai_auth::{sign_request, verify_request, Credentials, KeyGenerator};
use rai_broker::Broker;
use rai_core::client::UPLOAD_BUCKET;
use rai_core::protocol::{JobKind, JobRequest};
use rai_core::{BuildSpec, DeltaUploader, RaiClient, SubmitMode};
use rai_db::{doc, Collection, FindOptions};
use rai_exec::Executor;
use rai_sandbox::{Container, ImageRegistry, ResourceLimits};
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectStore};
use rai_telemetry::{component, names, stage, Telemetry};
use rai_wal::{DurabilityConfig, MemDisk, Wal};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUCKET: &str = "replay";

/// Submissions sampled from the phase plan into the replay corpus.
const CORPUS_ITEMS: usize = 16;

/// One submission's artefacts, as the pipeline would produce them.
struct Item {
    project: rai_core::ProjectDir,
    container: Vec<u8>,
    manifest: ChunkManifest,
    chunks: Vec<Chunk>,
    build_yml: String,
    request: JobRequest,
    creds: Credentials,
}

fn corpus(plan: &PhasePlan) -> Vec<Item> {
    let mut keygen = KeyGenerator::from_seed(plan.system_seed);
    let creds: Vec<Credentials> = plan
        .team_names
        .iter()
        .map(|name| keygen.generate(name))
        .collect();
    let stride = plan.jobs.len().div_ceil(CORPUS_ITEMS).max(1);
    plan.jobs
        .iter()
        .step_by(stride)
        .enumerate()
        .map(|(i, submission)| {
            let StreamItem {
                team,
                project,
                mode,
            } = submission;
            let container = write_container(&project.tree);
            let (manifest, chunks) = chunk_bytes(&container, ChunkerParams::DEFAULT);
            let creds = creds[*team].clone();
            let build_yml = RaiClient::effective_build_yml(project, *mode)
                .expect("corpus build files are valid");
            let job_id = i as u64 + 1;
            let mut request = JobRequest {
                job_id,
                access_key: creds.access_key.clone(),
                signature: String::new(),
                team: creds.user_name.clone(),
                upload_bucket: UPLOAD_BUCKET.to_string(),
                upload_key: format!("{}/{job_id:08x}.tar.bz2", creds.user_name),
                build_yml: build_yml.clone(),
                kind: match mode {
                    SubmitMode::Run => JobKind::Run,
                    SubmitMode::Submit => JobKind::Submit,
                },
            };
            let payload = request.signing_payload();
            request.signature = sign_request(&creds.secret_key, &creds.access_key, &payload);
            Item {
                project: project.clone(),
                container,
                manifest,
                chunks,
                build_yml,
                request,
                creds,
            }
        })
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    (out, secs)
}

/// Call `op` with a running index until `window` has passed, and at
/// least three times. `op` returns the value of its timed part, so
/// per-call set-up stays outside the measurement.
fn sample(window: Duration, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < window {
        samples.push(op(samples.len()));
    }
    samples
}

fn fresh_store() -> ObjectStore {
    let store = ObjectStore::new(VirtualClock::new());
    store
        .create_bucket(BUCKET, LifecycleRule::one_month_after_last_use())
        .expect("fresh store has no buckets");
    store
}

/// A store that already holds every corpus container under `warm/<i>`.
fn warm_store(items: &[Item]) -> ObjectStore {
    let store = fresh_store();
    for (i, item) in items.iter().enumerate() {
        store
            .put_delta(
                BUCKET,
                &format!("warm/{i}"),
                &item.manifest,
                &item.chunks,
                [],
            )
            .expect("corpus chunks match their manifest");
    }
    store
}

/// What the replay needs to know about the workload beyond its corpus.
pub struct Shape {
    /// Rows the submissions collection reaches.
    pub submissions: usize,
    /// Rows the rankings collection reaches.
    pub teams: usize,
    /// Task-queue consumers.
    pub workers: usize,
}

/// Collects the replay's metrics; every measurement runs for `window`.
struct Replay {
    window: Duration,
    metrics: Vec<Metric>,
}

impl Replay {
    /// The median of what `op` returns over a window of calls.
    fn median(&mut self, name: &'static str, unit: &'static str, op: impl FnMut(usize) -> f64) {
        let samples = sample(self.window, op);
        self.metrics.push(Metric::median_of(name, unit, &samples));
    }

    /// The median, in µs, of the seconds `op` returns over a window.
    fn micros(&mut self, name: &'static str, op: impl FnMut(usize) -> f64) {
        let secs = sample(self.window, op);
        self.push_micros(name, &secs);
    }

    fn push_micros(&mut self, name: &'static str, secs: &[f64]) {
        let micros: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
        self.metrics.push(Metric::median_of(name, "us", &micros));
    }
}

/// Every per-op metric, measured for about `window` each.
pub fn replay(plan: &PhasePlan, shape: &Shape, window: Duration) -> Vec<Metric> {
    let items = corpus(plan);
    let mut out = Replay {
        window,
        metrics: Vec::new(),
    };
    let pick = |i: usize| &items[i % items.len()];
    let mib = |item: &Item| item.container.len() as f64 / MIB;

    // ---- rai-archive ------------------------------------------------
    out.median("archive.write_container_mib_per_s", "MiB/s", |i| {
        let item = pick(i);
        mib(item) / timed(|| black_box(write_container(&item.project.tree))).1
    });
    out.median("archive.chunk_mib_per_s", "MiB/s", |i| {
        let item = pick(i);
        mib(item) / timed(|| black_box(chunk_bytes(&item.container, ChunkerParams::DEFAULT))).1
    });
    let total_chunks: usize = items.iter().map(|it| it.manifest.chunks.len()).sum();
    let total_bytes: usize = items.iter().map(|it| it.container.len()).sum();
    out.metrics.push(Metric::exact(
        "archive.chunks_per_kib",
        "1/KiB",
        total_chunks as f64 / (total_bytes as f64 / 1024.0),
    ));
    let lookups: Vec<HashMap<u64, _>> = items
        .iter()
        .map(|it| {
            it.chunks
                .iter()
                .map(|c| (c.digest, c.data.clone()))
                .collect()
        })
        .collect();
    out.median("archive.assemble_mib_per_s", "MiB/s", |i| {
        let (item, lookup) = (pick(i), &lookups[i % items.len()]);
        mib(item) / timed(|| black_box(assemble(&item.manifest, |d| lookup.get(&d).cloned()))).1
    });
    out.median("archive.restore_mib_per_s", "MiB/s", |i| {
        let item = pick(i);
        mib(item) / timed(|| black_box(restore(&item.container))).1
    });

    // ---- rai-core delta uploader ------------------------------------
    // A fresh uploader per call: `client_for` builds one per
    // submission, so project uploads never see a warm digest cache.
    out.median("delta.prepare_mib_per_s", "MiB/s", |i| {
        let item = pick(i);
        mib(item) / timed(|| black_box(DeltaUploader::new().prepare(&item.container))).1
    });
    out.median("delta.upload_cold_mib_per_s", "MiB/s", |i| {
        let (item, store) = (pick(i), fresh_store());
        let upload = || DeltaUploader::new().upload(&store, BUCKET, "cold", &item.container, []);
        mib(item) / timed(|| upload().expect("upload")).1
    });
    let warm = warm_store(&items);
    out.median("delta.upload_warm_mib_per_s", "MiB/s", |i| {
        let (item, key) = (pick(i), format!("again/{}", i % 64));
        let upload = || DeltaUploader::new().upload(&warm, BUCKET, &key, &item.container, []);
        mib(item) / timed(|| upload().expect("upload")).1
    });

    // ---- rai-store --------------------------------------------------
    out.median("store.put_delta_fresh_mib_per_s", "MiB/s", |i| {
        let (item, store) = (pick(i), fresh_store());
        let put = || store.put_delta(BUCKET, "fresh", &item.manifest, &item.chunks, []);
        mib(item) / timed(|| put().expect("put_delta")).1
    });
    out.median("store.put_delta_dedup_mib_per_s", "MiB/s", |i| {
        let (item, key) = (pick(i), format!("dedup/{}", i % 64));
        let put = || warm.put_delta(BUCKET, &key, &item.manifest, &[], []);
        mib(item) / timed(|| put().expect("put_delta")).1
    });
    let digests: Vec<Vec<u64>> = items.iter().map(|it| it.manifest.digests()).collect();
    out.median("store.has_chunks_probes_per_s", "1/s", |i| {
        let probe = &digests[i % items.len()];
        probe.len() as f64 / timed(|| black_box(warm.has_chunks(probe).expect("has_chunks"))).1
    });
    out.median("store.get_mib_per_s", "MiB/s", |i| {
        let key = format!("warm/{}", i % items.len());
        mib(pick(i)) / timed(|| black_box(warm.get(BUCKET, &key).expect("get"))).1
    });
    // Nothing is a month old: the sweep is the pure scan the daily
    // lifecycle pass pays on a store of this size.
    out.micros("store.sweep_lifecycle_us", |_| {
        timed(|| black_box(warm.sweep_lifecycle())).1
    });

    // ---- rai-db -----------------------------------------------------
    // Collections of the size and shape the workload's database reaches.
    let row = |job_id: u64| {
        doc! {
            "job_id" => job_id, "team" => "team-00", "user" => "team-00", "kind" => "run",
            "success" => true, "internal_secs" => 0.47, "wall_secs" => 31.5,
            "worker" => "worker-00", "upload_key" => "team-00/00000001.tar.bz2", "log_bytes" => 812u64,
        }
    };
    let mut submissions = Collection::new();
    submissions.create_index("job_id");
    submissions.insert_many((0..shape.submissions as u64).map(row));
    let n = shape.submissions as u64;
    // Each upsert/insert lands on a new key and is removed again, so
    // the collection stays at the workload's size.
    out.micros("db.upsert_us", |i| {
        let id = n + i as u64;
        let update = doc! { "$set" => row(id) };
        let secs = timed(|| submissions.update_one(&doc! { "job_id" => id }, &update, true)).1;
        submissions.delete_many(&doc! { "job_id" => id });
        secs
    });
    out.micros("db.insert_us", |i| {
        let id = n + i as u64;
        let secs = timed(|| submissions.insert_one(row(id))).1;
        submissions.delete_many(&doc! { "job_id" => id });
        secs
    });
    out.micros("db.find_point_us", |i| {
        let query = doc! { "job_id" => (i as u64 * 7919) % n.max(1) };
        timed(|| black_box(submissions.find_one(&query))).1
    });
    let point = doc! { "job_id" => n / 2 };
    let candidates = submissions
        .candidate_count(&point)
        .unwrap_or(submissions.len());
    out.metrics.push(Metric::exact(
        "db.candidates_per_result",
        "ratio",
        candidates as f64 / submissions.find(&point).len().max(1) as f64,
    ));
    let mut rankings = Collection::new();
    rankings.create_index("team");
    rankings.create_index("runtime_secs");
    rankings.insert_many((0..shape.teams).map(|t| {
        doc! { "team" => format!("team-{t:02}"), "runtime_secs" => 0.3 + (t as f64 * 7.31) % 120.0, "job_id" => t as u64 }
    }));
    let standings = FindOptions::sort_asc("runtime_secs").limit(30);
    out.micros("db.ranking_query_us", |_| {
        timed(|| black_box(rankings.find_with(&doc! {}, &standings))).1
    });

    // ---- rai-broker -------------------------------------------------
    let broker = Broker::default();
    let consumers: Vec<_> = (0..shape.workers)
        .map(|_| broker.subscribe("rai", "tasks"))
        .collect();
    let mut recv_ack = Vec::new();
    out.micros("broker.publish_us", |i| {
        let body = pick(i).request.encode();
        let secs = timed(|| broker.publish("rai", body).expect("publish")).1;
        let consumer = &consumers[i % consumers.len()];
        let receive = || consumer.try_recv().map(|msg| consumer.ack(msg.id));
        recv_ack.push(timed(|| receive().expect("published message")).1);
        secs
    });
    out.push_micros("broker.recv_ack_us", &recv_ack);
    // One job's log topic: the client's ephemeral subscription, the
    // frames a job publishes, the client's drain, and the topic's
    // garbage collection when the subscription drops.
    const FRAMES_PER_JOB: usize = 12;
    out.micros("broker.log_topic_cycle_us", |i| {
        let topic = format!("log_{i:08x}");
        timed(|| {
            let sub = broker.subscribe_ephemeral(&topic, "#ch");
            for _ in 0..FRAMES_PER_JOB {
                let frame = &b"out ./ece408 elapsed = 0.47 s"[..];
                broker.publish_ephemeral(&topic, frame).expect("publish");
            }
            while let Some(msg) = sub.try_recv() {
                sub.ack(msg.id);
            }
        })
        .1
    });
    // The fleet's worth of claims in flight, none old enough to reclaim.
    for i in 0..shape.workers {
        broker
            .publish("rai", pick(i).request.encode())
            .expect("publish");
    }
    let held: Vec<_> = consumers.iter().filter_map(|c| c.try_recv()).collect();
    out.micros("broker.reclaim_expired_us", |_| {
        timed(|| black_box(broker.reclaim_expired(SimDuration::from_hours(1)))).1
    });
    drop(held);

    // ---- rai-sandbox ------------------------------------------------
    let registry = ImageRegistry::course_default();
    let specs: Vec<BuildSpec> = items
        .iter()
        .map(|it| BuildSpec::parse(&it.build_yml).expect("valid spec"))
        .collect();
    out.micros("sandbox.job_us", |i| {
        let (item, spec) = (pick(i), &specs[i % items.len()]);
        let image = registry.resolve(&spec.image).expect("whitelisted image");
        timed(|| {
            let mut container = Container::create(image, ResourceLimits::default());
            container.mount("/src", &item.project.tree);
            container.run_script(spec.build.iter().map(String::as_str));
            black_box(container.destroy())
        })
        .1
    });
    out.median("sandbox.mount_mib_per_s", "MiB/s", |i| {
        let (item, spec) = (pick(i), &specs[i % items.len()]);
        let image = registry.resolve(&spec.image).expect("whitelisted image");
        let mut container = Container::create(image, ResourceLimits::default());
        let size_mib = item.project.tree.total_size() as f64 / MIB;
        size_mib / timed(|| container.mount("/src", &item.project.tree)).1
    });

    // ---- rai-yaml, spec and wire codec ------------------------------
    out.micros("yaml.parse_us", |i| {
        timed(|| black_box(rai_yaml::parse(&pick(i).build_yml))).1
    });
    out.micros("core.spec_parse_us", |i| {
        timed(|| black_box(BuildSpec::parse(&pick(i).build_yml))).1
    });
    out.micros("core.request_codec_us", |i| {
        timed(|| black_box(JobRequest::decode(&pick(i).request.encode()))).1
    });

    // ---- rai-auth ---------------------------------------------------
    let payloads: Vec<Vec<u8>> = items
        .iter()
        .map(|it| it.request.signing_payload())
        .collect();
    out.micros("auth.sign_us", |i| {
        let (creds, body) = (&pick(i).creds, &payloads[i % items.len()]);
        timed(|| black_box(sign_request(&creds.secret_key, &creds.access_key, body))).1
    });
    out.micros("auth.verify_us", |i| {
        let (item, body) = (pick(i), &payloads[i % items.len()]);
        let (creds, signature) = (&item.creds, &item.request.signature);
        timed(|| {
            black_box(verify_request(
                &creds.secret_key,
                &creds.access_key,
                body,
                signature,
            ))
        })
        .1
    });

    // ---- rai-wal ----------------------------------------------------
    // Records the size of the intent ledger's rows; a new log every few
    // thousand appends keeps the simulated disk small.
    const APPENDS_PER_LOG: usize = 4096;
    let records: Vec<Vec<u8>> = items
        .iter()
        .map(|it| it.request.encode().into_bytes())
        .collect();
    let open_wal = || Wal::open(Arc::new(MemDisk::new()), DurabilityConfig::durable());
    let mut wal = open_wal();
    let mut wal_sync = Vec::new();
    out.micros("wal.append_us", |i| {
        if i % APPENDS_PER_LOG == 0 {
            wal = open_wal();
        }
        let secs = timed(|| wal.append(&records[i % items.len()])).1;
        if i % 8 == 0 {
            wal_sync.push(timed(|| wal.sync()).1);
        }
        secs
    });
    out.push_micros("wal.sync_us", &wal_sync);
    let wal = open_wal();
    for i in 0..APPENDS_PER_LOG {
        wal.append(&records[i % items.len()]);
    }
    wal.sync();
    out.median("wal.replay_records_per_s", "1/s", |_| {
        APPENDS_PER_LOG as f64 / timed(|| black_box(wal.replay())).1
    });

    // ---- rai-telemetry ----------------------------------------------
    // The spans, counters and histograms one job's lifecycle records.
    let clock = VirtualClock::new();
    let telemetry = Telemetry::new(clock.clone());
    out.micros("telemetry.job_events_us", |i| {
        let job = i as u64 + 1;
        timed(|| {
            let now = clock.now();
            for (attempt, st, comp) in [
                (0, stage::SUBMITTED, component::CLIENT),
                (0, stage::ENQUEUED, component::BROKER),
                (1, stage::DEQUEUED, component::BROKER),
                (1, stage::FETCHED, component::STORE),
                (1, stage::BUILT, component::SANDBOX),
                (1, stage::RAN, component::SANDBOX),
                (1, stage::UPLOADED, component::STORE),
                (1, stage::RECORDED, component::DB),
                (1, stage::GRADED, component::WORKER),
            ] {
                telemetry.trace_span(job, attempt, st, comp, now, now);
                telemetry
                    .histogram(names::JOB_STAGE_SECONDS, &[("stage", st)], 0.0, 5.0, 24)
                    .record(0.5);
            }
            // The worker looks its gauge up on every change, as here.
            let active = || telemetry.gauge(names::WORKER_ACTIVE_JOBS, &[("worker", "worker-00")]);
            active().set(1.0);
            telemetry
                .histogram(names::SANDBOX_RUN_SECONDS, &[], 0.0, 5.0, 24)
                .record(0.5);
            telemetry
                .counter(names::JOBS_TOTAL, &[("kind", "run"), ("outcome", "ok")])
                .inc();
            telemetry
                .histogram(names::JOB_TOTAL_SECONDS, &[], 0.0, 30.0, 40)
                .record(31.5);
            active().set(0.0);
        })
        .1
    });
    out.micros("telemetry.snapshot_us", |_| {
        timed(|| black_box(telemetry.snapshot())).1
    });

    // ---- rai-exec ---------------------------------------------------
    // One scheduling round of no-op jobs: inline, and on a pool as wide
    // as the host allows (capped at 4).
    let width = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4);
    let round = |exec: &Executor| {
        timed(|| black_box(exec.run_jobs((0..width as u64).collect(), |n| n + 1, |n| n))).1
    };
    let inline = Executor::sequential();
    out.micros("exec.run_jobs_inline_us", |_| round(&inline));
    let pool = Executor::new(width);
    out.micros("exec.run_jobs_dispatch_us", |_| round(&pool));

    out.metrics
}
