//! Heap budget of the request path, as exact counts: what a submission
//! allocates and what it leaves behind.
//!
//! A semester submission is a KiB-size project pushed through
//! client → broker → claim → execute → commit; what it costs is mostly
//! the *text* of the job request (build-file parse, request codec,
//! signing) and the bookkeeping around it. This binary installs a
//! counting allocator and pins how many allocations one submission
//! makes (DESIGN.md §11 "Request path" and "Output path"), how much of
//! the heap a course holds per submission at its fullest and how much
//! of that each owner — object record, submissions row, job trace —
//! keeps per item (§10 "What a submission leaves behind"), how many
//! allocations one sandbox job is, that a drained `log_${job_id}`
//! topic gives all of its bytes back (§V of the paper), and that a
//! build file doubling `/build` line by line stays inside a bounded heap.
//! It is its own test binary with a single `#[test]`, so nothing else
//! allocates while it counts.

use rai::archive::chunk::{chunk_bytes, ChunkManifest, ChunkerParams};
use rai::broker::Broker;
use rai::core::client::ProjectDir;
use rai::core::protocol::{push_output, routes, LogFrame};
use rai::core::spec::BuildSpec;
use rai::core::system::{RaiSystem, SystemConfig};
use rai::db::{doc, Collection};
use rai::sandbox::{Container, ImageRegistry, ResourceLimits};
use rai::sim::{SimTime, VirtualClock};
use rai::store::{LifecycleRule, ObjectStore, StoreError};
use rai::telemetry::{component, stage, MetricsRegistry, TraceStore};
use rai::workload::semester::run_semester;
use rai::workload::SemesterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls, requested bytes, live bytes and blocks and their
/// high-water marks, then delegates to [`System`]. `realloc` and `alloc_zeroed` are the trait's defaults,
/// which route through `alloc` (and `dealloc`), so a growing `Vec`
/// counts once per growth step.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Requested bytes not yet handed back, and the most there have been.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Blocks not yet handed back, and the most there have been.
static LIVE_BLOCKS: AtomicU64 = AtomicU64::new(0);
static PEAK_BLOCKS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out. Test-only: the workspace's one `unsafe impl`
// outside `rai-exec`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        let blocks = LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_BLOCKS.fetch_max(blocks, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, requested bytes)` made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Live `(bytes, blocks)`.
fn live() -> (u64, u64) {
    (LIVE.load(Ordering::Relaxed), LIVE_BLOCKS.load(Ordering::Relaxed))
}

/// `(bytes, blocks)` per item that `n` calls of `each` left live.
fn kept_per_item(n: u64, each: impl FnMut(u64)) -> (f64, f64) {
    let before = live();
    (0..n).for_each(each);
    let after = live();
    ((after.0 - before.0) as f64 / n as f64, (after.1 - before.1) as f64 / n as f64)
}

/// Allocations and requested bytes allowed per submission. Measured
/// (EXPERIMENTS.md, "Traffic census, round two"): 315 / 36 945 B at this
/// commit — a job's container no longer copies its image name or keeps
/// per-command durations nobody read. Before that ("One pass from tree
/// to manifest"): 318 / 37 201 B, 322 / 37 811 B at its parent — each of the two
/// containers a submission uploads is chunked by a cutter whose cut
/// list is sized once for the container, where a growing list took
/// three allocations for its 14 references, and the container buffer
/// is sized exactly. Before that ("Attachment census"): 323 / 37 907
/// B, 325 / 38 151 B at its parent — the run's two staged spans
/// are one `RunFacts`, not a `Vec`, and the outcome takes the request's
/// team instead of a copy. Before that ("Resident-memory census",
/// 406 / 42 228 B): upload metadata is borrowed
/// pairs packed once instead of a `String` per key and value collected
/// into a map, a row's field names (and those of the `$set` document
/// that writes it) borrow their literals, a unique index entry has no
/// set, the claim takes the popped request instead of a copy, and the
/// end-of-course copies of every trace and every row are gone. The same
/// in the debug profile tier-1 runs this test in and in release. Both
/// gates are 3 % above the 318 / 37 201 B measurement.
const BUDGET: (u64, u64) = (327, 38_317);

/// Peak live heap allowed per submission over the same course, in
/// bytes and blocks. Measured: 3 307 B in 18.8 blocks at this commit,
/// 3 367 B in 18.8 at its parent, 5 984 B in 61.8 before the change that
/// set the gate. The byte gate is the bar that change was held to, the
/// block gate 5 % above its measurement.
const PEAK_LIVE_BUDGET: (f64, f64) = (3_400.0, 19.7);

/// Bytes and blocks one more item may leave resident in its owner, each
/// 5 % above the measurement: an object record 552 B in 4.17 blocks
/// (key, packed metadata, chunk references, etag and its share of a map
/// node; 1 235 B in 12.17 at the parent), a submissions row with its two
/// index entries 893 B in 6.51 (1 057 B in 18.51), a finished
/// eleven-span trace 796 B in one (1 116 B in one).
const OBJECT_BUDGET: (f64, f64) = (580.0, 4.38);
const ROW_BUDGET: (f64, f64) = (938.0, 6.84);
const TRACE_BUDGET: (f64, f64) = (836.0, 1.05);

/// Allocations allowed for one Listing 1 job in the sandbox alone
/// (`create` + `mount` + `run_script` + `destroy` of the sample
/// project). Measured: 60 at this commit, 63 at its parent, 165 before
/// that — what is left is the 16 log lines, the 3 files written with
/// their paths, the image's and `/build`'s tree copies and one word
/// vector per command. The gate is 3 % above the 63 measurement.
const SANDBOX_JOB_BUDGET: u64 = 64;

/// Peak live heap allowed for a job whose build file doubles `/build`
/// eighteen times: 2.7 MB measured, its tree stopped at `MAX_ENTRIES`
/// files. Unbounded, the same job ended `Exited(0)` with 262 144 files
/// at a 642 MB peak (EXPERIMENTS.md, "Traffic census, round two").
const DOUBLING_JOB_CEILING: u64 = 16 << 20;

#[test]
fn request_path_stays_inside_its_allocation_budget() {
    // One submission of the benchmark's `semester` course.
    let base = live();
    PEAK.store(base.0, Ordering::Relaxed);
    PEAK_BLOCKS.store(base.1, Ordering::Relaxed);
    let (result, calls, bytes) = counted(|| run_semester(&SemesterConfig::scaled(12, 21, 2016)));
    let n = result.total_submissions;
    // The run being priced is the committed one.
    let fingerprint = format!("\"fingerprint\": \"{:#018x}\"", result.fingerprint());
    assert!(
        include_str!("../BENCH_perf.json").contains(&fingerprint),
        "priced a semester BENCH_perf.json does not pin: {fingerprint}"
    );
    let (per_calls, per_bytes) = (calls / n, bytes / n);
    println!("semester: {n} submissions, {per_calls} allocations and {per_bytes} requested bytes each");
    assert!(
        per_calls <= BUDGET.0 && per_bytes <= BUDGET.1,
        "{per_calls} allocations / {per_bytes} B per submission exceed the budget {BUDGET:?}"
    );
    // What the course held at its fullest — deployment and result
    // together — over what it started from, per submission.
    let peak_bytes = (PEAK.load(Ordering::Relaxed) - base.0) as f64 / n as f64;
    let peak_blocks = (PEAK_BLOCKS.load(Ordering::Relaxed) - base.1) as f64 / n as f64;
    println!("semester: peak live heap {peak_bytes:.0} B in {peak_blocks:.1} blocks per submission");
    assert!(
        peak_bytes <= PEAK_LIVE_BUDGET.0 && peak_blocks <= PEAK_LIVE_BUDGET.1,
        "peak live heap of {peak_bytes:.0} B / {peak_blocks:.1} blocks per submission exceeds {PEAK_LIVE_BUDGET:?}"
    );
    drop(result);

    // The three owners of that heap, each alone: what one more item
    // leaves in a bare store, collection and trace store, averaged over
    // two thousand.
    const ITEMS: u64 = 2_000;
    let store = ObjectStore::new(VirtualClock::new());
    store.create_bucket("builds", LifecycleRule::Keep).expect("fresh store");
    // A build archive as the semester uploads them: 14 chunks, every
    // one already resident, and the worker's three metadata pairs.
    let body: Vec<u8> = (0..448u32).map(|i| (i * 31 % 251) as u8).collect();
    let (manifest, chunks) = chunk_bytes(&body, ChunkerParams { min: 32, avg: 32, max: 32 });
    assert_eq!(manifest.chunks.len(), 14);
    let upload = |store: &ObjectStore, key: &str, manifest: &ChunkManifest| {
        let source = format!("team-07/{:08x}.tar.bz2", 0x1234);
        let meta = [("team", "team-07"), ("kind", "run"), ("source", source.as_str())];
        store.put_delta("builds", key, manifest, &chunks, meta)
    };
    upload(&store, "warm", &manifest).expect("first upload");
    let object = kept_per_item(ITEMS, |i| {
        upload(&store, &format!("team-07/{i:08x}-build.tar.bz2"), &manifest).expect("upload");
    });
    println!("store: {:.0} B in {:.2} blocks kept per object", object.0, object.1);
    assert!(
        object.0 <= OBJECT_BUDGET.0 && object.1 <= OBJECT_BUDGET.1,
        "an object record keeps {object:?}, over {OBJECT_BUDGET:?}"
    );
    // An upload that names its own etag or metadata size is refused
    // before anything is kept, and costs the next honest one nothing.
    let crafted = ChunkManifest { etag: "e".repeat(1 << 20), ..manifest.clone() };
    let bloat = "m".repeat(1 << 20);
    let before = (live(), store.usage());
    assert!(matches!(upload(&store, "warm", &crafted), Err(StoreError::DeltaMismatch { .. })));
    let refused = store.put_delta("builds", "warm", &manifest, &[], [("note", bloat.as_str())]);
    assert_eq!(refused, Err(StoreError::MetadataTooLarge));
    assert_eq!(store.put("builds", "warm", &b"x"[..], [("note", bloat.as_str())]), refused);
    assert_eq!((live(), store.usage()), before, "a refused upload left something behind");
    upload(&store, "warm", &manifest).expect("the honest upload after the refused ones");

    let mut submissions = Collection::new();
    submissions.create_index("job_id");
    submissions.create_index("team");
    let row = kept_per_item(ITEMS, |job_id| {
        submissions.update_one(
            &doc! { "job_id" => job_id },
            &doc! { "$set" => doc!{
                "team" => format!("team-{:02}", job_id % 12),
                "user" => format!("student-{:03}", job_id % 36),
                "kind" => "run",
                "success" => true,
                "internal_secs" => 0.75,
                "wall_secs" => 1.5,
                "worker" => "worker-03",
                "upload_key" => format!("team-{:02}/{job_id:08x}.tar.bz2", job_id % 12),
                "log_bytes" => 612u64,
            } },
            true,
        );
    });
    println!("db: {:.0} B in {:.2} blocks kept per submissions row", row.0, row.1);
    assert!(
        row.0 <= ROW_BUDGET.0 && row.1 <= ROW_BUDGET.1,
        "a submissions row keeps {row:?}, over {ROW_BUDGET:?}"
    );

    let traces = TraceStore::new();
    let trace = kept_per_item(ITEMS, |job_id| {
        let t = SimTime::from_secs(job_id);
        traces.record_span(job_id, 0, stage::SUBMITTED, component::CLIENT, t, t);
        traces.record_span(job_id, 0, stage::ENQUEUED, component::BROKER, t, t);
        let work = [
            (stage::DEQUEUED, component::BROKER),
            (stage::FETCHED, component::STORE),
            (stage::BUILT, component::SANDBOX),
            (stage::RAN, component::SANDBOX),
            (stage::UPLOADED, component::STORE),
            (stage::RECORDED, component::DB),
            (stage::GRADED, component::WORKER),
        ];
        for (stage, component) in work {
            traces.record_span(job_id, 1, stage, component, t, t);
        }
    });
    println!("telemetry: {:.0} B in {:.2} blocks kept per trace", trace.0, trace.1);
    assert!(
        trace.0 <= TRACE_BUDGET.0 && trace.1 <= TRACE_BUDGET.1,
        "a job trace keeps {trace:?}, over {TRACE_BUDGET:?}"
    );

    // One Listing 1 job in the sandbox alone, the sample project:
    // image rootfs + mount, five build steps tokenised and interpreted,
    // the execution report.
    let registry = ImageRegistry::course_default();
    let image = registry.resolve("webgpu/rai:root").expect("whitelisted");
    let project = ProjectDir::sample_cuda_project();
    let spec = BuildSpec::default_spec();
    let (report, job_calls, _) = counted(|| {
        let mut container = Container::create(image, ResourceLimits::default());
        container.mount("/src", &project.tree);
        container.run_script(spec.build.iter().map(String::as_str));
        container.destroy()
    });
    assert!(report.success() && report.log.len() == 16, "{:#?}", report.log);
    println!("sandbox: {job_calls} allocations for one Listing 1 job");
    assert!(
        job_calls <= SANDBOX_JOB_BUDGET,
        "{job_calls} allocations per sandbox job exceed the budget {SANDBOX_JOB_BUDGET}"
    );

    // A metric-handle hit compares the borrowed name and labels against
    // the stored keys; only the create path builds an owned key.
    let registry = MetricsRegistry::new();
    let labels = [("kind", "run"), ("outcome", "ok")];
    let flipped = [("outcome", "ok"), ("kind", "run")];
    registry.counter("jobs_total", &labels);
    registry.gauge("queue_depth", &labels);
    registry.histogram("latency", &labels, 0.0, 0.5, 10);
    for labels in [&labels, &flipped] {
        let (_, calls, _) = counted(|| {
            registry.counter("jobs_total", labels).inc();
            registry.gauge("queue_depth", labels).set(1.0);
            registry.histogram("latency", labels, 0.0, 0.5, 10).record(0.7);
        });
        assert_eq!(calls, 0, "a handle hit must not allocate (labels {labels:?})");
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("jobs_total", &labels), Some(2));
    assert_eq!(snapshot.counters.len(), 1, "label order is irrelevant");

    // A job's log topic lives from the client's subscribe to its drop
    // after the last block — the three messages a worker publishes:
    // accepted, the output block, url + end; a broker that has served
    // 10 000 of them holds what it held after 2 000.
    let broker = Broker::default();
    let live_after = |cycles: std::ops::Range<u64>| {
        for job_id in cycles {
            let topic = routes::log_topic(job_id);
            let sub = broker.subscribe_ephemeral(&topic, routes::LOG_CHANNEL);
            let mut output = String::new();
            for line in 0..12 {
                push_output(&mut output, false, &format!("line {line}"));
            }
            let mut closing = LogFrame::BuildUrl(format!("rai-builds/{job_id:08x}")).encode();
            LogFrame::End { success: true }.encode_into(&mut closing);
            for block in ["sts job accepted by worker-0".to_string(), output, closing] {
                broker.publish_ephemeral(&topic, block).expect("publish");
            }
            while let Some(m) = sub.try_recv() {
                assert!(sub.ack(m.id));
            }
        }
        LIVE.load(Ordering::Relaxed)
    };
    let (early, late) = (live_after(0..2_000), live_after(2_000..10_000));
    println!("broker: {early} live bytes after 2 000 drained log topics, {late} after 10 000");
    assert_eq!(broker.stats().topics, 0);
    assert!(
        late.abs_diff(early) <= 4096,
        "8 000 drained log topics moved the live heap from {early} to {late} bytes"
    );

    // A build file whose every line doubles `/build`: the job fails on
    // a full filesystem, on a 2 MiB stack, inside a bounded heap, and
    // the worker takes the next job.
    let (receipt, peak, next) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut system = RaiSystem::new(SystemConfig { rate_limit: None, ..Default::default() });
            let creds = system.register_team("team-doubling", &[]);
            let mut build = String::from(
                "rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - cp -r /src /build/s\n",
            );
            for n in 0..18 {
                build.push_str(&format!("    - cp -r /build /build/d{n}\n"));
            }
            let mut project = ProjectDir::sample_cuda_project();
            project.tree.insert("rai-build.yml", build.into_bytes()).expect("valid path");
            let base = LIVE.load(Ordering::Relaxed);
            PEAK.store(base, Ordering::Relaxed);
            let receipt = system.submit(&creds, &project).expect("the job runs");
            let peak = PEAK.load(Ordering::Relaxed) - base;
            let next = system.submit(&creds, &ProjectDir::sample_cuda_project()).expect("the next job runs");
            (receipt, peak, next)
        })
        .expect("spawn the doubling job")
        .join()
        .expect("the doubling job does not panic");
    println!("doubling build: peak live heap {peak} B");
    assert!(!receipt.success, "{:?}", receipt.log);
    assert!(
        receipt.log.iter().any(|l| l.ends_with("': No space left on device")),
        "{:?}",
        receipt.log
    );
    assert!(peak <= DOUBLING_JOB_CEILING, "the doubling job peaked at {peak} B");
    assert!(next.success, "the worker ran the next job: {:?}", next.log);
}
