//! Heap budget of the request path, as exact counts: what a submission
//! allocates and what it leaves behind.
//!
//! A semester submission is a KiB-size project pushed through
//! client → broker → claim → execute → commit; what it costs is mostly
//! the *text* of the job request (build-file parse, request codec,
//! signing) and the bookkeeping around it. This binary installs a
//! counting allocator and pins how many allocations one submission
//! makes (DESIGN.md §11 "Request path" and "Output path"; and one of the
//! durable course, journal and recovery included, §14), how much of
//! the heap a course holds per submission at its fullest and how much
//! of that each owner — object record, submissions row, job trace —
//! keeps per item (§10 "What a submission leaves behind"), how many
//! allocations one sandbox job is, that an interactive session's
//! command does not copy the session's log, that a drained `log_${job_id}`
//! topic gives all of its bytes back (§V of the paper), and that a
//! build file doubling `/build` line by line stays inside a bounded heap.
//! It is its own test binary with a single `#[test]`, so nothing else
//! allocates while it counts.

use rai::archive::chunk::{chunk_bytes, ChunkManifest, ChunkerParams};
use rai::broker::Broker;
use rai::core::client::{ProjectDir, RaiClient, SubmitMode, UPLOAD_BUCKET};
use rai::core::protocol::{push_output, routes, JobKind, JobRequest, LogFrame};
use rai::core::spec::{BuildSpec, DEFAULT_BUILD_YML};
use rai::core::system::{RaiSystem, SystemConfig};
use rai::core::worker::StepEvent;
use rai::db::{doc, Collection};
use rai::sandbox::{Container, ImageRegistry, ResourceLimits};
use rai::sim::{SimTime, VirtualClock};
use rai::store::{LifecycleRule, ObjectStore, StoreError};
use rai::telemetry::{component, stage, MetricsRegistry, TraceStore};
use rai::workload::chaos::ChaosConfig;
use rai::workload::recovery::{run_recovery, KillPoint, RecoveryConfig};
use rai::workload::semester::run_semester;
use rai::workload::SemesterConfig;
use rai_faults::DiskFaultProfile;
use rai_wal::DurabilityConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
/// (EXPERIMENTS.md, "Driver census"): 183 / 24 517 B at this commit,
/// 186 / 24 539 B at its parent — the semester driver lends a
/// submission its team's credentials and model where it cloned their
/// four strings, and a dispatch round carries its popped jobs in one
/// list of its own.
/// Before that ("A job's text read where it lies"): 186 / 24 540 B,
/// 250 / 30 724 B at its parent — the client keeps a
/// job's log as the message bodies it received instead of a `String`
/// per line, a build file is read into its spec (or only checked, on
/// the client) without a YAML tree, in place on the stack, and a
/// request's kind is compared as the line it is.
/// Before that ("The job's run at its floor"): 250 / 30 612 B,
/// 279 / 31 740 B at its parent — a sandbox job writes
/// its output lines into one buffer instead of a `String` each, `make`
/// reads its sources without copying their paths or keeping a second
/// list, and the Makefile, the binary and the profile are inserted
/// under the path the interpreter built instead of a copy of it.
/// Before that ("The job's text at its floor"): 279 / 31 740 B,
/// 311 / 35 057 B at its parent — the worker reads a
/// request line by line instead of building a YAML tree of it (its
/// eight keys, the map and the line list), a build file is parsed
/// without an index of its raw lines unless it holds a block scalar,
/// and the signing payload is written into a buffer sized for it where
/// `format!` regrew one around the build file, on both hops.
/// Before that ("What a submission leaves behind, round two"):
/// 311 / 35 057 B — an object is kept as one packed
/// block under its key, so a delta upload no longer copies the
/// caller's manifest (two blocks) nor builds a metadata block apart
/// from it, and a trace's spans are 24 bytes. Before that ("A job
/// trace is the spans its job recorded"): 315 / 36 521 B — a trace's
/// list holds nine 56-byte spans where it held eleven of 64 B. Before
/// that ("Traffic census, round two"): 315 / 36 945 B — a job's
/// container no longer copies its
/// image name or keeps per-command durations nobody read. Before that
/// ("One pass from tree to manifest"): 318 / 37 201 B, 322 / 37 811 B
/// at its parent — each of the two containers a submission uploads is
/// chunked by a cutter whose cut
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
/// gates are 3 % above the 183 / 24 517 B measurement.
const BUDGET: (u64, u64) = (189, 25_253);

/// Allocations and requested bytes allowed per submission of the
/// benchmark's `durable_chaos` course (960 submissions on a WAL-backed
/// deployment, killed mid-run with damaged log tails, recovered and
/// resumed). Measured (EXPERIMENTS.md, "A job's text read where it
/// lies"): 305.6 / 49 048 B at this commit, 345.9 / 53 440 B at its
/// parent — the same text, read where it lies. Before that ("The
/// job's run at its floor"): 345.9 / 53 326 B, 375.4 / 54 355 B at its
/// parent — the same sandbox job, in one output buffer. Before that
/// ("The job's text at its floor"): 375.4 / 54 355 B, 411.2 / 58 045 B
/// at its parent — a request is read line by line, not as a YAML tree,
/// and signed from a payload built without regrowing. Before
/// that ("The durable path at memory speed"): 411.2 / 58 045 B,
/// 512.8 / 75 650 B at its parent — a journal record is written from the caller's documents,
/// names and object record straight into a frame the log reuses, where
/// it was copied into an owned record, encoded into a `Vec` and framed
/// into another, and replay decodes views of the segment instead of a
/// copy of every payload. Both gates are 3 % above the 305.6 /
/// 49 048 B measurement.
const DURABLE_BUDGET: (f64, f64) = (314.8, 50_519.0);

/// Peak live heap allowed per submission over the same course, in
/// bytes and blocks. Measured: 2 538 B in 14.8 blocks at this commit,
/// 3 106 B in 18.8 at its parent, 3 307 B in 18.8 before that, 3 367 B
/// in 18.8 before that, 5 984 B in 61.8 before the change that first
/// set the gate. Both gates are 5 % above the 2 538 B / 14.8
/// measurement.
const PEAK_LIVE_BUDGET: (f64, f64) = (2_665.0, 15.6);

/// Bytes and blocks one more item may leave resident in its owner, each
/// 5 % above the measurement: an object record 402 B in 2.17 blocks
/// (key, one block of chunk references, etag and packed metadata, and
/// its share of a map node; 552 B in 4.17 at the parent, 1 235 B in
/// 12.17 before that), a submissions row with its two index entries
/// 893 B in 6.51 (1 057 B in 18.51), a finished trace of nine 24-byte
/// spans 308 B in one (nine of 56 B, 596 B in one, at the parent;
/// eleven of 64 B, two of them stored attempt roots, 796 B before that;
/// 1 116 B before that).
const OBJECT_BUDGET: (f64, f64) = (422.0, 2.28);
const ROW_BUDGET: (f64, f64) = (938.0, 6.84);
const TRACE_BUDGET: (f64, f64) = (324.0, 1.05);

/// Allocations allowed for one Listing 1 job in the sandbox alone
/// (`create` + `mount` + `run_script` + `destroy` of the sample
/// project). Measured: 31 at this commit, 60 at its parent, 63 before
/// that, 165 before that — what is left is the output's two buffers,
/// the 3 files written with their paths and bytes, the image's and
/// `/build`'s tree copies (a key each), one word vector per command,
/// `make`'s list of sources and the two paths a program run is looked
/// up by. Where the parent kept a `String` per log line (16), copied
/// each path it inserted (3), copied every source's path and listed the
/// sources twice (2), and built the directive apart from the binary.
/// The gate is 3 % above the 31 measurement.
const SANDBOX_JOB_BUDGET: u64 = 31;

/// Allocations allowed for the client's check of a build file, the
/// copy it returns included: the copy, and a folded command's text.
/// Measured: 1 for the course's four-command file, 2 for Listings 1
/// and 2 (each folds a command); 17, 22 and 21 at the parent, which
/// built a YAML tree of the file to check it.
const CLIENT_CHECK_BUDGET: u64 = 2;
/// Allocations allowed for the worker's spec past one per command: the
/// image and the command list. Measured: 6, 7 and 7 for the course's
/// file and Listings 1 and 2 (16, 21 and 20 at the parent).
const SPEC_FIXED_BUDGET: u64 = 2;
/// Allocations `JobRequest::encode` and `JobRequest::decode` make: the
/// encoded text; each of the six string fields (the kind is compared
/// as the line it is). 1 and 7 at the parent.
const CODEC_BUDGET: (u64, u64) = (1, 6);
/// Allocations allowed for the client's wait for one job: the list of
/// the job's message bodies, kept as they arrived, the build URL, and
/// the broker's first delivery on the job's fresh channel (its
/// in-flight table). Measured: 3 (32 and 29 at the parent, a `String` per frame
/// and a second for each `[stderr]` / `[rai]` line).
const WAIT_BUDGET: u64 = 3;

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

    // One submission of the benchmark's `durable_chaos` course: the
    // chaos course on a WAL-backed deployment, killed mid-run with its
    // log tails damaged, recovered and resumed.
    let config = RecoveryConfig {
        chaos: ChaosConfig::acceptance(2016),
        kill: Some(KillPoint::mid_drive(80, 2)),
        disk_faults: Some(DiskFaultProfile::chaos(2016)),
        durability: DurabilityConfig::durable(),
    };
    let (durable, calls, bytes) = counted(|| run_recovery(&config));
    durable.verify().expect("nothing lost, nothing duplicated");
    let fingerprint = format!("\"fingerprint\": \"{:#018x}\"", durable.fingerprint);
    assert!(
        include_str!("../BENCH_perf.json").contains(&fingerprint),
        "priced a durable course BENCH_perf.json does not pin: {fingerprint}"
    );
    let n = (durable.accepted.len() as u64 + durable.rejected) as f64;
    let (per_calls, per_bytes) = (calls as f64 / n, bytes as f64 / n);
    println!("durable_chaos: {n} submissions, {per_calls:.1} allocations and {per_bytes:.0} requested bytes each");
    assert!(
        per_calls <= DURABLE_BUDGET.0 && per_bytes <= DURABLE_BUDGET.1,
        "{per_calls:.1} allocations / {per_bytes:.0} B per durable submission exceed {DURABLE_BUDGET:?}"
    );
    drop(durable);

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
    assert!(report.success() && report.output.len() == 16, "{:#?}", report.output);
    println!("sandbox: {job_calls} allocations for one Listing 1 job");
    assert!(
        job_calls <= SANDBOX_JOB_BUDGET,
        "{job_calls} allocations per sandbox job exceed the budget {SANDBOX_JOB_BUDGET}"
    );

    // A job's text, call by call (DESIGN.md §11 "Request path" and
    // "Output path"): the client's check of the build file, the
    // request's codec, the worker's read of the build file into its
    // spec, and the client's wait for the job's log.
    let team_file = "rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    \
                     - echo \"Building project\"\n    - cmake /src\n    - make\n    \
                     - ./ece408 /data/testfull.hdf5 /data/model.hdf5\n";
    let mut team_project = ProjectDir::sample_cuda_project().with_final_artifacts();
    for (mode, file) in [(SubmitMode::Run, Some(team_file)), (SubmitMode::Run, None), (SubmitMode::Submit, None)] {
        if let Some(file) = file {
            team_project.tree.insert("rai-build.yml", file.as_bytes().to_vec()).expect("valid path");
        }
        let (text, calls, _) = counted(|| RaiClient::effective_build_yml(&team_project, mode).expect("valid"));
        println!("client check: {calls} allocations for {mode:?} ({} bytes)", text.len());
        assert!(calls <= CLIENT_CHECK_BUDGET, "{calls} allocations to check a build file");
        let (spec, calls, _) = counted(|| BuildSpec::parse(&text).expect("valid"));
        let commands = spec.build.len() as u64;
        println!("worker spec: {calls} allocations for {commands} commands");
        assert!(calls <= commands + SPEC_FIXED_BUDGET, "{calls} allocations to read a spec of {commands} commands");
        team_project.tree.remove("rai-build.yml");
    }
    let mut request = JobRequest {
        job_id: 0x1234,
        access_key: "BsqJuFUI2ZtK4g1aLXf-OjmML6".to_string(),
        signature: "0".repeat(64),
        team: "team-07".to_string(),
        upload_bucket: UPLOAD_BUCKET.to_string(),
        upload_key: "team-07/00001234.tar.bz2".to_string(),
        build_yml: team_file.to_string(),
        kind: JobKind::Run,
    };
    for build_yml in [team_file, DEFAULT_BUILD_YML] {
        request.build_yml = build_yml.to_string();
        let (encoded, encode_calls, _) = counted(|| request.encode());
        let (decoded, decode_calls, _) = counted(|| JobRequest::decode(&encoded));
        assert_eq!(decoded.as_ref(), Some(&request));
        println!("request codec: {encode_calls} allocations to encode, {decode_calls} to decode");
        assert_eq!((encode_calls, decode_calls), CODEC_BUDGET, "encode and decode allocations");
    }
    let mut system = RaiSystem::new(SystemConfig { rate_limit: None, ..Default::default() });
    let creds = system.register_team("team-07", &[]);
    let client = system.client_for(&creds);
    for round in 0..2 {
        // The first job of a worker pulls its image: one more message.
        let pending = client.begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run).expect("submits");
        assert!(matches!(system.workers_mut()[0].try_step(), StepEvent::Done(_)));
        let (receipt, calls, _) = counted(|| pending.wait(Duration::from_millis(500)).expect("completes"));
        println!("wait: {calls} allocations for a job of {} log lines (round {round})", receipt.log.len());
        assert!(receipt.success && calls <= WAIT_BUDGET, "{calls} allocations to wait for a job");
    }
    drop(system);

    // An interactive session hands back the lines its command appended
    // and no others: once the session's output is at its cap, a command
    // allocates what running it does, not a copy of the whole log.
    let mut system = RaiSystem::new(SystemConfig { rate_limit: None, ..Default::default() });
    let instructor = system.register_instructor("prof");
    let mut project = ProjectDir::sample_cuda_project();
    project.tree.insert("lines.txt", "x\n".repeat(1 << 15).into_bytes()).expect("valid path");
    let mut session = system.open_session(&instructor, &project.tree).expect("an instructor");
    for _ in 0..4 {
        session.exec("cat /src/lines.txt");
    }
    let (out, calls, _) = counted(|| session.exec("echo after the cap"));
    assert!(out.exit_code == 0 && out.lines.is_empty(), "{out:?}");
    println!("interactive: {calls} allocations for a command after a capped log");
    assert!(calls <= 2, "{calls} allocations for one command after a capped log");
    drop(session);

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
