//! Heap-allocation budget of the request path, as an exact count.
//!
//! A semester submission is a KiB-size project pushed through
//! client → broker → claim → execute → commit; what it costs is mostly
//! the *text* of the job request (build-file parse, request codec,
//! signing) and the bookkeeping around it. This binary installs a
//! counting allocator and pins how many allocations one submission
//! makes (DESIGN.md §11 "Request path"), and that a drained
//! `log_${job_id}` topic gives all of its bytes back (§V of the paper).
//! It is its own test binary with a single `#[test]`, so nothing else
//! allocates while it counts.

use rai::broker::Broker;
use rai::core::protocol::routes;
use rai::telemetry::MetricsRegistry;
use rai::workload::semester::run_semester;
use rai::workload::SemesterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls, requested bytes and live bytes, then delegates to
/// [`System`]. `realloc` and `alloc_zeroed` are the trait's defaults,
/// which route through `alloc` (and `dealloc`), so a growing `Vec`
/// counts once per growth step.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Requested bytes not yet handed back.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out. Test-only: the workspace's one `unsafe impl`
// outside `rai-exec`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
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

/// Allocations and requested bytes allowed per submission. Measured
/// (EXPERIMENTS.md): 613 / 51 572 B at this commit, 621 / 52 479 B at
/// its parent (the `Vec` per `try_recv_batch(1)` pop and the digest
/// cache's probe vector, insert and set growth in both uploaders left
/// with those hints), the same in the debug profile tier-1 runs this
/// test in and in release. Both gates are 3 % above the measurement.
const BUDGET: (u64, u64) = (631, 53_119);

#[test]
fn request_path_stays_inside_its_allocation_budget() {
    // One submission of the benchmark's `semester` course.
    let (result, calls, bytes) = counted(|| run_semester(&SemesterConfig::scaled(12, 21, 2016)));
    let n = result.total_submissions;
    // The run being priced is the committed one (`BENCH_perf.json`).
    assert_eq!(format!("{:#018x}", result.fingerprint()), "0xc9f1c2aa0b01e04a");
    let (per_calls, per_bytes) = (calls / n, bytes / n);
    println!("semester: {n} submissions, {per_calls} allocations and {per_bytes} requested bytes each");
    assert!(
        per_calls <= BUDGET.0 && per_bytes <= BUDGET.1,
        "{per_calls} allocations / {per_bytes} B per submission exceed the budget {BUDGET:?}"
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
    // after the last frame; a broker that has served 10 000 of them
    // holds what it held after 2 000.
    let broker = Broker::default();
    let live_after = |cycles: std::ops::Range<u64>| {
        for job_id in cycles {
            let topic = routes::log_topic(job_id);
            let sub = broker.subscribe_ephemeral(&topic, routes::LOG_CHANNEL);
            for line in 0..12 {
                broker.publish_ephemeral(&topic, format!("out line {line}")).expect("publish");
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
}
