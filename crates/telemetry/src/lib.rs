//! # rai-telemetry — structured telemetry for the RAI reproduction
//!
//! One [`Telemetry`] handle is threaded through the whole pipeline
//! (broker, workers, sandbox, object store, database, autoscaler) and
//! provides three things:
//!
//! 1. a thread-safe [`MetricsRegistry`] of counters, gauges, and
//!    fixed-bucket histograms;
//! 2. per-job [`JobTrace`]s — attempt-aware *causal span trees* over
//!    the submission lifecycle (submit → enqueue → dequeue → fetch →
//!    build → run → upload → grade), stamped with [`VirtualClock`]
//!    sim-time, where every delivery attempt owns
//!    a root span, stages hang off it tagged with the component that
//!    did the work, and retries become sibling attempt subtrees;
//! 3. exposition of the registry as Prometheus text, plus
//!    trace-derived reports: `critical_path` / [`attribute`] turn
//!    span trees into wall-clock attribution tables and
//!    [`render_chrome_trace`] exports Perfetto-loadable JSON.
//!
//! Instrumented hot paths push directly into the registry; components
//! that already keep their own cumulative stats (broker, store, db)
//! register a *collector* closure instead, which
//! mirrors those stats into the registry every time
//! [`Telemetry::snapshot`] runs.
//!
//! The crate also owns the shared statistics toolkit ([`OnlineStats`],
//! [`Histogram`], [`TimeSeries`], [`GaugeSeries`],
//! and the deterministic log-bucketed [`LogHistogram`]) that used to
//! live in `rai-sim`.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod critical;
pub mod export;
pub mod latency;
pub mod registry;
pub mod stats;
pub mod trace;

pub use chrome::render_chrome_trace;
pub use critical::attribute;
pub use export::{parse_prometheus, render_prometheus};
pub use latency::{duration_micros, LogHistogram};
pub(crate) use registry::{Counter, Gauge, HistogramHandle};
pub use registry::{MetricKey, MetricsRegistry, MetricsSnapshot};
pub use stats::{GaugeSeries, Histogram, OnlineStats, TimeSeries};
pub use trace::{component, stage, JobTrace, StageEvent, TraceSpan, TraceStore};

use rai_sim::{SimTime, VirtualClock};
use std::sync::Arc;

/// Metric name constants used across the pipeline. Centralized so the
/// exposition output, instrumentation sites, and tests agree.
pub mod names {
    pub const JOBS_TOTAL: &str = "rai_jobs_total";
    pub const JOB_STAGE_SECONDS: &str = "rai_job_stage_seconds";
    pub const JOB_TOTAL_SECONDS: &str = "rai_job_total_seconds";
    pub const WORKER_ACTIVE_JOBS: &str = "rai_worker_active_jobs";
    pub const BROKER_PUBLISHED_TOTAL: &str = "rai_broker_published_total";
    pub const BROKER_ACKED_TOTAL: &str = "rai_broker_acked_total";
    pub const BROKER_REQUEUED_TOTAL: &str = "rai_broker_requeued_total";
    pub const BROKER_QUEUE_DEPTH: &str = "rai_broker_queue_depth";
    pub const BROKER_IN_FLIGHT: &str = "rai_broker_in_flight";
    pub const BROKER_CHANNELS: &str = "rai_broker_channels";
    pub const STORE_BYTES_UPLOADED_TOTAL: &str = "rai_store_bytes_uploaded_total";
    pub const STORE_BYTES_DOWNLOADED_TOTAL: &str = "rai_store_bytes_downloaded_total";
    pub const STORE_PUTS_TOTAL: &str = "rai_store_puts_total";
    pub const STORE_GETS_TOTAL: &str = "rai_store_gets_total";
    pub const STORE_EXPIRED_TOTAL: &str = "rai_store_expired_total";
    pub const STORE_BYTES_STORED: &str = "rai_store_bytes_stored";
    pub const STORE_OBJECTS: &str = "rai_store_objects";
    // Dedup (content-addressed storage) metrics.
    pub const STORE_BYTES_LOGICAL: &str = "rai_store_bytes_logical";
    pub const STORE_BYTES_PHYSICAL: &str = "rai_store_bytes_physical";
    pub const STORE_CHUNKS: &str = "rai_store_chunks";
    // What the store keeps resident *about* its objects: keys, packed
    // user metadata, manifests.
    pub const STORE_METADATA_BYTES: &str = "rai_store_metadata_bytes";
    pub const STORE_CHUNKS_DEDUP_TOTAL: &str = "rai_store_chunks_dedup_total";
    pub const STORE_BYTES_WIRE_TOTAL: &str = "rai_store_bytes_wire_total";
    pub const STORE_DELTA_PUTS_TOTAL: &str = "rai_store_delta_puts_total";
    // Contended wait on the store's state lock; a host fact.
    pub const LOCK_WAIT_MICROS_TOTAL: &str = "rai_lock_wait_micros_total";
    pub const DB_INSERTS_TOTAL: &str = "rai_db_inserts_total";
    pub const DB_QUERIES_TOTAL: &str = "rai_db_queries_total";
    pub const DB_UPDATES_TOTAL: &str = "rai_db_updates_total";
    pub const SANDBOX_IMAGE_PULLS_TOTAL: &str = "rai_sandbox_image_pulls_total";
    pub const SANDBOX_RUN_SECONDS: &str = "rai_sandbox_run_seconds";
    pub const SANDBOX_LIMIT_KILLS_TOTAL: &str = "rai_sandbox_limit_kills_total";
    pub const AUTOSCALER_POOL_SIZE: &str = "rai_autoscaler_pool_size";
    pub const AUTOSCALER_SCALE_EVENTS_TOTAL: &str = "rai_autoscaler_scale_events_total";
    pub const RATELIMIT_DENIED_TOTAL: &str = "rai_ratelimit_denied_total";
    // Failure & recovery (chaos) metrics.
    pub const RETRIES_TOTAL: &str = "rai_retries_total";
    pub const REDELIVERIES_TOTAL: &str = "rai_redeliveries_total";
    pub const DEAD_LETTERED_TOTAL: &str = "rai_dead_lettered_total";
    pub const FAULTS_INJECTED_TOTAL: &str = "rai_faults_injected_total";
    pub const JOBS_MALFORMED_TOTAL: &str = "rai_jobs_malformed_total";
    pub const WORKER_CRASHES_TOTAL: &str = "rai_worker_crashes_total";
    // Trace-store hygiene.
    pub const TRACES_DROPPED_LATE_TOTAL: &str = "rai_traces_dropped_late_total";
    pub const TRACES_RESIDENT: &str = "rai_traces_resident";
    // Write-ahead log counters, labeled per log ("log" = "db"/"store").
    pub const WAL_APPENDS_TOTAL: &str = "rai_wal_appends_total";
    pub const WAL_BYTES_TOTAL: &str = "rai_wal_bytes_total";
    pub const WAL_FSYNC_BATCHES_TOTAL: &str = "rai_wal_fsync_batches_total";
    pub const WAL_REPLAYED_RECORDS_TOTAL: &str = "rai_wal_replayed_records_total";
    pub const WAL_CORRUPT_RECORDS_DROPPED_TOTAL: &str = "rai_wal_corrupt_records_dropped_total";
    pub const WAL_COMPACTIONS_TOTAL: &str = "rai_wal_compactions_total";
    pub const WAL_SEGMENTS: &str = "rai_wal_segments";
    pub const WAL_LOG_BYTES: &str = "rai_wal_log_bytes";
}

type Collector = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

struct Inner {
    registry: MetricsRegistry,
    traces: TraceStore,
    collectors: parking_lot::Mutex<Vec<Collector>>,
}

/// Cheaply cloneable handle to the telemetry pipeline. All clones share
/// the same registry and trace store.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("traces", &self.inner.traces.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry for a deployment on `clock`. Every span and sample
    /// carries the sim-time its caller passes, so the clock is not
    /// kept; the argument stays because the repo benchmark
    /// (`benchmark/src/layers.rs`) builds this constructor.
    pub fn new(_clock: VirtualClock) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                registry: MetricsRegistry::new(),
                traces: TraceStore::new(),
                collectors: parking_lot::Mutex::new(Vec::new()),
            }),
        }
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter(name, labels)
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge(name, labels)
    }

    /// Get or create a histogram.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        origin: f64,
        bin_width: f64,
        nbins: usize,
    ) -> HistogramHandle {
        self.inner.registry.histogram(name, labels, origin, bin_width, nbins)
    }

    /// Record a causal span: `stage` work done by `component` on
    /// delivery `attempt` of `job_id`, covering `[start, end]`
    /// sim-time. Retries land in sibling attempt subtrees.
    pub fn trace_span(
        &self,
        job_id: u64,
        attempt: u32,
        stage: &'static str,
        component: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.traces.record_span(job_id, attempt, stage, component, start, end);
    }

    /// One job's lifecycle trace, if retained.
    pub fn job_trace(&self, job_id: u64) -> Option<JobTrace> {
        self.inner.traces.get(job_id)
    }

    /// Move all retained job traces out, oldest job first: for the
    /// driver of a course that is over, building its result.
    pub fn take_job_traces(&self) -> Vec<JobTrace> {
        self.inner.traces.take_all()
    }

    /// Register a pull-style collector: a closure that mirrors some
    /// component's internal stats into the registry. Collectors run, in
    /// registration order, at the start of every [`Telemetry::snapshot`].
    pub fn register_collector<F>(&self, collector: F)
    where
        F: Fn(&MetricsRegistry) + Send + Sync + 'static,
    {
        self.inner.collectors.lock().push(Box::new(collector));
    }

    /// Run all collectors, then copy out the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        for collector in self.inner.collectors.lock().iter() {
            collector(&self.inner.registry);
        }
        self.inner
            .registry
            .counter(names::TRACES_DROPPED_LATE_TOTAL, &[])
            .store(self.inner.traces.dropped_late());
        self.inner
            .registry
            .gauge(names::TRACES_RESIDENT, &[])
            .set(self.inner.traces.len() as f64);
        self.inner.registry.snapshot()
    }

    /// Snapshot rendered in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        export::render_prometheus(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::SimDuration;

    #[test]
    fn handle_clones_share_state() {
        let telemetry = Telemetry::new(VirtualClock::new());
        let clone = telemetry.clone();
        telemetry.counter(names::JOBS_TOTAL, &[("kind", "submit")]).inc();
        clone.counter(names::JOBS_TOTAL, &[("kind", "submit")]).inc();
        assert_eq!(telemetry.snapshot().counter_total(names::JOBS_TOTAL), 2);
    }

    #[test]
    fn collectors_run_on_snapshot() {
        let telemetry = Telemetry::new(VirtualClock::new());
        telemetry.register_collector(|registry| {
            registry.gauge("collected", &[]).set(7.0);
        });
        assert_eq!(telemetry.snapshot().gauge("collected", &[]), Some(7.0));
    }

    #[test]
    fn trace_spans_share_one_job_tree() {
        let telemetry = Telemetry::new(VirtualClock::new());
        let t = SimTime::from_secs;
        telemetry.trace_span(1, 0, stage::SUBMITTED, component::CLIENT, t(0), t(0));
        telemetry.trace_span(1, 0, stage::ENQUEUED, component::BROKER, t(2), t(2));
        telemetry.trace_span(1, 1, stage::DEQUEUED, component::BROKER, t(5), t(5));
        let trace = telemetry.job_trace(1).expect("trace exists");
        assert!(trace.is_monotone());
        assert_eq!(trace.total_duration(), SimDuration::from_secs(5));
    }

    #[test]
    fn render_output_parses() {
        let telemetry = Telemetry::new(VirtualClock::new());
        telemetry.counter(names::BROKER_PUBLISHED_TOTAL, &[]).add(3);
        telemetry
            .histogram(names::JOB_STAGE_SECONDS, &[("stage", "queue")], 0.0, 1.0, 8)
            .record(2.5);
        let samples = parse_prometheus(&telemetry.render_prometheus()).expect("prom parses");
        let published = samples.iter().find(|s| s.name == names::BROKER_PUBLISHED_TOTAL);
        assert_eq!(published.map(|s| s.value), Some(3.0));
    }
}
