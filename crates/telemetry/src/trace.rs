//! Per-job causal span trees.
//!
//! Every submission that enters the system gets a [`JobTrace`]: the
//! [`TraceSpan`]s its job recorded, in recording order, each stamped
//! with a sim-time interval, the delivery attempt it belongs to and the
//! component that did the work (broker, store, sandbox, db, …).
//! Client-side work before the first delivery (submit, enqueue) is
//! attempt 0; the pipeline stages a worker executes on a delivery
//! (dequeue → fetch → build → run → upload → grade) carry its attempt
//! number. Retries therefore become *sibling attempt subtrees* instead
//! of duplicate stage events in one flat list, which keeps stage
//! durations honest under crash/retry schedules.
//!
//! The tree is not stored: its shape is fixed by its leaves. Each
//! attempt's root is the envelope of the attempt's spans
//! ([`JobTrace::roots`]), and every span's parent is its attempt's
//! root. The readers that need the tree — the critical path and the
//! Chrome export — work it out where they read it.

use parking_lot::Mutex;
use rai_sim::{IntMap, IntSet, SimDuration, SimTime};
use std::collections::VecDeque;

/// Canonical stage names, in pipeline order.
pub mod stage {
    /// Client submitted the job (rate-limit passed, archive packed).
    pub const SUBMITTED: &str = "submitted";
    /// Broker accepted and queued the job.
    pub const ENQUEUED: &str = "enqueued";
    /// A worker dequeued the job.
    pub const DEQUEUED: &str = "dequeued";
    /// Worker fetched the submission archive from the object store.
    pub const FETCHED: &str = "fetched";
    /// Sandbox image resolved/pulled and container built.
    pub const BUILT: &str = "built";
    /// Build commands ran to completion (or were killed).
    pub const RAN: &str = "ran";
    /// Build outputs uploaded back to the object store.
    pub const UPLOADED: &str = "uploaded";
    /// Submission recorded / ranking updated.
    pub const GRADED: &str = "graded";

    /// Sandbox image pull (cold worker only; child of the attempt).
    pub const PULLED: &str = "pulled";
    /// Database write recording the outcome (child of the attempt).
    pub const RECORDED: &str = "recorded";
    /// Injected fault killed this attempt (zero-width marker).
    pub const CRASHED: &str = "crashed";

    /// Root span of the client-side attempt-0 subtree.
    pub(crate) const SUBMIT_ROOT: &str = "submit";
    /// Root span of each worker delivery attempt subtree.
    pub(crate) const ATTEMPT_ROOT: &str = "attempt";
}

/// Component tags: who did the work a span covers.
pub mod component {
    pub const CLIENT: &str = "client";
    pub const BROKER: &str = "broker";
    pub const WORKER: &str = "worker";
    pub const STORE: &str = "store";
    pub const SANDBOX: &str = "sandbox";
    pub const DB: &str = "db";
    pub const FAULT: &str = "fault";
}

/// Every name a span's stage may be, [`stage`]'s constants in order; a
/// span keeps its stage as a position in this table.
const STAGES: [&str; 13] = [
    stage::SUBMITTED,
    stage::ENQUEUED,
    stage::DEQUEUED,
    stage::FETCHED,
    stage::BUILT,
    stage::RAN,
    stage::UPLOADED,
    stage::GRADED,
    stage::PULLED,
    stage::RECORDED,
    stage::CRASHED,
    stage::SUBMIT_ROOT,
    stage::ATTEMPT_ROOT,
];

/// Every name a span's component may be, [`component`]'s constants in
/// order; a span keeps its component as a position in this table.
const COMPONENTS: [&str; 7] = [
    component::CLIENT,
    component::BROKER,
    component::WORKER,
    component::STORE,
    component::SANDBOX,
    component::DB,
    component::FAULT,
];

/// `name`'s position in `table`. Spans are recorded with the
/// `stage::*` and `component::*` constants, so any other name is a
/// caller's bug, not input.
fn code(table: &[&str], name: &str, kind: &str) -> u8 {
    match table.iter().position(|&n| n == name) {
        Some(at) => at as u8,
        None => panic!("{name:?} is not a {kind} name: spans carry the `{kind}::*` constants"),
    }
}

/// One span of a job's trace: `stage` work done by `component` on
/// delivery `attempt`, covering `[start, end]` sim-time. The two names
/// are kept as one-byte positions in their tables, so a span is 24
/// bytes; `stage()` and `component()` read them back.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    stage: u8,
    component: u8,
    /// Delivery attempt: 0 = client-side submit, 1.. = worker attempts.
    pub(crate) attempt: u32,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
}

impl TraceSpan {
    /// A span named by a `stage::*` and a `component::*` constant.
    /// Panics on any other name.
    pub(crate) fn new(
        stage: &str,
        component: &str,
        attempt: u32,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        TraceSpan {
            stage: code(&STAGES, stage, "stage"),
            component: code(&COMPONENTS, component, "component"),
            attempt,
            start,
            end,
        }
    }

    /// The stage name.
    pub(crate) fn stage(&self) -> &'static str {
        STAGES[usize::from(self.stage)]
    }

    /// The component name.
    pub(crate) fn component(&self) -> &'static str {
        COMPONENTS[usize::from(self.component)]
    }
}

/// Full lifecycle of one job: the spans it recorded.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    pub job_id: u64,
    /// Every span recorded for the job, in recording order.
    pub(crate) spans: Vec<TraceSpan>,
}

impl JobTrace {
    /// One root per attempt, in order of first appearance: the
    /// envelope (earliest start, latest end) of the attempt's spans,
    /// named `submit` / `client` for attempt 0 and `attempt` / `worker`
    /// after it.
    pub fn roots(&self) -> Vec<TraceSpan> {
        let mut roots: Vec<TraceSpan> = Vec::new();
        for span in &self.spans {
            match roots.iter_mut().find(|r| r.attempt == span.attempt) {
                Some(root) => {
                    root.start = root.start.min(span.start);
                    root.end = root.end.max(span.end);
                }
                None => {
                    let (stage, component) = if span.attempt == 0 {
                        (stage::SUBMIT_ROOT, component::CLIENT)
                    } else {
                        (stage::ATTEMPT_ROOT, component::WORKER)
                    };
                    let (attempt, start, end) = (span.attempt, span.start, span.end);
                    roots.push(TraceSpan::new(stage, component, attempt, start, end));
                }
            }
        }
        roots
    }

    /// The highest worker attempt number (ignores the submit subtree).
    pub fn final_attempt(&self) -> Option<u32> {
        self.spans.iter().map(|s| s.attempt).filter(|&a| a > 0).max()
    }

    /// Time the job first reached `stage`, if it did (completion time of
    /// the earliest-recorded span with that name, any attempt).
    pub fn stage_time(&self, stage: &str) -> Option<SimTime> {
        self.spans.iter().find(|s| s.stage() == stage).map(|s| s.end)
    }

    /// End-to-end latency from the earliest span start to the latest
    /// span end.
    pub fn total_duration(&self) -> SimDuration {
        let start = self.spans.iter().map(|s| s.start).min();
        let end = self.spans.iter().map(|s| s.end).max();
        match (start, end) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// True when the recorded spans' completion times never decrease.
    pub fn is_monotone(&self) -> bool {
        self.spans.windows(2).all(|w| w[0].end <= w[1].end)
    }
}

/// Bounded store of job traces, evicting the oldest job once full.
/// Evicted job ids are tombstoned (bounded FIFO) so a late stage event
/// cannot resurrect an evicted job as a fresh truncated trace; such
/// events are counted in `TraceStore::dropped_late` instead.
#[derive(Debug)]
pub struct TraceStore {
    inner: Mutex<TraceStoreInner>,
}

#[derive(Debug)]
struct TraceStoreInner {
    traces: IntMap<u64, JobTrace>,
    order: VecDeque<u64>,
    capacity: usize,
    tombstones: IntSet<u64>,
    tombstone_order: VecDeque<u64>,
    dropped_late: u64,
}

/// Default trace retention. A full semester replay submits ~40k jobs;
/// the store keeps the most recent window rather than all of them.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Spans a job that runs once, on a warm worker, records.
const CLEAN_JOB_SPANS: usize = 9;

/// Tombstones retained per trace capacity (evicted ids remembered so
/// late events are dropped, not resurrected).
const TOMBSTONES_PER_CAPACITY: usize = 4;

impl Default for TraceStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            inner: Mutex::new(TraceStoreInner {
                traces: IntMap::default(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                tombstones: IntSet::default(),
                tombstone_order: VecDeque::new(),
                dropped_late: 0,
            }),
        }
    }

    /// Record a span for `job_id`: `stage` work by `component` on
    /// delivery `attempt`, covering `[start, end]` (the two are put in
    /// order if they arrive swapped). `stage` and `component` must be
    /// [`stage`] and [`component`] constants: any other name panics.
    pub fn record_span(
        &self,
        job_id: u64,
        attempt: u32,
        stage: &'static str,
        component: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let span = TraceSpan::new(stage, component, attempt, start.min(end), end.max(start));
        let mut inner = self.inner.lock();
        // A job with a trace was never tombstoned (only an evicted
        // job's trace is, as it goes), so a span of a job already
        // traced costs one lookup.
        if let Some(trace) = inner.traces.get_mut(&job_id) {
            trace.spans.push(span);
            if stage == stage::GRADED {
                // The job is over: give back the list's slack, if a
                // retry or a pull left it any.
                trace.spans.shrink_to_fit();
            }
            return;
        }
        if inner.tombstones.contains(&job_id) {
            inner.dropped_late += 1;
            return;
        }
        if inner.order.len() == inner.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.traces.remove(&evicted);
                inner.tombstone(evicted);
            }
        }
        inner.order.push_back(job_id);
        // Room for a clean job's spans: submit, enqueue, then dequeue,
        // fetch, build, run, upload, record and grade.
        let mut spans = Vec::with_capacity(CLEAN_JOB_SPANS);
        spans.push(span);
        inner.traces.insert(job_id, JobTrace { job_id, spans });
    }

    /// Copy of one job's trace.
    pub fn get(&self, job_id: u64) -> Option<JobTrace> {
        self.inner.lock().traces.get(&job_id).cloned()
    }

    /// Move every retained trace out, oldest job first, leaving the
    /// store empty. For the owner of a course that is over: a job that
    /// records a span after this starts a fresh, truncated trace.
    pub(crate) fn take_all(&self) -> Vec<JobTrace> {
        let mut inner = self.inner.lock();
        let TraceStoreInner { traces, order, .. } = &mut *inner;
        let mut all = Vec::with_capacity(order.len());
        all.extend(order.drain(..).filter_map(|id| traces.remove(&id)));
        all
    }

    /// Late span records dropped because their job was already evicted.
    pub(crate) fn dropped_late(&self) -> u64 {
        self.inner.lock().dropped_late
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().order.len()
    }
}

impl TraceStoreInner {
    fn tombstone(&mut self, job_id: u64) {
        let cap = self.capacity.saturating_mul(TOMBSTONES_PER_CAPACITY).max(1);
        if self.tombstone_order.len() == cap {
            if let Some(old) = self.tombstone_order.pop_front() {
                self.tombstones.remove(&old);
            }
        }
        if self.tombstones.insert(job_id) {
            self.tombstone_order.push_back(job_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn trace_records_lifecycle_in_order() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(7, 0, stage::SUBMITTED, component::CLIENT, t(1), t(1));
        store.record_span(7, 0, stage::ENQUEUED, component::BROKER, t(1), t(1));
        store.record_span(7, 1, stage::DEQUEUED, component::BROKER, t(4), t(4));
        store.record_span(7, 1, stage::RAN, component::SANDBOX, t(9), t(9));
        let trace = store.get(7).expect("trace exists");
        assert!(trace.is_monotone());
        assert_eq!(trace.stage_time(stage::DEQUEUED), Some(SimTime::from_secs(4)));
        assert_eq!(trace.total_duration(), SimDuration::from_secs(8));
    }

    #[test]
    fn store_evicts_oldest_job() {
        let store = TraceStore::with_capacity(2);
        let t = SimTime::from_secs;
        store.record_span(1, 0, stage::SUBMITTED, component::CLIENT, t(1), t(1));
        store.record_span(2, 0, stage::SUBMITTED, component::CLIENT, t(2), t(2));
        store.record_span(3, 0, stage::SUBMITTED, component::CLIENT, t(3), t(3));
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        assert!(store.get(3).is_some());
        // Appending to a surviving trace must not re-insert it.
        store.record_span(2, 0, stage::ENQUEUED, component::BROKER, t(4), t(4));
        assert_eq!(store.get(2).expect("trace").spans.len(), 2);
    }

    #[test]
    fn late_event_for_evicted_job_is_dropped_not_resurrected() {
        let store = TraceStore::with_capacity(2);
        let t = SimTime::from_secs;
        store.record_span(1, 0, stage::SUBMITTED, component::CLIENT, t(1), t(1));
        store.record_span(2, 0, stage::SUBMITTED, component::CLIENT, t(2), t(2));
        store.record_span(3, 0, stage::SUBMITTED, component::CLIENT, t(3), t(3)); // evicts 1
        assert!(store.get(1).is_none());
        // A late event for the evicted job must not create a fresh
        // truncated trace (which would evict job 2 in turn).
        store.record_span(1, 1, stage::GRADED, component::WORKER, t(9), t(9));
        assert!(store.get(1).is_none(), "evicted job resurrected");
        assert!(store.get(2).is_some(), "live trace evicted by a zombie");
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped_late(), 1);
    }

    #[test]
    fn retries_become_sibling_attempt_subtrees() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(5, 0, stage::SUBMITTED, component::CLIENT, t(0), t(0));
        store.record_span(5, 0, stage::ENQUEUED, component::BROKER, t(0), t(0));
        // Attempt 1 dequeues, fetches, then crashes.
        store.record_span(5, 1, stage::DEQUEUED, component::BROKER, t(10), t(10));
        store.record_span(5, 1, stage::FETCHED, component::STORE, t(10), t(12));
        store.record_span(5, 1, stage::CRASHED, component::FAULT, t(13), t(13));
        // Attempt 2 runs the job to completion.
        store.record_span(5, 2, stage::DEQUEUED, component::BROKER, t(40), t(40));
        store.record_span(5, 2, stage::FETCHED, component::STORE, t(40), t(41));
        store.record_span(5, 2, stage::RAN, component::SANDBOX, t(41), t(47));
        store.record_span(5, 2, stage::GRADED, component::WORKER, t(48), t(48));
        let trace = store.get(5).expect("trace exists");
        assert_eq!(trace.spans.len(), 9, "only what was recorded is stored");
        let roots = trace.roots();
        assert_eq!(roots.iter().map(|r| r.attempt).collect::<Vec<_>>(), [0, 1, 2]);
        let names = |r: &TraceSpan| (r.stage(), r.component());
        assert_eq!(names(&roots[0]), (stage::SUBMIT_ROOT, component::CLIENT));
        assert_eq!(names(&roots[1]), (stage::ATTEMPT_ROOT, component::WORKER));
        assert_eq!((roots[1].start, roots[1].end), (t(10), t(13)));
        assert_eq!(trace.spans.iter().filter(|s| s.attempt == 1).count(), 3);
        assert_eq!(trace.final_attempt(), Some(2));
    }

    #[test]
    fn swapped_bounds_are_put_in_order() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(6, 2, stage::RAN, component::SANDBOX, t(25), t(15));
        let trace = store.get(6).expect("trace exists");
        assert_eq!((trace.spans[0].start, trace.spans[0].end), (t(15), t(25)));
    }

    #[test]
    fn a_span_is_two_names_an_attempt_and_an_interval() {
        // Each name is one byte: its position in its table.
        assert_eq!(std::mem::size_of::<TraceSpan>(), 24);
    }

    #[test]
    fn every_stage_and_component_constant_reads_back_as_recorded() {
        let stages = [
            stage::SUBMITTED,
            stage::ENQUEUED,
            stage::DEQUEUED,
            stage::FETCHED,
            stage::BUILT,
            stage::RAN,
            stage::UPLOADED,
            stage::GRADED,
            stage::PULLED,
            stage::RECORDED,
            stage::CRASHED,
            stage::SUBMIT_ROOT,
            stage::ATTEMPT_ROOT,
        ];
        let components = [
            component::CLIENT,
            component::BROKER,
            component::WORKER,
            component::STORE,
            component::SANDBOX,
            component::DB,
            component::FAULT,
        ];
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        for (i, &st) in stages.iter().enumerate() {
            for (j, &comp) in components.iter().enumerate() {
                let at = t((i * components.len() + j) as u64);
                store.record_span(1, i as u32, st, comp, at, at);
            }
        }
        let trace = store.get(1).expect("recorded");
        let read: Vec<(&str, &str)> =
            trace.spans.iter().map(|s| (s.stage(), s.component())).collect();
        let recorded: Vec<(&str, &str)> =
            stages.iter().flat_map(|&st| components.iter().map(move |&comp| (st, comp))).collect();
        assert_eq!(read, recorded);
        // A name is equal to itself only: no two constants share a code.
        let distinct = |names: &[&str]| names.iter().collect::<HashSet<_>>().len() == names.len();
        assert!(distinct(&stages) && distinct(&components));
        // The first `ran` span is the one with the first component.
        assert_eq!(trace.stage_time(stage::RAN), Some(t(5 * components.len() as u64)));
    }

    #[test]
    #[should_panic(expected = "\"compiled\" is not a stage name")]
    fn a_name_outside_the_constants_is_a_caller_bug() {
        let t = SimTime::from_secs(1);
        TraceStore::new().record_span(1, 1, "compiled", component::WORKER, t, t);
    }

    #[test]
    fn take_all_moves_the_traces_out_in_order_and_a_graded_job_keeps_no_slack() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        for job_id in [3, 1, 2] {
            store.record_span(job_id, 0, stage::SUBMITTED, component::CLIENT, t(job_id), t(job_id));
            store.record_span(job_id, 1, stage::DEQUEUED, component::BROKER, t(job_id), t(job_id));
            store.record_span(job_id, 1, stage::RAN, component::SANDBOX, t(job_id), t(job_id));
        }
        store.record_span(1, 1, stage::GRADED, component::WORKER, t(9), t(9));
        let copied: Vec<JobTrace> = [3, 1, 2].map(|id| store.get(id).expect("retained")).into();
        let moved = store.take_all();
        assert_eq!(moved.iter().map(|tr| tr.job_id).collect::<Vec<_>>(), vec![3, 1, 2]);
        for (m, c) in moved.iter().zip(&copied) {
            assert_eq!(m.spans, c.spans, "the moved trace is the one a reader saw");
        }
        // Job 1 was graded at four spans; the others stopped at three in
        // a list grown for four.
        assert_eq!((moved[1].spans.len(), moved[1].spans.capacity()), (4, 4));
        assert!(moved[0].spans.capacity() > moved[0].spans.len());
        assert!(store.len() == 0 && store.get(3).is_none());
        assert_eq!(moved.capacity(), 3, "sized once, for what was there");
    }

    #[test]
    fn empty_trace_total_duration_is_zero() {
        let trace = JobTrace::default();
        assert_eq!(trace.total_duration(), SimDuration::ZERO);
        assert!(trace.is_monotone());
    }
}

/// The recorder this module shipped until a trace stopped storing its
/// tree, with the two readers that walked the stored tree: each attempt
/// got a root span, created just ahead of its first child and widened
/// to cover every child after it, and every span carried its id (its
/// position in the list) and its parent's. Kept as the oracle the flat
/// recorder and its derived roots must read the same as.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::critical::{attribute_paths, critical_path, segment, CriticalPath, PathSegment};
    use crate::{attribute, render_chrome_trace};
    use proptest::prelude::*;

    /// A span with its id (its position in the list) and its parent's.
    struct TreeSpan {
        id: u32,
        parent: Option<u32>,
        span: TraceSpan,
    }

    struct TreeTrace {
        job_id: u64,
        spans: Vec<TreeSpan>,
    }

    impl TreeTrace {
        fn record_span(
            &mut self,
            attempt: u32,
            stage: &'static str,
            component: &'static str,
            start: SimTime,
            end: SimTime,
        ) {
            let (end, start) = (end.max(start), start.min(end));
            let root =
                self.spans.iter().position(|s| s.parent.is_none() && s.span.attempt == attempt);
            let root_id = match root {
                Some(idx) => {
                    let root = &mut self.spans[idx];
                    root.span.start = root.span.start.min(start);
                    root.span.end = root.span.end.max(end);
                    root.id
                }
                None => {
                    let id = self.spans.len() as u32;
                    let (stage, component) = if attempt == 0 {
                        (stage::SUBMIT_ROOT, component::CLIENT)
                    } else {
                        (stage::ATTEMPT_ROOT, component::WORKER)
                    };
                    let span = TraceSpan::new(stage, component, attempt, start, end);
                    self.spans.push(TreeSpan { id, parent: None, span });
                    id
                }
            };
            let id = self.spans.len() as u32;
            let span = TraceSpan::new(stage, component, attempt, start, end);
            self.spans.push(TreeSpan { id, parent: Some(root_id), span });
        }

        fn roots(&self) -> Vec<&TreeSpan> {
            self.spans.iter().filter(|s| s.parent.is_none()).collect()
        }

        fn children(&self, id: u32) -> Vec<&TreeSpan> {
            self.spans.iter().filter(|s| s.parent == Some(id)).collect()
        }

        fn final_attempt(&self) -> Option<u32> {
            self.spans.iter().map(|s| s.span.attempt).filter(|&a| a > 0).max()
        }
    }

    fn tree_critical_path(trace: &TreeTrace) -> Option<CriticalPath> {
        let start = trace.spans.iter().map(|s| s.span.start).min()?;
        let end = trace.spans.iter().map(|s| s.span.end).max()?;
        let final_attempt = trace.final_attempt().unwrap_or(0);
        let mut roots = trace.roots();
        roots.sort_by_key(|r| r.span.attempt);
        let mut segments = Vec::new();
        let mut cursor = start;
        let mut push = |stage, component, start: SimTime, end: SimTime, wasted| {
            if end > start {
                segments.push(PathSegment { stage, component, start, end, wasted });
            }
        };
        for root in &roots {
            let root_span = &root.span;
            if root_span.start > cursor && root_span.attempt > 0 {
                let retry =
                    roots.iter().any(|r| r.span.attempt > 0 && r.span.attempt < root_span.attempt);
                let (label, wasted) =
                    if retry { (segment::RETRY_WAIT, true) } else { (segment::QUEUE_WAIT, false) };
                push(label, component::BROKER, cursor, root_span.start, wasted);
                cursor = root_span.start;
            }
            let wasted = root_span.attempt > 0 && root_span.attempt < final_attempt;
            let mut children = trace.children(root.id);
            children.sort_by_key(|c| (c.span.start, c.id));
            for child in children {
                let (stage, component) = (child.span.stage(), child.span.component());
                let TraceSpan { start, end, .. } = child.span;
                if start > cursor {
                    push(segment::OTHER, component::WORKER, cursor, start, wasted);
                    cursor = start;
                }
                if end > cursor {
                    push(stage, component, cursor.max(start), end, wasted);
                    cursor = end;
                }
            }
            if root_span.end > cursor {
                push(segment::OTHER, component::WORKER, cursor, root_span.end, wasted);
                cursor = root_span.end;
            }
        }
        Some(CriticalPath { start, end, segments })
    }

    fn tree_chrome_trace(traces: &[TreeTrace]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for trace in traces {
            for s in &trace.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let span = &s.span;
                let ts = span.start.as_millis().saturating_mul(1_000);
                let dur = crate::latency::duration_micros(span.end.duration_since(span.start));
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{},\"attempt\":{},\"span\":{},\"parent\":{}}}}}",
                    span.stage(),
                    span.component(),
                    ts,
                    dur,
                    trace.job_id,
                    trace.job_id,
                    span.attempt,
                    s.id,
                    s.parent.map_or(-1i64, i64::from),
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// The worker-side stages a random attempt can record.
    const ATTEMPT_STAGES: [(&str, &str); 9] = [
        (stage::DEQUEUED, component::BROKER),
        (stage::PULLED, component::SANDBOX),
        (stage::FETCHED, component::STORE),
        (stage::BUILT, component::SANDBOX),
        (stage::RAN, component::SANDBOX),
        (stage::UPLOADED, component::STORE),
        (stage::RECORDED, component::DB),
        (stage::GRADED, component::WORKER),
        (stage::CRASHED, component::FAULT),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Crash/retry schedules as the worker loop records them —
        /// attempts in delivery order, time advancing — followed by
        /// late spans for any attempt at any time (a stalled attempt's
        /// marker, swapped bounds, an interval reaching back into an
        /// earlier attempt). The flat recorder's derived roots, its
        /// critical paths, attribution table and Chrome export equal
        /// what the stored tree gave.
        #[test]
        fn flat_recorder_reads_as_the_tree_it_replaces(
            jobs in prop::collection::vec(
                (
                    // 1..4 worker attempts, each 1..5 (stage, duration ms).
                    prop::collection::vec(
                        prop::collection::vec((0usize..9, 0u64..5_000), 1..5),
                        1..4,
                    ),
                    // Late spans: (attempt, stage, start ms, end ms).
                    prop::collection::vec((0u32..5, 0usize..9, 0u64..40_000, 0u64..40_000), 0..3),
                ),
                1..6,
            ),
            gap_ms in 0u64..10_000,
        ) {
            let store = TraceStore::new();
            let mut trees = Vec::new();
            for (job, (attempts, late)) in jobs.iter().enumerate() {
                let mut tree = TreeTrace { job_id: job as u64, spans: Vec::new() };
                let mut record = |attempt, (stage, component): (&'static str, _), start, end| {
                    let (start, end) = (SimTime::from_millis(start), SimTime::from_millis(end));
                    store.record_span(job as u64, attempt, stage, component, start, end);
                    tree.record_span(attempt, stage, component, start, end);
                };
                let mut clock = 0u64;
                record(0, (stage::SUBMITTED, component::CLIENT), clock, clock);
                record(0, (stage::ENQUEUED, component::BROKER), clock, clock);
                for (i, stages) in attempts.iter().enumerate() {
                    clock += gap_ms;
                    for &(stage_idx, dur_ms) in stages {
                        record(i as u32 + 1, ATTEMPT_STAGES[stage_idx], clock, clock + dur_ms);
                        clock += dur_ms;
                    }
                }
                for &(attempt, stage_idx, start, end) in late {
                    record(attempt, ATTEMPT_STAGES[stage_idx], start, end);
                }
                trees.push(tree);
            }
            let flat = store.take_all();
            prop_assert_eq!(flat.len(), trees.len());
            for (trace, tree) in flat.iter().zip(&trees) {
                let tree_roots: Vec<TraceSpan> =
                    tree.roots().iter().map(|r| r.span.clone()).collect();
                prop_assert_eq!(trace.roots(), tree_roots);
                prop_assert_eq!(trace.final_attempt(), tree.final_attempt());
                prop_assert_eq!(trace.spans.len() + trace.roots().len(), tree.spans.len());
                let (path, tree_path) = (critical_path(trace), tree_critical_path(tree));
                prop_assert_eq!(
                    path.map(|p| (p.start, p.end, p.segments)),
                    tree_path.map(|p| (p.start, p.end, p.segments))
                );
            }
            prop_assert_eq!(
                attribute(&flat).table(),
                attribute_paths(trees.iter().filter_map(tree_critical_path)).table()
            );
            prop_assert_eq!(render_chrome_trace(&flat), tree_chrome_trace(&trees));
        }
    }
}
