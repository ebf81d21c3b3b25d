//! Per-job causal span trees.
//!
//! Every submission that enters the system gets a [`JobTrace`]: an
//! attempt-aware tree of [`TraceSpan`]s stamped with sim-time
//! intervals. Each delivery attempt owns one root span; the pipeline
//! stages a worker executes on that attempt (dequeue → fetch → build →
//! run → upload → grade) hang off that root as children tagged with the
//! component that did the work (broker, store, sandbox, db, …).
//! Client-side work before the first delivery (submit, enqueue) lives
//! under the attempt-0 root. Retries therefore become *sibling attempt
//! subtrees* instead of duplicate stage events in one flat list, which
//! keeps stage durations honest under crash/retry schedules.
//!
//! The flat [`StageEvent`] view ([`JobTrace::events`]) is preserved for
//! consumers that only care about "when did the job reach stage X".

use parking_lot::Mutex;
use rai_sim::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};

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
    pub const SUBMIT_ROOT: &str = "submit";
    /// Root span of each worker delivery attempt subtree.
    pub const ATTEMPT_ROOT: &str = "attempt";
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

/// Identifier of a span within one job's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// One node of a job's causal span tree: `stage` work done by
/// `component` on delivery `attempt`, covering `[start, end]` sim-time.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    pub id: SpanId,
    /// Parent span; `None` for an attempt root.
    pub parent: Option<SpanId>,
    pub stage: &'static str,
    pub component: &'static str,
    /// Delivery attempt: 0 = client-side submit, 1.. = worker attempts.
    pub attempt: u32,
    pub start: SimTime,
    pub end: SimTime,
}

impl TraceSpan {
    /// True for an attempt root (no parent edge).
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// One flattened lifecycle event: the job reached `stage` at `at`.
#[derive(Clone, Debug, PartialEq)]
pub struct StageEvent {
    pub stage: &'static str,
    pub at: SimTime,
}

/// Full lifecycle of one job as a forest of attempt subtrees.
#[derive(Clone, Debug, Default)]
pub struct JobTrace {
    pub job_id: u64,
    /// All spans in recording order. Roots are created lazily right
    /// before their first child, so a root always precedes its children.
    pub spans: Vec<TraceSpan>,
}

impl JobTrace {
    /// Flat stage-event view: every non-root span in recording order,
    /// stamped with the time the stage *completed*.
    pub fn events(&self) -> Vec<StageEvent> {
        self.spans
            .iter()
            .filter(|s| !s.is_root())
            .map(|s| StageEvent { stage: s.stage, at: s.end })
            .collect()
    }

    /// Attempt numbers present, ascending.
    pub fn attempts(&self) -> Vec<u32> {
        let mut seen: Vec<u32> = Vec::new();
        for span in &self.spans {
            if !seen.contains(&span.attempt) {
                seen.push(span.attempt);
            }
        }
        seen.sort_unstable();
        seen
    }

    /// All attempt roots, in recording order.
    pub fn roots(&self) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.is_root()).collect()
    }

    /// The root span of one attempt.
    pub fn root_of(&self, attempt: u32) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.is_root() && s.attempt == attempt)
    }

    /// Children of `id`, in recording order.
    pub fn children(&self, id: SpanId) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// The highest worker attempt number (ignores the submit subtree).
    pub fn final_attempt(&self) -> Option<u32> {
        self.spans.iter().map(|s| s.attempt).filter(|&a| a > 0).max()
    }

    /// Time the job first reached `stage`, if it did (completion time of
    /// the earliest-recorded span with that name, any attempt).
    pub fn stage_time(&self, stage: &str) -> Option<SimTime> {
        self.spans
            .iter()
            .find(|s| !s.is_root() && s.stage == stage)
            .map(|s| s.end)
    }

    fn stage_in_attempt(&self, stage: &str, attempt: u32) -> Option<&TraceSpan> {
        // Attempt-0 spans (client-side submit/enqueue) are shared
        // ancestry for every worker attempt, so they match any attempt.
        self.spans
            .iter()
            .find(|s| !s.is_root() && s.stage == stage && (s.attempt == attempt || s.attempt == 0))
    }

    /// Duration between two recorded stages, **attempt-scoped**: both
    /// endpoints must come from the same worker attempt (attempt-0
    /// client-side stages count as part of every attempt). Scans
    /// attempts in ascending order and returns the first attempt that
    /// contains both stages, so a crash-retry trace never pairs an
    /// attempt-1 `DEQUEUED` with an attempt-2 `RAN`.
    pub fn stage_duration(&self, from: &str, to: &str) -> Option<SimDuration> {
        for attempt in self.attempts() {
            if let (Some(f), Some(t)) = (
                self.stage_in_attempt(from, attempt),
                self.stage_in_attempt(to, attempt),
            ) {
                return Some(t.end.duration_since(f.end));
            }
        }
        None
    }

    /// Durations of each consecutive stage pair along the job's causal
    /// chain: attempt-0 client events followed by the **final** worker
    /// attempt's events. Earlier (crashed) attempts are excluded so
    /// retries cannot inflate the deltas.
    pub fn stage_durations(&self) -> Vec<(&'static str, SimDuration)> {
        self.chain()
            .windows(2)
            .map(|w| (w[1].stage, w[1].end.duration_since(w[0].end)))
            .collect()
    }

    /// The causal chain: attempt-0 events then final-attempt events.
    fn chain(&self) -> Vec<&TraceSpan> {
        let last = self.final_attempt();
        self.spans
            .iter()
            .filter(|s| {
                !s.is_root() && (s.attempt == 0 || Some(s.attempt) == last)
            })
            .collect()
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

    /// True when recorded event timestamps never decrease.
    pub fn is_monotone(&self) -> bool {
        self.events().windows(2).all(|w| w[0].at <= w[1].at)
    }

    /// Structural well-formedness: ids unique, parent edges resolve to
    /// earlier-recorded roots, exactly one root per attempt, every
    /// child's interval nests inside its parent's, every span interval
    /// is ordered, and successive attempt roots do not overlap.
    pub fn well_formed(&self) -> Result<(), String> {
        let mut ids = HashSet::new();
        let mut roots_per_attempt: HashMap<u32, u32> = HashMap::new();
        let by_id: HashMap<SpanId, &TraceSpan> =
            self.spans.iter().map(|s| (s.id, s)).collect();
        for span in &self.spans {
            if !ids.insert(span.id) {
                return Err(format!("duplicate span id {:?}", span.id));
            }
            if span.start > span.end {
                return Err(format!("span {:?} ends before it starts", span.id));
            }
            match span.parent {
                None => {
                    *roots_per_attempt.entry(span.attempt).or_insert(0) += 1;
                }
                Some(pid) => {
                    let parent = by_id
                        .get(&pid)
                        .ok_or_else(|| format!("span {:?} has dangling parent", span.id))?;
                    if !parent.is_root() {
                        return Err(format!("span {:?} parent is not a root", span.id));
                    }
                    if parent.attempt != span.attempt {
                        return Err(format!("span {:?} crosses attempts", span.id));
                    }
                    if span.start < parent.start || span.end > parent.end {
                        return Err(format!(
                            "span {:?} [{:?},{:?}] escapes parent [{:?},{:?}]",
                            span.id, span.start, span.end, parent.start, parent.end
                        ));
                    }
                }
            }
        }
        for (attempt, count) in &roots_per_attempt {
            if *count != 1 {
                return Err(format!("attempt {attempt} has {count} roots"));
            }
        }
        let mut roots: Vec<&TraceSpan> = self.roots().into_iter().collect();
        roots.sort_by_key(|r| r.attempt);
        for w in roots.windows(2) {
            if w[1].start < w[0].end {
                return Err(format!(
                    "attempt {} root starts before attempt {} root ends",
                    w[1].attempt, w[0].attempt
                ));
            }
        }
        Ok(())
    }
}

/// Bounded store of job traces, evicting the oldest job once full.
/// Evicted job ids are tombstoned (bounded FIFO) so a late stage event
/// cannot resurrect an evicted job as a fresh truncated trace; such
/// events are counted in [`TraceStore::dropped_late`] instead.
#[derive(Debug)]
pub struct TraceStore {
    inner: Mutex<TraceStoreInner>,
}

#[derive(Debug)]
struct TraceStoreInner {
    traces: HashMap<u64, JobTrace>,
    order: VecDeque<u64>,
    capacity: usize,
    tombstones: HashSet<u64>,
    tombstone_order: VecDeque<u64>,
    dropped_late: u64,
}

/// Default trace retention. A full semester replay submits ~40k jobs;
/// the store keeps the most recent window rather than all of them.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

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

    pub fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            inner: Mutex::new(TraceStoreInner {
                traces: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                tombstones: HashSet::new(),
                tombstone_order: VecDeque::new(),
                dropped_late: 0,
            }),
        }
    }

    /// Record a span for `job_id`: `stage` work by `component` on
    /// delivery `attempt`, covering `[start, end]`. The attempt's root
    /// span is created lazily before its first child and grows to
    /// envelope every child recorded under it.
    pub fn record_span(
        &self,
        job_id: u64,
        attempt: u32,
        stage: &'static str,
        component: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let mut inner = self.inner.lock();
        if inner.tombstones.contains(&job_id) {
            inner.dropped_late += 1;
            return;
        }
        if !inner.traces.contains_key(&job_id) {
            if inner.order.len() == inner.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.traces.remove(&evicted);
                    inner.tombstone(evicted);
                }
            }
            inner.order.push_back(job_id);
            inner
                .traces
                .insert(job_id, JobTrace { job_id, spans: Vec::new() });
        }
        let trace = inner.traces.get_mut(&job_id).expect("just inserted");
        let (end, start) = (end.max(start), start.min(end));
        let root_id = match trace.spans.iter().position(|s| s.is_root() && s.attempt == attempt) {
            Some(idx) => {
                let root = &mut trace.spans[idx];
                root.start = root.start.min(start);
                root.end = root.end.max(end);
                root.id
            }
            None => {
                let id = SpanId(trace.spans.len() as u32);
                let (root_stage, root_component) = if attempt == 0 {
                    (stage::SUBMIT_ROOT, component::CLIENT)
                } else {
                    (stage::ATTEMPT_ROOT, component::WORKER)
                };
                trace.spans.push(TraceSpan {
                    id,
                    parent: None,
                    stage: root_stage,
                    component: root_component,
                    attempt,
                    start,
                    end,
                });
                id
            }
        };
        let id = SpanId(trace.spans.len() as u32);
        trace.spans.push(TraceSpan {
            id,
            parent: Some(root_id),
            stage,
            component,
            attempt,
            start,
            end,
        });
        if stage == stage::GRADED {
            // The job is over: give back the list's doubling slack.
            trace.spans.shrink_to_fit();
        }
    }

    /// Copy of one job's trace.
    pub fn get(&self, job_id: u64) -> Option<JobTrace> {
        self.inner.lock().traces.get(&job_id).cloned()
    }

    /// All retained traces, oldest job first.
    pub fn all(&self) -> Vec<JobTrace> {
        let inner = self.inner.lock();
        inner
            .order
            .iter()
            .filter_map(|id| inner.traces.get(id).cloned())
            .collect()
    }

    /// Move every retained trace out, oldest job first, leaving the
    /// store empty. For the owner of a course that is over: a job that
    /// records a span after this starts a fresh, truncated trace.
    pub fn take_all(&self) -> Vec<JobTrace> {
        let mut inner = self.inner.lock();
        let TraceStoreInner { traces, order, .. } = &mut *inner;
        let mut all = Vec::with_capacity(order.len());
        all.extend(order.drain(..).filter_map(|id| traces.remove(&id)));
        all
    }

    /// Late span records dropped because their job was already evicted.
    pub fn dropped_late(&self) -> u64 {
        self.inner.lock().dropped_late
    }

    pub fn len(&self) -> usize {
        self.inner.lock().order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().order.is_empty()
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
        assert_eq!(
            trace.stage_duration(stage::ENQUEUED, stage::DEQUEUED),
            Some(SimDuration::from_secs(3))
        );
        assert_eq!(trace.total_duration(), SimDuration::from_secs(8));
        trace.well_formed().expect("tree is well-formed");
    }

    #[test]
    fn stage_durations_are_consecutive_deltas() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(1, 0, stage::SUBMITTED, component::CLIENT, t(0), t(0));
        store.record_span(1, 0, stage::ENQUEUED, component::BROKER, t(2), t(2));
        store.record_span(1, 1, stage::DEQUEUED, component::BROKER, t(5), t(5));
        let trace = store.get(1).expect("trace exists");
        assert_eq!(
            trace.stage_durations(),
            vec![
                (stage::ENQUEUED, SimDuration::from_secs(2)),
                (stage::DEQUEUED, SimDuration::from_secs(3)),
            ]
        );
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
        assert_eq!(store.get(2).expect("trace").events().len(), 2);
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
        trace.well_formed().expect("tree is well-formed");
        assert_eq!(trace.attempts(), vec![0, 1, 2]);
        assert_eq!(trace.roots().len(), 3);
        let r1 = trace.root_of(1).expect("attempt 1 root");
        assert_eq!((r1.start, r1.end), (t(10), t(13)));
        assert_eq!(trace.children(r1.id).len(), 3);
        assert_eq!(trace.final_attempt(), Some(2));
    }

    /// Regression: attempt-blind `find` used to pair attempt-1
    /// `DEQUEUED` with attempt-2 `RAN`, inflating the duration across
    /// the crash + redelivery gap.
    #[test]
    fn stage_duration_is_attempt_scoped_under_retries() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(9, 0, stage::ENQUEUED, component::BROKER, t(0), t(0));
        store.record_span(9, 1, stage::DEQUEUED, component::BROKER, t(10), t(10));
        store.record_span(9, 1, stage::CRASHED, component::FAULT, t(11), t(11));
        store.record_span(9, 2, stage::DEQUEUED, component::BROKER, t(100), t(100));
        store.record_span(9, 2, stage::RAN, component::SANDBOX, t(100), t(105));
        let trace = store.get(9).expect("trace exists");
        // Attempt-scoped: 5 s within attempt 2, not 95 s across attempts.
        assert_eq!(
            trace.stage_duration(stage::DEQUEUED, stage::RAN),
            Some(SimDuration::from_secs(5))
        );
        // Queue wait pairs the shared attempt-0 enqueue with the FIRST
        // dequeue (attempt 1).
        assert_eq!(
            trace.stage_duration(stage::ENQUEUED, stage::DEQUEUED),
            Some(SimDuration::from_secs(10))
        );
        // stage_durations follows attempt 0 + the final attempt only.
        let durations = trace.stage_durations();
        assert_eq!(
            durations,
            vec![
                (stage::DEQUEUED, SimDuration::from_secs(100)),
                (stage::RAN, SimDuration::from_secs(5)),
            ]
        );
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
        let copied = store.all();
        let moved = store.take_all();
        assert_eq!(moved.iter().map(|tr| tr.job_id).collect::<Vec<_>>(), vec![3, 1, 2]);
        for (m, c) in moved.iter().zip(&copied) {
            assert_eq!(m.spans, c.spans, "the moved trace is the one a reader saw");
        }
        // Job 1 was graded at six spans; the others stopped at five in
        // a list grown for eight.
        assert_eq!((moved[1].spans.len(), moved[1].spans.capacity()), (6, 6));
        assert!(moved[0].spans.capacity() > moved[0].spans.len());
        assert!(store.is_empty() && store.all().is_empty() && store.get(3).is_none());
        assert_eq!(moved.capacity(), 3, "sized once, for what was there");
    }

    #[test]
    fn empty_trace_total_duration_is_zero() {
        let trace = JobTrace::default();
        assert_eq!(trace.total_duration(), SimDuration::ZERO);
        assert!(trace.is_monotone());
        trace.well_formed().expect("empty tree is well-formed");
    }
}
