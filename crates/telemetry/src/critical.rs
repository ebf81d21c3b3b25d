//! Critical-path extraction and latency attribution over span trees.
//!
//! A submission's end-to-end latency is a single causal chain — submit
//! → queue → (attempt₁ … attemptₙ) → graded — so its critical path is
//! the trace itself with every instant accounted to exactly one
//! segment: a recorded span (attributed to its stage + component), a
//! gap between attempt envelopes ([`JobTrace::roots`]: queue wait or
//! retry redelivery wait), or an unattributed gap inside an attempt
//! (worker overhead such as auth/validation that has no dedicated
//! span). Summing segments over every job answers "where does the
//! semester wall go": per-stage / per-component totals, shares of the
//! summed end-to-end latency, and a deterministic [`LogHistogram`] per
//! segment kind.

use crate::latency::{duration_micros, LogHistogram};
use crate::trace::{component, JobTrace, TraceSpan};
use rai_sim::{SimDuration, SimTime};

/// Synthetic segment labels (gaps that have no recorded span).
pub mod segment {
    /// Broker queue wait before the first delivery.
    pub(crate) const QUEUE_WAIT: &str = "queue-wait";
    /// Redelivery wait between a failed attempt and the next one.
    pub(crate) const RETRY_WAIT: &str = "retry-wait";
    /// Unattributed time inside an attempt (auth, validation, …).
    pub(crate) const OTHER: &str = "other";
}

/// One segment of a job's critical path.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PathSegment {
    pub(crate) stage: &'static str,
    pub(crate) component: &'static str,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    /// Work on a non-final attempt: it was redone after a crash.
    pub(crate) wasted: bool,
}

impl PathSegment {
    pub(crate) fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// A job's end-to-end latency split into contiguous segments.
#[derive(Clone, Debug)]
pub(crate) struct CriticalPath {
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) segments: Vec<PathSegment>,
}

impl CriticalPath {
    pub(crate) fn total(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Extract the critical path of one trace. Returns `None` for an empty
/// trace. Segments are contiguous, non-overlapping, and cover
/// `[start, end]` exactly.
pub(crate) fn critical_path(trace: &JobTrace) -> Option<CriticalPath> {
    if trace.spans.is_empty() {
        return None;
    }
    let start = trace.spans.iter().map(|s| s.start).min()?;
    let end = trace.spans.iter().map(|s| s.end).max()?;
    let final_attempt = trace.final_attempt().unwrap_or(0);
    let mut roots = trace.roots();
    roots.sort_by_key(|r| r.attempt);
    let mut segments = Vec::new();
    let mut cursor = start;
    let push = |segments: &mut Vec<PathSegment>, seg: PathSegment| {
        if seg.end > seg.start {
            segments.push(seg);
        }
    };
    for root in &roots {
        // Gap before this subtree: queue wait ahead of the first worker
        // attempt, redelivery wait ahead of every retry.
        if root.start > cursor && root.attempt > 0 {
            let (label, wasted) = if roots
                .iter()
                .any(|r| r.attempt > 0 && r.attempt < root.attempt)
            {
                (segment::RETRY_WAIT, true)
            } else {
                (segment::QUEUE_WAIT, false)
            };
            push(
                &mut segments,
                PathSegment {
                    stage: label,
                    component: component::BROKER,
                    start: cursor,
                    end: root.start,
                    wasted,
                },
            );
            cursor = root.start;
        }
        let wasted = root.attempt > 0 && root.attempt < final_attempt;
        // The attempt's spans, by start; ties keep recording order.
        let mut children: Vec<&TraceSpan> =
            trace.spans.iter().filter(|s| s.attempt == root.attempt).collect();
        children.sort_by_key(|c| c.start);
        for child in children {
            if child.start > cursor {
                // Unattributed time inside the attempt.
                push(
                    &mut segments,
                    PathSegment {
                        stage: segment::OTHER,
                        component: component::WORKER,
                        start: cursor,
                        end: child.start,
                        wasted,
                    },
                );
                cursor = child.start;
            }
            if child.end > cursor {
                push(
                    &mut segments,
                    PathSegment {
                        stage: child.stage(),
                        component: child.component(),
                        start: cursor.max(child.start),
                        end: child.end,
                        wasted,
                    },
                );
                cursor = child.end;
            }
        }
        if root.end > cursor {
            push(
                &mut segments,
                PathSegment {
                    stage: segment::OTHER,
                    component: component::WORKER,
                    start: cursor,
                    end: root.end,
                    wasted,
                },
            );
            cursor = root.end;
        }
    }
    Some(CriticalPath { start, end, segments })
}

/// One aggregate row: everything attributed to (`component`, `stage`).
#[derive(Clone, Debug)]
pub(crate) struct AttributionRow {
    pub(crate) component: &'static str,
    pub(crate) stage: &'static str,
    pub(crate) total_micros: u64,
    /// Number of segments (≥ jobs that hit this stage; retries add more).
    pub(crate) count: u64,
    /// Micros attributed to non-final (redone) attempts.
    pub(crate) wasted_micros: u64,
    pub(crate) hist: LogHistogram,
}

/// The "where does the wall go" aggregate over many jobs.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub jobs: u64,
    /// Sum of end-to-end latencies, µs.
    pub(crate) total_micros: u64,
    /// End-to-end latency distribution.
    pub end_to_end: LogHistogram,
    /// Rows sorted by attributed share, descending (ties by name).
    pub(crate) rows: Vec<AttributionRow>,
}

/// Aggregate critical paths over every trace.
pub fn attribute(traces: &[JobTrace]) -> Attribution {
    attribute_paths(traces.iter().filter_map(critical_path))
}

/// Fold critical paths into one row per (component, stage).
pub(crate) fn attribute_paths(paths: impl IntoIterator<Item = CriticalPath>) -> Attribution {
    let mut out = Attribution::default();
    let mut rows: Vec<AttributionRow> = Vec::new();
    for path in paths {
        out.jobs += 1;
        let e2e = path.total();
        out.end_to_end.record(e2e);
        out.total_micros = out.total_micros.saturating_add(duration_micros(e2e));
        for seg in &path.segments {
            let micros = duration_micros(seg.duration());
            let row = match rows
                .iter_mut()
                .find(|r| r.component == seg.component && r.stage == seg.stage)
            {
                Some(row) => row,
                None => {
                    rows.push(AttributionRow {
                        component: seg.component,
                        stage: seg.stage,
                        total_micros: 0,
                        count: 0,
                        wasted_micros: 0,
                        hist: LogHistogram::new(),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.total_micros = row.total_micros.saturating_add(micros);
            row.count += 1;
            if seg.wasted {
                row.wasted_micros = row.wasted_micros.saturating_add(micros);
            }
            row.hist.record_micros(micros);
        }
    }
    rows.sort_by(|a, b| {
        b.total_micros
            .cmp(&a.total_micros)
            .then_with(|| a.component.cmp(b.component))
            .then_with(|| a.stage.cmp(b.stage))
    });
    out.rows = rows;
    out
}

impl Attribution {
    /// Fixed-format attribution table: one row per (component, stage),
    /// share of the summed end-to-end latency, and exact quantiles.
    /// Deterministic: byte-identical for identical traces.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:<11} {:>7} {:>12} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
            "component", "stage", "share%", "total_s", "n", "p50_s", "p95_s", "p99_s", "p99.9_s"
        ));
        for row in &self.rows {
            let share = if self.total_micros == 0 {
                0.0
            } else {
                row.total_micros as f64 / self.total_micros as f64 * 100.0
            };
            let s = row.hist.summary();
            out.push_str(&format!(
                "{:<8} {:<11} {:>7.2} {:>12.3} {:>8} {:>9.4} {:>9.4} {:>9.4} {:>9.4}\n",
                row.component,
                row.stage,
                share,
                row.total_micros as f64 / 1e6,
                row.count,
                s.p50_micros as f64 / 1e6,
                s.p95_micros as f64 / 1e6,
                s.p99_micros as f64 / 1e6,
                s.p999_micros as f64 / 1e6,
            ));
        }
        let e2e = self.end_to_end.summary();
        out.push_str(&format!(
            "end-to-end: jobs={} {}\n",
            self.jobs,
            e2e.render_secs()
        ));
        out
    }

    /// Total micros attributed to wasted (redone) work.
    pub fn wasted_micros(&self) -> u64 {
        self.rows.iter().map(|r| r.wasted_micros).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{stage, TraceStore};
    use rai_sim::SimTime;

    fn crash_retry_trace() -> JobTrace {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(1, 0, stage::SUBMITTED, component::CLIENT, t(0), t(0));
        store.record_span(1, 0, stage::ENQUEUED, component::BROKER, t(0), t(0));
        store.record_span(1, 1, stage::DEQUEUED, component::BROKER, t(5), t(5));
        store.record_span(1, 1, stage::FETCHED, component::STORE, t(5), t(7));
        store.record_span(1, 1, stage::CRASHED, component::FAULT, t(8), t(8));
        store.record_span(1, 2, stage::DEQUEUED, component::BROKER, t(20), t(20));
        store.record_span(1, 2, stage::FETCHED, component::STORE, t(20), t(21));
        store.record_span(1, 2, stage::RAN, component::SANDBOX, t(21), t(30));
        store.record_span(1, 2, stage::GRADED, component::WORKER, t(31), t(31));
        store.get(1).expect("trace")
    }

    #[test]
    fn segments_cover_end_to_end_exactly() {
        let trace = crash_retry_trace();
        let path = critical_path(&trace).expect("non-empty");
        assert_eq!(path.total(), SimDuration::from_secs(31));
        // Contiguous, ordered cover of [start, end].
        let mut cursor = path.start;
        for seg in &path.segments {
            assert_eq!(seg.start, cursor, "gap before {seg:?}");
            assert!(seg.end > seg.start);
            cursor = seg.end;
        }
        assert_eq!(cursor, path.end);
        let total: u64 = path.segments.iter().map(|s| duration_micros(s.duration())).sum();
        assert_eq!(total, duration_micros(path.total()));
    }

    #[test]
    fn queue_and_retry_waits_are_separated() {
        let trace = crash_retry_trace();
        let path = critical_path(&trace).expect("non-empty");
        let queue: Vec<_> = path
            .segments
            .iter()
            .filter(|s| s.stage == segment::QUEUE_WAIT)
            .collect();
        let retry: Vec<_> = path
            .segments
            .iter()
            .filter(|s| s.stage == segment::RETRY_WAIT)
            .collect();
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].duration(), SimDuration::from_secs(5));
        assert_eq!(retry.len(), 1);
        // Attempt 1 envelope ended at the crash marker (8 s); redelivery
        // waited until 20 s.
        assert_eq!(retry[0].duration(), SimDuration::from_secs(12));
        assert!(retry[0].wasted);
        // Attempt-1 work (between the queue wait and the retry wait) is
        // flagged wasted, attempt-2 work (after the retry wait) is not.
        let (first, second): (Vec<_>, Vec<_>) = path
            .segments
            .iter()
            .filter(|s| s.stage != segment::QUEUE_WAIT && s.stage != segment::RETRY_WAIT)
            .partition(|s| s.end <= retry[0].start);
        assert!(!first.is_empty() && first.iter().all(|s| s.wasted));
        assert!(!second.is_empty() && second.iter().all(|s| !s.wasted));
    }

    #[test]
    fn attribution_conserves_latency_and_orders_rows() {
        let trace = crash_retry_trace();
        let agg = attribute(&[trace.clone(), trace]);
        assert_eq!(agg.jobs, 2);
        assert_eq!(agg.total_micros, 2 * 31_000_000);
        let attributed: u64 = agg.rows.iter().map(|r| r.total_micros).sum();
        assert_eq!(attributed, agg.total_micros, "segments must cover e2e");
        // Rows sorted by share, descending.
        for w in agg.rows.windows(2) {
            assert!(w[0].total_micros >= w[1].total_micros);
        }
        // The table renders and mentions the dominant segment.
        let table = agg.table();
        assert!(table.contains("retry-wait"));
        assert!(table.contains("end-to-end: jobs=2"));
    }
}
