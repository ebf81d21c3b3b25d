//! Chrome trace-event JSON export of job span trees.
//!
//! Renders [`JobTrace`]s in the Trace Event Format (the JSON flavour
//! `chrome://tracing` and Perfetto's legacy importer load): one
//! complete event (`"ph":"X"`) per span, timestamps and durations in
//! microseconds of sim-time, one track (`tid`) per job, components as
//! categories. Output is fully deterministic: traces render in store
//! order, spans in recording order, all integers.

use crate::trace::JobTrace;

/// Render traces as a Trace Event Format JSON document.
///
/// `pid` is a constant 1 (one simulated deployment); each job gets its
/// own `tid` so Perfetto lays attempts of the same job on one track.
pub fn render_chrome_trace(traces: &[JobTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = span.start.as_millis().saturating_mul(1_000);
            let dur = crate::latency::duration_micros(span.end.duration_since(span.start));
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{},\"attempt\":{},\"span\":{},\"parent\":{}}}}}",
                span.stage,
                span.component,
                ts,
                dur,
                trace.job_id,
                trace.job_id,
                span.attempt,
                span.id.0,
                span.parent.map_or(-1i64, |p| i64::from(p.0)),
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{component, stage, TraceStore};
    use rai_sim::SimTime;

    #[test]
    fn export_is_valid_trace_event_json() {
        let store = TraceStore::new();
        let t = SimTime::from_secs;
        store.record_span(3, 0, stage::SUBMITTED, component::CLIENT, t(0), t(0));
        store.record_span(3, 1, stage::RAN, component::SANDBOX, t(2), t(7));
        let json = render_chrome_trace(&store.take_all());
        // Structural sanity (the repo has no JSON parser dependency; the
        // bench suite's parse helpers cover exposition JSON instead).
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"ran\""));
        assert!(json.contains("\"cat\":\"sandbox\""));
        assert!(json.contains("\"ts\":2000000"));
        assert!(json.contains("\"dur\":5000000"));
        // Balanced braces/brackets — parseable by any JSON reader.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let store = TraceStore::new();
            let t = SimTime::from_secs;
            store.record_span(1, 1, stage::RAN, component::SANDBOX, t(1), t(4));
            store.record_span(2, 1, stage::RAN, component::SANDBOX, t(2), t(6));
            render_chrome_trace(&store.take_all())
        };
        assert_eq!(build(), build());
    }
}
