//! `BENCH_trace.json`: where the semester wall goes. Every job's
//! critical path is extracted from its span tree, and the *entire
//! deterministic artifact* — attribution tables, queue-wait and
//! end-to-end histogram encodings, backpressure sparklines, and the
//! Chrome trace-event export of a sample window — is folded into one
//! fingerprint (spans carry logical sim-times, so the artifact is a
//! pure function of the seed).

use super::{Courses, DAYS, SEED, TEAMS};
use rai_archive::fnv::Fnv1a;
use rai_telemetry::{attribute, render_chrome_trace, JobTrace};

/// Jobs included in the Chrome trace export sample window. Bounds the
/// JSON size while still exercising every span shape.
pub const CHROME_SAMPLE_JOBS: usize = 256;

/// SLO ceiling on the semester's end-to-end p99 (sim-time µs), one
/// sim-hour. A pipeline change that pushes tail latency past it fails
/// the gate even if it is deterministic; the ceiling is rendered into
/// the file, so editing it there fails the byte comparison.
pub const E2E_P99_SLO_MICROS: u64 = 3_600_000_000;

/// Everything deterministic the pinned (semester, chaos) pair's traces
/// produce.
pub struct Trace {
    pub semester_table: String,
    pub(crate) queue_encoding: String,
    pub(crate) e2e_encoding: String,
    pub depth_sparkline: String,
    pub in_flight_sparkline: String,
    pub chrome_semester: String,
    pub chaos_table: String,
    pub chrome_chaos: String,
    pub chaos_wasted_micros: u64,
    pub(crate) e2e_p50_micros: u64,
    pub e2e_p99_micros: u64,
    pub(crate) semester_jobs: u64,
    pub chaos_jobs: u64,
}

fn chrome_sample(traces: &[JobTrace]) -> String {
    render_chrome_trace(&traces[..traces.len().min(CHROME_SAMPLE_JOBS)])
}

impl Trace {
    /// Distil the artifact from both courses' traces. Panics if the
    /// end-to-end p99 is above [`E2E_P99_SLO_MICROS`].
    pub fn measure(courses: &Courses) -> Self {
        let Courses { semester: sem, chaos } = courses;
        let attr = attribute(&sem.traces);
        let chaos_attr = attribute(&chaos.traces);
        let e2e = attr.end_to_end.summary();
        assert!(
            e2e.p99_micros <= E2E_P99_SLO_MICROS,
            "end-to-end p99 {}µs above the SLO ceiling {E2E_P99_SLO_MICROS}µs",
            e2e.p99_micros
        );
        Trace {
            semester_table: attr.table(),
            queue_encoding: sem.queue_wait.encode(),
            e2e_encoding: attr.end_to_end.encode(),
            depth_sparkline: sem.depth_series.sparkline(64),
            in_flight_sparkline: sem.in_flight_series.sparkline(64),
            chrome_semester: chrome_sample(&sem.traces),
            chaos_table: chaos_attr.table(),
            chrome_chaos: chrome_sample(&chaos.traces),
            chaos_wasted_micros: chaos_attr.wasted_micros(),
            e2e_p50_micros: e2e.p50_micros,
            e2e_p99_micros: e2e.p99_micros,
            semester_jobs: attr.jobs,
            chaos_jobs: chaos_attr.jobs,
        }
    }

    /// One digest over the whole artifact.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv1a::new();
        for s in [
            &self.semester_table,
            &self.queue_encoding,
            &self.e2e_encoding,
            &self.depth_sparkline,
            &self.in_flight_sparkline,
            &self.chrome_semester,
            &self.chaos_table,
            &self.chrome_chaos,
        ] {
            fp.update(s.as_bytes());
        }
        fp.update(&self.chaos_wasted_micros.to_le_bytes());
        fp.digest()
    }

    /// The text of `BENCH_trace.json`.
    pub fn render(&self) -> String {
        format!(
            r#"{{
  "schema": "rai-trace-bench/2",
  "seed": {SEED},
  "semester": {{
    "teams": {TEAMS},
    "days": {DAYS},
    "jobs": {jobs},
    "e2e_p50_micros": {p50},
    "e2e_p99_micros": {p99},
    "artifact_fingerprint": "{fingerprint:#018x}"
  }},
  "chaos": {{
    "jobs": {chaos_jobs},
    "wasted_micros": {wasted}
  }},
  "slo": {{
    "e2e_p99_ceiling_micros": {E2E_P99_SLO_MICROS}
  }},
  "note": "the artifact (attribution tables, histogram encodings, sparklines, Chrome trace sample) is a pure function of the seed"
}}
"#,
            jobs = self.semester_jobs,
            p50 = self.e2e_p50_micros,
            p99 = self.e2e_p99_micros,
            fingerprint = self.fingerprint(),
            chaos_jobs = self.chaos_jobs,
            wasted = self.chaos_wasted_micros,
        )
    }
}
