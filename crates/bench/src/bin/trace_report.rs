//! **Causal-trace attribution report**: where does the semester wall
//! go — written to `BENCH_trace.json`.
//!
//! Write mode (default) runs the pinned semester (12 teams x 21 days)
//! and the chaos acceptance scenario, and:
//!
//! 1. extracts every job's critical path from its span tree and prints
//!    the "where does the semester wall go" attribution table
//!    (per-component/per-stage share, totals, exact p50/p95/p99/p99.9
//!    from the deterministic log-bucketed histograms);
//! 2. folds the *entire deterministic artifact* — attribution tables,
//!    queue-wait histogram encoding, end-to-end histogram encoding,
//!    backpressure sparklines, and the Chrome trace-event export — into
//!    one fingerprint (spans carry logical sim-times, so the artifact
//!    is a pure function of the seed);
//! 3. writes the Perfetto-loadable Chrome trace JSON for a sample
//!    window of jobs to `target/trace_semester.json` and
//!    `target/trace_chaos.json`;
//! 4. commits the artifact fingerprint, end-to-end quantiles, and the
//!    p99 SLO to `BENCH_trace.json`.
//!
//! Check mode (`--check`, the CI trace job) re-runs both scenarios,
//! requires the artifact fingerprint and end-to-end p99 to match the
//! committed values *exactly*, and enforces the p99 SLO ceiling. It
//! writes nothing.
//!
//! ```text
//! cargo run --release -p rai-bench --bin trace_report [--check] [seed]
//! ```

use rai_archive::fnv::Fnv1a;
use rai_bench::extract;
use rai_telemetry::{attribute, names, render_chrome_trace, JobTrace};
use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};

/// Pinned scale, matching the perf baseline (`perf_report`).
const TEAMS: usize = 12;
const DAYS: u64 = 21;

/// Jobs included in the Chrome trace export sample window. Bounds the
/// JSON size while still exercising every span shape.
const CHROME_SAMPLE_JOBS: usize = 256;

/// SLO ceiling on the semester's end-to-end p99 (sim-time µs). The
/// committed value must sit under this; a pipeline change that pushes
/// tail latency past it fails CI even if it is deterministic.
const E2E_P99_SLO_MICROS: u64 = 3_600_000_000; // one sim-hour

const SCHEMA: &str = "rai-trace-bench/2";

/// Everything deterministic one (semester, chaos) pair produces.
struct Artifact {
    semester_table: String,
    queue_encoding: String,
    e2e_encoding: String,
    depth_sparkline: String,
    in_flight_sparkline: String,
    chrome_semester: String,
    chaos_table: String,
    chrome_chaos: String,
    chaos_wasted_micros: u64,
    e2e_p50_micros: u64,
    e2e_p99_micros: u64,
    semester_jobs: u64,
    chaos_jobs: u64,
}

impl Artifact {
    fn fingerprint(&self) -> u64 {
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
}

fn chrome_sample(traces: &[JobTrace]) -> String {
    render_chrome_trace(&traces[..traces.len().min(CHROME_SAMPLE_JOBS)])
}

/// Run both pinned scenarios and distil the artifact.
fn run(seed: u64) -> (Artifact, SemesterResult, ChaosResult) {
    let sem = run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed));
    let attr = attribute(&sem.traces);
    let chaos = run_chaos(&ChaosConfig::acceptance(seed));
    chaos.verify().expect("chaos audit");
    let chaos_attr = attribute(&chaos.traces);
    let e2e = attr.end_to_end.summary();
    let artifact = Artifact {
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
    };
    (artifact, sem, chaos)
}

fn render_json(seed: u64, artifact: &Artifact) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"semester\": {\n");
    out.push_str(&format!("    \"teams\": {TEAMS},\n"));
    out.push_str(&format!("    \"days\": {DAYS},\n"));
    out.push_str(&format!("    \"jobs\": {},\n", artifact.semester_jobs));
    out.push_str(&format!(
        "    \"e2e_p50_micros\": {},\n",
        artifact.e2e_p50_micros
    ));
    out.push_str(&format!(
        "    \"e2e_p99_micros\": {},\n",
        artifact.e2e_p99_micros
    ));
    out.push_str(&format!(
        "    \"artifact_fingerprint\": \"{:#018x}\"\n",
        artifact.fingerprint()
    ));
    out.push_str("  },\n");
    out.push_str("  \"chaos\": {\n");
    out.push_str(&format!("    \"jobs\": {},\n", artifact.chaos_jobs));
    out.push_str(&format!(
        "    \"wasted_micros\": {}\n",
        artifact.chaos_wasted_micros
    ));
    out.push_str("  },\n");
    out.push_str("  \"slo\": {\n");
    out.push_str(&format!(
        "    \"e2e_p99_ceiling_micros\": {E2E_P99_SLO_MICROS}\n"
    ));
    out.push_str("  },\n");
    out.push_str(
        "  \"note\": \"the artifact (attribution tables, histogram encodings, sparklines, Chrome trace sample) is a pure function of the seed\"\n",
    );
    out.push_str("}\n");
    out
}

fn check(seed: u64) {
    let committed =
        std::fs::read_to_string("BENCH_trace.json").expect("read committed BENCH_trace.json");
    assert_eq!(extract(&committed, "schema", "schema"), SCHEMA, "unexpected schema");
    let committed_fp = extract(&committed, "semester", "artifact_fingerprint").to_string();
    let committed_p99: u64 = extract(&committed, "semester", "e2e_p99_micros")
        .parse()
        .expect("e2e_p99_micros is a number");
    let ceiling: u64 = extract(&committed, "slo", "e2e_p99_ceiling_micros")
        .parse()
        .expect("e2e_p99_ceiling_micros is a number");

    let (artifact, _, _) = run(seed);
    let fp = format!("{:#018x}", artifact.fingerprint());
    assert_eq!(
        fp, committed_fp,
        "trace artifact fingerprint drifted from the committed baseline \
         (regenerate BENCH_trace.json if the pipeline's latency model changed on purpose)"
    );
    // Sim-time latency is a pure function of the seed: the p99 must
    // reproduce exactly, and stay under the SLO ceiling.
    assert_eq!(
        artifact.e2e_p99_micros, committed_p99,
        "end-to-end p99 drifted from the committed baseline"
    );
    assert!(
        artifact.e2e_p99_micros <= ceiling,
        "end-to-end p99 {}µs above the SLO ceiling {}µs",
        artifact.e2e_p99_micros,
        ceiling
    );
    println!(
        "trace check: artifact {fp} and e2e p99 {}µs == committed, under SLO {}µs",
        artifact.e2e_p99_micros, ceiling
    );
}

fn main() {
    let args = rai_bench::ReportArgs::from_env();
    let seed = args.seed();

    if args.check {
        check(seed);
        return;
    }

    rai_bench::header(&format!("causal-trace attribution — seed {seed}"));
    let (artifact, sem, chaos) = run(seed);

    rai_bench::header("where does the semester wall go (critical-path attribution)");
    print!("{}", artifact.semester_table);

    rai_bench::header("queue wait + backpressure");
    println!("  queue wait {}", sem.queue_wait.summary().render_secs());
    println!("  queue depth  {}", artifact.depth_sparkline);
    println!("  in flight    {}", artifact.in_flight_sparkline);

    rai_bench::header("chaos attribution (wasted work under faults)");
    print!("{}", artifact.chaos_table);
    println!(
        "  wasted (redone attempts + retry waits): {:.1}s across {} jobs",
        artifact.chaos_wasted_micros as f64 / 1e6,
        artifact.chaos_jobs
    );

    rai_bench::header("trace-store health");
    for (label, metrics) in [("semester", &sem.metrics), ("chaos", &chaos.metrics)] {
        println!(
            "  {label:<9} {} {}",
            names::TRACES_DROPPED_LATE_TOTAL,
            metrics.counter_total(names::TRACES_DROPPED_LATE_TOTAL)
        );
    }

    // The Perfetto-loadable exports (load via ui.perfetto.dev or
    // chrome://tracing).
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/trace_semester.json", &artifact.chrome_semester)
        .expect("write target/trace_semester.json");
    std::fs::write("target/trace_chaos.json", &artifact.chrome_chaos)
        .expect("write target/trace_chaos.json");
    println!(
        "\nwrote target/trace_semester.json + target/trace_chaos.json \
         ({} + {} bytes, first {CHROME_SAMPLE_JOBS} jobs each)",
        artifact.chrome_semester.len(),
        artifact.chrome_chaos.len()
    );

    assert!(
        artifact.e2e_p99_micros <= E2E_P99_SLO_MICROS,
        "end-to-end p99 {}µs above the SLO ceiling {E2E_P99_SLO_MICROS}µs",
        artifact.e2e_p99_micros
    );
    std::fs::write("BENCH_trace.json", render_json(seed, &artifact))
        .expect("write BENCH_trace.json");
    println!(
        "wrote BENCH_trace.json (artifact {:#018x}, e2e p99 {}µs under SLO {E2E_P99_SLO_MICROS}µs)",
        artifact.fingerprint(),
        artifact.e2e_p99_micros
    );
}
