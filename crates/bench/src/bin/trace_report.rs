//! **Causal-trace attribution report**: where does the semester wall
//! go — written to `BENCH_trace.json`.
//!
//! Runs the pinned semester (12 teams x 21 days) and the chaos
//! acceptance scenario, and:
//!
//! 1. prints the "where does the semester wall go" attribution table
//!    extracted from every job's critical path (per-component/per-stage
//!    share, totals, exact p50/p95/p99/p99.9 from the deterministic
//!    log-bucketed histograms);
//! 2. writes the Perfetto-loadable Chrome trace JSON for a sample
//!    window of jobs to `target/trace_semester.json` and
//!    `target/trace_chaos.json`;
//! 3. writes the artifact fingerprint, end-to-end quantiles, and the
//!    p99 SLO to `BENCH_trace.json` as `rai_bench::baselines::Trace`
//!    renders them (the p99 must sit under the SLO); `cargo test` holds
//!    the committed file to the same rendering.
//!
//! ```text
//! cargo run --release -p rai-bench --bin trace_report
//! ```

use rai_bench::baselines::{Courses, Trace, CHROME_SAMPLE_JOBS, E2E_P99_SLO_MICROS, SEED};
use rai_telemetry::names;

fn main() {
    rai_bench::args_or_usage("trace_report  (no arguments; writes BENCH_trace.json to the working directory)", 0, &[]);
    rai_bench::header(&format!("causal-trace attribution — seed {SEED}"));
    let courses = Courses::run();
    let artifact = Trace::measure(&courses);
    let Courses { semester: sem, chaos } = &courses;

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

    std::fs::write("BENCH_trace.json", artifact.render()).expect("write BENCH_trace.json");
    println!(
        "wrote BENCH_trace.json (artifact {:#018x}, e2e p99 {}µs under SLO {E2E_P99_SLO_MICROS}µs)",
        artifact.fingerprint(),
        artifact.e2e_p99_micros
    );
}
