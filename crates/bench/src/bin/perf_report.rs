//! The **fingerprint baseline**: the pinned semester and chaos
//! courses' fingerprints, written to `BENCH_perf.json`. Every value in
//! the file is a function of the seed; anything timed — the pipeline's
//! wall-clock and throughput, and the per-layer rows — is the repo
//! benchmark's job (`benchmark/`, `BENCHMARK.json`).
//!
//! Runs both courses (the chaos audit must pass) and writes the file
//! `rai_bench::baselines::perf` renders; `cargo test` holds the
//! committed file to the same rendering.
//!
//! ```text
//! cargo run --release -p rai-bench --bin perf_report
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_bench::baselines::{self, Courses, DAYS, SEED, TEAMS};

fn main() {
    rai_bench::args_or_usage("perf_report  (no arguments; writes BENCH_perf.json to the working directory)", 0, &[]);
    rai_bench::header(&format!("fingerprint baseline — seed {SEED}"));

    let courses = Courses::run();
    let Courses { semester, chaos } = &courses;
    println!(
        "  semester ({TEAMS} teams x {DAYS} days, {} submissions)",
        semester.total_submissions
    );
    println!("    fingerprint               {:#018x}", semester.fingerprint());
    println!("  chaos ({} accepted, audit pass)", chaos.accepted.len());
    println!("    fingerprint               {:#018x}", chaos.fingerprint);

    std::fs::write("BENCH_perf.json", baselines::perf(&courses)).expect("write BENCH_perf.json");
    println!("\nwrote BENCH_perf.json");
}
