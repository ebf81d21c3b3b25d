//! The **fingerprint baseline**: the pinned semester and chaos
//! workloads' fingerprints, written to `BENCH_perf.json`. Every value
//! in the file is a function of the seed; anything timed — the
//! pipeline's wall-clock and throughput, and the per-layer rows — is
//! the repo benchmark's job (`benchmark/`, `BENCHMARK.json`) or a
//! criterion bench under `crates/bench/benches/`.
//!
//! Write mode (default) runs the semester workload and the chaos
//! acceptance scenario (audit must pass) and records both fingerprints.
//!
//! Check mode (`--check`, the CI job) re-runs both, verifies the
//! committed `BENCH_perf.json` schema, and asserts both fingerprints
//! still match the committed values exactly. It writes nothing.
//!
//! ```text
//! cargo run --release -p rai-bench --bin perf_report [--check] [seed]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_bench::extract;
use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};

/// Pinned scale, matching the store baseline (`store_report`).
const TEAMS: usize = 12;
const DAYS: u64 = 21;

const SCHEMA: &str = "rai-perf-bench/8";

// ----------------------------------------------------------------- json

fn render(seed: u64, semester: &SemesterResult, chaos: &ChaosResult) -> String {
    format!(
        r#"{{
  "schema": "{SCHEMA}",
  "seed": {seed},
  "semester": {{
    "teams": {TEAMS},
    "days": {DAYS},
    "submissions": {submissions},
    "fingerprint": "{sem_fp:#018x}"
  }},
  "chaos": {{
    "accepted": {accepted},
    "audit": "pass",
    "fingerprint": "{chaos_fp:#018x}"
  }}
}}
"#,
        submissions = semester.total_submissions,
        sem_fp = semester.fingerprint(),
        accepted = chaos.accepted.len(),
        chaos_fp = chaos.fingerprint,
    )
}

// ----------------------------------------------------------------- main

fn check(seed: u64) {
    let committed =
        std::fs::read_to_string("BENCH_perf.json").expect("read committed BENCH_perf.json");
    assert_eq!(extract(&committed, "schema", "schema"), SCHEMA, "unexpected schema");
    let committed_sem_fp = extract(&committed, "semester", "fingerprint");
    let committed_chaos_fp = extract(&committed, "chaos", "fingerprint");

    let semester = run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed));
    let sem_fp = format!("{:#018x}", semester.fingerprint());
    assert_eq!(
        sem_fp, committed_sem_fp,
        "semester fingerprint drifted from the committed baseline"
    );
    let chaos = run_chaos(&ChaosConfig::acceptance(seed));
    chaos.verify().expect("chaos audit");
    let chaos_fp = format!("{:#018x}", chaos.fingerprint);
    assert_eq!(
        chaos_fp, committed_chaos_fp,
        "chaos fingerprint drifted from the committed baseline"
    );
    println!("perf check: fingerprints match ({sem_fp} / {chaos_fp})");
}

fn main() {
    let args = rai_bench::ReportArgs::from_env();
    let seed = args.seed();
    if args.check {
        check(seed);
        return;
    }

    rai_bench::header(&format!("fingerprint baseline — seed {seed}"));

    let semester = run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed));
    println!(
        "  semester ({TEAMS} teams x {DAYS} days, {} submissions)",
        semester.total_submissions
    );
    println!("    fingerprint               {:#018x}", semester.fingerprint());

    let chaos = run_chaos(&ChaosConfig::acceptance(seed));
    chaos.verify().expect("chaos audit");
    println!("  chaos ({} accepted, audit pass)", chaos.accepted.len());
    println!("    fingerprint               {:#018x}", chaos.fingerprint);

    std::fs::write("BENCH_perf.json", render(seed, &semester, &chaos))
        .expect("write BENCH_perf.json");
    println!("\nwrote BENCH_perf.json");
}
