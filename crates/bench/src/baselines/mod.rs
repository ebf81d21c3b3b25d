//! The committed baselines: one deterministic renderer per
//! `BENCH_*.json`, and the chaos acceptance run.
//!
//! Every value rendered here is a function of the pinned seeds, so the
//! gate is one comparison — re-rendered text equals the committed file,
//! byte for byte (`tests/baselines.rs`, run by `cargo test`). What each
//! report bin used to assert on its own is asserted inside the renderer
//! it writes with, so the test and the write bin cannot disagree on
//! what a valid baseline is. Regenerate a file by running its bin
//! (`perf_report`, `trace_report`, `store_report`, `recovery_report`)
//! from the repository root. Wall-clock numbers never go into the JSON.

mod recovery;
mod store;
mod trace;

pub use recovery::{Recovery, SeedReport, KILL};
pub use store::{ratio, Store};
pub use trace::{Trace, CHROME_SAMPLE_JOBS, E2E_P99_SLO_MICROS};

use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};

/// The seed `BENCH_perf.json`, `BENCH_trace.json` and `BENCH_store.json`
/// are pinned to.
pub const SEED: u64 = 2016;

/// The seeds `BENCH_recovery.json` and the chaos acceptance run are
/// pinned to.
pub const SEEDS: [u64; 3] = [SEED, 408, 50181];

/// Pinned semester scale: big enough for the dedup ratios to stabilize,
/// small enough to run under `cargo test`.
pub const TEAMS: usize = 12;
/// See [`TEAMS`].
pub const DAYS: u64 = 21;

/// The pinned semester's configuration.
fn semester_config() -> SemesterConfig {
    SemesterConfig::scaled(TEAMS, DAYS, SEED)
}

/// The two pinned courses the perf, trace and store baselines are all
/// rendered from.
pub struct Courses {
    /// The `scaled(TEAMS, DAYS, SEED)` semester.
    pub semester: SemesterResult,
    /// `ChaosConfig::acceptance(SEED)`'s course; its audit has passed.
    pub chaos: ChaosResult,
}

impl Courses {
    /// Run both courses. Panics if the chaos audit fails.
    pub fn run() -> Self {
        let semester = run_semester(&semester_config());
        let chaos = run_chaos(&ChaosConfig::acceptance(SEED));
        chaos.verify().expect("chaos no-lost/no-duplicated audit");
        Courses { semester, chaos }
    }
}

/// `BENCH_perf.json`: the two courses' fingerprints.
pub fn perf(courses: &Courses) -> String {
    format!(
        r#"{{
  "schema": "rai-perf-bench/8",
  "seed": {SEED},
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
        submissions = courses.semester.total_submissions,
        sem_fp = courses.semester.fingerprint(),
        accepted = courses.chaos.accepted.len(),
        chaos_fp = courses.chaos.fingerprint,
    )
}

/// The chaos acceptance run on one seed (≥5% worker crash rate, ≥2%
/// store/db fault rate, broker publish rejections, poison jobs, one
/// instance death mid-run). Panics unless every accepted submission
/// reaches a terminal state exactly once or leaves via the dead-letter
/// topic, only poison jobs are dead-lettered, the scheduled instance
/// death fired, and a same-seed re-run is identical.
pub fn chaos_acceptance(seed: u64) -> ChaosResult {
    let config = ChaosConfig::acceptance(seed);
    let result = run_chaos(&config);
    let repeat = run_chaos(&config);
    result.verify().expect("no-lost-submissions invariant");
    assert!(
        !result.dead_lettered.is_empty(),
        "seed {seed}: chaos plan has poison jobs; some must dead-letter"
    );
    for id in &result.dead_lettered {
        assert!(
            config.plan.is_poison(*id),
            "seed {seed}: only poison jobs should exhaust the attempt cap, got {id}"
        );
    }
    assert!(result.instances_failed >= 1, "seed {seed}: the scheduled instance death fired");
    assert_eq!(
        result.fingerprint, repeat.fingerprint,
        "seed {seed}: same-seed chaos runs must be byte-identical"
    );
    assert_eq!(result.accepted, repeat.accepted);
    assert_eq!(result.dead_lettered, repeat.dead_lettered);
    result
}
