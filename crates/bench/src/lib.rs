//! # rai-bench — the experiment harness
//!
//! One binary per paper table/figure (see `src/bin/`), plus criterion
//! micro-benchmarks for every substrate (see `benches/`). The
//! `EXPERIMENTS.md` at the repository root indexes paper-vs-measured
//! for each.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1_features`      | Table I feature comparison |
//! | `fig2_histogram`       | Fig. 2 top-30 runtime histogram |
//! | `fig3_delivery`        | Fig. 3 client download matrix |
//! | `fig4_timeline`        | Fig. 4 submissions/hour, last 2 weeks |
//! | `listing3_keys`        | Listing 3 key-delivery e-mails |
//! | `semester_report`      | §VII resource-usage numbers |
//! | `ablation_concurrency` | §V single-job timing-accuracy claim |
//! | `ablation_elasticity`  | §IV/§VII elasticity claim |
//! | `ablation_log_gc`      | ephemeral log-topic GC design choice |
//! | `chaos_report`         | §IV crash-requeue guarantee, audited under chaos |
//! | `store_report`         | storage dedup baseline (`BENCH_store.json`, DESIGN.md §10) |
//! | `perf_report`          | fingerprint baseline (`BENCH_perf.json`, DESIGN.md §11) |
//! | `trace_report`         | causal-trace attribution baseline (`BENCH_trace.json`, DESIGN.md §13) |
//! | `recovery_report`      | crash-recovery baseline (`BENCH_recovery.json`, DESIGN.md §14) |
//!
//! The report bins share their argument scan ([`ReportArgs`]), their
//! committed-baseline reader ([`extract`]) and their synthetic payload
//! bytes ([`pseudorandom`]) through this library.

use rai_auth::{sign_request, Credentials};
use rai_core::client::ProjectDir;
use rai_core::protocol::{JobKind, JobRequest};
use rai_core::spec::FINAL_SUBMISSION_YML;
use rai_store::ObjectStore;

/// Print a section header for bench-binary output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The arguments every report bin takes: `[--check] [seed...]`, in any
/// order; anything that is neither is ignored.
pub struct ReportArgs {
    /// `--check`: compare against the committed baseline, write nothing.
    pub check: bool,
    seeds: Vec<u64>,
}

impl ReportArgs {
    /// Scan the process arguments.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ReportArgs {
            check: args.iter().any(|a| a == "--check"),
            seeds: args.iter().filter_map(|a| a.parse().ok()).collect(),
        }
    }

    /// The first seed given, or 2016 — the seed every committed
    /// `BENCH_*.json` is pinned to.
    pub fn seed(&self) -> u64 {
        self.seeds.first().copied().unwrap_or(2016)
    }

    /// Every seed given, or `pinned` when none was.
    pub fn seeds_or(self, pinned: &[u64]) -> Vec<u64> {
        if self.seeds.is_empty() { pinned.to_vec() } else { self.seeds }
    }
}

/// Pull `"key": value` out of the named top-level section of a
/// committed `BENCH_*.json` (the files are our own hand-rendered
/// format, so a positional scan is exact).
pub fn extract<'a>(json: &'a str, section: &str, key: &str) -> &'a str {
    let sec = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("committed baseline: no \"{section}\" section"));
    let rest = &json[sec..];
    let k = rest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("committed baseline: no \"{key}\" in \"{section}\""));
    let after = &rest[k..];
    let colon = after.find(':').expect("key has a value");
    after[colon + 1..]
        .split([',', '\n', '}'])
        .next()
        .expect("value before delimiter")
        .trim()
        .trim_matches('"')
}

/// The next `len` bytes of the LCG stream `state` is at: deterministic
/// and incompressible, with boundaries everywhere the chunker's mask
/// allows.
pub fn pseudorandom(len: usize, state: &mut u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as u8
        })
        .collect()
}

/// Build a ready-to-process final-submission job request: uploads the
/// project and returns the signed request. Shared by the ablation
/// binaries, which drive `Worker::process_with_coscheduled` directly.
pub fn staged_final_request(
    store: &ObjectStore,
    creds: &Credentials,
    team: &str,
    project: &ProjectDir,
    job_id: u64,
) -> JobRequest {
    let container = rai_archive::write_container(&project.tree);
    let key = format!("{team}/{job_id:08x}.tar.bz2");
    store
        .put(rai_core::client::UPLOAD_BUCKET, &key, container, [])
        .expect("upload bucket exists");
    let mut request = JobRequest {
        job_id,
        access_key: creds.access_key.clone(),
        signature: String::new(),
        team: team.to_string(),
        upload_bucket: rai_core::client::UPLOAD_BUCKET.to_string(),
        upload_key: key,
        build_yml: FINAL_SUBMISSION_YML.to_string(),
        kind: JobKind::Submit,
    };
    request.signature = sign_request(&creds.secret_key, &creds.access_key, &request.signing_payload());
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_auth::KeyGenerator;
    use rai_sim::VirtualClock;
    use rai_store::LifecycleRule;

    #[test]
    fn staged_request_round_trips() {
        let store = ObjectStore::new(VirtualClock::new());
        store
            .create_bucket(rai_core::client::UPLOAD_BUCKET, LifecycleRule::Keep)
            .unwrap();
        let creds = KeyGenerator::from_seed(1).generate("t");
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let req = staged_final_request(&store, &creds, "t", &project, 7);
        assert_eq!(req.kind, JobKind::Submit);
        assert!(store.get(rai_core::client::UPLOAD_BUCKET, &req.upload_key).is_ok());
        let decoded = JobRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }
}
