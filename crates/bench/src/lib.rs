//! # rai-bench — the experiment harness
//!
//! One binary per paper table/figure (see `src/bin/`). The
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
//! | `ablation_concurrency` | §V single-job timing-accuracy claim (`WorkerConfig::max_in_flight` 1 / 2 / 4 / 8, each job submitted by a client and run by `Worker::try_step`) |
//! | `ablation_elasticity`  | §IV/§VII elasticity claim |
//! | `ablation_log_gc`      | ephemeral log-topic GC design choice |
//! | `chaos_report`         | §IV crash-requeue guarantee, audited under chaos |
//! | `store_report`         | storage dedup baseline (`BENCH_store.json`, DESIGN.md §10) |
//! | `perf_report`          | fingerprint baseline (`BENCH_perf.json`, DESIGN.md §11) |
//! | `trace_report`         | causal-trace attribution baseline (`BENCH_trace.json`, DESIGN.md §13) |
//! | `recovery_report`      | crash-recovery baseline (`BENCH_recovery.json`, DESIGN.md §14) |
//! | `hash_floor`           | bulk-path passes at the cost of one FNV-1a chain (DESIGN.md §10) |
//!
//! The figure, listing, table and ablation bins assert the claim they
//! reproduce and exit non-zero when it fails; CI runs the nine that
//! take seconds after its release build, then `heap_census --paper`,
//! which fails above its live-heap ceiling, and `hash_floor`, which
//! fails a bulk-path pass that costs more than 1.3 chains.
//!
//! The four `*_report` bins that write a committed `BENCH_*.json` render
//! it with [`baselines`], the one place that knows what a valid
//! baseline is; `cargo test` re-renders each and compares it with the
//! committed file (`tests/baselines.rs`). The report bins share their
//! argument scan (`scan_args`) and their synthetic payload bytes
//! ([`pseudorandom`]) through this library.

#![forbid(unsafe_code)]

pub mod baselines;

/// Print a section header for bench-binary output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// What a report bin was asked for: every argument that is a decimal
/// `u64` is a seed, every other one must be in `flags`.
#[derive(Debug, PartialEq, Eq)]
pub struct ReportArgs {
    pub seeds: Vec<u64>,
    /// The members of `flags` that were given.
    pub flags: Vec<String>,
}

/// Scan a report bin's arguments. More than `max_seeds` seeds, or an
/// argument that is neither a seed nor one of `flags`, is an error that
/// names it: a mistyped flag must not run the bin as if it were absent
/// (the bins that take none overwrite a committed baseline).
pub(crate) fn scan_args(
    args: impl IntoIterator<Item = String>,
    max_seeds: usize,
    flags: &[&str],
) -> Result<ReportArgs, String> {
    let mut out = ReportArgs { seeds: Vec::new(), flags: Vec::new() };
    for arg in args {
        if let Ok(seed) = arg.parse() {
            if out.seeds.len() == max_seeds {
                return Err(format!("unexpected seed {arg}"));
            }
            out.seeds.push(seed);
        } else if flags.contains(&arg.as_str()) {
            out.flags.push(arg);
        } else {
            return Err(format!("unrecognised argument {arg:?}"));
        }
    }
    Ok(out)
}

/// `scan_args` over the process arguments; on an error, print it and
/// `usage` to stderr and exit 2 before anything runs.
pub fn args_or_usage(usage: &str, max_seeds: usize, flags: &[&str]) -> ReportArgs {
    scan_args(std::env::args().skip(1), max_seeds, flags).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {usage}");
        std::process::exit(2);
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(args: &[&str], max_seeds: usize, flags: &[&str]) -> Result<ReportArgs, String> {
        scan_args(args.iter().map(|a| a.to_string()), max_seeds, flags)
    }

    #[test]
    fn a_mistyped_argument_is_refused_not_ignored() {
        // The bins that write a committed baseline take nothing at all.
        assert_eq!(scan(&[], 0, &[]), Ok(ReportArgs { seeds: vec![], flags: vec![] }));
        for typo in ["--chekc", "-check", "--write", "2016", "seed", ""] {
            let err = scan(&[typo], 0, &[]).expect_err(typo);
            assert!(err.contains(typo), "{err:?} does not name {typo:?}");
        }
        // `chaos_report`: seeds only, and only decimal ones.
        assert_eq!(scan(&["2016", "408"], usize::MAX, &[]).unwrap().seeds, [2016, 408]);
        assert!(scan(&["2016", "0xC405"], usize::MAX, &[]).is_err());
        assert!(scan(&["-1"], usize::MAX, &[]).is_err());
        // `heap_census`: one seed and its flag, in any order.
        let args = scan(&["--paper", "7"], 1, &["--paper"]).unwrap();
        assert_eq!((args.seeds, args.flags), (vec![7], vec!["--paper".to_string()]));
        assert!(scan(&["7", "8"], 1, &["--paper"]).is_err());
        assert!(scan(&["--papre"], 1, &["--paper"]).is_err());
    }
}
