//! The **chaos acceptance run**: a fault-injected semester proving the
//! no-lost-submissions guarantee.
//!
//! Runs the chaos scenario (≥5% worker crash rate, ≥2% store/db fault
//! rate, broker publish rejections, poison jobs, one instance death
//! mid-run) on the given seeds — the three pinned ones by default, which
//! `cargo test` also runs — and asserts, per seed
//! (`rai_bench::baselines::chaos_acceptance`):
//!
//! 1. every accepted submission reaches a terminal state exactly once
//!    in the database (or leaves via the dead-letter topic);
//! 2. nothing is double-counted and nothing is lost;
//! 3. a same-seed re-run is byte-identical (fingerprint equality);
//! 4. poison messages are reported on `rai/tasks#dead`.
//!
//! ```text
//! cargo run --release -p rai-bench --bin chaos_report [seed...]
//! ```

use rai_bench::baselines::{chaos_acceptance, SEEDS};
use rai_workload::chaos::ChaosConfig;

fn main() {
    let args = rai_bench::args_or_usage("chaos_report [seed...]", usize::MAX, &[]);
    let seeds = if args.seeds.is_empty() { SEEDS.to_vec() } else { args.seeds };

    for &seed in &seeds {
        let config = ChaosConfig::acceptance(seed);
        eprintln!(
            "chaos run: seed {seed}, {} teams x {} rounds, {} workers, plan {:?}",
            config.teams,
            config.rounds,
            config.workers,
            config.plan
        );
        // The acceptance criteria are hard-asserted in here.
        let result = chaos_acceptance(seed);

        rai_bench::header(&format!("chaos run — seed {seed}"));
        println!("  accepted submissions        {}", result.accepted.len());
        println!("  rejected at submit (visible){:>5}", result.rejected);
        println!("  terminal database rows      {}", result.terminal.len());
        println!(
            "  dead-lettered (poison)      {}  {:?}",
            result.dead_lettered.len(),
            result.dead_lettered
        );
        println!("  duplicated rows             {}", result.duplicated.len());
        println!("  lost submissions            {}", result.lost.len());
        println!("  instances died mid-run      {}", result.instances_failed);
        println!("  injected faults by kind:");
        for (kind, n) in &result.injected {
            println!("    {kind:<14} {n}");
        }
        println!(
            "  fingerprint                 {:#018x} (same on a re-run)",
            result.fingerprint
        );

        let crash_rate = result
            .injected
            .iter()
            .filter(|(k, _)| k == "worker_crash" || k == "worker_stall")
            .map(|(_, n)| *n)
            .sum::<u64>() as f64
            / result.accepted.len() as f64;
        println!("  worker crash+stall per job  {crash_rate:.3}");
        println!("  seed {seed}: all invariants hold");
    }
    println!("\nchaos acceptance: {} seed(s) verified", seeds.len());
}
