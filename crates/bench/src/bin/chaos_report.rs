//! The **chaos acceptance run**: a fault-injected semester proving the
//! no-lost-submissions guarantee.
//!
//! Runs the chaos scenario (≥5% worker crash rate, ≥2% store/db fault
//! rate, broker publish rejections, poison jobs, one instance death
//! mid-run) on fixed seeds and asserts, per seed:
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

use rai_workload::chaos::{run_chaos, ChaosConfig};

fn main() {
    let seeds = rai_bench::ReportArgs::from_env().seeds_or(&[2016, 408, 0xC405]);

    for &seed in &seeds {
        let config = ChaosConfig::acceptance(seed);
        rai_telemetry::log!(
            info,
            "chaos run: seed {seed}, {} teams x {} rounds, {} workers, plan {:?}",
            config.teams,
            config.rounds,
            config.workers,
            config.plan
        );
        let result = run_chaos(&config);
        let repeat = run_chaos(&config);

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
            "  fingerprint                 {:#018x} (re-run: {:#018x})",
            result.fingerprint, repeat.fingerprint
        );

        // The acceptance criteria, hard-asserted.
        result.verify().expect("no-lost-submissions invariant");
        assert!(
            !result.dead_lettered.is_empty(),
            "chaos plan has poison jobs; some must dead-letter"
        );
        for id in &result.dead_lettered {
            assert!(
                config.plan.is_poison(*id),
                "only poison jobs should exhaust the attempt cap, got {id}"
            );
        }
        assert!(result.instances_failed >= 1, "the scheduled instance death fired");
        assert_eq!(
            result.fingerprint, repeat.fingerprint,
            "same-seed chaos runs must be byte-identical"
        );
        assert_eq!(result.accepted, repeat.accepted);
        assert_eq!(result.dead_lettered, repeat.dead_lettered);

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
