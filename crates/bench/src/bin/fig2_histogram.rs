//! Regenerates **Figure 2**: the histogram of the top-30 teams' final
//! competition runtimes in 0.1-second bins.
//!
//! The paper's reference points: "Most teams fell within the 1 second
//! runtime", "5 teams had a runtime between 0.4 and 0.5 seconds", and
//! "the slowest submission took 2 minutes to complete". All 58 team
//! finals run through a real deployment (client → broker → worker →
//! container → ranking DB).
//!
//! ```text
//! cargo run --release -p rai-bench --bin fig2_histogram
//! ```

use rai_workload::competition::{SEED, STUDENTS, TEAMS};
use rai_workload::run_competition;

fn main() {
    eprintln!("running the final competition: {TEAMS} teams ({STUDENTS} students), seed {SEED}");
    let result = run_competition();
    assert!(result.failures.is_empty(), "failed finals: {:?}", result.failures);

    rai_bench::header("Figure 2 — top-30 final runtimes, 0.1 s bins");
    print!("{}", result.histogram.ascii(48));

    rai_bench::header("leaderboard (anonymized view omitted — instructor view)");
    for (i, (team, secs)) in result.standings.iter().enumerate().take(10) {
        println!("  #{:<3} {:<10} {:>8.3} s", i + 1, team, secs);
    }
    println!("  …");
    let (slowest_team, slowest) = result.standings.last().expect("58 teams ranked");
    println!("  #{:<3} {:<10} {:>8.3} s", result.standings.len(), slowest_team, slowest);

    rai_bench::header("paper vs measured");
    let under_1s = result.standings.iter().take(30).filter(|(_, s)| *s < 1.0).count();
    let bin_04_05 = result.histogram.bin(4);
    println!("  top-30 under 1 s      paper: 'most'      measured: {under_1s}/30");
    println!("  teams in [0.4, 0.5) s paper: 5           measured: {bin_04_05}");
    println!("  slowest submission    paper: ~2 min      measured: {slowest:.1} s");
    assert!(under_1s >= 18);
    assert!((100.0..140.0).contains(slowest));

    // The same top-30 population through the deterministic log-bucketed
    // latency histogram: the migrated figures must agree with the
    // fixed-bin histogram above for the reference seed.
    rai_bench::header("top-30 runtimes (log-bucketed latency histogram)");
    let summary = result.runtimes.summary();
    println!("  {}", summary.render_secs());
    assert_eq!(summary.count, 30, "one sample per top-30 team");
    let log_under_1s = result.runtimes.count_le_micros(999_999);
    assert_eq!(
        log_under_1s, under_1s as u64,
        "log-histogram under-1s count must match the exact standings count"
    );
    let log_bin_04_05 =
        result.runtimes.count_le_micros(499_999) - result.runtimes.count_le_micros(399_999);
    assert_eq!(
        log_bin_04_05,
        bin_04_05,
        "log-histogram [0.4, 0.5) count must match the 0.1 s-bin histogram"
    );
    // The straggler is outside the top 30, so the top-30 max stays in
    // the sub-2.5 s cluster; quantiles never exceed the observed max.
    assert!(summary.p999_micros <= summary.max_micros);
    assert!(summary.max_micros < 2_500_000);
}
