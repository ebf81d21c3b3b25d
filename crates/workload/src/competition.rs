//! The Fig. 2 experiment: the end-of-semester competition.
//!
//! Every team's final tuned project goes through a *real* deployment —
//! client packaging, upload, queue, worker, container, ranking database
//! — exactly like `rai submit`; the result is the leaderboard histogram
//! the paper plots (top 30 teams, 0.1 s bins).

use crate::teams::TeamRoster;
use rai_core::{RaiSystem, SystemConfig};
use rai_telemetry::{Histogram, LogHistogram};

/// Teams in the competition (paper: 58).
pub const TEAMS: usize = 58;

/// Students across those teams (paper: 176).
pub const STUDENTS: u32 = 176;

/// Seed of the class roster.
pub const SEED: u64 = 2016;

/// The histogram covers the top N teams (paper: 30)…
const TOP_N: usize = 30;

/// …in bins this many seconds wide (paper: 0.1).
const BIN_WIDTH: f64 = 0.1;

/// Competition outputs.
#[derive(Debug)]
pub struct CompetitionResult {
    /// Final standings, fastest first: `(team, student-visible secs)`.
    pub standings: Vec<(String, f64)>,
    /// The Fig. 2 histogram over the top N teams.
    pub histogram: Histogram,
    /// The same top-N runtime population in the deterministic
    /// log-bucketed latency histogram (µs resolution); the fixed-bin
    /// `histogram` stays for the paper figure's exact 0.1 s bins.
    pub runtimes: LogHistogram,
    /// Teams whose final submission failed (should be none).
    pub failures: Vec<String>,
}

/// Run the competition through a real deployment.
pub fn run_competition() -> CompetitionResult {
    let roster = TeamRoster::generate(TEAMS, STUDENTS, SEED);
    let mut system = RaiSystem::new(SystemConfig {
        // Benchmarking weeks: fleet workers run a single job each, so
        // timings are clean.
        workers: 4,
        rate_limit: None, // irrelevant for one final submission per team
        seed: SEED,
        ..Default::default()
    });
    let mut failures = Vec::new();
    for team in &roster.teams {
        let creds = system.register_team(&team.name, &[]);
        match system.submit_final(&creds, &team.final_project()) {
            Ok(receipt) if receipt.success => {}
            _ => failures.push(team.name.clone()),
        }
    }
    let board = system.rankings();
    let standings = board.standings();
    // 25 bins of 0.1 s covers the sub-2.5 s cluster; the straggler lands
    // in the overflow bucket, like the paper's "slowest … 2 minutes".
    let histogram = board.top_n_histogram(TOP_N, BIN_WIDTH, 25);
    let mut runtimes = LogHistogram::new();
    for (_, secs) in standings.iter().take(TOP_N) {
        runtimes.record_secs(*secs);
    }
    CompetitionResult {
        standings,
        histogram,
        runtimes,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_class_shape_matches_figure2() {
        let result = run_competition();
        assert!(result.failures.is_empty());
        assert_eq!(result.standings.len(), 58);
        for w in result.standings.windows(2) {
            assert!(w[0].1 <= w[1].1, "standings sorted ascending");
        }
        assert_eq!(result.histogram.total(), 30);
        // Paper: most of the top 30 land under 1 second.
        let under_1s = result
            .standings
            .iter()
            .take(30)
            .filter(|(_, s)| *s < 1.0)
            .count();
        assert!(under_1s >= 18, "only {under_1s}/30 under 1 s");
        // Mode bin is in the sub-second region.
        let mode = result.histogram.mode_bin().expect("non-empty");
        assert!(mode < 10, "mode bin {mode} should be < 1 s");
        // Slowest ≈ 2 minutes.
        let slowest = result.standings.last().unwrap().1;
        assert!((115.0..130.0).contains(&slowest), "slowest={slowest}");
    }
}
