//! Competition ranking (paper §VI "Competition Ranking").
//!
//! "To encourage competition, teams were able to see their ranking
//! using RAI. The students could also see other teams' anonymized
//! runtimes." Fig. 2 is the histogram of the top-30 teams' final
//! runtimes in 0.1-second bins.

use rai_db::{doc, Database, FindOptions};
use rai_telemetry::Histogram;

/// One row of the leaderboard as shown to a student.
#[derive(Clone, Debug, PartialEq)]
pub struct RankEntry {
    /// 1-based rank.
    pub rank: usize,
    /// Display name: the real team name for the viewer's own team,
    /// a stable anonymous alias for everyone else.
    pub display_name: String,
    /// Student-visible (internal-timer) runtime in seconds.
    pub runtime_secs: f64,
    /// Whether this row is the viewing team.
    pub is_self: bool,
}

/// Read-side ranking utilities over the `rankings` collection.
#[derive(Clone)]
pub struct RankingBoard {
    db: Database,
}

impl RankingBoard {
    /// A board over `db`.
    pub fn new(db: Database) -> Self {
        RankingBoard { db }
    }

    /// Full standings: `(team, runtime_secs)` fastest-first.
    pub fn standings(&self) -> Vec<(String, f64)> {
        self.db
            .collection("rankings")
            .read()
            .find_with(&doc! {}, &FindOptions::sort_asc("runtime_secs"))
            .into_iter()
            .filter_map(|d| {
                Some((
                    d.get("team")?.as_str()?.to_string(),
                    d.get("runtime_secs")?.as_f64()?,
                ))
            })
            .collect()
    }

    /// Stable anonymous alias for a team (what other teams see).
    pub fn alias(team: &str) -> String {
        // FNV-1a over the name; stable across sessions.
        let h = rai_archive::fnv::hash(team.as_bytes());
        let mixed = (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16;
        format!("anonymous-{mixed:04x}")
    }

    /// The leaderboard as team `viewer` sees it.
    pub fn view_for(&self, viewer: &str) -> Vec<RankEntry> {
        self.standings()
            .into_iter()
            .enumerate()
            .map(|(i, (team, runtime_secs))| {
                let is_self = team == viewer;
                RankEntry {
                    rank: i + 1,
                    display_name: if is_self { team } else { Self::alias(&team) },
                    runtime_secs,
                    is_self,
                }
            })
            .collect()
    }

    /// The viewer's own rank (1-based), if they have a final submission.
    pub fn rank_of(&self, team: &str) -> Option<usize> {
        self.standings()
            .iter()
            .position(|(t, _)| t == team)
            .map(|i| i + 1)
    }

    /// Fig. 2: histogram of the top `n` teams' runtimes with `bin_width`
    /// second bins (the paper uses n=30, 0.1 s).
    pub fn top_n_histogram(&self, n: usize, bin_width: f64, nbins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, bin_width, nbins);
        for (_, runtime) in self.standings().into_iter().take(n) {
            h.record(runtime);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_db::Value;

    fn board_with(teams: &[(&str, f64)]) -> RankingBoard {
        let db = Database::new();
        {
            let coll = db.collection("rankings");
            let mut w = coll.write();
            for (team, rt) in teams {
                w.insert_one(doc! { "team" => *team, "runtime_secs" => *rt, "time_cmd_secs" => rt * 1.02 });
            }
        }
        RankingBoard::new(db)
    }

    #[test]
    fn standings_sorted_ascending() {
        let b = board_with(&[("slow", 2.0), ("fast", 0.4), ("mid", 1.0)]);
        let s = b.standings();
        assert_eq!(
            s.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>(),
            vec!["fast", "mid", "slow"]
        );
    }

    #[test]
    fn anonymized_view_reveals_only_self() {
        let b = board_with(&[("us", 1.0), ("them", 0.5)]);
        let view = b.view_for("us");
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].display_name, RankingBoard::alias("them"));
        assert!(!view[0].is_self);
        assert_eq!(view[1].display_name, "us");
        assert!(view[1].is_self);
        assert_eq!(view[1].rank, 2);
    }

    #[test]
    fn alias_is_stable_and_distinct() {
        assert_eq!(RankingBoard::alias("x"), RankingBoard::alias("x"));
        assert_ne!(RankingBoard::alias("x"), RankingBoard::alias("y"));
        assert!(RankingBoard::alias("x").starts_with("anonymous-"));
    }

    #[test]
    fn rank_of() {
        let b = board_with(&[("a", 1.0), ("b", 0.5)]);
        assert_eq!(b.rank_of("b"), Some(1));
        assert_eq!(b.rank_of("a"), Some(2));
        assert_eq!(b.rank_of("ghost"), None);
    }

    #[test]
    fn figure2_histogram_bins() {
        // 5 teams between 0.4 and 0.5s, like the paper's example bin.
        let teams: Vec<(String, f64)> = (0..5)
            .map(|i| (format!("t{i}"), 0.41 + i as f64 * 0.015))
            .chain([("straggler".to_string(), 120.0)])
            .collect();
        let refs: Vec<(&str, f64)> = teams.iter().map(|(t, r)| (t.as_str(), *r)).collect();
        let b = board_with(&refs);
        let h = b.top_n_histogram(30, 0.1, 30);
        assert_eq!(h.bin(4), 5, "five teams in [0.4, 0.5)");
        assert_eq!(h.overflow(), 1, "the 2-minute straggler");
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn ranking_rows_keep_instructor_only_time() {
        let b = board_with(&[("a", 1.0)]);
        let row = b
            .db
            .collection("rankings")
            .read()
            .find_one(&doc! { "team" => "a" })
            .unwrap();
        assert!(matches!(row.get("time_cmd_secs"), Some(Value::Float(_))));
    }
}
