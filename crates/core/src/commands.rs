//! Client subcommands beyond job submission (paper §VI: "RAI offers
//! instructors and students a set of utilities that can be used to
//! interact with and query the system"). These render the textual
//! output the command-line client prints.

use crate::ranking::RankingBoard;
use rai_db::{doc, Database, FindOptions, Value};

/// `rai rankings` — the leaderboard as `team` sees it (own team named,
/// others anonymized).
pub(crate) fn rankings(board: &RankingBoard, team: &str) -> String {
    let view = board.view_for(team);
    if view.is_empty() {
        return "no final submissions recorded yet\n".to_string();
    }
    let mut out = format!("{:<6} {:<18} {:>10}\n", "rank", "team", "runtime");
    for row in view {
        out.push_str(&format!(
            "{:<6} {:<18} {:>9.3}s{}\n",
            format!("#{}", row.rank),
            row.display_name,
            row.runtime_secs,
            if row.is_self { "  <- you" } else { "" }
        ));
    }
    out
}

/// One row of `rai history`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HistoryEntry {
    /// Job id.
    pub(crate) job_id: u64,
    /// `run` or `submit`.
    pub(crate) kind: String,
    /// Whether it succeeded.
    pub(crate) success: bool,
    /// Student-visible runtime, if a program ran.
    pub(crate) internal_secs: Option<f64>,
    /// Worker that executed it.
    pub(crate) worker: String,
}

/// Query a team's submission history from the metadata database,
/// newest first.
pub(crate) fn history(db: &Database, team: &str, limit: usize) -> Vec<HistoryEntry> {
    db.collection("submissions")
        .read()
        .find_with(
            &doc! { "team" => team },
            &FindOptions::sort_desc("job_id").limit(limit),
        )
        .into_iter()
        .filter_map(|d| {
            Some(HistoryEntry {
                job_id: d.get("job_id")?.as_i64()? as u64,
                kind: d.get("kind")?.as_str()?.to_string(),
                success: d.get("success")?.as_bool()?,
                internal_secs: match d.get("internal_secs") {
                    Some(Value::Null) | None => None,
                    Some(v) => v.as_f64(),
                },
                worker: d.get("worker")?.as_str()?.to_string(),
            })
        })
        .collect()
}

/// `rai history` — rendered.
pub(crate) fn history_text(db: &Database, team: &str, limit: usize) -> String {
    let rows = history(db, team, limit);
    if rows.is_empty() {
        return format!("no submissions for team {team:?}\n");
    }
    let mut out = format!(
        "{:<12} {:<8} {:<6} {:>10} {:<12}\n",
        "job", "kind", "ok", "runtime", "worker"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<8} {:<6} {:>10} {:<12}\n",
            format!("{:08x}", r.job_id),
            r.kind,
            r.success,
            r.internal_secs
                .map(|s| format!("{s:.3}s"))
                .unwrap_or_else(|| "-".to_string()),
            r.worker
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProjectDir;
    use crate::system::{RaiSystem, SystemConfig};

    fn populated() -> RaiSystem {
        let mut sys = RaiSystem::new(SystemConfig {
            rate_limit: None,
            ..Default::default()
        });
        let a = sys.register_team("alpha", &[]);
        let b = sys.register_team("beta", &[]);
        sys.submit(&a, &ProjectDir::sample_cuda_project()).unwrap();
        sys.submit_final(&a, &ProjectDir::cuda_project_with_perf(500.0, 0.9, 512).with_final_artifacts())
            .unwrap();
        sys.submit_final(&b, &ProjectDir::cuda_project_with_perf(900.0, 0.9, 512).with_final_artifacts())
            .unwrap();
        sys
    }

    #[test]
    fn rankings_output_shape() {
        let sys = populated();
        let text = rankings(&sys.rankings(), "beta");
        assert!(text.contains("#1"));
        assert!(text.contains("anonymous-"), "other team anonymized:\n{text}");
        assert!(text.contains("beta"));
        assert!(text.contains("<- you"));
        // Empty board message.
        let empty = RankingBoard::new(rai_db::Database::new());
        assert!(rankings(&empty, "x").contains("no final submissions"));
    }

    #[test]
    fn history_newest_first_with_limit() {
        let sys = populated();
        let rows = history(sys.db(), "alpha", 10);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].job_id > rows[1].job_id, "newest first");
        assert_eq!(rows[0].kind, "submit");
        assert_eq!(rows[1].kind, "run");
        assert!(rows.iter().all(|r| r.success));
        assert_eq!(history(sys.db(), "alpha", 1).len(), 1);
        assert!(history(sys.db(), "nobody", 5).is_empty());
    }

    #[test]
    fn history_text_renders() {
        let sys = populated();
        let text = history_text(sys.db(), "alpha", 10);
        assert!(text.contains("submit"));
        assert!(text.contains("worker-00"));
        assert!(history_text(sys.db(), "ghost", 5).contains("no submissions"));
    }
}
