//! Client subcommands beyond job submission (paper §VI: "RAI offers
//! instructors and students a set of utilities that can be used to
//! interact with and query the system"). These render the textual
//! output the command-line client prints.

use crate::ranking::RankingBoard;
use rai_db::{doc, Database, Document, FindOptions, Value};

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

/// `rai history` — a team's submissions from the metadata database,
/// newest first, one table row per document that holds every column.
pub(crate) fn history_text(db: &Database, team: &str, limit: usize) -> String {
    let docs = db
        .read()
        .submissions
        .find_with(&doc! { "team" => team }, &FindOptions::sort_desc("job_id").limit(limit));
    let mut out = format!(
        "{:<12} {:<8} {:<6} {:>10} {:<12}\n",
        "job", "kind", "ok", "runtime", "worker"
    );
    let header = out.len();
    for row in docs.iter().filter_map(history_row) {
        out.push_str(&row);
    }
    if out.len() == header {
        return format!("no submissions for team {team:?}\n");
    }
    out
}

/// One `rai history` row: job id, `run` or `submit`, success, the
/// student-visible runtime if a program ran, and the worker.
fn history_row(d: &Document) -> Option<String> {
    let runtime = d.get("internal_secs").and_then(Value::as_f64);
    Some(format!(
        "{:<12} {:<8} {:<6} {:>10} {:<12}\n",
        format!("{:08x}", d.get("job_id")?.as_i64()? as u64),
        d.get("kind")?.as_str()?,
        d.get("success")?.as_bool()?,
        runtime.map(|s| format!("{s:.3}s")).unwrap_or_else(|| "-".to_string()),
        d.get("worker")?.as_str()?
    ))
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
        let text = history_text(sys.db(), "alpha", 10);
        let rows: Vec<Vec<&str>> =
            text.lines().skip(1).map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(rows.len(), 2, "{text}");
        let job = |row: &[&str]| u64::from_str_radix(row[0], 16).expect("hex job id");
        assert!(job(&rows[0]) > job(&rows[1]), "newest first:\n{text}");
        assert_eq!((rows[0][1], rows[1][1]), ("submit", "run"));
        assert!(rows.iter().all(|r| r[2] == "true"));
        assert_eq!(history_text(sys.db(), "alpha", 1).lines().count(), 2, "header and one row");
        assert_eq!(history_text(sys.db(), "nobody", 5), "no submissions for team \"nobody\"\n");
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
