//! Instructor utilities (paper §VI "Downloading and Running Students'
//! Submissions", §VII "Project Grading").
//!
//! * bulk-download final submissions (DB → file server → restore);
//! * optionally delete unneeded files (make intermediates, datasets);
//! * re-run each submission several times and keep the minimum time
//!   ("to get a more accurate measurement of the student execution
//!   times during project evaluation");
//! * check required files and produce the weighted grade report
//!   (performance 30%, functionality/correctness 20%, code quality 10%,
//!   written report 40% — the last two human-graded).

use crate::client::BUILD_BUCKET;
use crate::spec::BuildSpec;
use rai_archive::{restore_shared, FileTree};
use rai_db::{doc, Database};
use rai_sandbox::{Container, ImageRegistry, ResourceLimits};
use rai_store::ObjectStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A downloaded final submission.
#[derive(Clone, Debug)]
pub struct FinalSubmission {
    /// Team name.
    pub team: String,
    /// Student-visible recorded runtime.
    pub recorded_secs: f64,
    /// The unpacked `/build` archive (includes `submission_code/`).
    pub tree: FileTree,
}

/// Which required files a submission is missing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequiredFileReport {
    /// Missing file names (empty = compliant).
    pub missing: Vec<&'static str>,
}

impl RequiredFileReport {
    /// Whether everything required is present.
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Weighted grade for one team (paper §VII: 30/20/10/40).
#[derive(Clone, Debug, PartialEq)]
pub struct GradeReport {
    /// Team name.
    pub team: String,
    /// Performance component (0–30).
    pub performance: f64,
    /// Functionality and correctness component (0–20).
    pub correctness: f64,
    /// Code-quality component (0–10) — human-entered.
    pub code_quality: f64,
    /// Written-report component (0–40) — human-entered.
    pub written_report: f64,
}

impl GradeReport {
    /// Total out of 100.
    pub fn total(&self) -> f64 {
        self.performance + self.correctness + self.code_quality + self.written_report
    }
}

/// The instructor-side grading toolkit.
pub struct Grader {
    db: Database,
    store: ObjectStore,
    images: Arc<ImageRegistry>,
}

impl Grader {
    /// A grader over the deployment's database/store/images.
    pub fn new(db: Database, store: ObjectStore, images: Arc<ImageRegistry>) -> Self {
        Grader { db, store, images }
    }

    /// Query the ranking database for final submissions and download
    /// each team's build archive from the file server.
    pub fn download_final_submissions(&self) -> Vec<FinalSubmission> {
        let rows = self.db.collection("rankings").read().find(&doc! {});
        let mut out = Vec::new();
        for row in rows {
            let (Some(team), Some(secs), Some(key)) = (
                row.get("team").and_then(|v| v.as_str()),
                row.get("runtime_secs").and_then(|v| v.as_f64()),
                row.get("build_key").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            let Ok(obj) = self.store.get(BUILD_BUCKET, key) else {
                continue;
            };
            let Ok(tree) = restore_shared(&obj.data) else { continue };
            out.push(FinalSubmission {
                team: team.to_string(),
                recorded_secs: secs,
                tree,
            });
        }
        out.sort_by(|a, b| a.team.cmp(&b.team));
        out
    }

    /// Delete unneeded files from a downloaded submission: make
    /// intermediates and copies of the provided dataset.
    pub fn clean_submission(tree: &mut FileTree) -> usize {
        let doomed: Vec<String> = tree
            .paths()
            .filter(|p| {
                p.ends_with(".o")
                    || p.ends_with(".nvprof")
                    || p.ends_with("Makefile")
                    || p.ends_with(".hdf5")
                    || p.contains("CMakeFiles/")
            })
            .map(str::to_string)
            .collect();
        for p in &doomed {
            tree.remove(p);
        }
        doomed.len()
    }

    /// Check the paper's required final-submission files against the
    /// submitted source snapshot.
    pub fn check_required_files(submission_code: &FileTree) -> RequiredFileReport {
        let mut missing = Vec::new();
        for name in ["USAGE", "report.pdf"] {
            if !submission_code.contains(name) {
                missing.push(match name {
                    "USAGE" => "USAGE",
                    _ => "report.pdf",
                });
            }
        }
        let has_source = submission_code
            .paths()
            .any(|p| [".cu", ".cpp", ".cc", ".c"].iter().any(|s| p.ends_with(s)));
        if !has_source {
            missing.push("source code");
        }
        RequiredFileReport { missing }
    }

    /// Re-run a submission's source `runs` times under the enforced
    /// final build file and return the minimum observed runtime — the
    /// paper's "rerun the students' submissions multiple times and
    /// display the minimum time".
    pub fn rerun_min_time(&self, submission_code: &FileTree, runs: usize, seed: u64) -> Option<f64> {
        let spec = BuildSpec::final_submission_spec();
        let image = self.images.resolve(&spec.image).ok()?.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<f64> = None;
        for _ in 0..runs.max(1) {
            let mut container = Container::create(&image, ResourceLimits::default());
            container.mount("/src", submission_code);
            // Each grading run sees slightly different machine noise.
            container.set_time_dilation(1.0 + rng.gen_range(0.0..0.05));
            container.run_script(spec.build.iter().map(String::as_str));
            let report = container.destroy();
            if let Some(secs) = report.internal_timer_secs() {
                best = Some(best.map_or(secs, |b: f64| b.min(secs)));
            }
        }
        best
    }

    /// Performance points (0–30): full marks at or under `full_at`
    /// seconds, linearly down to 0 at `zero_at` (log-ish competitions
    /// often use steps; linear keeps the model transparent).
    pub fn performance_points(secs: f64, full_at: f64, zero_at: f64) -> f64 {
        if secs <= full_at {
            30.0
        } else if secs >= zero_at {
            0.0
        } else {
            30.0 * (zero_at - secs) / (zero_at - full_at)
        }
    }

    /// Correctness points (0–20): full marks at or above the target
    /// accuracy, zero below the floor.
    pub fn correctness_points(accuracy: f64, target: f64) -> f64 {
        if accuracy >= target {
            20.0
        } else if accuracy <= target - 0.05 {
            0.0
        } else {
            20.0 * (accuracy - (target - 0.05)) / 0.05
        }
    }

    /// Assemble a grade report from the automated measurements plus the
    /// human-graded components.
    #[allow(clippy::too_many_arguments)]
    pub fn grade(
        &self,
        team: &str,
        measured_secs: f64,
        accuracy: f64,
        accuracy_target: f64,
        perf_full_at: f64,
        perf_zero_at: f64,
        code_quality: f64,
        written_report: f64,
    ) -> GradeReport {
        GradeReport {
            team: team.to_string(),
            performance: Self::performance_points(measured_secs, perf_full_at, perf_zero_at),
            correctness: Self::correctness_points(accuracy, accuracy_target),
            code_quality: code_quality.clamp(0.0, 10.0),
            written_report: written_report.clamp(0.0, 40.0),
        }
    }
}

/// The grade book: renders per-team grade reports and records them in
/// the database — "a grade report for each team was then generated by
/// combining the automated and manual feedback. The grade report was
/// then posted onto the University's grade management system" (§VII).
pub struct GradeBook {
    db: Database,
}

impl GradeBook {
    /// A grade book over the deployment's database.
    pub fn new(db: Database) -> Self {
        GradeBook { db }
    }

    /// Record a grade (idempotent per team: re-grading overwrites) and
    /// return the rendered report text that gets posted.
    pub fn post(&self, report: &GradeReport, notes: &str) -> String {
        self.db.collection("grades").write().update_one(
            &doc! { "team" => report.team.as_str() },
            &doc! { "$set" => doc!{
                "performance" => report.performance,
                "correctness" => report.correctness,
                "code_quality" => report.code_quality,
                "written_report" => report.written_report,
                "total" => report.total(),
                "notes" => notes,
            } },
            true,
        );
        Self::render(report, notes)
    }

    /// The posted grade for a team, if any: `(total, notes)`.
    pub fn grade_of(&self, team: &str) -> Option<(f64, String)> {
        let row = self
            .db
            .collection("grades")
            .read()
            .find_one(&doc! { "team" => team })?;
        Some((
            row.get("total")?.as_f64()?,
            row.get("notes")?.as_str()?.to_string(),
        ))
    }

    /// Render the report text.
    pub fn render(report: &GradeReport, notes: &str) -> String {
        format!(
            "ECE408 Project Grade Report — {team}\n\
             ------------------------------------\n\
             Performance (30%):          {perf:>5.1} / 30\n\
             Functionality (20%):        {corr:>5.1} / 20\n\
             Code quality (10%):         {qual:>5.1} / 10\n\
             Written report (40%):       {rep:>5.1} / 40\n\
             ------------------------------------\n\
             Total:                      {total:>5.1} / 100\n\
             Notes: {notes}\n",
            team = report.team,
            perf = report.performance,
            corr = report.correctness,
            qual = report.code_quality,
            rep = report.written_report,
            total = report.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProjectDir;

    #[test]
    fn required_files_check() {
        let complete = ProjectDir::sample_cuda_project().with_final_artifacts();
        assert!(Grader::check_required_files(&complete.tree).complete());

        let missing = ProjectDir::sample_cuda_project();
        let report = Grader::check_required_files(&missing.tree);
        assert_eq!(report.missing, vec!["USAGE", "report.pdf"]);

        let empty = FileTree::new().with("USAGE", &b"u"[..]).with("report.pdf", &b"r"[..]);
        assert_eq!(Grader::check_required_files(&empty).missing, vec!["source code"]);
    }

    #[test]
    fn clean_removes_intermediates_only() {
        let mut tree = FileTree::new()
            .with("submission_code/main.cu", &b"x"[..])
            .with("Makefile", &b"m"[..])
            .with("main.o", &b"o"[..])
            .with("timeline.nvprof", &b"p"[..])
            .with("data/test10.hdf5", &b"d"[..])
            .with("ece408", &b"bin"[..]);
        let removed = Grader::clean_submission(&mut tree);
        assert_eq!(removed, 4);
        assert!(tree.contains("submission_code/main.cu"));
        assert!(tree.contains("ece408"));
    }

    #[test]
    fn rerun_min_time_takes_minimum() {
        let db = Database::new();
        let store = ObjectStore::new(rai_sim::VirtualClock::new());
        let grader = Grader::new(db, store, Arc::new(ImageRegistry::course_default()));
        let project = ProjectDir::cuda_project_with_perf(470.0, 0.93, 1024).with_final_artifacts();
        let min5 = grader.rerun_min_time(&project.tree, 5, 42).unwrap();
        let single = grader.rerun_min_time(&project.tree, 1, 43).unwrap();
        // The minimum over 5 noisy runs is at most any single run.
        assert!(min5 <= single + 1e-9);
        // And close to the true 0.505s.
        assert!((0.5..0.56).contains(&min5), "got {min5}");
    }

    #[test]
    fn grading_scale() {
        assert_eq!(Grader::performance_points(0.4, 1.0, 120.0), 30.0);
        assert_eq!(Grader::performance_points(120.0, 1.0, 120.0), 0.0);
        let mid = Grader::performance_points(60.0, 1.0, 120.0);
        assert!(mid > 0.0 && mid < 30.0);
        assert_eq!(Grader::correctness_points(0.93, 0.9), 20.0);
        assert_eq!(Grader::correctness_points(0.5, 0.9), 0.0);
        let part = Grader::correctness_points(0.88, 0.9);
        assert!(part > 0.0 && part < 20.0);
    }

    #[test]
    fn grade_book_posts_and_overwrites() {
        let db = Database::new();
        let book = GradeBook::new(db.clone());
        let report = GradeReport {
            team: "t".into(),
            performance: 28.0,
            correctness: 20.0,
            code_quality: 8.0,
            written_report: 35.0,
        };
        let text = book.post(&report, "solid tiling work");
        assert!(text.contains("91.0 / 100"));
        assert!(text.contains("solid tiling work"));
        assert_eq!(book.grade_of("t"), Some((91.0, "solid tiling work".into())));
        // Re-grade overwrites, one row per team.
        let regraded = GradeReport {
            written_report: 38.0,
            ..report
        };
        book.post(&regraded, "after regrade request");
        assert_eq!(book.grade_of("t").unwrap().0, 94.0);
        assert_eq!(db.collection("grades").read().len(), 1);
        assert_eq!(book.grade_of("ghost"), None);
    }

    #[test]
    fn grade_report_total() {
        let db = Database::new();
        let store = ObjectStore::new(rai_sim::VirtualClock::new());
        let g = Grader::new(db, store, Arc::new(ImageRegistry::course_default()));
        let r = g.grade("t", 0.5, 0.93, 0.9, 1.0, 120.0, 9.0, 36.0);
        assert_eq!(r.performance, 30.0);
        assert_eq!(r.correctness, 20.0);
        assert_eq!(r.total(), 95.0);
        // Clamping of manual scores.
        let r2 = g.grade("t", 0.5, 0.93, 0.9, 1.0, 120.0, 99.0, 99.0);
        assert_eq!(r2.code_quality, 10.0);
        assert_eq!(r2.written_report, 40.0);
    }
}
