//! The instructor-side workflow (paper §VI): generate and mail keys
//! from the roster, collect final submissions, re-run them for stable
//! timings, check required files, and produce grade reports.
//!
//! ```text
//! cargo run --release --example instructor_tools
//! ```

use rai::core::client::ProjectDir;
use rai::core::grading::Grader;
use rai::core::system::{RaiSystem, SystemConfig};
use rai::auth::{render_key_email, KeyGenerator, Roster};

fn main() {
    // 1. Keys from the roster (Listing 3).
    let roster = Roster::parse(
        "firstname,lastname,userid\nAda,Lovelace,alovelace\nAlan,Turing,aturing\n",
    )
    .expect("roster parses");
    let mut keygen = KeyGenerator::from_seed(408);
    println!("mailing credentials to {} students:", roster.len());
    for entry in &roster.entries {
        let creds = keygen.generate(&entry.user_id);
        let mail = render_key_email(entry, &creds, "illinois.edu");
        println!("  -> {} ({} bytes)", mail.to, mail.body.len());
    }

    // 2. A couple of teams make final submissions.
    let mut system = RaiSystem::new(SystemConfig {
        rate_limit: None,
        ..Default::default()
    });
    for (team, full_ms) in [("team-a", 480.0), ("team-b", 900.0)] {
        let creds = system.register_team(team, &[]);
        let project = ProjectDir::cuda_project_with_perf(full_ms, 0.92, 2048).with_final_artifacts();
        system.submit_final(&creds, &project).expect("final submission");
    }

    // 3. Bulk-download the finals from the file server.
    let grader = Grader::new(
        system.db().clone(),
        system.store().clone(),
        system.images().clone(),
    );
    let submissions = grader.download_final_submissions();
    println!("\ndownloaded {} final submissions:", submissions.len());
    for sub in &submissions {
        let code = sub.tree.subtree("submission_code");
        let required = Grader::check_required_files(&code);
        // Re-run 5 times, keep the minimum (paper §VI).
        let min_secs = grader.rerun_min_time(&code, 5, 42).expect("reruns succeed");
        println!(
            "  {:<8} recorded={:.3}s rerun-min={:.3}s required-files-ok={}",
            sub.team,
            sub.recorded_secs,
            min_secs,
            required.complete()
        );

        // 4. Grade: automated performance+correctness, manual quality+report.
        let report = grader.grade(&sub.team, min_secs, 0.92, 0.90, 1.0, 120.0, 8.5, 34.0);
        println!(
            "           grade: perf {:.1}/30 correctness {:.1}/20 quality {:.1}/10 report {:.1}/40 = {:.1}/100",
            report.performance,
            report.correctness,
            report.code_quality,
            report.written_report,
            report.total()
        );
    }

    // 5. Debug the slow submission in an interactive session (the
    //    paper's §VIII future work): a persistent container with the
    //    debugging tools available, gated on instructor credentials.
    let prof = system.register_instructor("prof-hwu");
    let slow_code =
        submissions.last().expect("submissions downloaded").tree.subtree("submission_code");
    let mut session =
        system.open_session(&prof, &slow_code).expect("instructors may open sessions");
    println!("\ninteractive debugging session on {}:", submissions.last().unwrap().team);
    for cmd in ["cmake /src && make", "grep global /src/main.cu", "nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5"] {
        let out = session.exec(cmd);
        println!("  $ {cmd}   [exit {}]", out.exit_code);
        for line in out.lines.iter().take(2) {
            println!("      {}", line.render());
        }
    }
    let artifacts = session.close();
    println!("  session artifacts: {} files in /build", artifacts.len());
}
