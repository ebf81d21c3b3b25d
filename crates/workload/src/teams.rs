//! Team skill and project-performance trajectories.
//!
//! Calibration targets from the paper:
//!
//! * the provided serial baseline takes ~30 minutes on the full dataset;
//! * by the deadline "most teams fell within the 1 second runtime";
//! * e.g. "5 teams had a runtime between 0.4 and 0.5 seconds";
//! * "the slowest submission took 2 minutes to complete".

use rai_core::client::ProjectDir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rai_sim::{SimDuration, SimTime};

/// A modeled team.
#[derive(Clone, Debug)]
pub struct TeamModel {
    /// Team name (`team-01` …).
    pub name: String,
    /// Number of students (2–4 per the paper).
    pub members: u32,
    /// Relative submission activity (1.0 = average).
    pub activity: f64,
    /// The full-dataset runtime (ms) of their *final* tuned kernel.
    pub(crate) final_full_ms: f64,
    /// Accuracy their implementation reaches.
    pub(crate) accuracy: f64,
    /// When (days into the project) they first get a CUDA version
    /// running, before which submissions exercise the CPU baseline.
    pub(crate) gpu_from_day: f64,
}

impl TeamModel {
    /// The team's project performance (full-dataset ms, gpu?) at `t`:
    /// CPU baseline before `gpu_from_day`, then a log-linear descent
    /// from the ~60 s first CUDA version to the final tuned runtime at
    /// the deadline.
    pub(crate) fn perf_at(&self, t: SimTime, deadline: SimTime) -> (f64, bool) {
        let day = t.as_millis() as f64 / SimDuration::DAY.as_millis() as f64;
        if day < self.gpu_from_day {
            return (30.0 * 60.0 * 1000.0, false);
        }
        let deadline_day = deadline.as_millis() as f64 / SimDuration::DAY.as_millis() as f64;
        let first_gpu_ms: f64 = 60_000.0;
        let span = (deadline_day - self.gpu_from_day).max(1.0);
        let progress = ((day - self.gpu_from_day) / span).clamp(0.0, 1.0);
        let log_ms = first_gpu_ms.ln() + (self.final_full_ms.ln() - first_gpu_ms.ln()) * progress;
        (log_ms.exp(), true)
    }

    /// A concrete project directory reflecting the team's code at `t`
    /// (with a small per-submission perf jitter from `rng`). Some
    /// submissions benchmark on the full dataset: rarely while running
    /// the serial baseline (those jobs take ~30 minutes, §VII), and
    /// half the time during the final benchmarking week.
    pub fn project_at(&self, t: SimTime, deadline: SimTime, rng: &mut StdRng) -> ProjectDir {
        let (full_ms, gpu) = self.perf_at(t, deadline);
        if !gpu {
            let mut p = ProjectDir::baseline_cpu_project();
            if rng.gen_range(0.0..1.0) < 0.10 {
                // A full-dataset baseline run takes ~30 minutes; running
                // it twice more under nvprof would trip the 1-hour
                // container lifetime, so students drop the profiling
                // step for these timing runs.
                p.tree
                    .insert(
                        "rai-build.yml",
                        "rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - echo \"Building project\"\n    - cmake /src\n    - make\n    - ./ece408 /data/testfull.hdf5 /data/model.hdf5\n"
                            .as_bytes()
                            .to_vec(),
                    )
                    .expect("static path");
            }
            return p;
        }
        let jitter = rng.gen_range(0.97..1.03);
        let p = ProjectDir::cuda_project_with_perf(full_ms * jitter, self.accuracy, 2048);
        let final_week = deadline.duration_since(t) <= SimDuration::from_days(7);
        if final_week && rng.gen_range(0.0..1.0) < 0.5 {
            p.with_full_dataset_build()
        } else {
            p
        }
    }

    /// The final competition submission project.
    pub fn final_project(&self) -> ProjectDir {
        ProjectDir::cuda_project_with_perf(self.final_full_ms, self.accuracy, 2048)
            .with_final_artifacts()
    }
}

/// The class: a seeded set of teams.
#[derive(Clone, Debug)]
pub struct TeamRoster {
    /// The teams.
    pub teams: Vec<TeamModel>,
}

impl TeamRoster {
    /// The paper's class shape: `n_teams` teams covering `n_students`
    /// students. Final runtimes are log-normal around ~0.65 s with a
    /// heavy tail, plus one guaranteed two-minute straggler.
    pub fn generate(n_teams: usize, n_students: u32, seed: u64) -> TeamRoster {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut teams = Vec::with_capacity(n_teams);
        let mut remaining_students = n_students;
        for i in 0..n_teams {
            let teams_left = (n_teams - i) as u32;
            // Deal 2–4 members while keeping the total consistent.
            let min_needed = teams_left.saturating_sub(1) * 2;
            let lo = 2u32.max(remaining_students.saturating_sub(teams_left.saturating_sub(1) * 4));
            let hi = 4u32.min(remaining_students.saturating_sub(min_needed)).max(lo);
            let members = rng.gen_range(lo..=hi);
            remaining_students -= members;

            // Log-normal final runtime: ln N(ln 650ms, 0.55).
            let z: f64 = sample_standard_normal(&mut rng);
            let mut final_full_ms = (650.0f64.ln() + 0.55 * z).exp();
            // One team in the class never escapes ~2 minutes.
            if i == n_teams - 1 {
                final_full_ms = 120_000.0;
            }
            final_full_ms = final_full_ms.clamp(250.0, 120_000.0);

            teams.push(TeamModel {
                name: format!("team-{i:02}"),
                members,
                activity: rng.gen_range(0.4..1.9),
                final_full_ms,
                accuracy: rng.gen_range(0.80..0.95),
                gpu_from_day: rng.gen_range(7.0..18.0),
            });
        }
        TeamRoster { teams }
    }
}

/// Box–Muller standard normal.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_class_shape() {
        let r = TeamRoster::generate(58, 176, 1);
        assert_eq!(r.teams.len(), 58);
        assert_eq!(r.teams.iter().map(|t| t.members).sum::<u32>(), 176);
        assert!(r.teams.iter().all(|t| (2..=4).contains(&t.members)));
    }

    #[test]
    fn roster_is_deterministic_per_seed() {
        let a = TeamRoster::generate(58, 176, 7);
        let b = TeamRoster::generate(58, 176, 7);
        assert_eq!(a.teams[10].final_full_ms, b.teams[10].final_full_ms);
        let c = TeamRoster::generate(58, 176, 8);
        assert_ne!(a.teams[10].final_full_ms, c.teams[10].final_full_ms);
    }

    #[test]
    fn final_runtime_distribution_matches_figure2_shape() {
        let r = TeamRoster::generate(58, 176, 42);
        let mut finals: Vec<f64> = r.teams.iter().map(|t| t.final_full_ms / 1000.0).collect();
        finals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        // Top-30: "most teams fell within the 1 second runtime".
        let under_1s = finals.iter().take(30).filter(|&&s| s < 1.0).count();
        assert!(under_1s >= 20, "only {under_1s}/30 under 1s");
        // The guaranteed straggler: ~2 minutes.
        assert!((finals.last().unwrap() - 120.0).abs() < 1.0);
    }

    #[test]
    fn perf_trajectory_descends_to_final() {
        let r = TeamRoster::generate(8, 24, 3);
        let team = &r.teams[0];
        let deadline = SimTime::ZERO + SimDuration::from_days(35);
        // Day 0: CPU baseline.
        let (ms0, gpu0) = team.perf_at(SimTime::ZERO, deadline);
        assert!(!gpu0);
        assert_eq!(ms0, 1_800_000.0);
        // Deadline: the final runtime.
        let (ms_end, gpu_end) = team.perf_at(deadline, deadline);
        assert!(gpu_end);
        assert!((ms_end - team.final_full_ms).abs() / team.final_full_ms < 0.01);
        // Monotone improvement after the GPU switch.
        let mid1 = team.perf_at(SimTime::ZERO + SimDuration::from_days(20), deadline).0;
        let mid2 = team.perf_at(SimTime::ZERO + SimDuration::from_days(30), deadline).0;
        assert!(mid1 >= mid2, "{mid1} then {mid2}");
    }

    #[test]
    fn project_at_respects_phase() {
        let r = TeamRoster::generate(4, 12, 5);
        let team = &r.teams[0];
        let deadline = SimTime::ZERO + SimDuration::from_days(35);
        let mut rng = StdRng::seed_from_u64(0);
        let early = team.project_at(SimTime::ZERO, deadline, &mut rng);
        assert!(early.tree.contains("main.cpp"), "early phase is the CPU baseline");
        let late = team.project_at(deadline, deadline, &mut rng);
        assert!(late.tree.contains("main.cu"));
        let final_p = team.final_project();
        assert!(final_p.tree.contains("USAGE"));
        assert!(final_p.tree.contains("report.pdf"));
    }
}
