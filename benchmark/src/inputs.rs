//! Seeded input generators. `--seed` reaches only this file: the same
//! seed gives byte-identical inputs, and the program under test
//! receives the generated inputs, never the seed's meaning.

use rai_core::{ProjectDir, SubmitMode};
use rai_sim::{SimDuration, SimTime};
use rai_workload::{CircadianModel, TeamRoster};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Files added to the sample CUDA project to reach the paper's mean
/// upload (100 GB / 40 000 submissions ≈ 2.5 MB).
pub const BULK_FILES: usize = 40;
/// Size of each added file.
pub const BULK_FILE_BYTES: usize = 64 << 10;
/// Teams in the bulk workloads.
pub const BULK_TEAMS: usize = 4;
/// Fresh trees per team in `bulk_fresh`.
pub const BULK_ROUNDS: usize = 2;
/// Resubmissions per team in `bulk_resubmit`.
pub const BULK_RESUBMITS: usize = 4;

/// SplitMix64: eight fresh bytes per step, fast enough to fill tens of
/// MiB during set-up.
struct Bytes64(u64);

impl Bytes64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `len` incompressible bytes (a student's datasets, images, binaries).
fn random_bytes(rng: &mut Bytes64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `len` bytes of source-like text: lines assembled from a small
/// vocabulary with fresh identifiers and constants, so it compresses
/// and dedups within a file the way real source does, while two files
/// never share long runs.
fn source_like_bytes(rng: &mut Bytes64, len: usize) -> Vec<u8> {
    const LINES: [&str; 8] = [
        "    const int idx_{a} = blockIdx.x * blockDim.x + threadIdx.x + {b};\n",
        "    if (idx_{a} < n_{b}) { y[idx_{a}] += x[idx_{a}] * k[{b} % KERNEL]; }\n",
        "__global__ void conv_layer_{a}(float* y, const float* x, const float* k) {\n",
        "    __shared__ float tile_{a}[TILE_WIDTH][TILE_WIDTH + {b}];\n",
        "    for (int c_{a} = 0; c_{a} < {b}; ++c_{a}) { acc += tile_{a}[ty][c_{a}]; }\n",
        "    __syncthreads();  // barrier {a} before reading tile {b}\n",
        "}\n\n// ---- layer {a}: tuned for occupancy {b} ----\n",
        "    cudaMemcpyAsync(dst_{a}, src_{a}, {b} * sizeof(float), cudaMemcpyDeviceToDevice);\n",
    ];
    let mut out = Vec::with_capacity(len + 128);
    while out.len() < len {
        let r = rng.next();
        let line = LINES[(r % 8) as usize];
        let a = format!("{:x}", (r >> 8) & 0xfffff);
        let b = ((r >> 32) % 4096).to_string();
        out.extend_from_slice(line.replace("{a}", &a).replace("{b}", &b).as_bytes());
    }
    out.truncate(len);
    out
}

fn bulk_file_name(i: usize) -> String {
    if i.is_multiple_of(2) {
        format!("src/layer_{i:02}.cu")
    } else {
        format!("data/blob_{i:02}.bin")
    }
}

fn bulk_file(rng: &mut Bytes64, i: usize) -> Vec<u8> {
    if i.is_multiple_of(2) {
        source_like_bytes(rng, BULK_FILE_BYTES)
    } else {
        random_bytes(rng, BULK_FILE_BYTES)
    }
}

/// One 2.5 MiB-class project tree: the sample CUDA project plus
/// [`BULK_FILES`] files of [`BULK_FILE_BYTES`], alternating source-like
/// text and incompressible bytes. Distinct `(seed, team, round)` give
/// trees with no file in common beyond the three sample files.
pub fn bulk_tree(seed: u64, team: usize, round: usize) -> ProjectDir {
    let mut rng = Bytes64(seed ^ ((team as u64) << 32) ^ ((round as u64) << 48) ^ 0xB01C);
    let mut project = ProjectDir::sample_cuda_project();
    for i in 0..BULK_FILES {
        project
            .tree
            .insert(&bulk_file_name(i), bulk_file(&mut rng, i))
            .expect("generated path is valid");
    }
    project
}

/// Resubmission `k` of `base`: one 64 KiB file regenerated and a
/// one-line `main.cu` edit (a new perf directive), leaving ≈97% of the
/// bytes unchanged.
pub fn bulk_resubmission(base: &ProjectDir, seed: u64, team: usize, k: usize) -> ProjectDir {
    let mut rng = Bytes64(seed ^ ((team as u64) << 32) ^ ((k as u64) << 40) ^ 0x2E5B);
    let mut project = base.clone();
    let i = (team * BULK_RESUBMITS + k) % BULK_FILES;
    project
        .tree
        .insert(&bulk_file_name(i), bulk_file(&mut rng, i))
        .expect("generated path is valid");
    let edited = ProjectDir::cuda_project_with_perf(470.0 - (k + 1) as f64, 0.93, 2048);
    let main_cu = edited
        .tree
        .get("main.cu")
        .expect("sample project has main.cu")
        .clone();
    project
        .tree
        .insert("main.cu", main_cu)
        .expect("static path");
    project
}

/// The `bulk_fresh` inputs: `trees[team][round]`.
pub fn bulk_fresh_trees(seed: u64) -> Vec<Vec<ProjectDir>> {
    (0..BULK_TEAMS)
        .map(|team| {
            (0..BULK_ROUNDS)
                .map(|round| bulk_tree(seed, team, round))
                .collect()
        })
        .collect()
}

/// The `bulk_resubmit` inputs: each team's base tree and its
/// resubmissions in order.
pub fn bulk_resubmit_trees(seed: u64) -> Vec<(ProjectDir, Vec<ProjectDir>)> {
    (0..BULK_TEAMS)
        .map(|team| {
            let base = bulk_tree(seed, team, 0);
            let edits = (0..BULK_RESUBMITS)
                .map(|k| bulk_resubmission(&base, seed, team, k))
                .collect();
            (base, edits)
        })
        .collect()
}

/// One submission of a modelled course, for the phase trace.
pub struct StreamItem {
    /// Index into the stream's team list.
    pub team: usize,
    pub project: ProjectDir,
    pub mode: SubmitMode,
}

/// A course's submissions in arrival order: the same
/// `TeamRoster::generate` / `TeamModel::project_at` stream
/// `run_semester` feeds its pipeline, without the event engine.
pub struct CourseStream {
    pub team_names: Vec<String>,
    pub items: Vec<StreamItem>,
}

pub fn course_stream(
    teams: usize,
    days: u64,
    seed: u64,
    arrivals: &CircadianModel,
) -> CourseStream {
    let roster = TeamRoster::generate(teams, (teams * 3) as u32, seed);
    let deadline = SimTime::ZERO + SimDuration::from_days(days);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11CE);
    let mut events: Vec<(SimTime, usize, SubmitMode)> = Vec::new();
    for (i, team) in roster.teams.iter().enumerate() {
        for t in arrivals.sample_team_events(
            team.activity,
            SimTime::ZERO,
            deadline,
            SimDuration::from_secs(30),
            &mut rng,
        ) {
            events.push((t, i, SubmitMode::Run));
        }
        events.push((
            deadline - SimDuration::from_hours(1 + (i as u64 % 20)),
            i,
            SubmitMode::Submit,
        ));
    }
    events.sort_by_key(|(t, i, _)| (*t, *i));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let items = events
        .into_iter()
        .map(|(t, i, mode)| StreamItem {
            team: i,
            project: match mode {
                SubmitMode::Run => roster.teams[i].project_at(t, deadline, &mut rng),
                SubmitMode::Submit => roster.teams[i].final_project(),
            },
            mode,
        })
        .collect();
    CourseStream {
        team_names: roster.teams.iter().map(|t| t.name.clone()).collect(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_archive::write_container;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = write_container(&bulk_tree(7, 1, 0).tree);
        assert_eq!(a, write_container(&bulk_tree(7, 1, 0).tree));
        assert_ne!(a, write_container(&bulk_tree(8, 1, 0).tree));
        assert_ne!(a, write_container(&bulk_tree(7, 2, 0).tree));
        assert_ne!(a, write_container(&bulk_tree(7, 1, 1).tree));
        // The paper's mean upload: 100 GB over 40 000 submissions.
        assert!((2_500_000..2_800_000).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn resubmission_changes_two_files_only() {
        let base = bulk_tree(7, 0, 0);
        let edit = bulk_resubmission(&base, 7, 0, 1);
        assert_eq!(edit, bulk_resubmission(&base, 7, 0, 1));
        let changed: Vec<&str> = base
            .tree
            .iter()
            .filter(|(path, data)| edit.tree.get(path) != Some(data))
            .map(|(path, _)| path)
            .collect();
        assert_eq!(changed.len(), 2, "{changed:?}");
        assert!(changed.contains(&"main.cu"));
        assert_eq!(base.tree.len(), edit.tree.len());
    }

    #[test]
    fn course_stream_is_deterministic_and_ends_with_finals() {
        let mut arrivals = CircadianModel::paper_calibrated();
        arrivals.horizon_days = 8.0;
        let course_stream = |teams, days, seed| course_stream(teams, days, seed, &arrivals);
        let a = course_stream(4, 8, 5);
        let b = course_stream(4, 8, 5);
        assert_eq!(a.items.len(), b.items.len());
        assert!(a
            .items
            .iter()
            .zip(&b.items)
            .all(|(x, y)| x.team == y.team && x.project == y.project));
        assert_ne!(a.items.len(), course_stream(4, 8, 6).items.len());
        assert_eq!(
            a.items
                .iter()
                .filter(|i| i.mode == SubmitMode::Submit)
                .count(),
            4
        );
        assert_eq!(a.team_names.len(), 4);
    }
}
