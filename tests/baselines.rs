//! The gate on the five committed baselines: each `BENCH_*.json` equals,
//! byte for byte, what `rai_bench::baselines` renders at this commit —
//! the same renderers the report bins write the files with, carrying
//! every assertion those bins make — and the chaos acceptance run holds
//! on its three pinned seeds. A deliberate change regenerates a file
//! with its bin (`cargo run --release -p rai-bench --bin perf_report`,
//! `trace_report`, `store_report`, `recovery_report`) from the
//! repository root.

use rai_bench::baselines::{self, Courses, Recovery, Store, Trace};
use std::sync::OnceLock;

/// The text of a committed baseline.
fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `Err` naming `file` and the first line at which the re-rendered text
/// and the committed text part.
fn same(file: &str, rendered: &str, committed: &str) -> Result<(), String> {
    if rendered == committed {
        return Ok(());
    }
    let (mut rendered, mut committed) = (rendered.lines(), committed.lines());
    for line in 1.. {
        let (ours, theirs) = (rendered.next(), committed.next());
        if ours != theirs {
            return Err(format!(
                "{file} is not what this commit renders; first difference at line {line}:\n\
                 rendered:  {}\ncommitted: {}\n\
                 (regenerate it with its report bin if the change is deliberate)",
                ours.unwrap_or("<end of text>"),
                theirs.unwrap_or("<end of text>")
            ));
        }
        if ours.is_none() {
            break;
        }
    }
    Err(format!("{file} differs from what this commit renders in its line endings only"))
}

fn gate(file: &str, rendered: &str) {
    if let Err(mismatch) = same(file, rendered, &committed(file)) {
        panic!("{mismatch}");
    }
}

/// The pinned semester and chaos courses, run once for the three files
/// rendered from them.
fn courses() -> &'static Courses {
    static COURSES: OnceLock<Courses> = OnceLock::new();
    COURSES.get_or_init(Courses::run)
}

#[test]
fn bench_perf_json_is_what_this_commit_renders() {
    gate("BENCH_perf.json", &baselines::perf(courses()));
}

#[test]
fn bench_trace_json_is_what_this_commit_renders() {
    gate("BENCH_trace.json", &Trace::measure(courses()).render());
}

#[test]
fn bench_store_json_is_what_this_commit_renders() {
    gate("BENCH_store.json", &Store::measure(courses()).render());
}

#[test]
fn bench_recovery_json_is_what_this_commit_renders() {
    gate("BENCH_recovery.json", &Recovery::measure().render());
}

#[test]
fn chaos_acceptance_holds_on_the_pinned_seeds() {
    for seed in baselines::SEEDS {
        baselines::chaos_acceptance(seed);
    }
}

/// The comparison itself: one flipped digit anywhere in a committed
/// file is a mismatch that names the file and the line, so the gate
/// cannot be loosened by editing the file it checks.
#[test]
fn a_flipped_digit_is_reported_with_its_file_and_line() {
    for (file, field) in [
        ("BENCH_perf.json", "\"fingerprint\": \"0x"),
        ("BENCH_trace.json", "\"artifact_fingerprint\": \"0x"),
        ("BENCH_trace.json", "\"e2e_p99_micros\": "),
        ("BENCH_trace.json", "\"e2e_p99_ceiling_micros\": "),
        ("BENCH_recovery.json", "\"db_records_replayed\": ["),
        ("BENCH_store.json", "\"bytes_physical_resident\": "),
    ] {
        let text = committed(file);
        assert_eq!(same(file, &text, &text), Ok(()));
        let at = text.find(field).unwrap_or_else(|| panic!("{file} has no {field}")) + field.len();
        let digit = text.as_bytes()[at];
        assert!(digit.is_ascii_hexdigit(), "{file}: {field} is not followed by a digit");
        let mut edited = text.clone().into_bytes();
        edited[at] = if digit == b'0' { b'1' } else { b'0' };
        let edited = String::from_utf8(edited).expect("one ASCII digit replaced by another");

        let line = text[..at].lines().count();
        let mismatch = same(file, &text, &edited).expect_err("a flipped digit must not compare equal");
        let shown = |text: &str| mismatch.contains(text.lines().nth(line - 1).expect("line exists"));
        assert!(
            mismatch.contains(file) && mismatch.contains(&format!("line {line}:")) && shown(&text) && shown(&edited),
            "{mismatch}"
        );
        assert!(mismatch.lines().count() <= 4, "a mismatch is one short report, not a dump:\n{mismatch}");
    }
}
