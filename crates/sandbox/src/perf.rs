//! The performance model — the substitution for real CUDA execution.
//!
//! We obviously cannot run student CUDA kernels on a K80 inside this
//! reproduction. Instead, a source file may carry a `rai:perf` directive
//! describing how the *resulting program* behaves:
//!
//! ```text
//! // rai:perf mode=gpu full_ms=470 acc=0.93 mem_mb=2048
//! ```
//!
//! * `mode` — `cpu` (the provided serial baseline) or `gpu`;
//! * `full_ms` — wall-clock milliseconds to process the **full**
//!   10 000-image dataset;
//! * `acc` — classification accuracy the program reports;
//! * `mem_mb` — resident memory while running.
//!
//! The "compiler" (`make`) bakes the directive into the produced binary;
//! program invocation replays it, scaling runtime by the dataset's item
//! count. Absent a directive the defaults describe the course's provided
//! baseline: a serial CPU implementation that "took around 30 minutes to
//! complete using the full dataset" (paper §VI).

use crate::exec::{find_from, to_line_end};
use std::fmt::Write as _;

/// Execution mode of the student program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExecMode {
    /// Serial CPU implementation (the provided baseline).
    Cpu,
    /// CUDA implementation (requires a GPU in the container).
    Gpu,
}

/// Parsed performance directive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PerfSpec {
    /// CPU or GPU execution.
    pub(crate) mode: ExecMode,
    /// Milliseconds to process the full 10 000-item dataset.
    pub(crate) full_dataset_ms: f64,
    /// Reported accuracy in `[0, 1]`.
    pub(crate) accuracy: f64,
    /// Resident memory in bytes while running.
    pub(crate) memory_bytes: u64,
}

/// Items in the full dataset (`/data/testfull.hdf5`).
const FULL_DATASET_ITEMS: u64 = 10_000;

impl Default for PerfSpec {
    /// The provided serial baseline: ~30 minutes on the full dataset.
    fn default() -> Self {
        PerfSpec {
            mode: ExecMode::Cpu,
            full_dataset_ms: 30.0 * 60.0 * 1000.0,
            accuracy: 0.8714,
            memory_bytes: 1024 * 1024 * 1024,
        }
    }
}

impl PerfSpec {
    /// Parse the first `rai:perf` directive found in a source file.
    pub(crate) fn parse(source: &str) -> Option<PerfSpec> {
        let after = directive_args(source)?;
        let mut spec = PerfSpec::default();
        for token in after.split_whitespace() {
            let Some((k, v)) = token.split_once('=') else {
                continue;
            };
            match k {
                "mode" => {
                    spec.mode = match v {
                        "gpu" => ExecMode::Gpu,
                        _ => ExecMode::Cpu,
                    }
                }
                "full_ms" => {
                    if let Ok(x) = v.parse::<f64>() {
                        spec.full_dataset_ms = x.max(0.0);
                    }
                }
                "acc" => {
                    if let Ok(x) = v.parse::<f64>() {
                        spec.accuracy = x.clamp(0.0, 1.0);
                    }
                }
                "mem_mb" => {
                    if let Ok(x) = v.parse::<u64>() {
                        // The student's number: a size past u64 is
                        // "more than any cap", not a wrapped small one.
                        spec.memory_bytes = x.saturating_mul(1024 * 1024);
                    }
                }
                _ => {}
            }
        }
        Some(spec)
    }

    /// Runtime in milliseconds on a dataset of `items` items. Includes a
    /// fixed setup cost (model load, cuDNN init) so tiny datasets don't
    /// complete in zero time.
    pub(crate) fn runtime_ms(&self, items: u64) -> f64 {
        const SETUP_MS: f64 = 35.0;
        SETUP_MS + self.full_dataset_ms * (items as f64 / FULL_DATASET_ITEMS as f64)
    }

    /// Write the directive (what `make` bakes into the "binary") onto
    /// `out`.
    pub(crate) fn write_directive(self, out: &mut String) {
        let mode = match self.mode {
            ExecMode::Cpu => "cpu",
            ExecMode::Gpu => "gpu",
        };
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "rai:perf mode={mode} full_ms={} acc={} mem_mb={}",
            self.full_dataset_ms,
            self.accuracy,
            self.memory_bytes / (1024 * 1024)
        );
    }
}

/// What marks a directive.
const DIRECTIVE: &str = "rai:perf";

/// [`DIRECTIVE`]'s bytes. Its `:` is the byte a scan looks for.
const MARKER: &[u8] = DIRECTIVE.as_bytes();

/// The text after the first `rai:perf` of `source`, up to the end of
/// its line or the next `rai:perf` on it: exactly
/// `source.lines().find(|l| l.contains("rai:perf"))` and then
/// `.split("rai:perf").nth(1)`, found in one scan of the source instead
/// of a substring searcher built per line.
fn directive_args(source: &str) -> Option<&str> {
    // Most sources of a large project hold none: a SIMD `contains`
    // says so without stopping at every `:` of the text.
    if !source.contains(DIRECTIVE) {
        return None;
    }
    let start = find_from(source, MARKER, 3, 0)? + MARKER.len();
    let line = to_line_end(&source[start..]);
    let end = find_from(line, MARKER, 3, 0).unwrap_or(line.len());
    Some(&line[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How a directive was found until the scan replaced it: the first
    /// line that holds `rai:perf`, then what follows it up to the next.
    fn reference_args(source: &str) -> Option<&str> {
        let line = source.lines().find(|l| l.contains("rai:perf"))?;
        line.split("rai:perf").nth(1)
    }

    /// Sources made of directive markers, their near misses, line
    /// breaks with and without `\r`, every ASCII space, tokens and
    /// multi-byte text: none, one or several directives, on one line
    /// or several.
    fn arb_source() -> impl Strategy<Value = String> {
        const PIECES: [&str; 18] = [
            "rai:perf", "rai:per", "ai:perf", "rai:", ":", "\r", "\n", "\r\n", " ", "\t", "\u{0B}",
            "\u{85}", "mode=gpu", "full_ms=470", "acc=0.93", "mem_mb=2048", "é", "x=",
        ];
        prop::collection::vec(0usize..PIECES.len(), 0..24)
            .prop_map(|picks| picks.iter().map(|&i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn directive_scan_equals_line_search(source in arb_source()) {
            prop_assert_eq!(directive_args(&source), reference_args(&source));
        }
    }

    #[test]
    fn the_first_directive_of_the_first_line_wins_up_to_the_next() {
        assert_eq!(directive_args("no directive"), None);
        assert_eq!(directive_args("a rai:perf x=1\r\nrai:perf y"), Some(" x=1"));
        assert_eq!(directive_args("rai:perf x=1 rai:perf y=2"), Some(" x=1 "));
        assert_eq!(directive_args("// rai:perf mode=gpu\r"), Some(" mode=gpu\r"));
        assert_eq!(directive_args("rai:perf\r\n"), Some(""));
    }

    #[test]
    fn parses_directive() {
        let src = "#include <cuda.h>\n// rai:perf mode=gpu full_ms=470 acc=0.93 mem_mb=2048\nint main(){}\n";
        let s = PerfSpec::parse(src).unwrap();
        assert_eq!(s.mode, ExecMode::Gpu);
        assert_eq!(s.full_dataset_ms, 470.0);
        assert_eq!(s.accuracy, 0.93);
        assert_eq!(s.memory_bytes, 2048 * 1024 * 1024);
    }

    #[test]
    fn default_is_thirty_minute_baseline() {
        let s = PerfSpec::default();
        assert_eq!(s.mode, ExecMode::Cpu);
        assert!((s.full_dataset_ms - 1_800_000.0).abs() < 1e-9);
    }

    #[test]
    fn no_directive_returns_none() {
        assert!(PerfSpec::parse("int main() { return 0; }").is_none());
    }

    #[test]
    fn runtime_scales_with_dataset() {
        let s = PerfSpec::parse("// rai:perf mode=gpu full_ms=1000 acc=0.9 mem_mb=100").unwrap();
        let full = s.runtime_ms(FULL_DATASET_ITEMS);
        let small = s.runtime_ms(10);
        assert!((full - 1035.0).abs() < 1e-9);
        assert!((small - 36.0).abs() < 1e-9);
    }

    #[test]
    fn directive_round_trips() {
        let s = PerfSpec {
            mode: ExecMode::Gpu,
            full_dataset_ms: 512.5,
            accuracy: 0.91,
            memory_bytes: 3 * 1024 * 1024 * 1024,
        };
        let mut text = String::from("// ");
        s.write_directive(&mut text);
        text.push('\n');
        assert_eq!(PerfSpec::parse(&text).unwrap(), s);
    }

    #[test]
    fn a_size_past_u64_saturates_rather_than_wrapping() {
        // 2^44 MiB is 2^64 bytes: multiplied plainly it panics in debug
        // and wraps to 0 B in release.
        let s = PerfSpec::parse("// rai:perf mode=gpu mem_mb=17592186044416").unwrap();
        assert_eq!(s.memory_bytes, u64::MAX);
        let s = PerfSpec::parse(&format!("// rai:perf mem_mb={}", u64::MAX)).unwrap();
        assert_eq!(s.memory_bytes, u64::MAX);
    }

    #[test]
    fn malformed_values_fall_back() {
        let s = PerfSpec::parse("// rai:perf mode=warp full_ms=fast acc=2.5").unwrap();
        assert_eq!(s.mode, ExecMode::Cpu);
        assert_eq!(s.full_dataset_ms, PerfSpec::default().full_dataset_ms);
        assert_eq!(s.accuracy, 1.0, "accuracy clamps to [0,1]");
    }
}
