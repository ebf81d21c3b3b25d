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
pub(crate) const FULL_DATASET_ITEMS: u64 = 10_000;

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
        let line = source.lines().find(|l| l.contains("rai:perf"))?;
        let after = line.split("rai:perf").nth(1)?;
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
                        spec.memory_bytes = x * 1024 * 1024;
                    }
                }
                _ => {}
            }
        }
        Some(spec)
    }

    /// Scan a set of sources; the first directive wins, else the
    /// baseline default.
    pub(crate) fn from_sources<'a>(sources: impl IntoIterator<Item = &'a str>) -> PerfSpec {
        for s in sources {
            if let Some(spec) = Self::parse(s) {
                return spec;
            }
        }
        PerfSpec::default()
    }

    /// Runtime in milliseconds on a dataset of `items` items. Includes a
    /// fixed setup cost (model load, cuDNN init) so tiny datasets don't
    /// complete in zero time.
    pub(crate) fn runtime_ms(&self, items: u64) -> f64 {
        const SETUP_MS: f64 = 35.0;
        SETUP_MS + self.full_dataset_ms * (items as f64 / FULL_DATASET_ITEMS as f64)
    }

    /// Serialize into the directive format (what `make` writes into the
    /// "binary").
    pub(crate) fn to_directive(self) -> String {
        format!(
            "rai:perf mode={} full_ms={} acc={} mem_mb={}",
            match self.mode {
                ExecMode::Cpu => "cpu",
                ExecMode::Gpu => "gpu",
            },
            self.full_dataset_ms,
            self.accuracy,
            self.memory_bytes / (1024 * 1024),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // But from_sources falls back to the baseline.
        let s = PerfSpec::from_sources(["int main(){}"]);
        assert_eq!(s, PerfSpec::default());
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
        let text = format!("// {}\n", s.to_directive());
        assert_eq!(PerfSpec::parse(&text).unwrap(), s);
    }

    #[test]
    fn malformed_values_fall_back() {
        let s = PerfSpec::parse("// rai:perf mode=warp full_ms=fast acc=2.5").unwrap();
        assert_eq!(s.mode, ExecMode::Cpu);
        assert_eq!(s.full_dataset_ms, PerfSpec::default().full_dataset_ms);
        assert_eq!(s.accuracy, 1.0, "accuracy clamps to [0,1]");
    }
}
