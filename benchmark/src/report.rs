//! What a run reports: named metrics with their dispersion, and the
//! contract's one-line result.

use crate::json::Json;
use crate::stats;

/// One metric of one run. Timed metrics are medians over iterations
/// and carry the quartiles and sample count; exact counts have `n = 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
    /// The samples behind a median, in the order taken (result files
    /// keep up to [`KEPT_SAMPLES`]; exact values have none).
    pub samples: Vec<f64>,
}

/// Samples kept per metric in result files: every iteration of an
/// untraced run, a prefix of the traced run's per-call timings.
const KEPT_SAMPLES: usize = 256;

impl Metric {
    /// A single exact value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
            tail: None,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, value, q3) = stats::quartiles(samples);
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            n: samples.len(),
            tail: stats::tail_percentile(samples),
            samples: samples[..samples.len().min(KEPT_SAMPLES)].to_vec(),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.to_string())),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ];
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", Json::Num(p)));
            pairs.push(("tail_value", Json::Num(v)));
        }
        if !self.samples.is_empty() {
            pairs.push((
                "samples",
                Json::Arr(self.samples.iter().map(|s| Json::Num(*s)).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// The outcome of one workload's run, traced or not.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Why not, when it did not.
    pub error: Option<String>,
    /// Submissions attempted across the timed iterations.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    pub warmups: usize,
    pub iterations: usize,
    /// The host speed around the timed iterations (untraced runs): what
    /// the timed metrics were normalised by. Not a metric of the program.
    pub host_speed: Option<Metric>,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// A report with nothing measured yet, so not yet correct.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> RunReport {
        RunReport {
            workload,
            seed,
            traced,
            correct: false,
            error: None,
            attempted: 0,
            failed: 0,
            warmups: 0,
            iterations: 0,
            host_speed: None,
            metrics: Vec::new(),
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric a value and a unit.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The full record kept in result files, with dispersion.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("error", self.error.clone().map_or(Json::Null, Json::Str)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("warmups", Json::Num(self.warmups as f64)),
            ("iterations", Json::Num(self.iterations as f64)),
            (
                "host_speed",
                self.host_speed.as_ref().map_or(Json::Null, Metric::to_json),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
        ])
    }

    /// `name unit value` lines, one per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("{:<36} {:<6} {}", m.name, m.unit, m.value);
        }
    }
}
