//! `check A.json B.json`: a two-sided comparison of two result files,
//! every end-to-end metric x workload against the catalogue's bounds.

use crate::catalogue::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;

/// How `new` reads against `base` on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The spread between a run's own iterations is wider than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
    /// An exact count that differs (or an identical one, [`Verdict::Same`]).
    Changed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Changed => "CHANGED",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
    n: f64,
}

/// Quartiles of fewer samples than this are the sample's extremes or
/// close to it, and say nothing about how wide the distribution is.
const MIN_SAMPLES_FOR_SPREAD: f64 = 5.0;

fn reading(file: &Json, section: &str, workload: &str, metric: &str) -> Option<Reading> {
    let m = file
        .get(section)?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64);
    Some(Reading {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")?,
    })
}

fn spread(r: &Reading) -> f64 {
    if r.value == 0.0 || r.n < MIN_SAMPLES_FOR_SPREAD {
        0.0
    } else {
        (r.q3 - r.q1) / r.value.abs()
    }
}

fn judge(base: &Reading, new: &Reading, better: Better, bound: f64) -> (f64, Verdict) {
    let delta = (new.value - base.value) / base.value.abs();
    let worse_by = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = if spread(base).max(spread(new)) > bound {
        // Still resolved when the two runs' quartile ranges do not even
        // touch and the new one is on the better side.
        let clear_win = match better {
            Better::Lower => new.q3 < base.q1,
            Better::Higher => new.q1 > base.q3,
        };
        if clear_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// Compare `new` against `base`. Untraced reports are judged against
/// the end-to-end bounds; exact metrics of either kind of report must
/// be identical to read `same`. A workload or metric missing from
/// either file is skipped; comparing nothing at all is an error.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    for (label, file) in [("first", base), ("second", new)] {
        for section in ["workloads", "traced"] {
            for (name, report) in file.get(section).and_then(Json::as_object).unwrap_or(&[]) {
                if report.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err(format!(
                        "{label} file: {section}.{name} did not pass its correctness checks"
                    ));
                }
            }
        }
    }
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(b), Some(n)) = (
                reading(base, "workloads", w.name, m.name),
                reading(new, "workloads", w.name, m.name),
            ) else {
                continue;
            };
            let (worse_by, mut verdict) = judge(&b, &n, m.better, m.bound);
            if m.exact && b.value != n.value && verdict == Verdict::Same {
                verdict = Verdict::Changed;
            }
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                base: b.value,
                new: n.value,
                worse_by,
                verdict,
            });
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (Some(b), Some(n)) = (
                reading(base, "traced", w.name, m.name),
                reading(new, "traced", w.name, m.name),
            ) else {
                continue;
            };
            let verdict = if b.value == n.value {
                Verdict::Same
            } else {
                Verdict::Changed
            };
            let worse_by = if b.value == 0.0 {
                0.0
            } else {
                (n.value - b.value) / b.value.abs()
            };
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                base: b.value,
                new: n.value,
                worse_by,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload and metric to compare".to_string());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<32} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "worse by"
    );
    for r in rows {
        println!(
            "{:<14} {:<32} {:>16.6} {:>16.6} {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.verdict.as_str()
        );
    }
}

/// Whether `rows` let a change through: nothing worse, nothing
/// unresolved. Exact counts may change between commits.
pub fn passes(rows: &[Row]) -> bool {
    rows.iter()
        .all(|r| !matches!(r.verdict, Verdict::Worse | Verdict::Unresolved))
}

/// Whether two runs of one commit agree: every row reads `same`.
pub fn agrees(rows: &[Row]) -> bool {
    rows.iter().all(|r| r.verdict == Verdict::Same)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file with one untraced workload whose metrics all read
    /// `value`, with quartiles `spread` apart.
    fn file(value: f64, spread: f64) -> Json {
        let metric = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::Str("x".into())),
                ("q1", Json::Num(v * (1.0 - spread / 2.0))),
                ("q3", Json::Num(v * (1.0 + spread / 2.0))),
                ("n", Json::Num(9.0)),
            ])
        };
        let report = Json::obj([
            ("correct", Json::Bool(true)),
            (
                "metrics",
                Json::obj(
                    END_TO_END
                        .iter()
                        .map(|m| (m.name, metric(if m.exact { 0.5 } else { value }))),
                ),
            ),
        ]);
        Json::obj([("workloads", Json::obj([("semester", report)]))])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("metric compared")
            .verdict
    }

    #[test]
    fn bounds_apply_in_both_directions() {
        // submissions_per_s: higher is better, bound 25%.
        // peak_rss_mib: lower is better, bound 10%.
        let rows = compare(&file(100.0, 0.0), &file(130.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "submissions_per_s"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "payload_mib_per_s"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "peak_rss_mib"), Verdict::Worse);
        assert!(!passes(&rows));

        let rows = compare(&file(100.0, 0.0), &file(70.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "submissions_per_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "peak_rss_mib"), Verdict::Better);
        assert!(!passes(&rows));

        // 15% either way: inside the timed bounds, outside memory's.
        let rows = compare(&file(100.0, 0.0), &file(85.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "submissions_per_s"), Verdict::Same);
        assert_eq!(verdict_of(&rows, "peak_rss_mib"), Verdict::Better);
        assert!(passes(&rows) && !agrees(&rows));
        let rows = compare(&file(100.0, 0.0), &file(115.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Same);
        assert_eq!(verdict_of(&rows, "peak_rss_mib"), Verdict::Worse);

        let rows = compare(&file(100.0, 0.0), &file(104.0, 0.0)).unwrap();
        assert!(agrees(&rows), "4% either way is inside every bound");
        assert_eq!(
            verdict_of(&rows, "wire_bytes_per_payload_byte"),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_a_clear_win() {
        let rows = compare(&file(100.0, 0.40), &file(101.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "submissions_per_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unresolved);
        assert!(!passes(&rows));
        // Three samples' quartiles are their extremes: no verdict on width.
        let few = Json::parse(&file(100.0, 0.40).render().replace("\"n\": 9", "\"n\": 3")).unwrap();
        let rows = compare(&few, &file(101.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Same);
        // 100 +- 20 against 200: the ranges do not touch.
        let rows = compare(&file(100.0, 0.40), &file(200.0, 0.0)).unwrap();
        assert_eq!(verdict_of(&rows, "submissions_per_s"), Verdict::Better);
        assert_eq!(
            verdict_of(&rows, "setup_s"),
            Verdict::Unresolved,
            "a clear loss stays unresolved"
        );
    }

    #[test]
    fn exact_metrics_must_be_identical_and_bad_files_are_refused() {
        let base = file(100.0, 0.0);
        let mut other = file(100.0, 0.0);
        // Nudge one exact ratio by far less than its bound.
        let text = other
            .render()
            .replacen("\"value\": 0.5", "\"value\": 0.5001", 1);
        other = Json::parse(&text).unwrap();
        let rows = compare(&base, &other).unwrap();
        assert_eq!(
            rows.iter()
                .filter(|r| r.verdict == Verdict::Changed)
                .count(),
            1
        );
        assert!(passes(&rows) && !agrees(&rows));

        let incorrect = Json::parse(
            &base
                .render()
                .replace("\"correct\": true", "\"correct\": false"),
        )
        .unwrap();
        assert!(compare(&base, &incorrect).is_err());
        assert!(compare(&base, &Json::obj::<String>([])).is_err());
    }
}
