//! Metric exposition: the Prometheus text format.
//!
//! Histograms follow the Prometheus convention: cumulative `_bucket`
//! series with an `le` label, plus `_sum` and `_count`. Samples below
//! the histogram origin fold into every cumulative bucket (they are
//! `<= le` for all finite `le`); overflow appears only in `+Inf`.

use crate::registry::{MetricKey, MetricsSnapshot};
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (key, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {} counter", key.name);
        let _ = writeln!(out, "{} {}", key.render(), value);
    }
    for (key, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE {} gauge", key.name);
        let _ = writeln!(out, "{} {}", key.render(), format_f64(*value));
    }
    for (key, hist) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE {} histogram", key.name);
        let mut cumulative = hist.underflow();
        for i in 0..hist.num_bins() {
            cumulative += hist.bin(i);
            let (_, hi) = hist.bin_range(i);
            let bucket_key = with_label(key, "le", &format_f64(hi));
            let _ = writeln!(out, "{}_bucket{} {}", key.name, bucket_key, cumulative);
        }
        cumulative += hist.overflow();
        let inf_key = with_label(key, "le", "+Inf");
        let _ = writeln!(out, "{}_bucket{} {}", key.name, inf_key, cumulative);
        let _ = writeln!(out, "{}_sum{} {}", key.name, label_block(key), format_f64(hist.sum()));
        let _ = writeln!(out, "{}_count{} {}", key.name, label_block(key), hist.total());
    }
    out
}

/// `{a="1",b="2"}` or empty string when there are no labels.
fn label_block(key: &MetricKey) -> String {
    if key.labels.is_empty() {
        String::new()
    } else {
        let rendered = key.render();
        rendered[key.name.len()..].to_string()
    }
}

/// Label block with one extra pair appended (for `le`).
fn with_label(key: &MetricKey, extra_key: &str, extra_value: &str) -> String {
    let mut pairs: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    pairs.push(format!("{extra_key}=\"{extra_value}\""));
    format!("{{{}}}", pairs.join(","))
}

fn format_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One sample parsed back out of the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parse the Prometheus text exposition format back into samples.
/// Comment (`#`) and blank lines are skipped. Used by the round-trip
/// tests and by bench bins that diff two snapshots.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = parse_sample_line(line)
            .map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
        samples.push(sample);
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let (name_part, value_part) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}').ok_or("unclosed label block")?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let space = line.find(' ').ok_or("missing value")?;
            (&line[..space], line[space..].trim())
        }
    };
    let value = match value_part {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|_| "bad value")?,
    };

    let (name, labels) = match name_part.find('{') {
        None => (name_part.to_string(), Vec::new()),
        Some(brace) => {
            let name = name_part[..brace].to_string();
            let body = &name_part[brace + 1..name_part.len() - 1];
            (name, parse_labels(body)?)
        }
    };
    Ok(PromSample { name, labels, value })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err("label value not quoted".to_string());
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err("dangling escape".to_string()),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let consumed = consumed.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = rest[consumed..].trim_start_matches(',');
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("rai_jobs_total", &[("kind", "submit"), ("outcome", "ok")])
            .add(12);
        reg.counter("rai_broker_published_total", &[]).add(9);
        reg.gauge("rai_worker_active_jobs", &[("worker", "w0")]).set(2.5);
        let h = reg.histogram("rai_job_stage_seconds", &[("stage", "run")], 0.0, 1.0, 4);
        h.record(-0.5); // underflow
        h.record(0.5);
        h.record(2.5);
        h.record(99.0); // overflow
        reg
    }

    #[test]
    fn prometheus_text_round_trips() {
        let snapshot = sample_registry().snapshot();
        let text = render_prometheus(&snapshot);
        let samples = parse_prometheus(&text).expect("parses");

        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            == labels
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("sample {name} {labels:?} missing"))
                .value
        };

        assert_eq!(find("rai_jobs_total", &[("kind", "submit"), ("outcome", "ok")]), 12.0);
        assert_eq!(find("rai_broker_published_total", &[]), 9.0);
        assert_eq!(find("rai_worker_active_jobs", &[("worker", "w0")]), 2.5);
        // Cumulative buckets: underflow counts toward every bucket.
        assert_eq!(find("rai_job_stage_seconds_bucket", &[("stage", "run"), ("le", "1")]), 2.0);
        assert_eq!(find("rai_job_stage_seconds_bucket", &[("stage", "run"), ("le", "3")]), 3.0);
        assert_eq!(
            find("rai_job_stage_seconds_bucket", &[("stage", "run"), ("le", "+Inf")]),
            4.0
        );
        assert_eq!(find("rai_job_stage_seconds_count", &[("stage", "run")]), 4.0);
        assert_eq!(find("rai_job_stage_seconds_sum", &[("stage", "run")]), 101.5);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let snapshot = sample_registry().snapshot();
        let text = render_prometheus(&snapshot);
        let samples = parse_prometheus(&text).expect("parses");
        let mut buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.name == "rai_job_stage_seconds_bucket")
            .map(|s| {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| if v == "+Inf" { f64::INFINITY } else { v.parse().unwrap() })
                    .expect("le label");
                (le, s.value)
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("comparable"));
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn wal_counters_render_with_per_log_labels() {
        // The durability layer exports one label set per journal
        // ("db" / "store"); the exposition text must keep the series
        // distinct and round-trip exactly.
        let reg = MetricsRegistry::new();
        for (log, appends) in [("db", 120u64), ("store", 64)] {
            let l = &[("log", log)];
            reg.counter(crate::names::WAL_APPENDS_TOTAL, l).store(appends);
            reg.counter(crate::names::WAL_BYTES_TOTAL, l).store(appends * 100);
            reg.counter(crate::names::WAL_FSYNC_BATCHES_TOTAL, l).store(appends / 4);
            reg.counter(crate::names::WAL_REPLAYED_RECORDS_TOTAL, l).store(appends / 2);
        }
        let text = render_prometheus(&reg.snapshot());
        let samples = parse_prometheus(&text).expect("parses");
        let find = |name: &str, log: &str| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.labels == vec![("log".to_string(), log.to_string())])
                .unwrap_or_else(|| panic!("sample {name}{{log=\"{log}\"}} missing"))
                .value
        };
        assert_eq!(find(crate::names::WAL_APPENDS_TOTAL, "db"), 120.0);
        assert_eq!(find(crate::names::WAL_APPENDS_TOTAL, "store"), 64.0);
        assert_eq!(find(crate::names::WAL_BYTES_TOTAL, "db"), 12000.0);
        assert_eq!(find(crate::names::WAL_FSYNC_BATCHES_TOTAL, "store"), 16.0);
        assert_eq!(find(crate::names::WAL_REPLAYED_RECORDS_TOTAL, "db"), 60.0);
    }

    #[test]
    fn empty_snapshot_renders_and_parses() {
        let snapshot = MetricsRegistry::new().snapshot();
        assert_eq!(parse_prometheus(&render_prometheus(&snapshot)).expect("parses"), vec![]);
    }
}
