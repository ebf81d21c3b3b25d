//! Aggregation pipelines — the audit/reporting queries the paper's §IV
//! database exists for ("useful for grading or any other coursework
//! auditing process"): per-team submission counts, success rates, mean
//! runtimes per worker, and so on.
//!
//! A pipeline is a list of [`Stage`]s applied in order: `$group`, and
//! a `$sort` of what it produced.

use crate::collection::{Collection, SortOrder};
use crate::value::{Document, Value};
use std::borrow::Cow;

/// A document on its way through a pipeline: still the collection's
/// until a stage builds a new one.
type Row<'a> = Cow<'a, Document>;

/// One accumulator inside a `$group`.
#[derive(Clone, Debug, PartialEq)]
pub enum Accumulator {
    /// Count of documents in the group.
    Count,
    /// Sum of a numeric field (non-numeric values ignored).
    Sum(String),
    /// Mean of a numeric field (groups with no numeric values get Null).
    Avg(String),
    /// Minimum by the database value order.
    Min(String),
}

/// A pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub enum Stage {
    /// Group by a dotted path (`None` groups everything into one
    /// bucket); each output document carries `_id` (the group key) and
    /// one field per accumulator.
    Group {
        /// Dotted path of the grouping key.
        by: Option<String>,
        /// `(output field, accumulator)` pairs.
        fields: Vec<(String, Accumulator)>,
    },
    /// Sort by a dotted path.
    Sort(String, SortOrder),
}

/// Run a pipeline over a collection. The stages read the collection's
/// own documents; only what the pipeline returns is copied out (a
/// `$group` builds its output anyway).
pub fn aggregate(collection: &Collection, pipeline: &[Stage]) -> Vec<Document> {
    let mut docs: Vec<Row<'_>> = collection.scan().map(Cow::Borrowed).collect();
    for stage in pipeline {
        docs = apply_stage(docs, stage);
    }
    docs.into_iter().map(Cow::into_owned).collect()
}

fn apply_stage<'a>(docs: Vec<Row<'a>>, stage: &Stage) -> Vec<Row<'a>> {
    match stage {
        Stage::Sort(field, order) => {
            let mut docs = docs;
            let null = Value::Null;
            docs.sort_by(|a, b| {
                let x = a.get_path(field).unwrap_or(&null);
                let y = b.get_path(field).unwrap_or(&null);
                match order {
                    SortOrder::Asc => x.cmp_order(y),
                    SortOrder::Desc => x.cmp_order(y).reverse(),
                }
            });
            docs
        }
        Stage::Group { by, fields } => {
            group(docs, by.as_deref(), fields).into_iter().map(Cow::Owned).collect()
        }
    }
}

fn group(docs: Vec<Row<'_>>, by: Option<&str>, fields: &[(String, Accumulator)]) -> Vec<Document> {
    // Group keys keep first-seen order, then output is sorted by key for
    // determinism.
    let mut keys: Vec<Value> = Vec::new();
    let mut buckets: Vec<Vec<Row<'_>>> = Vec::new();
    for d in docs {
        let key = match by {
            Some(path) => d.get_path(path).cloned().unwrap_or(Value::Null),
            None => Value::Null,
        };
        match keys.iter().position(|k| k.eq_loose(&key)) {
            Some(i) => buckets[i].push(d),
            None => {
                keys.push(key);
                buckets.push(vec![d]);
            }
        }
    }
    let mut out: Vec<(Value, Document)> = keys
        .into_iter()
        .zip(buckets)
        .map(|(key, bucket)| {
            let mut doc = Document::new();
            doc.insert("_id", key.clone());
            for (name, acc) in fields {
                doc.insert(name.clone(), run_accumulator(acc, &bucket));
            }
            (key, doc)
        })
        .collect();
    out.sort_by(|(a, _), (b, _)| a.cmp_order(b));
    out.into_iter().map(|(_, d)| d).collect()
}

fn run_accumulator(acc: &Accumulator, bucket: &[Row<'_>]) -> Value {
    // The bucket's values at `path`, where they live.
    fn values<'a>(bucket: &'a [Row<'_>], path: &'a str) -> impl Iterator<Item = &'a Value> {
        bucket.iter().filter_map(move |d| d.get_path(path))
    }
    match acc {
        Accumulator::Count => Value::Int(bucket.len() as i64),
        Accumulator::Sum(path) => {
            let total: f64 = values(bucket, path).filter_map(Value::as_f64).sum();
            // Keep integer sums integral when every input was an Int.
            if values(bucket, path).all(|v| matches!(v, Value::Int(_))) {
                Value::Int(total as i64)
            } else {
                Value::Float(total)
            }
        }
        Accumulator::Avg(path) => {
            let nums = || values(bucket, path).filter_map(Value::as_f64);
            match nums().count() {
                0 => Value::Null,
                n => Value::Float(nums().sum::<f64>() / n as f64),
            }
        }
        // Min skips explicit nulls: a failed submission records
        // `internal_secs: null` and must not become the "best" runtime.
        Accumulator::Min(path) => values(bucket, path)
            .filter(|v| !matches!(v, Value::Null))
            .min_by(|a, b| a.cmp_order(b))
            .cloned()
            .unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    /// The submissions table the worker writes (§V step ⑦).
    fn submissions() -> Collection {
        let mut c = Collection::new();
        c.insert_many([
            doc! { "team" => "a", "success" => true,  "secs" => 0.5, "worker" => "w0" },
            doc! { "team" => "a", "success" => true,  "secs" => 0.4, "worker" => "w1" },
            doc! { "team" => "a", "success" => false, "worker" => "w0" },
            doc! { "team" => "b", "success" => true,  "secs" => 1.5, "worker" => "w0" },
            doc! { "team" => "b", "success" => true,  "secs" => 1.1, "worker" => "w1" },
            doc! { "team" => "c", "success" => false, "worker" => "w1" },
        ]);
        c
    }

    #[test]
    fn per_team_submission_counts() {
        let rows = aggregate(
            &submissions(),
            &[Stage::Group {
                by: Some("team".into()),
                fields: vec![("n".into(), Accumulator::Count)],
            }],
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("_id"), Some(&Value::from("a")));
        assert_eq!(rows[0].get("n"), Some(&Value::Int(3)));
        assert_eq!(rows[2].get("n"), Some(&Value::Int(1)));
    }

    #[test]
    fn group_mean_and_best_runtime() {
        let rows = aggregate(
            &submissions(),
            &[Stage::Group {
                by: Some("team".into()),
                fields: vec![
                    ("avg".into(), Accumulator::Avg("secs".into())),
                    ("best".into(), Accumulator::Min("secs".into())),
                ],
            }],
        );
        assert_eq!(rows.len(), 3);
        // Team a's failed row carries no `secs` and counts for nothing.
        let a = &rows[0];
        assert!((a.get("avg").unwrap().as_f64().unwrap() - 0.45).abs() < 1e-9);
        assert_eq!(a.get("best"), Some(&Value::Float(0.4)));
        // Team c has no numeric inputs at all.
        assert_eq!(rows[2].get("avg"), Some(&Value::Null));
        assert_eq!(rows[2].get("best"), Some(&Value::Null));
    }

    #[test]
    fn global_group_and_sum() {
        let rows = aggregate(
            &submissions(),
            &[Stage::Group {
                by: None,
                fields: vec![
                    ("total".into(), Accumulator::Count),
                    ("time".into(), Accumulator::Sum("secs".into())),
                ],
            }],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("total"), Some(&Value::Int(6)));
        assert!((rows[0].get("time").unwrap().as_f64().unwrap() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn integer_sum_stays_integer() {
        let mut c = Collection::new();
        c.insert_many([doc! { "n" => 2 }, doc! { "n" => 3 }]);
        let rows = aggregate(
            &c,
            &[Stage::Group {
                by: None,
                fields: vec![("s".into(), Accumulator::Sum("n".into()))],
            }],
        );
        assert_eq!(rows[0].get("s"), Some(&Value::Int(5)));
    }

    #[test]
    fn group_then_sort() {
        let by_worker = Stage::Group {
            by: Some("worker".into()),
            fields: vec![("busy".into(), Accumulator::Sum("secs".into()))],
        };
        let busy = |order| {
            aggregate(&submissions(), &[by_worker.clone(), Stage::Sort("busy".into(), order)])
                .iter()
                .map(|row| row.get("_id").unwrap().as_str().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        // w0: 0.5 + 1.5, w1: 0.4 + 1.1.
        assert_eq!(busy(SortOrder::Desc), ["w0", "w1"]);
        assert_eq!(busy(SortOrder::Asc), ["w1", "w0"]);
        // Empty collection → empty output, no panics.
        assert!(aggregate(&Collection::new(), &[by_worker]).is_empty());
    }

    #[test]
    fn numeric_keys_unify_across_types() {
        let mut c = Collection::new();
        c.insert_many([doc! { "k" => 1, "v" => 1 }, doc! { "k" => 1.0, "v" => 2 }]);
        let rows = aggregate(
            &c,
            &[Stage::Group {
                by: Some("k".into()),
                fields: vec![("n".into(), Accumulator::Count)],
            }],
        );
        assert_eq!(rows.len(), 1, "Int(1) and Float(1.0) share a bucket");
        assert_eq!(rows[0].get("n"), Some(&Value::Int(2)));
    }
}
