//! The update engine: Mongo-style update operators.
//!
//! An update document either contains only `$`-operators (field updates)
//! or no operators at all (whole-document replacement, `_id` preserved).

use crate::value::{Document, FieldName, Value};

/// Apply `update` to `doc`. Returns `true` if the document changed.
pub fn apply_update(update: &Document, doc: &mut Document) -> bool {
    let is_operator_update = update.iter().any(|(k, _)| k.starts_with('$'));
    if !is_operator_update {
        // Replacement: keep _id, swap everything else.
        let id = doc.get("_id").cloned();
        let before = doc.clone();
        *doc = update.clone();
        if let Some(id) = id {
            doc.insert("_id", id);
        }
        return *doc != before;
    }

    let mut changed = false;
    for (op, spec) in update.iter() {
        let Some(fields) = spec.as_doc() else { continue };
        for (path, operand) in fields.iter() {
            changed |= apply_op(op, path, operand, doc);
        }
    }
    changed
}

fn apply_op(op: &str, path: &FieldName, operand: &Value, doc: &mut Document) -> bool {
    match op {
        "$set" => {
            let slot = doc.entry_path(path.clone());
            if slot != operand {
                *slot = operand.clone();
                true
            } else {
                false
            }
        }
        "$unset" => doc.remove_path(path).is_some(),
        "$inc" => {
            let delta = operand.as_f64().unwrap_or(0.0);
            let slot = doc.entry_path(path.clone());
            let new = match &*slot {
                Value::Int(i) if operand.as_i64().is_some() => {
                    Value::Int(i + operand.as_i64().expect("checked"))
                }
                Value::Int(i) => Value::Float(*i as f64 + delta),
                Value::Float(f) => Value::Float(f + delta),
                Value::Null => operand.clone(),
                other => other.clone(), // non-numeric: no-op
            };
            if *slot != new {
                *slot = new;
                true
            } else {
                false
            }
        }
        "$min" => {
            let slot = doc.entry_path(path.clone());
            let replace = match &*slot {
                Value::Null => true,
                cur => operand.cmp_order(cur) == std::cmp::Ordering::Less,
            };
            if replace {
                *slot = operand.clone();
            }
            replace
        }
        "$max" => {
            let slot = doc.entry_path(path.clone());
            let replace = match &*slot {
                Value::Null => true,
                cur => operand.cmp_order(cur) == std::cmp::Ordering::Greater,
            };
            if replace {
                *slot = operand.clone();
            }
            replace
        }
        "$push" => {
            let slot = doc.entry_path(path.clone());
            match slot {
                Value::Array(a) => {
                    a.push(operand.clone());
                    true
                }
                Value::Null => {
                    *slot = Value::Array(vec![operand.clone()]);
                    true
                }
                _ => false, // pushing onto a non-array: no-op
            }
        }
        "$pull" => {
            let slot = doc.entry_path(path.clone());
            match slot {
                Value::Array(a) => {
                    let before = a.len();
                    a.retain(|v| !v.eq_loose(operand));
                    a.len() != before
                }
                _ => false,
            }
        }
        "$rename" => {
            let Some(new_name) = operand.as_str() else {
                return false;
            };
            match doc.remove_path(path) {
                Some(v) => {
                    *doc.entry_path(new_name.to_string()) = v;
                    true
                }
                None => false,
            }
        }
        _ => false, // unknown operator: no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn set_and_unset() {
        let mut d = doc! { "a" => 1 };
        assert!(apply_update(&doc! { "$set" => doc!{ "b" => 2, "m.x" => 3 } }, &mut d));
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
        assert_eq!(d.get_path("m.x"), Some(&Value::Int(3)));
        // Setting to the same value reports no change.
        assert!(!apply_update(&doc! { "$set" => doc!{ "b" => 2 } }, &mut d));
        assert!(apply_update(&doc! { "$unset" => doc!{ "a" => 1 } }, &mut d));
        assert_eq!(d.get("a"), None);
        assert!(!apply_update(&doc! { "$unset" => doc!{ "a" => 1 } }, &mut d));
    }

    #[test]
    fn inc_int_and_float() {
        let mut d = doc! { "n" => 1, "f" => 0.5 };
        apply_update(&doc! { "$inc" => doc!{ "n" => 2, "f" => 0.25 } }, &mut d);
        assert_eq!(d.get("n"), Some(&Value::Int(3)));
        assert_eq!(d.get("f"), Some(&Value::Float(0.75)));
        // Incrementing a missing field seeds it.
        apply_update(&doc! { "$inc" => doc!{ "new" => 5 } }, &mut d);
        assert_eq!(d.get("new"), Some(&Value::Int(5)));
        // Int += float widens.
        apply_update(&doc! { "$inc" => doc!{ "n" => 0.5 } }, &mut d);
        assert_eq!(d.get("n"), Some(&Value::Float(3.5)));
    }

    #[test]
    fn min_max_for_best_runtime() {
        // RAI's re-run grading keeps the best (minimum) observed runtime.
        let mut d = doc! { "best" => 1.4 };
        assert!(apply_update(&doc! { "$min" => doc!{ "best" => 0.9 } }, &mut d));
        assert!(!apply_update(&doc! { "$min" => doc!{ "best" => 1.2 } }, &mut d));
        assert_eq!(d.get("best"), Some(&Value::Float(0.9)));
        assert!(apply_update(&doc! { "$max" => doc!{ "worst" => 2.0 } }, &mut d));
        assert!(apply_update(&doc! { "$max" => doc!{ "worst" => 3.0 } }, &mut d));
        assert!(!apply_update(&doc! { "$max" => doc!{ "worst" => 2.5 } }, &mut d));
    }

    #[test]
    fn push_and_pull() {
        let mut d = doc! { "log" => Vec::<i64>::new() };
        apply_update(&doc! { "$push" => doc!{ "log" => 1 } }, &mut d);
        apply_update(&doc! { "$push" => doc!{ "log" => 2 } }, &mut d);
        apply_update(&doc! { "$push" => doc!{ "times" => 0.5 } }, &mut d);
        assert_eq!(d.get("log"), Some(&Value::from(vec![1i64, 2])));
        assert_eq!(d.get("times"), Some(&Value::from(vec![0.5])));
        assert!(apply_update(&doc! { "$pull" => doc!{ "log" => 1 } }, &mut d));
        assert_eq!(d.get("log"), Some(&Value::from(vec![2i64])));
        assert!(!apply_update(&doc! { "$pull" => doc!{ "log" => 99 } }, &mut d));
    }

    #[test]
    fn rename() {
        let mut d = doc! { "old" => 7 };
        assert!(apply_update(&doc! { "$rename" => doc!{ "old" => "new" } }, &mut d));
        assert_eq!(d.get("new"), Some(&Value::Int(7)));
        assert_eq!(d.get("old"), None);
        assert!(!apply_update(&doc! { "$rename" => doc!{ "old" => "new" } }, &mut d));
    }

    #[test]
    fn replacement_preserves_id() {
        let mut d = doc! { "_id" => 42, "a" => 1 };
        assert!(apply_update(&doc! { "b" => 2 }, &mut d));
        assert_eq!(d.get("_id"), Some(&Value::Int(42)));
        assert_eq!(d.get("a"), None);
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn unknown_operator_is_noop() {
        let mut d = doc! { "a" => 1 };
        assert!(!apply_update(&doc! { "$frobnicate" => doc!{ "a" => 2 } }, &mut d));
        assert_eq!(d.get("a"), Some(&Value::Int(1)));
    }
}
