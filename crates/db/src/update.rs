//! The update engine: `{"$set": {path: value, …}}`, the one update the
//! system issues.

use crate::value::Document;

/// Apply `update`'s `$set` to `doc`, field by dotted path. Returns
/// `true` if the document changed. Anything else in `update` — another
/// `$`-key, a bare field — is not an instruction and changes nothing.
pub fn apply_update(update: &Document, doc: &mut Document) -> bool {
    let Some(fields) = update.get("$set").and_then(|spec| spec.as_doc()) else {
        return false;
    };
    let mut changed = false;
    for (path, value) in fields.iter() {
        let slot = doc.entry_path(path.clone());
        if slot != value {
            *slot = value.clone();
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, Value};

    #[test]
    fn set_writes_fields_and_dotted_paths() {
        let mut d = doc! { "a" => 1 };
        assert!(apply_update(&doc! { "$set" => doc!{ "b" => 2, "m.x" => 3 } }, &mut d));
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
        assert_eq!(d.get_path("m.x"), Some(&Value::Int(3)));
        // Setting to the same value reports no change.
        assert!(!apply_update(&doc! { "$set" => doc!{ "b" => 2 } }, &mut d));
        assert_eq!(d.get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn anything_but_set_is_a_noop() {
        let before = doc! { "_id" => 42, "a" => 1 };
        let mut d = before.clone();
        for update in [
            doc! { "$frobnicate" => doc!{ "a" => 2 } },
            doc! { "$inc" => doc!{ "a" => 2 } },
            doc! { "$unset" => doc!{ "a" => true } },
            doc! { "b" => 2 },
            doc! { "$set" => 7 },
            doc! {},
        ] {
            assert!(!apply_update(&update, &mut d), "{update}");
            assert_eq!(d, before, "{update}");
        }
        // Beside a `$set`, the rest is still ignored.
        assert!(apply_update(&doc! { "$set" => doc!{ "a" => 2 }, "$inc" => doc!{ "a" => 5 }, "b" => 1 }, &mut d));
        assert_eq!(d, doc! { "_id" => 42, "a" => 2 });
    }
}
