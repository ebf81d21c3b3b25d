//! The update engine: `{"$set": {path: value, …}}`, the one update the
//! system issues.

use crate::value::{Document, FieldName, Value};
use std::borrow::Cow;

/// Apply `update`'s `$set` to `doc`, field by dotted path. Returns
/// `true` if the document changed — a field set to a new value, or one
/// (or a document on its path) that was not there. Anything else in
/// `update` — another `$`-key, a bare field — is not an instruction and
/// changes nothing.
pub fn apply_update(update: &Document, doc: &mut Document) -> bool {
    set_fields(update).fold(false, |changed, (path, value)| {
        set(doc, path.clone(), Cow::Borrowed(value)) | changed
    })
}

/// [`apply_update`] of an update handed over: its `$set` values are
/// moved into `doc`, not copied; a borrowed one is copied as
/// [`apply_update`] copies it.
pub(crate) fn apply_update_cow(update: Cow<'_, Document>, doc: &mut Document) -> bool {
    let mut update = match update {
        Cow::Borrowed(update) => return apply_update(update, doc),
        Cow::Owned(update) => update,
    };
    let Some(Value::Doc(fields)) = update.0.remove("$set") else { return false };
    fields.0.into_iter().fold(false, |changed, (path, value)| {
        set(doc, path, Cow::Owned(value)) | changed
    })
}

/// Set the value at the dotted `path` of `doc`; whether that changed
/// the document.
fn set(doc: &mut Document, path: FieldName, value: Cow<'_, Value>) -> bool {
    let (slot, created) = doc.entry_path_created(path);
    if created || *slot != *value {
        *slot = value.into_owned();
        true
    } else {
        false
    }
}

/// The `(path, value)` pairs of `update`'s `$set`; none without one.
fn set_fields(update: &Document) -> impl Iterator<Item = (&FieldName, &Value)> {
    update.get("$set").and_then(Value::as_doc).into_iter().flat_map(Document::iter)
}

/// Whether `update`'s `$set` can move the value at the dotted path
/// `read`: it writes a path that [`overlaps`] it.
pub(crate) fn can_move(update: &Document, read: &str) -> bool {
    set_fields(update).any(|(set, _)| overlaps(read, set))
}

/// Whether writing `set` can move the value at the dotted path `read`:
/// the same path, or one a prefix of the other up to a dot (a write
/// inside the value, or over a document the value lies in).
fn overlaps(read: &str, set: &str) -> bool {
    let (short, long) = if read.len() <= set.len() { (read, set) } else { (set, read) };
    long.strip_prefix(short).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
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
    fn a_set_that_adds_fields_reports_a_change() {
        let mut d = doc! { "a" => 1 };
        let update = doc! { "$set" => doc!{ "x" => Value::Null, "m.y" => Value::Null } };
        assert!(apply_update(&update, &mut d), "two fields were added");
        assert_eq!(d, doc! { "a" => 1, "m" => doc!{ "y" => Value::Null }, "x" => Value::Null });
        assert!(!apply_update(&update, &mut d), "the same set again changes nothing");

        // A path through a field that is not a document replaces it.
        let mut d = doc! { "m" => 5 };
        assert!(apply_update(&doc! { "$set" => doc!{ "m.y" => Value::Null } }, &mut d));
        assert_eq!(d, doc! { "m" => doc!{ "y" => Value::Null } });

        // Handed over, the same answers and the same documents.
        for (before, update) in [
            (doc! { "a" => 1 }, update.clone()),
            (doc! { "m" => 5 }, doc! { "$set" => doc!{ "m.y" => Value::Null } }),
            (doc! { "a" => 1 }, doc! { "$set" => doc!{ "a" => 1 } }),
            (doc! { "a" => 1 }, doc! { "$set" => doc!{ "a" => 2, "b.c" => "x" } }),
            (doc! { "a" => 1 }, doc! { "$set" => 7 }),
        ] {
            let (mut borrowed, mut owned) = (before.clone(), before);
            let changed = apply_update(&update, &mut borrowed);
            assert_eq!(apply_update_cow(Cow::Owned(update.clone()), &mut owned), changed, "{update}");
            assert_eq!(owned, borrowed, "{update}");
        }
    }

    #[test]
    fn a_set_path_overlaps_the_paths_it_can_move() {
        for (read, set) in [("a", "a"), ("a", "a.b"), ("a.b", "a"), ("a.b.c", "a.b")] {
            assert!(overlaps(read, set), "{read} / {set}");
        }
        for (read, set) in [("a", "ab"), ("ab", "a"), ("a.b", "a.c"), ("a.bc", "a.b"), ("b", "a")] {
            assert!(!overlaps(read, set), "{read} / {set}");
        }
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
