//! The query engine: a filter is a [`Document`] of literals, and a
//! document matches when every field of the filter equals its own.

use crate::value::{Document, Value};

/// Whether `doc` satisfies `query`: each field of `query` (a dotted
/// path) holds a literal the document's value at that path equals. Two
/// Mongo semantics apply: a literal also matches an array field that
/// contains it, and a `Null` literal matches a missing field. There are
/// no operators — a `$`-keyed condition is the literal document it is.
pub fn matches(query: &Document, doc: &Document) -> bool {
    query.iter().all(|(field, literal)| match doc.get_path(field) {
        Some(v) => {
            v.eq_loose(literal)
                || v.as_array().is_some_and(|arr| arr.iter().any(|x| x.eq_loose(literal)))
        }
        None => matches!(literal, Value::Null),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn submission() -> Document {
        doc! {
            "team" => "gpu-gophers",
            "runtime_s" => 0.47,
            "attempts" => 3,
            "final" => true,
            "tags" => vec!["cuda", "fast"],
            "meta" => doc!{ "worker" => "p2-07", "gpu" => "K80" },
        }
    }

    #[test]
    fn literal_equality() {
        let d = submission();
        assert!(matches(&doc! { "team" => "gpu-gophers" }, &d));
        assert!(!matches(&doc! { "team" => "other" }, &d));
        assert!(matches(&doc! { "final" => true, "attempts" => 3 }, &d));
        // Int/Float cross-type equality.
        assert!(matches(&doc! { "attempts" => 3.0 }, &d));
    }

    #[test]
    fn dotted_path_queries() {
        let d = submission();
        assert!(matches(&doc! { "meta.gpu" => "K80" }, &d));
        assert!(!matches(&doc! { "meta.gpu" => "K40" }, &d));
    }

    #[test]
    fn null_literal_matches_a_missing_field() {
        let d = submission();
        assert!(matches(&doc! { "missing" => Value::Null }, &d));
        assert!(!matches(&doc! { "team" => Value::Null }, &d));
    }

    #[test]
    fn array_membership_via_literal() {
        let d = submission();
        assert!(matches(&doc! { "tags" => "cuda" }, &d));
        assert!(!matches(&doc! { "tags" => "slow" }, &d));
    }

    #[test]
    fn empty_query_matches_everything() {
        assert!(matches(&Document::new(), &submission()));
        assert!(matches(&Document::new(), &Document::new()));
    }

    #[test]
    fn nested_doc_is_literal_equality() {
        let d = doc! { "meta" => doc!{ "gpu" => "K80" } };
        assert!(matches(&doc! { "meta" => doc!{ "gpu" => "K80" } }, &d));
        assert!(!matches(&doc! { "meta" => doc!{ "gpu" => "K40" } }, &d));
    }

    /// The engine is total: what used to be an operator is a literal
    /// document or a field name, matches no scalar, and never panics.
    #[test]
    fn dollar_keyed_conditions_match_only_themselves() {
        let d = submission();
        for op in ["$gt", "$lt", "$eq", "$ne", "$in", "$exists", "$frob"] {
            assert!(!matches(&doc! { "attempts" => doc!{ op => 1 } }, &d), "{op}");
            assert!(!matches(&doc! { "missing" => doc!{ op => 1 } }, &d), "{op}");
        }
        // …but equals a field that holds that very document.
        let odd = doc! { "x" => doc!{ "$gt" => 1 } };
        assert!(matches(&doc! { "x" => doc!{ "$gt" => 1 } }, &odd));
        // A `$`-named top-level field is a field name like any other.
        assert!(!matches(&doc! { "$or" => vec![Value::Doc(doc!{ "final" => true })] }, &d));
        assert!(!matches(&doc! { "$not" => doc!{ "team" => "x" } }, &d));
    }
}
