//! Property tests for the document database: the query planner must be
//! invisible (index results ≡ scan results), updates must do what they
//! say, and sorting must respect the value order.

use proptest::prelude::*;
use rai_db::{doc, Collection, DbRecord, Document, FieldName, FindOptions, Value};

/// Scalars, over small domains so a literal filter actually hits —
/// equality is the only comparison there is.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        (-1000i64..1000).prop_map(Value::Int),
        (-6i64..8).prop_map(|half| Value::Float(half as f64 / 2.0)),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

/// What a document's field holds: a scalar, or an array of scalars (a
/// literal matches an array that contains it, and an index holding an
/// array key must send that literal back to the scan).
fn arb_field_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        arb_value(),
        arb_value(),
        prop::collection::vec(arb_value(), 0..3).prop_map(Value::Array),
    ]
}

fn arb_doc() -> impl Strategy<Value = Document> {
    // Fixed small field universe so queries actually hit.
    prop::collection::vec(
        (prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")], arb_field_value()),
        0..5,
    )
    .prop_map(|fields| {
        let mut d = Document::new();
        for (k, v) in fields {
            d.insert(k, v);
        }
        d
    })
}

/// A random query over the same field universe: one literal.
fn arb_query() -> impl Strategy<Value = Document> {
    (prop_oneof![Just("a"), Just("b"), Just("c")], arb_value())
        .prop_map(|(field, literal)| doc! { field => literal })
}

/// A single-field condition: a scalar literal, or — the engine has no
/// operators and must stay total — a `$`-keyed document, which is a
/// literal too.
fn arb_condition() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        arb_value(),
        arb_value(),
        (prop_oneof![Just("$eq"), Just("$gt"), Just("$in")], arb_value())
            .prop_map(|(op, operand)| Value::Doc(doc! { op => operand })),
    ]
}

/// A conjunction over 1–3 fields (duplicate fields collapse; the last
/// condition wins, same as any literal query document).
fn arb_multi_query() -> impl Strategy<Value = Document> {
    prop::collection::vec(
        (
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
            arb_condition(),
        ),
        1..4,
    )
    .prop_map(|conds| {
        let mut q = Document::new();
        for (field, cond) in conds {
            q.insert(field, cond);
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_and_scan_agree(docs in prop::collection::vec(arb_doc(), 0..40), query in arb_query()) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        for d in &docs {
            plain.insert_one(d.clone());
            indexed.insert_one(d.clone());
        }
        for field in ["a", "b", "c"] {
            indexed.create_index(field);
        }
        prop_assert_eq!(plain.find(&query), indexed.find(&query));
        prop_assert_eq!(plain.count(&query), indexed.count(&query));
        prop_assert_eq!(plain.find_one(&query), indexed.find_one(&query));
    }

    /// The planner must stay invisible under conjunctions too: literals
    /// across partially indexed fields return the same docs in the same
    /// order as a full scan.
    #[test]
    fn multi_field_planner_and_scan_agree(
        docs in prop::collection::vec(arb_doc(), 0..40),
        query in arb_multi_query(),
    ) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        for d in &docs {
            plain.insert_one(d.clone());
            indexed.insert_one(d.clone());
        }
        // "d" stays unindexed on purpose: residual predicates must
        // still be applied by the post-candidate match.
        for field in ["a", "b", "c"] {
            indexed.create_index(field);
        }
        prop_assert_eq!(plain.find(&query), indexed.find(&query));
        prop_assert_eq!(plain.count(&query), indexed.count(&query));
        prop_assert_eq!(plain.find_one(&query), indexed.find_one(&query));
    }

    /// `find_with` must return the same docs in the same order whether
    /// the sort runs through the index fast path or materialise+sort —
    /// across filters, both directions, and limits.
    #[test]
    fn find_with_indexed_sort_matches_scan(
        docs in prop::collection::vec(arb_doc(), 0..40),
        query in arb_multi_query(),
        sort_field in prop_oneof![Just("a"), Just("b"), Just("d")],
        desc in any::<bool>(),
        limit in prop_oneof![Just(None), (0usize..12).prop_map(Some)],
    ) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        for d in &docs {
            plain.insert_one(d.clone());
            indexed.insert_one(d.clone());
        }
        for field in ["a", "b", "c"] {
            indexed.create_index(field);
        }
        let mut opts = if desc {
            FindOptions::sort_desc(sort_field)
        } else {
            FindOptions::sort_asc(sort_field)
        };
        if let Some(n) = limit {
            opts = opts.limit(n);
        }
        prop_assert_eq!(plain.find_with(&query, &opts), indexed.find_with(&query, &opts));
    }

    #[test]
    fn index_stays_consistent_under_updates(
        docs in prop::collection::vec(arb_doc(), 1..25),
        new_val in arb_value(),
        query in arb_query(),
        upsert in any::<bool>(),
    ) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        for d in &docs {
            plain.insert_one(d.clone());
            indexed.insert_one(d.clone());
        }
        indexed.create_index("a");
        let update = doc! { "$set" => doc!{ "a" => new_val.clone() } };
        let r1 = plain.update_one(&query, &update, upsert);
        let r2 = indexed.update_one(&query, &update, upsert);
        prop_assert_eq!(r1, r2);
        // After mutation, queries still agree.
        for probe in [doc! {}, doc! { "a" => new_val }, query] {
            prop_assert_eq!(plain.find(&probe), indexed.find(&probe));
        }
    }

    #[test]
    fn set_then_get_returns_value(mut d in arb_doc(), v in arb_value()) {
        rai_db::apply_update(&doc! { "$set" => doc!{ "probe" => v.clone() } }, &mut d);
        prop_assert_eq!(d.get("probe"), Some(&v));
    }

    #[test]
    fn sort_is_ordered_and_complete(docs in prop::collection::vec(arb_doc(), 0..30)) {
        let mut c = Collection::new();
        let n = docs.len();
        for d in docs {
            c.insert_one(d);
        }
        let sorted = c.find_with(&Document::new(), &FindOptions::sort_asc("a"));
        prop_assert_eq!(sorted.len(), n);
        let null = Value::Null;
        for w in sorted.windows(2) {
            let x = w[0].get("a").unwrap_or(&null);
            let y = w[1].get("a").unwrap_or(&null);
            prop_assert_ne!(x.cmp_order(y), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn delete_then_count_zero(docs in prop::collection::vec(arb_doc(), 0..30), query in arb_query()) {
        let mut c = Collection::new();
        for d in docs {
            c.insert_one(d);
        }
        let before = c.count(&query);
        let removed = c.delete_many(&query);
        prop_assert_eq!(before, removed);
        prop_assert_eq!(c.count(&query), 0);
    }

    #[test]
    fn matches_never_panics(d in arb_doc(), q in arb_doc()) {
        let _ = rai_db::matches(&q, &d);
    }
}

// ---- field names: borrowed and owned text are one name -------------------

/// Field names as literals — the empty name, dotted names, multi-byte
/// text, a `$` — so the same text can be had borrowed and owned.
const NAMES: [&str; 8] = ["a", "b", "", "a.b", "b..a", ".", "名", "$x"];

fn arb_name() -> impl Strategy<Value = &'static str> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i])
}

/// A field as text: its name, its value and — if not empty — the
/// nested document that replaces the value.
type Field = (&'static str, Value, Vec<(&'static str, Value)>);

/// Values with nesting, so names occur at depth too. Names are given
/// as text for the caller to own or borrow.
fn arb_fields() -> impl Strategy<Value = Vec<Field>> {
    let nested = prop::collection::vec((arb_name(), arb_value()), 0..3);
    prop::collection::vec((arb_name(), arb_value(), nested), 0..6)
}

/// `fields` as a document whose every name is `name(text)`.
fn build(fields: &[Field], name: impl Fn(&'static str) -> FieldName) -> Document {
    let mut d = Document::new();
    for (k, v, nested) in fields {
        if nested.is_empty() {
            d.insert(name(k), v.clone());
        } else {
            let mut inner = Document::new();
            for (k, v) in nested {
                inner.insert(name(k), v.clone());
            }
            d.insert(name(k), inner);
        }
    }
    d
}

/// `entry_path` as it was when every name was a `String`: split on
/// dots, own every segment.
fn entry_path_reference<'d>(doc: &'d mut Document, path: &str) -> &'d mut Value {
    let mut parts: Vec<&str> = path.split('.').collect();
    let last = parts.pop().expect("path is non-empty");
    let mut cur = &mut doc.0;
    for p in parts {
        let slot = cur.entry(p.to_string().into()).or_insert_with(|| Value::Doc(Document::new()));
        if !matches!(slot, Value::Doc(_)) {
            *slot = Value::Doc(Document::new());
        }
        match slot {
            Value::Doc(d) => cur = &mut d.0,
            _ => unreachable!("coerced to Doc above"),
        }
    }
    cur.entry(last.to_string().into()).or_insert(Value::Null)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A document does not show whether its names borrow or own their
    /// text: equality, the value order, `Display` and the journal bytes
    /// agree, and the document replayed from its own record — whose
    /// names are all owned — is the same document again.
    #[test]
    fn literal_and_owned_names_are_one_document(fields in arb_fields()) {
        let literal = build(&fields, FieldName::from);
        let owned = build(&fields, |k| k.to_string().into());
        prop_assert_eq!(&literal, &owned);
        let (l, o) = (Value::Doc(literal.clone()), Value::Doc(owned.clone()));
        prop_assert_eq!(l.cmp_order(&o), std::cmp::Ordering::Equal);
        prop_assert_eq!(literal.to_string(), owned.to_string());
        let names = |d: &Document| d.iter().map(|(k, _)| k.as_str().to_string()).collect::<Vec<_>>();
        prop_assert_eq!(names(&literal), names(&owned));

        let record = |doc: &Document| DbRecord::InsertOne { coll: "c".into(), doc: doc.clone() };
        let bytes = record(&literal).encode();
        prop_assert_eq!(&bytes, &record(&owned).encode());
        prop_assert_eq!(DbRecord::decode(&bytes), Some(record(&literal)));
    }

    /// Dotted paths over arbitrary names — empty segments, a scalar in
    /// the way, a path that is one name — resolve as they did when names
    /// were `String`s, whether the path's text is borrowed or owned, and
    /// `$set` goes the same way.
    #[test]
    fn dotted_paths_behave_as_before(fields in arb_fields(), path in arb_name(), v in arb_value()) {
        let mut expected = build(&fields, FieldName::from);
        *entry_path_reference(&mut expected, path) = v.clone();

        let mut borrowed = build(&fields, FieldName::from);
        *borrowed.entry_path(path) = v.clone();
        let mut owned = build(&fields, |k| k.to_string().into());
        *owned.entry_path(path.to_string()) = v.clone();
        let mut set = build(&fields, FieldName::from);
        rai_db::apply_update(&doc! { "$set" => doc!{ path => v.clone() } }, &mut set);
        for got in [&borrowed, &owned, &set] {
            prop_assert_eq!(got, &expected);
            prop_assert_eq!(got.get_path(path), Some(&v));
        }
    }

    /// An index key that holds one id, then several, then one, then
    /// none answers as a scan does at every step.
    #[test]
    fn index_entries_of_one_and_of_many_agree_with_a_scan(
        steps in prop::collection::vec((0u8..3, 0i64..4, 0i64..4), 1..40),
    ) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        indexed.create_index("k");
        for (step, a, b) in steps {
            for c in [&mut plain, &mut indexed] {
                match step {
                    0 => {
                        c.insert_one(doc! { "k" => a, "n" => b });
                    }
                    1 => {
                        c.update_one(&doc! { "k" => a }, &doc! { "$set" => doc!{ "k" => b } }, false);
                    }
                    _ => {
                        c.delete_many(&doc! { "n" => b, "k" => a });
                    }
                }
            }
            for k in 0i64..4 {
                prop_assert_eq!(plain.find(&doc! { "k" => k }), indexed.find(&doc! { "k" => k }));
            }
            let by_key = FindOptions::sort_desc("k");
            prop_assert_eq!(plain.find_with(&doc! {}, &by_key), indexed.find_with(&doc! {}, &by_key));
        }
    }
}
