//! Property tests for the document database: the query planner must be
//! invisible (index results ≡ scan results), updates must do what they
//! say, sorting must respect the value order, and a damaged log must
//! recover to documents the collections held.

use proptest::prelude::*;
use rai_db::{doc, Collection, Database, DbRecord, Document, FieldName, FindOptions, Tables, Value};
use rai_wal::{decode_segment, DurabilityConfig, MemDisk, ReplayStats, Wal};
use std::sync::Arc;

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

/// The two paths the update-sequence test indexes: a top-level field
/// and a dotted one.
const INDEXED_PATHS: [&str; 2] = ["a", "m.x"];

/// A document that, two times in three, has an `m` as well.
fn arb_nested_doc() -> impl Strategy<Value = Document> {
    (arb_doc(), 0u8..3, arb_m()).prop_map(|(mut d, with_m, m)| {
        if with_m > 0 {
            d.insert("m", m);
        }
        d
    })
}

/// What `m` holds: a scalar, or a document with some of `x` and `y`.
fn arb_m() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        (any::<bool>(), arb_field_value(), any::<bool>(), arb_value()).prop_map(
            |(with_x, x, with_y, y)| {
                let mut m = Document::new();
                if with_x {
                    m.insert("x", x);
                }
                if with_y {
                    m.insert("y", y);
                }
                Value::Doc(m)
            }
        ),
    ]
}

/// One `update_one` call: a query on an indexed path or not, a `$set`
/// of one to three paths that may move either index, and whether it
/// upserts. One step in four sets the queried path to the literal it
/// matched, which leaves that indexed value where it is.
fn arb_update_step() -> impl Strategy<Value = (Document, Document, bool)> {
    let path = prop_oneof![Just("a"), Just("b"), Just("m"), Just("m.x"), Just("m.y")];
    let set = prop::collection::vec(
        (path, prop_oneof![arb_field_value(), arb_field_value(), arb_field_value(), arb_m()]),
        1..4,
    );
    (
        prop_oneof![Just("a"), Just("b"), Just("m.x")],
        arb_value(),
        set,
        any::<bool>(),
        0u8..4,
    )
        .prop_map(|(field, literal, set, upsert, same)| {
            let mut fields = Document::new();
            if same == 0 {
                fields.insert(field, literal.clone());
            } else {
                for (path, value) in set {
                    fields.insert(path, value);
                }
            }
            (doc! { field => literal }, doc! { "$set" => fields }, upsert)
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
    fn indexes_stay_consistent_through_update_sequences(
        docs in prop::collection::vec(arb_nested_doc(), 0..12),
        steps in prop::collection::vec(arb_update_step(), 1..12),
    ) {
        let mut plain = Collection::new();
        let mut indexed = Collection::new();
        indexed.create_index("a");
        indexed.create_index("m.x");
        for d in &docs {
            plain.insert_one(d.clone());
            indexed.insert_one(d.clone());
        }
        // Every value either indexed path ever held: a stale entry
        // under one shows up as a candidate the rebuilt index lacks.
        let mut seen: Vec<Value> = Vec::new();
        for (query, update, upsert) in steps {
            for d in plain.scan() {
                for path in INDEXED_PATHS {
                    if let Some(v) = d.get_path(path).filter(|v| !seen.contains(v)) {
                        seen.push(v.clone());
                    }
                }
            }
            let r1 = plain.update_one(&query, &update, upsert);
            let r2 = indexed.update_one(&query, &update, upsert);
            prop_assert_eq!(r1, r2);

            // The same documents as a collection whose indexes were
            // built from scratch. No step deletes, so re-inserting in
            // `_id` order hands out the same `_id`s.
            let mut rebuilt = Collection::new();
            for d in indexed.scan() {
                rebuilt.insert_one(d.clone());
            }
            for path in INDEXED_PATHS {
                rebuilt.create_index(path);
            }
            prop_assert_eq!(rebuilt.find(&doc! {}), plain.find(&doc! {}));
            for path in INDEXED_PATHS {
                for literal in seen.iter().chain([&Value::Int(0)]) {
                    let probe = doc! { path => literal.clone() };
                    prop_assert_eq!(indexed.candidate_count(&probe), rebuilt.candidate_count(&probe));
                    prop_assert_eq!(indexed.find(&probe), plain.find(&probe));
                }
                let sorted = FindOptions::sort_asc(path);
                prop_assert_eq!(indexed.find_with(&doc! {}, &sorted), plain.find_with(&doc! {}, &sorted));
            }
            prop_assert_eq!(indexed.find(&query), plain.find(&query));
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

// ---- a damaged log recovers ----------------------------------------------

/// The tables a history writes.
const COLLS: [&str; 2] = ["submissions", "rankings"];

/// Table `c` of [`COLLS`].
fn table(tables: &Tables, c: usize) -> &Collection {
    if c == 0 { &tables.submissions } else { &tables.rankings }
}

/// [`table`], mutably.
fn table_mut(tables: &mut Tables, c: usize) -> &mut Collection {
    if c == 0 { &mut tables.submissions } else { &mut tables.rankings }
}

/// One step of a durable history. Every document is `{ k, v }` (plus its
/// `_id`): inserts write one, an upsert `$set`s `v` on the first `k`
/// match or seeds `{ k, v }`, so whatever order a step replays in, the
/// fields it leaves are ones the live collection held.
#[derive(Clone, Debug)]
enum DbOp {
    Insert(usize, i64, i64),
    InsertMany(usize, Vec<(i64, i64)>),
    Upsert(usize, i64, i64),
    Delete(usize, i64),
    Index(usize),
    Sync,
    Compact,
}

fn arb_db_op() -> impl Strategy<Value = DbOp> {
    let coll = 0..COLLS.len();
    let v = any::<u16>().prop_map(i64::from);
    prop_oneof![
        (coll.clone(), 0i64..4, v.clone()).prop_map(|(c, k, v)| DbOp::Insert(c, k, v)),
        (coll.clone(), prop::collection::vec((0i64..4, v.clone()), 0..3))
            .prop_map(|(c, rows)| DbOp::InsertMany(c, rows)),
        (coll.clone(), 0i64..4, v).prop_map(|(c, k, v)| DbOp::Upsert(c, k, v)),
        (coll.clone(), 0i64..4).prop_map(|(c, k)| DbOp::Delete(c, k)),
        coll.prop_map(DbOp::Index),
        Just(DbOp::Sync),
        Just(DbOp::Compact),
    ]
}

fn run_db_op(db: &Database, op: &DbOp) {
    match op {
        DbOp::Insert(c, k, v) => {
            table_mut(&mut db.write(), *c).insert_one(doc! { "k" => *k, "v" => *v });
        }
        DbOp::InsertMany(c, rows) => {
            let rows = rows.iter().map(|&(k, v)| doc! { "k" => k, "v" => v });
            table_mut(&mut db.write(), *c).insert_many(rows);
        }
        DbOp::Upsert(c, k, v) => {
            let set = doc! { "$set" => doc!{ "v" => *v } };
            table_mut(&mut db.write(), *c).update_one(&doc! { "k" => *k }, &set, true);
        }
        DbOp::Delete(c, k) => {
            table_mut(&mut db.write(), *c).delete_many(&doc! { "k" => *k });
        }
        DbOp::Index(c) => table_mut(&mut db.write(), *c).create_index("k"),
        DbOp::Sync => db.sync_wal(),
        DbOp::Compact => {
            db.maybe_compact();
        }
    }
}

/// Every record payload of a log image that survives framing, in order.
fn framed_records(image: &[(u64, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    let mut stats = ReplayStats::default();
    for (_, bytes) in image {
        decode_segment(bytes, &mut records, &mut stats);
    }
    records
}

/// How a log image is damaged after it was written.
#[derive(Clone, Copy, Debug)]
enum Damage {
    FlipBit,
    /// Cut the segment at a byte.
    Cut,
    /// Copy the bytes from a point over the ones before them: drops a
    /// run and shifts the framing behind it.
    Smear,
    /// Eight bytes of garbage at the end of a segment.
    Append,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![Just(Damage::FlipBit), Just(Damage::Cut), Just(Damage::Smear), Just(Damage::Append)]
}

proptest! {
    // Damage has to land on a record that matters: 2 048 cases.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A log damaged after the fact — a bit flipped anywhere, a cut at
    /// any byte, a run smeared over the bytes before it, garbage
    /// appended — recovers without a panic. Every record it applies or
    /// counts malformed survived framing, and every document it holds
    /// has fields its collection held at some point of the history. A
    /// lost record shifts the `_id`s later inserts draw, so the `_id`
    /// is checked too where what survived framing is a prefix of what
    /// was written: then every document is one its collection held
    /// under that same `_id`.
    #[test]
    fn a_damaged_log_recovers_to_documents_the_collections_held(
        ops in prop::collection::vec(arb_db_op(), 1..40),
        damage in prop::collection::vec((arb_damage(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let config = DurabilityConfig {
            segment_bytes: 512,
            compact_min_bytes: 1,
            compact_factor: 1,
        };
        let disk = MemDisk::new();
        let live = Database::new();
        live.attach_wal(Wal::open(Arc::new(disk.clone()), config));
        // Every document each collection held, with its `_id` and
        // without it, after every step.
        let mut held: Vec<(&str, Document)> = Vec::new();
        let mut fields: Vec<(&str, Document)> = Vec::new();
        for op in &ops {
            run_db_op(&live, op);
            for (c, name) in COLLS.into_iter().enumerate() {
                for d in table(&live.read(), c).scan() {
                    let mut bare = d.clone();
                    bare.0.remove("_id");
                    for (seen, d) in [(&mut held, d.clone()), (&mut fields, bare)] {
                        if !seen.contains(&(name, d.clone())) {
                            seen.push((name, d));
                        }
                    }
                }
            }
        }
        live.sync_wal();

        let mut image: Vec<(u64, Vec<u8>)> =
            disk.list_segments().into_iter().map(|id| (id, disk.read_segment(id))).collect();
        // A history of syncs writes nothing.
        prop_assume!(!image.is_empty());
        let written = framed_records(&image);
        for (kind, which, seed) in damage {
            let segment = which as usize % image.len();
            let bytes = &mut image[segment].1;
            let at = seed as usize % bytes.len().max(1);
            match kind {
                Damage::FlipBit => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << (seed >> 60 & 7);
                    }
                }
                Damage::Cut => bytes.truncate(at),
                Damage::Smear => {
                    let width = (seed >> 32) as usize % 64;
                    bytes.copy_within(at.., at.saturating_sub(width));
                }
                Damage::Append => bytes.extend_from_slice(&seed.to_le_bytes()),
            }
        }
        let survived = framed_records(&image);
        let prefix = written.starts_with(&survived);
        let damaged = MemDisk::new();
        for (id, bytes) in &image {
            damaged.append(*id, bytes);
            damaged.sync(*id);
        }

        let (r, recovery) = Database::recover(Wal::open(Arc::new(damaged), config));
        prop_assert_eq!(recovery.stats.replayed, survived.len() as u64);
        prop_assert!(recovery.applied + recovery.malformed_dropped <= recovery.stats.replayed);
        let tables = r.read();
        prop_assert!(tables.teams.is_empty() && tables.intents.is_empty(), "no record names them");
        for (c, name) in COLLS.into_iter().enumerate() {
            for d in table(&tables, c).scan() {
                let mut bare = d.clone();
                bare.0.remove("_id");
                prop_assert!(
                    fields.iter().any(|(c, f)| *c == name && *f == bare),
                    "{}: {} has fields no document of it had", name, d
                );
                if prefix {
                    prop_assert!(
                        held.iter().any(|(c, h)| *c == name && h == d),
                        "{}: {} was never held under its _id", name, d
                    );
                }
            }
        }
    }
}
