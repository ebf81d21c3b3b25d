//! Property-based round-trip: for any value the model can represent,
//! `parse(emit(v)) == v`.

use proptest::prelude::*;
use rai_yaml::{parse, to_string, Yaml};

/// Strings that exercise quoting edge cases without degenerating into
/// pure noise: printable ASCII plus the escapes the emitter handles.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\\n\\t]{0,24}").expect("valid regex")
}

fn arb_key() -> impl Strategy<Value = String> {
    // Keys must be unique within a map; uniqueness is enforced below.
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_ :.#\\\\-]{0,12}").expect("valid regex")
}

fn arb_scalar() -> impl Strategy<Value = Yaml> {
    prop_oneof![
        Just(Yaml::Null),
        any::<bool>().prop_map(Yaml::Bool),
        any::<i64>().prop_map(Yaml::Int),
        // Finite floats only: NaN breaks PartialEq-based comparison.
        prop::num::f64::NORMAL.prop_map(Yaml::Float),
        arb_string().prop_map(Yaml::Str),
    ]
}

fn arb_yaml() -> impl Strategy<Value = Yaml> {
    arb_scalar().prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Yaml::Seq),
            prop::collection::vec((arb_key(), inner), 0..5).prop_map(|pairs| {
                // De-duplicate keys (the parser rejects duplicates).
                let mut seen = std::collections::HashSet::new();
                let mut map = Vec::new();
                for (k, v) in pairs {
                    if seen.insert(k.clone()) {
                        map.push((k, v));
                    }
                }
                Yaml::Map(map)
            }),
        ]
    })
}

/// `text` nested `depth` levels deep — inside brackets on one line, or
/// (a quarter as deep: a block level costs a line of indentation) under
/// indented keys. The shape that ran the recursive parser out of
/// stack, which aborts the test binary instead of failing a case.
fn nest(text: &str, depth: usize, flow: bool) -> String {
    if flow {
        return format!("k: {}{text}{}\n", "[".repeat(depth), "]".repeat(depth));
    }
    let depth = depth / 4;
    let mut out: String = (0..depth).map(|i| format!("{}k:\n", " ".repeat(i))).collect();
    for line in text.lines() {
        out.push_str(&" ".repeat(depth));
        out.push_str(line);
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_then_parse_is_identity(v in arb_yaml()) {
        let text = to_string(&v);
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("emitted document failed to parse: {e}\n---\n{text}\n---"));
        prop_assert_eq!(back, v, "emitted:\n{}", text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(
        s in "[ -~\\n\\t]{0,200}",
        depth in 0usize..4000,
        flow in any::<bool>(),
    ) {
        // Errors are fine; panics are not.
        let _ = parse(&s);
        let _ = parse(&nest(&s, depth, flow));
    }

    #[test]
    fn parse_is_deterministic(s in "[ -~\\n]{0,120}") {
        let a = parse(&s);
        let b = parse(&s);
        prop_assert_eq!(a, b);
    }
}
