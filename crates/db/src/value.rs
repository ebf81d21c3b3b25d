//! The dynamic value/document model, with a total order matching the
//! BSON comparison spirit (type rank first, then value).

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent/None.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Nested document.
    Doc(Document),
}

/// A document's field name. It borrows its text when that text is a
/// literal — the keys of [`doc!`](crate::doc) and of rows written in
/// code, which a million documents then share — and owns it when it was
/// decoded from the journal, built at run time or split off an owned
/// dotted path. Either way it orders, compares, hashes and prints as
/// the `str` it holds.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldName(Cow<'static, str>);

impl FieldName {
    /// The name's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Split a dotted path at its first dot: the leading segment and,
    /// if there was a dot, the rest. Segments of a borrowed path stay
    /// borrowed; a path without a dot is its own leading segment.
    fn split_first(self) -> (FieldName, Option<FieldName>) {
        match self.0 {
            Cow::Borrowed(path) => match path.split_once('.') {
                Some((head, rest)) => (head.into(), Some(rest.into())),
                None => (self, None),
            },
            Cow::Owned(path) => match path.split_once('.') {
                Some((head, rest)) => (head.to_string().into(), Some(rest.to_string().into())),
                None => (path.into(), None),
            },
        }
    }
}

impl From<&'static str> for FieldName {
    fn from(name: &'static str) -> Self {
        FieldName(Cow::Borrowed(name))
    }
}

impl From<String> for FieldName {
    fn from(name: String) -> Self {
        FieldName(Cow::Owned(name))
    }
}

impl std::ops::Deref for FieldName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for FieldName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A document: field → value. Fields are kept sorted (BTreeMap), and
/// dotted paths (`"meta.team"`) address nested documents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document(pub BTreeMap<FieldName, Value>);

impl Value {
    /// Type rank for cross-type ordering: Null < Bool < numbers <
    /// strings < arrays < documents.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Doc(_) => 5,
        }
    }

    /// Numeric view (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Document view.
    pub fn as_doc(&self) -> Option<&Document> {
        match self {
            Value::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// Total order used by queries and sorts. Numeric values compare
    /// numerically across Int/Float; NaN sorts below all other floats.
    pub fn cmp_order(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.rank(), other.rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a @ (Value::Int(_) | Value::Float(_)), b @ (Value::Int(_) | Value::Float(_))) => {
                let (x, y) = (
                    a.as_f64().expect("numeric rank"),
                    b.as_f64().expect("numeric rank"),
                );
                x.partial_cmp(&y).unwrap_or_else(|| {
                    // Order NaN consistently: NaN < everything, NaN == NaN.
                    match (x.is_nan(), y.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Less,
                        _ => Ordering::Greater,
                    }
                })
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.cmp_order(y) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Doc(a), Value::Doc(b)) => {
                for ((ka, va), (kb, vb)) in a.0.iter().zip(b.0.iter()) {
                    match ka.cmp(kb).then_with(|| va.cmp_order(vb)) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                a.0.len().cmp(&b.0.len())
            }
            _ => unreachable!("rank equality covers all same-rank pairs"),
        }
    }

    /// Semantic equality used by `$eq`: `Int(1) == Float(1.0)`.
    pub fn eq_loose(&self, other: &Value) -> bool {
        self.cmp_order(other) == Ordering::Equal
    }
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a field (replacing any existing value).
    pub fn insert(&mut self, key: impl Into<FieldName>, value: impl Into<Value>) -> &mut Self {
        self.0.insert(key.into(), value.into());
        self
    }

    /// Direct (non-dotted) field access.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Dotted-path access: `get_path("meta.team")` descends into nested
    /// documents. A path segment that is not a document yields `None`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('.');
        let first = parts.next()?;
        let mut cur = self.0.get(first)?;
        for p in parts {
            cur = cur.as_doc()?.0.get(p)?;
        }
        Some(cur)
    }

    /// Dotted-path mutable access, creating intermediate documents.
    /// A field this creates is named by its segment of `path`, borrowed
    /// where `path` is.
    pub fn entry_path(&mut self, path: impl Into<FieldName>) -> &mut Value {
        let (mut head, mut tail) = path.into().split_first();
        let mut cur = &mut self.0;
        while let Some(rest) = tail {
            let slot = cur.entry(head).or_insert_with(|| Value::Doc(Document::new()));
            if !matches!(slot, Value::Doc(_)) {
                *slot = Value::Doc(Document::new());
            }
            match slot {
                Value::Doc(d) => cur = &mut d.0,
                _ => unreachable!("coerced to Doc above"),
            }
            (head, tail) = rest.split_first();
        }
        cur.entry(head).or_insert(Value::Null)
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&FieldName, &Value)> {
        self.0.iter()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Doc(d) => write!(f, "{d}"),
        }
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Document> for Value {
    fn from(d: Document) -> Self {
        Value::Doc(d)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Construct a [`Document`] literal:
/// `doc! { "team" => "x", "runtime" => 0.5 }`.
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut d = $crate::Document::new();
        $( d.insert($k, $v); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_macro_and_access() {
        let d = doc! { "a" => 1, "nested" => doc!{ "x" => "y" }, "arr" => vec![1, 2] };
        assert_eq!(d.get("a"), Some(&Value::Int(1)));
        assert_eq!(d.get_path("nested.x"), Some(&Value::from("y")));
        assert_eq!(d.get_path("arr"), Some(&Value::from(vec![1i64, 2])));
        assert_eq!(d.get_path("nested.missing"), None);
        assert_eq!(d.get_path("a.b"), None, "descending through a scalar");
    }

    #[test]
    fn entry_path_creates_intermediates() {
        let mut d = Document::new();
        *d.entry_path("meta.team.name") = Value::from("x");
        assert_eq!(d.get_path("meta.team.name"), Some(&Value::from("x")));
        // Coerces a scalar in the way of the path into a document.
        let mut d2 = doc! { "a" => 1 };
        *d2.entry_path("a.b") = Value::from(2);
        assert_eq!(d2.get_path("a.b"), Some(&Value::Int(2)));
    }

    #[test]
    fn ordering_across_types() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Array(vec![Value::Int(1)]),
        ];
        vals.sort_by(|a, b| a.cmp_order(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::Str("a".into()),
                Value::Array(vec![Value::Int(1)]),
            ]
        );
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(1).eq_loose(&Value::Float(1.0)));
        assert!(!Value::Int(1).eq_loose(&Value::Float(1.5)));
        assert_eq!(Value::Int(2).cmp_order(&Value::Float(1.5)), Ordering::Greater);
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp_order(&nan), Ordering::Equal);
        assert_eq!(nan.cmp_order(&Value::Float(0.0)), Ordering::Less);
        assert_eq!(Value::Float(0.0).cmp_order(&nan), Ordering::Greater);
    }

    #[test]
    fn array_lexicographic_order() {
        let a = Value::from(vec![1i64, 2]);
        let b = Value::from(vec![1i64, 3]);
        let c = Value::from(vec![1i64, 2, 0]);
        assert_eq!(a.cmp_order(&b), Ordering::Less);
        assert_eq!(a.cmp_order(&c), Ordering::Less);
    }

    #[test]
    fn display_renders() {
        let d = doc! { "t" => "a", "n" => 1 };
        assert_eq!(d.to_string(), "{n: 1, t: \"a\"}");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }
}
