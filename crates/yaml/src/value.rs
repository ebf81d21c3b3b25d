//! The YAML value model.

use std::fmt;

/// A parsed YAML value.
///
/// Mappings preserve insertion order (RAI build files are read top to
/// bottom, and the emitter must round-trip the original ordering).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Yaml {
    /// `~`, `null`, or an empty value.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// String scalar (plain or quoted).
    Str(String),
    /// Block or flow sequence.
    Seq(Vec<Yaml>),
    /// Block or flow mapping, in document order.
    Map(Vec<(String, Yaml)>),
}

impl Yaml {
    /// `Some(&str)` if this is a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(i64)` if this is an integer scalar.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Yaml::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Yaml::Float(f) => Some(*f),
            Yaml::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// `Some(bool)` if this is a boolean scalar.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Yaml::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(&[Yaml])` if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(&[(k, v)])` if this is a mapping.
    pub fn as_map(&self) -> Option<&[(String, Yaml)]> {
        match self {
            Yaml::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mapping lookup by key (first match wins).
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// [`Yaml::get`] for a consumer that owns the document and wants to
    /// move a value out of it (`std::mem::take` leaves `Null` behind).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Yaml> {
        match self {
            Yaml::Map(m) => m.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `doc.path(&["rai", "commands", "build"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Yaml> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    /// Render any *scalar* as a string the way a shell-ish consumer would
    /// see it; collections return `None`.
    pub fn scalar_to_string(&self) -> Option<String> {
        match self {
            Yaml::Null => Some(String::new()),
            Yaml::Bool(b) => Some(b.to_string()),
            Yaml::Int(i) => Some(i.to_string()),
            Yaml::Float(f) => Some(format_float(*f)),
            Yaml::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// [`Yaml::scalar_to_string`] by value: a string scalar is moved
    /// out, not cloned.
    pub fn into_scalar_string(self) -> Option<String> {
        match self {
            Yaml::Str(s) => Some(s),
            other => other.scalar_to_string(),
        }
    }
}

/// Format a float so that it round-trips through the parser as a float
/// (always keeps a decimal point or exponent).
pub(crate) fn format_float(f: f64) -> String {
    if f.is_nan() {
        return ".nan".to_string();
    }
    if f.is_infinite() {
        return if f > 0.0 { ".inf" } else { "-.inf" }.to_string();
    }
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

impl fmt::Display for Yaml {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::emit::to_string(self))
    }
}

impl From<&str> for Yaml {
    fn from(s: &str) -> Self {
        Yaml::Str(s.to_string())
    }
}

impl From<String> for Yaml {
    fn from(s: String) -> Self {
        Yaml::Str(s)
    }
}

impl From<i64> for Yaml {
    fn from(i: i64) -> Self {
        Yaml::Int(i)
    }
}

impl From<f64> for Yaml {
    fn from(f: f64) -> Self {
        Yaml::Float(f)
    }
}

impl From<bool> for Yaml {
    fn from(b: bool) -> Self {
        Yaml::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Yaml {
        Yaml::Map(vec![
            (
                "rai".to_string(),
                Yaml::Map(vec![
                    ("version".to_string(), Yaml::Float(0.1)),
                    ("image".to_string(), Yaml::Str("webgpu/rai:root".into())),
                ]),
            ),
            (
                "steps".to_string(),
                Yaml::Seq(vec![Yaml::Str("cmake /src".into()), Yaml::Str("make".into())]),
            ),
        ])
    }

    #[test]
    fn accessors() {
        let doc = sample();
        assert_eq!(
            doc.path(&["rai", "image"]).and_then(Yaml::as_str),
            Some("webgpu/rai:root")
        );
        assert_eq!(doc.path(&["rai", "version"]).and_then(Yaml::as_f64), Some(0.1));
        assert_eq!(doc.get("steps").and_then(Yaml::as_seq).map(|s| s.len()), Some(2));
        assert!(doc.path(&["rai", "missing"]).is_none());
        assert!(doc.get("rai").unwrap().as_seq().is_none());
    }

    #[test]
    fn scalar_rendering() {
        assert_eq!(Yaml::Int(3).scalar_to_string().unwrap(), "3");
        assert_eq!(Yaml::Bool(true).scalar_to_string().unwrap(), "true");
        assert_eq!(Yaml::Null.scalar_to_string().unwrap(), "");
        assert_eq!(Yaml::Float(2.0).scalar_to_string().unwrap(), "2.0");
        assert!(Yaml::Seq(vec![]).scalar_to_string().is_none());
    }

    #[test]
    fn float_formatting_keeps_type() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(0.5), "0.5");
        assert_eq!(format_float(f64::INFINITY), ".inf");
        assert_eq!(format_float(f64::NEG_INFINITY), "-.inf");
        assert_eq!(format_float(f64::NAN), ".nan");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Yaml::from("x"), Yaml::Str("x".into()));
        assert_eq!(Yaml::from(4i64), Yaml::Int(4));
        assert_eq!(Yaml::from(true), Yaml::Bool(true));
    }
}
