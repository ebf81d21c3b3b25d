//! Parse errors with line positions.

use std::fmt;

/// Error produced while parsing a YAML document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct YamlError {
    /// 1-based line number the error was detected on (0 = end of input).
    pub(crate) line: usize,
    /// Human-readable description.
    pub(crate) message: String,
}

impl YamlError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        YamlError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "yaml: {}", self.message)
        } else {
            write!(f, "yaml: line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for YamlError {}

/// Convenience alias.
pub(crate) type YamlResult<T> = Result<T, YamlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = YamlError::new(7, "bad indent");
        assert_eq!(e.to_string(), "yaml: line 7: bad indent");
        let e0 = YamlError::new(0, "unexpected eof");
        assert_eq!(e0.to_string(), "yaml: unexpected eof");
    }
}
