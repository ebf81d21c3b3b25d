//! Leveled diagnostic logging for bins and tests.
//!
//! `rai_telemetry::log!(info, "worker {} drained", id)` writes to
//! stderr when the level passes the `RAI_LOG` env filter (`error`,
//! `warn`, `info`, `debug`, `trace`, or `off`; default `info`).
//! Figure bins print their data on stdout, so diagnostics go to stderr
//! and piping stdout to a plot script stays clean.

use std::sync::OnceLock;

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// Parse a `RAI_LOG` value. `off`/`none` silence everything; anything
/// unrecognized falls back to the default (`info`).
pub fn parse_level(value: &str) -> Option<Level> {
    match value.trim().to_ascii_lowercase().as_str() {
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" => Some(Level::Debug),
        "trace" => Some(Level::Trace),
        "off" | "none" => None,
        _ => Some(Level::Info),
    }
}

// Deliberate `std::sync` holdout in a parking_lot codebase (DESIGN.md
// §12 "Store locks"): this is write-once init, not a contended lock.
// `OnceLock` has no parking_lot equivalent, cannot poison (the closure
// runs exactly once and a panic there aborts init, never wedging later
// readers), and after init every read is a plain atomic load.
static MAX_LEVEL: OnceLock<Option<Level>> = OnceLock::new();

/// The active filter, resolved once from `RAI_LOG` (default `info`).
/// `None` means logging is off.
pub fn max_level() -> Option<Level> {
    *MAX_LEVEL.get_or_init(|| match std::env::var("RAI_LOG") {
        Ok(value) => parse_level(&value),
        Err(_) => Some(Level::Info),
    })
}

/// True when a record at `level` should be emitted.
pub fn enabled(level: Level) -> bool {
    matches!(max_level(), Some(max) if level <= max)
}

#[doc(hidden)]
pub fn emit(level: Level, args: std::fmt::Arguments<'_>) {
    eprintln!("[{:5}] {}", level.as_str(), args);
}

/// Log a formatted message at the given level (`error`, `warn`,
/// `info`, `debug`, or `trace`):
///
/// ```
/// rai_telemetry::log!(info, "processed {} jobs", 3);
/// ```
#[macro_export]
macro_rules! log {
    (error, $($arg:tt)*) => { $crate::log!(@emit $crate::logging::Level::Error, $($arg)*) };
    (warn,  $($arg:tt)*) => { $crate::log!(@emit $crate::logging::Level::Warn,  $($arg)*) };
    (info,  $($arg:tt)*) => { $crate::log!(@emit $crate::logging::Level::Info,  $($arg)*) };
    (debug, $($arg:tt)*) => { $crate::log!(@emit $crate::logging::Level::Debug, $($arg)*) };
    (trace, $($arg:tt)*) => { $crate::log!(@emit $crate::logging::Level::Trace, $($arg)*) };
    (@emit $level:expr, $($arg:tt)*) => {
        if $crate::logging::enabled($level) {
            $crate::logging::emit($level, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
    }

    #[test]
    fn parses_filter_values() {
        assert_eq!(parse_level("debug"), Some(Level::Debug));
        assert_eq!(parse_level("WARN"), Some(Level::Warn));
        assert_eq!(parse_level("off"), None);
        assert_eq!(parse_level("bogus"), Some(Level::Info));
    }

    #[test]
    fn macro_compiles_at_every_level() {
        // Emission depends on the environment; this just exercises the
        // macro arms.
        crate::log!(error, "e {}", 1);
        crate::log!(warn, "w");
        crate::log!(info, "i {}", "x");
        crate::log!(debug, "d");
        crate::log!(trace, "t");
    }
}
