//! # rai-yaml — the YAML subset used by `rai-build.yml`
//!
//! RAI's execution specification (paper §V, Listings 1 and 2) is a YAML
//! document: a nested block mapping with a block sequence of build
//! commands, where long commands may be folded across lines. The offline
//! dependency set has no YAML crate, so this is a from-scratch
//! implementation of exactly the subset RAI needs — with enough slack
//! that arbitrary student-authored build files parse predictably.
//!
//! Supported syntax:
//!
//! * block mappings (`key: value`, `key:` + indented block), order
//!   preserved;
//! * block sequences (`- item`, `-` + indented block);
//! * plain scalars with type inference (null/bool/int/float/string);
//! * single- and double-quoted scalars (with `\"`-style escapes);
//! * folded continuation lines for plain scalars in sequences and
//!   mapping values (the Listing 1 `nvprof … ⏎ ./ece408 …` case);
//! * block scalars — literal `|`/`|-` and folded `>`/`>-` — for
//!   multi-line build scripts;
//! * flow sequences `[a, b, c]` and flow mappings `{a: 1}`;
//! * `#` comments and blank lines anywhere.
//!
//! ```
//! let doc = rai_yaml::parse("rai:\n  version: 0.1\n  image: webgpu/rai:root\n").unwrap();
//! let version = doc.path(&["rai", "version"]).unwrap();
//! assert_eq!(version.as_f64(), Some(0.1));
//! ```

#![forbid(unsafe_code)]

pub mod emit;
pub mod error;
pub mod parser;
mod scanner;
pub mod value;

pub use emit::to_string;
pub use parser::{parse, parse_with, Consumer};
pub use value::{Scalar, Yaml};
