//! `rai-build.yml` — the execution specification (paper §V).
//!
//! "The build file is split into a configuration section and a command
//! section… architected to be minimal, allowing it to be extended for
//! future changes."

use rai_yaml::{parse_with, Consumer, Scalar};
use std::borrow::Cow;

/// The client/spec version this implementation understands.
pub(crate) const SUPPORTED_VERSION: f64 = 0.1;

/// A parsed, validated build specification.
#[derive(Debug, PartialEq)]
pub struct BuildSpec {
    /// `rai.image` — Docker base image (whitelist enforced worker-side).
    pub image: String,
    /// `commands.build` — the commands run in the container, in order.
    pub build: Vec<String>,
    /// `resources.gpus` — optional machine requirement (the paper names
    /// this as the expected future extension; supported here).
    pub(crate) gpus: Option<u32>,
}

/// Spec validation errors.
#[derive(Debug, PartialEq)]
pub enum SpecError {
    /// YAML did not parse.
    Yaml(String),
    /// Missing or non-mapping `rai` section.
    MissingRaiSection,
    /// Missing/invalid version.
    BadVersion(String),
    /// Unsupported version number.
    UnsupportedVersion(f64),
    /// Missing or empty image.
    MissingImage,
    /// Missing or empty `commands.build`.
    MissingBuildCommands,
    /// A build command was not a scalar.
    BadCommand(usize),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Yaml(e) => write!(f, "rai-build.yml: {e}"),
            SpecError::MissingRaiSection => write!(f, "rai-build.yml: missing `rai:` section"),
            SpecError::BadVersion(v) => write!(f, "rai-build.yml: bad version {v:?}"),
            SpecError::UnsupportedVersion(v) => {
                write!(f, "rai-build.yml: unsupported version {v} (client supports {SUPPORTED_VERSION})")
            }
            SpecError::MissingImage => write!(f, "rai-build.yml: missing `rai.image`"),
            SpecError::MissingBuildCommands => {
                write!(f, "rai-build.yml: missing `commands.build` list")
            }
            SpecError::BadCommand(i) => write!(f, "rai-build.yml: build command #{i} is not a string"),
        }
    }
}

/// Paper Listing 1 — the default build file used "when a student-written
/// rai-build.yml is not found".
pub const DEFAULT_BUILD_YML: &str = "\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - echo \"Building project\"
    - cmake /src
    - make
    - ./ece408 /data/test10.hdf5 /data/model.hdf5
    - nvprof --export-profile timeline.nvprof
      ./ece408 /data/test10.hdf5 /data/model.hdf5
";

/// Paper Listing 2 — the enforced final-submission build file ("the
/// student's local rai-build.yml file is ignored — this is used to
/// maintain consistency between all team submissions").
pub(crate) const FINAL_SUBMISSION_YML: &str = "\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - echo \"Submitting project\"
    - cp -r /src /build/submission_code
    - cmake /src
    - make
    - /usr/bin/time ./ece408 /data/testfull.hdf5
      /data/model.hdf5 10000
";

/// The files a final submission must hold besides its source: "the
/// submission required the presence of the USAGE … and report.pdf"
/// (paper §V). The client refuses a final submission without them,
/// and the grading tools report them missing.
pub(crate) const FINAL_SUBMISSION_FILES: [&str; 2] = ["USAGE", "report.pdf"];

impl BuildSpec {
    /// Parse and validate a build file. The file is read straight into
    /// the spec: only the image, the commands and the GPU count are
    /// kept (the version is checked, not kept), each scalar borrowed
    /// from the text until it is, and the errors are the ones the
    /// YAML document would give, YAML errors first.
    pub fn parse(text: &str) -> Result<BuildSpec, SpecError> {
        Fields::read(text, true)?.into_spec(text)
    }

    /// Validate a build file as [`parse`](Self::parse) does, keeping
    /// nothing: what the client checks before it uploads.
    pub(crate) fn check(text: &str) -> Result<(), SpecError> {
        Fields::read(text, false)?.check(text)
    }

    /// The Listing 1 default spec.
    pub fn default_spec() -> BuildSpec {
        Self::parse(DEFAULT_BUILD_YML).expect("bundled default must parse")
    }

    /// The Listing 2 enforced final-submission spec.
    pub(crate) fn final_submission_spec() -> BuildSpec {
        Self::parse(FINAL_SUBMISSION_YML).expect("bundled final spec must parse")
    }
}

/// Where a node of a build file sits, as far as the spec tells places
/// apart: the four fields, the sections and the root that lead to
/// them, and everywhere else.
#[derive(Clone, Copy)]
enum Field {
    Root,
    Rai,
    Version,
    Image,
    Commands,
    Build,
    /// The build command at this index.
    Command(usize),
    Resources,
    Gpus,
    Other,
}

/// How `rai.version` read.
#[derive(Default)]
enum Version {
    #[default]
    Missing,
    Number(f64),
    /// Anything but a number.
    Other,
}

/// What a build file's parse found of the spec's fields: the block
/// parser's consumer for [`BuildSpec`].
#[derive(Default)]
struct Fields<'a> {
    /// Whether the build commands are kept, or only checked.
    keep: bool,
    /// `rai` is a mapping under the root mapping.
    rai: bool,
    version: Version,
    /// `rai.image`, a non-empty string.
    image: Option<Cow<'a, str>>,
    /// How many items `commands.build` has, if it is a sequence.
    commands: Option<usize>,
    /// The commands, when kept.
    build: Vec<String>,
    /// The first command that is not a non-empty scalar.
    bad_command: Option<usize>,
    gpus: Option<i64>,
}

impl<'a> Fields<'a> {
    fn read(text: &'a str, keep: bool) -> Result<Self, SpecError> {
        let mut fields = Fields { keep, ..Fields::default() };
        parse_with(text, &mut fields, Field::Root).map_err(|e| SpecError::Yaml(e.to_string()))?;
        Ok(fields)
    }

    /// The spec, or the first check the file fails.
    fn into_spec(self, text: &str) -> Result<BuildSpec, SpecError> {
        self.check(text)?;
        Ok(BuildSpec {
            image: self.image.expect("checked").into_owned(),
            build: self.build,
            gpus: self.gpus.map(|g| g.max(0) as u32),
        })
    }

    /// The first check the file fails, in the order the checks have
    /// always run.
    fn check(&self, text: &str) -> Result<(), SpecError> {
        if !self.rai {
            return Err(SpecError::MissingRaiSection);
        }
        let version = match self.version {
            Version::Number(v) => v,
            Version::Missing => return Err(SpecError::BadVersion("missing".to_string())),
            Version::Other => {
                // The error names the value as the document holds it;
                // only this error builds the document to say so.
                let doc = rai_yaml::parse(text).expect("the text parsed once already");
                let v = doc.path(&["rai", "version"]).expect("a version was read");
                return Err(SpecError::BadVersion(format!("{v:?}")));
            }
        };
        if version > SUPPORTED_VERSION {
            return Err(SpecError::UnsupportedVersion(version));
        }
        if self.image.is_none() {
            return Err(SpecError::MissingImage);
        }
        if matches!(self.commands, None | Some(0)) {
            return Err(SpecError::MissingBuildCommands);
        }
        if let Some(i) = self.bad_command {
            return Err(SpecError::BadCommand(i));
        }
        Ok(())
    }

    /// The command at `i` is not a non-empty scalar.
    fn bad(&mut self, i: usize) {
        self.bad_command.get_or_insert(i);
    }
}

impl<'a> Consumer<'a> for Fields<'a> {
    type Slot = Field;
    type Node = ();
    type Map = Field;
    /// The sequence's slot and how many items it has read.
    type Seq = (Field, usize);

    fn scalar(&mut self, at: Field, value: Scalar<'a>) {
        match at {
            Field::Version => {
                self.version = value.as_f64().map_or(Version::Other, Version::Number);
            }
            Field::Image => match value {
                Scalar::Str(image) if !image.is_empty() => self.image = Some(image),
                _ => {}
            },
            Field::Command(i) => {
                let command = value.into_string();
                if command.is_empty() {
                    self.bad(i);
                } else if self.keep && self.bad_command.is_none() {
                    self.build.push(command.into_owned());
                }
            }
            Field::Gpus => {
                if let Scalar::Int(g) = value {
                    self.gpus = Some(g);
                }
            }
            _ => {}
        }
    }

    fn map(&mut self, at: Field) -> Field {
        match at {
            Field::Rai => self.rai = true,
            Field::Version => self.version = Version::Other,
            Field::Command(i) => self.bad(i),
            _ => {}
        }
        at
    }

    fn key(&mut self, map: &Field, key: &str) -> Field {
        match (map, key) {
            (Field::Root, "rai") => Field::Rai,
            (Field::Root, "commands") => Field::Commands,
            (Field::Root, "resources") => Field::Resources,
            (Field::Rai, "version") => Field::Version,
            (Field::Rai, "image") => Field::Image,
            (Field::Commands, "build") => Field::Build,
            (Field::Resources, "gpus") => Field::Gpus,
            _ => Field::Other,
        }
    }

    fn entry(&mut self, _: &mut Field, _: Cow<'a, str>, _: ()) {}

    fn end_map(&mut self, _: Field) {}

    fn seq(&mut self, at: Field, len: usize) -> (Field, usize) {
        match at {
            Field::Build if self.keep => self.build = Vec::with_capacity(len),
            Field::Version => self.version = Version::Other,
            Field::Command(i) => self.bad(i),
            _ => {}
        }
        (at, 0)
    }

    fn item(&mut self, seq: &(Field, usize)) -> Field {
        match seq {
            (Field::Build, i) => Field::Command(*i),
            _ => Field::Other,
        }
    }

    fn push(&mut self, seq: &mut (Field, usize), _: ()) {
        seq.1 += 1;
    }

    fn end_seq(&mut self, seq: (Field, usize)) {
        if let (Field::Build, len) = seq {
            self.commands = Some(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_listing_1() {
        let s = BuildSpec::default_spec();
        assert_eq!(s.image, "webgpu/rai:root");
        assert_eq!(s.build.len(), 5);
        assert_eq!(s.build[0], "echo \"Building project\"");
        assert_eq!(s.build[1], "cmake /src");
        assert_eq!(s.build[2], "make");
        assert!(s.build[4].starts_with("nvprof --export-profile timeline.nvprof"));
        assert!(s.build[4].ends_with("./ece408 /data/test10.hdf5 /data/model.hdf5"));
    }

    #[test]
    fn final_spec_matches_listing_2() {
        let s = BuildSpec::final_submission_spec();
        assert_eq!(s.build.len(), 5);
        assert_eq!(s.build[1], "cp -r /src /build/submission_code");
        assert_eq!(
            s.build[4],
            "/usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000"
        );
    }

    #[test]
    fn future_machine_requirements_parse() {
        // The extension the paper anticipates: "We may want to specify
        // the machine requirements (such as the number of GPUs)".
        let text = "rai:\n  version: 0.1\n  image: webgpu/rai:root\nresources:\n  gpus: 2\n  network: true\ncommands:\n  build:\n    - make\n";
        let s = BuildSpec::parse(text).unwrap();
        assert_eq!(s.gpus, Some(2));
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            BuildSpec::parse("commands:\n  build:\n    - make\n"),
            Err(SpecError::MissingRaiSection)
        );
        assert!(matches!(
            BuildSpec::parse("rai:\n  image: x\ncommands:\n  build:\n    - make\n"),
            Err(SpecError::BadVersion(_))
        ));
        assert_eq!(
            BuildSpec::parse("rai:\n  version: 9.9\n  image: x\ncommands:\n  build:\n    - make\n"),
            Err(SpecError::UnsupportedVersion(9.9))
        );
        assert_eq!(
            BuildSpec::parse("rai:\n  version: 0.1\ncommands:\n  build:\n    - make\n"),
            Err(SpecError::MissingImage)
        );
        assert_eq!(
            BuildSpec::parse("rai:\n  version: 0.1\n  image: x\n"),
            Err(SpecError::MissingBuildCommands)
        );
        assert_eq!(
            BuildSpec::parse("rai:\n  version: 0.1\n  image: x\ncommands:\n  build: []\n"),
            Err(SpecError::MissingBuildCommands)
        );
        assert!(matches!(
            BuildSpec::parse("rai:\n  version: 0.1\n  image: x\ncommands:\n  build:\n    - [1]\n"),
            Err(SpecError::BadCommand(0))
        ));
        assert!(matches!(
            BuildSpec::parse("rai: 'unterminated"),
            Err(SpecError::Yaml(_))
        ));
    }

    #[test]
    fn the_client_check_is_the_parse_keeping_nothing() {
        for text in [
            DEFAULT_BUILD_YML,
            FINAL_SUBMISSION_YML,
            "",
            "- rai: {version: 0.1}\n",
            "rai: {version: 0.1, image: x}\ncommands: {build: [make, 7, 0.5, true]}\n",
            "rai:\n  version: [1]\n  image: x\n",
            "rai:\n  version:\n    a: 1\n",
            "rai:\n  version: ~\n",
            "rai:\n  version: 0.1\n  image: ''\ncommands:\n  build:\n    - make\n",
            "rai:\n  version: 0.1\n  image: x\ncommands:\n  build:\n    - make\n    - ''\n    - {a: 1}\n",
            "rai:\n  version: 0.1\n  image: x\ncommands:\n  build:\n    - make\n    -\n      - cc\n",
            "rai:\n  version: 0.1\n  image: x\ncommands:\n  build: make\n",
            "rai:\n  version: 0.1\n  image: x\ncommands:\n  build:\n    - make\n  build:\n    - cc\n",
        ] {
            assert_eq!(BuildSpec::check(text), BuildSpec::parse(text).map(drop), "{text}");
        }
        assert_eq!(
            BuildSpec::parse("rai:\n  version: [1]\n"),
            Err(SpecError::BadVersion("Seq([Int(1)])".into()))
        );
        assert_eq!(
            BuildSpec::parse("rai: {version: 0.1, image: x}\ncommands: {build: [make, 7]}\n").map(|s| s.build),
            Ok(vec!["make".to_string(), "7".to_string()])
        );
    }

    #[test]
    fn older_versions_accepted() {
        let text = "rai:\n  version: 0.05\n  image: x\ncommands:\n  build:\n    - make\n";
        assert!(BuildSpec::parse(text).is_ok());
    }
}
