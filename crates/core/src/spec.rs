//! `rai-build.yml` — the execution specification (paper §V).
//!
//! "The build file is split into a configuration section and a command
//! section… architected to be minimal, allowing it to be extended for
//! future changes."

use rai_yaml::{parse, Yaml};

/// The client/spec version this implementation understands.
pub const SUPPORTED_VERSION: f64 = 0.1;

/// A parsed, validated build specification.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildSpec {
    /// `rai.version` — client version the file targets.
    pub version: f64,
    /// `rai.image` — Docker base image (whitelist enforced worker-side).
    pub image: String,
    /// `commands.build` — the commands run in the container, in order.
    pub build: Vec<String>,
    /// `resources.gpus` — optional machine requirement (the paper names
    /// this as the expected future extension; supported here).
    pub gpus: Option<u32>,
    /// `resources.network` — optional network request (instructor
    /// sessions only; ignored for student jobs).
    pub network: bool,
}

/// Spec validation errors.
#[derive(Clone, Debug, PartialEq)]
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

impl std::error::Error for SpecError {}

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
pub const FINAL_SUBMISSION_YML: &str = "\
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

impl BuildSpec {
    /// Parse and validate a build file. The parsed document is consumed:
    /// the image and command strings are moved into the spec.
    pub fn parse(text: &str) -> Result<BuildSpec, SpecError> {
        let mut doc = parse(text).map_err(|e| SpecError::Yaml(e.to_string()))?;
        doc.get("rai")
            .and_then(Yaml::as_map)
            .ok_or(SpecError::MissingRaiSection)?;
        let version = match doc.path(&["rai", "version"]) {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| SpecError::BadVersion(format!("{v:?}")))?,
            None => return Err(SpecError::BadVersion("missing".to_string())),
        };
        if version > SUPPORTED_VERSION {
            return Err(SpecError::UnsupportedVersion(version));
        }
        let mut take = |section: &str, key: &str| doc.get_mut(section)?.get_mut(key).map(std::mem::take);
        let image = match take("rai", "image") {
            Some(Yaml::Str(image)) if !image.is_empty() => image,
            _ => return Err(SpecError::MissingImage),
        };
        let build_yaml = match take("commands", "build") {
            Some(Yaml::Seq(build)) if !build.is_empty() => build,
            _ => return Err(SpecError::MissingBuildCommands),
        };
        let mut build = Vec::with_capacity(build_yaml.len());
        for (i, cmd) in build_yaml.into_iter().enumerate() {
            match cmd.into_scalar_string() {
                Some(s) if !s.is_empty() => build.push(s),
                _ => return Err(SpecError::BadCommand(i)),
            }
        }
        let gpus = doc
            .path(&["resources", "gpus"])
            .and_then(Yaml::as_i64)
            .map(|g| g.max(0) as u32);
        let network = doc
            .path(&["resources", "network"])
            .and_then(Yaml::as_bool)
            .unwrap_or(false);
        Ok(BuildSpec {
            version,
            image,
            build,
            gpus,
            network,
        })
    }

    /// The Listing 1 default spec.
    pub fn default_spec() -> BuildSpec {
        Self::parse(DEFAULT_BUILD_YML).expect("bundled default must parse")
    }

    /// The Listing 2 enforced final-submission spec.
    pub fn final_submission_spec() -> BuildSpec {
        Self::parse(FINAL_SUBMISSION_YML).expect("bundled final spec must parse")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_listing_1() {
        let s = BuildSpec::default_spec();
        assert_eq!(s.version, 0.1);
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
        assert!(s.network);
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
    fn older_versions_accepted() {
        let text = "rai:\n  version: 0.05\n  image: x\ncommands:\n  build:\n    - make\n";
        assert!(BuildSpec::parse(text).is_ok());
    }
}
