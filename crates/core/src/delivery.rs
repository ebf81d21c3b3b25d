//! Client build & delivery pipeline (paper §VII "RAI Client Delivery",
//! Fig. 3).
//!
//! "A continuous build system was configured to build both branches and
//! cross-compile them to other operating systems and architectures. The
//! built binaries are then uploaded to Amazon S3 and linked to the
//! project's home page." The commit hash and build date are embedded in
//! each binary, which is how bug reports were narrowed to the commit
//! that introduced a regression.

use rai_store::{ObjectStore, StoreError};

/// The ten OS/architecture targets from Fig. 3.
pub const TARGETS: [(&str, &str); 10] = [
    ("Linux", "i386"),
    ("Linux", "amd64"),
    ("Linux", "armv5"),
    ("Linux", "armv6"),
    ("Linux", "armv7"),
    ("Linux", "arm64"),
    ("OSX/Darwin", "i386"),
    ("OSX/Darwin", "amd64"),
    ("Windows", "i386"),
    ("Windows", "amd64"),
];

/// Release channel, mapped from the repository branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// `master` — stable.
    Stable,
    /// `devel` — development.
    Development,
}

impl Channel {
    /// The branch that feeds this channel.
    pub(crate) fn branch(self) -> &'static str {
        match self {
            Channel::Stable => "master",
            Channel::Development => "devel",
        }
    }
}

/// One cross-compiled client binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientBinary {
    /// Target OS.
    pub(crate) os: &'static str,
    /// Target architecture.
    pub(crate) arch: &'static str,
    /// Channel.
    pub(crate) channel: Channel,
    /// Commit hash embedded in the binary.
    pub(crate) commit: String,
    /// Build date embedded in the binary.
    pub(crate) build_date: String,
    /// Object key on the download server.
    pub(crate) key: String,
}

impl ClientBinary {
    /// The `rai version` output students paste into bug reports.
    pub fn version_string(&self) -> String {
        format!(
            "rai client ({} {}) commit={} built={} channel={}",
            self.os,
            self.arch,
            self.commit,
            self.build_date,
            self.channel.branch()
        )
    }
}

/// The CI pipeline: cross-compiles a branch head to every target and
/// uploads the results.
pub struct DeliveryPipeline {
    store: ObjectStore,
    bucket: String,
}

impl DeliveryPipeline {
    /// A pipeline uploading into `bucket` (created if missing).
    pub fn new(store: ObjectStore, bucket: &str) -> Self {
        if !store.has_bucket(bucket) {
            store
                .create_bucket(bucket, rai_store::LifecycleRule::Keep)
                .expect("bucket existence just checked");
        }
        DeliveryPipeline {
            store,
            bucket: bucket.to_string(),
        }
    }

    /// Cross-compile `commit` from a channel's branch for all ten
    /// targets and upload each artifact. Returns the binaries, in
    /// Fig. 3 row order.
    pub fn release(
        &self,
        channel: Channel,
        commit: &str,
        build_date: &str,
    ) -> Result<Vec<ClientBinary>, StoreError> {
        let mut out = Vec::with_capacity(TARGETS.len());
        for (os, arch) in TARGETS {
            let key = format!(
                "{}/{}/{}/rai-{}-{}",
                channel.branch(),
                os.replace('/', "-").to_lowercase(),
                arch,
                commit,
                arch
            );
            // The "binary": a stub artifact with the embedded metadata a
            // real Go/Rust static binary would carry.
            let body = format!(
                "RAI-CLIENT-BINARY\nos={os}\narch={arch}\ncommit={commit}\ndate={build_date}\nbranch={}\n",
                channel.branch()
            );
            self.store.put(
                &self.bucket,
                &key,
                body.into_bytes(),
                [("commit", commit), ("channel", channel.branch())],
            )?;
            out.push(ClientBinary {
                os,
                arch,
                channel,
                commit: commit.to_string(),
                build_date: build_date.to_string(),
                key,
            });
        }
        Ok(out)
    }

    /// Render the Fig. 3 table given the current stable and devel
    /// release sets.
    pub fn render_figure3(stable: &[ClientBinary], devel: &[ClientBinary]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<8} {:<44} {:<44}\n",
            "OS", "Arch", "Stable Version Link", "Development Version Link"
        ));
        for (os, arch) in TARGETS {
            let find = |set: &[ClientBinary]| {
                set.iter()
                    .find(|b| b.os == os && b.arch == arch)
                    .map(|b| b.key.clone())
                    .unwrap_or_else(|| "-".to_string())
            };
            out.push_str(&format!(
                "{:<12} {:<8} {:<44} {:<44}\n",
                os,
                arch,
                find(stable),
                find(devel)
            ));
        }
        out
    }
}

/// Given a version string from a bug report, extract the commit — the
/// paper's "students would provide this information when they reported
/// bugs, which allowed us to narrow which commit introduced the
/// regression".
pub fn commit_from_bug_report(version_string: &str) -> Option<&str> {
    version_string
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("commit="))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::VirtualClock;

    fn pipeline() -> DeliveryPipeline {
        DeliveryPipeline::new(ObjectStore::new(VirtualClock::new()), "rai-downloads")
    }

    #[test]
    fn release_covers_all_ten_targets() {
        let p = pipeline();
        let bins = p.release(Channel::Stable, "abc1234", "2016-11-02").unwrap();
        assert_eq!(bins.len(), 10);
        let linux_arm64 = bins
            .iter()
            .find(|b| b.os == "Linux" && b.arch == "arm64")
            .unwrap();
        assert!(linux_arm64.key.contains("master"));
        // Artifacts actually landed on the store.
        assert_eq!(p.store.list("rai-downloads", "master/").unwrap().len(), 10);
    }

    #[test]
    fn version_string_embeds_commit_and_date() {
        let p = pipeline();
        let bins = p.release(Channel::Development, "fee1dea", "2016-11-20").unwrap();
        let v = bins[0].version_string();
        assert!(v.contains("commit=fee1dea"));
        assert!(v.contains("built=2016-11-20"));
        assert!(v.contains("channel=devel"));
        assert_eq!(commit_from_bug_report(&v), Some("fee1dea"));
    }

    #[test]
    fn figure3_table_shape() {
        let p = pipeline();
        let stable = p.release(Channel::Stable, "aaaa111", "2016-11-02").unwrap();
        let devel = p.release(Channel::Development, "bbbb222", "2016-11-20").unwrap();
        let table = DeliveryPipeline::render_figure3(&stable, &devel);
        // Header + 10 target rows.
        assert_eq!(table.lines().count(), 11);
        assert!(table.contains("Windows"));
        assert!(table.contains("armv7"));
        assert!(table.contains("master/"));
        assert!(table.contains("devel/"));
    }

    #[test]
    fn bug_report_without_commit() {
        assert_eq!(commit_from_bug_report("rai client broken pls help"), None);
    }
}
