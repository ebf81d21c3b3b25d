//! Base images and the image registry.
//!
//! The default RAI image (`webgpu/rai:root`) ships "the latest CUDA
//! toolkit along with CUDNN and other neural network frameworks such as
//! Tensorflow and Torch7" plus the course datasets under `/data`.
//! Students pick from an instructor whitelist; if a worker does not have
//! an image locally, it is "pulled from the Docker repository" (we model
//! the pull latency).

use rai_archive::FileTree;
use rai_sim::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A container base image.
#[derive(Debug, PartialEq, Eq)]
pub struct Image {
    /// Full name, e.g. `webgpu/rai:root`.
    pub name: String,
    /// Files baked into the image (datasets, preinstalled tool markers).
    pub(crate) rootfs: FileTree,
    /// Download size in bytes (drives first-pull latency).
    pub(crate) size_bytes: u64,
}

/// Image resolution errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ImageError {
    /// Image is not on the instructor whitelist (or not in the
    /// repository at all).
    NotWhitelisted(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::NotWhitelisted(n) => write!(f, "image {n:?} is not whitelisted"),
        }
    }
}

/// The image repository, each image marked whitelisted or not, shared
/// by all workers. An image never changes once added, so the registry
/// hands out shared handles: a job's claim clones the `Arc`, not the
/// layer list.
#[derive(Default)]
pub struct ImageRegistry {
    /// Every image by name, with whether students may pick it.
    images: BTreeMap<String, (Arc<Image>, bool)>,
}

/// Modeled network bandwidth for image pulls (100 MB/s).
const PULL_BYTES_PER_MS: u64 = 100 * 1024 * 1024 / 1000;

impl Image {
    /// Time to pull this image onto a worker that does not cache it.
    pub fn pull_latency(&self) -> SimDuration {
        SimDuration::from_millis(self.size_bytes / PULL_BYTES_PER_MS)
    }
}

impl ImageRegistry {
    /// The registry used for the Applied Parallel Programming course:
    /// the default `webgpu/rai:root` image (CUDA + cuDNN + frameworks +
    /// the HDF5 course data), the one image students may pick, and one
    /// image that is not whitelisted.
    pub fn course_default() -> Self {
        let mut reg = Self::default();
        let mut rootfs = FileTree::new();
        // Course data volume: a small test split, the full evaluation
        // set, and the fixed pre-trained model weights.
        rootfs
            .insert("data/test10.hdf5", make_hdf5_stub("test10", 10))
            .expect("static path");
        rootfs
            .insert("data/testfull.hdf5", make_hdf5_stub("testfull", 10_000))
            .expect("static path");
        rootfs
            .insert("data/model.hdf5", make_hdf5_stub("model", 0))
            .expect("static path");
        reg.add(
            Image {
                name: "webgpu/rai:root".into(),
                rootfs,
                size_bytes: 4 * 1024 * 1024 * 1024, // CUDA images are huge
            },
            true,
        );
        // Exists in the repo but NOT whitelisted (tests the deny path).
        reg.add(
            Image {
                name: "malicious/miner:latest".into(),
                rootfs: FileTree::new(),
                size_bytes: 100 * 1024 * 1024,
            },
            false,
        );
        reg
    }

    /// Add an image to the repository, whitelisted or not.
    fn add(&mut self, image: Image, whitelisted: bool) {
        self.images.insert(image.name.clone(), (Arc::new(image), whitelisted));
    }

    /// Resolve a student-requested image, enforcing the whitelist. The
    /// handle derefs to `&Image` wherever one is wanted.
    pub fn resolve(&self, name: &str) -> Result<&Arc<Image>, ImageError> {
        match self.images.get(name) {
            Some((image, true)) => Ok(image),
            _ => Err(ImageError::NotWhitelisted(name.to_string())),
        }
    }

}

/// A recognizable stand-in for the course's HDF5 files: a tiny header
/// plus an item count the program model reads back.
fn make_hdf5_stub(name: &str, items: u64) -> Vec<u8> {
    format!("\u{0089}HDF\nname={name}\nitems={items}\n").into_bytes()
}

/// Parse the item count out of a stub HDF5 file.
pub(crate) fn hdf5_item_count(data: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(data).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("items="))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn course_registry_resolves_default() {
        let reg = ImageRegistry::course_default();
        let img = reg.resolve("webgpu/rai:root").unwrap();
        assert!(img.rootfs.contains("data/test10.hdf5"));
        assert_eq!(img.name, "webgpu/rai:root");
    }

    #[test]
    fn whitelist_enforced() {
        let reg = ImageRegistry::course_default();
        assert_eq!(
            reg.resolve("malicious/miner:latest"),
            Err(ImageError::NotWhitelisted("malicious/miner:latest".into()))
        );
        assert_eq!(
            reg.resolve("nonexistent:tag"),
            Err(ImageError::NotWhitelisted("nonexistent:tag".into()))
        );
    }

    #[test]
    fn pull_latency_scales_with_size() {
        let reg = ImageRegistry::course_default();
        let big = reg.resolve("webgpu/rai:root").unwrap().pull_latency();
        let sized = |size_bytes| Image { name: "sized".into(), rootfs: FileTree::new(), size_bytes };
        assert!(sized(3 << 30).pull_latency() < big);
        assert!(sized(8 << 30).pull_latency() > big);
        assert!(big >= SimDuration::from_secs(30), "4GB at 100MB/s ≈ 40s, got {big}");
    }

    #[test]
    fn hdf5_stub_round_trips_item_count() {
        let data = make_hdf5_stub("testfull", 10_000);
        assert_eq!(hdf5_item_count(&data), Some(10_000));
        assert_eq!(hdf5_item_count(b"not hdf5"), None);
    }
}
