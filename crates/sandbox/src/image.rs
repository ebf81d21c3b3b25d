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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    /// Full name, e.g. `webgpu/rai:root`.
    pub name: String,
    /// Files baked into the image (datasets, preinstalled tool markers).
    pub(crate) rootfs: FileTree,
    /// Download size in bytes (drives first-pull latency).
    pub(crate) size_bytes: u64,
    /// Tools available inside (consulted by the command interpreter).
    pub(crate) tools: Vec<String>,
}

/// Image resolution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// Image is not on the instructor whitelist.
    NotWhitelisted(String),
    /// Image does not exist in the repository at all.
    NotFound(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::NotWhitelisted(n) => write!(f, "image {n:?} is not whitelisted"),
            ImageError::NotFound(n) => write!(f, "image {n:?} not found in repository"),
        }
    }
}

impl std::error::Error for ImageError {}

/// The image repository plus whitelist, shared by all workers. An
/// image never changes once added, so the registry hands out shared
/// handles: a job's claim clones the `Arc`, not the layer list.
#[derive(Clone, Debug, Default)]
pub struct ImageRegistry {
    images: BTreeMap<String, Arc<Image>>,
    whitelist: Vec<String>,
}

/// Modeled network bandwidth for image pulls (100 MB/s).
const PULL_BYTES_PER_MS: u64 = 100 * 1024 * 1024 / 1000;

impl ImageRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The registry used for the Applied Parallel Programming course:
    /// the default `webgpu/rai:root` image (CUDA + cuDNN + frameworks +
    /// the HDF5 course data) and a couple of whitelisted alternates.
    pub fn course_default() -> Self {
        let mut reg = Self::new();
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
        let tools = [
            "echo", "cmake", "make", "nvprof", "time", "cp", "nvcc", "g++", "cudnn", "tensorflow",
            "torch7",
        ];
        reg.add_image(Image {
            name: "webgpu/rai:root".into(),
            rootfs: rootfs.clone(),
            size_bytes: 4 * 1024 * 1024 * 1024, // CUDA images are huge
            tools: tools.iter().map(|s| s.to_string()).collect(),
        });
        reg.add_image(Image {
            name: "webgpu/rai:cuda8".into(),
            rootfs: rootfs.clone(),
            size_bytes: 3 * 1024 * 1024 * 1024,
            tools: tools.iter().map(|s| s.to_string()).collect(),
        });
        // Exists in the repo but NOT whitelisted (tests the deny path).
        reg.add_unlisted_image(Image {
            name: "malicious/miner:latest".into(),
            rootfs: FileTree::new(),
            size_bytes: 100 * 1024 * 1024,
            tools: vec!["echo".into()],
        });
        reg
    }

    /// Add an image and whitelist it.
    pub(crate) fn add_image(&mut self, image: Image) {
        self.whitelist.push(image.name.clone());
        self.add_unlisted_image(image);
    }

    /// Add an image to the repository without whitelisting it.
    pub(crate) fn add_unlisted_image(&mut self, image: Image) {
        self.images.insert(image.name.clone(), Arc::new(image));
    }

    /// Resolve a student-requested image, enforcing the whitelist. The
    /// handle derefs to `&Image` wherever one is wanted.
    pub fn resolve(&self, name: &str) -> Result<&Arc<Image>, ImageError> {
        if !self.whitelist.iter().any(|w| w == name) {
            return Err(ImageError::NotWhitelisted(name.to_string()));
        }
        self.images
            .get(name)
            .ok_or_else(|| ImageError::NotFound(name.to_string()))
    }

    /// Time to pull an image that is not cached on the worker.
    pub fn pull_latency(&self, name: &str) -> SimDuration {
        match self.images.get(name) {
            Some(img) => SimDuration::from_millis(img.size_bytes / PULL_BYTES_PER_MS),
            None => SimDuration::ZERO,
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
        assert!(img.tools.iter().any(|t| t == "nvprof"));
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
    fn whitelisted_but_missing_is_not_found() {
        let mut reg = ImageRegistry::new();
        reg.whitelist.push("ghost:1".into());
        assert_eq!(reg.resolve("ghost:1"), Err(ImageError::NotFound("ghost:1".into())));
    }

    #[test]
    fn pull_latency_scales_with_size() {
        let reg = ImageRegistry::course_default();
        let big = reg.pull_latency("webgpu/rai:root");
        let small = reg.pull_latency("malicious/miner:latest");
        assert!(big > small);
        assert!(big >= SimDuration::from_secs(30), "4GB at 100MB/s ≈ 40s, got {big}");
    }

    #[test]
    fn hdf5_stub_round_trips_item_count() {
        let data = make_hdf5_stub("testfull", 10_000);
        assert_eq!(hdf5_item_count(&data), Some(10_000));
        assert_eq!(hdf5_item_count(b"not hdf5"), None);
    }
}
