//! [`FileTree`] — the in-memory directory tree used everywhere a real
//! deployment would touch a filesystem: the student's project directory,
//! the container's `/src` and `/build` mounts, and unpacked submissions
//! on the grader's machine.

use bytes::Bytes;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Normalized, ordered path → file contents map. Directories are
/// implicit (a file at `src/main.cu` implies `src/`). Paths are
/// `/`-separated, relative, with no `.`/`..` components. A tree holds
/// at most [`MAX_ENTRIES`] files and [`MAX_TREE_BYTES`] bytes of them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileTree {
    files: BTreeMap<String, Bytes>,
    /// Sum of the file sizes, kept as files come and go.
    bytes: u64,
}

/// Error inserting an invalid path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidPath(pub String);

impl std::fmt::Display for InvalidPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid path: {:?}", self.0)
    }
}

impl std::error::Error for InvalidPath {}

/// Why a tree refused a write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The path is not one a tree holds (see [`normalize`]).
    Path(InvalidPath),
    /// The write would take the tree past [`MAX_ENTRIES`] files or
    /// [`MAX_TREE_BYTES`] bytes.
    NoSpace,
}

impl From<InvalidPath> for TreeError {
    fn from(e: InvalidPath) -> Self {
        TreeError::Path(e)
    }
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Path(e) => e.fmt(f),
            TreeError::NoSpace => f.write_str("No space left on device"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Longest normalized path a tree holds, in bytes: Linux's `PATH_MAX`.
/// The container format's own limit is 65 535 (a `u16` length); a tree
/// that never holds more is one every container writer can write.
pub const MAX_PATH_BYTES: usize = 4096;

/// Most files a tree holds. Copies share their bytes, so without a
/// bound each `cp -r /build /build/dN` line of a build file doubles the
/// container's tree for free. The largest tree a workload or test
/// builds holds 49 files (a `bulk_fresh` container).
pub const MAX_ENTRIES: usize = 4096;

/// Most bytes a tree's files add up to, each path counted in full even
/// when copies share one buffer. The largest tree a workload or test
/// builds holds 3.1 MB (a sandbox test's output flood).
pub const MAX_TREE_BYTES: u64 = 64 << 20;

/// Validate and normalize a path: strips a leading `/`, rejects empty
/// paths, `.`/`..` components, backslashes, empty components and
/// normal forms longer than [`MAX_PATH_BYTES`].
pub fn normalize(path: &str) -> Result<String, InvalidPath> {
    normalized(path).map(str::to_string)
}

/// [`normalize`] without the copy: a valid path's normal form is the
/// path itself less its leading `/`, so lookups borrow it.
fn normalized(path: &str) -> Result<&str, InvalidPath> {
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    let valid = !trimmed.is_empty()
        && trimmed.len() <= MAX_PATH_BYTES
        && trimmed.split('/').all(|comp| {
            !matches!(comp, "" | "." | "..") && !comp.contains(['\\', '\0'])
        });
    if valid {
        Ok(trimmed)
    } else {
        Err(InvalidPath(path.to_string()))
    }
}

impl FileTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or overwrite) a file. The path is normalized; invalid
    /// paths (empty, traversal, absolute-only) are rejected, and so is a
    /// file that would take the tree past [`MAX_ENTRIES`] or
    /// [`MAX_TREE_BYTES`].
    pub fn insert(&mut self, path: &str, data: impl Into<Bytes>) -> Result<(), TreeError> {
        let data = data.into();
        let len = self.files.len();
        let entry = self.files.entry(normalize(path)?);
        let (entries, replaced) = match &entry {
            Entry::Occupied(e) => (len, e.get().len()),
            Entry::Vacant(_) => (len + 1, 0),
        };
        let bytes = self.bytes - replaced as u64 + data.len() as u64;
        if entries > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        match entry {
            Entry::Occupied(mut e) => {
                e.insert(data);
            }
            Entry::Vacant(v) => {
                v.insert(data);
            }
        }
        self.bytes = bytes;
        Ok(())
    }

    /// Builder-style insert for test/demo construction; panics where
    /// [`FileTree::insert`] would refuse.
    pub fn with(mut self, path: &str, data: impl Into<Bytes>) -> Self {
        self.insert(path, data).expect("valid path in builder");
        self
    }

    /// Fetch a file's contents.
    pub fn get(&self, path: &str) -> Option<&Bytes> {
        self.files.get(normalized(path).ok()?)
    }

    /// Whether a file exists at `path`.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Remove a file, returning its contents if present.
    pub fn remove(&mut self, path: &str) -> Option<Bytes> {
        let data = self.files.remove(normalized(path).ok()?)?;
        self.bytes -= data.len() as u64;
        Some(data)
    }

    /// Remove every file under the directory prefix `dir` (e.g. `"build"`
    /// removes `build/a` and `build/x/y`). Returns how many were removed.
    pub fn remove_dir(&mut self, dir: &str) -> usize {
        let Ok(norm) = normalized(dir) else { return 0 };
        let prefix = [norm, "/"].concat();
        let doomed: Vec<String> = self
            .files
            .keys()
            .filter(|k| k.starts_with(&prefix) || *k == norm)
            .cloned()
            .collect();
        for k in &doomed {
            if let Some(data) = self.files.remove(k) {
                self.bytes -= data.len() as u64;
            }
        }
        doomed.len()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Sum of file sizes in bytes.
    pub fn total_size(&self) -> u64 {
        self.bytes
    }

    /// Iterate `(path, contents)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Bytes)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Paths in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|k| k.as_str())
    }

    /// A sub-tree of all files under `dir`, with the prefix stripped.
    pub fn subtree(&self, dir: &str) -> FileTree {
        let mut out = FileTree::new();
        let Ok(norm) = normalized(dir) else { return out };
        let prefix = [norm, "/"].concat();
        for (k, v) in &self.files {
            if let Some(rest) = k.strip_prefix(&prefix) {
                out.files.insert(rest.to_string(), v.clone());
                out.bytes += v.len() as u64;
            }
        }
        out
    }

    /// Graft `other` into this tree under the directory `dir`
    /// (the inverse of [`FileTree::subtree`]): `mount("src", t)` places
    /// `t`'s `main.cu` at `src/main.cu`. All or nothing: a joined path
    /// longer than [`MAX_PATH_BYTES`], or a result past [`MAX_ENTRIES`]
    /// or [`MAX_TREE_BYTES`], refuses the mount before any file is
    /// placed.
    pub fn mount(&mut self, dir: &str, other: &FileTree) -> Result<(), TreeError> {
        let norm = normalized(dir)?;
        if let Some(k) = other.files.keys().find(|k| norm.len() + 1 + k.len() > MAX_PATH_BYTES) {
            return Err(InvalidPath([norm, "/", k].concat()).into());
        }
        // The files `other` overwrites: those already under `dir/` with
        // a path `other` holds too. Keys under `dir/` sort together
        // among the keys that start with `dir`.
        let (mut overwritten, mut freed) = (0, 0);
        let under_dir = self.files.range::<str, _>((Bound::Included(norm), Bound::Unbounded));
        for (k, v) in under_dir.take_while(|(k, _)| k.starts_with(norm)) {
            let rest = k[norm.len()..].strip_prefix('/');
            if rest.is_some_and(|rest| other.files.contains_key(rest)) {
                overwritten += 1;
                freed += v.len() as u64;
            }
        }
        let entries = self.files.len() + other.files.len() - overwritten;
        let bytes = self.bytes - freed + other.bytes;
        if entries > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        for (k, v) in &other.files {
            self.files.insert([norm, "/", k].concat(), v.clone());
        }
        self.bytes = bytes;
        Ok(())
    }
}

impl FileTree {
    /// Load a real directory from disk (the client's step ① on a
    /// student machine). Hidden entries (`.git`, `.rai.profile`) and
    /// `target/` build directories are skipped, like the real client's
    /// upload filter.
    pub fn from_disk(root: &std::path::Path) -> std::io::Result<FileTree> {
        fn walk(
            root: &std::path::Path,
            dir: &std::path::Path,
            tree: &mut FileTree,
        ) -> std::io::Result<()> {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                let path = entry.path();
                if entry.file_type()?.is_dir() {
                    walk(root, &path, tree)?;
                } else if entry.file_type()?.is_file() {
                    let rel = path
                        .strip_prefix(root)
                        .expect("walked paths are under root")
                        .to_string_lossy()
                        .replace(std::path::MAIN_SEPARATOR, "/");
                    let data = std::fs::read(&path)?;
                    tree.insert(&rel, data).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })?;
                }
            }
            Ok(())
        }
        let mut tree = FileTree::new();
        walk(root, root, &mut tree)?;
        Ok(tree)
    }
}

impl FromIterator<(String, Bytes)> for FileTree {
    fn from_iter<T: IntoIterator<Item = (String, Bytes)>>(iter: T) -> Self {
        let mut t = FileTree::new();
        for (k, v) in iter {
            t.insert(&k, v).expect("valid path in FromIterator");
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_paths() {
        assert_eq!(normalize("/src/main.cu").unwrap(), "src/main.cu");
        assert_eq!(normalize("a/b").unwrap(), "a/b");
        assert!(normalize("").is_err());
        assert!(normalize("/").is_err());
        assert!(normalize("a/../b").is_err());
        assert!(normalize("./a").is_err());
        assert!(normalize("a//b").is_err());
        assert!(normalize("a\\b").is_err());
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = FileTree::new();
        t.insert("main.cu", &b"v1"[..]).unwrap();
        t.insert("/main.cu", &b"v2"[..]).unwrap();
        assert_eq!(t.get("main.cu").unwrap().as_ref(), b"v2");
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_size(), 2);
    }

    #[test]
    fn remove_dir_prefix_only() {
        let mut t = FileTree::new()
            .with("build/a.o", &b"x"[..])
            .with("build/deep/b.o", &b"y"[..])
            .with("builder", &b"z"[..]);
        assert_eq!(t.remove_dir("build"), 2);
        assert!(t.contains("builder"), "sibling with shared name prefix survives");
    }

    #[test]
    fn subtree_and_mount_are_inverses() {
        let project = FileTree::new()
            .with("src/main.cu", &b"kernel"[..])
            .with("src/util/helper.h", &b"h"[..])
            .with("report.pdf", &b"pdf"[..]);
        let src = project.subtree("src");
        assert_eq!(src.len(), 2);
        assert_eq!(src.get("main.cu").unwrap().as_ref(), b"kernel");

        let mut container = FileTree::new();
        container.mount("src", &src).unwrap();
        assert_eq!(container.get("src/util/helper.h").unwrap().as_ref(), b"h");
    }

    #[test]
    fn paths_are_bounded_at_path_max() {
        let at_bound = "a".repeat(MAX_PATH_BYTES);
        let past = "a".repeat(MAX_PATH_BYTES + 1);
        let mut t = FileTree::new();
        t.insert(&at_bound, &b"x"[..]).unwrap();
        t.insert(&["/", &at_bound].concat(), &b"y"[..]).unwrap();
        assert_eq!(t.insert(&past, &b"x"[..]), Err(TreeError::Path(InvalidPath(past.clone()))));
        assert!(normalize(&past).is_err() && !t.contains(&past));
        assert_eq!(t.len(), 1);

        // A mount checks every joined path before it places any.
        let src = FileTree::new()
            .with("ok.cu", &b"k"[..])
            .with(&"b".repeat(MAX_PATH_BYTES - 4), &b"k"[..]);
        let mut container = FileTree::new();
        container.mount("src", &src).expect("src/ and 4 092 bytes is 4 096");
        assert_eq!(container.len(), 2);
        let mut container = FileTree::new();
        let refused = container.mount("srcs", &src).unwrap_err();
        let TreeError::Path(InvalidPath(refused)) = refused else { panic!("a path refusal") };
        assert_eq!(refused.len(), MAX_PATH_BYTES + 1);
        assert!(container.is_empty(), "a refused mount placed nothing");
    }

    #[test]
    fn entries_and_bytes_are_bounded() {
        // The entry bound: the last file fits, the next is refused, an
        // overwrite at the bound is not a new file.
        let mut t = FileTree::new();
        for i in 0..MAX_ENTRIES {
            t.insert(&format!("f{i}"), &b"x"[..]).unwrap();
        }
        assert_eq!(t.insert("one-more", &b"x"[..]), Err(TreeError::NoSpace));
        t.insert("f0", &b"yy"[..]).unwrap();
        assert_eq!((t.len(), t.total_size()), (MAX_ENTRIES, MAX_ENTRIES as u64 + 1));
        t.remove("f0").unwrap();
        t.insert("one-more", &b"x"[..]).unwrap();

        // The byte bound counts a shared buffer once per path.
        let mib = Bytes::from(vec![0u8; 1 << 20]);
        let mut t = FileTree::new();
        for i in 0..MAX_TREE_BYTES >> 20 {
            t.insert(&format!("copy{i}"), mib.clone()).unwrap();
        }
        assert_eq!(t.total_size(), MAX_TREE_BYTES);
        assert_eq!(t.insert("last", &b"x"[..]), Err(TreeError::NoSpace));
        assert_eq!(t.remove_dir("copy1"), 1);
        t.insert("last", &b"x"[..]).unwrap();

        // A mount is all or nothing, and what it overwrites is freed
        // before it is counted.
        let half: FileTree =
            (0..MAX_ENTRIES / 2).map(|i| (format!("f{i}"), Bytes::from_static(b"x"))).collect();
        let mut t = FileTree::new();
        t.mount("a", &half).unwrap();
        t.mount("b", &half).unwrap();
        assert_eq!(t.mount("c", &FileTree::new().with("f", &b"x"[..])), Err(TreeError::NoSpace));
        assert_eq!(t.len(), MAX_ENTRIES, "a refused mount placed nothing");
        t.mount("a", &half).expect("overwrites add no file");
        assert_eq!((t.len(), t.total_size()), (MAX_ENTRIES, MAX_ENTRIES as u64));
        assert_eq!(t.subtree("a").total_size(), MAX_ENTRIES as u64 / 2);
    }

    #[test]
    fn iteration_is_ordered() {
        let t = FileTree::new()
            .with("z", &b""[..])
            .with("a", &b""[..])
            .with("m/n", &b""[..]);
        let paths: Vec<&str> = t.paths().collect();
        assert_eq!(paths, vec!["a", "m/n", "z"]);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("rai-tree-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = FileTree::new()
            .with("rai-build.yml", &b"rai:\n  version: 0.1\n"[..])
            .with("src/main.cu", &b"kernel"[..])
            .with("src/deep/util.h", &b"h"[..]);
        for (path, data) in tree.iter() {
            let full = dir.join(path);
            std::fs::create_dir_all(full.parent().expect("a file has a parent")).expect("mkdir");
            std::fs::write(full, data).expect("write");
        }
        // Drop in noise that the loader must skip.
        std::fs::create_dir_all(dir.join(".git")).expect("mkdir");
        std::fs::write(dir.join(".git/HEAD"), b"ref").expect("write");
        std::fs::write(dir.join(".rai.profile"), b"secret").expect("write");
        std::fs::create_dir_all(dir.join("target")).expect("mkdir");
        std::fs::write(dir.join("target/junk.o"), b"obj").expect("write");
        let back = FileTree::from_disk(&dir).expect("read tree");
        assert_eq!(back, tree, "hidden files and target/ skipped");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn from_iterator() {
        let t: FileTree = vec![("a".to_string(), Bytes::from_static(b"1"))]
            .into_iter()
            .collect();
        assert!(t.contains("a"));
    }
}
