//! [`FileTree`] — the in-memory directory tree used everywhere a real
//! deployment would touch a filesystem: the student's project directory,
//! the container's `/src` and `/build` mounts, and unpacked submissions
//! on the grader's machine.

use bytes::Bytes;
use std::collections::BTreeMap;

/// Normalized, ordered path → file contents map. Directories are
/// implicit (a file at `src/main.cu` implies `src/`). Paths are
/// `/`-separated, relative, with no `.`/`..` components.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileTree {
    files: BTreeMap<String, Bytes>,
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

/// Validate and normalize a path: strips a leading `/`, rejects empty
/// paths, `.`/`..` components, backslashes and empty components.
pub fn normalize(path: &str) -> Result<String, InvalidPath> {
    normalized(path).map(str::to_string)
}

/// [`normalize`] without the copy: a valid path's normal form is the
/// path itself less its leading `/`, so lookups borrow it.
fn normalized(path: &str) -> Result<&str, InvalidPath> {
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    let valid = !trimmed.is_empty()
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
    /// paths (empty, traversal, absolute-only) are rejected.
    pub fn insert(&mut self, path: &str, data: impl Into<Bytes>) -> Result<(), InvalidPath> {
        let norm = normalize(path)?;
        self.files.insert(norm, data.into());
        Ok(())
    }

    /// Builder-style insert for test/demo construction; panics on an
    /// invalid path.
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
        self.files.remove(normalized(path).ok()?)
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
            self.files.remove(k);
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
        self.files.values().map(|b| b.len() as u64).sum()
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
            }
        }
        out
    }

    /// Graft `other` into this tree under the directory `dir`
    /// (the inverse of [`FileTree::subtree`]): `mount("src", t)` places
    /// `t`'s `main.cu` at `src/main.cu`.
    pub fn mount(&mut self, dir: &str, other: &FileTree) -> Result<(), InvalidPath> {
        let norm = normalized(dir)?;
        for (k, v) in &other.files {
            self.files.insert([norm, "/", k].concat(), v.clone());
        }
        Ok(())
    }

    /// Files whose path matches a simple suffix pattern (e.g. `".cu"`).
    pub fn with_suffix<'a>(&'a self, suffix: &'a str) -> impl Iterator<Item = (&'a str, &'a Bytes)> {
        self.iter().filter(move |(p, _)| p.ends_with(suffix))
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

    /// Write the tree out to a real directory (the grader's un-archive
    /// step). Creates intermediate directories as needed.
    pub fn to_disk(&self, root: &std::path::Path) -> std::io::Result<()> {
        for (path, data) in self.iter() {
            let full = root.join(path);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(full, data)?;
        }
        Ok(())
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
    fn iteration_is_ordered() {
        let t = FileTree::new()
            .with("z", &b""[..])
            .with("a", &b""[..])
            .with("m/n", &b""[..]);
        let paths: Vec<&str> = t.paths().collect();
        assert_eq!(paths, vec!["a", "m/n", "z"]);
    }

    #[test]
    fn suffix_filter() {
        let t = FileTree::new()
            .with("a.cu", &b""[..])
            .with("b.cpp", &b""[..])
            .with("dir/c.cu", &b""[..]);
        assert_eq!(t.with_suffix(".cu").count(), 2);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("rai-tree-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = FileTree::new()
            .with("rai-build.yml", &b"rai:\n  version: 0.1\n"[..])
            .with("src/main.cu", &b"kernel"[..])
            .with("src/deep/util.h", &b"h"[..]);
        tree.to_disk(&dir).expect("write tree");
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
