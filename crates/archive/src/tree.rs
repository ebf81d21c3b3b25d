//! [`FileTree`] — the in-memory directory tree used everywhere a real
//! deployment would touch a filesystem: the student's project directory,
//! the container's `/src` and `/build` mounts, and unpacked submissions
//! on the grader's machine.

use bytes::Bytes;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Normalized, ordered path → file contents map. Directories are
/// implicit (a file at `src/main.cu` implies `src/`). Paths are
/// `/`-separated, relative, with no `.`/`..` components. A tree holds
/// at most [`MAX_ENTRIES`] files and [`MAX_TREE_BYTES`] bytes of them.
///
/// The map is shared: a clone is a reference count, and the first
/// write to a tree whose map another clone holds copies the map for
/// the writer alone. A container mounts a project, and keeps its
/// image's files, by such a clone (`rai_sandbox::Container`).
#[derive(Clone, Default)]
pub struct FileTree {
    /// `None` until the first write: an empty tree allocates nothing.
    files: Option<Arc<Files>>,
    /// Sum of the file sizes, kept as files come and go.
    bytes: u64,
}

/// What a tree holds: path → contents.
pub(crate) type Files = BTreeMap<String, Bytes>;

/// The map of every tree that has none of its own.
static NO_FILES: Files = BTreeMap::new();

impl PartialEq for FileTree {
    fn eq(&self, other: &Self) -> bool {
        match (&self.files, &other.files) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.bytes == other.bytes && self.map() == other.map(),
        }
    }
}

impl Eq for FileTree {}

impl fmt::Debug for FileTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileTree").field("files", self.map()).field("bytes", &self.bytes).finish()
    }
}

/// Error inserting an invalid path.
#[derive(Debug, PartialEq)]
pub struct InvalidPath(pub String);

impl std::fmt::Display for InvalidPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid path: {:?}", self.0)
    }
}

/// Why a tree refused a write.
#[derive(Debug, PartialEq)]
pub enum TreeError {
    /// The path is not one a tree holds: empty, with a `.`, `..` or
    /// empty component, a backslash or NUL, or longer than
    /// [`MAX_PATH_BYTES`] once a leading `/` is stripped.
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
pub(crate) fn normalize(path: &str) -> Result<String, InvalidPath> {
    normalized(path).map(str::to_string)
}

/// A path's normal form, borrowed: a valid path's normal form is the
/// path itself less its leading `/`, so lookups borrow it. Refuses what
/// a tree refuses to hold: an empty path, a `.`, `..` or empty
/// component, a backslash or NUL, or a normal form longer than
/// [`MAX_PATH_BYTES`].
pub fn normalized(path: &str) -> Result<&str, InvalidPath> {
    let trimmed = path.strip_prefix('/').unwrap_or(path);
    let bounded = !trimmed.is_empty() && trimmed.len() <= MAX_PATH_BYTES;
    if bounded && components_valid(trimmed.as_bytes()) {
        Ok(trimmed)
    } else {
        Err(InvalidPath(path.to_string()))
    }
}

/// The key a lookup of `path` probes: the path less its leading `/`.
/// Every key is a valid normal form, so a path [`normalized`] refuses
/// matches none, and a lookup need not validate it first.
fn key_of(path: &str) -> &str {
    path.strip_prefix('/').unwrap_or(path)
}

/// Whether no `/`-separated component of `path` is empty, `.` or `..`
/// and no byte is a backslash or NUL: one pass over the bytes (every
/// byte tested is ASCII, so a multi-byte character never matches).
fn components_valid(path: &[u8]) -> bool {
    let mut start = 0;
    for (at, &b) in path.iter().enumerate() {
        match b {
            b'\\' | b'\0' => return false,
            b'/' if matches!(&path[start..at], b"" | b"." | b"..") => return false,
            b'/' => start = at + 1,
            _ => {}
        }
    }
    !matches!(&path[start..], b"" | b"." | b"..")
}

impl FileTree {
    /// An empty tree.
    pub const fn new() -> Self {
        FileTree { files: None, bytes: 0 }
    }

    /// A tree of `files`, whose sizes add up to `bytes`.
    pub(crate) fn from_files(files: Files, bytes: u64) -> Self {
        let files = (!files.is_empty()).then(|| Arc::new(files));
        FileTree { files, bytes }
    }

    /// The map, read.
    fn map(&self) -> &Files {
        self.files.as_deref().unwrap_or(&NO_FILES)
    }

    /// The map, to write: this tree's own, copied first if another
    /// clone holds it too.
    fn map_mut(&mut self) -> &mut Files {
        Arc::make_mut(self.files.get_or_insert_with(Default::default))
    }

    /// Insert (or overwrite) a file. The path is normalized; invalid
    /// paths (empty, traversal, absolute-only) are rejected, and so is a
    /// file that would take the tree past [`MAX_ENTRIES`] or
    /// [`MAX_TREE_BYTES`]. An owned path becomes the key, normalized in
    /// place; a borrowed one is copied.
    pub fn insert<'p>(
        &mut self,
        path: impl Into<Cow<'p, str>>,
        data: impl Into<Bytes>,
    ) -> Result<(), TreeError> {
        let key = match path.into() {
            Cow::Borrowed(path) => normalize(path)?,
            Cow::Owned(mut path) => {
                normalized(&path)?;
                if path.starts_with('/') {
                    path.remove(0);
                }
                path
            }
        };
        let data = data.into();
        let bytes = self.bytes;
        let files = self.map_mut();
        let len = files.len();
        let entry = files.entry(key);
        let (entries, replaced) = match &entry {
            Entry::Occupied(e) => (len, e.get().len()),
            Entry::Vacant(_) => (len + 1, 0),
        };
        let bytes = bytes - replaced as u64 + data.len() as u64;
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
        self.map().get(key_of(path))
    }

    /// Whether a file exists at `path`.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Remove a file, returning its contents if present.
    pub fn remove(&mut self, path: &str) -> Option<Bytes> {
        let key = key_of(path);
        if !self.map().contains_key(key) {
            return None;
        }
        let data = self.map_mut().remove(key)?;
        self.bytes -= data.len() as u64;
        Some(data)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// Sum of file sizes in bytes.
    pub fn total_size(&self) -> u64 {
        self.bytes
    }

    /// Iterate `(path, contents)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Bytes)> {
        self.map().iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Paths in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.map().keys().map(|k| k.as_str())
    }

    /// A sub-tree of all files under `dir`, with the prefix stripped.
    pub fn subtree(&self, dir: &str) -> FileTree {
        let Ok(norm) = normalized(dir) else { return FileTree::new() };
        let mut files = Files::new();
        let mut bytes = 0;
        for (rest, v) in self.under(norm) {
            files.insert(rest.to_string(), v.clone());
            bytes += v.len() as u64;
        }
        FileTree::from_files(files, bytes)
    }

    /// The files under the directory `norm` — a normalized path, or
    /// `""` for the whole tree — each with its path past `norm/`, in
    /// path order: a walk of the key range that starts with `norm`,
    /// where keys under `norm/` sort together with the likes of
    /// `norm.x` and `normal`.
    pub fn under<'a>(&'a self, norm: &'a str) -> impl Iterator<Item = (&'a str, &'a Bytes)> {
        // The whole tree is tested for by length: comparing two empty
        // slices calls `bcmp` with a length of 0, which costs ≈ 130 ns
        // on the reference host, more than the rest of a walk.
        let whole = norm.is_empty();
        let (from, skip) =
            if whole { (Bound::Unbounded, 0) } else { (Bound::Included(norm), norm.len() + 1) };
        self.map()
            .range::<str, _>((from, Bound::Unbounded))
            .take_while(move |(k, _)| whole || k.starts_with(norm))
            .filter(move |(k, _)| whole || k.as_bytes().get(norm.len()) == Some(&b'/'))
            .map(move |(k, v)| (&k[skip..], v))
    }

    /// Graft a copy of `other` into this tree under the directory
    /// `dir` (the inverse of [`FileTree::subtree`]): `mount("src", t)`
    /// places `t`'s `main.cu` at `src/main.cu`, under a key of its own.
    /// All or nothing: a joined path longer than [`MAX_PATH_BYTES`], or
    /// a result past [`MAX_ENTRIES`] or [`MAX_TREE_BYTES`], refuses the
    /// mount before any file is placed. A container's `/src` is not
    /// grafted: it keeps the caller's tree by reference
    /// (`rai_sandbox::Container::mount`); this is the flat form it is
    /// tested against.
    pub fn mount(&mut self, dir: &str, other: &FileTree) -> Result<(), TreeError> {
        let norm = normalized(dir)?;
        if let Some(k) = other.paths().find(|k| norm.len() + 1 + k.len() > MAX_PATH_BYTES) {
            return Err(InvalidPath([norm, "/", k].concat()).into());
        }
        // The files `other` overwrites: those already under `dir/` with
        // a path `other` holds too.
        let (mut overwritten, mut freed) = (0, 0);
        for (rest, v) in self.under(norm) {
            if other.map().contains_key(rest) {
                overwritten += 1;
                freed += v.len() as u64;
            }
        }
        let entries = self.len() + other.len() - overwritten;
        let bytes = self.bytes - freed + other.bytes;
        if entries > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        let files = self.map_mut();
        for (k, v) in other.iter() {
            files.insert([norm, "/", k].concat(), v.clone());
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

/// A file's bytes read as text: borrowed when they are valid UTF-8,
/// else a copy with each invalid sequence replaced by U+FFFD — exactly
/// [`String::from_utf8_lossy`], but valid bytes (what sources, build
/// files and logs are) take the fast validator alone instead of the
/// lossy decoder's byte-at-a-time walk.
pub fn text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(valid) => Cow::Borrowed(valid),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The validation `normalized` did until the byte pass: a `split`
    /// and a two-character `contains` per component. The oracle.
    fn reference_normalized(path: &str) -> Option<&str> {
        let trimmed = path.strip_prefix('/').unwrap_or(path);
        let valid = !trimmed.is_empty()
            && trimmed.len() <= MAX_PATH_BYTES
            && trimmed.split('/').all(|comp| {
                !matches!(comp, "" | "." | "..") && !comp.contains(['\\', '\0'])
            });
        valid.then_some(trimmed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        // Components empty, `.`, `..`, dotted names and plain ones,
        // backslashes, NULs and multi-byte characters.
        #[test]
        fn normalized_equals_split_form(path in "[a/./\\\\\u{0}é]{0,12}") {
            prop_assert_eq!(normalized(&path).ok(), reference_normalized(&path));
        }
    }

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
        assert!(normalize("a/\0").is_err());
        assert!(normalize("a/..").is_err());
        assert!(normalize("a/...").is_ok() && normalize(".a/b.").is_ok());
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
    fn subtree_and_mount_are_inverses() {
        let project = FileTree::new()
            .with("src/main.cu", &b"kernel"[..])
            .with("src/util/helper.h", &b"h"[..])
            .with("report.pdf", &b"pdf"[..]);
        let src = project.subtree("src");
        assert_eq!(src.len(), 2);
        // Keys that share the name and sort among `src/…` are not in it.
        let siblings = project
            .clone()
            .with("src", &b"f"[..])
            .with("src.bak/x", &b"x"[..])
            .with("srcs", &b"s"[..]);
        assert_eq!(siblings.subtree("src"), src);
        assert_eq!(siblings.subtree("/src/util").paths().collect::<Vec<_>>(), ["helper.h"]);
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
        t.insert(["/", &at_bound].concat(), &b"y"[..]).unwrap();
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
            t.insert(format!("f{i}"), &b"x"[..]).unwrap();
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
            t.insert(format!("copy{i}"), mib.clone()).unwrap();
        }
        assert_eq!(t.total_size(), MAX_TREE_BYTES);
        assert_eq!(t.insert("last", &b"x"[..]), Err(TreeError::NoSpace));
        assert_eq!(t.remove("copy1").map(|data| data.len()), Some(1 << 20));
        t.insert("last", &b"x"[..]).unwrap();

        // A mount is all or nothing, and what it overwrites is freed
        // before it is counted.
        let mut half = FileTree::new();
        for i in 0..MAX_ENTRIES / 2 {
            half.insert(format!("f{i}"), &b"x"[..]).unwrap();
        }
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
}
