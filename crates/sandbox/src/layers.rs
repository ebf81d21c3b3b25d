//! The container's filesystem as the paper's layers: the image's
//! rootfs, the project mounted at `/src`, and one upper layer that
//! every write lands in.
//!
//! The lower two are the image's and the caller's own trees, held by
//! reference (a [`FileTree`] clone is a reference count) and never
//! written: a write to one of their paths lands in the upper layer and
//! shadows the lower file. The upper layer keeps `/build` apart,
//! relative to `build/`, so that it is the build tree `destroy` hands
//! over as it stands.
//!
//! A read checks the upper layer, then the volume, then the image. The
//! view they make is the flat tree a container held before it had
//! layers, path for path and in the same order, and it is bounded as
//! that tree was: [`MAX_ENTRIES`] files and [`MAX_TREE_BYTES`] bytes,
//! a shadowed path counted once.

use crate::container::WORKDIR;
use rai_archive::tree::{
    normalized, InvalidPath, TreeError, MAX_ENTRIES, MAX_PATH_BYTES, MAX_TREE_BYTES,
};
use rai_archive::{Bytes, FileTree};
use std::iter::Peekable;

/// A command-line path resolved against the container (see
/// `Container::resolve_path`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Resolved<'a> {
    /// `/build/rel`, named relative to the working directory.
    Work(&'a str),
    /// Any path, as an absolute argument names it less its `/`.
    Root(&'a str),
}

impl<'a> Resolved<'a> {
    /// The path's two pieces as the flat tree was handed it: `build/`
    /// and the relative path, or nothing and the path.
    pub(crate) fn pieces(self) -> [&'a str; 2] {
        match self {
            Resolved::Work(rel) => [WORK_PREFIX, rel],
            Resolved::Root(path) => ["", path],
        }
    }

    /// Where the path lies, or why no tree holds it: what the flat
    /// tree's normalization made of it.
    fn at(self) -> Result<At<'a>, InvalidPath> {
        match self {
            Resolved::Root(path) => normalized(path).map(At::of),
            Resolved::Work(rel)
                if !rel.starts_with('/')
                    && WORK_PREFIX.len() + rel.len() <= MAX_PATH_BYTES
                    && normalized(rel).is_ok() =>
            {
                Ok(At::Build(rel))
            }
            Resolved::Work(rel) => Err(InvalidPath([WORK_PREFIX, rel].concat())),
        }
    }
}

/// `/build/` as a path prefix.
const WORK_PREFIX: &str = "build/";

/// Where a normalized path lies: under `/build` (the path past
/// `build/`, `""` for `build` itself) or outside it (the whole path).
#[derive(Clone, Copy)]
enum At<'a> {
    Build(&'a str),
    Else(&'a str),
}

impl<'a> At<'a> {
    fn of(norm: &'a str) -> Self {
        match norm.strip_prefix(WORKDIR) {
            Some(rest) if rest.is_empty() => At::Build(rest),
            Some(rest) => match rest.strip_prefix('/') {
                Some(below) if !below.is_empty() => At::Build(below),
                _ => At::Else(norm),
            },
            None => At::Else(norm),
        }
    }

    /// The file at this path: a file named `build` lives outside
    /// `/build`, like any other.
    fn file(self) -> Self {
        match self {
            At::Build("") => At::Else(WORKDIR),
            at => at,
        }
    }

    /// The path's key in the layer that holds a file there.
    fn key(self) -> &'a str {
        match self.file() {
            At::Build(rest) | At::Else(rest) => rest,
        }
    }

    /// Bytes of the normalized path.
    fn flat_len(self) -> usize {
        match self {
            At::Build("") => WORKDIR.len(),
            At::Build(rest) => WORK_PREFIX.len() + rest.len(),
            At::Else(norm) => norm.len(),
        }
    }

    /// The normalized path, joined to `name` below it: the flat tree's
    /// key for the file, copied (for a refusal's message).
    fn flat_join(self, name: &str) -> String {
        match self {
            At::Build(rest) => [WORK_PREFIX, rest, "/", name].concat(),
            At::Else(norm) => [norm, "/", name].concat(),
        }
    }

    /// The key of the file `name` below this directory, in the layer
    /// that holds it.
    fn key_below(self, name: &str) -> String {
        match self {
            At::Build("") => name.to_string(),
            At::Build(dir) | At::Else(dir) => [dir, "/", name].concat(),
        }
    }
}

/// A tree with no files, for the layers a walk does not reach.
static NO_FILES: FileTree = FileTree::new();

/// `dir` past the directory `mount`: `""` for `mount` itself, `None`
/// when it is not below it.
fn below<'a>(dir: &'a str, mount: &str) -> Option<&'a str> {
    let rest = dir.strip_prefix(mount)?;
    if rest.is_empty() {
        Some(rest)
    } else {
        rest.strip_prefix('/')
    }
}

/// A container's filesystem: the image, at most one volume by
/// reference, and the upper layer in two trees.
pub(crate) struct Layers {
    /// The image's rootfs, shared with the registry.
    image: FileTree,
    /// The volume at a top-level directory (`src`) and the caller's
    /// tree mounted there.
    volume: Option<(&'static str, FileTree)>,
    /// Writes outside `/build`, under their whole path.
    upper: FileTree,
    /// `/build`, relative to `build/`: what the container hands over.
    build: FileTree,
    /// Files in the view, a shadowed path once, and their bytes.
    len: usize,
    bytes: u64,
}

impl Layers {
    /// The view of an image's rootfs. What the image holds under
    /// `/build` (the course's image holds nothing there) starts the
    /// upper layer's `/build`.
    pub(crate) fn new(rootfs: &FileTree) -> Self {
        Layers {
            image: rootfs.clone(),
            volume: None,
            upper: FileTree::new(),
            build: rootfs.subtree(WORKDIR),
            len: rootfs.len(),
            bytes: rootfs.total_size(),
        }
    }

    /// Number of files in the view.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Sum of the view's file sizes.
    #[cfg(test)]
    pub(crate) fn total_size(&self) -> u64 {
        self.bytes
    }

    /// The files under `dir`, copied into a tree of their own.
    #[cfg(test)]
    pub(crate) fn subtree(&self, dir: Resolved<'_>) -> FileTree {
        let mut tree = FileTree::new();
        for (path, data) in self.walk(dir) {
            tree.insert(path, data.clone()).expect("a view's files fit a tree");
        }
        tree
    }

    /// The view as one flat tree: every file under its whole path,
    /// each layer's files where no layer above holds the path.
    #[cfg(test)]
    pub(crate) fn flat(&self) -> FileTree {
        let build = self.build.iter().map(|(path, data)| ([WORK_PREFIX, path].concat(), data));
        let upper = self.upper.iter().map(|(path, data)| (path.to_string(), data));
        let volume = self.volume.iter().flat_map(|(mount, tree)| {
            tree.iter().map(move |(path, data)| ([mount, "/", path].concat(), data))
        });
        let image = self.image.iter().map(|(path, data)| (path.to_string(), data));
        let mut flat = FileTree::new();
        for (path, data) in build.chain(upper).chain(volume).chain(image) {
            if !flat.contains(&path) {
                flat.insert(path, data.clone()).expect("a view's files fit a tree");
            }
        }
        flat
    }

    /// The file at `path`. A read is not validated: a path no tree
    /// holds matches no key, so long as no lookup strips a second
    /// leading `/` from it (see `find`).
    pub(crate) fn get(&self, path: Resolved<'_>) -> Option<&Bytes> {
        let at = match path {
            Resolved::Root(path) => At::of(path.strip_prefix('/').unwrap_or(path)),
            Resolved::Work("") => return None,
            Resolved::Work(rel) => At::Build(rel),
        };
        self.find(at)
    }

    /// The file at `at`: the upper layer's, else the volume's, else the
    /// image's. Each key is looked up as it is: `FileTree::get` strips a
    /// leading `/`, which no key has.
    fn find(&self, at: At<'_>) -> Option<&Bytes> {
        let exact = |key: &'_ str| !key.starts_with('/');
        match at.file() {
            At::Build(rest) => self.build.get(rest).filter(|_| exact(rest)),
            At::Else(norm) if !exact(norm) => None,
            At::Else(norm) => self
                .upper
                .get(norm)
                .or_else(|| {
                    let (mount, tree) = self.volume.as_ref()?;
                    let rest = below(norm, mount).filter(|rest| !rest.is_empty() && exact(rest))?;
                    tree.get(rest)
                })
                .or_else(|| self.image.get(norm)),
        }
    }

    /// Write `data` at `path` into the upper layer, over whatever a
    /// lower layer holds there. Refused as the flat tree refused: a
    /// path no tree holds, or a view past its bounds.
    pub(crate) fn insert(
        &mut self,
        path: Resolved<'_>,
        data: impl Into<Bytes>,
    ) -> Result<(), TreeError> {
        let at = path.at()?.file();
        let data = data.into();
        let old = self.find(at).map(Bytes::len);
        let len = self.len + usize::from(old.is_none());
        let bytes = self.bytes - old.unwrap_or(0) as u64 + data.len() as u64;
        if len > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        self.upper_at(at).insert(at.key(), data)?;
        (self.len, self.bytes) = (len, bytes);
        Ok(())
    }

    /// The tree of the upper layer that holds `at`.
    fn upper_at(&mut self, at: At<'_>) -> &mut FileTree {
        match at {
            At::Build(_) => &mut self.build,
            At::Else(_) => &mut self.upper,
        }
    }

    /// The files under the directory `dir`, each with its path past
    /// `dir/`, in path order: the flat tree's `subtree`, borrowed.
    pub(crate) fn walk<'a>(
        &'a self,
        dir: Resolved<'a>,
    ) -> impl Iterator<Item = (&'a str, &'a Bytes)> + 'a {
        self.walk_at(dir.at().ok())
    }

    fn walk_at<'a>(
        &'a self,
        dir: Option<At<'a>>,
    ) -> impl Iterator<Item = (&'a str, &'a Bytes)> + 'a {
        let none = || NO_FILES.under("");
        let (upper, volume, image) = match dir {
            None => (none(), none(), none()),
            Some(At::Build(dir)) => (self.build.under(dir), none(), none()),
            Some(At::Else(dir)) => {
                let volume = match &self.volume {
                    Some((mount, tree)) => {
                        below(dir, mount).map_or_else(none, |sub| tree.under(sub))
                    }
                    None => none(),
                };
                (self.upper.under(dir), volume, self.image.under(dir))
            }
        };
        Merged { layers: [upper.peekable(), volume.peekable(), image.peekable()] }
    }

    /// Mount `tree` at the directory `dir` (`/src`), all or nothing: a
    /// file it holds overwrites what the view held at its path, as the
    /// flat tree's `FileTree::mount` did. The first volume at a
    /// top-level directory other than `/build`, with nothing written
    /// under it yet, is kept by reference; any other mount (the worker
    /// makes none) is copied in as writes.
    pub(crate) fn mount(&mut self, dir: &'static str, tree: &FileTree) -> Result<(), TreeError> {
        let norm = normalized(dir.trim_start_matches('/'))?;
        if let Some(k) = tree.paths().find(|k| norm.len() + 1 + k.len() > MAX_PATH_BYTES) {
            return Err(InvalidPath([norm, "/", k].concat()).into());
        }
        let at = At::of(norm);
        let (mut overwritten, mut freed) = (0, 0);
        for (rest, data) in self.walk_at(Some(at)) {
            if tree.contains(rest) {
                overwritten += 1;
                freed += data.len() as u64;
            }
        }
        let len = self.len + tree.len() - overwritten;
        let bytes = self.bytes - freed + tree.total_size();
        if len > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        match at {
            // Nothing written under it yet, so nothing the volume
            // overwrites lies above it.
            At::Else(top)
                if self.volume.is_none()
                    && !top.contains('/')
                    && self.upper.under(top).next().is_none() =>
            {
                self.volume = Some((top, tree.clone()));
            }
            _ => {
                for (k, data) in tree.iter() {
                    self.upper_at(at).insert(at.key_below(k), data.clone())?;
                }
            }
        }
        (self.len, self.bytes) = (len, bytes);
        Ok(())
    }

    /// Copy the directory `from` to `to` (`cp -r`), all or nothing as
    /// a mount is, and return the bytes copied. Each file is written
    /// once, under the key it keeps.
    pub(crate) fn copy_dir(
        &mut self,
        from: Resolved<'_>,
        to: Resolved<'_>,
    ) -> Result<u64, TreeError> {
        let to = to.at()?;
        let mut files = Vec::new();
        let mut copied = 0;
        for (rest, data) in self.walk(from) {
            if to.flat_len() + 1 + rest.len() > MAX_PATH_BYTES {
                return Err(InvalidPath(to.flat_join(rest)).into());
            }
            files.push((to.key_below(rest), data.clone()));
            copied += data.len() as u64;
        }
        let (mut len, mut bytes) = (self.len, self.bytes);
        for (key, data) in &files {
            let file = match to {
                At::Build(_) => At::Build(key),
                At::Else(_) => At::Else(key),
            };
            match self.find(file) {
                Some(old) => bytes -= old.len() as u64,
                None => len += 1,
            }
            bytes += data.len() as u64;
        }
        if len > MAX_ENTRIES || bytes > MAX_TREE_BYTES {
            return Err(TreeError::NoSpace);
        }
        let layer = self.upper_at(to);
        for (key, data) in files {
            layer.insert(key, data)?;
        }
        (self.len, self.bytes) = (len, bytes);
        Ok(copied)
    }

    /// The upper layer's `/build`, handed over.
    pub(crate) fn into_build(self) -> FileTree {
        self.build
    }
}

/// The walks of the three layers under one directory, in path order,
/// merged into one: each path once, with the file of the highest layer
/// (upper, volume, image) that holds it.
struct Merged<I: Iterator> {
    layers: [Peekable<I>; 3],
}

impl<'a, I: Iterator<Item = (&'a str, &'a Bytes)>> Iterator for Merged<I> {
    type Item = (&'a str, &'a Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        let mut first: Option<(usize, &'a str)> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Some(&(path, _)) = layer.peek() {
                if first.is_none_or(|(_, least)| path < least) {
                    first = Some((i, path));
                }
            }
        }
        let (top, path) = first?;
        for shadowed in &mut self.layers[top + 1..] {
            shadowed.next_if(|&(other, _)| other == path);
        }
        self.layers[top].next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::sync::OnceLock;

    /// Paths an absolute argument names (less its `/`): the image's and
    /// the volume's, `/build`'s, a file named `build` or `src`, their
    /// neighbours in path order, and paths no tree holds.
    const ROOTS: [&str; 24] = [
        "data/test10.hdf5",
        "data/x",
        "src",
        "src/main.cu",
        "src/CMakeLists.txt",
        "src/sub/a.cu",
        "src.bak/x",
        "srcs",
        "build",
        "build/Makefile",
        "build/x/y",
        "build/sub/a.cu",
        "build.x",
        "build0",
        "/src/main.cu",
        "//src/main.cu",
        "/build/x/y",
        "",
        "a/../b",
        "src/",
        "x",
        "fill/f0",
        "build/",
        "build//x",
    ];
    /// Paths a relative argument names under `/build`.
    const WORKS: [&str; 9] = ["Makefile", "ece408", "x/y", "x", "", "/x", "..", "a//b", "sub/a.cu"];
    /// Directories a walk, a copy or a second mount names.
    const DIRS: [&str; 13] = [
        "src",
        "build",
        "build/x",
        "build/sub",
        "data",
        "src/sub",
        "",
        "/src",
        "//src",
        "x",
        "src/",
        "srcs",
        "sub",
    ];
    /// Files of the images and volumes drawn.
    const IMAGE_FILES: [&str; 9] = [
        "data/test10.hdf5",
        "data/x",
        "src",
        "src/main.cu",
        "src/old.cu",
        "build",
        "build/x/y",
        "build/Makefile",
        "srcs",
    ];
    const VOLUME_FILES: [&str; 6] =
        ["main.cu", "CMakeLists.txt", "sub/a.cu", "x", "old.cu", "z.cu"];

    /// One megabyte, shared by every file drawn that size.
    fn mib() -> Bytes {
        static MIB: OnceLock<Bytes> = OnceLock::new();
        MIB.get_or_init(|| Bytes::from(vec![7u8; 1 << 20])).clone()
    }

    fn data(size: u8) -> Bytes {
        match size {
            0..=5 => Bytes::from(vec![size; usize::from(size)]),
            _ => mib(),
        }
    }

    /// A path drawn: an absolute argument's, a relative one's, or one
    /// at or past `MAX_PATH_BYTES`.
    fn path(long: &[String], pick: usize) -> Resolved<'_> {
        match pick % (ROOTS.len() + WORKS.len() + long.len()) {
            i if i < ROOTS.len() => Resolved::Root(ROOTS[i]),
            i if i < ROOTS.len() + WORKS.len() => Resolved::Work(WORKS[i - ROOTS.len()]),
            i => Resolved::Root(&long[i - ROOTS.len() - WORKS.len()]),
        }
    }

    /// The path the flat tree was handed for `path`.
    fn flat_path(path: Resolved<'_>) -> String {
        path.pieces().concat()
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize, u8),
        Get(usize),
        Walk(usize),
        Subtree(usize),
        Copy(usize, usize),
        Mount(usize, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        let insert = || (any::<usize>(), 0u8..7).prop_map(|(p, size)| Op::Insert(p, size));
        prop_oneof![
            insert(),
            insert(),
            insert(),
            any::<usize>().prop_map(Op::Get),
            any::<usize>().prop_map(Op::Walk),
            any::<usize>().prop_map(Op::Subtree),
            (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Op::Copy(from, to)),
            (any::<usize>(), any::<u8>()).prop_map(|(dir, files)| Op::Mount(dir, files)),
        ]
    }

    /// A tree of the `names` picked by the bits of `mask`, each file
    /// its own size.
    fn tree_of(names: &[&str], mask: u16, size: u8) -> FileTree {
        let mut tree = FileTree::new();
        for (i, name) in names.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1) {
            tree.insert(*name, data(size.wrapping_add(i as u8) % 6)).expect("valid path");
        }
        tree
    }

    /// Run `ops` over the layered view of `image` with `volume` at
    /// `/src`, and over the flat tree that starts as the two together:
    /// after every step they agree on what the step returned, on the
    /// view's size, and on `/build` as `destroy` would hand it over.
    fn check(image: &FileTree, volume: &FileTree, ops: &[Op]) -> Result<(), TestCaseError> {
        let long = [
            "a".repeat(MAX_PATH_BYTES),
            "a".repeat(MAX_PATH_BYTES + 1),
            ["build/", &"b".repeat(MAX_PATH_BYTES - 6)].concat(),
            ["src/", &"c".repeat(MAX_PATH_BYTES - 5)].concat(),
        ];
        let mut layers = Layers::new(image);
        let mut flat = image.clone();
        prop_assert_eq!(layers.mount("/src", volume), flat.mount("src", volume));
        for op in ops {
            match *op {
                Op::Insert(p, size) => {
                    let p = path(&long, p);
                    prop_assert_eq!(
                        layers.insert(p, data(size)),
                        flat.insert(flat_path(p), data(size)),
                        "insert {:?}",
                        p
                    );
                }
                Op::Get(p) => {
                    let p = path(&long, p);
                    prop_assert_eq!(layers.get(p), flat.get(&flat_path(p)), "get {:?}", p);
                }
                Op::Walk(d) => {
                    let dir = Resolved::Root(DIRS[d % DIRS.len()]);
                    let walked: Vec<(&str, &Bytes)> = layers.walk(dir).collect();
                    let sub = flat.subtree(DIRS[d % DIRS.len()]);
                    prop_assert_eq!(walked, sub.iter().collect::<Vec<_>>(), "walk {:?}", dir);
                }
                Op::Subtree(d) => {
                    let dir = path(&long, d);
                    prop_assert_eq!(
                        layers.subtree(dir),
                        flat.subtree(&flat_path(dir)),
                        "subtree {:?}",
                        dir
                    );
                }
                Op::Copy(from, to) => {
                    let (from, to) = (Resolved::Root(DIRS[from % DIRS.len()]), path(&long, to));
                    let sub = flat.subtree(&flat_path(from));
                    if !sub.is_empty() {
                        let copied = layers.copy_dir(from, to);
                        let grafted = flat.mount(&flat_path(to), &sub).map(|()| sub.total_size());
                        prop_assert_eq!(copied, grafted, "cp -r {:?} {:?}", from, to);
                    }
                }
                Op::Mount(d, files) => {
                    let dir = DIRS[d % DIRS.len()];
                    let tree = tree_of(&VOLUME_FILES, u16::from(files), files);
                    let mounted = layers.mount(dir, &tree);
                    prop_assert_eq!(
                        mounted,
                        flat.mount(dir.trim_start_matches('/'), &tree),
                        "mount {}",
                        dir
                    );
                }
            }
            prop_assert_eq!(
                (layers.len(), layers.total_size()),
                (flat.len(), flat.total_size()),
                "after {:?}",
                op
            );
            prop_assert_eq!(&layers.build, &flat.subtree("build"), "/build after {:?}", op);
        }
        prop_assert_eq!(layers.flat(), flat.clone(), "the whole view");
        prop_assert_eq!(layers.into_build(), flat.subtree("build"), "the hand-over");
        Ok(())
    }

    /// How full a drawn view starts.
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        /// As drawn.
        Drawn,
        /// One file short of `MAX_ENTRIES`.
        Entries,
        /// Within a few bytes of `MAX_TREE_BYTES`.
        Bytes(u64),
    }

    /// `image` grown, with files outside every path an op names, until
    /// it and `volume` together are as full as `fill` says.
    fn filled(mut image: FileTree, volume: &FileTree, fill: Fill) -> FileTree {
        let mut view = image.clone();
        view.mount("src", volume).expect("a drawn view fits");
        match fill {
            Fill::Drawn => {}
            Fill::Entries => {
                for i in 0..MAX_ENTRIES - 1 - view.len() {
                    image.insert(format!("fill/g{i}"), data(1)).expect("under the bound");
                }
            }
            Fill::Bytes(slack) => {
                let mut left = MAX_TREE_BYTES - slack - view.total_size();
                for i in 0.. {
                    let size = left.min(1 << 20);
                    if size == 0 {
                        break;
                    }
                    image
                        .insert(format!("fill/g{i}"), mib().slice(..size as usize))
                        .expect("under the bound");
                    left -= size;
                }
            }
        }
        image
    }

    fn fill() -> impl Strategy<Value = Fill> {
        prop_oneof![
            Just(Fill::Drawn),
            Just(Fill::Drawn),
            Just(Fill::Entries),
            (0u64..8).prop_map(Fill::Bytes),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn the_layered_view_reads_and_writes_as_a_flat_tree(
            image_mask in any::<u16>(),
            volume_mask in any::<u16>(),
            size in 0u8..6,
            fill in fill(),
            ops in prop::collection::vec(op(), 0..24),
        ) {
            let image = tree_of(&IMAGE_FILES, image_mask, size);
            let volume = tree_of(&VOLUME_FILES, volume_mask, size + 1);
            check(&filled(image, &volume, fill), &volume, &ops)?;
        }
    }

    #[test]
    fn a_view_at_its_bounds_counts_a_shadowed_file_once() {
        // One file short of the bound: a new path fits, the next does
        // not, and writing over an image or volume file is no new file.
        let image = tree_of(&IMAGE_FILES, u16::MAX, 1);
        let volume = tree_of(&VOLUME_FILES, u16::MAX, 2);
        let ops = [
            Op::Insert(3, 1),  // src/main.cu, over the volume
            Op::Insert(0, 2),  // data/test10.hdf5, over the image
            Op::Insert(20, 1), // x: the last file
            Op::Insert(21, 1), // fill/f0: refused
            Op::Insert(9, 1),  // build/Makefile, over the image's
            Op::Copy(0, 10),   // cp -r /src /build/x/y: refused
            Op::Walk(0),
        ];
        check(&filled(image.clone(), &volume, Fill::Entries), &volume, &ops).unwrap();
        let mut layers = Layers::new(&filled(image.clone(), &volume, Fill::Entries));
        layers.mount("/src", &volume).unwrap();
        assert_eq!(layers.len(), MAX_ENTRIES - 1);
        layers.insert(Resolved::Root("src/main.cu"), data(2)).unwrap();
        layers.insert(Resolved::Root("data/test10.hdf5"), data(2)).unwrap();
        assert_eq!(layers.len(), MAX_ENTRIES - 1);
        layers.insert(Resolved::Work("x"), data(2)).unwrap();
        assert_eq!(layers.insert(Resolved::Root("x"), data(2)), Err(TreeError::NoSpace));
        assert_eq!(layers.len(), MAX_ENTRIES);
        // At the byte bound: overwriting with as many bytes fits, with
        // one more does not.
        check(&filled(image, &volume, Fill::Bytes(0)), &volume, &ops).unwrap();
    }
}
