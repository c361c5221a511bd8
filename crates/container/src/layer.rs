//! Filesystem layers.
//!
//! A layer is an ordered set of file entries (path → bytes), serialised into a
//! deterministic archive so that identical content always produces the same digest.
//! This mirrors how OCI layers are tar archives addressed by the digest of
//! their bytes, which is the property the XaaS pipeline relies on when it reuses layers
//! between configurations (dependency layers, toolchain layers, IR layers).
//!
//! # Layers seal once and are shared
//!
//! A [`Layer`] is a handle: cloning it (or an [`Image`](crate::image::Image) that holds
//! it) bumps a reference count, and file contents are [`Blob`]s shared with whoever
//! produced them. The archive and its digest are memoised on first use
//! ([`Layer::sealed`]) and travel with every clone, so an inherited layer is serialised
//! and hashed once however many images are derived from it.
//!
//! The memo cannot go stale: every mutator goes through one private entrance
//! (`Layer::entries_mut`) that copies the layer if it is shared and drops the memo.
//! For every value of the type, `sealed() == (to_archive(), Digest::of_bytes(&to_archive()))`.
//!
//! # A layer read from its archive decodes lazily
//!
//! [`Layer::from_archive_blob`] validates a stored archive in one pass that
//! allocates nothing and, when the bytes are canonical, hands back a layer sealed
//! with that very blob whose entries are decoded by the first read of them
//! ([`Layer::iter`], [`Layer::get`]). [`Layer::len`], [`Layer::is_empty`],
//! [`Layer::sealed`] and [`Layer::to_archive`] read the archive itself, so
//! committing such a layer decodes nothing.

use crate::blob::Blob;
use crate::digest::Digest;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A single entry inside a layer: a regular file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEntry {
    /// File payload, shared with its producer (a cache artifact, a store blob).
    pub content: Blob,
    /// Unix-style permission bits (only the executable bit matters for the model).
    pub mode: u32,
}

impl LayerEntry {
    /// Size in bytes accounted for this entry.
    pub fn size(&self) -> u64 {
        self.content.len() as u64
    }
}

/// A single filesystem layer: a deterministic map from paths to entries.
///
/// Cloning shares the entries and the sealed archive; see the module docs.
#[derive(Clone, Default)]
pub struct Layer {
    inner: Arc<LayerInner>,
}

struct LayerInner {
    /// The history note; empty for a layer read from its archive, which holds it.
    created_by: String,
    /// The entries: set when the layer is built, and decoded from the sealed
    /// archive by the first read for a layer read from one.
    entries: OnceLock<BTreeMap<String, LayerEntry>>,
    /// For a layer read from its archive, the entry count the archive declares:
    /// the archive is canonical, so it names that many distinct paths.
    archived: Option<usize>,
    /// The archive and its digest, filled by the first [`Layer::sealed`].
    sealed: OnceLock<(Blob, Digest)>,
}

impl Default for LayerInner {
    fn default() -> Self {
        Self {
            created_by: String::new(),
            entries: OnceLock::from(BTreeMap::new()),
            archived: None,
            sealed: OnceLock::new(),
        }
    }
}

impl Clone for LayerInner {
    /// Only [`Arc::make_mut`] in [`Layer::entries_mut`] clones the inner value, to
    /// mutate the copy: it starts unsealed, so it owns its note and entries.
    fn clone(&self) -> Self {
        Self {
            created_by: self.created_by().to_string(),
            entries: OnceLock::from(self.entries().clone()),
            archived: None,
            sealed: OnceLock::new(),
        }
    }
}

impl LayerInner {
    /// The sealed archive of a layer read from one.
    fn archive(&self) -> Option<&Blob> {
        self.archived?;
        self.sealed.get().map(|(archive, _)| archive)
    }

    fn created_by(&self) -> &str {
        match self.archive() {
            Some(archive) => Cursor::new(archive).header().map_or("", |(note, _)| note),
            None => &self.created_by,
        }
    }

    /// The entries, decoding the archive of a layer read from one at first use.
    /// The archive was validated when it was adopted, so the decode cannot fail.
    fn entries(&self) -> &BTreeMap<String, LayerEntry> {
        self.entries.get_or_init(|| {
            let mut entries = BTreeMap::new();
            if let Some(archive) = self.archive() {
                let _ = walk(archive, |path, mode, content| {
                    let content = Blob::copy_from_slice(content);
                    entries.insert(path.to_string(), LayerEntry { content, mode });
                });
            }
            entries
        })
    }
}

impl PartialEq for Layer {
    /// Content only: whether either side is sealed or decoded never matters.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.created_by() == other.created_by()
                && self.inner.entries() == other.inner.entries())
    }
}

impl Eq for Layer {}

impl fmt::Debug for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Layer")
            .field("created_by", &self.created_by())
            .field("entries", self.inner.entries())
            .finish()
    }
}

impl Layer {
    /// Create an empty layer with a `created_by` history note.
    pub fn new(created_by: impl Into<String>) -> Self {
        Self {
            inner: Arc::new(LayerInner {
                created_by: created_by.into(),
                ..LayerInner::default()
            }),
        }
    }

    /// Human-readable description, recorded in the image history.
    pub(crate) fn created_by(&self) -> &str {
        self.inner.created_by()
    }

    /// The one entrance every mutator takes: un-share the layer if a clone still
    /// points at it, and drop the sealed archive so it can never describe other
    /// entries than the current ones. A layer read from its archive decodes it
    /// and takes its note out of it first.
    fn entries_mut(&mut self) -> &mut BTreeMap<String, LayerEntry> {
        if self.inner.archived.is_some() {
            self.inner = Arc::new(LayerInner::clone(&self.inner));
        }
        let inner = Arc::make_mut(&mut self.inner);
        inner.sealed.take();
        inner.entries.get_or_init(BTreeMap::new);
        inner
            .entries
            .get_mut()
            .expect("a layer owning its entries has them set")
    }

    fn insert(&mut self, path: impl Into<String>, content: Blob, mode: u32) -> &mut Self {
        let path = path.into();
        let path = match normalize_path(&path) {
            Cow::Borrowed(_) => path,
            Cow::Owned(normal) => normal,
        };
        self.entries_mut()
            .insert(path, LayerEntry { content, mode });
        self
    }

    /// Add (or replace) a regular file. Passing a [`Blob`] shares it with the layer.
    pub fn add_file(&mut self, path: impl Into<String>, content: impl Into<Blob>) -> &mut Self {
        self.insert(path, content.into(), 0o644)
    }

    /// Add (or replace) an executable file.
    pub fn add_executable(
        &mut self,
        path: impl Into<String>,
        content: impl Into<Blob>,
    ) -> &mut Self {
        self.insert(path, content.into(), 0o755)
    }

    /// Add a text file (convenience wrapper over [`Layer::add_file`]).
    pub fn add_text(&mut self, path: impl Into<String>, content: impl Into<String>) -> &mut Self {
        self.add_file(path, content.into())
    }

    /// Number of entries in this layer (read from the archive's header, for a
    /// layer read from one).
    pub fn len(&self) -> usize {
        match self.inner.archived {
            Some(count) => count,
            None => self.inner.entries().len(),
        }
    }

    /// True when the layer carries no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the entries are in memory: always for a built layer, and for a
    /// layer read from its archive once something read an entry.
    pub fn is_decoded(&self) -> bool {
        self.inner.entries.get().is_some()
    }

    /// Total byte size of file contents in this layer.
    pub fn size_bytes(&self) -> u64 {
        self.inner.entries().values().map(LayerEntry::size).sum()
    }

    /// Iterate over `(path, entry)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LayerEntry)> {
        self.inner.entries().iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up an entry by path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.inner.entries().get(&*normalize_path(path))
    }

    /// Serialise the layer into a deterministic archive byte stream ("tarball" stand-in).
    ///
    /// The format is a simple length-prefixed record stream; determinism comes from the
    /// `BTreeMap` ordering, so `diff_id` is stable for identical content. This always
    /// serialises; [`Layer::sealed`] is the memoised form.
    ///
    /// The buffer is allocated once, at the archive's exact length, so it enters a
    /// [`Blob`] without growing or carrying spare capacity.
    /// A layer read from its archive is canonical, so it copies that archive and
    /// decodes nothing.
    pub fn to_archive(&self) -> Vec<u8> {
        if let Some(archive) = self.inner.archive() {
            return archive.to_vec();
        }
        let (created_by, entries) = (self.created_by(), self.inner.entries());
        let entry_bytes: usize = entries
            .iter()
            .map(|(path, entry)| ENTRY_HEADER + path.len() + entry.content.len())
            .sum();
        let len = MAGIC.len() + 8 + created_by.len() + 8 + entry_bytes;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MAGIC);
        write_str(&mut out, created_by);
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (path, LayerEntry { content, mode }) in entries {
            write_str(&mut out, path);
            out.push(FILE_TAG);
            out.extend_from_slice(&mode.to_le_bytes());
            out.extend_from_slice(&(content.len() as u64).to_le_bytes());
            out.extend_from_slice(content);
        }
        debug_assert_eq!(out.len(), len, "to_archive's length formula is stale");
        out
    }

    /// The layer's archive and the digest of it, serialised and hashed by the first
    /// call on this layer or any clone of it and shared afterwards.
    pub fn sealed(&self) -> (&Blob, &Digest) {
        self.seal().0
    }

    /// [`Layer::sealed`], also reporting whether *this* call serialised and hashed.
    /// The flag is set inside the memo's initialiser, which runs once however many
    /// threads race here, so a caller that books the hash books it exactly once.
    pub(crate) fn seal(&self) -> ((&Blob, &Digest), bool) {
        let mut sealed_now = false;
        let (archive, digest) = self.inner.sealed.get_or_init(|| {
            sealed_now = true;
            let archive = Blob::new(self.to_archive());
            let digest = Digest::of_bytes(&archive);
            (archive, digest)
        });
        ((archive, digest), sealed_now)
    }

    /// Whether the archive and digest are already memoised.
    pub fn is_sealed(&self) -> bool {
        self.inner.sealed.get().is_some()
    }

    /// The diff ID: digest of the uncompressed archive (as in OCI image config
    /// `rootfs.diff_ids`). Memoised with the archive.
    pub fn diff_id(&self) -> Digest {
        self.sealed().1.clone()
    }

    /// Parse an archive produced by [`Layer::to_archive`], decoding every entry.
    /// The result is unsealed.
    pub fn from_archive(bytes: &[u8]) -> Result<Self, LayerError> {
        let mut entries = BTreeMap::new();
        let walked = walk(bytes, |path, mode, content| {
            let content = Blob::copy_from_slice(content);
            entries.insert(path.to_string(), LayerEntry { content, mode });
        })?;
        Ok(Layer {
            inner: Arc::new(LayerInner {
                created_by: walked.created_by.to_string(),
                entries: OnceLock::from(entries),
                archived: None,
                sealed: OnceLock::new(),
            }),
        })
    }

    /// Adopt a stored archive whose `digest` the caller already knows (a store key,
    /// a manifest descriptor, an action cache entry), so committing it again
    /// serialises and hashes nothing.
    ///
    /// The archive is validated in one pass that allocates nothing. When it is
    /// byte for byte what [`Layer::to_archive`] writes for its entries (paths
    /// strictly ascending, nothing trailing), the layer comes back sealed with
    /// exactly that blob and digest, and its entries are decoded by the first read
    /// of them. A readable but non-canonical archive is decoded now and comes back
    /// unsealed, to be re-serialised under its own digest. An archive
    /// [`Layer::from_archive`] refuses is refused with the same error. The
    /// digest/payload correspondence is the caller's contract; debug builds verify
    /// it where the digest is adopted.
    pub fn from_archive_blob(archive: Blob, digest: Digest) -> Result<Self, LayerError> {
        let walked = walk(&archive, |_, _, _| {})?;
        if !walked.canonical {
            return Self::from_archive(&archive);
        }
        debug_assert_eq!(
            Digest::of_bytes(&archive),
            digest,
            "from_archive_blob called with a digest that does not match the archive"
        );
        Ok(Layer {
            inner: Arc::new(LayerInner {
                created_by: String::new(),
                entries: OnceLock::new(),
                archived: Some(walked.count),
                sealed: OnceLock::from((archive, digest)),
            }),
        })
    }
}

/// What one [`walk`] over an archive found besides its entries.
struct Walked<'a> {
    created_by: &'a str,
    /// Entries read (every one the header declares).
    count: usize,
    /// Whether the bytes are the canonical serialisation of the entries read: paths
    /// strictly ascending, nothing trailing.
    canonical: bool,
}

/// Read an archive front to back, handing each entry's path, mode and content to
/// `visit` as borrowed slices. The walk allocates nothing; the first malformed
/// field ends it with its error.
#[deny(clippy::indexing_slicing, clippy::unwrap_used)]
fn walk<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(&'a str, u32, &'a [u8]),
) -> Result<Walked<'a>, LayerError> {
    let mut cur = Cursor::new(bytes);
    let (created_by, count) = cur.header()?;
    let mut canonical = true;
    let mut last: Option<&str> = None;
    let mut read = 0usize;
    while (read as u64) < count {
        let path = cur.read_str()?;
        let tag = cur.read_u8()?;
        if tag != FILE_TAG {
            return Err(LayerError::BadEntryTag(tag));
        }
        let mode = cur.read_u32()?;
        let len = cur.read_len()?;
        let content = cur.take(len)?;
        canonical &= last.is_none_or(|last| last < path);
        last = Some(path);
        visit(path, mode, content);
        read += 1;
    }
    canonical &= cur.rest.is_empty();
    Ok(Walked {
        created_by,
        count: read,
        canonical,
    })
}

const MAGIC: &[u8] = b"XAASLAYER1";
/// The tag byte before every entry. Only regular files exist, so any other tag is
/// [`LayerError::BadEntryTag`].
const FILE_TAG: u8 = 0;
/// An entry's fixed bytes: path length (8), tag (1), mode (4), content length (8).
const ENTRY_HEADER: usize = 8 + 1 + 4 + 8;

/// Errors while decoding layer archives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerError {
    /// Archive magic did not match.
    BadMagic,
    /// Unexpected end of archive.
    Truncated,
    /// Unknown entry tag byte.
    BadEntryTag(u8),
    /// Embedded string was not UTF-8.
    BadString,
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerError::BadMagic => write!(f, "layer archive has an invalid magic header"),
            LayerError::Truncated => write!(f, "layer archive is truncated"),
            LayerError::BadEntryTag(t) => write!(f, "unknown layer entry tag {t}"),
            LayerError::BadString => write!(f, "layer archive contains a non-UTF-8 string"),
        }
    }
}

impl std::error::Error for LayerError {}

/// A flattened root filesystem assembled from an ordered list of layers.
///
/// The XaaS deployment step flattens the source/IR container plus the newly built layers
/// into the final image root; a path in an upper layer replaces the same path below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootFs {
    files: BTreeMap<String, LayerEntry>,
}

impl RootFs {
    /// Flatten layers bottom-to-top.
    pub fn flatten<'a>(layers: impl IntoIterator<Item = &'a Layer>) -> Self {
        let mut files = BTreeMap::new();
        for layer in layers {
            for (path, entry) in layer.iter() {
                files.insert(path.to_string(), entry.clone());
            }
        }
        RootFs { files }
    }

    /// Look up a path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.files.get(&*normalize_path(path))
    }

    /// Read a file as UTF-8 text.
    pub fn read_text(&self, path: &str) -> Option<String> {
        String::from_utf8(self.get(path)?.content.to_vec()).ok()
    }

    /// All paths currently present.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Paths under a given directory prefix.
    pub fn paths_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let norm = normalize_path(prefix);
        let below = format!("{norm}/");
        self.files
            .keys()
            .filter(move |p| **p == norm || p.starts_with(&below))
            .map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the root filesystem holds no entries.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total content size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.files.values().map(LayerEntry::size).sum()
    }
}

/// Normalise a path: leading `/`, no trailing `/`, collapse `//`, drop `.`
/// components. An already-normal path (every path a build or deployment adds) comes
/// back borrowed; any other is rebuilt in one allocation.
pub(crate) fn normalize_path(path: &str) -> Cow<'_, str> {
    let kept = |part: &str| !part.is_empty() && part != ".";
    let normal = path
        .strip_prefix('/')
        .is_some_and(|rest| rest.split('/').all(kept));
    if normal {
        return Cow::Borrowed(path);
    }
    let mut out = String::with_capacity(path.len() + 1);
    for part in path.split('/').filter(|part| kept(part)) {
        out.push('/');
        out.push_str(part);
    }
    if out.is_empty() {
        out.push('/');
    }
    Cow::Owned(out)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads an archive front to back. Every read goes through a checked split, so
/// no length the archive declares can index past its end.
struct Cursor<'a> {
    rest: &'a [u8],
}

#[deny(clippy::indexing_slicing, clippy::unwrap_used)]
impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }
    /// The magic, the history note and the declared entry count.
    fn header(&mut self) -> Result<(&'a str, u64), LayerError> {
        if self.take(MAGIC.len())? != MAGIC {
            return Err(LayerError::BadMagic);
        }
        let created_by = self.read_str()?;
        Ok((created_by, self.read_u64()?))
    }
    /// The next `n` bytes; `n` comes from the archive, so it may be anything.
    fn take(&mut self, n: usize) -> Result<&'a [u8], LayerError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(LayerError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }
    /// The next `N` bytes, by value.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], LayerError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(LayerError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }
    fn read_u8(&mut self) -> Result<u8, LayerError> {
        let [byte] = self.take_array()?;
        Ok(byte)
    }
    fn read_u32(&mut self) -> Result<u32, LayerError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    fn read_u64(&mut self) -> Result<u64, LayerError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    /// A length field: one that does not fit `usize` cannot be satisfied either.
    fn read_len(&mut self) -> Result<usize, LayerError> {
        usize::try_from(self.read_u64()?).map_err(|_| LayerError::Truncated)
    }
    fn read_str(&mut self) -> Result<&'a str, LayerError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| LayerError::BadString)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> Layer {
        let mut l = Layer::new("COPY src /app/src");
        l.add_text("/app/src/main.ck", "kernel main() {}");
        l.add_executable("/usr/bin/xirc", b"\x7fXIR".to_vec());
        l.add_text("/app/build/flags.txt", "-O3");
        l.add_file("/usr/lib/libfft.so.3", b"fft".to_vec());
        l
    }

    #[test]
    fn archive_roundtrip_preserves_layer() {
        let layer = sample_layer();
        let archive = layer.to_archive();
        let back = Layer::from_archive(&archive).unwrap();
        assert_eq!(back, layer);
    }

    #[test]
    fn diff_id_is_deterministic_and_content_sensitive() {
        let a = sample_layer();
        let b = sample_layer();
        assert_eq!(a.diff_id(), b.diff_id());
        let mut c = sample_layer();
        c.add_text("/extra", "x");
        assert_ne!(a.diff_id(), c.diff_id());
    }

    #[test]
    fn diff_id_independent_of_insertion_order() {
        let mut a = Layer::new("x");
        a.add_text("/a", "1").add_text("/b", "2");
        let mut b = Layer::new("x");
        b.add_text("/b", "2").add_text("/a", "1");
        assert_eq!(a.diff_id(), b.diff_id());
    }

    #[test]
    fn normalize_path_collapses_components() {
        assert_eq!(normalize_path("app//src/./x"), "/app/src/x");
        assert_eq!(normalize_path("/app/src/"), "/app/src");
        assert_eq!(normalize_path(""), "/");
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path("/a/../b"), "/a/../b");
        // What a deployment's Link adds is already normal and comes back as it was,
        // borrowed: a layer keeps the caller's own `String`.
        for normal in [
            "/xaas/obj/gromacs_nonbonded_avx_512.o",
            "/opt/app/bin/gmx",
            "/opt/deps/fftw/.provenance",
            "/.hidden/..x",
        ] {
            assert!(
                matches!(normalize_path(normal), Cow::Borrowed(p) if p == normal),
                "{normal} was rebuilt"
            );
        }
        assert!(matches!(normalize_path("/opt//app"), Cow::Owned(_)));
    }

    #[test]
    fn to_archive_is_written_at_its_exact_length() {
        let mut layer = Layer::new("RUN make install");
        layer.add_text("/opt/app/bin/gmx", "binary");
        layer.add_executable("/opt/app/lib/libgromacs.so", Blob::new(vec![7; 300]));
        layer.add_text("/etc/empty", "");
        for layer in [layer, Layer::new("")] {
            let archive = layer.to_archive();
            assert_eq!(archive.capacity(), archive.len());
            assert_eq!(Layer::from_archive(&archive).unwrap(), layer);
        }
    }

    #[test]
    fn rootfs_flatten_applies_overrides() {
        let mut base = Layer::new("base");
        base.add_text("/etc/os-release", "ubuntu 22.04");
        base.add_text("/opt/mpi/lib/libmpi.so", "generic mpich");

        let mut upper = Layer::new("hook");
        upper.add_text("/opt/mpi/lib/libmpi.so", "cray mpich");
        upper.add_text("/opt/mpi/include/mpi.h", "header");

        let root = RootFs::flatten([&base, &upper]);
        assert_eq!(
            root.read_text("/opt/mpi/lib/libmpi.so").unwrap(),
            "cray mpich"
        );
        assert_eq!(root.read_text("/opt/mpi/include/mpi.h").unwrap(), "header");
        assert_eq!(root.read_text("/etc/os-release").unwrap(), "ubuntu 22.04");
        assert_eq!(root.len(), 3);
    }

    #[test]
    fn rootfs_paths_under_prefix() {
        let root = RootFs::flatten([&sample_layer()]);
        let under: Vec<_> = root.paths_under("/app").collect();
        assert!(under.contains(&"/app/src/main.ck"));
        assert!(under.contains(&"/app/build/flags.txt"));
        assert!(!under.contains(&"/usr/bin/xirc"));
    }

    #[test]
    fn truncated_archive_is_rejected() {
        let archive = sample_layer().to_archive();
        let err = Layer::from_archive(&archive[..archive.len() - 3]).unwrap_err();
        assert_eq!(err, LayerError::Truncated);
        assert_eq!(
            Layer::from_archive(b"NOTALAYERX"),
            Err(LayerError::BadMagic)
        );
    }

    /// Offsets of every 8-byte length or count field of a well-formed archive, found
    /// by walking the format independently of `Cursor`.
    fn length_field_offsets(archive: &[u8]) -> Vec<usize> {
        let u64_at =
            |at: usize| u64::from_le_bytes(archive[at..at + 8].try_into().unwrap()) as usize;
        let mut offsets = Vec::new();
        let mut pos = MAGIC.len();
        let string = |pos: &mut usize, offsets: &mut Vec<usize>| {
            offsets.push(*pos);
            *pos += 8 + u64_at(*pos);
        };
        string(&mut pos, &mut offsets); // created_by
        offsets.push(pos);
        let count = u64_at(pos);
        pos += 8;
        for _ in 0..count {
            string(&mut pos, &mut offsets); // path
            pos += 1 + 4; // tag, mode
            string(&mut pos, &mut offsets); // content
        }
        assert_eq!(pos, archive.len(), "walked the whole archive");
        offsets
    }

    #[test]
    fn saturated_length_fields_are_truncated_not_a_panic() {
        let archive = sample_layer().to_archive();
        let offsets = length_field_offsets(&archive);
        // created_by, the count, four paths, four file contents.
        assert_eq!(offsets.len(), 10);
        for offset in offsets {
            let remaining = (archive.len() - offset - 8) as u64;
            for value in [u64::MAX, u64::MAX - offset as u64, remaining + 1] {
                let mut corrupt = archive.clone();
                corrupt[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
                assert_eq!(
                    Layer::from_archive(&corrupt),
                    Err(LayerError::Truncated),
                    "length field at {offset} set to {value:#x}"
                );
            }
        }
    }

    #[test]
    fn layer_size_accounting() {
        let layer = sample_layer();
        assert_eq!(layer.len(), 4);
        assert_eq!(
            layer.size_bytes(),
            "kernel main() {}".len() as u64 + 4 + 3 + 3
        );
        assert!(!layer.is_empty());
    }

    fn from_scratch(layer: &Layer) -> (Vec<u8>, Digest) {
        let archive = layer.to_archive();
        let digest = Digest::of_bytes(&archive);
        (archive, digest)
    }

    #[test]
    fn sealing_memoises_and_clones_share_the_memo() {
        let layer = sample_layer();
        assert!(!layer.is_sealed());
        let clone = layer.clone();
        let (archive, digest) = layer.sealed();
        assert_eq!((archive.to_vec(), digest.clone()), from_scratch(&layer));
        assert!(
            clone.is_sealed(),
            "a clone taken before sealing shares the memo"
        );
        assert!(Blob::ptr_eq(archive, clone.sealed().0));
        assert!(
            Blob::ptr_eq(archive, layer.sealed().0),
            "second call serialises nothing"
        );
        assert_eq!(layer.diff_id(), *digest);
        let ((_, _), sealed_now) = layer.seal();
        assert!(
            !sealed_now,
            "only the call that ran the initialiser reports it"
        );
    }

    #[test]
    fn every_mutator_drops_the_memo_and_never_touches_a_clone() {
        let mutators: [fn(&mut Layer); 3] = [
            |l| {
                l.add_file("/new", b"x".to_vec());
            },
            |l| {
                l.add_executable("/new", b"x".to_vec());
            },
            |l| {
                l.add_text("/new", "x");
            },
        ];
        for mutate in mutators {
            // Shared: the mutated clone is copied out from under the original.
            let original = sample_layer();
            let before = from_scratch(&original);
            original.sealed();
            let mut clone = original.clone();
            mutate(&mut clone);
            assert!(!clone.is_sealed());
            assert!(original.is_sealed());
            assert!(original.get("/new").is_none());
            assert_eq!(from_scratch(&original), before);
            assert_ne!(clone.sealed().1, original.sealed().1);
            assert_eq!(
                (clone.sealed().0.to_vec(), clone.sealed().1.clone()),
                from_scratch(&clone)
            );
            // Unique: mutated in place, the stale memo is gone.
            let mut unique = sample_layer();
            let stale = unique.diff_id();
            mutate(&mut unique);
            assert!(!unique.is_sealed());
            assert_ne!(unique.diff_id(), stale);
            assert_eq!(unique.diff_id(), from_scratch(&unique).1);
        }
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let sealed = sample_layer();
        sealed.sealed();
        let unsealed = sample_layer();
        assert_eq!(sealed, unsealed);
        assert_eq!(format!("{sealed:?}"), format!("{unsealed:?}"));
        assert_eq!(sealed.created_by(), "COPY src /app/src");
    }

    /// A hand-written archive of regular files, in exactly the order given.
    fn raw_archive(files: &[(&str, &[u8])], trailing: &[u8]) -> Vec<u8> {
        tagged_archive(FILE_TAG, files, trailing)
    }

    /// [`raw_archive`] with every entry carrying `tag`.
    fn tagged_archive(tag: u8, files: &[(&str, &[u8])], trailing: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        write_str(&mut out, "raw");
        out.extend_from_slice(&(files.len() as u64).to_le_bytes());
        for (path, content) in files {
            write_str(&mut out, path);
            out.push(tag);
            out.extend_from_slice(&0o644u32.to_le_bytes());
            out.extend_from_slice(&(content.len() as u64).to_le_bytes());
            out.extend_from_slice(content);
        }
        out.extend_from_slice(trailing);
        out
    }

    #[test]
    fn an_entry_tag_other_than_a_file_is_rejected() {
        // Tags 1, 2 and 3 once meant a directory, a symlink and a whiteout.
        for tag in [1, 2, 3, u8::MAX] {
            let archive = tagged_archive(tag, &[("/a", b"1")], b"");
            assert_eq!(
                Layer::from_archive(&archive),
                Err(LayerError::BadEntryTag(tag))
            );
            let blob = Blob::new(archive);
            let digest = Digest::of_bytes(&blob);
            assert_eq!(
                Layer::from_archive_blob(blob, digest),
                Err(LayerError::BadEntryTag(tag))
            );
        }
    }

    #[test]
    fn a_canonical_archive_blob_comes_back_sealed_with_that_blob() {
        let archive = Blob::new(raw_archive(&[("/a", b"1"), ("/b", b"2")], b""));
        let digest = Digest::of_bytes(&archive);
        let layer = Layer::from_archive_blob(archive.clone(), digest.clone()).unwrap();
        assert!(layer.is_sealed());
        assert!(Blob::ptr_eq(layer.sealed().0, &archive));
        assert_eq!(layer.sealed().1, &digest);
        assert_eq!(layer.to_archive(), archive.to_vec());
    }

    /// A layer adopted from a canonical archive reads its count, note and archive
    /// without decoding; the first entry read decodes, and a mutation decodes,
    /// takes the note out of the archive and drops the memo, leaving clones alone.
    #[test]
    fn an_adopted_archive_decodes_on_first_read_and_mutates_like_a_built_layer() {
        let built = sample_layer();
        let archive = Blob::new(built.to_archive());
        let digest = Digest::of_bytes(&archive);
        let adopted = Layer::from_archive_blob(archive.clone(), digest.clone()).unwrap();
        assert!(!adopted.is_decoded());
        assert_eq!((adopted.len(), adopted.is_empty()), (4, false));
        assert_eq!(adopted.created_by(), "COPY src /app/src");
        assert_eq!(adopted.to_archive(), archive.to_vec());
        assert!(Blob::ptr_eq(adopted.sealed().0, &archive));
        assert!(!adopted.is_decoded(), "nothing above read an entry");

        let clone = adopted.clone();
        assert_eq!(adopted.get("/usr/bin/xirc").unwrap().mode, 0o755);
        assert!(
            adopted.is_decoded() && clone.is_decoded(),
            "clones share the decode"
        );
        assert_eq!(adopted, built);

        let mut mutated = Layer::from_archive_blob(archive.clone(), digest.clone()).unwrap();
        let untouched = mutated.clone();
        mutated.add_text("/new", "x");
        assert_eq!(mutated.created_by(), "COPY src /app/src");
        assert_eq!(mutated.len(), 5);
        assert!(!mutated.is_sealed());
        assert_eq!(mutated.sealed().1, &from_scratch(&mutated).1);
        assert!(untouched.is_sealed(), "the clone keeps its archive");
        assert_eq!(untouched.sealed().1, &digest);
        assert_eq!(untouched, built);
    }

    #[test]
    fn a_non_canonical_archive_never_seeds_the_memo() {
        let cases: [(&str, Vec<u8>); 3] = [
            (
                "duplicate path",
                raw_archive(&[("/a", b"1"), ("/a", b"2")], b""),
            ),
            (
                "descending paths",
                raw_archive(&[("/b", b"2"), ("/a", b"1")], b""),
            ),
            (
                "trailing bytes",
                raw_archive(&[("/a", b"1"), ("/b", b"2")], b"junk"),
            ),
        ];
        for (what, bytes) in cases {
            let archive = Blob::new(bytes);
            let digest = Digest::of_bytes(&archive);
            let layer = Layer::from_archive_blob(archive.clone(), digest.clone()).unwrap();
            assert!(!layer.is_sealed(), "{what}");
            assert_eq!(layer, Layer::from_archive(&archive).unwrap(), "{what}");
            let (resealed, own_digest) = layer.sealed();
            assert_ne!(own_digest, &digest, "{what}");
            assert_eq!(
                (resealed.to_vec(), own_digest.clone()),
                from_scratch(&layer),
                "{what}"
            );
        }
    }
}
