//! Filesystem layers.
//!
//! A layer is an ordered set of file entries (path → bytes, plus whiteouts for deletions),
//! serialised into a deterministic archive so that identical content always produces the
//! same digest. This mirrors how OCI layers are tar archives addressed by the digest of
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
//! (`Layer::entries_mut`) that copies the layer if it is shared and drops the memo —
//! the "invalidation by construction" rule of `xaas_xir::memo::DigestCell`. For every
//! value of the type, `sealed() == (to_archive(), Digest::of_bytes(&to_archive()))`.

use crate::blob::Blob;
use crate::digest::Digest;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Kind of a single entry inside a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerEntry {
    /// A regular file with content.
    File {
        /// File payload, shared with its producer (a cache artifact, a store blob).
        content: Blob,
        /// Unix-style permission bits (only the executable bit matters for the model).
        mode: u32,
    },
    /// A directory marker.
    Directory,
    /// A symbolic link to another path inside the image.
    Symlink {
        /// Link target.
        target: String,
    },
    /// A whiteout: deletes the path from lower layers when the image is flattened.
    Whiteout,
}

impl LayerEntry {
    /// Size in bytes accounted for this entry.
    pub fn size(&self) -> u64 {
        match self {
            LayerEntry::File { content, .. } => content.len() as u64,
            _ => 0,
        }
    }
}

/// A single filesystem layer: a deterministic map from paths to entries.
///
/// Cloning shares the entries and the sealed archive; see the module docs.
#[derive(Clone, Default)]
pub struct Layer {
    inner: Arc<LayerInner>,
}

#[derive(Default)]
struct LayerInner {
    created_by: String,
    entries: BTreeMap<String, LayerEntry>,
    /// The archive and its digest, filled by the first [`Layer::sealed`].
    sealed: OnceLock<(Blob, Digest)>,
}

impl Clone for LayerInner {
    /// Only [`Arc::make_mut`] in [`Layer::entries_mut`] clones the inner value, to
    /// mutate the copy: it starts unsealed.
    fn clone(&self) -> Self {
        Self {
            created_by: self.created_by.clone(),
            entries: self.entries.clone(),
            sealed: OnceLock::new(),
        }
    }
}

impl PartialEq for Layer {
    /// Content only: whether either side is sealed never matters.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.created_by == other.inner.created_by
                && self.inner.entries == other.inner.entries)
    }
}

impl Eq for Layer {}

impl fmt::Debug for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Layer")
            .field("created_by", &self.inner.created_by)
            .field("entries", &self.inner.entries)
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
    pub fn created_by(&self) -> &str {
        &self.inner.created_by
    }

    /// The one entrance every mutator takes: un-share the layer if a clone still
    /// points at it, and drop the sealed archive so it can never describe other
    /// entries than the current ones.
    fn entries_mut(&mut self) -> &mut BTreeMap<String, LayerEntry> {
        let inner = Arc::make_mut(&mut self.inner);
        inner.sealed.take();
        &mut inner.entries
    }

    fn insert(&mut self, path: impl Into<String>, entry: LayerEntry) -> &mut Self {
        self.entries_mut()
            .insert(normalize_path(&path.into()), entry);
        self
    }

    /// Add (or replace) a regular file. Passing a [`Blob`] shares it with the layer.
    pub fn add_file(&mut self, path: impl Into<String>, content: impl Into<Blob>) -> &mut Self {
        self.insert(
            path,
            LayerEntry::File {
                content: content.into(),
                mode: 0o644,
            },
        )
    }

    /// Add (or replace) an executable file.
    pub fn add_executable(
        &mut self,
        path: impl Into<String>,
        content: impl Into<Blob>,
    ) -> &mut Self {
        self.insert(
            path,
            LayerEntry::File {
                content: content.into(),
                mode: 0o755,
            },
        )
    }

    /// Add a text file (convenience wrapper over [`Layer::add_file`]).
    pub fn add_text(&mut self, path: impl Into<String>, content: impl Into<String>) -> &mut Self {
        self.add_file(path, content.into())
    }

    /// Add a directory marker.
    pub fn add_directory(&mut self, path: impl Into<String>) -> &mut Self {
        self.insert(path, LayerEntry::Directory)
    }

    /// Add a symlink.
    pub fn add_symlink(&mut self, path: impl Into<String>, target: impl Into<String>) -> &mut Self {
        self.insert(
            path,
            LayerEntry::Symlink {
                target: target.into(),
            },
        )
    }

    /// Record a whiteout (deletion of a path provided by a lower layer).
    pub fn add_whiteout(&mut self, path: impl Into<String>) -> &mut Self {
        self.insert(path, LayerEntry::Whiteout)
    }

    /// Number of entries in this layer.
    pub fn len(&self) -> usize {
        self.inner.entries.len()
    }

    /// True when the layer carries no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.is_empty()
    }

    /// Total byte size of file contents in this layer.
    pub fn size_bytes(&self) -> u64 {
        self.inner.entries.values().map(LayerEntry::size).sum()
    }

    /// Iterate over `(path, entry)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LayerEntry)> {
        self.inner.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up an entry by path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.inner.entries.get(&normalize_path(path))
    }

    /// Serialise the layer into a deterministic archive byte stream ("tarball" stand-in).
    ///
    /// The format is a simple length-prefixed record stream; determinism comes from the
    /// `BTreeMap` ordering, so `diff_id` is stable for identical content. This always
    /// serialises; [`Layer::sealed`] is the memoised form.
    pub fn to_archive(&self) -> Vec<u8> {
        let inner = &*self.inner;
        let mut out = Vec::with_capacity(64 + self.size_bytes() as usize);
        out.extend_from_slice(MAGIC);
        write_str(&mut out, &inner.created_by);
        out.extend_from_slice(&(inner.entries.len() as u64).to_le_bytes());
        for (path, entry) in &inner.entries {
            write_str(&mut out, path);
            match entry {
                LayerEntry::File { content, mode } => {
                    out.push(0);
                    out.extend_from_slice(&mode.to_le_bytes());
                    out.extend_from_slice(&(content.len() as u64).to_le_bytes());
                    out.extend_from_slice(content);
                }
                LayerEntry::Directory => out.push(1),
                LayerEntry::Symlink { target } => {
                    out.push(2);
                    write_str(&mut out, target);
                }
                LayerEntry::Whiteout => out.push(3),
            }
        }
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

    /// Parse an archive produced by [`Layer::to_archive`]. The result is unsealed.
    pub fn from_archive(bytes: &[u8]) -> Result<Self, LayerError> {
        Ok(Self::parse(bytes)?.0)
    }

    /// Parse a stored archive whose `digest` the caller already knows (a store key, a
    /// manifest descriptor), handing back the layer sealed with exactly that blob and
    /// digest, so committing it again serialises and hashes nothing.
    ///
    /// The memo is seeded only when the parse proves `archive` is byte for byte what
    /// [`Layer::to_archive`] writes for the parsed entries. A readable but
    /// non-canonical archive (paths out of order or repeated, bytes after the last
    /// entry) comes back unsealed and will be re-serialised under its own digest. The
    /// digest/payload correspondence is the caller's contract; debug builds verify it
    /// where the digest is adopted.
    pub fn from_archive_blob(archive: Blob, digest: Digest) -> Result<Self, LayerError> {
        let (layer, canonical) = Self::parse(&archive)?;
        if canonical {
            debug_assert_eq!(
                Digest::of_bytes(&archive),
                digest,
                "from_archive_blob called with a digest that does not match the archive"
            );
            debug_assert_eq!(
                archive,
                layer.to_archive(),
                "canonical archive re-serialises"
            );
            layer
                .inner
                .sealed
                .set((archive, digest))
                .expect("a freshly parsed layer is unsealed");
        }
        Ok(layer)
    }

    /// Decode `bytes`; the flag says whether they are the canonical serialisation of
    /// the decoded layer (paths strictly ascending, nothing trailing).
    fn parse(bytes: &[u8]) -> Result<(Self, bool), LayerError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(MAGIC.len())? != MAGIC {
            return Err(LayerError::BadMagic);
        }
        let created_by = cur.read_str()?;
        let count = cur.read_u64()?;
        let mut entries: BTreeMap<String, LayerEntry> = BTreeMap::new();
        let mut canonical = true;
        for _ in 0..count {
            let path = cur.read_str()?;
            let entry = match cur.read_u8()? {
                0 => {
                    let mode = cur.read_u32()?;
                    let len = cur.read_len()?;
                    LayerEntry::File {
                        content: Blob::copy_from_slice(cur.take(len)?),
                        mode,
                    }
                }
                1 => LayerEntry::Directory,
                2 => LayerEntry::Symlink {
                    target: cur.read_str()?,
                },
                3 => LayerEntry::Whiteout,
                other => return Err(LayerError::BadEntryTag(other)),
            };
            canonical &= entries.keys().next_back().is_none_or(|last| *last < path);
            entries.insert(path, entry);
        }
        canonical &= cur.pos == bytes.len();
        let layer = Layer {
            inner: Arc::new(LayerInner {
                created_by,
                entries,
                sealed: OnceLock::new(),
            }),
        };
        Ok((layer, canonical))
    }
}

const MAGIC: &[u8] = b"XAASLAYER1";

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
/// into the final image root; whiteouts in upper layers remove paths from lower ones.
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
                match entry {
                    LayerEntry::Whiteout => {
                        files.remove(path);
                        // A whiteout on a directory removes everything below it.
                        let prefix = format!("{}/", path);
                        files.retain(|p: &String, _| !p.starts_with(&prefix));
                    }
                    other => {
                        files.insert(path.to_string(), other.clone());
                    }
                }
            }
        }
        RootFs { files }
    }

    /// Look up a path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.files.get(&normalize_path(path))
    }

    /// Read a file as UTF-8 text.
    pub fn read_text(&self, path: &str) -> Option<String> {
        match self.get(path) {
            Some(LayerEntry::File { content, .. }) => String::from_utf8(content.to_vec()).ok(),
            _ => None,
        }
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

/// Normalise a path: leading `/`, no trailing `/`, collapse `//`.
pub fn normalize_path(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        if part.is_empty() || part == "." {
            continue;
        }
        parts.push(part);
    }
    format!("/{}", parts.join("/"))
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes. `n` comes from the archive, so it is compared with what
    /// is left rather than added to the position (which a saturated length overflows).
    fn take(&mut self, n: usize) -> Result<&'a [u8], LayerError> {
        if n > self.bytes.len() - self.pos {
            return Err(LayerError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn read_u8(&mut self) -> Result<u8, LayerError> {
        Ok(self.take(1)?[0])
    }
    fn read_u32(&mut self) -> Result<u32, LayerError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn read_u64(&mut self) -> Result<u64, LayerError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    /// A length field: one that does not fit `usize` cannot be satisfied either.
    fn read_len(&mut self) -> Result<usize, LayerError> {
        usize::try_from(self.read_u64()?).map_err(|_| LayerError::Truncated)
    }
    fn read_str(&mut self) -> Result<String, LayerError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LayerError::BadString)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> Layer {
        let mut l = Layer::new("COPY src /app/src");
        l.add_text("/app/src/main.ck", "kernel main() {}");
        l.add_executable("/usr/bin/xirc", b"\x7fXIR".to_vec());
        l.add_directory("/app/build");
        l.add_symlink("/usr/lib/libfft.so", "/usr/lib/libfft.so.3");
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
    }

    #[test]
    fn rootfs_flatten_applies_overrides_and_whiteouts() {
        let mut base = Layer::new("base");
        base.add_text("/etc/os-release", "ubuntu 22.04");
        base.add_text("/opt/mpi/lib/libmpi.so", "generic mpich");
        base.add_text("/opt/mpi/include/mpi.h", "header");

        let mut upper = Layer::new("hook");
        upper.add_text("/opt/mpi/lib/libmpi.so", "cray mpich");
        upper.add_whiteout("/opt/mpi/include");

        let root = RootFs::flatten([&base, &upper]);
        assert_eq!(
            root.read_text("/opt/mpi/lib/libmpi.so").unwrap(),
            "cray mpich"
        );
        assert!(root.get("/opt/mpi/include/mpi.h").is_none());
        assert_eq!(root.read_text("/etc/os-release").unwrap(), "ubuntu 22.04");
    }

    #[test]
    fn rootfs_paths_under_prefix() {
        let root = RootFs::flatten([&sample_layer()]);
        let under: Vec<_> = root.paths_under("/app").collect();
        assert!(under.contains(&"/app/src/main.ck"));
        assert!(under.contains(&"/app/build"));
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
            let tag = archive[pos];
            pos += 1;
            match tag {
                0 => {
                    pos += 4; // mode
                    string(&mut pos, &mut offsets); // content
                }
                2 => string(&mut pos, &mut offsets), // symlink target
                _ => {}
            }
        }
        assert_eq!(pos, archive.len(), "walked the whole archive");
        offsets
    }

    #[test]
    fn saturated_length_fields_are_truncated_not_a_panic() {
        let archive = sample_layer().to_archive();
        let offsets = length_field_offsets(&archive);
        // created_by, the count, four paths, two file contents, one symlink target.
        assert_eq!(offsets.len(), 9);
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
        assert_eq!(layer.size_bytes(), "kernel main() {}".len() as u64 + 4);
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
        let mutators: [fn(&mut Layer); 6] = [
            |l| {
                l.add_file("/new", b"x".to_vec());
            },
            |l| {
                l.add_executable("/new", b"x".to_vec());
            },
            |l| {
                l.add_text("/new", "x");
            },
            |l| {
                l.add_directory("/new");
            },
            |l| {
                l.add_symlink("/new", "/app");
            },
            |l| {
                l.add_whiteout("/new");
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
        let mut out = MAGIC.to_vec();
        write_str(&mut out, "raw");
        out.extend_from_slice(&(files.len() as u64).to_le_bytes());
        for (path, content) in files {
            write_str(&mut out, path);
            out.push(0);
            out.extend_from_slice(&0o644u32.to_le_bytes());
            out.extend_from_slice(&(content.len() as u64).to_le_bytes());
            out.extend_from_slice(content);
        }
        out.extend_from_slice(trailing);
        out
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
