//! Container images: config, manifest, image index, and an in-memory blob store.
//!
//! An [`Image`] owns its layers and metadata; [`ImageStore`] is the content-addressed
//! store images are committed to. Committing produces the OCI-style manifest chain
//! (config blob + layer blobs + manifest blob), whose digests are the immutable identity
//! the paper discusses when it points out that deployment-time rebuilds necessarily
//! produce a *new* image with a new digest (Section 5.2).

use crate::blob::Blob;
use crate::digest::Digest;
use crate::layer::{Layer, RootFs};
use crate::oci::{
    annotation_keys, Architecture, DeploymentFormat, Descriptor, MediaType, Platform,
};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Runtime configuration recorded in the image config blob.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageRuntimeConfig {
    /// Environment variables (`KEY=VALUE`).
    pub env: Vec<String>,
    /// Default entrypoint command.
    pub entrypoint: Vec<String>,
    /// Default working directory.
    pub working_dir: Option<String>,
    /// Labels (image-level annotations stored in the config).
    pub labels: BTreeMap<String, String>,
}

/// One history record per layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Build step that created the layer (e.g. a Dockerfile-like instruction).
    pub created_by: String,
    /// True for metadata-only steps that produced no layer.
    pub empty_layer: bool,
}

/// The image configuration blob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageConfig {
    /// Target platform of the image.
    pub platform: Platform,
    /// Runtime configuration.
    pub config: ImageRuntimeConfig,
    /// Diff IDs of the layers, bottom to top.
    pub rootfs_diff_ids: Vec<Digest>,
    /// History of build steps.
    pub history: Vec<HistoryEntry>,
}

/// An image manifest: config descriptor + ordered layer descriptors + annotations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Always [`MediaType::ImageManifest`].
    pub media_type: MediaType,
    /// Descriptor of the config blob.
    pub config: Descriptor,
    /// Descriptors of the layer blobs, bottom to top.
    pub layers: Vec<Descriptor>,
    /// Manifest annotations; XaaS stores specialization points here.
    pub annotations: BTreeMap<String, String>,
}

/// A multi-platform image index (a "fat manifest").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageIndex {
    /// Always [`MediaType::ImageIndex`].
    pub media_type: MediaType,
    /// Manifest descriptors, one per platform (or per IR dialect for XaaS).
    pub manifests: Vec<Descriptor>,
    /// Index-level annotations.
    pub annotations: BTreeMap<String, String>,
}

impl ImageIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self {
            media_type: MediaType::ImageIndex,
            manifests: Vec::new(),
            annotations: BTreeMap::new(),
        }
    }

    /// Select the manifest matching an architecture, preferring exact matches and falling
    /// back to an IR manifest (which can be lowered to any architecture).
    pub fn select(&self, arch: Architecture) -> Option<&Descriptor> {
        self.manifests
            .iter()
            .find(|d| d.platform.as_ref().is_some_and(|p| p.architecture == arch))
            .or_else(|| {
                self.manifests.iter().find(|d| {
                    d.platform
                        .as_ref()
                        .is_some_and(|p| p.architecture == Architecture::XirIr)
                })
            })
    }
}

impl Default for ImageIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// A buildable, mutable image. Committing it to an [`ImageStore`] freezes it into blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Human-readable reference (`repository:tag`) used when committing.
    pub reference: String,
    /// Target platform.
    pub platform: Platform,
    /// Layers, bottom to top.
    pub layers: Vec<Layer>,
    /// Runtime configuration.
    pub runtime: ImageRuntimeConfig,
    /// Manifest annotations.
    pub annotations: BTreeMap<String, String>,
}

impl Image {
    /// Start a new image for `reference` on `platform`.
    pub fn new(reference: impl Into<String>, platform: Platform) -> Self {
        Self {
            reference: reference.into(),
            platform,
            layers: Vec::new(),
            runtime: ImageRuntimeConfig::default(),
            annotations: BTreeMap::new(),
        }
    }

    /// Derive a new image from an existing one (the `FROM` instruction): layers, runtime
    /// configuration, and annotations are inherited. Layers are shared handles, so the
    /// derived image inherits their sealed archives and digests with them.
    pub fn derive_from(base: &Image, reference: impl Into<String>) -> Self {
        Self {
            reference: reference.into(),
            platform: base.platform.clone(),
            layers: base.layers.clone(),
            runtime: base.runtime.clone(),
            annotations: base.annotations.clone(),
        }
    }

    /// Append a layer.
    pub fn push_layer(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Set an annotation.
    pub fn annotate(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.annotations.insert(key.into(), value.into());
        self
    }

    /// Record the deployment format annotation.
    pub fn set_deployment_format(&mut self, format: DeploymentFormat) -> &mut Self {
        self.annotate(annotation_keys::DEPLOYMENT_FORMAT, format.as_str())
    }

    /// Read back the deployment format annotation, defaulting to `Binary`.
    pub fn deployment_format(&self) -> DeploymentFormat {
        self.annotations
            .get(annotation_keys::DEPLOYMENT_FORMAT)
            .and_then(|v| DeploymentFormat::parse(v))
            .unwrap_or(DeploymentFormat::Binary)
    }

    /// Flatten all layers into a root filesystem.
    pub fn rootfs(&self) -> RootFs {
        RootFs::flatten(self.layers.iter())
    }

    /// Total size of all layer archives in bytes (sealing layers not yet sealed).
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.sealed().0.len() as u64).sum()
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

/// Errors from the image store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// A referenced blob was not present in the store.
    MissingBlob(Digest),
    /// A blob could not be decoded as the expected type.
    Corrupt(String),
    /// The requested reference does not exist.
    UnknownReference(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::MissingBlob(d) => write!(f, "blob {d} missing from store"),
            ImageError::Corrupt(what) => write!(f, "corrupt blob: {what}"),
            ImageError::UnknownReference(r) => write!(f, "unknown image reference: {r}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// A content-addressed blob store plus a tag table, shared by builders and registries.
#[derive(Clone, Default)]
pub struct ImageStore {
    inner: Arc<RwLock<StoreInner>>,
}

#[derive(Default)]
struct StoreInner {
    blobs: BTreeMap<Digest, Blob>,
    tags: BTreeMap<String, Digest>,
    dedup_hits: u64,
    dedup_bytes: u64,
    digests_computed: u64,
    gc_blobs_removed: u64,
    gc_bytes_reclaimed: u64,
}

/// Blob-level statistics of an [`ImageStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Distinct blobs held.
    pub blob_count: usize,
    /// Bytes held, deduplicated by digest.
    pub total_bytes: u64,
    /// Puts that were short-circuited because the digest was already present.
    pub dedup_hits: u64,
    /// Bytes of those short-circuited puts — storage the content addressing saved.
    pub dedup_bytes: u64,
    /// SHA-256 digests paid for through the store: one per [`ImageStore::put_blob`],
    /// and per [`ImageStore::commit`] one for the config, one for the manifest and one
    /// for each layer that commit had to seal. A layer already sealed — inherited from
    /// a committed base, loaded or pulled, or being sealed by a concurrent commit —
    /// costs no hash and is not counted, and neither are insertions through
    /// [`ImageStore::put_blob_with_digest`]. It counts passes over a payload, not the
    /// time they take: a faster digest kernel leaves it where it is, a skipped hash
    /// lowers it.
    pub digests_computed: u64,
    /// Blobs reclaimed by [`ImageStore::collect_garbage`] over the store's lifetime.
    #[serde(default)]
    pub gc_blobs_removed: u64,
    /// Bytes reclaimed by [`ImageStore::collect_garbage`] over the store's lifetime.
    #[serde(default)]
    pub gc_bytes_reclaimed: u64,
}

/// The result of one [`ImageStore::collect_garbage`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreGcReport {
    /// Unreachable blobs removed by this sweep.
    pub blobs_removed: usize,
    /// Bytes those blobs occupied.
    pub bytes_reclaimed: u64,
    /// Blobs that survived (tag-reachable or pinned).
    pub blobs_live: usize,
}

impl ImageStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a raw blob, returning its digest. Idempotent: a duplicate digest is
    /// short-circuited without storing (the bytes are dropped) and recorded in the
    /// dedup statistics.
    ///
    /// Accepts anything convertible into a [`Blob`]; passing an existing handle
    /// costs a reference-count bump, not a byte copy.
    pub fn put_blob(&self, bytes: impl Into<Blob>) -> Digest {
        let blob = bytes.into();
        let digest = Digest::of_bytes(&blob);
        let mut inner = self.inner.write();
        inner.digests_computed += 1;
        Self::insert_locked(&mut inner, &digest, &blob);
        digest
    }

    /// Insert a blob whose digest the caller already knows, skipping the hash.
    ///
    /// This is the fast path for dedup fan-out: a cache or registry that already
    /// identified the content (the digest travels with the descriptor) must not pay
    /// to re-hash the payload just to discover the store already holds it. The
    /// digest/payload correspondence is the caller's contract; debug builds verify
    /// it, release builds trust it.
    pub fn put_blob_with_digest(&self, digest: Digest, bytes: impl Into<Blob>) -> Digest {
        let blob = bytes.into();
        debug_assert_eq!(
            Digest::of_bytes(&blob),
            digest,
            "put_blob_with_digest called with a digest that does not match the payload"
        );
        Self::insert_locked(&mut self.inner.write(), &digest, &blob);
        digest
    }

    /// Shared insertion path: dedup bookkeeping plus the actual map insert. Takes
    /// handles by reference so a duplicate costs no clone.
    fn insert_locked(inner: &mut StoreInner, digest: &Digest, blob: &Blob) {
        if inner.blobs.contains_key(digest) {
            inner.dedup_hits += 1;
            inner.dedup_bytes += blob.len() as u64;
            return;
        }
        inner.blobs.insert(digest.clone(), blob.clone());
    }

    /// Fetch a blob handle by digest. The returned [`Blob`] shares the store's
    /// allocation — cloning or passing it on never copies the payload.
    pub fn blob(&self, digest: &Digest) -> Result<Blob, ImageError> {
        self.inner
            .read()
            .blobs
            .get(digest)
            .cloned()
            .ok_or_else(|| ImageError::MissingBlob(digest.clone()))
    }

    /// Whether the store holds a blob.
    pub fn has_blob(&self, digest: &Digest) -> bool {
        self.inner.read().blobs.contains_key(digest)
    }

    /// Number of stored blobs.
    pub fn blob_count(&self) -> usize {
        self.inner.read().blobs.len()
    }

    /// Total stored bytes (deduplicated by digest).
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .read()
            .blobs
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Bytes that were offered via [`ImageStore::put_blob`] but already present.
    pub fn dedup_bytes(&self) -> u64 {
        self.inner.read().dedup_bytes
    }

    /// How many full-payload SHA-256 digests the store has computed.
    pub fn digests_computed(&self) -> u64 {
        self.inner.read().digests_computed
    }

    /// A snapshot of the blob-level statistics.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read();
        StoreStats {
            blob_count: inner.blobs.len(),
            total_bytes: inner.blobs.values().map(|b| b.len() as u64).sum(),
            dedup_hits: inner.dedup_hits,
            dedup_bytes: inner.dedup_bytes,
            digests_computed: inner.digests_computed,
            gc_blobs_removed: inner.gc_blobs_removed,
            gc_bytes_reclaimed: inner.gc_bytes_reclaimed,
        }
    }

    /// Reclaim every blob that is neither reachable from a tag nor in `pinned`.
    ///
    /// Reachability starts at the tag table: each tagged digest is walked as a
    /// manifest (config + layer blobs) or an image index (member manifests,
    /// transitively). `pinned` carries roots the store cannot see — typically the
    /// action outputs an [`ActionCache`](crate::cache::ActionCache) index still
    /// references ([`indexed_blobs`](crate::cache::ActionCache::indexed_blobs)).
    ///
    /// This is the store-level blob GC the action cache's capacity bound defers to:
    /// index eviction drops memoization entries, this sweep reclaims the bytes.
    /// Cache indexes that still point at a reclaimed blob self-heal on the next
    /// lookup (counted as [`stale_evictions`](crate::cache::CacheStats::stale_evictions)).
    pub fn collect_garbage(&self, pinned: &[Digest]) -> StoreGcReport {
        let mut inner = self.inner.write();
        let mut live: BTreeSet<Digest> = BTreeSet::new();
        let mut stack: Vec<Digest> = pinned.to_vec();
        stack.extend(inner.tags.values().cloned());
        while let Some(digest) = stack.pop() {
            if !live.insert(digest.clone()) {
                continue;
            }
            let Some(blob) = inner.blobs.get(&digest) else {
                continue;
            };
            // A reachable blob may itself be a manifest or an index whose children
            // are live too. Layer archives and action outputs fail both decodes and
            // simply terminate the walk.
            if let Ok(manifest) = serde_json::from_slice::<Manifest>(blob) {
                if manifest.media_type == MediaType::ImageManifest {
                    stack.push(manifest.config.digest.clone());
                    stack.extend(manifest.layers.iter().map(|d| d.digest.clone()));
                    continue;
                }
            }
            if let Ok(index) = serde_json::from_slice::<ImageIndex>(blob) {
                if index.media_type == MediaType::ImageIndex {
                    stack.extend(index.manifests.iter().map(|d| d.digest.clone()));
                }
            }
        }
        let doomed: Vec<Digest> = inner
            .blobs
            .keys()
            .filter(|d| !live.contains(*d))
            .cloned()
            .collect();
        let mut bytes_reclaimed = 0u64;
        for digest in &doomed {
            if let Some(blob) = inner.blobs.remove(digest) {
                bytes_reclaimed += blob.len() as u64;
            }
        }
        inner.gc_blobs_removed += doomed.len() as u64;
        inner.gc_bytes_reclaimed += bytes_reclaimed;
        StoreGcReport {
            blobs_removed: doomed.len(),
            bytes_reclaimed,
            blobs_live: inner.blobs.len(),
        }
    }

    /// Commit an [`Image`]: put its layer archives, config, and manifest into the store,
    /// tag the manifest with the image reference, and return the manifest descriptor.
    ///
    /// A layer is serialised and hashed only if nothing sealed it before
    /// ([`Layer::sealed`]); its digest is both the blob digest and the diff ID, which
    /// name the same uncompressed archive. Everything is hashed before the store's
    /// write lock is taken, once, for all blobs and the tag.
    pub fn commit(&self, image: &Image) -> Descriptor {
        let mut hashed = 2u64; // config + manifest
        let mut layer_descriptors = Vec::with_capacity(image.layers.len());
        let mut history = Vec::with_capacity(image.layers.len());
        for layer in &image.layers {
            let ((archive, digest), sealed_now) = layer.seal();
            hashed += u64::from(sealed_now);
            debug_assert_eq!(
                &Digest::of_bytes(archive),
                digest,
                "a sealed layer's digest does not match its archive"
            );
            history.push(HistoryEntry {
                created_by: layer.created_by().to_string(),
                empty_layer: layer.is_empty(),
            });
            layer_descriptors.push(Descriptor::new(
                MediaType::Layer,
                digest.clone(),
                archive.len() as u64,
            ));
        }
        let config = ImageConfig {
            platform: image.platform.clone(),
            config: image.runtime.clone(),
            rootfs_diff_ids: layer_descriptors.iter().map(|d| d.digest.clone()).collect(),
            history,
        };
        let config_blob = Blob::new(serde_json::to_vec(&config).expect("config serialises"));
        let manifest = Manifest {
            media_type: MediaType::ImageManifest,
            config: Descriptor::new(
                MediaType::ImageConfig,
                Digest::of_bytes(&config_blob),
                config_blob.len() as u64,
            ),
            layers: layer_descriptors,
            annotations: image.annotations.clone(),
        };
        let manifest_blob = Blob::new(serde_json::to_vec(&manifest).expect("manifest serialises"));
        let manifest_digest = Digest::of_bytes(&manifest_blob);

        {
            let mut inner = self.inner.write();
            inner.digests_computed += hashed;
            for (layer, descriptor) in image.layers.iter().zip(&manifest.layers) {
                Self::insert_locked(&mut inner, &descriptor.digest, layer.sealed().0);
            }
            Self::insert_locked(&mut inner, &manifest.config.digest, &config_blob);
            Self::insert_locked(&mut inner, &manifest_digest, &manifest_blob);
            inner
                .tags
                .insert(image.reference.clone(), manifest_digest.clone());
        }
        Descriptor::new(
            MediaType::ImageManifest,
            manifest_digest,
            manifest_blob.len() as u64,
        )
        .with_platform(image.platform.clone())
    }

    /// Resolve a reference (tag) to its manifest digest.
    pub fn resolve(&self, reference: &str) -> Result<Digest, ImageError> {
        self.inner
            .read()
            .tags
            .get(reference)
            .cloned()
            .ok_or_else(|| ImageError::UnknownReference(reference.to_string()))
    }

    /// List all known references with their manifest digests.
    pub fn references(&self) -> Vec<(String, Digest)> {
        self.inner
            .read()
            .tags
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Load a manifest blob.
    pub fn manifest(&self, digest: &Digest) -> Result<Manifest, ImageError> {
        let bytes = self.blob(digest)?;
        serde_json::from_slice(&bytes).map_err(|e| ImageError::Corrupt(format!("manifest: {e}")))
    }

    /// Load a config blob.
    pub fn config(&self, digest: &Digest) -> Result<ImageConfig, ImageError> {
        let bytes = self.blob(digest)?;
        serde_json::from_slice(&bytes).map_err(|e| ImageError::Corrupt(format!("config: {e}")))
    }

    /// Load a layer blob, sealed with the stored archive and the digest it is stored
    /// under, so committing it again serialises and hashes nothing.
    pub fn layer(&self, digest: &Digest) -> Result<Layer, ImageError> {
        Layer::from_archive_blob(self.blob(digest)?, digest.clone())
            .map_err(|e| ImageError::Corrupt(format!("layer {digest}: {e}")))
    }

    /// Reconstruct a full [`Image`] from a tagged reference.
    pub fn load(&self, reference: &str) -> Result<Image, ImageError> {
        let manifest_digest = self.resolve(reference)?;
        let manifest = self.manifest(&manifest_digest)?;
        let config = self.config(&manifest.config.digest)?;
        let mut layers = Vec::with_capacity(manifest.layers.len());
        for desc in &manifest.layers {
            layers.push(self.layer(&desc.digest)?);
        }
        Ok(Image {
            reference: reference.to_string(),
            platform: config.platform,
            layers,
            runtime: config.config,
            annotations: manifest.annotations,
        })
    }

    /// Commit a multi-platform image index from per-platform manifest descriptors.
    pub fn commit_index(
        &self,
        reference: &str,
        manifests: Vec<Descriptor>,
        annotations: BTreeMap<String, String>,
    ) -> Descriptor {
        let index = ImageIndex {
            media_type: MediaType::ImageIndex,
            manifests,
            annotations,
        };
        let bytes = serde_json::to_vec(&index).expect("index serialises");
        let size = bytes.len() as u64;
        let digest = self.put_blob(bytes);
        self.inner
            .write()
            .tags
            .insert(reference.to_string(), digest.clone());
        Descriptor::new(MediaType::ImageIndex, digest, size)
    }

    /// Load an image index by reference.
    pub fn load_index(&self, reference: &str) -> Result<ImageIndex, ImageError> {
        let digest = self.resolve(reference)?;
        let bytes = self.blob(&digest)?;
        serde_json::from_slice(&bytes).map_err(|e| ImageError::Corrupt(format!("index: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toolchain_image() -> Image {
        let mut img = Image::new("xaas/toolchain:19", Platform::linux(Architecture::Amd64));
        let mut base = Layer::new("FROM scratch");
        base.add_text("/etc/os-release", "ubuntu 22.04");
        let mut clang = Layer::new("RUN install xirc");
        clang.add_executable("/usr/bin/xirc", b"xirc-binary".to_vec());
        img.push_layer(base).push_layer(clang);
        img.runtime.env.push("PATH=/usr/bin".to_string());
        img
    }

    #[test]
    fn commit_and_load_roundtrip() {
        let store = ImageStore::new();
        let img = toolchain_image();
        let desc = store.commit(&img);
        assert_eq!(desc.media_type, MediaType::ImageManifest);
        let loaded = store.load("xaas/toolchain:19").unwrap();
        assert_eq!(loaded.layers, img.layers);
        assert_eq!(loaded.runtime, img.runtime);
        assert_eq!(loaded.platform, img.platform);
    }

    #[test]
    fn identical_layers_are_deduplicated_in_the_store() {
        let store = ImageStore::new();
        let img = toolchain_image();
        store.commit(&img);
        let blobs_before = store.blob_count();
        // Commit a second image that shares both layers; only config+manifest blobs differ.
        let mut img2 = Image::derive_from(&img, "xaas/toolchain:19-copy");
        img2.runtime.env.push("EXTRA=1".to_string());
        store.commit(&img2);
        assert_eq!(store.blob_count(), blobs_before + 2);
    }

    #[test]
    fn duplicate_blobs_are_short_circuited_and_counted() {
        let store = ImageStore::new();
        let payload = b"shared-layer-bytes".to_vec();
        let d1 = store.put_blob(payload.clone());
        assert_eq!(store.stats().dedup_hits, 0);
        let d2 = store.put_blob(payload.clone());
        assert_eq!(d1, d2);
        let stats = store.stats();
        assert_eq!(stats.blob_count, 1);
        assert_eq!(stats.total_bytes, payload.len() as u64);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.dedup_bytes, payload.len() as u64);
        assert_eq!(store.dedup_bytes(), payload.len() as u64);
    }

    #[test]
    fn blob_handle_shares_the_stored_allocation() {
        let store = ImageStore::new();
        let digest = store.put_blob(b"zero-copy".to_vec());
        let a = store.blob(&digest).unwrap();
        let b = store.blob(&digest).unwrap();
        assert!(Blob::ptr_eq(&a, &b), "handles share the store's allocation");
        assert_eq!(a, b"zero-copy");
        assert!(matches!(
            store.blob(&Digest::of_str("missing")),
            Err(ImageError::MissingBlob(_))
        ));
    }

    #[test]
    fn put_blob_with_digest_skips_hashing_and_still_dedups() {
        let store = ImageStore::new();
        let payload = Blob::new(b"known-content".to_vec());
        let digest = Digest::of_bytes(&payload);
        assert_eq!(store.digests_computed(), 0);
        let d1 = store.put_blob_with_digest(digest.clone(), payload.clone());
        assert_eq!(d1, digest);
        assert_eq!(
            store.digests_computed(),
            0,
            "caller-supplied digest trusted"
        );
        let d2 = store.put_blob_with_digest(digest.clone(), payload.clone());
        assert_eq!(d2, digest);
        let stats = store.stats();
        assert_eq!(stats.blob_count, 1);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.dedup_bytes, payload.len() as u64);
        assert_eq!(stats.digests_computed, 0);
        // The regular path hashes exactly once per put.
        store.put_blob(b"fresh".to_vec());
        assert_eq!(store.digests_computed(), 1);
    }

    #[test]
    fn recommitting_same_image_changes_nothing() {
        let store = ImageStore::new();
        let img = toolchain_image();
        let d1 = store.commit(&img);
        let d2 = store.commit(&img);
        assert_eq!(d1.digest, d2.digest);
    }

    #[test]
    fn derived_image_with_new_layer_gets_new_manifest_digest() {
        let store = ImageStore::new();
        let base = toolchain_image();
        let d1 = store.commit(&base);
        let mut derived = Image::derive_from(&base, "xaas/app:deployed");
        let mut l = Layer::new("RUN build app");
        l.add_executable("/opt/app/bin/md", b"binary".to_vec());
        derived.push_layer(l);
        let d2 = store.commit(&derived);
        assert_ne!(d1.digest, d2.digest);
        assert_eq!(store.load("xaas/app:deployed").unwrap().layer_count(), 3);
    }

    #[test]
    fn committing_a_derived_image_hashes_only_what_is_new() {
        let store = ImageStore::new();
        let base = toolchain_image();
        store.commit(&base);
        assert_eq!(store.digests_computed(), 4, "two layers, config, manifest");
        let mut derived = Image::derive_from(&base, "xaas/app:deployed");
        let mut l = Layer::new("RUN build app");
        l.add_executable("/opt/app/bin/md", b"binary".to_vec());
        derived.push_layer(l);
        let before = store.stats();
        let descriptor = store.commit(&derived);
        let after = store.stats();
        assert_eq!(
            after.digests_computed - before.digests_computed,
            3,
            "the new layer, the config and the manifest"
        );
        assert_eq!(after.dedup_hits - before.dedup_hits, 2, "inherited layers");
        // Inherited layers were neither re-serialised nor copied: the store holds the
        // very archives the base image sealed.
        let manifest = store.manifest(&descriptor.digest).unwrap();
        let config = store.config(&manifest.config.digest).unwrap();
        for (index, layer) in base.layers.iter().enumerate() {
            let (archive, digest) = layer.sealed();
            assert_eq!(&manifest.layers[index].digest, digest);
            assert_eq!(&config.rootfs_diff_ids[index], digest);
            assert!(Blob::ptr_eq(&store.blob(digest).unwrap(), archive));
            assert!(Blob::ptr_eq(derived.layers[index].sealed().0, archive));
        }
        // Re-committing an image whose layers are all sealed books config + manifest.
        store.commit(&derived);
        assert_eq!(store.digests_computed(), after.digests_computed + 2);
    }

    #[test]
    fn concurrent_commits_of_a_shared_unsealed_layer_count_one_hash() {
        for _ in 0..25 {
            let store = ImageStore::new();
            let mut shared = Layer::new("COPY shared");
            shared.add_file("/shared", vec![7u8; 64 * 1024]);
            let images: Vec<Image> = ["race:a", "race:b"]
                .into_iter()
                .map(|reference| {
                    let mut img = Image::new(reference, Platform::linux(Architecture::Amd64));
                    img.push_layer(shared.clone());
                    img.runtime.env.push(format!("REF={reference}"));
                    img
                })
                .collect();
            assert!(images.iter().all(|img| !img.layers[0].is_sealed()));
            let start = std::sync::Barrier::new(images.len());
            std::thread::scope(|scope| {
                for img in &images {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        start.wait();
                        store.commit(img);
                    });
                }
            });
            // One seal for the layer both images share, config + manifest per image.
            assert_eq!(store.digests_computed(), 1 + 2 * 2);
            assert_eq!(store.stats().dedup_hits, 1, "the second layer insert");
        }
    }

    #[test]
    fn load_then_commit_hashes_no_layer() {
        let store = ImageStore::new();
        store.commit(&toolchain_image());
        let loaded = store.load("xaas/toolchain:19").unwrap();
        for layer in &loaded.layers {
            assert!(layer.is_sealed());
            let (archive, digest) = layer.sealed();
            assert!(Blob::ptr_eq(archive, &store.blob(digest).unwrap()));
        }
        let before = store.digests_computed();
        let other = ImageStore::new();
        store.commit(&loaded);
        other.commit(&loaded);
        assert_eq!(store.digests_computed() - before, 2, "config + manifest");
        assert_eq!(other.digests_computed(), 2, "config + manifest");
        assert_eq!(loaded.size_bytes(), toolchain_image().size_bytes());
    }

    #[test]
    fn loading_a_layer_with_a_saturated_length_field_is_corrupt_not_a_panic() {
        let store = ImageStore::new();
        let mut img = Image::new("xaas/corrupt:1", Platform::linux(Architecture::Amd64));
        let mut layer = Layer::new("x");
        layer.add_file("/f", b"payload".to_vec());
        img.push_layer(layer.clone());
        store.commit(&img);
        // Damage the stored archive in place: the content-length field of the one file.
        let (archive, digest) = layer.sealed();
        let mut corrupt = archive.to_vec();
        let field = corrupt.len() - b"payload".len() - 8;
        corrupt[field..field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        store
            .inner
            .write()
            .blobs
            .insert(digest.clone(), Blob::new(corrupt));
        match store.load("xaas/corrupt:1") {
            Err(ImageError::Corrupt(what)) => {
                assert!(what.contains("truncated"), "{what}");
                assert!(what.contains(digest.as_str()), "{what}");
            }
            other => panic!("expected ImageError::Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let store = ImageStore::new();
        assert!(matches!(
            store.load("missing:latest"),
            Err(ImageError::UnknownReference(_))
        ));
    }

    #[test]
    fn deployment_format_annotation_roundtrips() {
        let store = ImageStore::new();
        let mut img = toolchain_image();
        img.set_deployment_format(DeploymentFormat::Ir);
        store.commit(&img);
        let loaded = store.load("xaas/toolchain:19").unwrap();
        assert_eq!(loaded.deployment_format(), DeploymentFormat::Ir);
    }

    #[test]
    fn image_index_selects_exact_arch_then_falls_back_to_ir() {
        let store = ImageStore::new();
        let amd = toolchain_image();
        let amd_desc = store.commit(&amd);
        let mut arm = toolchain_image();
        arm.reference = "xaas/toolchain:19-arm".into();
        arm.platform = Platform::linux(Architecture::Arm64);
        let arm_desc = store.commit(&arm);
        let mut ir = toolchain_image();
        ir.reference = "xaas/toolchain:19-ir".into();
        ir.platform = Platform::linux(Architecture::XirIr);
        let ir_desc = store.commit(&ir);

        store.commit_index(
            "xaas/toolchain:multi",
            vec![amd_desc.clone(), arm_desc.clone(), ir_desc.clone()],
            BTreeMap::new(),
        );
        let index = store.load_index("xaas/toolchain:multi").unwrap();
        assert_eq!(
            index.select(Architecture::Amd64).unwrap().digest,
            amd_desc.digest
        );
        assert_eq!(
            index.select(Architecture::Arm64).unwrap().digest,
            arm_desc.digest
        );
        // No ppc64le manifest: fall back to the IR one, which can be lowered at deployment.
        assert_eq!(
            index.select(Architecture::Ppc64le).unwrap().digest,
            ir_desc.digest
        );
    }

    #[test]
    fn collect_garbage_keeps_tagged_chains_and_pins() {
        let store = ImageStore::new();
        let img = toolchain_image();
        store.commit(&img); // manifest + config + 2 layers, all tag-reachable
        let orphan = store.put_blob(b"orphaned action output".to_vec());
        let pinned = store.put_blob(b"pinned action output".to_vec());
        let before = store.blob_count();
        let report = store.collect_garbage(std::slice::from_ref(&pinned));
        assert_eq!(report.blobs_removed, 1, "only the orphan is reclaimed");
        assert_eq!(
            report.bytes_reclaimed,
            b"orphaned action output".len() as u64
        );
        assert_eq!(report.blobs_live, before - 1);
        assert!(!store.has_blob(&orphan));
        assert!(store.has_blob(&pinned), "pinned blob survives");
        // The tagged image still loads in full after the sweep.
        assert_eq!(store.load("xaas/toolchain:19").unwrap().layer_count(), 2);
        let stats = store.stats();
        assert_eq!(stats.gc_blobs_removed, 1);
        assert!(stats.gc_bytes_reclaimed > 0);
    }

    #[test]
    fn collect_garbage_walks_image_indexes() {
        let store = ImageStore::new();
        let amd = toolchain_image();
        let amd_desc = store.commit(&amd);
        let mut ir = toolchain_image();
        ir.reference = "xaas/toolchain:19-ir".into();
        ir.platform = Platform::linux(Architecture::XirIr);
        let ir_desc = store.commit(&ir);
        store.commit_index(
            "xaas/toolchain:multi",
            vec![amd_desc, ir_desc],
            BTreeMap::new(),
        );
        let report = store.collect_garbage(&[]);
        assert_eq!(report.blobs_removed, 0, "index members are reachable");
        assert!(store.load_index("xaas/toolchain:multi").is_ok());
        assert_eq!(store.load("xaas/toolchain:19").unwrap().layer_count(), 2);
    }

    #[test]
    fn rootfs_of_image_reflects_all_layers() {
        let img = toolchain_image();
        let root = img.rootfs();
        assert!(root.get("/usr/bin/xirc").is_some());
        assert!(root.get("/etc/os-release").is_some());
    }
}
