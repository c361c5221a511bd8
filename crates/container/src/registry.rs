//! A model of a container registry: named repositories of tagged manifests, push/pull
//! between stores, and pull statistics (the paper's deployment flow pulls a source or IR
//! container once per system and then pushes the system-specialized image back).

use crate::digest::Digest;
use crate::image::{Image, ImageError, ImageStore};
use crate::oci::Descriptor;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A reference split into repository and tag, e.g. `spcl/gromacs:ir-x86`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reference {
    /// Repository path.
    pub repository: String,
    /// Tag (defaults to `latest`).
    pub tag: String,
}

impl Reference {
    /// Parse `repo[:tag]`.
    pub fn parse(text: &str) -> Result<Self, RegistryError> {
        if text.is_empty() {
            return Err(RegistryError::InvalidReference(text.to_string()));
        }
        let (repo, tag) = match text.rsplit_once(':') {
            Some((r, t)) if !t.contains('/') => (r, t),
            _ => (text, "latest"),
        };
        if repo.is_empty() || tag.is_empty() {
            return Err(RegistryError::InvalidReference(text.to_string()));
        }
        Ok(Self {
            repository: repo.to_string(),
            tag: tag.to_string(),
        })
    }

    /// Render back to `repo:tag`.
    pub fn to_string_full(&self) -> String {
        format!("{}:{}", self.repository, self.tag)
    }
}

impl fmt::Display for Reference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.repository, self.tag)
    }
}

/// Registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Reference string malformed.
    InvalidReference(String),
    /// Tag not present in the registry.
    NotFound(String),
    /// Underlying image store failure.
    Store(ImageError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidReference(r) => write!(f, "invalid reference: {r}"),
            RegistryError::NotFound(r) => write!(f, "reference not found: {r}"),
            RegistryError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ImageError> for RegistryError {
    fn from(value: ImageError) -> Self {
        RegistryError::Store(value)
    }
}

/// Transfer statistics for a push or pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Blobs that had to be transferred.
    pub blobs_transferred: usize,
    /// Blobs already present at the destination (layer reuse).
    pub blobs_reused: usize,
    /// Bytes transferred.
    pub bytes_transferred: u64,
}

/// An in-memory registry backed by an [`ImageStore`].
#[derive(Clone, Default)]
pub struct Registry {
    store: ImageStore,
    tags: Arc<RwLock<BTreeMap<Reference, Digest>>>,
    pulls: Arc<RwLock<BTreeMap<Reference, u64>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry's backing store (exposed for inspection in tests/benches).
    pub fn store(&self) -> &ImageStore {
        &self.store
    }

    /// Push an image from a local store into the registry.
    pub fn push(
        &self,
        local: &ImageStore,
        reference: &str,
    ) -> Result<TransferStats, RegistryError> {
        let reference_parsed = Reference::parse(reference)?;
        let manifest_digest = local.resolve(reference)?;
        let stats = self.copy_manifest_chain(local, &self.store, &manifest_digest)?;
        self.tags.write().insert(reference_parsed, manifest_digest);
        Ok(stats)
    }

    /// Pull an image from the registry into a local store, recording pull statistics.
    pub fn pull(
        &self,
        local: &ImageStore,
        reference: &str,
    ) -> Result<(Image, TransferStats), RegistryError> {
        let reference_parsed = Reference::parse(reference)?;
        let digest = self
            .tags
            .read()
            .get(&reference_parsed)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(reference.to_string()))?;
        let stats = self.copy_manifest_chain(&self.store, local, &digest)?;
        *self.pulls.write().entry(reference_parsed).or_insert(0) += 1;
        // Re-tag locally and materialise the image.
        let manifest = self.store.manifest(&digest)?;
        let config = self.store.config(&manifest.config.digest)?;
        let mut layers = Vec::with_capacity(manifest.layers.len());
        for desc in &manifest.layers {
            layers.push(local.layer(&desc.digest)?);
        }
        let image = Image {
            reference: reference.to_string(),
            platform: config.platform,
            layers,
            runtime: config.config,
            annotations: manifest.annotations,
        };
        // Make the local store able to resolve the reference as well. The layers came
        // back sealed, so this hashes only the config and the manifest.
        local.commit(&image);
        Ok((image, stats))
    }

    /// How many times a reference has been pulled. Takes a parsed [`Reference`] so
    /// malformed reference strings surface as parse errors at the caller instead of
    /// silently counting as zero.
    pub fn pull_count(&self, reference: &Reference) -> u64 {
        self.pulls.read().get(reference).copied().unwrap_or(0)
    }

    /// List repositories and tags.
    pub fn list(&self) -> Vec<Reference> {
        self.tags.read().keys().cloned().collect()
    }

    /// List tags within one repository.
    pub fn tags_of(&self, repository: &str) -> Vec<String> {
        self.tags
            .read()
            .keys()
            .filter(|r| r.repository == repository)
            .map(|r| r.tag.clone())
            .collect()
    }

    /// Read manifest annotations without pulling layer blobs — this is the query path the
    /// paper proposes for discovering specialization points before a pull (Section 5.2).
    pub fn peek_annotations(
        &self,
        reference: &str,
    ) -> Result<BTreeMap<String, String>, RegistryError> {
        let reference_parsed = Reference::parse(reference)?;
        let digest = self
            .tags
            .read()
            .get(&reference_parsed)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(reference.to_string()))?;
        Ok(self.store.manifest(&digest)?.annotations)
    }

    fn copy_manifest_chain(
        &self,
        from: &ImageStore,
        to: &ImageStore,
        manifest_digest: &Digest,
    ) -> Result<TransferStats, RegistryError> {
        let mut stats = TransferStats::default();
        let manifest_bytes = from.blob(manifest_digest)?;
        let manifest = from.manifest(manifest_digest)?;
        let mut referenced: Vec<Descriptor> = vec![manifest.config.clone()];
        referenced.extend(manifest.layers.iter().cloned());
        // Every descriptor carries its digest, so the destination store never
        // re-hashes the payload, and the transferred "bytes" are shared handles.
        for desc in referenced {
            if to.has_blob(&desc.digest) {
                stats.blobs_reused += 1;
                continue;
            }
            let bytes = from.blob(&desc.digest)?;
            stats.bytes_transferred += bytes.len() as u64;
            stats.blobs_transferred += 1;
            to.put_blob_with_digest(desc.digest, bytes);
        }
        if !to.has_blob(manifest_digest) {
            stats.bytes_transferred += manifest_bytes.len() as u64;
            stats.blobs_transferred += 1;
            to.put_blob_with_digest(manifest_digest.clone(), manifest_bytes);
        } else {
            stats.blobs_reused += 1;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::oci::{Architecture, Platform};

    fn make_image(reference: &str, payload: &str) -> (ImageStore, Image) {
        let store = ImageStore::new();
        let mut img = Image::new(reference, Platform::linux(Architecture::Amd64));
        let mut l = Layer::new("COPY payload");
        l.add_text("/payload", payload);
        img.push_layer(l);
        store.commit(&img);
        (store, img)
    }

    #[test]
    fn reference_parsing() {
        let r = Reference::parse("spcl/gromacs:ir-x86").unwrap();
        assert_eq!(r.repository, "spcl/gromacs");
        assert_eq!(r.tag, "ir-x86");
        let r = Reference::parse("ubuntu").unwrap();
        assert_eq!(r.tag, "latest");
        assert!(Reference::parse("").is_err());
        // A colon inside a path segment is not a tag separator.
        let r = Reference::parse("registry/repo:with/slash").unwrap();
        assert_eq!(r.tag, "latest");
        assert_eq!(r.repository, "registry/repo:with/slash");
    }

    #[test]
    fn push_pull_roundtrip() {
        let registry = Registry::new();
        let (local, img) = make_image("spcl/app:v1", "hello");
        registry.push(&local, "spcl/app:v1").unwrap();

        let other = ImageStore::new();
        let (pulled, stats) = registry.pull(&other, "spcl/app:v1").unwrap();
        assert_eq!(pulled.rootfs().read_text("/payload").unwrap(), "hello");
        assert_eq!(pulled.platform, img.platform);
        assert!(stats.blobs_transferred >= 3); // layer + config + manifest
        assert_eq!(
            registry.pull_count(&Reference::parse("spcl/app:v1").unwrap()),
            1
        );
    }

    #[test]
    fn pull_hashes_no_layer() {
        let registry = Registry::new();
        let (local, img) = make_image("spcl/app:v1", "hello");
        registry.push(&local, "spcl/app:v1").unwrap();
        assert_eq!(
            registry.store().digests_computed(),
            0,
            "push trusts descriptors"
        );

        let other = ImageStore::new();
        let (pulled, _) = registry.pull(&other, "spcl/app:v1").unwrap();
        // The local re-commit hashes the config and the manifest; the layer came back
        // sealed with the transferred blob and the descriptor's digest.
        assert_eq!(other.digests_computed(), 2);
        assert_eq!(pulled.layers, img.layers);
        let (archive, digest) = pulled.layers[0].sealed();
        assert!(crate::blob::Blob::ptr_eq(
            archive,
            &other.blob(digest).unwrap()
        ));
        assert_eq!(other.resolve("spcl/app:v1"), local.resolve("spcl/app:v1"));
    }

    #[test]
    fn pull_of_unknown_tag_fails() {
        let registry = Registry::new();
        let local = ImageStore::new();
        assert!(matches!(
            registry.pull(&local, "nope:latest"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn push_reuses_existing_blobs() {
        let registry = Registry::new();
        let (local, base) = make_image("spcl/app:v1", "hello");
        let s1 = registry.push(&local, "spcl/app:v1").unwrap();
        assert_eq!(s1.blobs_reused, 0);

        // Derive a second tag sharing the layer: only config+manifest are new.
        let mut v2 = Image::derive_from(&base, "spcl/app:v2");
        v2.runtime.env.push("X=1".into());
        local.commit(&v2);
        let s2 = registry.push(&local, "spcl/app:v2").unwrap();
        assert!(s2.blobs_reused >= 1, "layer blob should be reused: {s2:?}");
    }

    #[test]
    fn peek_annotations_does_not_require_pull() {
        let registry = Registry::new();
        let store = ImageStore::new();
        let mut img = Image::new("spcl/app:annotated", Platform::linux(Architecture::XirIr));
        img.annotate("dev.xaas.deployment-format", "ir");
        let mut l = Layer::new("COPY ir");
        l.add_text("/ir/a.xbc", "bitcode");
        img.push_layer(l);
        store.commit(&img);
        registry.push(&store, "spcl/app:annotated").unwrap();

        let ann = registry.peek_annotations("spcl/app:annotated").unwrap();
        assert_eq!(
            ann.get("dev.xaas.deployment-format").map(String::as_str),
            Some("ir")
        );
    }

    #[test]
    fn list_and_tags_of() {
        let registry = Registry::new();
        let (local, _) = make_image("spcl/app:v1", "a");
        registry.push(&local, "spcl/app:v1").unwrap();
        let (local2, _) = make_image("spcl/app:v2", "b");
        registry.push(&local2, "spcl/app:v2").unwrap();
        let (local3, _) = make_image("other/tool:latest", "c");
        registry.push(&local3, "other/tool:latest").unwrap();

        assert_eq!(registry.list().len(), 3);
        let mut tags = registry.tags_of("spcl/app");
        tags.sort();
        assert_eq!(tags, vec!["v1", "v2"]);
    }

    #[test]
    fn pull_counts_accumulate() {
        let registry = Registry::new();
        let (local, _) = make_image("spcl/app:v1", "a");
        registry.push(&local, "spcl/app:v1").unwrap();
        for _ in 0..3 {
            let target = ImageStore::new();
            registry.pull(&target, "spcl/app:v1").unwrap();
        }
        assert_eq!(
            registry.pull_count(&Reference::parse("spcl/app:v1").unwrap()),
            3
        );
        assert_eq!(
            registry.pull_count(&Reference::parse("spcl/app:v2").unwrap()),
            0
        );
        // An untagged repo name defaults to :latest and counts separately.
        assert_eq!(
            registry.pull_count(&Reference::parse("spcl/app").unwrap()),
            0
        );
    }
}
