//! A model of a container registry: named repositories of tagged manifests and push/pull
//! between stores (the paper's deployment flow pulls a source or IR container once per
//! system and then pushes the system-specialized image back).

#![deny(clippy::unwrap_used, clippy::indexing_slicing, clippy::dbg_macro)]

use crate::image::{Image, ImageError, ImageStore, TransferStats};
use std::collections::BTreeMap;
use std::fmt;

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
    pub(crate) fn to_string_full(&self) -> String {
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

/// An in-memory registry backed by an [`ImageStore`]. Its tags live in that store,
/// under each reference's full `repo:tag` form.
#[derive(Clone, Default)]
pub struct Registry {
    store: ImageStore,
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
        let tag = Reference::parse(reference)?.to_string_full();
        Ok(self.store.copy_from(local, reference, &tag)?)
    }

    /// Pull an image from the registry into a local store, tag it there under
    /// `reference`, and load it. The layers come back sealed with the transferred
    /// blobs, and nothing is hashed.
    pub fn pull(
        &self,
        local: &ImageStore,
        reference: &str,
    ) -> Result<(Image, TransferStats), RegistryError> {
        let tag = Reference::parse(reference)?.to_string_full();
        let stats = local
            .copy_from(&self.store, &tag, reference)
            .map_err(not_found(reference))?;
        Ok((local.load(reference)?, stats))
    }

    /// Read manifest annotations without pulling layer blobs — this is the query path the
    /// paper proposes for discovering specialization points before a pull (Section 5.2).
    pub fn peek_annotations(
        &self,
        reference: &str,
    ) -> Result<BTreeMap<String, String>, RegistryError> {
        let tag = Reference::parse(reference)?.to_string_full();
        let digest = self.store.resolve(&tag).map_err(not_found(reference))?;
        Ok(self.store.manifest(&digest)?.annotations)
    }
}

/// A registry tag that does not resolve is [`RegistryError::NotFound`].
fn not_found(reference: &str) -> impl FnOnce(ImageError) -> RegistryError + '_ {
    move |error| match error {
        ImageError::UnknownReference(_) => RegistryError::NotFound(reference.to_string()),
        other => RegistryError::Store(other),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
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
        let (pulled, stats) = registry.pull(&other, "spcl/app:v1").unwrap();
        // The transferred manifest is tagged as it is: nothing is re-committed, and
        // the layer comes back sealed with the transferred blob and its digest.
        assert_eq!(other.digests_computed(), 0);
        assert_eq!(stats.blobs_transferred, 3, "layer + config + manifest");
        assert!(pulled.layers[0].is_sealed());
        assert_eq!(pulled.layers, img.layers);
        let (archive, digest) = pulled.layers[0].sealed();
        assert!(crate::blob::Blob::ptr_eq(
            archive,
            &other.blob(digest).unwrap()
        ));
        assert!(crate::blob::Blob::ptr_eq(
            archive,
            &registry.store().blob(digest).unwrap()
        ));
        assert_eq!(other.resolve("spcl/app:v1"), local.resolve("spcl/app:v1"));
    }

    #[test]
    fn a_sweep_of_the_registry_store_keeps_pushed_images() {
        let registry = Registry::new();
        let (local, _) = make_image("spcl/app:v1", "hello");
        registry.push(&local, "spcl/app:v1").unwrap();
        let report = registry.store().collect_garbage(&[]);
        assert_eq!(
            report.blobs_removed, 0,
            "the registry's tags are store roots"
        );
        assert_eq!(report.blobs_live, 3);
        let (pulled, _) = registry.pull(&ImageStore::new(), "spcl/app:v1").unwrap();
        assert_eq!(pulled.rootfs().read_text("/payload").unwrap(), "hello");
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
        assert_eq!(s2.blobs_reused, 1, "layer blob should be reused: {s2:?}");
        assert_eq!(s2.blobs_transferred, 2, "config + manifest: {s2:?}");

        // A layer the image holds twice is one blob of the closure.
        let mut v3 = Image::derive_from(&base, "spcl/app:v3");
        v3.push_layer(base.layers[0].clone());
        local.commit(&v3);
        let s3 = Registry::new().push(&local, "spcl/app:v3").unwrap();
        assert_eq!((s3.blobs_transferred, s3.blobs_reused), (3, 0), "{s3:?}");
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
}
