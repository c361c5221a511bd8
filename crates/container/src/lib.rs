//! # xaas-container
//!
//! An OCI-like container substrate used by the XaaS Containers reproduction.
//!
//! The crate models the parts of the container ecosystem the paper's pipeline interacts
//! with: content-addressed blobs and digests, deterministic filesystem layers, images
//! (config + manifest with platforms and annotations), and a registry with push/pull and
//! annotation peeking.
//!
//! Nothing here shells out to a real container engine — images live in memory — but the
//! data model mirrors the OCI image spec closely enough that the XaaS arguments about
//! multi-arch vs multi-IR images, layer reuse, and deployment-time image identity can be
//! exercised and measured.
//!
//! ```
//! use xaas_container::prelude::*;
//!
//! let store = ImageStore::new();
//! let mut image = Image::new("spcl/demo:src", Platform::linux(Architecture::Amd64));
//! let mut layer = Layer::new("COPY sources");
//! layer.add_text("/app/main.ck", "kernel main() {}");
//! image.push_layer(layer);
//! image.set_deployment_format(DeploymentFormat::Source);
//! let descriptor = store.commit(&image);
//! assert!(store.has_blob(&descriptor.digest));
//! ```

#![warn(missing_docs)]

pub mod blob;
pub mod cache;
pub mod digest;
pub mod image;
pub mod layer;
pub mod oci;
pub mod registry;

/// Commonly used types re-exported together.
pub mod prelude {
    pub use crate::blob::Blob;
    pub use crate::cache::tier::{DiskTier, DiskTierConfig, DiskTierStats, TierConfig, TierError};
    pub use crate::cache::{
        ActionCache, BuildKey, CacheBackend, CacheConfigError, CacheStats, CacheTier, Derivation,
        FlightError, FlightId, FlightOutcome, FlightTicket, FlightWaker, TryBegin,
    };
    pub use crate::digest::Digest;
    pub use crate::image::{
        Image, ImageConfig, ImageError, ImageStore, Manifest, StoreGcReport, StoreStats,
        TransferStats,
    };
    pub use crate::layer::{Layer, LayerEntry, RootFs};
    pub use crate::oci::{
        annotation_keys, Architecture, DeploymentFormat, Descriptor, MediaType, Platform,
    };
    pub use crate::registry::{Reference, Registry, RegistryError};
}

pub use prelude::*;
