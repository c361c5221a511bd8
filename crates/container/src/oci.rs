//! OCI image-spec data model: media types, platforms, descriptors, annotations.
//!
//! The paper (Section 5.2) argues that source/IR formats should become an identifying
//! feature of the image — carried in the platform `architecture` field or in
//! annotations — so that XaaS tools can query specialization points *before* pulling
//! the image. This module provides those structures.

use crate::digest::Digest;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Media types used by the substrate, mirroring the OCI image spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MediaType {
    /// `application/vnd.oci.image.manifest.v1+json`
    ImageManifest,
    /// `application/vnd.oci.image.config.v1+json`
    ImageConfig,
    /// `application/vnd.oci.image.layer.v1.tar`
    Layer,
    /// XaaS extension: a layer that stores intermediate representation bitcode.
    IrLayer,
    /// XaaS extension: a layer that stores application source and build instructions.
    SourceLayer,
}

impl MediaType {
    /// The wire string for this media type.
    pub fn as_str(&self) -> &'static str {
        match self {
            MediaType::ImageManifest => "application/vnd.oci.image.manifest.v1+json",
            MediaType::ImageConfig => "application/vnd.oci.image.config.v1+json",
            MediaType::Layer => "application/vnd.oci.image.layer.v1.tar",
            MediaType::IrLayer => "application/vnd.xaas.image.layer.v1.ir",
            MediaType::SourceLayer => "application/vnd.xaas.image.layer.v1.source",
        }
    }
}

impl fmt::Display for MediaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// CPU architectures recognised by the image platform field.
///
/// The paper proposes extending the architecture list with IR formats (e.g. `llvm-ir`)
/// so registries can treat IR containers as first-class multi-arch variants; the XaaS
/// equivalent here is [`Architecture::XirIr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Architecture {
    /// 64-bit x86.
    Amd64,
    /// 64-bit ARM.
    Arm64,
    /// IBM POWER (little endian).
    Ppc64le,
    /// RISC-V 64-bit.
    Riscv64,
    /// XaaS extension: the image payload is architecture-independent XIR bitcode.
    XirIr,
}

impl Architecture {
    /// The wire string used in manifests.
    pub fn as_str(&self) -> &'static str {
        match self {
            Architecture::Amd64 => "amd64",
            Architecture::Arm64 => "arm64",
            Architecture::Ppc64le => "ppc64le",
            Architecture::Riscv64 => "riscv64",
            Architecture::XirIr => "xir-ir",
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Platform description attached to a manifest descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Platform {
    /// CPU architecture (or IR pseudo-architecture).
    pub architecture: Architecture,
    /// Operating system; the substrate only models Linux.
    pub os: String,
}

impl Platform {
    /// A Linux platform for the given architecture.
    pub fn linux(architecture: Architecture) -> Self {
        Self {
            architecture,
            os: "linux".to_string(),
        }
    }
}

/// A content descriptor: media type + digest + size (+ optional annotations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// Media type of the referenced blob.
    pub media_type: MediaType,
    /// Digest of the referenced blob.
    pub digest: Digest,
    /// Size in bytes of the referenced blob.
    pub size: u64,
    /// Arbitrary key/value annotations.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub annotations: BTreeMap<String, String>,
}

impl Descriptor {
    /// Build a descriptor for a blob.
    pub fn new(media_type: MediaType, digest: Digest, size: u64) -> Self {
        Self {
            media_type,
            digest,
            size,
            annotations: BTreeMap::new(),
        }
    }
}

/// Well-known annotation keys used by the XaaS tooling.
pub mod annotation_keys {
    /// JSON document with the application's specialization points (Section 5.2 proposal).
    pub const SPECIALIZATION_POINTS: &str = "dev.xaas.specialization-points";
    /// The deployment format of the image: `binary`, `source`, or `ir`.
    pub(crate) const DEPLOYMENT_FORMAT: &str = "dev.xaas.deployment-format";
    /// IR dialect and version stored in an IR container (e.g. `xir.v1`).
    pub const IR_DIALECT: &str = "dev.xaas.ir-dialect";
    /// The configuration selected when a deployed image was produced.
    pub const SELECTED_CONFIGURATION: &str = "dev.xaas.selected-configuration";
    /// The system the deployed image was specialized for.
    pub const TARGET_SYSTEM: &str = "dev.xaas.target-system";
    /// OCI standard: image title.
    pub const TITLE: &str = "org.opencontainers.image.title";
}

/// Deployment format recorded in the `dev.xaas.deployment-format` annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentFormat {
    /// Conventional container: fully compiled binaries.
    Binary,
    /// XaaS source container: source + toolchain, build at deployment.
    Source,
    /// XaaS IR container: deduplicated IR, lowered at deployment.
    Ir,
}

impl DeploymentFormat {
    /// Wire string stored in annotations.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeploymentFormat::Binary => "binary",
            DeploymentFormat::Source => "source",
            DeploymentFormat::Ir => "ir",
        }
    }

    /// Parse from the annotation value.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "binary" => Some(DeploymentFormat::Binary),
            "source" => Some(DeploymentFormat::Source),
            "ir" => Some(DeploymentFormat::Ir),
            _ => None,
        }
    }
}

impl fmt::Display for DeploymentFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A descriptor's digest is parsed: `md5:x` or a short hex payload is a read
    /// error on the text path and on the tree path alike.
    #[test]
    fn a_descriptor_naming_a_foreign_digest_does_not_read() {
        let descriptor = Descriptor::new(MediaType::Layer, Digest::of_str("layer"), 5);
        let text = serde_json::to_string(&descriptor).unwrap();
        assert_eq!(
            serde_json::from_str::<Descriptor>(&text).unwrap(),
            descriptor
        );
        for foreign in ["md5:x", "sha256:abc", "sha256"] {
            let text = text.replace(descriptor.digest.as_str(), foreign);
            assert!(serde_json::from_str::<Descriptor>(&text).is_err(), "{text}");
            let tree = serde_json::parse(&text).unwrap();
            assert!(
                serde_json::from_value::<Descriptor>(&tree).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn media_type_strings_are_stable() {
        assert_eq!(
            MediaType::ImageManifest.as_str(),
            "application/vnd.oci.image.manifest.v1+json"
        );
        assert_eq!(
            MediaType::IrLayer.as_str(),
            "application/vnd.xaas.image.layer.v1.ir"
        );
    }

    #[test]
    fn platform_builder_sets_fields() {
        let p = Platform::linux(Architecture::Arm64);
        assert_eq!(p.architecture, Architecture::Arm64);
        assert_eq!(p.os, "linux");
    }

    #[test]
    fn descriptor_annotations_roundtrip_through_json() {
        // Without annotations the key is not written, and its absence reads back
        // as the empty map.
        let mut d = Descriptor::new(MediaType::Layer, Digest::of_str("blob"), 4);
        let json = serde_json::to_string(&d).unwrap();
        assert!(!json.contains("annotations"), "{json}");
        assert_eq!(serde_json::from_str::<Descriptor>(&json).unwrap(), d);

        d.annotations.insert(
            annotation_keys::DEPLOYMENT_FORMAT.to_string(),
            DeploymentFormat::Ir.as_str().to_string(),
        );
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"annotations\":{"), "{json}");
        let back: Descriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(
            DeploymentFormat::parse(&back.annotations[annotation_keys::DEPLOYMENT_FORMAT]),
            Some(DeploymentFormat::Ir)
        );
    }

    #[test]
    fn deployment_format_parse_rejects_unknown() {
        assert_eq!(
            DeploymentFormat::parse("source"),
            Some(DeploymentFormat::Source)
        );
        assert_eq!(
            DeploymentFormat::parse("binary"),
            Some(DeploymentFormat::Binary)
        );
        assert_eq!(DeploymentFormat::parse("squashfs"), None);
    }
}
