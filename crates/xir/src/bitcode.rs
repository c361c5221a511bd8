//! Bitcode: the serialised form of XIR modules stored inside IR containers.
//!
//! The encoding is deterministic (same module → same bytes), which is what lets the XaaS
//! pipeline deduplicate IR files by content identity and lets the container store
//! address them by digest.
//!
//! [`decode`] reads bytes another process or a disk wrote, so this module
//! neither indexes nor unwraps: a short or foreign blob is an error, never a
//! panic.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

use crate::ir::IrModule;
use crate::preprocess::fnv1a;
use std::fmt;

/// Magic prefix identifying XIR bitcode blobs.
pub const MAGIC: &[u8; 4] = b"XBC1";

/// Errors decoding bitcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitcodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// The payload could not be parsed.
    Corrupt(String),
}

impl fmt::Display for BitcodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitcodeError::BadMagic => write!(f, "not an XIR bitcode blob"),
            BitcodeError::Corrupt(detail) => write!(f, "corrupt bitcode: {detail}"),
        }
    }
}

impl std::error::Error for BitcodeError {}

/// Encode a module to bitcode bytes.
pub fn encode(module: &IrModule) -> Vec<u8> {
    let payload = serde_json::to_vec(module).expect("IR modules always serialise");
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&payload);
    out
}

/// Decode bitcode bytes back into a module.
pub fn decode(bytes: &[u8]) -> Result<IrModule, BitcodeError> {
    let payload = bytes.strip_prefix(MAGIC).ok_or(BitcodeError::BadMagic)?;
    serde_json::from_slice(payload).map_err(|e| BitcodeError::Corrupt(e.to_string()))
}

/// A stable 64-bit content identity for a module (hex-encoded FNV-1a of its bitcode).
pub fn content_id(module: &IrModule) -> String {
    content_id_of(&encode(module))
}

/// [`content_id`] of the module `bytes` encode, taken from the bytes themselves:
/// for a holder of bitcode, no re-encode of what it has just decoded.
pub fn content_id_of(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::parse::parse;

    fn sample() -> IrModule {
        let unit = parse(
            "k.ck",
            "kernel void k(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 2.0; } }",
        )
        .unwrap();
        lower(&unit, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let module = sample();
        let bytes = encode(&module);
        assert_eq!(&bytes[..4], MAGIC);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, module);
    }

    #[test]
    fn content_id_is_deterministic_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(content_id(&a), content_id(&b));
        let mut c = sample();
        c.metadata.openmp = true;
        assert_ne!(content_id(&a), content_id(&c));
        assert_eq!(content_id(&a).len(), 16);
    }

    #[test]
    fn corrupt_and_foreign_blobs_are_rejected() {
        assert_eq!(decode(b"nope"), Err(BitcodeError::BadMagic));
        let mut bytes = encode(&sample());
        bytes.truncate(10);
        assert!(matches!(decode(&bytes), Err(BitcodeError::Corrupt(_))));
    }

    #[test]
    fn deeply_nested_payload_is_corrupt_not_a_stack_overflow() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[b'['; 100_000]);
        match decode(&bytes) {
            Err(BitcodeError::Corrupt(detail)) => {
                assert!(detail.contains("recursion limit exceeded"), "{detail}")
            }
            other => panic!("expected BitcodeError::Corrupt, got {other:?}"),
        }
    }
}
