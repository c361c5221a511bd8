//! Compute-once memoization cell for content digests.
//!
//! `content_digest()` on [`PreprocessedUnit`](crate::preprocess::PreprocessedUnit),
//! [`IrModule`](crate::ir::IrModule), and [`MachineModule`](crate::target::MachineModule)
//! is on the build pipeline's hot path: cache keys are derived from it at every
//! dispatch, and recomputing it re-serialises the whole module each time. A
//! [`DigestCell`] caches the first computation.
//!
//! # Invalidation model: by construction, not by mutation
//!
//! The cell is reset by every operation that produces a *new* value — `Clone`,
//! `Default`, and deserialization all yield an empty cell — so a freshly built or
//! copied module always recomputes. Mutating a module in place *after* its digest
//! was observed does **not** reset the cell; the pipeline's contract is that
//! modules are frozen once their identity has been used (lowering and passes run
//! on fresh clones). This is the same rule Nix-style derivation stores apply: an
//! identity, once derived, names an immutable artifact.

use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// A lazily-computed, thread-safe digest slot.
///
/// Equality, ordering of the containing struct, serialization, and hashing all
/// ignore the cell entirely — it is a cache, not data. Serializing a struct with
/// a `#[serde(default, skip_serializing_if = "DigestCell::skip")]` cell field
/// produces byte-identical output to the struct without the field.
#[derive(Default)]
pub struct DigestCell {
    slot: OnceLock<String>,
}

impl DigestCell {
    /// An empty (not yet computed) cell.
    pub const fn new() -> Self {
        Self {
            slot: OnceLock::new(),
        }
    }

    /// Return the memoized digest, computing and storing it on first use.
    pub fn get_or_init(&self, compute: impl FnOnce() -> String) -> String {
        self.slot.get_or_init(compute).clone()
    }

    /// Whether the digest has been computed already (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn is_computed(&self) -> bool {
        self.slot.get().is_some()
    }

    /// Always `true`: used as `skip_serializing_if` so the cell never appears in
    /// serialized output, keeping module bytes identical with or without the cell.
    pub fn skip(&self) -> bool {
        true
    }
}

impl Clone for DigestCell {
    /// Cloning yields an *empty* cell: a clone is a new value whose bytes may be
    /// about to diverge (lowering clones then vectorises), so its identity must be
    /// recomputed from its own content.
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl PartialEq for DigestCell {
    /// Cells never influence the equality of their containing struct.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DigestCell {}

impl std::fmt::Debug for DigestCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot.get() {
            Some(digest) => write!(f, "DigestCell({digest})"),
            None => write!(f, "DigestCell(<uncomputed>)"),
        }
    }
}

impl Serialize for DigestCell {
    /// Never called in practice (the field is always skipped), but required so the
    /// derive's skip codegen type-checks.
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for DigestCell {
    /// Deserialization always yields an empty cell — a decoded module recomputes
    /// its digest from the decoded content, never trusts a transported one.
    fn from_value(_value: &Value) -> Result<Self, serde::Error> {
        Ok(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_once_and_memoizes() {
        let cell = DigestCell::new();
        assert!(!cell.is_computed());
        let mut calls = 0;
        let first = cell.get_or_init(|| {
            calls += 1;
            "abc123".to_string()
        });
        assert_eq!(first, "abc123");
        assert!(cell.is_computed());
        let second = cell.get_or_init(|| unreachable!("memoized"));
        assert_eq!(second, "abc123");
        assert_eq!(calls, 1);
    }

    #[test]
    fn clone_and_default_are_empty() {
        let cell = DigestCell::new();
        cell.get_or_init(|| "seen".to_string());
        assert!(!cell.clone().is_computed(), "clone invalidates");
        assert!(!DigestCell::default().is_computed());
    }

    #[test]
    fn equality_and_serde_ignore_the_cell() {
        let computed = DigestCell::new();
        computed.get_or_init(|| "x".to_string());
        let empty = DigestCell::new();
        assert_eq!(computed, empty);
        assert!(computed.skip() && empty.skip());
        assert_eq!(computed.to_value(), Value::Null);
        let back = DigestCell::from_value(&Value::Null).unwrap();
        assert!(!back.is_computed());
    }

    #[test]
    fn debug_shows_state() {
        let cell = DigestCell::new();
        assert_eq!(format!("{cell:?}"), "DigestCell(<uncomputed>)");
        cell.get_or_init(|| "beef".to_string());
        assert_eq!(format!("{cell:?}"), "DigestCell(beef)");
    }
}
