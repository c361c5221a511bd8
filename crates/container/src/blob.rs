//! Cheaply-clonable, immutable blob handles.
//!
//! Artifact bytes flow through the whole pipeline — store, action cache, engine
//! executor, build/deploy drivers — and used to be copied at every hand-off. A
//! [`Blob`] adopts the `Vec` its producer wrote, behind an `Arc`, so the bytes are
//! allocated once and a clone is a reference-count bump: the store, a cache hit,
//! and every graph node that consumes the output all share that one buffer.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// Cloning is O(1) (an atomic increment); the payload is shared and can never be
/// mutated, which is exactly the contract a content-addressed store needs — the
/// bytes behind a digest must not change after insertion.
#[derive(Clone)]
pub struct Blob(Arc<Vec<u8>>);

impl Blob {
    /// Adopt owned bytes: the blob holds the `Vec`'s own buffer, and the payload is
    /// not copied. A buffer with spare capacity is shrunk to its length first, so
    /// no blob holds memory beyond its bytes; a producer that writes at final size
    /// (an exact `Vec::with_capacity`, `to_vec`) pays nothing for it.
    pub fn new(mut bytes: Vec<u8>) -> Self {
        bytes.shrink_to_fit();
        Blob(Arc::new(bytes))
    }

    /// Copy a borrowed slice into a new blob. Owned bytes go to [`Blob::new`].
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Blob::new(bytes.to_vec())
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copy the payload out into an owned `Vec<u8>`.
    ///
    /// This is the explicit escape hatch for callers that genuinely need owned
    /// bytes; everything on the hot path should pass the handle along instead.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Whether two handles share the same allocation (not just equal bytes).
    /// Used by tests to prove a path is zero-copy.
    pub fn ptr_eq(a: &Blob, b: &Blob) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Self {
        Blob::new(bytes)
    }
}

impl From<&[u8]> for Blob {
    fn from(bytes: &[u8]) -> Self {
        Blob::copy_from_slice(bytes)
    }
}

impl From<String> for Blob {
    fn from(text: String) -> Self {
        Blob::new(text.into_bytes())
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        Blob::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for Blob {}

impl PartialEq<[u8]> for Blob {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Blob {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Blob {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Blob {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Blob {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Blob {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blob({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Blob::new(b"payload".to_vec());
        let b = a.clone();
        assert!(Blob::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(!a.is_empty());
    }

    #[test]
    fn equal_bytes_in_distinct_allocations_compare_equal() {
        let a = Blob::new(b"same".to_vec());
        let b = Blob::copy_from_slice(b"same");
        assert!(!Blob::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_ne!(a, Blob::new(b"other".to_vec()));
    }

    #[test]
    fn compares_against_slices_and_vectors() {
        let blob = Blob::from(b"abc".to_vec());
        assert_eq!(blob, b"abc");
        assert_eq!(blob, *b"abc");
        assert_eq!(blob, b"abc".to_vec());
        assert_eq!(blob, b"abc".as_slice());
        assert_eq!(&blob[..2], b"ab");
    }

    #[test]
    fn deref_and_to_vec_roundtrip() {
        let blob = Blob::from("text".to_string());
        assert_eq!(&blob[..], b"text");
        assert_eq!(blob.to_vec(), b"text".to_vec());
        assert_eq!(blob.as_ref(), b"text");
        let empty = Blob::new(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(format!("{blob:?}"), "Blob(4 bytes)");
    }

    #[test]
    fn new_adopts_the_vec_buffer_without_copying() {
        let bytes = b"adopted payload".to_vec();
        let data = bytes.as_ptr();
        let blob = Blob::new(bytes);
        assert_eq!(blob.as_ptr(), data, "Blob::new copied its Vec");
        assert_eq!(blob.clone().as_ptr(), data);
        assert_eq!(blob, b"adopted payload");
    }

    #[test]
    fn new_drops_spare_capacity() {
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(b"short");
        let blob = Blob::new(bytes);
        assert_eq!(blob.0.capacity(), blob.len());
        assert_eq!(blob, b"short");
    }
}
