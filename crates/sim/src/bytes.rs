//! Shared-ownership byte windows for zero-copy artifact loading.
//!
//! The suite image is read into one heap buffer and every borrowed
//! artifact — most importantly the byte-wide trace sequences behind
//! [`crate::BranchTrace::seq`] — is served as a window into that
//! buffer. [`ByteView`] is that window: an `Arc<Vec<u8>>` plus a
//! bounds-checked `(offset, length)` pair, so a mounted trace holds the
//! image alive without copying a byte and without any self-referential
//! lifetime plumbing.

use std::sync::Arc;

/// A cheaply clonable, owned window into a shared byte buffer.
///
/// Equality and ordering are over the viewed bytes, not the backing
/// buffer identity, so two views of identical content compare equal
/// regardless of which buffer serves them.
#[derive(Clone)]
pub struct ByteView {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl ByteView {
    /// A window of `len` bytes starting at `off`, or `None` when the
    /// range falls outside `buf` (corrupt section table).
    pub fn new(buf: Arc<Vec<u8>>, off: usize, len: usize) -> Option<ByteView> {
        let end = off.checked_add(len)?;
        if end > buf.len() {
            return None;
        }
        Some(ByteView { buf, off, len })
    }

    /// Wraps a whole owned buffer (the degenerate single-view case).
    pub fn from_vec(bytes: Vec<u8>) -> ByteView {
        let len = bytes.len();
        ByteView {
            buf: Arc::new(bytes),
            off: 0,
            len,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for ByteView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for ByteView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteView")
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &ByteView) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ByteView {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_bounds_checked() {
        let buf = Arc::new(vec![1u8, 2, 3, 4]);
        let v = ByteView::new(buf.clone(), 1, 2).unwrap();
        assert_eq!(v.as_slice(), &[2, 3]);
        assert_eq!(v.len(), 2);
        assert!(ByteView::new(buf.clone(), 3, 2).is_none());
        assert!(ByteView::new(buf.clone(), usize::MAX, 2).is_none());
        assert!(ByteView::new(buf, 4, 0).unwrap().is_empty());
    }

    #[test]
    fn equality_is_over_content() {
        let a = ByteView::from_vec(vec![9, 9, 7]);
        let b = ByteView::new(Arc::new(vec![0, 9, 9, 7, 0]), 1, 3).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, ByteView::from_vec(vec![9, 9]));
    }
}
