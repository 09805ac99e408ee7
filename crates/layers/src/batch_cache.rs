//! Per-batch layer state that outlives a change of the active batch.
//!
//! Some layers keep one value per output element between passes (pooling's
//! argmax mask, LRN's scale, the dropout mask). `setup` runs again whenever
//! the net seats a different batch, so these buffers follow the blob
//! convention: allocated once at the largest extent ever seated, exposed
//! as a slice of the active extent. Rows past the active extent are never
//! visible, so a smaller batch can neither read nor pay for them.

use std::ops::{Deref, DerefMut};

/// A grow-only buffer that derefs to its first `len` elements.
pub(crate) struct BatchCache<T> {
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> BatchCache<T> {
    /// Empty cache; [`BatchCache::seat`] sizes it.
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::new(),
            len: 0,
        }
    }

    /// Expose `len` elements. Within the largest extent seated before,
    /// nothing is allocated and contents are whatever the last pass left;
    /// past it, a fresh default-filled buffer replaces the old one (a
    /// `vec!` of zeros comes from the allocator untouched, so a net that
    /// never runs — a factory's template — never makes it resident).
    pub(crate) fn seat(&mut self, len: usize) {
        if len > self.buf.len() {
            self.buf = vec![T::default(); len];
        }
        self.len = len;
    }
}

impl<T> Deref for BatchCache<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T> DerefMut for BatchCache<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seating_within_the_high_water_mark_never_reallocates() {
        let mut c: BatchCache<u32> = BatchCache::new();
        assert!(c.is_empty());
        c.seat(8);
        c.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let ptr = c.as_ptr();
        c.seat(2);
        assert_eq!(&*c, &[1, 2], "only the active extent is visible");
        c.seat(8);
        assert_eq!(c.len(), 8);
        assert_eq!(c.as_ptr(), ptr, "same allocation after shrink and regrow");
        c.seat(9);
        assert_eq!(&*c, &[0; 9], "growth past the mark starts default-filled");
    }
}
