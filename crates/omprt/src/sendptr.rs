//! Shared-pointer escape hatch plus safe disjoint-write helpers.
//!
//! Layer kernels write disjoint segments of one output blob from multiple
//! threads. Rust's aliasing rules can't express "disjoint by index math"
//! directly across a `Fn` closure, so we provide:
//!
//! * [`SendPtr`] — a `Send + Sync` raw pointer wrapper for the idiomatic
//!   HPC pattern, with safety localized to the layer kernels;
//! * [`DisjointSlices`] — a bounds-checked wrapper that hands out
//!   `&mut [T]` segments (or runs of segments) of a slice by index; that no
//!   two threads hold the same segment at once is the caller's promise.

use std::marker::PhantomData;

/// Raw mutable pointer that asserts `Send + Sync`.
///
/// # Safety contract
/// The creator promises that concurrent users write disjoint element ranges
/// and that the pointee outlives every use. All dereferences are `unsafe`
/// at the call site.
pub struct SendPtr<T> {
    ptr: *mut T,
    _marker: PhantomData<T>,
}

// Manual impls: `derive` would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the type-level contract; disjointness is the caller's promise.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: every dereference is an `unsafe` call whose caller
// promises the element ranges threads touch are disjoint.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a mutable slice's base pointer.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            _marker: PhantomData,
        }
    }

    /// Mutable subslice `[start, start + len)`.
    ///
    /// # Safety
    /// The range must be in bounds and not concurrently aliased by any other
    /// live reference.
    #[inline]
    pub unsafe fn slice_mut<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        // SAFETY: in bounds and unaliased per the method contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// A slice logically divided into `n` equal segments that may be mutably
/// borrowed concurrently from different threads, one segment per call.
///
/// This is the safe interface used for the forward pass: output blob
/// segments are disjoint by construction (`segment i` = bytes
/// `[i*len, (i+1)*len)`), so each `segment_mut(i)` touches distinct memory
/// as long as no index is requested twice concurrently — which the layer
/// drivers guarantee because each loop index is executed exactly once.
pub struct DisjointSlices<'a, T> {
    ptr: SendPtr<T>,
    seg_len: usize,
    n_segs: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> DisjointSlices<'a, T> {
    /// Divide `data` into segments of `seg_len` elements.
    ///
    /// # Panics
    /// Panics if `data.len() != n_segs * seg_len` or `seg_len == 0`.
    pub fn new(data: &'a mut [T], seg_len: usize) -> Self {
        assert!(seg_len > 0, "DisjointSlices: zero segment length");
        assert_eq!(
            data.len() % seg_len,
            0,
            "DisjointSlices: data length {} not a multiple of segment length {}",
            data.len(),
            seg_len
        );
        let n_segs = data.len() / seg_len;
        Self {
            ptr: SendPtr::new(data),
            seg_len,
            n_segs,
            _borrow: PhantomData,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.n_segs
    }

    /// `true` if there are no segments.
    pub fn is_empty(&self) -> bool {
        self.n_segs == 0
    }

    /// Mutable access to segment `i`.
    ///
    /// # Safety
    /// Each segment index must be held mutably by at most one thread at a
    /// time. The worksharing loops guarantee this by executing every index
    /// exactly once.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness by index is the contract
    pub unsafe fn segment_mut(&self, i: usize) -> &mut [T] {
        // SAFETY: the run `i..i + 1` is segment `i`, which the caller
        // promises no other thread holds.
        unsafe { self.segments_mut(i..i + 1) }
    }

    /// Mutable access to the run of segments `run`, as one contiguous slice
    /// of `run.len() * segment_len()` elements.
    ///
    /// # Safety
    /// No segment of `run` may be held mutably by another thread at the same
    /// time. [`crate::for_each_range`] guarantees this for the runs it deals:
    /// they never overlap, each goes to one thread, and the trailing barrier
    /// ends every borrow before the loop returns.
    ///
    /// # Panics
    /// Panics if `run` reaches past `len()` or is reversed.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness of runs is the contract
    pub unsafe fn segments_mut(&self, run: std::ops::Range<usize>) -> &mut [T] {
        assert!(
            run.start <= run.end && run.end <= self.n_segs,
            "DisjointSlices: segments {run:?} out of range"
        );
        // SAFETY: bounds checked above; disjointness per the method contract.
        unsafe {
            self.ptr
                .slice_mut(run.start * self.seg_len, run.len() * self.seg_len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_segments_partition_the_slice() {
        let mut v = vec![0u32; 12];
        {
            let ds = DisjointSlices::new(&mut v, 3);
            assert_eq!(ds.len(), 4);
            assert!(!ds.is_empty());
            std::thread::scope(|s| {
                for i in 0..4 {
                    let ds = &ds;
                    s.spawn(move || {
                        // SAFETY: each thread takes a different segment.
                        let seg = unsafe { ds.segment_mut(i) };
                        for x in seg {
                            *x = i as u32 + 1;
                        }
                    });
                }
            });
        }
        assert_eq!(v, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn disjoint_runs_are_contiguous_segments() {
        let mut v = vec![0u32; 12];
        {
            let ds = DisjointSlices::new(&mut v, 2);
            std::thread::scope(|s| {
                for (t, run) in [0..1, 1..4, 4..4, 4..6].into_iter().enumerate() {
                    let ds = &ds;
                    s.spawn(move || {
                        // SAFETY: the four runs do not overlap.
                        let rows = unsafe { ds.segments_mut(run.clone()) };
                        assert_eq!(rows.len(), 2 * run.len());
                        rows.fill(t as u32 + 1);
                    });
                }
            });
        }
        assert_eq!(v, [1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_past_the_end_panics() {
        let mut v = vec![0u32; 6];
        let ds = DisjointSlices::new(&mut v, 3);
        // SAFETY: the only borrow; the call panics before handing it out.
        let _ = unsafe { ds.segments_mut(1..3) };
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let mut v = vec![0u32; 10];
        let _ = DisjointSlices::new(&mut v, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_segment_panics() {
        let mut v = vec![0u32; 6];
        let ds = DisjointSlices::new(&mut v, 3);
        // SAFETY: the only borrow; the call panics before handing it out.
        let _ = unsafe { ds.segment_mut(2) };
    }

    #[test]
    fn sendptr_disjoint_writes() {
        let mut v = vec![0usize; 100];
        let p = SendPtr::new(&mut v);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    // SAFETY: thread `t` alone holds elements 25t..25t + 25.
                    let mine = unsafe { p.slice_mut(25 * t, 25) };
                    for (j, x) in mine.iter_mut().enumerate() {
                        *x = 25 * t + j;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }
}
