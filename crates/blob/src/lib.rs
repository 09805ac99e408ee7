//! `blob` — the Caffe `Blob` equivalent.
//!
//! A [`Blob`] is an N-dimensional dense array stored C-contiguously, holding
//! two parallel buffers: `data` (activations / weights) and `diff`
//! (gradients). The conventional layout for image batches is
//! `N x C x H x W`, and the value at `(n, c, h, w)` lives at linear index
//! `((n * C + c) * H + h) * W + w` — exactly the Caffe convention the paper's
//! Figure 1 describes.
//!
//! Beyond Caffe's API we expose *segment views*: the per-sample and
//! per-(sample, channel) sub-slices that the coarse-grain parallelization
//! distributes across threads.
//!
//! Both buffers are `Arc`-backed with copy-on-write semantics: cloning a
//! blob shares the underlying storage, and the first mutable access
//! (`Arc::make_mut`) copies only when the storage is actually shared. This
//! is what lets serving-engine replicas read one decoded parameter set —
//! the paper's single-weight-copy invariant — while training code, whose
//! blobs are uniquely owned, pays nothing but a refcount check.
//!
//! The buffers may be *larger* than the shape (Caffe's `Reshape`
//! convention): [`Blob::resize`] to a smaller shape keeps the allocation
//! and every accessor exposes only the first `count()` elements, so a
//! serving net can seat a batch of `n <= capacity` samples without
//! touching the allocator.
//!
//! ```
//! use blob::Blob;
//!
//! let mut b: Blob<f32> = Blob::new([2usize, 3, 4, 4]);
//! assert_eq!(b.count(), 96);
//! assert_eq!(b.offset(1, 2, 0, 0), (1 * 3 + 2) * 16);
//! assert_eq!(b.segment_len(), 16);      // one (sample, channel) plane
//! b.data_mut()[0] = 1.0;
//! b.diff_mut()[0] = 0.25;
//! b.update();                           // data -= diff
//! assert_eq!(b.data()[0], 0.75);
//! ```

pub mod shape;

pub use shape::Shape;

use mmblas::Scalar;
use std::sync::Arc;

/// N-dimensional array with paired `data`/`diff` storage.
///
/// Clones share storage (`Arc`); the first write through a `*_mut`
/// accessor detaches a private copy (`Arc::make_mut`). A blob that is the
/// sole owner of its buffers mutates in place with no copying.
#[derive(Debug, Clone)]
pub struct Blob<S: Scalar = f32> {
    shape: Shape,
    /// Both buffers hold `capacity() >= shape.count()` elements; every
    /// accessor slices them to `count()`.
    data: Arc<Vec<S>>,
    diff: Arc<Vec<S>>,
}

impl<S: Scalar> PartialEq for Blob<S> {
    /// Logical equality: shape and the `count()` live elements of both
    /// buffers. Spare capacity is not part of a blob's value.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data() && self.diff() == other.diff()
    }
}

impl<S: Scalar> Default for Blob<S> {
    /// An empty blob (zero axes of extent zero); used as the placeholder
    /// when the network temporarily moves blobs out of its arena.
    fn default() -> Self {
        Self {
            shape: Shape::from(vec![0usize]),
            data: Arc::new(Vec::new()),
            diff: Arc::new(Vec::new()),
        }
    }
}

impl<S: Scalar> Blob<S> {
    /// Zero-filled blob of the given shape.
    pub fn new(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let count = shape.count();
        Self {
            shape,
            data: Arc::new(vec![S::ZERO; count]),
            diff: Arc::new(vec![S::ZERO; count]),
        }
    }

    /// Blob with the given data contents and zeroed diff.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_data(shape: impl Into<Shape>, data: Vec<S>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.count(),
            "Blob::from_data: {} elements for shape {:?}",
            data.len(),
            shape
        );
        let count = data.len();
        Self {
            shape,
            data: Arc::new(data),
            diff: Arc::new(vec![S::ZERO; count]),
        }
    }

    /// The blob's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.shape.count()
    }

    /// Elements each buffer has allocated; [`Blob::resize`] to any shape
    /// of at most this many elements reuses the allocation.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Element count over axes `[from, to)` — Caffe's `count(start, end)`.
    pub fn count_range(&self, from: usize, to: usize) -> usize {
        self.shape.count_range(from, to)
    }

    /// Batch size (axis 0); `1` for a scalar blob.
    pub fn num(&self) -> usize {
        self.shape.dim_or(0, 1)
    }

    /// Channels (axis 1); `1` when absent.
    pub fn channels(&self) -> usize {
        self.shape.dim_or(1, 1)
    }

    /// Height (axis 2); `1` when absent.
    pub fn height(&self) -> usize {
        self.shape.dim_or(2, 1)
    }

    /// Width (axis 3); `1` when absent.
    pub fn width(&self) -> usize {
        self.shape.dim_or(3, 1)
    }

    /// Linear offset of `(n, c, h, w)` — Caffe's `offset()`.
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.num() && c < self.channels() && h < self.height() && w < self.width()
        );
        ((n * self.channels() + c) * self.height() + h) * self.width() + w
    }

    /// Resize to a new shape (Caffe's `Reshape`). A shape that fits the
    /// current [`Blob::capacity`] only changes the logical shape: no
    /// allocation, no zero-fill, and the elements that stay in range keep
    /// their values. A larger one reallocates both buffers zero-filled.
    pub fn resize(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        let count = shape.count();
        if count > self.capacity() {
            self.data = Arc::new(vec![S::ZERO; count]);
            self.diff = Arc::new(vec![S::ZERO; count]);
        }
        self.shape = shape;
    }

    /// Immutable view of the data buffer.
    pub fn data(&self) -> &[S] {
        &self.data[..self.shape.count()]
    }

    /// Mutable view of the data buffer. Detaches a private copy first if
    /// the buffer is shared with another blob (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut Arc::make_mut(&mut self.data)[..self.shape.count()]
    }

    /// Immutable view of the diff (gradient) buffer.
    pub fn diff(&self) -> &[S] {
        &self.diff[..self.shape.count()]
    }

    /// Mutable view of the diff buffer. Detaches a private copy first if
    /// the buffer is shared with another blob (copy-on-write).
    pub fn diff_mut(&mut self) -> &mut [S] {
        &mut Arc::make_mut(&mut self.diff)[..self.shape.count()]
    }

    /// Simultaneous mutable borrows of data and diff (they are disjoint).
    pub fn data_diff_mut(&mut self) -> (&mut [S], &mut [S]) {
        let count = self.count();
        (
            &mut Arc::make_mut(&mut self.data)[..count],
            &mut Arc::make_mut(&mut self.diff)[..count],
        )
    }

    /// True when this blob's data buffer is the same allocation as
    /// `other`'s (i.e. a copy-on-write clone that has not yet detached) —
    /// the property the shared-weight serving tests pin down.
    pub fn data_shared_with(&self, other: &Blob<S>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// True when this blob's diff buffer is shared with `other`'s.
    pub fn diff_shared_with(&self, other: &Blob<S>) -> bool {
        Arc::ptr_eq(&self.diff, &other.diff)
    }

    /// Heap bytes this blob is the *sole* owner of: shared buffers are
    /// counted as 0 here because another blob already pays for them. Used
    /// by the replica memory accounting.
    pub fn unique_bytes(&self) -> usize {
        let per_buf = self.capacity() * std::mem::size_of::<S>();
        let mut total = 0;
        if Arc::strong_count(&self.data) == 1 {
            total += per_buf;
        }
        if Arc::strong_count(&self.diff) == 1 {
            total += per_buf;
        }
        total
    }

    /// Elements per sample (`count / num`); `0` for an empty blob.
    pub fn sample_len(&self) -> usize {
        if self.num() == 0 {
            0
        } else {
            self.count() / self.num()
        }
    }

    /// Data slice of sample `n`.
    pub fn sample_data(&self, n: usize) -> &[S] {
        let len = self.sample_len();
        &self.data()[n * len..(n + 1) * len]
    }

    /// Elements per `(sample, channel)` segment — the blob "segment" of the
    /// paper's Figures 1-2 (`H * W` for 4-D blobs).
    pub fn segment_len(&self) -> usize {
        self.height() * self.width()
    }

    /// Number of `(sample, channel)` segments: `num * channels`.
    pub fn num_segments(&self) -> usize {
        self.num() * self.channels()
    }

    /// Data slice of segment `(n, c)`.
    pub fn segment_data(&self, n: usize, c: usize) -> &[S] {
        let len = self.segment_len();
        let start = self.offset(n, c, 0, 0);
        &self.data()[start..start + len]
    }

    /// Zero the diff buffer — `caffe_zero` on the privatized gradients
    /// (Algorithm 5, line 5).
    pub fn zero_diff(&mut self) {
        mmblas::zero(self.diff_mut());
    }

    /// Caffe's `Blob::Update`: `data -= diff` (the diff already holds the
    /// solver-scaled step).
    pub fn update(&mut self) {
        // Only `data` is written: a shared `diff` stays shared.
        let count = self.count();
        let diff = &self.diff[..count];
        for (d, &g) in Arc::make_mut(&mut self.data)[..count].iter_mut().zip(diff) {
            *d -= g;
        }
    }

    /// Heap footprint in bytes (both buffers, at their allocated
    /// capacity) — used by the memory-overhead experiment (paper §3.2.1).
    pub fn bytes(&self) -> usize {
        2 * self.capacity() * std::mem::size_of::<S>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_matches_caffe_formula() {
        let b: Blob<f32> = Blob::new([2usize, 3, 4, 5]);
        // ((n*K + k)*H + h)*W + w
        assert_eq!(b.offset(1, 2, 3, 4), (((3 + 2) * 4) + 3) * 5 + 4);
        assert_eq!(b.offset(0, 0, 0, 0), 0);
        assert_eq!(b.offset(1, 2, 3, 4), b.count() - 1);
    }

    #[test]
    fn legacy_accessors_pad_with_one() {
        let b: Blob<f32> = Blob::new([10usize, 500]);
        assert_eq!(b.num(), 10);
        assert_eq!(b.channels(), 500);
        assert_eq!(b.height(), 1);
        assert_eq!(b.width(), 1);
        assert_eq!(b.sample_len(), 500);
    }

    #[test]
    fn sample_and_segment_views() {
        let mut b: Blob<f32> = Blob::new([2usize, 3, 2, 2]);
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        assert_eq!(b.sample_data(1)[0], 12.0);
        assert_eq!(b.segment_data(1, 2), &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(b.num_segments(), 6);
        assert_eq!(b.segment_len(), 4);
    }

    #[test]
    fn update_subtracts_diff() {
        let mut b: Blob<f32> = Blob::from_data([3usize], vec![1.0, 2.0, 3.0]);
        b.diff_mut().copy_from_slice(&[0.5, 0.5, 0.5]);
        b.update();
        assert_eq!(b.data(), &[0.5, 1.5, 2.5]);
    }

    #[test]
    fn resize_reallocates() {
        let mut b: Blob<f32> = Blob::from_data([2usize], vec![1.0, 2.0]);
        b.resize([4usize]);
        assert_eq!(b.count(), 4);
        assert_eq!(b.data(), &[0.0; 4]);
    }

    #[test]
    fn resize_within_capacity_keeps_the_allocation_and_the_prefix() {
        let mut b: Blob<f32> = Blob::from_data([4usize, 2], (0..8).map(|i| i as f32).collect());
        b.diff_mut().fill(1.0);
        let (data_ptr, diff_ptr) = (b.data().as_ptr(), b.diff().as_ptr());
        b.resize([1usize, 2]);
        assert_eq!((b.num(), b.count(), b.capacity()), (1, 2, 8));
        assert_eq!(b.data(), &[0.0, 1.0], "only the live prefix is visible");
        assert_eq!(b.diff().len(), 2);
        assert_eq!(b.bytes(), 2 * 8 * 4, "the heap footprint is the capacity");
        // Whole-buffer writes stop at the logical end ...
        b.data_mut().fill(0.0);
        b.resize([4usize, 2]);
        // ... so growing back exposes the old rows, not zeros, in place.
        assert_eq!(b.data(), &[0.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(
            (b.data().as_ptr(), b.diff().as_ptr()),
            (data_ptr, diff_ptr),
            "no reallocation within capacity"
        );
    }

    #[test]
    #[should_panic]
    fn rows_beyond_the_logical_shape_are_out_of_bounds() {
        let mut b: Blob<f32> = Blob::new([4usize, 2]);
        b.resize([2usize, 2]);
        let _ = b.sample_data(2);
    }

    #[test]
    fn equality_ignores_spare_capacity() {
        let mut big: Blob<f32> = Blob::from_data([3usize], vec![1.0, 2.0, 3.0]);
        big.resize([2usize]);
        assert_eq!(big, Blob::from_data([2usize], vec![1.0, 2.0]));
    }

    #[test]
    fn bytes_accounting() {
        let b: Blob<f32> = Blob::new([10usize, 10]);
        assert_eq!(b.bytes(), 2 * 100 * 4);
    }

    #[test]
    fn clone_shares_storage_until_first_write() {
        let a: Blob<f32> = Blob::from_data([4usize], vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.clone();
        assert!(a.data_shared_with(&b));
        assert!(a.diff_shared_with(&b));
        // Shared buffers are charged to one owner only.
        assert_eq!(a.unique_bytes(), 0);
        assert_eq!(b.unique_bytes(), 0);
        assert_eq!(a.bytes(), 2 * 4 * 4, "logical bytes unaffected by sharing");
    }

    #[test]
    fn write_detaches_writer_only() {
        let a: Blob<f32> = Blob::from_data([3usize], vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert!(!a.data_shared_with(&b), "writer detached its data buffer");
        assert!(a.diff_shared_with(&b), "untouched diff stays shared");
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "original bits untouched");
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
        // Reads never detach.
        let c = a.clone();
        let _ = c.data();
        let _ = c.sample_data(0);
        assert!(a.data_shared_with(&c));
    }

    #[test]
    fn cow_update_and_zero_do_not_alias() {
        let a: Blob<f32> = Blob::from_data([2usize], vec![1.0, 1.0]);
        let mut b = a.clone();
        b.diff_mut().copy_from_slice(&[0.25, 0.25]);
        b.update();
        assert_eq!(b.data(), &[0.75, 0.75]);
        assert_eq!(a.data(), &[1.0, 1.0]);
        let mut d = a.clone();
        d.data_mut().fill(0.0);
        assert_eq!(a.data(), &[1.0, 1.0]);
        assert_eq!(d.data(), &[0.0, 0.0]);
    }

    #[test]
    fn unique_owner_mutates_in_place() {
        let mut a: Blob<f32> = Blob::from_data([2usize], vec![1.0, 2.0]);
        let before = a.data().as_ptr();
        a.data_mut()[0] = 5.0;
        assert_eq!(a.data().as_ptr(), before, "no copy when uniquely owned");
        assert_eq!(a.unique_bytes(), a.bytes());
    }

    #[test]
    fn zero_diff_clears_the_gradient() {
        let mut b: Blob<f64> = Blob::from_data([2usize], vec![2.0, 4.0]);
        b.diff_mut().copy_from_slice(&[1.0, 1.0]);
        b.zero_diff();
        assert_eq!(b.diff(), &[0.0, 0.0]);
        assert_eq!(b.data(), &[2.0, 4.0]);
    }
}
