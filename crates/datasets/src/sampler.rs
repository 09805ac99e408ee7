//! Sampling utilities: deterministic shuffling and train/test splits.
//!
//! Caffe shuffles its LMDB at preparation time; we shuffle at the source
//! level with a per-epoch permutation derived from a pinned RNG, so runs
//! remain bit-reproducible (a prerequisite for every invariance experiment).

use blob::Shape;
use layers::data::BatchSource;
use mmblas::{Pcg32, Scalar};

/// A deterministic Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut rng = Pcg32::seeded(seed);
    for i in (1..n).rev() {
        let j = rng.uniform_u32((i + 1) as u32) as usize;
        p.swap(i, j);
    }
    p
}

/// Wraps a source with a fixed deterministic shuffle.
pub struct ShuffledSource<S: Scalar> {
    inner: Box<dyn BatchSource<S>>,
    perm: Vec<usize>,
}

impl<S: Scalar> ShuffledSource<S> {
    /// Shuffle `inner` with the permutation derived from `seed`.
    pub fn new(inner: Box<dyn BatchSource<S>>, seed: u64) -> Self {
        let perm = permutation(inner.num_samples(), seed);
        Self { inner, perm }
    }
}

impl<S: Scalar> BatchSource<S> for ShuffledSource<S> {
    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }

    fn sample_shape(&self) -> Shape {
        self.inner.sample_shape()
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        self.inner.fill(self.perm[index % self.perm.len()], out)
    }
}

/// A contiguous sub-range view of a source — the building block of
/// train/test splits.
pub struct SliceSource<S: Scalar> {
    inner: std::sync::Arc<dyn BatchSource<S>>,
    start: usize,
    len: usize,
}

impl<S: Scalar> SliceSource<S> {
    /// View `[start, start + len)` of `inner`.
    ///
    /// # Panics
    /// Panics if the range exceeds the source or `len == 0`.
    pub fn new(inner: std::sync::Arc<dyn BatchSource<S>>, start: usize, len: usize) -> Self {
        assert!(len > 0, "SliceSource: empty slice");
        assert!(
            start + len <= inner.num_samples(),
            "SliceSource: range {start}..{} exceeds {} samples",
            start + len,
            inner.num_samples()
        );
        Self { inner, start, len }
    }
}

impl<S: Scalar> BatchSource<S> for SliceSource<S> {
    fn num_samples(&self) -> usize {
        self.len
    }

    fn sample_shape(&self) -> Shape {
        self.inner.sample_shape()
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        self.inner.fill(self.start + (index % self.len), out)
    }
}

/// A worker's view of a data stream in synchronous data-parallel training.
///
/// The single-process reference walks the underlying source in global
/// batches of `effective_batch` samples. Rank `r` of `world` owns the
/// `r`-th contiguous slice of each global batch (`local_batch =
/// effective_batch / world` samples), so local index `L` — the `j`-th
/// sample of the worker's `t`-th local batch — maps to global sample
/// `(t * effective_batch + r * local_batch + j) % n`. With the coordinator
/// reducing per-rank gradients in rank order, the union over ranks of one
/// step's samples is *exactly* the reference step's batch, in the same
/// grouped order.
pub struct ShardedSource<S: Scalar> {
    inner: Box<dyn BatchSource<S>>,
    rank: usize,
    world: usize,
    local_batch: usize,
    effective_batch: usize,
}

impl<S: Scalar> ShardedSource<S> {
    /// Shard `inner` for `rank` of `world` workers stepping in global
    /// batches of `effective_batch`.
    ///
    /// # Panics
    /// Panics unless `rank < world`, `effective_batch` is a positive
    /// multiple of `world`, and the sample count is a positive multiple of
    /// `effective_batch` (so epoch wrap-around lands on a batch boundary
    /// for every rank simultaneously).
    pub fn new(
        inner: Box<dyn BatchSource<S>>,
        rank: usize,
        world: usize,
        effective_batch: usize,
    ) -> Self {
        assert!(rank < world, "ShardedSource: rank {rank} >= world {world}");
        assert!(
            effective_batch > 0 && effective_batch.is_multiple_of(world),
            "ShardedSource: effective batch {effective_batch} not divisible by world {world}"
        );
        let n = inner.num_samples();
        assert!(
            n > 0 && n.is_multiple_of(effective_batch),
            "ShardedSource: {n} samples not a multiple of effective batch {effective_batch}"
        );
        Self {
            inner,
            rank,
            world,
            local_batch: effective_batch / world,
            effective_batch,
        }
    }
}

impl<S: Scalar> BatchSource<S> for ShardedSource<S> {
    fn num_samples(&self) -> usize {
        self.inner.num_samples() / self.world
    }

    fn sample_shape(&self) -> Shape {
        self.inner.sample_shape()
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        let index = index % self.num_samples();
        let t = index / self.local_batch;
        let j = index % self.local_batch;
        let global = t * self.effective_batch + self.rank * self.local_batch + j;
        self.inner.fill(global % self.inner.num_samples(), out)
    }
}

/// Split a source into `(train, test)` views, with the first
/// `train_fraction` of samples for training.
///
/// # Panics
/// Panics unless `0 < train_fraction < 1` produces two non-empty halves.
pub fn train_test_split<S: Scalar>(
    source: std::sync::Arc<dyn BatchSource<S>>,
    train_fraction: f64,
) -> (SliceSource<S>, SliceSource<S>) {
    let n = source.num_samples();
    let n_train = ((n as f64) * train_fraction) as usize;
    assert!(
        n_train > 0 && n_train < n,
        "train_test_split: fraction {train_fraction} leaves an empty side of {n} samples"
    );
    (
        SliceSource::new(source.clone(), 0, n_train),
        SliceSource::new(source, n_train, n - n_train),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticMnist;
    use std::sync::Arc;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [0usize, 1, 2, 17, 100] {
            let p = permutation(n, 9);
            let mut seen = vec![false; n];
            for &i in &p {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_seed_sensitive() {
        assert_eq!(permutation(50, 1), permutation(50, 1));
        assert_ne!(permutation(50, 1), permutation(50, 2));
    }

    #[test]
    fn shuffled_source_reorders_without_losing_samples() {
        let base = SyntheticMnist::new(40, 3);
        let shuffled = ShuffledSource::new(Box::new(base.clone()), 7);
        let mut labels_base: Vec<u32> = (0..40).map(|i| base.label_of(i) as u32).collect();
        let mut buf = vec![0.0f32; 28 * 28];
        let mut labels_shuf: Vec<u32> = (0..40)
            .map(|i| BatchSource::<f32>::fill(&shuffled, i, &mut buf) as u32)
            .collect();
        assert_ne!(labels_base, labels_shuf, "shuffle did nothing");
        labels_base.sort_unstable();
        labels_shuf.sort_unstable();
        assert_eq!(labels_base, labels_shuf, "samples lost or duplicated");
    }

    #[test]
    fn split_partitions_the_stream() {
        let base: Arc<dyn BatchSource<f32>> = Arc::new(SyntheticMnist::new(50, 1));
        let (train, test) = train_test_split(base.clone(), 0.8);
        assert_eq!(BatchSource::<f32>::num_samples(&train), 40);
        assert_eq!(BatchSource::<f32>::num_samples(&test), 10);
        let mut a = vec![0.0f32; 28 * 28];
        let mut b = vec![0.0f32; 28 * 28];
        // test[0] == base[40]
        let lt = test.fill(0, &mut a);
        let lb = base.fill(40, &mut b);
        assert_eq!(lt, lb);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty side")]
    fn degenerate_split_panics() {
        let base: Arc<dyn BatchSource<f32>> = Arc::new(SyntheticMnist::new(3, 1));
        let _ = train_test_split(base, 0.01);
    }

    #[test]
    fn sharded_ranks_tile_each_global_batch() {
        // world 2, effective batch 8 over 16 samples: rank 0's batches must
        // be [0..4), [8..12) and rank 1's [4..8), [12..16).
        let shard = |rank: usize| -> Vec<u32> {
            let s = ShardedSource::new(Box::new(SyntheticMnist::new(16, 5)), rank, 2, 8);
            assert_eq!(BatchSource::<f32>::num_samples(&s), 8);
            let mut buf = vec![0.0f32; 28 * 28];
            (0..8).map(|i| s.fill(i, &mut buf) as u32).collect()
        };
        let base = SyntheticMnist::new(16, 5);
        let label = |g: usize| base.label_of(g) as u32;
        let want0: Vec<u32> = [0, 1, 2, 3, 8, 9, 10, 11]
            .iter()
            .map(|&g| label(g))
            .collect();
        let want1: Vec<u32> = [4, 5, 6, 7, 12, 13, 14, 15]
            .iter()
            .map(|&g| label(g))
            .collect();
        assert_eq!(shard(0), want0);
        assert_eq!(shard(1), want1);
    }

    #[test]
    fn sharded_wraps_on_batch_boundary() {
        let s = ShardedSource::<f32>::new(Box::new(SyntheticMnist::new(16, 5)), 1, 2, 8);
        let base = SyntheticMnist::new(16, 5);
        let mut a = vec![0.0f32; 28 * 28];
        let mut b = vec![0.0f32; 28 * 28];
        // Local index 8 wraps to local index 0 -> global sample 4.
        let lw = s.fill(8, &mut a);
        let l0 = base.fill(4, &mut b);
        assert_eq!(lw, l0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a multiple of effective batch")]
    fn sharded_rejects_ragged_dataset() {
        let _ = ShardedSource::<f32>::new(Box::new(SyntheticMnist::new(20, 5)), 0, 2, 8);
    }
}
