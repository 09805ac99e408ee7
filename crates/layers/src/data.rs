//! Data layer: feeds batches of samples and labels into the network.
//!
//! Caffe's data layer fills the batch on one thread, and the paper (§4.3)
//! blames it for the first convolution's lost locality: one thread writes
//! every sample, then the parallel `conv1` reads most of them from another
//! core. Here `forward` fills the batch under the same static worksharing
//! loop as every other layer ([`parallel_rows`]), so thread `t` writes
//! exactly the samples of `static_chunk(t, T, batch)` — the ones `conv1`
//! hands it next. A sample is a pure function of its index
//! `(cursor + i) % n`, so the batch is the same bits at every team size.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_rows;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use omprt::DisjointSlices;

/// Source of individual training samples, implemented by the dataset crate.
///
/// `Sync` because the whole team fills one batch: each thread calls
/// [`BatchSource::fill`] for the samples of its own run.
pub trait BatchSource<S: Scalar>: Send + Sync {
    /// Total samples available (the layer wraps around).
    fn num_samples(&self) -> usize;
    /// Shape of a single sample, e.g. `(1, 28, 28)`.
    fn sample_shape(&self) -> Shape;
    /// Write sample `index`'s data into `out` and return its label.
    fn fill(&self, index: usize, out: &mut [S]) -> S;
}

/// Caffe-style data layer. No bottoms; tops: `[data (N, C, H, W),
/// labels (N)]`.
pub struct DataLayer<S: Scalar = f32> {
    name: String,
    source: Box<dyn BatchSource<S>>,
    batch: usize,
    cursor: usize,
}

impl<S: Scalar> DataLayer<S> {
    /// New data layer reading `batch`-sized batches from `source`.
    ///
    /// # Panics
    /// Panics if `batch == 0` or the source is empty.
    pub fn new(name: impl Into<String>, source: Box<dyn BatchSource<S>>, batch: usize) -> Self {
        assert!(batch > 0, "DataLayer: zero batch size");
        assert!(source.num_samples() > 0, "DataLayer: empty source");
        Self {
            name: name.into(),
            source,
            batch,
            cursor: 0,
        }
    }

    /// Current cursor position (index of the next sample to serve).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl<S: Scalar> Layer<S> for DataLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Data"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert!(bottom.is_empty(), "Data: no bottoms");
        let s = self.source.sample_shape();
        let mut dims = vec![self.batch];
        dims.extend_from_slice(s.dims());
        vec![Shape::from(dims), Shape::from(vec![self.batch])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, _bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let _span = obs::trace::span("data_load", "data");
        let (source, cursor) = (&*self.source, self.cursor);
        let n = source.num_samples();
        let (data_blob, label_blob) = {
            let (a, b) = top.split_at_mut(1);
            (&mut a[0], &mut b[0])
        };
        let sample_len = data_blob.sample_len();
        let labels = DisjointSlices::new(label_blob.data_mut(), 1);
        parallel_rows(ctx, data_blob.data_mut(), sample_len, |rows, samples| {
            // SAFETY: `parallel_rows` deals each run of samples to one
            // thread once, so no other thread holds these labels.
            let run_labels = unsafe { labels.segments_mut(rows.clone()) };
            let outs = samples.chunks_exact_mut(sample_len).zip(run_labels);
            for (i, (out, label)) in rows.zip(outs) {
                *label = source.fill((cursor + i) % n, out);
            }
        });
        self.cursor = (cursor + self.batch) % n;
    }

    fn backward(&mut self, _ctx: &ExecCtx<'_, S>, _top: &[&Blob<S>], _bottom: &mut [Blob<S>]) {
        // Data has no inputs to propagate into.
    }

    fn data_cursor(&self) -> Option<usize> {
        Some(self.cursor)
    }

    fn set_data_cursor(&mut self, cursor: usize) {
        self.cursor = cursor % self.source.num_samples();
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let sample = self.source.sample_shape().count();
        (
            PassProfile {
                // One fill per sample, ~1 op per element.
                coalesced_iters: self.batch,
                flops_per_iter: sample as f64,
                ..PassProfile::empty()
            },
            PassProfile::empty(),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::{static_chunk, ThreadTeam};
    use std::sync::{Arc, Mutex};

    /// Source where sample i is `[i, i, ...]` with label `i % 10`.
    pub(crate) struct RampSource {
        pub n: usize,
        pub shape: Shape,
    }

    impl BatchSource<f32> for RampSource {
        fn num_samples(&self) -> usize {
            self.n
        }
        fn sample_shape(&self) -> Shape {
            self.shape.clone()
        }
        fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
            mmblas::set(index as f32, out);
            (index % 10) as f32
        }
    }

    #[test]
    fn batches_advance_and_wrap() {
        let src = RampSource {
            n: 5,
            shape: Shape::from([2usize]),
        };
        let mut l = DataLayer::new("data", Box::new(src), 3);
        let shapes = l.setup(&[]);
        assert_eq!(shapes[0].dims(), &[3, 2]);
        assert_eq!(shapes[1].dims(), &[3]);
        let team = ThreadTeam::new(1);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone()), Blob::new(shapes[1].clone())];
        l.forward(&ctx, &[], &mut tops);
        assert_eq!(tops[0].data(), &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        assert_eq!(tops[1].data(), &[0.0, 1.0, 2.0]);
        l.forward(&ctx, &[], &mut tops);
        // Wraps: samples 3, 4, 0.
        assert_eq!(tops[1].data(), &[3.0, 4.0, 0.0]);
        l.set_data_cursor(0);
        l.forward(&ctx, &[], &mut tops);
        assert_eq!(tops[1].data(), &[0.0, 1.0, 2.0]);
        // Cursor save/restore resumes mid-epoch exactly.
        assert_eq!(Layer::data_cursor(&l), Some(3));
        l.set_data_cursor(4);
        l.forward(&ctx, &[], &mut tops);
        assert_eq!(tops[1].data(), &[4.0, 0.0, 1.0]);
    }

    /// Sample `i` is `[i + 0.25, i + 0.5, …]` with label `i % 10`; each fill
    /// notes which team member ran it (`omprt` names worker `t`
    /// `omprt-worker-t`; the caller is member 0).
    struct RecordingSource {
        n: usize,
        filled_by: Arc<Mutex<Vec<Option<usize>>>>,
    }

    impl RecordingSource {
        fn new(n: usize) -> Self {
            Self {
                n,
                filled_by: Arc::new(Mutex::new(vec![None; n])),
            }
        }
    }

    impl BatchSource<f32> for RecordingSource {
        fn num_samples(&self) -> usize {
            self.n
        }
        fn sample_shape(&self) -> Shape {
            Shape::from([3usize])
        }
        fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
            let member = std::thread::current()
                .name()
                .and_then(|n| n.strip_prefix("omprt-worker-"))
                .map_or(0, |t| t.parse().unwrap());
            self.filled_by.lock().unwrap()[index] = Some(member);
            for (j, v) in out.iter_mut().enumerate() {
                *v = index as f32 + 0.25 * (j + 1) as f32;
            }
            (index % 10) as f32
        }
    }

    /// Three batches from `start` on a team of `threads`: the data and
    /// label bits of each, and the cursor after each.
    fn batches(n: usize, batch: usize, threads: usize, start: usize) -> Vec<(Vec<u32>, usize)> {
        let mut l = DataLayer::new("data", Box::new(RecordingSource::new(n)), batch);
        let shapes = l.setup(&[]);
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone()), Blob::new(shapes[1].clone())];
        l.set_data_cursor(start);
        (0..3)
            .map(|_| {
                l.forward(&ctx, &[], &mut tops);
                let bits = tops[0].data().iter().chain(tops[1].data());
                (bits.map(|v| v.to_bits()).collect(), l.cursor())
            })
            .collect()
    }

    #[test]
    fn team_fill_is_the_one_thread_fill_bit_for_bit() {
        // Both shapes straddle the epoch wrap within three batches.
        for (n, batch) in [(5, 3), (7, 4)] {
            for start in [0, n - 1] {
                let want = batches(n, batch, 1, start);
                for threads in [2, 3, 4] {
                    assert_eq!(
                        batches(n, batch, threads, start),
                        want,
                        "n {n}, batch {batch}, {threads} threads, cursor {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_sample_is_filled_by_its_static_chunk_owner() {
        let (n, batch, start) = (7, 4, 5);
        for threads in [1, 2, 3, 4] {
            let src = RecordingSource::new(n);
            let filled_by = Arc::clone(&src.filled_by);
            let mut l = DataLayer::new("data", Box::new(src), batch);
            let shapes = l.setup(&[]);
            let team = ThreadTeam::new(threads);
            let ws = Workspace::<f32>::empty();
            let ctx = ExecCtx::new(&team, &ws);
            let mut tops = vec![Blob::new(shapes[0].clone()), Blob::new(shapes[1].clone())];
            l.set_data_cursor(start);
            l.forward(&ctx, &[], &mut tops);
            let filled_by = filled_by.lock().unwrap();
            for i in 0..batch {
                let owner = (0..threads).find(|&t| static_chunk(t, threads, batch).contains(&i));
                assert_eq!(
                    filled_by[(start + i) % n],
                    owner,
                    "{threads} threads, sample {i}"
                );
            }
        }
    }

    #[test]
    fn profile_is_one_coalesced_pass_over_the_batch() {
        let src = RampSource {
            n: 5,
            shape: Shape::from([2usize, 3]),
        };
        let l = DataLayer::new("data", Box::new(src), 4);
        let (fwd, bwd) = l.profile();
        assert_eq!(fwd.coalesced_iters, 4);
        assert_eq!(fwd.flops_per_iter, 6.0);
        assert_eq!(fwd.seq_flops, 0.0);
        assert_eq!(bwd, PassProfile::empty());
    }

    #[test]
    #[should_panic(expected = "zero batch")]
    fn zero_batch_panics() {
        let src = RampSource {
            n: 5,
            shape: Shape::from([1usize]),
        };
        let _ = DataLayer::new("d", Box::new(src), 0);
    }
}
