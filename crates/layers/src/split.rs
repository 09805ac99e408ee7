//! Fan-out — Caffe's `Split` layer: one bottom copied to N tops; the
//! backward pass *sums* the top diffs, which is how Caffe (and we) support
//! blobs consumed by multiple gradient-producing layers.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `Split` layer with a configurable number of tops.
pub struct SplitLayer<S: Scalar = f32> {
    name: String,
    n_tops: usize,
    seg_len: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> SplitLayer<S> {
    /// New split producing `n_tops` copies.
    ///
    /// # Panics
    /// Panics if `n_tops == 0`.
    pub fn new(name: impl Into<String>, n_tops: usize) -> Self {
        assert!(n_tops > 0, "Split: need at least one top");
        Self {
            name: name.into(),
            n_tops,
            seg_len: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for SplitLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Split"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Split: exactly one bottom");
        self.seg_len = bottom[0].sample_len().max(1);
        vec![bottom[0].shape().clone(); self.n_tops]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let seg = self.seg_len;
        for t in top.iter_mut() {
            parallel_segments(ctx, t.data_mut(), seg, |s, out| {
                out.copy_from_slice(&x[s * seg..(s + 1) * seg]);
            });
        }
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let seg = self.seg_len;
        let diffs: Vec<&[S]> = top.iter().map(|t| t.diff()).collect();
        parallel_segments(ctx, bottom[0].diff_mut(), seg, |s, dx| {
            let base = s * seg;
            for (j, d) in dx.iter_mut().enumerate() {
                let mut acc = S::ZERO;
                for dy in &diffs {
                    acc += dy[base + j];
                }
                *d = acc;
            }
        });
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let b = bottom[0];
        let elem = std::mem::size_of::<S>() as f64;
        let len = b.sample_len() as f64;
        let k = self.n_tops as f64;
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Split".to_string(),
            forward: PassProfile {
                coalesced_iters: b.num(),
                flops_per_iter: 0.0,
                bytes_in_per_iter: len * elem,
                bytes_out_per_iter: len * k * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: b.num(),
                flops_per_iter: len * k,
                bytes_in_per_iter: len * k * elem,
                bytes_out_per_iter: len * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            batch: b.num(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn split_copies_and_sums_gradients() {
        let mut l: SplitLayer<f32> = SplitLayer::new("split", 3);
        let b: Blob<f32> = Blob::from_data([2usize, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes.len(), 3);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops: Vec<Blob<f32>> = shapes.iter().map(|s| Blob::new(s.clone())).collect();
        l.forward(&ctx, &[&b], &mut tops);
        for t in &tops {
            assert_eq!(t.data(), b.data());
        }
        for (i, t) in tops.iter_mut().enumerate() {
            let v = (i + 1) as f32;
            mmblas::set(v, t.diff_mut());
        }
        let trefs: Vec<&Blob<f32>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        // 1 + 2 + 3 = 6 everywhere.
        assert_eq!(bots[0].diff(), &[6.0; 4]);
    }
}
