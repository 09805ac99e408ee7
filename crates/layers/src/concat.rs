//! Channel concatenation — Caffe's `Concat` layer (axis 1).

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `Concat` layer over the channel axis: bottoms
/// `(N, C_i, H, W)` become one `(N, sum C_i, H, W)` top.
pub struct ConcatLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    /// Per-bottom sample lengths (`C_i * H * W`).
    part_lens: Vec<usize>,
    out_sample_len: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> ConcatLayer<S> {
    /// New concat layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            part_lens: Vec::new(),
            out_sample_len: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for ConcatLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Concat"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert!(bottom.len() >= 2, "Concat: needs at least two bottoms");
        let b0 = bottom[0];
        self.batch = b0.num();
        let (h, w) = (b0.height(), b0.width());
        let mut channels = 0usize;
        self.part_lens.clear();
        for b in bottom {
            assert_eq!(b.num(), self.batch, "Concat: batch mismatch");
            assert_eq!(
                (b.height(), b.width()),
                (h, w),
                "Concat: spatial dims mismatch"
            );
            channels += b.channels();
            self.part_lens.push(b.sample_len());
        }
        self.out_sample_len = self.part_lens.iter().sum();
        vec![Shape::from(vec![self.batch, channels, h, w])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let inputs: Vec<&[S]> = bottom.iter().map(|b| b.data()).collect();
        let parts = self.part_lens.clone();
        let out_len = self.out_sample_len;
        parallel_segments(ctx, top[0].data_mut(), out_len, |s, out| {
            let mut off = 0usize;
            for (b, &plen) in inputs.iter().zip(&parts) {
                out[off..off + plen].copy_from_slice(&b[s * plen..(s + 1) * plen]);
                off += plen;
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let dy = top[0].diff();
        let out_len = self.out_sample_len;
        let mut off = 0usize;
        for (bi, b) in bottom.iter_mut().enumerate() {
            let plen = self.part_lens[bi];
            parallel_segments(ctx, b.diff_mut(), plen, |s, dx| {
                dx.copy_from_slice(&dy[s * out_len + off..s * out_len + off + plen]);
            });
            off += plen;
        }
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let elem = std::mem::size_of::<S>() as f64;
        let len = self.out_sample_len as f64;
        let pass = PassProfile {
            coalesced_iters: self.batch,
            flops_per_iter: 0.0,
            bytes_in_per_iter: len * elem,
            bytes_out_per_iter: len * elem,
            seq_flops: 0.0,
            reduction_elems: 0,
        };
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Concat".to_string(),
            forward: pass,
            backward: pass,
            batch: bottom[0].num(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn concat_forward_and_backward() {
        let mut l: ConcatLayer<f32> = ConcatLayer::new("cat");
        let a: Blob<f32> = Blob::from_data([2usize, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b: Blob<f32> = Blob::from_data(
            [2usize, 2, 1, 2],
            vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
        );
        let shapes = l.setup(&[&a, &b]);
        assert_eq!(shapes[0].dims(), &[2, 3, 1, 2]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&a, &b], &mut tops);
        assert_eq!(
            tops[0].data(),
            &[1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 3.0, 4.0, 9.0, 10.0, 11.0, 12.0]
        );
        let grads: Vec<f32> = (0..12).map(|i| i as f32).collect();
        tops[0].diff_mut().copy_from_slice(&grads);
        let trefs: Vec<&Blob<f32>> = tops.iter().collect();
        let mut bots = vec![a, b];
        l.backward(&ctx, &trefs, &mut bots);
        assert_eq!(bots[0].diff(), &[0.0, 1.0, 6.0, 7.0]);
        assert_eq!(bots[1].diff(), &[2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "spatial dims mismatch")]
    fn mismatched_spatial_panics() {
        let mut l: ConcatLayer<f32> = ConcatLayer::new("cat");
        let a: Blob<f32> = Blob::new([1usize, 1, 2, 2]);
        let b: Blob<f32> = Blob::new([1usize, 1, 3, 3]);
        let _ = l.setup(&[&a, &b]);
    }
}
