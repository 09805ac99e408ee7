//! Generic elementwise activation layer.
//!
//! ReLU, Sigmoid and TanH share their whole structure: the forward pass maps
//! each element independently and the backward pass multiplies the incoming
//! diff by a local derivative. Both passes are coalesced over
//! `(sample, channel)` segments, the granularity the paper's Figure 2
//! describes.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use std::marker::PhantomData;

/// An elementwise function with a derivative expressible from the input
/// value `x` and/or the output value `y = f(x)`.
pub trait Activation: Send + Sync + 'static {
    /// Caffe-style layer type string.
    const TYPE: &'static str;
    /// The function.
    fn f<S: Scalar>(x: S) -> S;
    /// The derivative `f'(x)`, given both `x` and `y = f(x)`.
    fn df<S: Scalar>(x: S, y: S) -> S;
    /// Flops per element of the forward pass (for the work profile).
    const FWD_FLOPS_PER_ELEM: f64;
    /// Flops per element of the backward pass.
    const BWD_FLOPS_PER_ELEM: f64;
}

/// Elementwise layer over an [`Activation`].
pub struct ActivationLayer<A: Activation> {
    name: String,
    seg_len: usize,
    n_segs: usize,
    _marker: PhantomData<A>,
}

impl<A: Activation> ActivationLayer<A> {
    /// New activation layer with the given instance name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            seg_len: 0,
            n_segs: 0,
            _marker: PhantomData,
        }
    }
}

impl<A: Activation, S: Scalar> Layer<S> for ActivationLayer<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        A::TYPE
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "{}: exactly one bottom", A::TYPE);
        self.seg_len = bottom[0].segment_len().max(1);
        self.n_segs = bottom[0].count() / self.seg_len;
        vec![bottom[0].shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let seg = self.seg_len;
        parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
            let xin = &x[i * seg..(i + 1) * seg];
            for (o, &v) in out.iter_mut().zip(xin) {
                *o = A::f(v);
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let ty = top[0].data();
        let tdiff = top[0].diff();
        let seg = self.seg_len;
        let (bdata, bdiff) = bottom[0].data_diff_mut();
        let bdata = &*bdata;
        parallel_segments(ctx, bdiff, seg, |i, out| {
            let r = i * seg..(i + 1) * seg;
            let (x, y, dy) = (&bdata[r.clone()], &ty[r.clone()], &tdiff[r]);
            for j in 0..seg {
                out[j] = dy[j] * A::df(x[j], y[j]);
            }
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let seg = self.seg_len as f64;
        let elem = std::mem::size_of::<S>() as f64;
        (
            PassProfile {
                coalesced_iters: self.n_segs,
                flops_per_iter: seg * A::FWD_FLOPS_PER_ELEM,
                bytes_in_per_iter: seg * elem,
                bytes_out_per_iter: seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.n_segs,
                flops_per_iter: seg * A::BWD_FLOPS_PER_ELEM,
                bytes_in_per_iter: 3.0 * seg * elem,
                bytes_out_per_iter: seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relu::Relu;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn setup_shapes_match_bottom() {
        let mut l: ActivationLayer<Relu> = ActivationLayer::new("relu1");
        let b: Blob<f32> = Blob::new([2usize, 3, 4, 4]);
        let shapes = <ActivationLayer<Relu> as Layer<f32>>::setup(&mut l, &[&b]);
        assert_eq!(shapes, vec![b.shape().clone()]);
    }

    #[test]
    fn forward_backward_shapes_and_values() {
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut l: ActivationLayer<Relu> = ActivationLayer::new("r");
        let mut b: Blob<f32> = Blob::from_data([1usize, 1, 2, 2], vec![-1.0, 2.0, -3.0, 4.0]);
        let shapes = l.setup(&[&b]);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        assert_eq!(tops[0].data(), &[0.0, 2.0, 0.0, 4.0]);
        tops[0].diff_mut().copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        let tref: Vec<&Blob<f32>> = tops.iter().collect();
        let mut bots = vec![std::mem::replace(&mut b, Blob::new([1usize]))];
        l.backward(&ctx, &tref, &mut bots);
        assert_eq!(bots[0].diff(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
