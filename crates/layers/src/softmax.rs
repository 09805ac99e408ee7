//! Softmax over the channel axis — Caffe's `Softmax` layer.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Numerically stable softmax of one score vector into `out`.
///
/// # Panics
/// Panics if lengths differ or the input is empty.
pub fn softmax_vec<S: Scalar>(scores: &[S], out: &mut [S]) {
    assert_eq!(scores.len(), out.len(), "softmax: length mismatch");
    assert!(!scores.is_empty(), "softmax: empty input");
    let mut m = scores[0];
    for &v in &scores[1..] {
        m = m.max_s(v);
    }
    let mut sum = S::ZERO;
    for (o, &v) in out.iter_mut().zip(scores) {
        let e = (v - m).exp();
        *o = e;
        sum += e;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Caffe `Softmax` layer (per-sample softmax over the flattened sample).
pub struct SoftmaxLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    classes: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> SoftmaxLayer<S> {
    /// New softmax layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            classes: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for SoftmaxLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Softmax"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Softmax: exactly one bottom");
        self.batch = bottom[0].num();
        self.classes = bottom[0].sample_len();
        vec![bottom[0].shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let c = self.classes;
        parallel_segments(ctx, top[0].data_mut(), c, |s, out| {
            softmax_vec(&x[s * c..(s + 1) * c], out);
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        // dx_i = y_i * (dy_i - sum_j dy_j y_j)
        let y = top[0].data();
        let dy = top[0].diff();
        let c = self.classes;
        parallel_segments(ctx, bottom[0].diff_mut(), c, |s, dx| {
            let ys = &y[s * c..(s + 1) * c];
            let dys = &dy[s * c..(s + 1) * c];
            let dot = mmblas::dot_seq(dys, ys);
            for i in 0..c {
                dx[i] = ys[i] * (dys[i] - dot);
            }
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let c = self.classes as f64;
        (
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: c * 12.0,
                bytes_in_per_iter: c * elem,
                bytes_out_per_iter: c * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: c * 4.0,
                bytes_in_per_iter: 2.0 * c * elem,
                bytes_out_per_iter: c * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_vec_sums_to_one_and_orders() {
        let mut out = [0.0f64; 3];
        softmax_vec(&[1.0, 2.0, 3.0], &mut out);
        let sum: f64 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_vec_is_shift_invariant_and_stable() {
        let mut a = [0.0f64; 3];
        let mut b = [0.0f64; 3];
        softmax_vec(&[1.0, 2.0, 3.0], &mut a);
        softmax_vec(&[1001.0, 1002.0, 1003.0], &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let mut out = [0.0f32; 10];
        softmax_vec(&[5.0f32; 10], &mut out);
        for &v in &out {
            assert!((v - 0.1).abs() < 1e-6);
        }
    }
}
