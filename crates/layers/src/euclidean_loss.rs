//! Euclidean (L2) loss — Caffe's `EuclideanLoss` layer:
//! `loss = 1/(2N) * sum_s ||x_s - t_s||^2` over bottoms `[predictions,
//! targets]`, used for regression heads.

use crate::ctx::ExecCtx;
use crate::drivers::{parallel_map_ordered_sum, parallel_segments};
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `EuclideanLoss` layer.
pub struct EuclideanLossLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    dim: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> EuclideanLossLayer<S> {
    /// New Euclidean-loss layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            dim: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for EuclideanLossLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "EuclideanLoss"
    }

    fn is_loss(&self) -> bool {
        true
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 2, "EuclideanLoss: predictions + targets");
        assert_eq!(
            bottom[0].count(),
            bottom[1].count(),
            "EuclideanLoss: shape mismatch"
        );
        self.batch = bottom[0].num();
        self.dim = bottom[0].sample_len();
        vec![Shape::from(vec![1usize])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let t = bottom[1].data();
        let d = self.dim;
        let total = parallel_map_ordered_sum(ctx, self.batch, |s| {
            let mut acc = S::ZERO;
            for j in s * d..(s + 1) * d {
                let e = x[j] - t[j];
                acc += e * e;
            }
            acc
        });
        top[0].data_mut()[0] = total / (S::from_usize(2) * S::from_usize(self.batch.max(1)));
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        // d loss / d x = (x - t) / N; d loss / d t = -(x - t) / N.
        let w = top[0].diff()[0] / S::from_usize(self.batch.max(1));
        let d = self.dim;
        let t = bottom[1].data().to_vec();
        {
            let (bdata, bdiff) = bottom[0].data_diff_mut();
            let bdata: &[S] = bdata;
            parallel_segments(ctx, bdiff, d, |s, dx| {
                for (j, v) in dx.iter_mut().enumerate() {
                    *v = w * (bdata[s * d + j] - t[s * d + j]);
                }
            });
        }
        // Target diff (negated), for symmetry with Caffe's propagate_down.
        let x: Vec<S> = bottom[0].data().to_vec();
        parallel_segments(ctx, bottom[1].diff_mut(), d, |s, dt| {
            for (j, v) in dt.iter_mut().enumerate() {
                *v = -w * (x[s * d + j] - t[s * d + j]);
            }
        });
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let elem = std::mem::size_of::<S>() as f64;
        let d = self.dim as f64;
        LayerProfile {
            name: self.name.clone(),
            layer_type: "EuclideanLoss".to_string(),
            forward: PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: 3.0 * d,
                bytes_in_per_iter: 2.0 * d * elem,
                bytes_out_per_iter: elem,
                seq_flops: self.batch as f64,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: 4.0 * d,
                bytes_in_per_iter: 2.0 * d * elem,
                bytes_out_per_iter: 2.0 * d * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            batch: bottom[0].num(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    fn run(x: Vec<f64>, t: Vec<f64>, n: usize) -> (f64, Vec<f64>, Vec<f64>) {
        let d = x.len() / n;
        let mut l: EuclideanLossLayer<f64> = EuclideanLossLayer::new("l2");
        let bx: Blob<f64> = Blob::from_data([n, d], x);
        let bt: Blob<f64> = Blob::from_data([n, d], t);
        let shapes = l.setup(&[&bx, &bt]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&bx, &bt], &mut tops);
        let loss = tops[0].data()[0];
        tops[0].diff_mut()[0] = 1.0;
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![bx, bt];
        l.backward(&ctx, &trefs, &mut bots);
        (loss, bots[0].diff().to_vec(), bots[1].diff().to_vec())
    }

    #[test]
    fn loss_value_matches_formula() {
        // 2 samples of dim 2; errors (1,1) and (2,0).
        let (loss, _, _) = run(vec![1.0, 1.0, 2.0, 0.0], vec![0.0, 0.0, 0.0, 0.0], 2);
        assert!((loss - (2.0 + 4.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_are_error_over_n() {
        let (_, dx, dt) = run(vec![3.0, 0.0], vec![1.0, 0.0], 1);
        assert_eq!(dx, vec![2.0, 0.0]);
        assert_eq!(dt, vec![-2.0, 0.0]);
    }

    #[test]
    fn zero_error_zero_everything() {
        let (loss, dx, _) = run(vec![1.0, 2.0], vec![1.0, 2.0], 1);
        assert_eq!(loss, 0.0);
        assert_eq!(dx, vec![0.0, 0.0]);
    }
}
