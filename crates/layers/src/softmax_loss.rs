//! Fused softmax + multinomial logistic loss — Caffe's `SoftmaxWithLoss`,
//! the `loss` layer of both paper networks.
//!
//! Forward: per-sample softmax probabilities (cached), then
//! `loss = -(1/N) * sum_s ln p_s[label_s]`, summed sequentially in sample
//! order so the reported loss is deterministic — this is the value the paper
//! says developers monitor to validate the parallelization.
//! Backward: `dx_s = (p_s - onehot(label_s)) * loss_weight / N` — disjoint
//! per sample.

use crate::batch_cache::BatchCache;
use crate::ctx::ExecCtx;
use crate::drivers::{parallel_map_ordered_sum, parallel_segments};
use crate::profile::PassProfile;
use crate::softmax::softmax_vec;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `SoftmaxWithLoss` layer.
///
/// Bottoms: `[scores (N, C), labels (N)]` (labels stored as scalars).
/// Top: `[loss (1)]`.
pub struct SoftmaxLossLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    classes: usize,
    /// Cached probabilities from the forward pass.
    prob: BatchCache<S>,
}

impl<S: Scalar> SoftmaxLossLayer<S> {
    /// New fused softmax-loss layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            classes: 0,
            prob: BatchCache::new(),
        }
    }

    /// The cached per-sample class probabilities (after `forward`).
    pub fn probabilities(&self) -> &[S] {
        &self.prob
    }
}

/// Caffe's clamp against `ln(0)`: `FLT_MIN`, the smallest normal `f32`,
/// for either precision.
const LOG_FLOOR: f64 = f32::MIN_POSITIVE as f64;

impl<S: Scalar> Layer<S> for SoftmaxLossLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "SoftmaxWithLoss"
    }

    fn is_loss(&self) -> bool {
        true
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 2, "SoftmaxWithLoss: scores + labels");
        self.batch = bottom[0].num();
        self.classes = bottom[0].sample_len();
        assert_eq!(
            bottom[1].count(),
            self.batch,
            "SoftmaxWithLoss: one label per sample"
        );
        self.prob.seat(bottom[0].count());
        vec![Shape::from(vec![1usize])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let labels = bottom[1].data();
        let c = self.classes;
        parallel_segments(ctx, &mut self.prob, c, |s, p| {
            softmax_vec(&x[s * c..(s + 1) * c], p);
        });
        let prob = &self.prob;
        let floor = S::from_f64(LOG_FLOOR);
        let total = parallel_map_ordered_sum(ctx, self.batch, |s| {
            let label = labels[s].to_f64() as usize;
            debug_assert!(label < c, "label {label} out of range");
            -(prob[s * c + label].max_s(floor)).ln()
        });
        top[0].data_mut()[0] = total / S::from_usize(self.batch.max(1));
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let loss_weight = top[0].diff()[0];
        let scale = loss_weight / S::from_usize(self.batch.max(1));
        let labels: Vec<usize> = bottom[1]
            .data()
            .iter()
            .map(|l| l.to_f64() as usize)
            .collect();
        let prob = &self.prob;
        let c = self.classes;
        // Split so bottom[0] is mutable while labels came from bottom[1].
        let (b0, _rest) = bottom.split_at_mut(1);
        parallel_segments(ctx, b0[0].diff_mut(), c, |s, dx| {
            let p = &prob[s * c..(s + 1) * c];
            for (i, d) in dx.iter_mut().enumerate() {
                let delta = if i == labels[s] { S::ONE } else { S::ZERO };
                *d = (p[i] - delta) * scale;
            }
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let c = self.classes as f64;
        (
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: c * 12.0 + 25.0,
                bytes_in_per_iter: c * elem,
                bytes_out_per_iter: c * elem,
                // Final in-order sum over the batch.
                seq_flops: self.batch as f64,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: c * 2.0,
                bytes_in_per_iter: c * elem,
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
    use crate::workspace::Workspace;
    use crate::ReductionMode;
    use omprt::ThreadTeam;

    fn run(
        threads: usize,
        scores: Vec<f64>,
        labels: Vec<f64>,
        n: usize,
        c: usize,
    ) -> (f64, Vec<f64>) {
        run_under(ReductionMode::Ordered, threads, scores, labels, n, c)
    }

    fn run_under(
        mode: ReductionMode,
        threads: usize,
        scores: Vec<f64>,
        labels: Vec<f64>,
        n: usize,
        c: usize,
    ) -> (f64, Vec<f64>) {
        let mut l: SoftmaxLossLayer<f64> = SoftmaxLossLayer::new("loss");
        let b0: Blob<f64> = Blob::from_data([n, c], scores);
        let b1: Blob<f64> = Blob::from_data([n], labels);
        let shapes = l.setup(&[&b0, &b1]);
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b0, &b1], &mut tops);
        let loss = tops[0].data()[0];
        tops[0].diff_mut()[0] = 1.0;
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b0, b1];
        l.backward(&ctx, &trefs, &mut bots);
        (loss, bots[0].diff().to_vec())
    }

    #[test]
    fn uniform_scores_give_ln_c() {
        let (loss, _) = run(1, vec![0.0; 4 * 10], vec![0.0, 1.0, 2.0, 3.0], 4, 10);
        assert!((loss - (10.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn loss_floor_is_flt_min() {
        // Score gaps that give the true label a probability of 1e-30 (above
        // FLT_MIN: no clamp) and of 1e-40 (below it: clamped to FLT_MIN).
        for (p, want) in [(1e-30f64, 1e-30f64), (1e-40, f32::MIN_POSITIVE as f64)] {
            let (loss, _) = run(1, vec![0.0, p.ln()], vec![1.0], 1, 2);
            assert!(
                (loss + want.ln()).abs() < 1e-9,
                "p {p}: loss {loss}, want {}",
                -want.ln()
            );
        }
    }

    #[test]
    fn backward_is_prob_minus_onehot_over_n() {
        let (_, dx) = run(1, vec![0.0; 2 * 2], vec![0.0, 1.0], 2, 2);
        // p = 0.5 everywhere; dx = (0.5 - onehot)/2.
        assert!((dx[0] - (-0.25)).abs() < 1e-12);
        assert!((dx[1] - 0.25).abs() < 1e-12);
        assert!((dx[2] - 0.25).abs() < 1e-12);
        assert!((dx[3] - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn gradient_check() {
        let n = 3;
        let c = 5;
        let scores: Vec<f64> = (0..n * c)
            .map(|i| ((i * 7 % 13) as f64) * 0.3 - 1.5)
            .collect();
        let labels = vec![2.0, 0.0, 4.0];
        let (_, dx) = run(1, scores.clone(), labels.clone(), n, c);
        let eps = 1e-6;
        for i in [0usize, 4, 7, 12, 14] {
            let mut sp = scores.clone();
            sp[i] += eps;
            let (lp, _) = run(1, sp.clone(), labels.clone(), n, c);
            sp[i] -= 2.0 * eps;
            let (lm, _) = run(1, sp, labels.clone(), n, c);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-7 * (1.0 + num.abs()),
                "dx[{i}]: {num} vs {}",
                dx[i]
            );
        }
    }

    #[test]
    fn loss_is_thread_count_invariant() {
        let n = 17;
        let c = 10;
        let scores: Vec<f64> = (0..n * c)
            .map(|i| ((i * 31 % 23) as f64) * 0.17 - 2.0)
            .collect();
        let labels: Vec<f64> = (0..n).map(|i| (i % c) as f64).collect();
        let canonical = ReductionMode::Canonical { groups: 16 };
        let (l1, d1) = run_under(canonical, 1, scores.clone(), labels.clone(), n, c);
        for t in [2, 4, 5] {
            let (lt, dt) = run_under(canonical, t, scores.clone(), labels.clone(), n, c);
            assert_eq!(l1, lt, "loss differs at t={t}");
            assert_eq!(d1, dt, "diff differs at t={t}");
            // One slot per thread sums the loss as t pinned groups do.
            let pinned = ReductionMode::Canonical { groups: t };
            let (lp, _) = run_under(pinned, 1, scores.clone(), labels.clone(), n, c);
            let (lo, d_o) = run(t, scores.clone(), labels.clone(), n, c);
            assert_eq!(lo.to_bits(), lp.to_bits(), "Ordered at t={t}");
            assert_eq!(d1, d_o, "Ordered diff at t={t}");
        }
    }

    #[test]
    fn loss_weight_scales_gradient() {
        let mut l: SoftmaxLossLayer<f64> = SoftmaxLossLayer::new("loss");
        let b0: Blob<f64> = Blob::from_data([1usize, 2], vec![0.0, 0.0]);
        let b1: Blob<f64> = Blob::from_data([1usize], vec![0.0]);
        let shapes = l.setup(&[&b0, &b1]);
        let team = ThreadTeam::new(1);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b0, &b1], &mut tops);
        tops[0].diff_mut()[0] = 3.0;
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b0, b1];
        l.backward(&ctx, &trefs, &mut bots);
        assert!((bots[0].diff()[0] - 3.0 * (-0.5)).abs() < 1e-12);
    }
}
