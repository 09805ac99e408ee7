//! Dropout — Caffe's `Dropout` layer (inverted-dropout scaling).
//!
//! The mask for `(iteration, segment)` is generated from a counter-seeded
//! PCG stream, so masks are identical for any thread count — dropout does
//! not break the convergence-invariance property.

use crate::batch_cache::BatchCache;
use crate::ctx::{ExecCtx, Phase};
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::{Pcg32, Scalar};

/// Caffe `Dropout` layer.
pub struct DropoutLayer<S: Scalar = f32> {
    name: String,
    ratio: f64,
    seed: u64,
    seg_len: usize,
    n_segs: usize,
    /// Mask values: 0 or `1/(1-ratio)`, cached for backward.
    mask: BatchCache<S>,
}

impl<S: Scalar> DropoutLayer<S> {
    /// New dropout layer dropping each activation with probability `ratio`.
    ///
    /// # Panics
    /// Panics unless `0 <= ratio < 1`.
    pub fn new(name: impl Into<String>, ratio: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&ratio), "Dropout: ratio in [0, 1)");
        Self {
            name: name.into(),
            ratio,
            seed,
            seg_len: 0,
            n_segs: 0,
            mask: BatchCache::new(),
        }
    }
}

impl<S: Scalar> Layer<S> for DropoutLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Dropout"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Dropout: exactly one bottom");
        self.seg_len = bottom[0].segment_len().max(1);
        self.n_segs = bottom[0].count() / self.seg_len;
        self.mask.seat(bottom[0].count());
        vec![bottom[0].shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let seg = self.seg_len;
        if ctx.phase == Phase::Test || self.ratio == 0.0 {
            top[0].data_mut().copy_from_slice(x);
            mmblas::set(S::ONE, &mut self.mask);
            return;
        }
        let keep_scale = S::from_f64(1.0 / (1.0 - self.ratio));
        let ratio = self.ratio;
        let seed = self.seed ^ ctx.iteration.wrapping_mul(0x9e3779b97f4a7c15);
        let mask_ds = omprt::DisjointSlices::new(&mut self.mask, seg);
        parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
            // SAFETY: each segment index runs exactly once.
            let m = unsafe { mask_ds.segment_mut(i) };
            let mut rng = Pcg32::new(seed, i as u64);
            let xin = &x[i * seg..(i + 1) * seg];
            for j in 0..seg {
                let keep = rng.uniform_f64() >= ratio;
                m[j] = if keep { keep_scale } else { S::ZERO };
                out[j] = xin[j] * m[j];
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let dy = top[0].diff();
        let mask = &self.mask;
        let seg = self.seg_len;
        parallel_segments(ctx, bottom[0].diff_mut(), seg, |i, dx| {
            let r = i * seg..(i + 1) * seg;
            let (g, m) = (&dy[r.clone()], &mask[r]);
            for j in 0..seg {
                dx[j] = g[j] * m[j];
            }
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let seg = self.seg_len as f64;
        (
            PassProfile {
                coalesced_iters: self.n_segs,
                flops_per_iter: seg * 4.0,
                bytes_in_per_iter: seg * elem,
                bytes_out_per_iter: 2.0 * seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.n_segs,
                flops_per_iter: seg,
                bytes_in_per_iter: 2.0 * seg * elem,
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
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    fn run(threads: usize, phase: Phase, iteration: u64) -> (Vec<f32>, Vec<f32>) {
        let mut l: DropoutLayer<f32> = DropoutLayer::new("drop", 0.5, 99);
        let b: Blob<f32> = Blob::from_data([4usize, 1, 4, 4], vec![1.0; 64]);
        let shapes = l.setup(&[&b]);
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f32>::empty();
        let mut ctx = ExecCtx::new(&team, &ws);
        ctx.phase = phase;
        ctx.iteration = iteration;
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(&[1.0; 64]);
        let trefs: Vec<&Blob<f32>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        (tops[0].data().to_vec(), bots[0].diff().to_vec())
    }

    #[test]
    fn test_phase_is_identity() {
        let (y, dx) = run(2, Phase::Test, 0);
        assert!(y.iter().all(|&v| v == 1.0));
        assert!(dx.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn train_phase_drops_and_scales() {
        let (y, _) = run(1, Phase::Train, 0);
        let dropped = y.iter().filter(|&&v| v == 0.0).count();
        let kept = y.iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(dropped + kept, 64);
        assert!(dropped > 8 && dropped < 56, "dropped {dropped} of 64");
    }

    #[test]
    fn mask_thread_count_invariant() {
        let (y1, d1) = run(1, Phase::Train, 5);
        let (y4, d4) = run(4, Phase::Train, 5);
        assert_eq!(y1, y4);
        assert_eq!(d1, d4);
    }

    #[test]
    fn mask_changes_per_iteration() {
        let (y0, _) = run(1, Phase::Train, 0);
        let (y1, _) = run(1, Phase::Train, 1);
        assert_ne!(y0, y1);
    }

    #[test]
    fn backward_uses_same_mask() {
        let (y, dx) = run(1, Phase::Train, 3);
        // Input and top-diff were all-ones, so y == mask == dx.
        assert_eq!(y, dx);
    }

    #[test]
    #[should_panic(expected = "ratio in [0, 1)")]
    fn bad_ratio_panics() {
        let _: DropoutLayer<f32> = DropoutLayer::new("d", 1.0, 0);
    }
}
