//! Local response normalization (across channels) — Caffe's `LRN` layer,
//! the `norm1`/`norm2` layers of the paper's CIFAR-10 network.
//!
//! `out(c) = in(c) * scale(c)^-beta` with
//! `scale(c) = k + (alpha / n) * sum_{c'} in(c')^2` over a window of `n`
//! channels centred on `c`. Both passes parallelize over samples; each
//! sample's computation spans all channels, which is why the paper observes
//! the norm layers *changing the data-thread distribution* relative to the
//! surrounding convolution layers.

use crate::batch_cache::BatchCache;
use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Configuration for [`LrnLayer`].
#[derive(Debug, Clone, Copy)]
pub struct LrnConfig {
    /// Window size in channels (`local_size`, odd).
    pub local_size: usize,
    /// Scaling parameter.
    pub alpha: f64,
    /// Exponent.
    pub beta: f64,
    /// Bias inside the scale term (Caffe default 1.0).
    pub k: f64,
}

impl LrnConfig {
    /// The paper's CIFAR-10 (cifar10_full) settings.
    pub fn cifar() -> Self {
        Self {
            local_size: 3,
            alpha: 5e-5,
            beta: 0.75,
            k: 1.0,
        }
    }
}

/// Caffe `LRN` layer (ACROSS_CHANNELS mode).
pub struct LrnLayer<S: Scalar = f32> {
    name: String,
    cfg: LrnConfig,
    batch: usize,
    channels: usize,
    spatial: usize,
    /// Cached `scale` blob from the forward pass (needed by backward).
    scale: BatchCache<S>,
}

impl<S: Scalar> LrnLayer<S> {
    /// New LRN layer.
    pub fn new(name: impl Into<String>, cfg: LrnConfig) -> Self {
        assert!(cfg.local_size % 2 == 1, "LRN: local_size must be odd");
        Self {
            name: name.into(),
            cfg,
            batch: 0,
            channels: 0,
            spatial: 0,
            scale: BatchCache::new(),
        }
    }
}

impl<S: Scalar> Layer<S> for LrnLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "LRN"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "LRN: exactly one bottom");
        let b = bottom[0];
        self.batch = b.num();
        self.channels = b.channels();
        self.spatial = b.height() * b.width();
        self.scale.seat(b.count());
        vec![b.shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let sample_len = self.channels * self.spatial;
        let (channels, spatial) = (self.channels, self.spatial);
        let half = self.cfg.local_size / 2;
        let a_over_n = S::from_f64(self.cfg.alpha / self.cfg.local_size as f64);
        let k = S::from_f64(self.cfg.k);
        let neg_beta = S::from_f64(-self.cfg.beta);
        let scale_ds = omprt::DisjointSlices::new(&mut self.scale, sample_len);
        parallel_segments(ctx, top[0].data_mut(), sample_len, |s, out| {
            // SAFETY: each sample index runs exactly once.
            let sc = unsafe { scale_ds.segment_mut(s) };
            let xin = &x[s * sample_len..(s + 1) * sample_len];
            for p in 0..spatial {
                for c in 0..channels {
                    let lo = c.saturating_sub(half);
                    let hi = (c + half + 1).min(channels);
                    let mut acc = S::ZERO;
                    for cc in lo..hi {
                        let v = xin[cc * spatial + p];
                        acc += v * v;
                    }
                    let sv = k + a_over_n * acc;
                    sc[c * spatial + p] = sv;
                    out[c * spatial + p] = xin[c * spatial + p] * sv.powf(neg_beta);
                }
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let tdata = top[0].data();
        let tdiff = top[0].diff();
        let scale = &self.scale;
        let sample_len = self.channels * self.spatial;
        let (channels, spatial) = (self.channels, self.spatial);
        let half = self.cfg.local_size / 2;
        let neg_beta = S::from_f64(-self.cfg.beta);
        // d scale/d x contributes -2 * alpha/n * beta * x * (dy .* y / scale).
        let ratio_coef =
            S::from_f64(2.0 * self.cfg.alpha * self.cfg.beta / self.cfg.local_size as f64);
        let (bdata, bdiff) = bottom[0].data_diff_mut();
        let bdata: &[S] = bdata;
        parallel_segments(ctx, bdiff, sample_len, |s, dx| {
            let base = s * sample_len;
            let xin = &bdata[base..base + sample_len];
            let y = &tdata[base..base + sample_len];
            let dy = &tdiff[base..base + sample_len];
            let sc = &scale[base..base + sample_len];
            for p in 0..spatial {
                for c in 0..channels {
                    let i = c * spatial + p;
                    // Direct term.
                    let mut acc = dy[i] * sc[i].powf(neg_beta);
                    // Window term: sum over channels c' whose window covers c.
                    let lo = c.saturating_sub(half);
                    let hi = (c + half + 1).min(channels);
                    let mut win = S::ZERO;
                    for cc in lo..hi {
                        let j = cc * spatial + p;
                        win += dy[j] * y[j] / sc[j];
                    }
                    acc -= ratio_coef * xin[i] * win;
                    dx[i] = acc;
                }
            }
        });
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let b = bottom[0];
        let elem = std::mem::size_of::<S>() as f64;
        let sample = (self.channels * self.spatial) as f64;
        let win = self.cfg.local_size as f64;
        LayerProfile {
            name: self.name.clone(),
            layer_type: "LRN".to_string(),
            forward: PassProfile {
                coalesced_iters: self.batch,
                // Window sum + powf (~20 flops) per element.
                flops_per_iter: sample * (2.0 * win + 22.0),
                bytes_in_per_iter: sample * elem,
                bytes_out_per_iter: 2.0 * sample * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: sample * (3.0 * win + 25.0),
                bytes_in_per_iter: 4.0 * sample * elem,
                bytes_out_per_iter: sample * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            batch: b.num(),
            out_bytes_per_sample: sample * elem,
            sequential: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    fn run_fb(
        threads: usize,
        cfg: LrnConfig,
        shape: [usize; 4],
        data: &[f64],
        tdiff: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut l: LrnLayer<f64> = LrnLayer::new("n", cfg);
        let b: Blob<f64> = Blob::from_data(shape, data.to_vec());
        let shapes = l.setup(&[&b]);
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(tdiff);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        (tops[0].data().to_vec(), bots[0].diff().to_vec())
    }

    #[test]
    fn forward_matches_direct_formula() {
        let cfg = LrnConfig {
            local_size: 3,
            alpha: 0.3,
            beta: 0.75,
            k: 1.0,
        };
        // 1 sample, 3 channels, 1x1 spatial: window sums are easy by hand.
        let x = [1.0, 2.0, 3.0];
        let (y, _) = run_fb(1, cfg, [1, 3, 1, 1], &x, &[0.0; 3]);
        let a = 0.3 / 3.0;
        let s0 = 1.0 + a * (1.0 + 4.0);
        let s1 = 1.0 + a * (1.0 + 4.0 + 9.0);
        let s2 = 1.0 + a * (4.0 + 9.0);
        assert!((y[0] - 1.0 * s0.powf(-0.75)).abs() < 1e-12);
        assert!((y[1] - 2.0 * s1.powf(-0.75)).abs() < 1e-12);
        assert!((y[2] - 3.0 * s2.powf(-0.75)).abs() < 1e-12);
    }

    #[test]
    fn gradient_check() {
        let cfg = LrnConfig {
            local_size: 3,
            alpha: 0.2,
            beta: 0.75,
            k: 1.0,
        };
        let shape = [2usize, 4, 2, 2];
        let n = 2 * 4 * 2 * 2;
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.2 - 1.0).collect();
        let g: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) * 0.25 - 0.5).collect();
        let (_, dx) = run_fb(1, cfg, shape, &x, &g);
        let eps = 1e-6;
        let loss = |x: &[f64]| -> f64 {
            let mut l: LrnLayer<f64> = LrnLayer::new("n", cfg);
            let b: Blob<f64> = Blob::from_data(shape, x.to_vec());
            let shapes = l.setup(&[&b]);
            let team = ThreadTeam::new(1);
            let ws = Workspace::<f64>::empty();
            let ctx = ExecCtx::new(&team, &ws);
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[&b], &mut tops);
            tops[0].data().iter().zip(&g).map(|(a, b)| a * b).sum()
        };
        for i in [0usize, 5, 13, 21, 30] {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp = loss(&xp);
            xp[i] -= 2.0 * eps;
            let lm = loss(&xp);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-6 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {}",
                dx[i]
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = LrnConfig::cifar();
        let n = 4 * 6 * 3 * 3;
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) * 0.1).collect();
        let g: Vec<f64> = (0..n).map(|i| ((i * 5 % 17) as f64) * 0.1 - 0.8).collect();
        let (y1, d1) = run_fb(1, cfg, [4, 6, 3, 3], &x, &g);
        let (y3, d3) = run_fb(3, cfg, [4, 6, 3, 3], &x, &g);
        assert_eq!(y1, y3);
        assert_eq!(d1, d3);
    }
}
