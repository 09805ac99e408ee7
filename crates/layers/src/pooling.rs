//! Spatial pooling — Caffe's `Pooling` layer (MAX and AVE).
//!
//! Output dimensions use Caffe's ceil-mode formula
//! `pooled = ceil((in + 2*pad - kernel) / stride) + 1`, with windows clipped
//! to the input. MAX pooling records an argmax mask for the backward
//! scatter. Both passes are coalesced over `(sample, channel)` segments —
//! the pooling granularity the paper analyses (pool2 on MNIST saturates
//! because these segments become tiny).

use crate::batch_cache::BatchCache;
use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use omprt::sendptr::DisjointSlices;

/// Pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMethod {
    /// Window maximum (with argmax mask).
    Max,
    /// Window average.
    Ave,
}

/// Configuration for [`PoolingLayer`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// MAX or AVE.
    pub method: PoolMethod,
    /// Square window size.
    pub kernel: usize,
    /// Zero padding.
    pub pad: usize,
    /// Stride.
    pub stride: usize,
}

impl PoolConfig {
    /// Max pooling with no padding.
    pub fn max(kernel: usize, stride: usize) -> Self {
        Self {
            method: PoolMethod::Max,
            kernel,
            pad: 0,
            stride,
        }
    }

    /// Average pooling with no padding.
    pub fn ave(kernel: usize, stride: usize) -> Self {
        Self {
            method: PoolMethod::Ave,
            kernel,
            pad: 0,
            stride,
        }
    }
}

/// Caffe ceil-mode pooled output dimension.
pub fn pooled_dim(dim: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    let numer = (dim + 2 * pad).saturating_sub(kernel);
    let mut pooled = numer.div_ceil(stride) + 1;
    if pad > 0 {
        // Caffe: the last window must start inside the (unpadded) input.
        if (pooled - 1) * stride >= dim + pad {
            pooled -= 1;
        }
    }
    pooled
}

/// Caffe `Pooling` layer.
pub struct PoolingLayer<S: Scalar = f32> {
    name: String,
    cfg: PoolConfig,
    batch: usize,
    channels: usize,
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
    /// Argmax mask (index within the bottom `(s, c)` segment) for MAX mode.
    mask: BatchCache<u32>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> PoolingLayer<S> {
    /// New pooling layer.
    pub fn new(name: impl Into<String>, cfg: PoolConfig) -> Self {
        Self {
            name: name.into(),
            cfg,
            batch: 0,
            channels: 0,
            in_h: 0,
            in_w: 0,
            out_h: 0,
            out_w: 0,
            mask: BatchCache::new(),
            _marker: std::marker::PhantomData,
        }
    }
}

/// Clipped pooling window for output `(oy, ox)`:
/// `(h_range, w_range)` in bottom coordinates.
#[inline]
fn window(
    cfg: &PoolConfig,
    in_h: usize,
    in_w: usize,
    oy: usize,
    ox: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let hs = (oy * cfg.stride).saturating_sub(cfg.pad);
    let ws = (ox * cfg.stride).saturating_sub(cfg.pad);
    let hstart = (oy * cfg.stride) as isize - cfg.pad as isize;
    let wstart = (ox * cfg.stride) as isize - cfg.pad as isize;
    let he = ((hstart + cfg.kernel as isize).max(0) as usize).min(in_h);
    let we = ((wstart + cfg.kernel as isize).max(0) as usize).min(in_w);
    (hs.min(he)..he, ws.min(we)..we)
}

impl<S: Scalar> Layer<S> for PoolingLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Pooling"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Pooling: exactly one bottom");
        let b = bottom[0];
        assert_eq!(b.shape().ndim(), 4, "Pooling: 4-D bottom required");
        self.batch = b.num();
        self.channels = b.channels();
        self.in_h = b.height();
        self.in_w = b.width();
        self.out_h = pooled_dim(self.in_h, self.cfg.kernel, self.cfg.pad, self.cfg.stride);
        self.out_w = pooled_dim(self.in_w, self.cfg.kernel, self.cfg.pad, self.cfg.stride);
        let out_count = self.batch * self.channels * self.out_h * self.out_w;
        if self.cfg.method == PoolMethod::Max {
            self.mask.seat(out_count);
        }
        vec![Shape::from(vec![
            self.batch,
            self.channels,
            self.out_h,
            self.out_w,
        ])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let in_seg = self.in_h * self.in_w;
        let out_seg = self.out_h * self.out_w;
        let (out_h, out_w, in_h, in_w) = (self.out_h, self.out_w, self.in_h, self.in_w);
        let cfg = self.cfg;
        match cfg.method {
            PoolMethod::Max => {
                let mask_ds = DisjointSlices::new(&mut self.mask, out_seg);
                parallel_segments(ctx, top[0].data_mut(), out_seg, |sc, out| {
                    // SAFETY: each segment index runs exactly once.
                    let mseg = unsafe { mask_ds.segment_mut(sc) };
                    let xin = &x[sc * in_seg..(sc + 1) * in_seg];
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let (hr, wr) = window(&cfg, in_h, in_w, oy, ox);
                            let mut best_idx = hr.start * in_w + wr.start;
                            let mut best = xin[best_idx];
                            for h in hr.clone() {
                                for w in wr.clone() {
                                    let idx = h * in_w + w;
                                    if xin[idx] > best {
                                        best = xin[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                            out[oy * out_w + ox] = best;
                            mseg[oy * out_w + ox] = best_idx as u32;
                        }
                    }
                });
            }
            PoolMethod::Ave => {
                parallel_segments(ctx, top[0].data_mut(), out_seg, |sc, out| {
                    let xin = &x[sc * in_seg..(sc + 1) * in_seg];
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let (hr, wr) = window(&cfg, in_h, in_w, oy, ox);
                            let area = hr.len() * wr.len();
                            let mut acc = S::ZERO;
                            for h in hr.clone() {
                                for w in wr.clone() {
                                    acc += xin[h * in_w + w];
                                }
                            }
                            out[oy * out_w + ox] = if area > 0 {
                                acc / S::from_usize(area)
                            } else {
                                S::ZERO
                            };
                        }
                    }
                });
            }
        }
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let tdiff = top[0].diff();
        let in_seg = self.in_h * self.in_w;
        let out_seg = self.out_h * self.out_w;
        let (out_h, out_w, in_h, in_w) = (self.out_h, self.out_w, self.in_h, self.in_w);
        let cfg = self.cfg;
        let mask = &self.mask;
        parallel_segments(ctx, bottom[0].diff_mut(), in_seg, |sc, dx| {
            mmblas::zero(dx);
            let dy = &tdiff[sc * out_seg..(sc + 1) * out_seg];
            match cfg.method {
                PoolMethod::Max => {
                    let mseg = &mask[sc * out_seg..(sc + 1) * out_seg];
                    for (o, &g) in dy.iter().enumerate() {
                        dx[mseg[o] as usize] += g;
                    }
                }
                PoolMethod::Ave => {
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let (hr, wr) = window(&cfg, in_h, in_w, oy, ox);
                            let area = hr.len() * wr.len();
                            if area == 0 {
                                continue;
                            }
                            let share = dy[oy * out_w + ox] / S::from_usize(area);
                            for h in hr.clone() {
                                for w in wr.clone() {
                                    dx[h * in_w + w] += share;
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let b = bottom[0];
        let elem = std::mem::size_of::<S>() as f64;
        let out_seg = (self.out_h * self.out_w) as f64;
        let in_seg = (self.in_h * self.in_w) as f64;
        let window = (self.cfg.kernel * self.cfg.kernel) as f64;
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Pooling".to_string(),
            forward: PassProfile {
                coalesced_iters: self.batch * self.channels,
                // Window scans are bounds-check heavy: ~4 ops per tap.
                flops_per_iter: out_seg * window * 4.0,
                bytes_in_per_iter: in_seg * elem,
                bytes_out_per_iter: out_seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: self.batch * self.channels,
                flops_per_iter: (in_seg + out_seg * window) * 3.0,
                bytes_in_per_iter: out_seg * elem,
                bytes_out_per_iter: in_seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            batch: b.num(),
            out_bytes_per_sample: self.channels as f64 * out_seg * elem,
            sequential: false,
        }
    }

    fn strategy_space(&self) -> Vec<crate::strategy::LayerStrategy> {
        // The coalesced loop already runs over (sample, channel) pairs;
        // Replicate is the only additional profitable point.
        vec![
            crate::strategy::LayerStrategy::SampleSplit,
            crate::strategy::LayerStrategy::Replicate,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn pooled_dims_match_caffe() {
        // MNIST pool1/pool2: 24 -> 12, 8 -> 4 (k2 s2).
        assert_eq!(pooled_dim(24, 2, 0, 2), 12);
        assert_eq!(pooled_dim(8, 2, 0, 2), 4);
        // CIFAR pools: 32 -> 16, 16 -> 8, 8 -> 4 (k3 s2, ceil mode).
        assert_eq!(pooled_dim(32, 3, 0, 2), 16);
        assert_eq!(pooled_dim(16, 3, 0, 2), 8);
        assert_eq!(pooled_dim(8, 3, 0, 2), 4);
    }

    fn ctx_run<F: FnOnce(&ExecCtx<'_, f64>)>(threads: usize, f: F) {
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        f(&ctx);
    }

    #[test]
    fn max_forward_and_backward() {
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::max(2, 2));
        #[rustfmt::skip]
        let b: Blob<f64> = Blob::from_data([1usize, 1, 4, 4], vec![
            1.0, 2.0, 5.0, 4.0,
            3.0, 0.0, 1.0, 1.0,
            0.0, 0.0, 2.0, 0.0,
            0.0, 9.0, 0.0, 3.0,
        ]);
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes[0].dims(), &[1, 1, 2, 2]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            assert_eq!(tops[0].data(), &[3.0, 5.0, 9.0, 3.0]);
            tops[0].diff_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b.clone()];
            l.backward(ctx, &trefs, &mut bots);
            #[rustfmt::skip]
            let want = [
                0.0, 0.0, 2.0, 0.0,
                1.0, 0.0, 0.0, 0.0,
                0.0, 0.0, 0.0, 0.0,
                0.0, 3.0, 0.0, 4.0,
            ];
            assert_eq!(bots[0].diff(), want);
        });
    }

    #[test]
    fn ave_forward_is_window_mean_and_backward_distributes() {
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::ave(2, 2));
        let b: Blob<f64> = Blob::from_data([1usize, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let shapes = l.setup(&[&b]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            assert_eq!(tops[0].data(), &[4.0]);
            tops[0].diff_mut().copy_from_slice(&[8.0]);
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b.clone()];
            l.backward(ctx, &trefs, &mut bots);
            assert_eq!(bots[0].diff(), &[2.0, 2.0, 2.0, 2.0]);
        });
    }

    #[test]
    fn ceil_mode_clips_last_window() {
        // 5x5 input, k3 s2 -> ceil((5-3)/2)+1 = 2... then windows at 0 and 2
        // fit; ceil((5-3)/2)=1 so pooled = 2.
        assert_eq!(pooled_dim(5, 3, 0, 2), 2);
        // 6x6 input, k3 s2: ceil(3/2)+1 = 3; last window starts at 4, clipped
        // to rows 4..6 (size 2).
        assert_eq!(pooled_dim(6, 3, 0, 2), 3);
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::ave(3, 2));
        let b: Blob<f64> = Blob::from_data([1usize, 1, 6, 6], vec![1.0; 36]);
        let shapes = l.setup(&[&b]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            // Mean of all-ones is 1 regardless of the clipped area.
            assert!(tops[0].data().iter().all(|&v| (v - 1.0).abs() < 1e-12));
        });
    }

    #[test]
    fn parallel_matches_sequential() {
        let data: Vec<f64> = (0..2 * 3 * 8 * 8)
            .map(|i| ((i * 37 % 101) as f64) - 50.0)
            .collect();
        let run = |threads: usize, method: PoolMethod| {
            let cfg = PoolConfig {
                method,
                kernel: 3,
                pad: 0,
                stride: 2,
            };
            let mut l: PoolingLayer<f64> = PoolingLayer::new("p", cfg);
            let b: Blob<f64> = Blob::from_data([2usize, 3, 8, 8], data.clone());
            let shapes = l.setup(&[&b]);
            let team = ThreadTeam::new(threads);
            let ws = Workspace::<f64>::empty();
            let ctx = ExecCtx::new(&team, &ws);
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[&b], &mut tops);
            for (i, v) in tops[0].diff_mut().iter_mut().enumerate() {
                *v = (i % 7) as f64;
            }
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b];
            l.backward(&ctx, &trefs, &mut bots);
            (tops[0].data().to_vec(), bots[0].diff().to_vec())
        };
        for method in [PoolMethod::Max, PoolMethod::Ave] {
            let (t1, d1) = run(1, method);
            let (t4, d4) = run(4, method);
            assert_eq!(t1, t4);
            assert_eq!(d1, d4);
        }
    }
}
