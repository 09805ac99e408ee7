//! Local response normalization (across channels) — Caffe's `LRN` layer,
//! the `norm1`/`norm2` layers of the paper's CIFAR-10 network.
//!
//! `out(c) = in(c) * scale(c)^-beta` with
//! `scale(c) = k + (alpha / n) * sum_{c'} in(c')^2` over a window of `n`
//! channels centred on `c`. Both passes parallelize over samples; each
//! sample's computation spans all channels, which is why the paper observes
//! the norm layers *changing the data-thread distribution* relative to the
//! surrounding convolution layers.
//!
//! Within a sample the loops run channel-outer: for channel `c` the inner
//! loop is its contiguous spatial row, so each pass is a few unit-stride
//! row sweeps that auto-vectorize at the SSE2 baseline. The forward sums
//! `in(c')^2` into the `scale` row, the backward sums the window term
//! `dy * y / scale` into the `dx` row it is about to overwrite (no scratch
//! buffer). Both add the window's channels in ascending order, as the
//! earlier position-outer loop did, so `scale` and the window term keep
//! that loop's bits exactly.
//!
//! At `beta = 0.75` (the CIFAR net's) the power is computed as
//! `s^-0.75 = 1 / (sqrt(s) * sqrt(sqrt(s)))`: two correctly rounded,
//! vectorizable square roots instead of a libm call per element, within
//! 4 ulp of the exact power (the libm call is within 1). Only values that
//! pass through this power — `y` and `dx` — moved, by a few ulp, when it
//! replaced the libm call. Any other `beta` keeps the libm power; both are
//! closures handed to the same generic loop nest.

use crate::batch_cache::BatchCache;
use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use std::ops::Range;

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

/// One sample's channel-major layout: channel `c` is the spatial row
/// `row(c)`, and its window covers channels `window(c)`.
#[derive(Clone, Copy)]
struct Rows {
    channels: usize,
    spatial: usize,
    half: usize,
}

impl Rows {
    fn row(self, c: usize) -> Range<usize> {
        c * self.spatial..(c + 1) * self.spatial
    }

    fn window(self, c: usize) -> Range<usize> {
        c.saturating_sub(self.half)..(c + self.half + 1).min(self.channels)
    }
}

/// `s^-0.75` as `1 / (sqrt(s) * sqrt(sqrt(s)))`.
fn pow_neg_three_quarters<S: Scalar>(s: S) -> S {
    let r = s.sqrt();
    S::ONE / (r * r.sqrt())
}

/// `s^-beta` for a general `beta`.
fn pow_neg<S: Scalar>(beta: f64) -> impl Fn(S) -> S + Sync {
    let neg_beta = S::from_f64(-beta);
    move |s| s.powf(neg_beta)
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

    fn rows(&self) -> Rows {
        Rows {
            channels: self.channels,
            spatial: self.spatial,
            half: self.cfg.local_size / 2,
        }
    }

    fn forward_with(
        &mut self,
        ctx: &ExecCtx<'_, S>,
        x: &[S],
        y: &mut [S],
        pow: impl Fn(S) -> S + Sync,
    ) {
        let rows = self.rows();
        let sample_len = rows.channels * rows.spatial;
        let a_over_n = S::from_f64(self.cfg.alpha / self.cfg.local_size as f64);
        let k = S::from_f64(self.cfg.k);
        let scale_ds = omprt::DisjointSlices::new(&mut self.scale, sample_len);
        parallel_segments(ctx, y, sample_len, |s, out| {
            // SAFETY: each sample index runs exactly once.
            let sc = unsafe { scale_ds.segment_mut(s) };
            let xin = &x[s * sample_len..(s + 1) * sample_len];
            for c in 0..rows.channels {
                let sc = &mut sc[rows.row(c)];
                sc.fill(S::ZERO);
                for cc in rows.window(c) {
                    for (acc, &v) in sc.iter_mut().zip(&xin[rows.row(cc)]) {
                        *acc += v * v;
                    }
                }
                let (out, xin) = (&mut out[rows.row(c)], &xin[rows.row(c)]);
                for ((sv, o), &v) in sc.iter_mut().zip(out).zip(xin) {
                    *sv = k + a_over_n * *sv;
                    *o = v * pow(*sv);
                }
            }
        });
    }

    fn backward_with(
        &self,
        ctx: &ExecCtx<'_, S>,
        top: &Blob<S>,
        x: &[S],
        dx: &mut [S],
        pow: impl Fn(S) -> S + Sync,
    ) {
        let rows = self.rows();
        let sample_len = rows.channels * rows.spatial;
        // d scale/d x contributes -2 * alpha/n * beta * x * (dy .* y / scale).
        let ratio_coef =
            S::from_f64(2.0 * self.cfg.alpha * self.cfg.beta / self.cfg.local_size as f64);
        let (tdata, tdiff, scale) = (top.data(), top.diff(), &self.scale[..]);
        parallel_segments(ctx, dx, sample_len, |s, dx| {
            let sample = s * sample_len..(s + 1) * sample_len;
            let xin = &x[sample.clone()];
            let y = &tdata[sample.clone()];
            let dy = &tdiff[sample.clone()];
            let sc = &scale[sample];
            for c in 0..rows.channels {
                // Window term: sum over channels c' whose window covers c.
                let win = &mut dx[rows.row(c)];
                win.fill(S::ZERO);
                for cc in rows.window(c) {
                    let r = rows.row(cc);
                    let terms = dy[r.clone()].iter().zip(&y[r.clone()]).zip(&sc[r]);
                    for (w, ((&d, &yv), &sv)) in win.iter_mut().zip(terms) {
                        *w += d * yv / sv;
                    }
                }
                let r = rows.row(c);
                let direct = dy[r.clone()].iter().zip(&sc[r.clone()]).zip(&xin[r]);
                for (w, ((&d, &sv), &xv)) in win.iter_mut().zip(direct) {
                    *w = d * pow(sv) - ratio_coef * xv * *w;
                }
            }
        });
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
        let (x, y) = (bottom[0].data(), top[0].data_mut());
        if self.cfg.beta == 0.75 {
            self.forward_with(ctx, x, y, pow_neg_three_quarters);
        } else {
            self.forward_with(ctx, x, y, pow_neg(self.cfg.beta));
        }
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let (x, dx) = bottom[0].data_diff_mut();
        if self.cfg.beta == 0.75 {
            self.backward_with(ctx, top[0], x, dx, pow_neg_three_quarters);
        } else {
            self.backward_with(ctx, top[0], x, dx, pow_neg(self.cfg.beta));
        }
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let sample = (self.channels * self.spatial) as f64;
        let win = self.cfg.local_size as f64;
        (
            PassProfile {
                coalesced_iters: self.batch,
                // Window sum + powf (~20 flops) per element.
                flops_per_iter: sample * (2.0 * win + 22.0),
                bytes_in_per_iter: sample * elem,
                bytes_out_per_iter: 2.0 * sample * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: sample * (3.0 * win + 25.0),
                bytes_in_per_iter: 4.0 * sample * elem,
                bytes_out_per_iter: sample * elem,
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

    /// Both power instances: the square-root identity and the general one.
    const BETAS: [f64; 2] = [0.75, 0.6];

    struct Pass<S> {
        y: Vec<S>,
        scale: Vec<S>,
        dx: Vec<S>,
    }

    fn run_fb<S: Scalar>(
        threads: usize,
        cfg: LrnConfig,
        shape: [usize; 4],
        data: &[f64],
        tdiff: &[f64],
    ) -> Pass<S> {
        let cast = |v: &[f64]| v.iter().map(|&x| S::from_f64(x)).collect::<Vec<S>>();
        let mut l: LrnLayer<S> = LrnLayer::new("n", cfg);
        let b: Blob<S> = Blob::from_data(shape, cast(data));
        let shapes = l.setup(&[&b]);
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<S>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(&cast(tdiff));
        let trefs: Vec<&Blob<S>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        Pass {
            y: tops[0].data().to_vec(),
            scale: l.scale.to_vec(),
            dx: bots[0].diff().to_vec(),
        }
    }

    #[test]
    fn forward_matches_direct_formula() {
        for beta in BETAS {
            let cfg = LrnConfig {
                local_size: 3,
                alpha: 0.3,
                beta,
                k: 1.0,
            };
            // 1 sample, 3 channels, 1x1 spatial: window sums are easy by hand.
            let x = [1.0, 2.0, 3.0];
            let y = run_fb::<f64>(1, cfg, [1, 3, 1, 1], &x, &[0.0; 3]).y;
            let a = 0.3 / 3.0;
            let s0 = 1.0 + a * (1.0 + 4.0);
            let s1 = 1.0 + a * (1.0 + 4.0 + 9.0);
            let s2 = 1.0 + a * (4.0 + 9.0);
            assert!((y[0] - 1.0 * s0.powf(-beta)).abs() < 1e-12);
            assert!((y[1] - 2.0 * s1.powf(-beta)).abs() < 1e-12);
            assert!((y[2] - 3.0 * s2.powf(-beta)).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_check() {
        for beta in BETAS {
            let cfg = LrnConfig {
                local_size: 3,
                alpha: 0.2,
                beta,
                k: 1.0,
            };
            let shape = [2usize, 4, 2, 2];
            let n = 2 * 4 * 2 * 2;
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.2 - 1.0).collect();
            let g: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) * 0.25 - 0.5).collect();
            let dx = run_fb::<f64>(1, cfg, shape, &x, &g).dx;
            let eps = 1e-6;
            let loss = |x: &[f64]| -> f64 {
                let y = run_fb::<f64>(1, cfg, shape, x, &vec![0.0; n]).y;
                y.iter().zip(&g).map(|(a, b)| a * b).sum()
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
                    "beta {beta}, dx[{i}]: numeric {num} vs analytic {}",
                    dx[i]
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for beta in BETAS {
            let cfg = LrnConfig {
                beta,
                ..LrnConfig::cifar()
            };
            let n = 4 * 6 * 3 * 3;
            let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) * 0.1).collect();
            let g: Vec<f64> = (0..n).map(|i| ((i * 5 % 17) as f64) * 0.1 - 0.8).collect();
            let p1 = run_fb::<f64>(1, cfg, [4, 6, 3, 3], &x, &g);
            let p3 = run_fb::<f64>(3, cfg, [4, 6, 3, 3], &x, &g);
            assert_eq!(p1.y, p3.y, "beta {beta}");
            assert_eq!(p1.dx, p3.dx, "beta {beta}");
        }
    }

    /// Float types the differential test runs at: a position on the ulp
    /// line (adjacent floats differ by 1, `-0 == +0`) and the unit roundoff.
    trait Ulp: Scalar {
        const EPS: f64;
        fn ulp_key(self) -> i64;
    }

    impl Ulp for f32 {
        const EPS: f64 = f32::EPSILON as f64;
        fn ulp_key(self) -> i64 {
            let i = self.to_bits() as i32;
            i64::from(if i < 0 { i32::MIN - i } else { i })
        }
    }

    impl Ulp for f64 {
        const EPS: f64 = f64::EPSILON;
        fn ulp_key(self) -> i64 {
            let i = self.to_bits() as i64;
            if i < 0 {
                i64::MIN - i
            } else {
                i
            }
        }
    }

    /// `scale` as the position-outer loop computed it before the rows went
    /// channel-major: position outer, channel inner, window in ascending
    /// channel order, stride-`spatial` loads.
    fn position_outer_scale<S: Scalar>(cfg: LrnConfig, shape: [usize; 4], x: &[S]) -> Vec<S> {
        let (channels, spatial) = (shape[1], shape[2] * shape[3]);
        let half = cfg.local_size / 2;
        let a_over_n = S::from_f64(cfg.alpha / cfg.local_size as f64);
        let k = S::from_f64(cfg.k);
        let mut scale = vec![S::ZERO; x.len()];
        for (xin, sc) in x
            .chunks(channels * spatial)
            .zip(scale.chunks_mut(channels * spatial))
        {
            for p in 0..spatial {
                for c in 0..channels {
                    let lo = c.saturating_sub(half);
                    let hi = (c + half + 1).min(channels);
                    let mut acc = S::ZERO;
                    for cc in lo..hi {
                        let v = xin[cc * spatial + p];
                        acc += v * v;
                    }
                    sc[c * spatial + p] = k + a_over_n * acc;
                }
            }
        }
        scale
    }

    /// At β = 0.75: `y` within `Y_ULPS` of `x * scale^-0.75` (f64 `powf` on
    /// the layer's own `scale`, rounded to `S`; 3 ulp measured, f32 and
    /// f64). `dx` against the same oracle carried through the backward
    /// formula in f64, within `DX_EPS` machine epsilons of
    /// `|direct term| + |window term|` (2.1 measured) — not of `|dx|`,
    /// because the two terms cancel; the window term's size is summed over
    /// absolute values for the same reason. `scale` is bitwise the
    /// position-outer loop's.
    fn power_path_matches_f64_oracle<S: Ulp>() {
        const Y_ULPS: i64 = 4;
        const DX_EPS: f64 = 8.0;
        // An odd row length, so the vectorized rows end in a scalar tail.
        let shape = [3usize, 8, 5, 7];
        let (channels, spatial) = (shape[1], shape[2] * shape[3]);
        let n: usize = shape.iter().product();
        for cfg in [
            LrnConfig::cifar(),
            LrnConfig {
                local_size: 5,
                alpha: 1e-4,
                ..LrnConfig::cifar()
            },
        ] {
            // CIFAR-scale activations, then |x| ≈ 300 and ≈ 3000 (s ≫ k).
            for amp in [1.0, 300.0, 3000.0] {
                let x: Vec<f64> = (0..n)
                    .map(|i| amp * (((i * 37 % 101) as f64) / 50.0 - 1.0 + 1e-3))
                    .collect();
                let g: Vec<f64> = (0..n)
                    .map(|i| ((i * 11 % 23) as f64) / 11.0 - 1.0 + 1e-3)
                    .collect();
                let p = run_fb::<S>(2, cfg, shape, &x, &g);
                let narrow = |v: &[f64]| v.iter().map(|&v| S::from_f64(v)).collect::<Vec<S>>();
                let widen = |v: &[S]| v.iter().map(|v| v.to_f64()).collect::<Vec<f64>>();
                let bits = |v: &[S]| v.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&p.scale),
                    bits(&position_outer_scale(cfg, shape, &narrow(&x))),
                    "scale must keep the position-outer loop's bits"
                );

                // The layer's inputs and scale, exactly, in f64.
                let (xs, dy, sc) = (widen(&narrow(&x)), widen(&narrow(&g)), widen(&p.scale));
                let y_exact: Vec<f64> =
                    xs.iter().zip(&sc).map(|(x, s)| x * s.powf(-0.75)).collect();
                let worst_y =
                    p.y.iter()
                        .zip(&y_exact)
                        .map(|(&y, &e)| (y.ulp_key() - S::from_f64(e).ulp_key()).abs())
                        .max()
                        .unwrap();
                assert!(
                    worst_y <= Y_ULPS,
                    "cfg {cfg:?}, |x| ~ {amp}: y off by {worst_y} ulp"
                );

                let rows = Rows {
                    channels,
                    spatial,
                    half: cfg.local_size / 2,
                };
                let coef = 2.0 * cfg.alpha * cfg.beta / cfg.local_size as f64;
                let mut worst_dx = 0.0f64;
                for s in 0..shape[0] {
                    for c in 0..channels {
                        for q in 0..spatial {
                            let i = s * channels * spatial + c * spatial + q;
                            let direct = dy[i] * sc[i].powf(-0.75);
                            let (mut win, mut win_abs) = (0.0, 0.0);
                            for cc in rows.window(c) {
                                let j = s * channels * spatial + cc * spatial + q;
                                let t = dy[j] * y_exact[j] / sc[j];
                                win += t;
                                win_abs += t.abs();
                            }
                            let want = direct - coef * xs[i] * win;
                            let size = direct.abs() + coef * xs[i].abs() * win_abs;
                            let err = (p.dx[i].to_f64() - want).abs() / (size * S::EPS);
                            worst_dx = worst_dx.max(err);
                        }
                    }
                }
                assert!(
                    worst_dx <= DX_EPS,
                    "cfg {cfg:?}, |x| ~ {amp}: dx off by {worst_dx} unit roundoffs"
                );
            }
        }
    }

    #[test]
    fn power_path_matches_f64_oracle_f32() {
        power_path_matches_f64_oracle::<f32>();
    }

    #[test]
    fn power_path_matches_f64_oracle_f64() {
        power_path_matches_f64_oracle::<f64>();
    }
}
