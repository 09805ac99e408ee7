//! 2-D convolution — Caffe's `Convolution` layer.
//!
//! Implemented exactly as Caffe does: one `im2col` lowering plus one GEMM
//! per sample. The coarse-grain parallel loop runs over samples; the
//! per-thread column buffer comes from the shared workspace (the paper's
//! data-privatization overhead), and weight/bias gradients flow through the
//! privatized ordered reduction.

use crate::ctx::ExecCtx;
use crate::drivers::{backward_reduce, parallel_segments_scratch};
use crate::fill::{weight_and_bias, Filler};
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::{Conv2dGeometry, Scalar, Transpose};

/// Configuration for [`ConvolutionLayer`].
#[derive(Debug, Clone)]
pub struct ConvConfig {
    /// Number of output channels (`num_output`).
    pub num_output: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Zero padding.
    pub pad: usize,
    /// Stride.
    pub stride: usize,
    /// Weight initialization.
    pub weight_filler: Filler,
    /// Filler RNG seed.
    pub seed: u64,
}

impl ConvConfig {
    /// Defaults matching the paper's networks: xavier weights.
    pub fn new(num_output: usize, kernel: usize, pad: usize, stride: usize) -> Self {
        Self {
            num_output,
            kernel,
            pad,
            stride,
            weight_filler: Filler::Xavier,
            seed: 0xc0_4f + num_output as u64,
        }
    }
}

/// Caffe `Convolution` layer (square kernels, single group).
pub struct ConvolutionLayer<S: Scalar = f32> {
    name: String,
    cfg: ConvConfig,
    geom: Option<Conv2dGeometry>,
    batch: usize,
    /// `params[0]` = weights `(out_c, in_c, k, k)`, `params[1]` = bias
    /// `(out_c)`.
    params: Vec<Blob<S>>,
    propagate_down: bool,
}

impl<S: Scalar> ConvolutionLayer<S> {
    /// New convolution layer.
    pub fn new(name: impl Into<String>, cfg: ConvConfig) -> Self {
        Self {
            name: name.into(),
            cfg,
            geom: None,
            batch: 0,
            params: Vec::new(),
            propagate_down: true,
        }
    }

    /// Skip computing the bottom diff (layer directly above the data layer,
    /// as Caffe does for `conv1`).
    pub fn set_propagate_down(&mut self, flag: bool) {
        self.propagate_down = flag;
    }

    /// The resolved convolution geometry (after `setup`).
    pub fn geometry(&self) -> &Conv2dGeometry {
        self.geom
            .as_ref()
            .expect("ConvolutionLayer: setup not called")
    }
}

impl<S: Scalar> Layer<S> for ConvolutionLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Convolution"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Convolution: exactly one bottom");
        let b = bottom[0];
        assert_eq!(b.shape().ndim(), 4, "Convolution: 4-D bottom required");
        self.batch = b.num();
        let geom = Conv2dGeometry {
            channels: b.channels(),
            height: b.height(),
            width: b.width(),
            kernel_h: self.cfg.kernel,
            kernel_w: self.cfg.kernel,
            pad_h: self.cfg.pad,
            pad_w: self.cfg.pad,
            stride_h: self.cfg.stride,
            stride_w: self.cfg.stride,
        };
        let refill =
            self.params.is_empty() || self.geom.map(|g| g.col_rows()) != Some(geom.col_rows());
        self.geom = Some(geom);
        if refill {
            self.params = weight_and_bias(
                &[
                    self.cfg.num_output,
                    geom.channels,
                    geom.kernel_h,
                    geom.kernel_w,
                ],
                self.cfg.weight_filler,
                self.cfg.seed,
            );
        }
        vec![Shape::from(vec![
            self.batch,
            self.cfg.num_output,
            geom.out_h(),
            geom.out_w(),
        ])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let g = *self.geometry();
        let x = bottom[0].data();
        let (w, bias) = (self.params[0].data(), self.params[1].data());
        let (m, cr, cc) = (self.cfg.num_output, g.col_rows(), g.col_cols());
        let in_len = g.image_len();
        let out_seg = m * cc;
        parallel_segments_scratch(ctx, top[0].data_mut(), out_seg, |s, y, scratch| {
            let col = &mut scratch.col[..cr * cc];
            mmblas::im2col(&g, &x[s * in_len..(s + 1) * in_len], col);
            mmblas::gemm(
                Transpose::No,
                Transpose::No,
                m,
                cc,
                cr,
                S::ONE,
                w,
                cr,
                col,
                cc,
                S::ZERO,
                y,
                cc,
            );
            for (o, &bo) in bias.iter().enumerate() {
                for v in &mut y[o * cc..(o + 1) * cc] {
                    *v += bo;
                }
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let g = *self.geometry();
        let (m, cr, cc) = (self.cfg.num_output, g.col_rows(), g.col_cols());
        let in_len = g.image_len();
        let tdiff = top[0].diff();
        let propagate = self.propagate_down;

        let (bdata, bdiff) = bottom[0].data_diff_mut();
        let bdata: &[S] = bdata;
        let bdiff_ds = omprt::DisjointSlices::new(bdiff, in_len);

        // Split the weight blob so its data is readable (for dx) while its
        // diff is being accumulated.
        let (wp, bp) = self.params.split_at_mut(1);
        let (wdata, wdiff) = wp[0].data_diff_mut();
        let wslice: &[S] = wdata;
        let mut shared: Vec<&mut [S]> = vec![wdiff, bp[0].diff_mut()];

        backward_reduce(ctx, self.batch, &mut shared, |s, parts, scratch| {
            let dy = &tdiff[s * m * cc..(s + 1) * m * cc];
            let (col, col_diff) = scratch.col.split_at_mut(cr * cc);
            let col = &mut col[..cr * cc];
            // Recompute the lowering of sample s (as Caffe does).
            mmblas::im2col(&g, &bdata[s * in_len..(s + 1) * in_len], col);
            // dW += dy (m x cc) * col^T (cc x cr).
            mmblas::gemm(
                Transpose::No,
                Transpose::Yes,
                m,
                cr,
                cc,
                S::ONE,
                dy,
                cc,
                col,
                cc,
                S::ONE,
                parts[0],
                cr,
            );
            // db += row sums of dy.
            for (o, dbo) in parts[1].iter_mut().enumerate() {
                let mut acc = S::ZERO;
                for &v in &dy[o * cc..(o + 1) * cc] {
                    acc += v;
                }
                *dbo += acc;
            }
            // dx_s = col2im(W^T dy) — disjoint per sample.
            if propagate {
                let cd = &mut col_diff[..cr * cc];
                mmblas::gemm(
                    Transpose::Yes,
                    Transpose::No,
                    cr,
                    cc,
                    m,
                    S::ONE,
                    wslice,
                    cr,
                    dy,
                    cc,
                    S::ZERO,
                    cd,
                    cc,
                );
                // SAFETY: sample s is processed exactly once.
                let dst = unsafe { bdiff_ds.segment_mut(s) };
                mmblas::col2im(&g, cd, dst);
            }
        });
    }

    fn params(&self) -> &[Blob<S>] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Blob<S>] {
        &mut self.params
    }

    fn col_len(&self) -> usize {
        // Two panels: the lowered input and the lowered diff.
        let g = self.geometry();
        2 * g.col_rows() * g.col_cols()
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let g = self.geometry();
        let elem = std::mem::size_of::<S>() as f64;
        let (m, cr, cc) = (
            self.cfg.num_output as f64,
            g.col_rows() as f64,
            g.col_cols() as f64,
        );
        let im2col_bytes = (g.image_len() as f64 + cr * cc) * elem;
        (
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: 2.0 * m * cr * cc + m * cc,
                // The filter bank stays cache-resident across samples; the
                // column matrix is written by im2col and re-read by the GEMM.
                bytes_in_per_iter: im2col_bytes + cr * cc * elem,
                bytes_out_per_iter: m * cc * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch,
                // im2col recompute + dW gemm + db + dx gemm + col2im.
                flops_per_iter: if self.propagate_down {
                    4.0 * m * cr * cc + m * cc + cr * cc
                } else {
                    2.0 * m * cr * cc + m * cc
                },
                bytes_in_per_iter: im2col_bytes + 2.0 * m * cc * elem,
                bytes_out_per_iter: (cr * cc + g.image_len() as f64) * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{Workspace, WorkspaceRequest};
    use omprt::ThreadTeam;

    fn ws_for(l: &ConvolutionLayer<f64>, t: usize, slots: usize) -> Workspace<f64> {
        Workspace::new(t, slots, WorkspaceRequest::of(l))
    }

    /// Overwrite the weights and the bias with constants.
    fn set_params(l: &mut ConvolutionLayer<f64>, w: f64, b: f64) {
        l.params_mut()[0].data_mut().fill(w);
        l.params_mut()[1].data_mut().fill(b);
    }

    #[test]
    fn setup_shapes_lenet_conv1() {
        let mut l: ConvolutionLayer<f64> =
            ConvolutionLayer::new("conv1", ConvConfig::new(20, 5, 0, 1));
        let b: Blob<f64> = Blob::new([64usize, 1, 28, 28]);
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes[0].dims(), &[64, 20, 24, 24]);
        assert_eq!(l.params()[0].shape().dims(), &[20, 1, 5, 5]);
        assert_eq!(l.params()[1].shape().dims(), &[20]);
    }

    #[test]
    fn forward_known_values_identity_like() {
        // 1x1 kernel with weight 2.0 and bias 1.0 doubles-plus-one the input.
        let mut l: ConvolutionLayer<f64> = ConvolutionLayer::new("c", ConvConfig::new(1, 1, 0, 1));
        let b: Blob<f64> = Blob::from_data([1usize, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let shapes = l.setup(&[&b]);
        set_params(&mut l, 2.0, 1.0);
        let ws = ws_for(&l, 1, 1);
        let team = ThreadTeam::new(1);
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        assert_eq!(tops[0].data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn forward_sum_kernel() {
        // 2x2 all-ones kernel computes window sums, plus the bias.
        let mut l: ConvolutionLayer<f64> = ConvolutionLayer::new("c", ConvConfig::new(1, 2, 0, 1));
        #[rustfmt::skip]
        let b: Blob<f64> = Blob::from_data([1usize, 1, 3, 3], vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ]);
        let shapes = l.setup(&[&b]);
        set_params(&mut l, 1.0, 0.5);
        let ws = ws_for(&l, 1, 1);
        let team = ThreadTeam::new(1);
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        assert_eq!(tops[0].data(), &[12.5, 16.5, 24.5, 28.5]);
    }

    /// Numerical gradient check: perturb each weight and input, compare the
    /// analytic gradient with central differences.
    #[test]
    fn gradient_check_small_conv() {
        let mut cfg = ConvConfig::new(2, 3, 1, 2);
        cfg.seed = 7;
        let mut l: ConvolutionLayer<f64> = ConvolutionLayer::new("c", cfg);
        let data: Vec<f64> = (0..2 * 2 * 5 * 5)
            .map(|i| ((i * 31 % 17) as f64) / 8.5 - 1.0)
            .collect();
        let bottom: Blob<f64> = Blob::from_data([2usize, 2, 5, 5], data);
        let shapes = l.setup(&[&bottom]);
        let team = ThreadTeam::new(1);
        let ws = ws_for(&l, 1, 1);
        let ctx = ExecCtx::new(&team, &ws);

        // Loss = sum(top .* G) for a fixed random-ish G.
        let gsel: Vec<f64> = (0..shapes[0].count())
            .map(|i| ((i * 13 % 7) as f64) / 3.0 - 1.0)
            .collect();
        let loss = |l: &mut ConvolutionLayer<f64>, b: &Blob<f64>| -> f64 {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[b], &mut tops);
            tops[0].data().iter().zip(&gsel).map(|(a, g)| a * g).sum()
        };

        // Analytic gradients.
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&bottom], &mut tops);
        tops[0].diff_mut().copy_from_slice(&gsel);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![bottom.clone()];
        l.backward(&ctx, &trefs, &mut bots);

        let eps = 1e-5;
        // Check a sample of weight gradients.
        for wi in [0usize, 3, 7, 17, 35] {
            let orig = l.params()[0].data()[wi];
            l.params_mut()[0].data_mut()[wi] = orig + eps;
            let lp = loss(&mut l, &bottom);
            l.params_mut()[0].data_mut()[wi] = orig - eps;
            let lm = loss(&mut l, &bottom);
            l.params_mut()[0].data_mut()[wi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = l.params()[0].diff()[wi];
            assert!(
                (num - ana).abs() < 1e-6 * (1.0 + num.abs()),
                "dW[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
        // Check a sample of input gradients.
        for xi in [0usize, 11, 26, 49, 77] {
            let mut bp = bots[0].clone();
            bp.data_mut()[xi] += eps;
            let lp = loss(&mut l, &bp);
            bp.data_mut()[xi] -= 2.0 * eps;
            let lm = loss(&mut l, &bp);
            let num = (lp - lm) / (2.0 * eps);
            let ana = bots[0].diff()[xi];
            assert!(
                (num - ana).abs() < 1e-6 * (1.0 + num.abs()),
                "dx[{xi}]: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient equals the per-channel sum of G.
        let cc = l.geometry().col_cols();
        for o in 0..2 {
            let want: f64 = (0..2)
                .map(|s| {
                    gsel[s * 2 * cc + o * cc..s * 2 * cc + (o + 1) * cc]
                        .iter()
                        .sum::<f64>()
                })
                .sum();
            let got = l.params()[1].diff()[o];
            assert!((want - got).abs() < 1e-9, "db[{o}]");
        }
    }

    #[test]
    fn parallel_equals_sequential_backward() {
        let mk = || {
            let mut cfg = ConvConfig::new(3, 3, 1, 1);
            cfg.seed = 11;
            ConvolutionLayer::<f64>::new("c", cfg)
        };
        let data: Vec<f64> = (0..4 * 2 * 6 * 6)
            .map(|i| ((i % 23) as f64) * 0.1 - 1.0)
            .collect();
        let run = |threads: usize| {
            let mut l = mk();
            let bottom: Blob<f64> = Blob::from_data([4usize, 2, 6, 6], data.clone());
            let shapes = l.setup(&[&bottom]);
            let team = ThreadTeam::new(threads);
            let mode = crate::ctx::ReductionMode::Canonical { groups: 8 };
            let ws = ws_for(&l, threads, mode.slots(threads));
            let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[&bottom], &mut tops);
            for (i, v) in tops[0].diff_mut().iter_mut().enumerate() {
                *v = ((i % 13) as f64) * 0.01;
            }
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![bottom];
            l.backward(&ctx, &trefs, &mut bots);
            (
                l.params()[0].diff().to_vec(),
                l.params()[1].diff().to_vec(),
                bots[0].diff().to_vec(),
            )
        };
        let (w1, b1, x1) = run(1);
        for t in [2, 4] {
            let (w, b, x) = run(t);
            assert_eq!(w, w1, "weights diff t={t}");
            assert_eq!(b, b1, "bias diff t={t}");
            assert_eq!(x, x1, "bottom diff t={t}");
        }
    }
}
