//! Fully-connected layer — Caffe's `InnerProduct`.
//!
//! Forward: `Y = X W^T + b`, one row-range GEMM per contiguous run of
//! samples the static schedule deals a thread (Caffe's layer is one GEMM
//! per batch; a run is the coarse-grain share of it). The GEMM's bits do
//! not depend on the run, so the team size does not show in `Y`.
//! Backward: `dW += dy_s ⊗ x_s`
//! and `db += dy_s` through the privatized ordered reduction; `dx_s = W^T
//! dy_s` through the disjoint segment loop — per sample, because a
//! coarse-grain slot holds too few samples for a GEMM to beat them.

use crate::ctx::ExecCtx;
use crate::drivers::{backward_reduce, parallel_rows, parallel_segments};
use crate::fill::{weight_and_bias, Filler};
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use mmblas::Transpose::{No, Yes};

/// Configuration for [`InnerProductLayer`].
#[derive(Debug, Clone)]
pub struct InnerProductConfig {
    /// Number of output neurons (`num_output` in Caffe).
    pub num_output: usize,
    /// Weight initialization.
    pub weight_filler: Filler,
    /// RNG seed for the filler (deterministic initialization).
    pub seed: u64,
}

impl InnerProductConfig {
    /// LeNet-style defaults: xavier weights.
    pub fn new(num_output: usize) -> Self {
        Self {
            num_output,
            weight_filler: Filler::Xavier,
            seed: 0x1b00 + num_output as u64,
        }
    }
}

/// Fraction of weight-matrix bytes charged as DRAM traffic per sample in
/// the work profile: the matrix is streamed on the first touch and then
/// largely served from the last-level cache.
const WEIGHT_RESIDENCY: f64 = 0.1;

/// `y = x W^T + bias` for `rows` samples: `x` is `rows x k`, `w` holds (at
/// least) `m` weight rows of `k`, `y` is `rows x m`. The bias is copied into
/// every row and the product added on top (`beta = 1`).
fn forward_rows<S: Scalar>(
    rows: usize,
    m: usize,
    k: usize,
    x: &[S],
    w: &[S],
    bias: &[S],
    y: &mut [S],
) {
    for row in y.chunks_exact_mut(m) {
        row.copy_from_slice(bias);
    }
    mmblas::gemm(No, Yes, rows, m, k, S::ONE, x, k, w, k, S::ONE, y, m);
}

/// Caffe `InnerProduct` layer.
pub struct InnerProductLayer<S: Scalar = f32> {
    name: String,
    cfg: InnerProductConfig,
    /// Fan-in: elements per input sample.
    k: usize,
    batch: usize,
    /// `params[0]` = weights `(num_output, k)`, `params[1]` = bias
    /// `(num_output)`.
    params: Vec<Blob<S>>,
    propagate_down: bool,
}

impl<S: Scalar> InnerProductLayer<S> {
    /// New inner-product layer.
    pub fn new(name: impl Into<String>, cfg: InnerProductConfig) -> Self {
        Self {
            name: name.into(),
            cfg,
            k: 0,
            batch: 0,
            params: Vec::new(),
            propagate_down: true,
        }
    }

    /// Skip computing the bottom diff (first learnable layer above data).
    pub fn set_propagate_down(&mut self, flag: bool) {
        self.propagate_down = flag;
    }
}

impl<S: Scalar> Layer<S> for InnerProductLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "InnerProduct"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "InnerProduct: exactly one bottom");
        let b = bottom[0];
        self.batch = b.num();
        let k = b.sample_len();
        assert!(k > 0, "InnerProduct: empty input sample");
        if self.params.is_empty() || self.k != k {
            self.k = k;
            self.params = weight_and_bias(
                &[self.cfg.num_output, k],
                self.cfg.weight_filler,
                self.cfg.seed,
            );
        }
        vec![Shape::from(vec![self.batch, self.cfg.num_output])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let (w, bias) = (self.params[0].data(), self.params[1].data());
        let (m, k) = (self.cfg.num_output, self.k);
        parallel_rows(ctx, top[0].data_mut(), m, |rows, y| {
            let xs = &x[rows.start * k..rows.end * k];
            forward_rows(rows.len(), m, k, xs, w, bias, y);
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let (m, k) = (self.cfg.num_output, self.k);
        let batch = self.batch;
        let tdiff = top[0].diff();

        // Parameter gradients via the privatized reduction (Algorithm 5).
        {
            let bdata = bottom[0].data();
            let mut shared: Vec<&mut [S]> = self.params.iter_mut().map(|p| p.diff_mut()).collect();
            backward_reduce(ctx, batch, &mut shared, |s, parts, _scratch| {
                let dy = &tdiff[s * m..(s + 1) * m];
                let xs = &bdata[s * k..(s + 1) * k];
                mmblas::ger(m, k, S::ONE, dy, xs, parts[0], k);
                mmblas::axpy(S::ONE, dy, parts[1]);
            });
        }

        // Bottom diff: dx_s = W^T dy_s — disjoint per-sample segments.
        if self.propagate_down {
            let w = self.params[0].data();
            parallel_segments(ctx, bottom[0].diff_mut(), k, |s, dx| {
                let dy = &tdiff[s * m..(s + 1) * m];
                mmblas::gemv(Yes, m, k, S::ONE, w, k, dy, S::ZERO, dx);
            });
        }
    }

    fn params(&self) -> &[Blob<S>] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Blob<S>] {
        &mut self.params
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let (m, k) = (self.cfg.num_output as f64, self.k as f64);
        (
            PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: 2.0 * m * k + m,
                // The weight matrix is re-read per sample but stays mostly
                // LLC-resident across the batch: charge a residency fraction.
                bytes_in_per_iter: (k + WEIGHT_RESIDENCY * m * k) * elem,
                bytes_out_per_iter: m * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch,
                // dW (2mk) + db (m) + dx (2mk when propagated).
                flops_per_iter: if self.propagate_down {
                    4.0 * m * k + m
                } else {
                    2.0 * m * k + m
                },
                bytes_in_per_iter: (m + k + WEIGHT_RESIDENCY * m * k) * elem,
                // The rank-1 update rewrites the privatized dW each sample,
                // again mostly cache-resident.
                bytes_out_per_iter: (WEIGHT_RESIDENCY * m * k + k) * elem,
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

    fn make(n_out: usize) -> InnerProductLayer<f64> {
        let mut cfg = InnerProductConfig::new(n_out);
        cfg.seed = 42;
        InnerProductLayer::new("ip", cfg)
    }

    /// Overwrite the weights and the bias (after `setup`).
    fn set_params(l: &mut InnerProductLayer<f64>, w: &[f64], b: &[f64]) {
        l.params_mut()[0].data_mut().copy_from_slice(w);
        l.params_mut()[1].data_mut().copy_from_slice(b);
    }

    fn ws_for(layer: &InnerProductLayer<f64>, t: usize) -> Workspace<f64> {
        Workspace::new(t, t, WorkspaceRequest::of(layer))
    }

    #[test]
    fn forward_ones_weights_plus_bias() {
        let mut l = make(2);
        let b: Blob<f64> = Blob::from_data([2usize, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes[0].dims(), &[2, 2]);
        set_params(&mut l, &[1.0; 4], &[0.5, -1.0]);
        let ws = ws_for(&l, 1);
        let team = ThreadTeam::new(1);
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        // All-ones weights: each output = sum of inputs + bias.
        assert_eq!(tops[0].data(), &[3.5, 2.0, 7.5, 6.0]);
    }

    #[test]
    fn backward_gradients_match_manual() {
        // 1 sample, x = [1, 2], W = [[1, 0], [0, 1]], b = [0.25, -0.5],
        // dy = [5, 7].
        let mut l = make(2);
        let b: Blob<f64> = Blob::from_data([1usize, 2], vec![1.0, 2.0]);
        let shapes = l.setup(&[&b]);
        set_params(&mut l, &[1.0, 0.0, 0.0, 1.0], &[0.25, -0.5]);
        let ws = ws_for(&l, 1);
        let team = ThreadTeam::new(1);
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        assert_eq!(tops[0].data(), &[1.25, 1.5]);
        tops[0].diff_mut().copy_from_slice(&[5.0, 7.0]);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        // dW = dy ⊗ x = [[5, 10], [7, 14]]; db = dy; dx = W^T dy = [5, 7].
        assert_eq!(l.params()[0].diff(), &[5.0, 10.0, 7.0, 14.0]);
        assert_eq!(l.params()[1].diff(), &[5.0, 7.0]);
        assert_eq!(bots[0].diff(), &[5.0, 7.0]);
    }

    #[test]
    fn parallel_matches_sequential_forward() {
        let mut l1 = make(8);
        let mut l4 = make(8);
        let data: Vec<f64> = (0..6 * 10).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Blob<f64> = Blob::from_data([6usize, 10], data);
        let s1 = l1.setup(&[&b]);
        let s4 = l4.setup(&[&b]);
        assert_eq!(l1.params()[0].data(), l4.params()[0].data());
        let (t1, t4) = (ThreadTeam::new(1), ThreadTeam::new(4));
        let (w1, w4) = (ws_for(&l1, 1), ws_for(&l4, 4));
        let (c1, c4) = (ExecCtx::new(&t1, &w1), ExecCtx::new(&t4, &w4));
        let mut o1 = vec![Blob::new(s1[0].clone())];
        let mut o4 = vec![Blob::new(s4[0].clone())];
        l1.forward(&c1, &[&b], &mut o1);
        l4.forward(&c4, &[&b], &mut o4);
        assert_eq!(o1[0].data(), o4[0].data());
    }

    /// `f32`, so a release run exercises the AVX2 kernel: under every team
    /// size, with a non-zero bias, and at batch sizes that are no multiple
    /// of the kernel's 6 x 16 tile, the forward is bitwise one 1-row GEMM
    /// per sample — however the samples were grouped into runs — and close
    /// to the triple-loop oracle. Batches of 1–5 run the kernel's few-row
    /// (narrow) path whole on one thread and as 1–2-row runs on four; the
    /// larger ones its tiles.
    #[test]
    fn forward_is_bitwise_a_gemm_per_sample_at_every_team_size() {
        // Two `k` panels.
        const M: usize = 20;
        const K: usize = 300;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batch in [1usize, 2, 3, 4, 5, 7, 23, 37] {
            let data: Vec<f32> = (0..batch * K).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Blob<f32> = Blob::from_data([batch, K], data.clone());
            let mut l = InnerProductLayer::<f32>::new("ip", InnerProductConfig::new(M));
            let shapes = l.setup(&[&b]);
            for (i, v) in l.params_mut()[1].data_mut().iter_mut().enumerate() {
                *v = (i as f32 * 0.7).sin() * 0.5;
            }
            let w = l.params()[0].data().to_vec();
            let bias = l.params()[1].data().to_vec();

            let mut want = bias.repeat(batch);
            let mut oracle = want.clone();
            for (xs, y) in data.chunks(K).zip(want.chunks_mut(M)) {
                mmblas::gemm(No, Yes, 1, M, K, 1.0, xs, K, &w, K, 1.0, y, M);
            }
            mmblas::gemm_naive(
                No,
                Yes,
                batch,
                M,
                K,
                1.0,
                &data,
                K,
                &w,
                K,
                1.0,
                &mut oracle,
                M,
            );
            for (g, o) in want.iter().zip(&oracle) {
                assert!((g - o).abs() <= 1e-5 * (1.0 + o.abs()), "{g} vs oracle {o}");
            }

            for threads in 1..=4 {
                let team = ThreadTeam::new(threads);
                let ws = Workspace::<f32>::new(threads, threads, WorkspaceRequest::of(&l));
                let ctx = ExecCtx::new(&team, &ws);
                let mut tops = vec![Blob::new(shapes[0].clone())];
                l.forward(&ctx, &[&b], &mut tops);
                assert_eq!(
                    bits(tops[0].data()),
                    bits(&want),
                    "batch {batch}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn propagate_down_false_skips_bottom_diff() {
        let mut l = make(2);
        l.set_propagate_down(false);
        let b: Blob<f64> = Blob::from_data([1usize, 2], vec![1.0, 1.0]);
        let shapes = l.setup(&[&b]);
        set_params(&mut l, &[1.0; 4], &[0.5, 0.5]);
        let ws = ws_for(&l, 1);
        let team = ThreadTeam::new(1);
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(&[1.0, 1.0]);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        assert_eq!(bots[0].diff(), &[0.0, 0.0]);
        // Parameter gradients still computed.
        assert_eq!(l.params()[1].diff(), &[1.0, 1.0]);
    }
}
