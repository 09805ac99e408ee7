//! Fully-connected layer — Caffe's `InnerProduct`.
//!
//! Forward: `Y = X W^T + b`, one row-range GEMM per contiguous run of
//! samples the static schedule deals a thread (Caffe's layer is one GEMM
//! per batch; a run is the coarse-grain share of it). The GEMM's bits do
//! not depend on the run, so the team size does not show in `Y`.
//! Backward, as Caffe computes it, with no privatized gradient: `dW +=
//! dy^T X` is Algorithm 4 over the rows of `dW` — each thread's run of
//! rows is one GEMM per reduction group of samples, in group order, and
//! `db` folds per-group sums in the same order — so the bits depend on the
//! slot count alone, as under [`backward_reduce`](crate::drivers::backward_reduce).
//! `dx = dy W` is one GEMM per thread's run of samples.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_rows;
use crate::fill::{weight_and_bias, Filler};
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use mmblas::Transpose::{No, Yes};
use omprt::{static_chunk, DisjointSlices};

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
        let dy = top[0].diff();
        let groups = ctx.reduction.slots(ctx.team.size());

        // dW += dy^T X and db += sum of dy, over disjoint rows of both:
        // group `g` is the samples of slot `g` of the ordered reduction.
        {
            let x = bottom[0].data();
            let (w, b) = self.params.split_at_mut(1);
            let db = DisjointSlices::new(b[0].diff_mut(), 1);
            parallel_rows(ctx, w[0].diff_mut(), k, |rows, dw| {
                // SAFETY: `parallel_rows` deals each run of rows to one
                // thread once, and row `i` of `dW` owns entry `i` of `db`.
                let db = unsafe { db.segments_mut(rows.clone()) };
                for g in 0..groups {
                    let s = static_chunk(g, groups, batch);
                    if s.is_empty() {
                        continue;
                    }
                    let dy_s = &dy[s.start * m + rows.start..];
                    let x_s = &x[s.start * k..];
                    mmblas::gemm(
                        Yes,
                        No,
                        rows.len(),
                        k,
                        s.len(),
                        S::ONE,
                        dy_s,
                        m,
                        x_s,
                        k,
                        S::ONE,
                        dw,
                        k,
                    );
                    for (i, dbi) in rows.clone().zip(db.iter_mut()) {
                        let mut part = S::ZERO;
                        for sample in s.clone() {
                            part += dy[sample * m + i];
                        }
                        *dbi += part;
                    }
                }
            });
        }

        // dx = dy W, one GEMM per thread's run of samples.
        if self.propagate_down {
            let w = self.params[0].data();
            parallel_rows(ctx, bottom[0].diff_mut(), k, |rows, dx| {
                let dy_r = &dy[rows.start * m..rows.end * m];
                mmblas::gemm(
                    No,
                    No,
                    rows.len(),
                    k,
                    m,
                    S::ONE,
                    dy_r,
                    m,
                    w,
                    k,
                    S::ZERO,
                    dx,
                    k,
                );
            });
        }
    }

    fn privatized_len(&self) -> usize {
        0
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
                // Charged as the paper's layer runs it, a per-sample rank-1
                // update of a privatized, mostly cache-resident dW — the
                // model the figures are calibrated on (EXPERIMENTS E12).
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
    use crate::ReductionMode;
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

    /// `(dW, db, dx)` of one backward pass over `x` with output diff `dy`.
    fn backward_f32(
        l: &mut InnerProductLayer<f32>,
        x: &Blob<f32>,
        dy: &[f32],
        threads: usize,
        mode: ReductionMode,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let shapes = l.setup(&[x]);
        for p in l.params_mut() {
            p.diff_mut().fill(0.0);
        }
        let team = ThreadTeam::new(threads);
        let ws = Workspace::new(threads, mode.slots(threads), WorkspaceRequest::of(&*l));
        let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
        let mut top = Blob::new(shapes[0].clone());
        top.diff_mut().copy_from_slice(dy);
        let mut bots = vec![x.clone()];
        l.backward(&ctx, &[&top], &mut bots);
        let p = l.params();
        (
            p[0].diff().to_vec(),
            p[1].diff().to_vec(),
            bots[0].diff().to_vec(),
        )
    }

    /// `f32`, so a release run exercises the vector kernels: under every
    /// team size and reduction mode, at batches that leave groups empty and
    /// that are no multiple of the group count, `dW` is bitwise one GEMM
    /// per reduction group of samples added in group order, `db` the
    /// per-group sums added in group order, and `dx` one whole-batch GEMM —
    /// hence equal for every team size at one slot count — and all three
    /// are close to the triple-loop oracle.
    #[test]
    fn backward_is_bitwise_one_gemm_per_group_at_every_team_size() {
        const M: usize = 20;
        const K: usize = 300;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let close = |got: &[f32], want: &[f32], what: &str| {
            for (g, o) in got.iter().zip(want) {
                assert!(
                    (g - o).abs() <= 1e-5 * (1.0 + o.abs()),
                    "{what}: {g} vs oracle {o}"
                );
            }
        };
        let modes = [
            ReductionMode::Ordered,
            ReductionMode::Canonical { groups: 1 },
            ReductionMode::Canonical { groups: 2 },
            ReductionMode::Canonical { groups: 3 },
            ReductionMode::Canonical { groups: 4 },
        ];
        for batch in [1usize, 5, 37, 64] {
            let xs: Vec<f32> = (0..batch * K).map(|i| (i as f32 * 0.37).sin()).collect();
            let x: Blob<f32> = Blob::from_data([batch, K], xs.clone());
            // A third of the output diff is zero, as behind a ReLU.
            let dy: Vec<f32> = (0..batch * M)
                .map(|i| {
                    if i % 3 == 1 {
                        0.0
                    } else {
                        (i as f32 * 0.11).cos() * 0.1
                    }
                })
                .collect();
            let mut l = InnerProductLayer::<f32>::new("ip", InnerProductConfig::new(M));
            l.setup(&[&x]);
            let w = l.params()[0].data().to_vec();

            let mut dw_oracle = vec![0.0f32; M * K];
            let mut dx_oracle = vec![0.0f32; batch * K];
            mmblas::gemm_naive(
                Yes,
                No,
                M,
                K,
                batch,
                1.0,
                &dy,
                M,
                &xs,
                K,
                0.0,
                &mut dw_oracle,
                K,
            );
            mmblas::gemm_naive(
                No,
                No,
                batch,
                K,
                M,
                1.0,
                &dy,
                M,
                &w,
                K,
                0.0,
                &mut dx_oracle,
                K,
            );
            let db_oracle: Vec<f32> = (0..M).map(|i| dy.iter().skip(i).step_by(M).sum()).collect();
            let mut dx_want = vec![0.0f32; batch * K];
            mmblas::gemm(
                No,
                No,
                batch,
                K,
                M,
                1.0,
                &dy,
                M,
                &w,
                K,
                0.0,
                &mut dx_want,
                K,
            );

            for mode in modes {
                for threads in 1..=4 {
                    let groups = mode.slots(threads);
                    let mut dw_want = vec![0.0f32; M * K];
                    let mut db_want = vec![0.0f32; M];
                    for g in 0..groups {
                        let s = static_chunk(g, groups, batch);
                        if s.is_empty() {
                            continue;
                        }
                        let (dy_s, x_s) = (&dy[s.start * M..], &xs[s.start * K..]);
                        mmblas::gemm(
                            Yes,
                            No,
                            M,
                            K,
                            s.len(),
                            1.0,
                            dy_s,
                            M,
                            x_s,
                            K,
                            1.0,
                            &mut dw_want,
                            K,
                        );
                        for (i, db) in db_want.iter_mut().enumerate() {
                            let mut part = 0.0f32;
                            for n in s.clone() {
                                part += dy[n * M + i];
                            }
                            *db += part;
                        }
                    }
                    let (dw, db, dx) = backward_f32(&mut l, &x, &dy, threads, mode);
                    let what = format!("batch {batch}, {threads} threads, {mode:?}");
                    assert_eq!(bits(&dw), bits(&dw_want), "dW, {what}");
                    assert_eq!(bits(&db), bits(&db_want), "db, {what}");
                    assert_eq!(bits(&dx), bits(&dx_want), "dx, {what}");
                    close(&dw, &dw_oracle, &format!("dW, {what}"));
                    close(&db, &db_oracle, &format!("db, {what}"));
                    close(&dx, &dx_oracle, &format!("dx, {what}"));
                }
            }
        }
    }

    /// IEEE propagation: `0 * NaN` is NaN, so a NaN input reaches `dW`'s
    /// column even where its sample's output diff is all zero (unlike
    /// `mmblas::ger`, which skips zero coefficients).
    #[test]
    fn a_nan_input_reaches_dw_behind_a_zero_output_diff() {
        let (batch, m, k) = (3usize, 4usize, 5usize);
        let mut xs: Vec<f32> = (0..batch * k).map(|i| i as f32 * 0.25).collect();
        xs[k + 2] = f32::NAN;
        let x: Blob<f32> = Blob::from_data([batch, k], xs);
        let dy: Vec<f32> = (0..batch * m)
            .map(|i| if i / m == 1 { 0.0 } else { 1.0 + i as f32 })
            .collect();
        for threads in [1, 2] {
            let mut l = InnerProductLayer::<f32>::new("ip", InnerProductConfig::new(m));
            let (dw, db, dx) = backward_f32(&mut l, &x, &dy, threads, ReductionMode::Ordered);
            for (e, v) in dw.iter().enumerate() {
                assert_eq!(v.is_nan(), e % k == 2, "dW[{e}] = {v}, {threads} threads");
            }
            assert!(db.iter().chain(&dx).all(|v| v.is_finite()));
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
