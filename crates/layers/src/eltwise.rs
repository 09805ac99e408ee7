//! Elementwise combination of multiple bottoms — Caffe's `Eltwise` layer
//! (SUM / PROD / MAX over two or more equally-shaped inputs).

use crate::batch_cache::BatchCache;
use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use omprt::DisjointSlices;

/// Combination operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EltwiseOp {
    /// Weighted sum (coefficients default to 1).
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum (argmax mask kept for backward).
    Max,
}

/// Caffe `Eltwise` layer.
pub struct EltwiseLayer<S: Scalar = f32> {
    name: String,
    op: EltwiseOp,
    /// SUM coefficients, one per bottom (empty = all ones).
    coeffs: Vec<S>,
    n_bottoms: usize,
    seg_len: usize,
    count: usize,
    /// For MAX: which bottom supplied each output element.
    argmax: BatchCache<u8>,
}

impl<S: Scalar> EltwiseLayer<S> {
    /// New eltwise layer. `coeffs` applies to SUM only; empty means 1.0
    /// for every bottom.
    pub fn new(name: impl Into<String>, op: EltwiseOp, coeffs: Vec<S>) -> Self {
        Self {
            name: name.into(),
            op,
            coeffs,
            n_bottoms: 0,
            seg_len: 0,
            count: 0,
            argmax: BatchCache::new(),
        }
    }
}

impl<S: Scalar> Layer<S> for EltwiseLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Eltwise"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert!(bottom.len() >= 2, "Eltwise: needs at least two bottoms");
        for b in &bottom[1..] {
            assert_eq!(
                b.shape(),
                bottom[0].shape(),
                "Eltwise: all bottoms must share a shape"
            );
        }
        if !self.coeffs.is_empty() {
            assert_eq!(
                self.coeffs.len(),
                bottom.len(),
                "Eltwise: one coefficient per bottom"
            );
        }
        self.n_bottoms = bottom.len();
        self.seg_len = bottom[0].segment_len().max(1);
        self.count = bottom[0].count();
        if self.op == EltwiseOp::Max {
            self.argmax.seat(self.count);
        }
        vec![bottom[0].shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let seg = self.seg_len;
        let inputs: Vec<&[S]> = bottom.iter().map(|b| b.data()).collect();
        let coeff = |i: usize| -> S {
            if self.coeffs.is_empty() {
                S::ONE
            } else {
                self.coeffs[i]
            }
        };
        match self.op {
            EltwiseOp::Sum => {
                let coeffs: Vec<S> = (0..inputs.len()).map(coeff).collect();
                parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
                    let r = i * seg..(i + 1) * seg;
                    for (j, o) in out.iter_mut().enumerate() {
                        let mut acc = S::ZERO;
                        for (b, c) in inputs.iter().zip(&coeffs) {
                            acc += *c * b[r.start + j];
                        }
                        *o = acc;
                    }
                });
            }
            EltwiseOp::Prod => {
                parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
                    let r = i * seg..(i + 1) * seg;
                    for (j, o) in out.iter_mut().enumerate() {
                        let mut acc = S::ONE;
                        for b in &inputs {
                            acc *= b[r.start + j];
                        }
                        *o = acc;
                    }
                });
            }
            EltwiseOp::Max => {
                let mask = DisjointSlices::new(&mut self.argmax, seg);
                parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
                    // SAFETY: each segment index runs exactly once.
                    let m = unsafe { mask.segment_mut(i) };
                    let base = i * seg;
                    for (j, o) in out.iter_mut().enumerate() {
                        let mut best = inputs[0][base + j];
                        let mut who = 0u8;
                        for (bi, b) in inputs.iter().enumerate().skip(1) {
                            if b[base + j] > best {
                                best = b[base + j];
                                who = bi as u8;
                            }
                        }
                        *o = best;
                        m[j] = who;
                    }
                });
            }
        }
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let seg = self.seg_len;
        let dy = top[0].diff();
        match self.op {
            EltwiseOp::Sum => {
                for (bi, b) in bottom.iter_mut().enumerate() {
                    let c = if self.coeffs.is_empty() {
                        S::ONE
                    } else {
                        self.coeffs[bi]
                    };
                    parallel_segments(ctx, b.diff_mut(), seg, |i, dx| {
                        let base = i * seg;
                        for (j, d) in dx.iter_mut().enumerate() {
                            *d = c * dy[base + j];
                        }
                    });
                }
            }
            EltwiseOp::Prod => {
                // dx_b = dy * prod_{b' != b} x_b'
                let datas: Vec<Vec<S>> = bottom.iter().map(|b| b.data().to_vec()).collect();
                for (bi, b) in bottom.iter_mut().enumerate() {
                    let datas = &datas;
                    parallel_segments(ctx, b.diff_mut(), seg, |i, dx| {
                        let base = i * seg;
                        for (j, d) in dx.iter_mut().enumerate() {
                            let mut acc = dy[base + j];
                            for (oi, other) in datas.iter().enumerate() {
                                if oi != bi {
                                    acc *= other[base + j];
                                }
                            }
                            *d = acc;
                        }
                    });
                }
            }
            EltwiseOp::Max => {
                let mask = &self.argmax;
                for (bi, b) in bottom.iter_mut().enumerate() {
                    parallel_segments(ctx, b.diff_mut(), seg, |i, dx| {
                        let base = i * seg;
                        for (j, d) in dx.iter_mut().enumerate() {
                            *d = if mask[base + j] as usize == bi {
                                dy[base + j]
                            } else {
                                S::ZERO
                            };
                        }
                    });
                }
            }
        }
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let b = bottom[0];
        let elem = std::mem::size_of::<S>() as f64;
        let seg = self.seg_len as f64;
        let k = self.n_bottoms as f64;
        let pass = PassProfile {
            coalesced_iters: self.count / self.seg_len,
            flops_per_iter: seg * k,
            bytes_in_per_iter: seg * k * elem,
            bytes_out_per_iter: seg * elem,
            seq_flops: 0.0,
            reduction_elems: 0,
        };
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Eltwise".to_string(),
            forward: pass,
            backward: pass,
            batch: b.num(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    fn run(
        op: EltwiseOp,
        coeffs: Vec<f64>,
        a: Vec<f64>,
        b: Vec<f64>,
        dy: Vec<f64>,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut l: EltwiseLayer<f64> = EltwiseLayer::new("e", op, coeffs);
        let n = a.len();
        let ba: Blob<f64> = Blob::from_data([1usize, 1, 1, n], a);
        let bb: Blob<f64> = Blob::from_data([1usize, 1, 1, n], b);
        let shapes = l.setup(&[&ba, &bb]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&ba, &bb], &mut tops);
        tops[0].diff_mut().copy_from_slice(&dy);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![ba, bb];
        l.backward(&ctx, &trefs, &mut bots);
        (
            tops[0].data().to_vec(),
            bots[0].diff().to_vec(),
            bots[1].diff().to_vec(),
        )
    }

    #[test]
    fn sum_with_coefficients() {
        let (y, da, db) = run(
            EltwiseOp::Sum,
            vec![2.0, -1.0],
            vec![1.0, 2.0],
            vec![10.0, 20.0],
            vec![1.0, 1.0],
        );
        assert_eq!(y, vec![-8.0, -16.0]);
        assert_eq!(da, vec![2.0, 2.0]);
        assert_eq!(db, vec![-1.0, -1.0]);
    }

    #[test]
    fn prod_forward_and_backward() {
        let (y, da, db) = run(
            EltwiseOp::Prod,
            vec![],
            vec![2.0, 3.0],
            vec![5.0, 7.0],
            vec![1.0, 2.0],
        );
        assert_eq!(y, vec![10.0, 21.0]);
        assert_eq!(da, vec![5.0, 14.0]);
        assert_eq!(db, vec![2.0, 6.0]);
    }

    #[test]
    fn max_routes_gradient_to_winner() {
        let (y, da, db) = run(
            EltwiseOp::Max,
            vec![],
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![3.0, 4.0],
        );
        assert_eq!(y, vec![5.0, 9.0]);
        assert_eq!(da, vec![0.0, 4.0]);
        assert_eq!(db, vec![3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mismatched_bottoms_panic() {
        let mut l: EltwiseLayer<f64> = EltwiseLayer::new("e", EltwiseOp::Sum, vec![]);
        let a: Blob<f64> = Blob::new([2usize]);
        let b: Blob<f64> = Blob::new([3usize]);
        let _ = l.setup(&[&a, &b]);
    }
}
