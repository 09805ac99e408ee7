//! Power transform — Caffe's `Power` layer:
//! `y = (shift + scale * x)^power`.

use crate::activation::Activation;
use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `Power` layer.
pub struct PowerLayer<S: Scalar = f32> {
    name: String,
    power: f64,
    scale: f64,
    shift: f64,
    seg_len: usize,
    n_segs: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> PowerLayer<S> {
    /// New power layer computing `(shift + scale * x)^power`.
    pub fn new(name: impl Into<String>, power: f64, scale: f64, shift: f64) -> Self {
        Self {
            name: name.into(),
            power,
            scale,
            shift,
            seg_len: 0,
            n_segs: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for PowerLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Power"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Power: exactly one bottom");
        self.seg_len = bottom[0].segment_len().max(1);
        self.n_segs = bottom[0].count() / self.seg_len;
        vec![bottom[0].shape().clone()]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let seg = self.seg_len;
        let (p, a, b) = (
            S::from_f64(self.power),
            S::from_f64(self.scale),
            S::from_f64(self.shift),
        );
        parallel_segments(ctx, top[0].data_mut(), seg, |i, out| {
            let xin = &x[i * seg..(i + 1) * seg];
            for (o, &v) in out.iter_mut().zip(xin) {
                let inner = b + a * v;
                *o = if self.power == 1.0 {
                    inner
                } else {
                    inner.powf(p)
                };
            }
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        // dy/dx = power * scale * (shift + scale x)^(power - 1)
        let dy = top[0].diff();
        let seg = self.seg_len;
        let (p, a, b) = (
            S::from_f64(self.power),
            S::from_f64(self.scale),
            S::from_f64(self.shift),
        );
        let pm1 = S::from_f64(self.power - 1.0);
        let (bdata, bdiff) = bottom[0].data_diff_mut();
        let bdata: &[S] = bdata;
        parallel_segments(ctx, bdiff, seg, |i, dx| {
            let r = i * seg..(i + 1) * seg;
            let (xin, g) = (&bdata[r.clone()], &dy[r]);
            for j in 0..dx.len() {
                let inner = b + a * xin[j];
                let d = if self.power == 1.0 {
                    a
                } else {
                    p * a * inner.powf(pm1)
                };
                dx[j] = g[j] * d;
            }
        });
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let elem = std::mem::size_of::<S>() as f64;
        let seg = self.seg_len as f64;
        let pass = PassProfile {
            coalesced_iters: self.n_segs,
            flops_per_iter: seg * 22.0,
            bytes_in_per_iter: seg * elem,
            bytes_out_per_iter: seg * elem,
            seq_flops: 0.0,
            reduction_elems: 0,
        };
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Power".to_string(),
            forward: pass,
            backward: pass,
            batch: bottom[0].num(),
        }
    }
}

/// Absolute value — Caffe's `AbsVal` layer, expressed via the generic
/// activation machinery.
pub struct AbsVal;

impl Activation for AbsVal {
    const TYPE: &'static str = "AbsVal";
    const FWD_FLOPS_PER_ELEM: f64 = 1.0;
    const BWD_FLOPS_PER_ELEM: f64 = 1.0;

    #[inline]
    fn f<S: Scalar>(x: S) -> S {
        x.abs()
    }

    #[inline]
    fn df<S: Scalar>(x: S, _y: S) -> S {
        if x > S::ZERO {
            S::ONE
        } else if x < S::ZERO {
            -S::ONE
        } else {
            S::ZERO
        }
    }
}

/// Caffe `AbsVal` layer.
pub type AbsValLayer = crate::activation::ActivationLayer<AbsVal>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    fn run(power: f64, scale: f64, shift: f64, x: Vec<f64>, dy: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
        let mut l: PowerLayer<f64> = PowerLayer::new("pow", power, scale, shift);
        let n = x.len();
        let b: Blob<f64> = Blob::from_data([1usize, 1, 1, n], x);
        let shapes = l.setup(&[&b]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(&dy);
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        (tops[0].data().to_vec(), bots[0].diff().to_vec())
    }

    #[test]
    fn square_and_its_gradient() {
        let (y, dx) = run(2.0, 1.0, 0.0, vec![3.0, -2.0], vec![1.0, 1.0]);
        assert_eq!(y, vec![9.0, 4.0]);
        assert_eq!(dx, vec![6.0, -4.0]);
    }

    #[test]
    fn affine_fast_path() {
        let (y, dx) = run(1.0, 2.0, 5.0, vec![1.0, 2.0], vec![1.0, 3.0]);
        assert_eq!(y, vec![7.0, 9.0]);
        assert_eq!(dx, vec![2.0, 6.0]);
    }

    #[test]
    fn absval_activation() {
        assert_eq!(AbsVal::f(-3.0f32), 3.0);
        assert_eq!(AbsVal::df(-3.0f32, 3.0), -1.0);
        assert_eq!(AbsVal::df(3.0f32, 3.0), 1.0);
        assert_eq!(AbsVal::df(0.0f32, 0.0), 0.0);
    }
}
