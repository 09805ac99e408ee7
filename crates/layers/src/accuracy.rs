//! Classification accuracy — Caffe's `Accuracy` layer (test-time only).

use crate::ctx::ExecCtx;
use crate::drivers::parallel_map_ordered_sum;
use crate::profile::{LayerProfile, PassProfile};
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `Accuracy` layer. Bottoms: `[scores (N, C), labels (N)]`;
/// top: `[accuracy (1)]`. Has no backward pass.
pub struct AccuracyLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    classes: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> AccuracyLayer<S> {
    /// New accuracy layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            classes: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for AccuracyLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Accuracy"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 2, "Accuracy: scores + labels");
        self.batch = bottom[0].num();
        self.classes = bottom[0].sample_len();
        assert_eq!(
            bottom[1].count(),
            self.batch,
            "Accuracy: one label per sample"
        );
        vec![Shape::from(vec![1usize])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let labels = bottom[1].data();
        let c = self.classes;
        let hits = parallel_map_ordered_sum(ctx, self.batch, |s| {
            let pred = mmblas::iamax(&x[s * c..(s + 1) * c]).unwrap_or(0);
            if pred == labels[s].to_f64() as usize {
                S::ONE
            } else {
                S::ZERO
            }
        });
        top[0].data_mut()[0] = hits / S::from_usize(self.batch.max(1));
    }

    fn backward(&mut self, _ctx: &ExecCtx<'_, S>, _top: &[&Blob<S>], _bottom: &mut [Blob<S>]) {
        // Accuracy produces no gradient.
    }

    fn profile(&self, bottom: &[&Blob<S>]) -> LayerProfile {
        let b = bottom[0];
        let elem = std::mem::size_of::<S>() as f64;
        let c = self.classes as f64;
        LayerProfile {
            name: self.name.clone(),
            layer_type: "Accuracy".to_string(),
            forward: PassProfile {
                coalesced_iters: self.batch,
                flops_per_iter: c,
                bytes_in_per_iter: c * elem,
                bytes_out_per_iter: elem,
                seq_flops: self.batch as f64,
                reduction_elems: 0,
            },
            backward: PassProfile::empty(),
            batch: b.num(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn counts_argmax_hits() {
        let mut l: AccuracyLayer<f32> = AccuracyLayer::new("acc");
        // 4 samples, 3 classes; predictions: 2, 0, 1, 1.
        #[rustfmt::skip]
        let scores = vec![
            0.1, 0.2, 0.9,
            0.8, 0.1, 0.1,
            0.2, 0.5, 0.3,
            0.3, 0.4, 0.3,
        ];
        let b0: Blob<f32> = Blob::from_data([4usize, 3], scores);
        let b1: Blob<f32> = Blob::from_data([4usize], vec![2.0, 0.0, 0.0, 1.0]);
        let shapes = l.setup(&[&b0, &b1]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b0, &b1], &mut tops);
        assert!((tops[0].data()[0] - 0.75).abs() < 1e-6);
    }
}
