//! Flatten — reshapes `(N, C, H, W)` to `(N, C*H*W)`, copying through.

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;

/// Caffe `Flatten` layer.
pub struct FlattenLayer<S: Scalar = f32> {
    name: String,
    batch: usize,
    sample_len: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> FlattenLayer<S> {
    /// New flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            batch: 0,
            sample_len: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> Layer<S> for FlattenLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Flatten"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Flatten: exactly one bottom");
        self.batch = bottom[0].num();
        self.sample_len = bottom[0].sample_len();
        vec![Shape::from(vec![self.batch, self.sample_len])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let len = self.sample_len;
        parallel_segments(ctx, top[0].data_mut(), len, |s, out| {
            out.copy_from_slice(&x[s * len..(s + 1) * len]);
        });
    }

    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let dy = top[0].diff();
        let len = self.sample_len;
        parallel_segments(ctx, bottom[0].diff_mut(), len, |s, dx| {
            dx.copy_from_slice(&dy[s * len..(s + 1) * len]);
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let len = self.sample_len as f64;
        let copy = PassProfile {
            coalesced_iters: self.batch,
            flops_per_iter: 0.0,
            bytes_in_per_iter: len * elem,
            bytes_out_per_iter: len * elem,
            seq_flops: 0.0,
            reduction_elems: 0,
        };
        (copy, copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn flatten_round_trip() {
        let mut l: FlattenLayer<f32> = FlattenLayer::new("flat");
        let b: Blob<f32> = Blob::from_data([2usize, 2, 1, 2], (0..8).map(|i| i as f32).collect());
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes[0].dims(), &[2, 4]);
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        assert_eq!(tops[0].data(), b.data());
        tops[0].diff_mut().copy_from_slice(&[7.0; 8]);
        let trefs: Vec<&Blob<f32>> = tops.iter().collect();
        let mut bots = vec![b];
        l.backward(&ctx, &trefs, &mut bots);
        assert_eq!(bots[0].diff(), &[7.0; 8]);
    }
}
