//! `layers` — Caffe-equivalent neural-network layers with a coarse-grain
//! (batch-level) parallel execution path.
//!
//! Every layer implements [`Layer`]: a `setup` shape-inference step, a
//! `forward` and a `backward` pass. Both passes take an [`ExecCtx`]
//! describing the thread team and the gradient [`ReductionMode`] — the
//! Rust rendering of the paper's OpenMP
//! transformation (Algorithms 4–5):
//!
//! * forward/backward-data loops are coalesced over `(sample, segment…)`
//!   indices and distributed with a static schedule; writes are disjoint per
//!   output segment, so no synchronization is needed;
//! * weight/bias gradients are accumulated into *privatized* buffers from the
//!   shared [`Workspace`] and merged through an ordered reduction
//!   ([`drivers::backward_reduce`]).
//!
//! Running with a team of size 1 executes the identical code path
//! sequentially — there is no separate "serial implementation", which is
//! what makes the convergence-invariance comparisons meaningful.

pub mod activation;
mod batch_cache;
pub mod conv;
pub mod ctx;
pub mod data;
pub mod drivers;
pub mod dropout;
pub mod fill;
pub mod flatten;
pub mod inner_product;
pub mod lrn;
pub mod pooling;
pub mod profile;
pub mod relu;
pub mod sigmoid;
pub mod softmax;
pub mod softmax_loss;
pub mod tanh_layer;
pub mod workspace;

pub use conv::ConvolutionLayer;
pub use ctx::{ExecCtx, Phase, ReductionMode};
pub use data::DataLayer;
pub use dropout::DropoutLayer;
pub use fill::Filler;
pub use flatten::FlattenLayer;
pub use inner_product::InnerProductLayer;
pub use lrn::LrnLayer;
pub use pooling::{PoolMethod, PoolingLayer};
pub use profile::{LayerProfile, PassProfile};
pub use relu::ReluLayer;
pub use sigmoid::SigmoidLayer;
pub use softmax::SoftmaxLayer;
pub use softmax_loss::SoftmaxLossLayer;
pub use tanh_layer::TanhLayer;
pub use workspace::{Workspace, WorkspaceRequest};

use blob::{Blob, Shape};
use mmblas::Scalar;

/// A neural network layer: the unit of computation in the Caffe model.
///
/// The network owns all blobs; a layer receives its bottom (input) blobs
/// immutably and its top (output) blobs mutably during `forward`, and the
/// reverse during `backward` (top diffs are read, bottom diffs written).
/// Layers own their parameter blobs (weights/bias), whose `diff` buffers are
/// filled by `backward` via the reduction drivers.
pub trait Layer<S: Scalar = f32>: Send {
    /// Instance name (unique within a network).
    fn name(&self) -> &str;

    /// Caffe-style type string (`"Convolution"`, `"Pooling"`, ...).
    fn layer_type(&self) -> &'static str;

    /// Shape inference and parameter allocation. Returns the shapes of the
    /// top blobs this layer produces. Called once before training, and again
    /// if bottom shapes change.
    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape>;

    /// Compute top data from bottom data.
    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]);

    /// Compute bottom diffs (and parameter diffs) from top diffs.
    ///
    /// Parameter gradients must be **accumulated** (`+=`) so a solver can
    /// zero them once per iteration; the reduction drivers do this.
    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]);

    /// Learnable parameter blobs: empty, or [`fill::weight_and_bias`]'s
    /// weight and bias, whose learning-rate multipliers are
    /// [`fill::LR_MULTS`]. The net derives the privatized gradient's length
    /// from their sizes.
    fn params(&self) -> &[Blob<S>] {
        &[]
    }

    /// Mutable access to the parameter blobs.
    fn params_mut(&mut self) -> &mut [Blob<S>] {
        &mut []
    }

    /// `true` for layers whose top\[0\] holds a scalar loss to be minimized.
    fn is_loss(&self) -> bool {
        false
    }

    /// Position of this layer's dataset cursor (the index of the next
    /// sample it will serve), if it has one. Only data layers carry a
    /// cursor; it is part of the training state a checkpoint captures.
    fn data_cursor(&self) -> Option<usize> {
        None
    }

    /// Restore a cursor previously observed with [`Layer::data_cursor`].
    /// Default: no-op for layers without one.
    fn set_data_cursor(&mut self, _cursor: usize) {}

    /// Elements of per-thread column buffer (im2col lowering) a pass needs;
    /// [`WorkspaceRequest::of`] adds the privatized gradient.
    fn col_len(&self) -> usize {
        0
    }

    /// Analytic work profiles of one forward and one backward pass over
    /// the batch, for the `machine` execution-model simulator. The net
    /// completes them into a [`LayerProfile`].
    fn profile(&self) -> (PassProfile, PassProfile);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn default_trait_methods() {
        struct Dummy;
        impl Layer<f32> for Dummy {
            fn name(&self) -> &str {
                "d"
            }
            fn layer_type(&self) -> &'static str {
                "Dummy"
            }
            fn setup(&mut self, _b: &[&Blob<f32>]) -> Vec<Shape> {
                vec![]
            }
            fn forward(&mut self, _: &ExecCtx<'_, f32>, _: &[&Blob<f32>], _: &mut [Blob<f32>]) {}
            fn backward(&mut self, _: &ExecCtx<'_, f32>, _: &[&Blob<f32>], _: &mut [Blob<f32>]) {}
            fn profile(&self) -> (PassProfile, PassProfile) {
                (PassProfile::empty(), PassProfile::empty())
            }
        }
        let mut d = Dummy;
        assert!(d.params().is_empty());
        assert!(d.params_mut().is_empty());
        assert!(!d.is_loss());
        assert_eq!(d.col_len(), 0);
        assert_eq!(WorkspaceRequest::of(&d), WorkspaceRequest::default());
        assert_eq!(d.data_cursor(), None);
        d.set_data_cursor(7); // no-op by default
        assert_eq!(d.data_cursor(), None);
    }
}
