//! `cgdnn` — coarse-grain (batch-level) parallelization of DNN training.
//!
//! Rust reproduction of *"Coarse Grain Parallelization of Deep Neural
//! Networks"* (Gonzalez Tallada, PPoPP 2016). The training loop of a
//! Caffe-style network is parallelized at the batch level: each layer pass
//! runs inside a thread-team region with a statically-scheduled, coalesced
//! loop over `(sample, segment)` indices; weight gradients are privatized
//! per thread and merged through an ordered reduction.
//!
//! The two headline properties of the paper are surfaced directly in this
//! API:
//!
//! * **network-agnostic** — [`CoarseGrainTrainer`] works for any [`net::Net`]
//!   built from any layer set; no layer needs a parallel-specific
//!   implementation (see `examples/custom_network.rs`).
//! * **convergence-invariant** — no training parameter depends on the
//!   thread count; [`invariance::check_loss_invariance`] verifies the loss
//!   trajectory and the trained parameters are *bitwise identical* across
//!   team sizes under `ReductionMode::Canonical`.
//!
//! ```
//! use cgdnn::prelude::*;
//!
//! let data = datasets::SyntheticMnist::new(512, 1);
//! let mut trainer = CoarseGrainTrainer::<f32>::lenet(Box::new(data), 2).unwrap();
//! let losses = trainer.train(3);
//! assert_eq!(losses.len(), 3);
//! assert!(losses[0].is_finite());
//! ```

pub mod checkpoint;
pub mod cli;
pub mod invariance;
pub mod nets;
pub mod observe;
pub mod trainer;

pub use checkpoint::{train_with_checkpoints, CheckpointDir, FtReport, ResumeOutcome, TrainEvent};
pub use invariance::check_loss_invariance;
pub use observe::LayerTimeProfile;
pub use trainer::CoarseGrainTrainer;

// Re-export the whole stack under one roof.
pub use blob;
pub use datasets;
pub use dist;
pub use layers;
pub use machine;
pub use mmblas;
pub use net;
pub use obs;
pub use omprt;
pub use solvers;

/// Convenient glob import: the types most programs need.
pub mod prelude {
    pub use crate::checkpoint::{train_with_checkpoints, CheckpointDir, TrainEvent};
    pub use crate::nets;
    pub use crate::trainer::CoarseGrainTrainer;
    pub use blob::{Blob, Shape};
    pub use datasets::{self, BatchSource, SyntheticCifar, SyntheticMnist};
    pub use layers::{ExecCtx, Layer, Phase, ReductionMode};
    pub use net::{Net, NetSpec, RunConfig};
    pub use omprt::ThreadTeam;
    pub use solvers::{LrPolicy, Solver, SolverConfig};
}
