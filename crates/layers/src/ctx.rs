//! Execution context: thread team, reduction mode, phase.

use crate::workspace::Workspace;
use mmblas::Scalar;
use omprt::ThreadTeam;

/// Training vs. inference phase (affects dropout and data augmentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Gradient-producing pass.
    Train,
    /// Evaluation pass: dropout disabled, no augmentation.
    Test,
}

/// How many privatized weight-gradient buffers ("slots") a backward pass
/// folds (paper §3.2.1). Slot `g` accumulates the `g`-th contiguous
/// [`omprt::static_chunk`] of the batch; the slots then add into the shared
/// diff in slot order, and the loss sums by the same chunks, so the result
/// depends on the slot count and on nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionMode {
    /// The paper's choice: one slot per thread, so the grouping follows the
    /// team size. The 1-thread run defines the sequential reference, and
    /// `T` threads equal 1 thread under `Canonical { groups: T }`.
    Ordered,
    /// Our extension: a *fixed* number of slots, independent of the team
    /// size. Bitwise identical results for **any** team size `<=` the group
    /// count.
    Canonical {
        /// Number of accumulation groups (must be >= the largest team size
        /// used; 16 matches the paper's machine).
        groups: usize,
    },
}

impl ReductionMode {
    /// Number of privatized accumulation slots for a team of `nthreads`.
    pub fn slots(&self, nthreads: usize) -> usize {
        match self {
            ReductionMode::Ordered => nthreads,
            ReductionMode::Canonical { groups } => (*groups).max(nthreads),
        }
    }
}

/// Everything a layer pass needs to execute: the thread team, the
/// gradient-reduction policy, shared scratch space, and the phase/iteration
/// for stateful layers.
pub struct ExecCtx<'a, S: Scalar = f32> {
    /// The thread team (`#pragma omp parallel`); size 1 = sequential.
    pub team: &'a ThreadTeam,
    /// Weight-gradient reduction policy.
    pub reduction: ReductionMode,
    /// Shared per-thread/per-slot scratch buffers.
    pub workspace: &'a Workspace<S>,
    /// Train or test.
    pub phase: Phase,
    /// Global iteration counter (seeds dropout masks deterministically).
    pub iteration: u64,
}

impl<'a, S: Scalar> ExecCtx<'a, S> {
    /// Context with the paper's defaults: one slot per thread, training
    /// phase.
    pub fn new(team: &'a ThreadTeam, workspace: &'a Workspace<S>) -> Self {
        Self {
            team,
            reduction: ReductionMode::Ordered,
            workspace,
            phase: Phase::Train,
            iteration: 0,
        }
    }

    /// Builder-style: set the reduction mode.
    pub fn with_reduction(mut self, r: ReductionMode) -> Self {
        self.reduction = r;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts() {
        assert_eq!(ReductionMode::Ordered.slots(4), 4);
        assert_eq!(ReductionMode::Canonical { groups: 16 }.slots(4), 16);
        assert_eq!(ReductionMode::Canonical { groups: 8 }.slots(12), 12);
    }

    #[test]
    fn ctx_builders() {
        let team = ThreadTeam::new(1);
        let ws = Workspace::<f32>::empty();
        let mode = ReductionMode::Canonical { groups: 2 };
        let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
        assert_eq!(ctx.reduction, mode);
        assert_eq!(ctx.phase, Phase::Train);
    }
}
