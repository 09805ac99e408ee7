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

/// Strategy for merging privatized weight-gradient buffers (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionMode {
    /// The paper's choice: one privatized buffer per thread, merged with an
    /// `ordered` construct in thread-id order. Deterministic for a fixed
    /// thread count; the 1-thread run defines the sequential reference.
    Ordered,
    /// Our extension: accumulation into a *fixed* number of canonical groups
    /// (independent of the thread count), merged in group order. Bitwise
    /// identical results for **any** team size `<=` the group count.
    Canonical {
        /// Number of accumulation groups (must be >= the largest team size
        /// used; 16 matches the paper's machine).
        groups: usize,
    },
    /// Merge privatized buffers in completion order under a lock — the
    /// fastest option, but nondeterministic (the paper notes developers
    /// avoid it during tuning/debugging).
    Unordered,
}

impl ReductionMode {
    /// Number of privatized accumulation slots for a team of `nthreads`.
    pub fn slots(&self, nthreads: usize) -> usize {
        match self {
            ReductionMode::Ordered | ReductionMode::Unordered => nthreads,
            ReductionMode::Canonical { groups } => (*groups).max(nthreads),
        }
    }

    /// `true` if the merge must use the ordered construct.
    pub fn is_ordered(&self) -> bool {
        !matches!(self, ReductionMode::Unordered)
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
    /// Context with the paper's defaults: ordered reduction, training
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
        assert_eq!(ReductionMode::Unordered.slots(7), 7);
        assert_eq!(ReductionMode::Canonical { groups: 16 }.slots(4), 16);
        assert_eq!(ReductionMode::Canonical { groups: 8 }.slots(12), 12);
    }

    #[test]
    fn ordered_flags() {
        assert!(ReductionMode::Ordered.is_ordered());
        assert!(ReductionMode::Canonical { groups: 16 }.is_ordered());
        assert!(!ReductionMode::Unordered.is_ordered());
    }

    #[test]
    fn ctx_builders() {
        let team = ThreadTeam::new(1);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws).with_reduction(ReductionMode::Unordered);
        assert_eq!(ctx.reduction, ReductionMode::Unordered);
        assert_eq!(ctx.phase, Phase::Train);
    }
}
