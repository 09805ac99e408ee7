//! High-level, network-agnostic training driver.

use crate::checkpoint::{SEC_CURSOR, SEC_META, SEC_SOLVER};
use crate::observe::LayerTimeProfile;
use layers::data::BatchSource;
use layers::ReductionMode;
use mmblas::Scalar;
use net::snapshot::{self, SEC_PARAMS};
use net::{Net, RunConfig, SpecError};
use omprt::ThreadTeam;
use solvers::{Solver, SolverConfig};
use std::io;
use std::path::Path;
use std::time::Instant;
use wire::{Put, Reader};

/// Cached handles into the global metrics registry, resolved once per
/// trainer so the per-step updates are pure atomic operations.
struct StepMetrics {
    iterations: obs::Counter,
    step_seconds: obs::Histogram,
    last_loss: obs::Gauge,
}

impl StepMetrics {
    fn new() -> Self {
        let reg = obs::registry::global();
        Self {
            iterations: reg.counter("train.iterations"),
            step_seconds: reg.histogram("train.step_seconds", &obs::registry::DURATION_BOUNDS_SECS),
            last_loss: reg.gauge("train.last_loss"),
        }
    }
}

/// The paper's system in one object: a network, a solver, a thread team,
/// and the coarse-grain run configuration.
///
/// The trainer is *network-agnostic*: nothing here inspects layer types.
/// Changing the thread count changes only the team — no training parameter —
/// so convergence is invariant (the paper's two headline properties).
pub struct CoarseGrainTrainer<S: Scalar = f32> {
    net: Net<S>,
    solver: Solver<S>,
    team: ThreadTeam,
    run: RunConfig,
    metrics: StepMetrics,
    profiler: Option<LayerTimeProfile>,
}

impl<S: Scalar> CoarseGrainTrainer<S> {
    /// Assemble a trainer from parts.
    pub fn new(net: Net<S>, solver_cfg: SolverConfig, threads: usize) -> Self {
        Self {
            net,
            solver: Solver::new(solver_cfg),
            team: ThreadTeam::new(threads),
            run: RunConfig::default(),
            metrics: StepMetrics::new(),
            profiler: None,
        }
    }

    /// LeNet/MNIST trainer with Caffe's LeNet solver settings.
    pub fn lenet(source: Box<dyn BatchSource<S>>, threads: usize) -> Result<Self, SpecError> {
        Ok(Self::new(
            crate::nets::lenet(source)?,
            SolverConfig::lenet(),
            threads,
        ))
    }

    /// CIFAR-10 full trainer with Caffe's cifar10_full solver settings.
    pub fn cifar10_full(
        source: Box<dyn BatchSource<S>>,
        threads: usize,
    ) -> Result<Self, SpecError> {
        Ok(Self::new(
            crate::nets::cifar10_full(source)?,
            SolverConfig::cifar(),
            threads,
        ))
    }

    /// Override the gradient reduction mode (default:
    /// [`ReductionMode::Ordered`], the paper's choice).
    pub fn with_reduction(mut self, mode: ReductionMode) -> Self {
        self.run.reduction = mode;
        self
    }

    /// Start accumulating a measured per-layer timing profile (see
    /// [`LayerTimeProfile`] and `cgdnn train --profile`). Idempotent.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            let names = self
                .net
                .layer_names()
                .into_iter()
                .map(str::to_string)
                .collect();
            self.profiler = Some(LayerTimeProfile::new(names));
        }
    }

    /// Builder form of [`CoarseGrainTrainer::enable_profiling`].
    pub fn with_profiling(mut self) -> Self {
        self.enable_profiling();
        self
    }

    /// The accumulated per-layer timing profile, if profiling is enabled.
    pub fn profile(&self) -> Option<&LayerTimeProfile> {
        self.profiler.as_ref()
    }

    /// Train for `n` iterations; returns the loss of each iteration.
    pub fn train(&mut self, n: usize) -> Vec<S> {
        (0..n).map(|_| self.step()).collect()
    }

    /// One training iteration; returns the loss.
    ///
    /// Publishes `train.iterations` / `train.step_seconds` /
    /// `train.last_loss` into [`obs::registry::global`] and, when profiling
    /// is enabled, folds the net's per-layer pass times into the profile.
    /// Neither touches training state, so the loss trajectory is unaffected.
    pub fn step(&mut self) -> S {
        let t0 = Instant::now();
        let loss = self.solver.step(&mut self.net, &self.team, &self.run);
        self.metrics.iterations.inc();
        self.metrics
            .step_seconds
            .observe(t0.elapsed().as_secs_f64());
        self.metrics.last_loss.set(loss.to_f64());
        if let Some(p) = &mut self.profiler {
            p.accumulate(
                self.net.last_forward_seconds(),
                self.net.last_backward_seconds(),
            );
        }
        loss
    }

    /// Evaluate over `batches` test batches: the mean test-phase loss.
    pub fn evaluate(&mut self, batches: usize) -> S {
        solvers::evaluate(&mut self.net, &self.team, &self.run, batches)
    }

    /// The underlying network.
    pub fn net(&self) -> &Net<S> {
        &self.net
    }

    /// Mutable access to the underlying network.
    pub fn net_mut(&mut self) -> &mut Net<S> {
        &mut self.net
    }

    /// The thread team.
    pub fn team(&self) -> &ThreadTeam {
        &self.team
    }

    /// The active run configuration.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    /// The solver.
    pub fn solver(&self) -> &Solver<S> {
        &self.solver
    }

    /// Mutable access to the solver (resume and rollback paths).
    pub fn solver_mut(&mut self) -> &mut Solver<S> {
        &mut self.solver
    }

    /// Serialize the complete training state as a v2 checkpoint: learnable
    /// parameters, solver history/iteration/LR position, and the dataset
    /// cursor. Restoring these bytes continues training bit-identically —
    /// on any thread count, since the team is not training state.
    pub fn checkpoint_bytes(&self) -> io::Result<Vec<u8>> {
        let params = snapshot::params_to_bytes(&self.net);
        let mut solver_state = Vec::new();
        self.solver.save_state(&mut solver_state)?;
        let mut meta = Vec::with_capacity(16);
        meta.put_u64(self.solver.iteration());
        meta.put_f64(self.solver.lr_scale());
        let mut sections: Vec<([u8; 4], &[u8])> = vec![
            (SEC_PARAMS, &params),
            (SEC_SOLVER, &solver_state),
            (SEC_META, &meta),
        ];
        let mut cursor_bytes = Vec::with_capacity(8);
        if let Some(c) = self.net.data_cursor() {
            cursor_bytes.put_u64(c as u64);
            sections.push((SEC_CURSOR, &cursor_bytes));
        }
        let mut out = Vec::new();
        snapshot::save_sections(&sections, &mut out)?;
        Ok(out)
    }

    /// Write a checkpoint to `path` atomically (temp file + fsync + rename).
    pub fn checkpoint(&self, path: &Path) -> io::Result<()> {
        net::write_atomic(path, &self.checkpoint_bytes()?)
    }

    /// Restore training state from checkpoint bytes. Requires the parameter
    /// and solver sections — a params-only snapshot (e.g. one written by
    /// `--snapshot`) is rejected, because resuming from it would silently
    /// restart the schedule and momentum.
    ///
    /// # Errors
    /// `InvalidData` on corruption, missing sections, or shape mismatch. On
    /// error the trainer may hold partially restored parameters; callers
    /// either fall back to another checkpoint or abandon the trainer.
    pub fn resume_from_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let invalid = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let sections = snapshot::read_sections(bytes)?;
        let find = |tag: [u8; 4]| {
            sections
                .iter()
                .find(|(t, _)| *t == tag)
                .map(|(_, p)| p.as_slice())
        };
        let params = find(SEC_PARAMS).ok_or_else(|| invalid("checkpoint has no PRMS section"))?;
        let solver_state = find(SEC_SOLVER).ok_or_else(|| {
            invalid("checkpoint has no SOLV section — is this a params-only snapshot?")
        })?;
        // Solver first: it fully validates before mutating, so a bad solver
        // section leaves the trainer untouched.
        self.solver.load_state(solver_state)?;
        snapshot::params_from_bytes(&mut self.net, params)?;
        if let Some(meta) = find(SEC_META) {
            // iteration u64 | lr_scale f64; later fields may follow.
            let mut r = Reader::new(meta);
            let iter = r.u64()?;
            r.f64()?;
            if iter != self.solver.iteration() {
                return Err(invalid(
                    "checkpoint META iteration disagrees with solver state",
                ));
            }
        }
        if let Some(cur) = find(SEC_CURSOR) {
            let mut r = Reader::new(cur);
            let cursor = r.u64()?;
            r.finish()?;
            self.net.set_data_cursor(cursor as usize);
        }
        self.net.set_iteration(self.solver.iteration());
        Ok(())
    }

    /// Restore training state from a checkpoint file written by
    /// [`CoarseGrainTrainer::checkpoint`].
    pub fn resume(&mut self, path: &Path) -> io::Result<()> {
        self.resume_from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::SyntheticMnist;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-size LeNet training; run with --release"
    )]
    fn trainer_reduces_loss_on_synthetic_mnist() {
        let mut t =
            CoarseGrainTrainer::<f32>::lenet(Box::new(SyntheticMnist::new(256, 3)), 2).unwrap();
        let losses = t.train(8);
        assert_eq!(losses.len(), 8);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(first.is_finite() && last.is_finite());
        // ln(10) ~ 2.303 at start; must improve noticeably within 8 iters.
        assert!(
            last < first,
            "loss should decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn builder_overrides() {
        let t = CoarseGrainTrainer::<f32>::lenet(Box::new(SyntheticMnist::new(64, 0)), 1)
            .unwrap()
            .with_reduction(ReductionMode::Canonical { groups: 16 });
        assert_eq!(
            t.run_config().reduction,
            ReductionMode::Canonical { groups: 16 }
        );
    }
}
