//! `solvers` — training algorithms driving the DNN training loop
//! (Algorithm 1 of the paper).
//!
//! The update is Caffe's momentum SGD, the rule both of the paper's nets
//! train with, under the two learning-rate policies the paper's solvers
//! use: LeNet's `inv` and CIFAR-10's `fixed`.
//!
//! The solver itself is deliberately *sequential* — only the layer passes
//! are parallel. This is what makes the scheme convergence-invariant: no
//! training parameter (batch size, learning rate, update order) changes
//! with the thread count.

pub mod lr;

pub use lr::LrPolicy;

use blob::Blob;
use mmblas::Scalar;
use net::{Net, RunConfig};
use omprt::ThreadTeam;
use wire::{Put, Reader};

/// Solver hyper-parameters (a Caffe solver prototxt equivalent).
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Base learning rate.
    pub base_lr: f64,
    /// Momentum.
    pub momentum: f64,
    /// L2 weight decay added to every gradient.
    pub weight_decay: f64,
    /// Learning-rate schedule.
    pub lr_policy: LrPolicy,
}

impl SolverConfig {
    /// Caffe's LeNet MNIST solver: SGD, base_lr 0.01, momentum 0.9,
    /// weight decay 5e-4, `inv` policy (gamma 1e-4, power 0.75).
    pub fn lenet() -> Self {
        Self {
            base_lr: 0.01,
            momentum: 0.9,
            weight_decay: 5e-4,
            lr_policy: LrPolicy::Inv {
                gamma: 1e-4,
                power: 0.75,
            },
        }
    }

    /// Caffe's cifar10_full solver: SGD, base_lr 0.001, momentum 0.9,
    /// weight decay 4e-3, fixed policy.
    pub fn cifar() -> Self {
        Self {
            base_lr: 0.001,
            momentum: 0.9,
            weight_decay: 4e-3,
            lr_policy: LrPolicy::Fixed,
        }
    }
}

/// A solver instance: hyper-parameters plus per-parameter history state.
pub struct Solver<S: Scalar = f32> {
    cfg: SolverConfig,
    /// Momentum history, one buffer per parameter.
    history: Vec<Vec<S>>,
    iter: u64,
    /// Multiplier applied on top of the LR policy — 1.0 normally; the
    /// divergence guard drops it on rollback. Part of the saved state.
    lr_scale: f64,
}

impl<S: Scalar> Solver<S> {
    /// New solver at iteration 0.
    pub fn new(cfg: SolverConfig) -> Self {
        Self {
            cfg,
            history: Vec::new(),
            iter: 0,
            lr_scale: 1.0,
        }
    }

    /// Current iteration count.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// Current learning-rate scale (1.0 unless dropped by a rollback).
    pub fn lr_scale(&self) -> f64 {
        self.lr_scale
    }

    /// Multiply the learning-rate scale by `factor` (the divergence
    /// guard's LR drop). The scale persists through [`Solver::save_state`].
    pub fn scale_lr(&mut self, factor: f64) {
        self.lr_scale *= factor;
    }

    /// Learning rate at iteration `it` under the configured policy,
    /// including the rollback scale.
    pub fn lr_at(&self, it: u64) -> f64 {
        self.cfg.lr_policy.lr(self.cfg.base_lr, it) * self.lr_scale
    }

    /// Advance the iteration counter by one, as [`Solver::update`] does.
    pub fn advance_iteration(&mut self) {
        self.iter += 1;
    }

    /// Run one training iteration — [`gradient`] then [`Solver::update`].
    /// Returns the loss.
    pub fn step(&mut self, net: &mut Net<S>, team: &ThreadTeam, run: &RunConfig) -> S {
        let loss = gradient(net, team, run, self.iter);
        self.update(net);
        loss
    }

    /// The update half of a step: consume the gradient in `net`'s diffs
    /// ([`gradient`]'s, or a fold of per-shard ones) at this iteration's
    /// learning rate, then advance the schedule.
    pub fn update(&mut self, net: &mut Net<S>) {
        let lr = self.lr_at(self.iter);
        let mults = net.param_lr_mults();
        {
            let _span = obs::trace::span("solver_update", "solver");
            self.apply_update(net.learnable_params_mut(), lr, &mults);
        }
        self.advance_iteration();
    }

    /// Run `n` iterations; returns the per-iteration losses.
    pub fn train(
        &mut self,
        net: &mut Net<S>,
        team: &ThreadTeam,
        run: &RunConfig,
        n: usize,
    ) -> Vec<S> {
        (0..n).map(|_| self.step(net, team, run)).collect()
    }

    fn ensure_history(&mut self, params: &[&mut Blob<S>]) {
        if self.history.len() == params.len()
            && self
                .history
                .iter()
                .zip(params)
                .all(|(h, p)| h.len() == p.count())
        {
            return;
        }
        self.history = params.iter().map(|p| vec![S::ZERO; p.count()]).collect();
    }

    /// Apply momentum SGD — `V = m*V + lr*(g + decay*W); W -= V` — to
    /// every parameter, consuming the accumulated diffs. `lr_mults` scales
    /// the learning rate per parameter (Caffe's `lr_mult`).
    /// [`Solver::update`] calls this.
    ///
    /// # Panics
    /// Panics if `lr_mults.len() != params.len()`.
    pub fn apply_update(&mut self, params: Vec<&mut Blob<S>>, lr: f64, lr_mults: &[f64]) {
        assert_eq!(params.len(), lr_mults.len(), "one lr_mult per parameter");
        self.ensure_history(&params);
        let momentum = S::from_f64(self.cfg.momentum);
        let decay = S::from_f64(self.cfg.weight_decay);
        for ((p, h), &mult) in params.into_iter().zip(&mut self.history).zip(lr_mults) {
            let lr = S::from_f64(lr * mult);
            let (data, diff) = p.data_diff_mut();
            for i in 0..data.len() {
                let g = diff[i] + decay * data[i];
                h[i] = momentum * h[i] + lr * g;
                data[i] -= h[i];
            }
        }
    }
}

impl<S: Scalar> Solver<S> {
    /// Serialize the solver state — Caffe's `.solverstate` equivalent:
    /// iteration counter, LR-schedule position (the rollback scale; the
    /// policy itself is pure in the iteration), and the momentum/history
    /// blobs. Combine with `net::save_params` for a full checkpoint.
    ///
    /// Format (`CGSS` v2, little-endian): `magic | version u32 | iter u64
    /// | lr_scale f64 | n_buffers u32 | per buffer: len u32, values f64 x
    /// len`.
    pub fn save_state(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        buf.put(b"CGSS");
        buf.put_u32(2);
        buf.put_u64(self.iter);
        buf.put_f64(self.lr_scale);
        buf.put_u32(self.history.len() as u32);
        for h in &self.history {
            buf.put_u32(h.len() as u32);
            wire::put_f64s(&mut buf, h.iter().map(|v| v.to_f64()));
        }
        w.write_all(&buf)
    }

    /// Restore state saved by [`Solver::save_state`]. Nothing is sized by
    /// a count from the file before the bytes behind it are known to be
    /// there, bytes past the last buffer are an error, and `self` is
    /// untouched unless the whole state parsed.
    pub fn load_state(&mut self, mut r: impl std::io::Read) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let bad = |m: &str| Error::new(ErrorKind::InvalidData, format!("solverstate: {m}"));
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let mut r = Reader::new(&buf);
        if &r.array::<4>()? != b"CGSS" {
            return Err(bad("bad magic"));
        }
        let version = r.u32()?;
        if version != 2 {
            return Err(bad(&format!("unsupported version {version}")));
        }
        let iter = r.u64()?;
        let lr_scale = r.f64()?;
        if !lr_scale.is_finite() || lr_scale <= 0.0 {
            return Err(bad(&format!("non-positive lr_scale {lr_scale}")));
        }
        let mut history = Vec::new();
        for _ in 0..r.u32()? {
            let len = r.u32()? as usize;
            history.push(r.f64s(len)?.map(S::from_f64).collect());
        }
        r.finish()?;
        self.iter = iter;
        self.lr_scale = lr_scale;
        self.history = history;
        Ok(())
    }
}

/// The gradient half of a step — the workspace's one training
/// forward/backward: stamp `iteration` on the net (it seeds the dropout
/// masks), zero the diffs, forward, backward. Leaves the batch gradient in
/// the diffs and returns the loss; `dist` runs it per shard.
pub fn gradient<S: Scalar>(
    net: &mut Net<S>,
    team: &ThreadTeam,
    run: &RunConfig,
    iteration: u64,
) -> S {
    net.set_iteration(iteration);
    net.zero_param_diffs();
    let loss = net.forward(team, run);
    net.backward(team, run);
    loss
}

/// Evaluate a network: run `batches` forward passes in test phase and
/// return the mean loss. The last batch's blobs stay readable on the net.
pub fn evaluate<S: Scalar>(
    net: &mut Net<S>,
    team: &ThreadTeam,
    run: &RunConfig,
    batches: usize,
) -> S {
    let test_run = RunConfig {
        phase: layers::Phase::Test,
        ..*run
    };
    let mut loss = S::ZERO;
    for _ in 0..batches.max(1) {
        loss += net.forward(team, &test_run);
    }
    loss / S::from_usize(batches.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32], grads: &[f32]) -> Blob<f32> {
        let mut b = Blob::from_data([vals.len()], vals.to_vec());
        b.diff_mut().copy_from_slice(grads);
        b
    }

    fn cfg() -> SolverConfig {
        SolverConfig {
            base_lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            lr_policy: LrPolicy::Fixed,
        }
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut s: Solver<f32> = Solver::new(cfg());
        let mut p = param(&[1.0], &[1.0]);
        s.apply_update(vec![&mut p], 0.1, &[1.0]);
        // V = 0.1, W = 0.9
        assert!((p.data()[0] - 0.9).abs() < 1e-6);
        p.diff_mut()[0] = 1.0;
        s.apply_update(vec![&mut p], 0.1, &[1.0]);
        // V = 0.9*0.1 + 0.1 = 0.19, W = 0.71
        assert!((p.data()[0] - 0.71).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut c = cfg();
        c.momentum = 0.0;
        c.weight_decay = 0.5;
        let mut s: Solver<f32> = Solver::new(c);
        let mut p = param(&[2.0], &[0.0]);
        s.apply_update(vec![&mut p], 0.1, &[1.0]);
        // g = 0 + 0.5*2 = 1; W = 2 - 0.1 = 1.9
        assert!((p.data()[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn history_resizes_with_params() {
        let mut s: Solver<f32> = Solver::new(cfg());
        let mut p1 = param(&[1.0], &[1.0]);
        s.apply_update(vec![&mut p1], 0.1, &[1.0]);
        let mut p1 = param(&[1.0], &[1.0]);
        let mut p2 = param(&[1.0; 3], &[1.0; 3]);
        s.apply_update(vec![&mut p1, &mut p2], 0.1, &[1.0, 1.0]);
        assert_eq!(s.history.len(), 2);
        assert_eq!(s.history[1].len(), 3);
    }

    #[test]
    fn lr_mults_scale_per_parameter() {
        let mut s: Solver<f32> = Solver::new(SolverConfig {
            momentum: 0.0,
            ..cfg()
        });
        let mut w = param(&[1.0], &[1.0]);
        let mut b = param(&[1.0], &[1.0]);
        s.apply_update(vec![&mut w, &mut b], 0.1, &[1.0, 2.0]);
        assert!((w.data()[0] - 0.9).abs() < 1e-6);
        assert!((b.data()[0] - 0.8).abs() < 1e-6, "bias uses 2x lr");
    }

    #[test]
    #[should_panic(expected = "one lr_mult per parameter")]
    fn mismatched_mults_panic() {
        let mut s: Solver<f32> = Solver::new(SolverConfig::lenet());
        let mut a = param(&[0.0], &[1.0]);
        s.apply_update(vec![&mut a], 0.1, &[1.0, 1.0]);
    }
}

#[cfg(test)]
mod state_tests {
    use super::*;

    fn sgd() -> Solver<f32> {
        Solver::new(SolverConfig {
            base_lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            lr_policy: LrPolicy::Fixed,
        })
    }

    #[test]
    fn lr_scale_round_trips_and_scales_lr() {
        let mut s = sgd();
        assert_eq!(s.lr_at(0), 0.1);
        s.scale_lr(0.5);
        s.scale_lr(0.5);
        assert!((s.lr_at(0) - 0.025).abs() < 1e-15);
        let mut buf = Vec::new();
        s.save_state(&mut buf).unwrap();
        let mut r = sgd();
        r.load_state(buf.as_slice()).unwrap();
        assert_eq!(r.lr_scale(), 0.25);
    }

    #[test]
    fn v1_solver_state_is_an_unsupported_version() {
        // The v1 layout: no lr_scale field. Iter 7, one 2-value buffer.
        let mut buf = b"CGSS".to_vec();
        buf.put_u32(1);
        buf.put_u64(7);
        buf.put_u32(1);
        buf.put_u32(2);
        wire::put_f64s(&mut buf, [0.5, 0.25].into_iter());
        let mut s = sgd();
        let e = s.load_state(buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        assert!(e.to_string().contains("unsupported version 1"), "{e}");
        assert_eq!(s.iteration(), 0);
    }

    #[test]
    fn trailing_bytes_after_the_last_buffer_are_invalid_data() {
        let mut s = sgd();
        let mut p = Blob::from_data([2usize], vec![1.0f32, 2.0]);
        p.diff_mut().copy_from_slice(&[0.5, 0.25]);
        s.apply_update(vec![&mut p], 0.1, &[1.0]);
        let mut buf = Vec::new();
        s.save_state(&mut buf).unwrap();
        sgd().load_state(buf.as_slice()).unwrap();
        buf.push(0);
        let mut r = sgd();
        let e = r.load_state(buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        assert!(
            r.history.is_empty(),
            "a refused state leaves the solver as it was"
        );
    }

    #[test]
    fn lying_buffer_counts_are_invalid_data_not_an_allocation() {
        // The 24-byte v2 header, then a count of u32::MAX history buffers:
        // sizing a Vec by that count asked for 103 GB and aborted the process.
        let mut buf = b"CGSS".to_vec();
        buf.put_u32(2);
        buf.put_u64(7);
        buf.put_f64(1.0);
        assert_eq!(buf.len(), 24);
        buf.put_u32(u32::MAX);
        let mut s = sgd();
        let e = s.load_state(buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        // One buffer announcing u32::MAX values (34 GB of f64).
        buf.truncate(24);
        buf.put_u32(1);
        buf.put_u32(u32::MAX);
        let e = s.load_state(buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        // A failed load leaves the solver as it was.
        assert_eq!(s.iteration(), 0);
        assert!(s.history.is_empty());
    }

    #[test]
    fn corrupt_lr_scale_is_rejected() {
        let mut s = sgd();
        let mut buf = Vec::new();
        s.save_state(&mut buf).unwrap();
        // lr_scale sits after magic(4) + version(4) + iter(8).
        buf[16..24].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(s.load_state(buf.as_slice()).is_err());
    }
}
