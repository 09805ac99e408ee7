//! `dist` — synchronous data-parallel SGD across worker *processes*,
//! speaking the CGRP wire protocol (`rpc::proto`) over loopback TCP.
//!
//! The paper parallelizes within a batch inside one address space; this
//! crate is the next rung of the ROADMAP's "scale and speed" arc: the
//! FireCaffe-style step where the batch is split across processes and the
//! gradient is aggregated over a wire. One [`coordinator`] owns the
//! parameters, the solver, and the data cursor; `world` [`worker`]s each
//! own a shard of every global batch (`datasets::ShardedSource`) and ship
//! its gradient back per step:
//!
//! ```text
//! coordinator                                worker r (of W)
//!   FRAME_PARAMS chunks (step s) ──────────▶
//!   FRAME_STEP (step s)          ──────────▶  shard gradient of step s
//!   fold in rank order + update  ◀──────────  FRAME_GRAD chunks + FRAME_LOSS
//! ```
//!
//! The step itself is written once, in `step.rs` — a rank's *shard
//! gradient* and the coordinator's *fold-and-update* — and has three
//! seats: a live worker, the coordinator standing in for a dead one, and
//! [`train_local`], where every rank is local and there is no socket.
//!
//! **The determinism contract.** The headline claim — proven by test — is
//! that the distributed loss trajectory and final parameters are
//! *bit-identical* to a single-process run with the same seed and the same
//! effective batch, trained under `ReductionMode::Canonical { groups: W }`.
//! The argument (DESIGN.md spells it out in full):
//!
//! 1. The canonical reduction already folds the batch as W contiguous
//!    sample chunks, each accumulated sequentially, merged in chunk order.
//! 2. Worker `r` computes exactly chunk `r`'s samples with one thread and
//!    one reduction slot, so its local gradient is that chunk's sequential
//!    accumulation — scaled by `W`, because its loss layer normalizes by
//!    the *local* batch `B/W` instead of `B`, and every backward operator
//!    is linear in the upstream gradient.
//! 3. The coordinator folds worker gradients in fixed rank order, scaling
//!    each by `1/W`. Because `W` is restricted to a power of two, the
//!    `×W` then `×1/W` round trip is exact in IEEE-754 (exponent shifts,
//!    mantissas untouched), so every merge reproduces the single-process
//!    merge bit for bit.
//!
//! Hence [`DistConfig::validate`] *requires* power-of-two world size and
//! effective batch, a dataset divisible into whole effective batches, and
//! single-threaded workers (one reduction slot). These are correctness
//! preconditions for the bitwise claim, not conveniences.
//!
//! Failure handling is typed and bounded: every socket read carries a
//! timeout, a dead worker surfaces as [`DistError::WorkerDied`] and the
//! coordinator broadcasts `FRAME_DONE(error)` so surviving workers tear
//! down instead of hanging the barrier. That is the *fail-stop* mode;
//! [`run_coordinator_elastic`] survives worker loss without giving up
//! bit-identity (recompute, respawn within a [`RecoveryPolicy`] budget,
//! join again — see the `coordinator` module docs).

pub mod coordinator;
pub mod frames;
mod step;
pub mod worker;

pub use coordinator::{
    run_coordinator, run_coordinator_elastic, CoordinatorConfig, ElasticHooks, RecoveryPolicy,
};
pub use step::train_local;
pub use worker::{run_worker, WorkerConfig, WorkerReport};

use rpc::proto::DecodeError;
use std::fmt;
use std::time::Duration;

/// Typed failures of the distributed layer. Every abnormal end of a run —
/// including a worker process dying mid-step — maps onto one of these;
/// nothing in this crate panics on wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// The run configuration violates a determinism precondition
    /// (see [`DistConfig::validate`]).
    Config(String),
    /// Socket-level failure (connect, read, write, timeout) on this end.
    Io(String),
    /// A frame failed to decode: bad CRC, oversized payload, truncated or
    /// out-of-order chunk. Bumps `rpc.decode_errors`.
    Decode(DecodeError),
    /// The peer sent a well-formed frame that violates the dist protocol
    /// (wrong kind, wrong step id, wrong tensor length, bad rank).
    Protocol(String),
    /// A worker's connection died (EOF, reset, or read timeout) — the
    /// coordinator's typed teardown trigger.
    WorkerDied { rank: usize, detail: String },
    /// The coordinator's connection died, seen from a worker.
    CoordinatorLost(String),
    /// The peer ended the run with `FRAME_DONE(error)`; the payload reason.
    Remote(String),
    /// Not all `world` workers joined within the accept window.
    JoinTimeout { joined: usize, world: usize },
    /// An elastic run saw more worker deaths than the sliding-window
    /// restart budget allows (and `degraded_ok` was off) — the run tears
    /// down with the same bounded, typed semantics as a fail-stop death.
    RestartBudgetExhausted { rank: usize, deaths: usize },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Config(m) => write!(f, "dist config: {m}"),
            DistError::Io(m) => write!(f, "dist io: {m}"),
            DistError::Decode(e) => write!(f, "dist decode: {e}"),
            DistError::Protocol(m) => write!(f, "dist protocol violation: {m}"),
            DistError::WorkerDied { rank, detail } => {
                write!(f, "worker {rank} died: {detail}")
            }
            DistError::CoordinatorLost(m) => write!(f, "coordinator lost: {m}"),
            DistError::Remote(m) => write!(f, "peer aborted the run: {m}"),
            DistError::JoinTimeout { joined, world } => {
                write!(
                    f,
                    "only {joined} of {world} workers joined before the timeout"
                )
            }
            DistError::RestartBudgetExhausted { rank, deaths } => {
                write!(
                    f,
                    "worker {rank} died but the restart budget is exhausted \
                     ({deaths} deaths in the window)"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl DistError {
    /// A socket-level failure (or a stream that ended mid-frame) means the
    /// peer behind it is gone: re-type it with `lost`, which says which
    /// peer. Protocol and decode failures keep their own type.
    pub(crate) fn or_peer_lost(self, lost: impl FnOnce(String) -> DistError) -> DistError {
        match self {
            DistError::Io(detail) => lost(detail),
            DistError::Decode(DecodeError::Truncated(what)) => {
                lost(format!("connection closed mid-{what}"))
            }
            other => other,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e.to_string())
    }
}

impl From<DecodeError> for DistError {
    fn from(e: DecodeError) -> Self {
        DistError::Decode(e)
    }
}

/// The shared shape of a distributed run — both ends validate it, the
/// coordinator also announces it in `FRAME_WELCOME` so a mismatched worker
/// fails fast instead of corrupting the trajectory.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker processes.
    pub world: usize,
    /// Global batch per step (the single-process reference batch).
    pub effective_batch: usize,
    /// Samples in the training set.
    pub num_samples: usize,
    /// Training iterations.
    pub iters: usize,
    /// Per-read/-write socket timeout. Bounds every barrier wait, so a
    /// dead peer yields a typed error instead of a hang.
    pub io_timeout: Duration,
}

impl DistConfig {
    /// Check the determinism preconditions (see the crate docs for why
    /// each is load-bearing, not cosmetic).
    pub fn validate(&self) -> Result<(), DistError> {
        let fail = |m: String| Err(DistError::Config(m));
        if self.world == 0 || !self.world.is_power_of_two() {
            return fail(format!(
                "world size {} must be a power of two (exact 1/W rescale)",
                self.world
            ));
        }
        if self.effective_batch == 0 || !self.effective_batch.is_power_of_two() {
            return fail(format!(
                "effective batch {} must be a power of two (exact loss rescale)",
                self.effective_batch
            ));
        }
        if self.world > self.effective_batch {
            return fail(format!(
                "world {} exceeds effective batch {} — some worker would own no samples",
                self.world, self.effective_batch
            ));
        }
        if self.num_samples == 0 || !self.num_samples.is_multiple_of(self.effective_batch) {
            return fail(format!(
                "dataset size {} is not a positive multiple of the effective batch {}",
                self.num_samples, self.effective_batch
            ));
        }
        if self.iters == 0 {
            return fail("iteration count must be positive".to_string());
        }
        Ok(())
    }

    /// Per-worker batch (`effective_batch / world`).
    pub fn local_batch(&self) -> usize {
        self.effective_batch / self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DistConfig {
        DistConfig {
            world: 2,
            effective_batch: 8,
            num_samples: 64,
            iters: 3,
            io_timeout: Duration::from_secs(5),
        }
    }

    #[test]
    fn valid_config_passes() {
        cfg().validate().unwrap();
        assert_eq!(cfg().local_batch(), 4);
    }

    #[test]
    fn every_precondition_is_enforced() {
        type Mutate = fn(&mut DistConfig);
        let cases: Vec<(Mutate, &str)> = vec![
            (|c| c.world = 3, "power of two"),
            (|c| c.world = 0, "power of two"),
            (|c| c.effective_batch = 12, "power of two"),
            (|c| c.world = 16, "exceeds effective batch"),
            (|c| c.num_samples = 60, "not a positive multiple"),
            (|c| c.iters = 0, "must be positive"),
        ];
        for (mutate, needle) in cases {
            let mut c = cfg();
            mutate(&mut c);
            match c.validate() {
                Err(DistError::Config(m)) => {
                    assert!(m.contains(needle), "message {m:?} lacks {needle:?}")
                }
                other => panic!("expected Config error for {needle:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_display_their_payload() {
        let e = DistError::WorkerDied {
            rank: 1,
            detail: "eof".into(),
        };
        assert_eq!(e.to_string(), "worker 1 died: eof");
        assert!(DistError::JoinTimeout {
            joined: 1,
            world: 4
        }
        .to_string()
        .contains("1 of 4"));
    }
}
