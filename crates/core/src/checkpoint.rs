//! Crash-safe checkpointing, divergence rollback, and the fault-tolerant
//! training loop.
//!
//! A *checkpoint* is a v2 `CGDN` section container (see `net::snapshot`)
//! holding everything the trainer needs for bit-identical continuation:
//! learnable parameters (`PRMS`), solver state — momentum/history buffers,
//! iteration counter, LR-schedule position (`SOLV`), a self-describing
//! meta record (`META`), and the dataset-sampler cursor (`CURS`). Thread
//! count is deliberately *not* part of the state: the paper's convergence
//! invariance means a run checkpointed on 4 threads resumes bit-exactly on
//! 1, and vice versa.
//!
//! [`CheckpointDir`] manages a directory of checkpoints behind a
//! `MANIFEST` file listing known-good files, newest first. The protocol
//! makes corruption of the only copy impossible:
//!
//! 1. the checkpoint file is written via `write_atomic` (temp + fsync +
//!    rename) — a crash here leaves the manifest untouched;
//! 2. the manifest is rewritten (also atomically) with the new file
//!    prepended — a crash between 1 and 2 merely orphans the new file;
//! 3. checkpoints beyond the retention limit are deleted.
//!
//! On resume, manifest entries are tried newest-first; a corrupt or
//! truncated file (CRC mismatch) is skipped and the next-older one is
//! used — the "last-good fallback".
//!
//! [`train_with_checkpoints`] drives training with periodic checkpoints
//! under an always-on divergence guard: NaN/Inf losses, or a loss
//! exploding past [`GUARD_FACTOR`]`×` its trailing-window mean, trigger a
//! rollback to the last good checkpoint with an LR drop, recorded in the
//! training log instead of silently emitting garbage.

use crate::trainer::CoarseGrainTrainer;
use mmblas::Scalar;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Checkpoint section: solver state (`Solver::save_state` bytes).
pub const SEC_SOLVER: [u8; 4] = *b"SOLV";
/// Checkpoint section: iteration counter `u64` + LR scale `f64`.
pub const SEC_META: [u8; 4] = *b"META";
/// Checkpoint section: dataset-sampler cursor, `u64`.
pub const SEC_CURSOR: [u8; 4] = *b"CURS";

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST: &str = "MANIFEST";

/// A directory of checkpoints behind a last-good manifest.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    keep: usize,
}

/// Result of a successful [`CheckpointDir::resume_latest`].
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The checkpoint file that loaded.
    pub path: PathBuf,
    /// Iteration the trainer resumed at.
    pub iteration: u64,
    /// Newer manifest entries that failed to load (corrupt/missing), with
    /// the reason — surfaced so operators notice silent disk damage.
    pub skipped: Vec<(PathBuf, String)>,
}

impl CheckpointDir {
    /// Manage checkpoints under `dir` (created on first save). Retention
    /// defaults to the 3 most recent checkpoints.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 3,
        }
    }

    /// Keep the `keep` most recent checkpoints (min 1).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The managed directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Known-good checkpoint files, newest first, per the manifest. An
    /// absent manifest is an empty list, not an error.
    pub fn entries(&self) -> io::Result<Vec<PathBuf>> {
        match fs::read_to_string(self.manifest_path()) {
            Ok(text) => Ok(text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(|l| self.dir.join(l))
                .collect()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Write a checkpoint of `trainer`'s full state, update the manifest,
    /// and prune beyond the retention limit. Returns the file written.
    /// Named by iteration, so re-saving the same iteration overwrites
    /// idempotently.
    pub fn save<S: Scalar>(&self, trainer: &CoarseGrainTrainer<S>) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let name = format!("ckpt-{:08}.cgdn", trainer.solver().iteration());
        let path = self.dir.join(&name);
        let bytes = trainer.checkpoint_bytes()?;
        net::write_atomic(&path, &bytes)?;
        // Crash window: the new file is durable but the manifest still
        // points at the previous checkpoint — resume just uses that one.
        net::faults::hit("checkpoint.commit")?;
        let mut names = vec![name.clone()];
        for e in self.entries()? {
            if let Some(n) = e.file_name().map(|n| n.to_string_lossy().into_owned()) {
                if n != name {
                    names.push(n);
                }
            }
        }
        // Prune: the manifest keeps the newest `keep` (newest first).
        names.truncate(self.keep);
        let manifest = names.join("\n") + "\n";
        net::write_atomic(&self.manifest_path(), manifest.as_bytes())?;
        // Delete every `ckpt-*.cgdn` file the manifest does not list: the
        // ones just pruned, and orphans — a crash inside the commit window
        // above leaves a durable file no manifest ever points to. The
        // manifest is the sole source of truth, so anything off it goes.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let Some(n) = fname.to_str() else { continue };
            if n.starts_with("ckpt-") && n.ends_with(".cgdn") && !names.iter().any(|kept| kept == n)
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(path)
    }

    /// Restore `trainer` from the newest loadable checkpoint, falling back
    /// through the manifest when newer entries are corrupt or missing.
    pub fn resume_latest<S: Scalar>(
        &self,
        trainer: &mut CoarseGrainTrainer<S>,
    ) -> io::Result<ResumeOutcome> {
        let entries = self.entries()?;
        if entries.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoints in {}", self.dir.display()),
            ));
        }
        let mut skipped = Vec::new();
        for path in entries {
            match fs::read(&path).and_then(|b| trainer.resume_from_bytes(&b)) {
                Ok(()) => {
                    return Ok(ResumeOutcome {
                        iteration: trainer.solver().iteration(),
                        path,
                        skipped,
                    })
                }
                Err(e) => skipped.push((path, e.to_string())),
            }
        }
        let detail: Vec<String> = skipped
            .iter()
            .map(|(p, e)| format!("{}: {e}", p.display()))
            .collect();
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "no loadable checkpoint in {} ({})",
                self.dir.display(),
                detail.join("; ")
            ),
        ))
    }

    /// Append one line to `training.log` in the directory (best-effort:
    /// logging never fails training).
    fn append_log(&self, line: &str) {
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        if let Ok(mut f) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("training.log"))
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// The divergence guard's trailing window: the explosion test starts once
/// this many healthy losses are in it.
pub const GUARD_WINDOW: usize = 8;

/// The guard trips when `|loss| > GUARD_FACTOR × |trailing mean|`. A window
/// mean of exactly 0 makes any positive loss trip it — intended, as that
/// only happens from a fully converged state.
pub const GUARD_FACTOR: f64 = 4.0;

/// Every rollback multiplies the solver's LR scale by this.
const ROLLBACK_LR_DROP: f64 = 0.5;

/// A run gives up (errors out) after this many rollbacks.
const MAX_ROLLBACKS: usize = 3;

/// Detects NaN/Inf losses and loss explosions over a trailing window.
struct DivergenceGuard {
    recent: VecDeque<f64>,
}

impl DivergenceGuard {
    /// New guard with an empty window.
    fn new() -> Self {
        Self {
            recent: VecDeque::with_capacity(GUARD_WINDOW),
        }
    }

    /// Feed one loss; `true` means the run has diverged. Divergent losses
    /// are not admitted into the window, so the trailing mean stays a
    /// "last known healthy" reference.
    fn observe(&mut self, loss: f64) -> bool {
        if !loss.is_finite() {
            return true;
        }
        if self.recent.len() == GUARD_WINDOW {
            let mean = self.recent.iter().sum::<f64>() / GUARD_WINDOW as f64;
            if loss.abs() > GUARD_FACTOR * mean.abs() {
                return true;
            }
            self.recent.pop_front();
        }
        self.recent.push_back(loss);
        false
    }

    /// Clear the window (after a rollback — history no longer applies).
    fn reset(&mut self) {
        self.recent.clear();
    }
}

/// One entry of the fault-tolerant training log.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainEvent {
    /// A checkpoint was committed.
    Checkpoint {
        /// Iteration the checkpoint captures.
        iteration: u64,
        /// File it was written to.
        path: PathBuf,
    },
    /// The divergence guard tripped.
    Divergence {
        /// Iteration whose loss tripped the guard.
        iteration: u64,
        /// The offending loss.
        loss: f64,
    },
    /// Training state was rolled back to an earlier checkpoint.
    Rollback {
        /// Iteration at the time of the rollback.
        from_iteration: u64,
        /// Iteration of the restored checkpoint.
        to_iteration: u64,
        /// LR scale in effect after the drop.
        lr_scale: f64,
    },
}

impl TrainEvent {
    /// The training iteration the event is anchored to (for a rollback,
    /// the iteration it rolled back *from*).
    pub fn iteration(&self) -> u64 {
        match self {
            TrainEvent::Checkpoint { iteration, .. } => *iteration,
            TrainEvent::Divergence { iteration, .. } => *iteration,
            TrainEvent::Rollback { from_iteration, .. } => *from_iteration,
        }
    }
}

impl fmt::Display for TrainEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainEvent::Checkpoint { iteration, path } => {
                write!(f, "checkpoint: iteration {iteration} -> {}", path.display())
            }
            TrainEvent::Divergence { iteration, loss } => {
                write!(f, "divergence: iteration {iteration}, loss {loss:e}")
            }
            TrainEvent::Rollback {
                from_iteration,
                to_iteration,
                lr_scale,
            } => write!(
                f,
                "rollback: iteration {from_iteration} -> {to_iteration}, lr_scale {lr_scale}"
            ),
        }
    }
}

/// Result of a [`train_with_checkpoints`] run.
#[derive(Debug)]
pub struct FtReport<S: Scalar> {
    /// Per-iteration losses of the *realized* trajectory (rolled-back
    /// iterations are replaced by their replay).
    pub losses: Vec<S>,
    /// Everything notable that happened, in order (also appended to
    /// `training.log` in the checkpoint directory as it happens).
    pub events: Vec<TrainEvent>,
    /// Number of divergence rollbacks performed.
    pub rollbacks: usize,
}

/// Train `n` more iterations with crash-safe checkpoints every `every`
/// iterations (`0` = only the anchor and final checkpoints) and divergence
/// rollback. `progress` is called after every step with
/// `(iteration, loss)`.
///
/// An anchor checkpoint is written before the first step and a final one
/// after the last, so a crash at any moment resumes from the directory
/// with at most `every` iterations of lost work.
///
/// # Errors
/// I/O failures while checkpointing, or an exhausted rollback budget.
pub fn train_with_checkpoints<S: Scalar>(
    trainer: &mut CoarseGrainTrainer<S>,
    n: usize,
    dir: &CheckpointDir,
    every: usize,
    mut progress: impl FnMut(u64, f64),
) -> io::Result<FtReport<S>> {
    let start_iter = trainer.solver().iteration();
    let target = start_iter + n as u64;
    let mut losses: Vec<S> = Vec::with_capacity(n);
    let mut events: Vec<TrainEvent> = Vec::new();
    let mut guard = DivergenceGuard::new();
    let mut rollbacks = 0usize;
    // Log lines carry a `ts=<unix_secs>.<millis> iter=<n>` prefix (see
    // `obs::logstamp` and DESIGN.md) so post-mortems can correlate them
    // with checkpoint file mtimes.
    let record = |events: &mut Vec<TrainEvent>, ev: TrainEvent| {
        dir.append_log(&format!("{} {ev}", obs::logstamp(ev.iteration())));
        events.push(ev);
    };

    // Anchor: guarantees a rollback/restart target exists from step one.
    let path = dir.save(trainer)?;
    record(
        &mut events,
        TrainEvent::Checkpoint {
            iteration: start_iter,
            path,
        },
    );

    while trainer.solver().iteration() < target {
        // Injection point: simulated memory corruption before a step. The
        // last parameter feeds the loss directly, so the NaN cannot be
        // masked on the way (max-pooling drops NaN operands, for example).
        if net::faults::hit("train.poison").is_err() {
            if let Some(p) = trainer.net_mut().learnable_params_mut().into_iter().last() {
                p.data_mut()[0] = S::from_f64(f64::NAN);
            }
        }
        let it_before = trainer.solver().iteration();
        let loss = trainer.step();
        let it_after = trainer.solver().iteration();
        let loss64 = loss.to_f64();
        // After a fallback to a checkpoint older than our start, replayed
        // pre-start iterations are not part of this run's loss vector.
        if it_before >= start_iter {
            losses.push(loss);
        }
        progress(it_after, loss64);

        if guard.observe(loss64) {
            record(
                &mut events,
                TrainEvent::Divergence {
                    iteration: it_after,
                    loss: loss64,
                },
            );
            rollbacks += 1;
            if rollbacks > MAX_ROLLBACKS {
                return Err(io::Error::other(format!(
                    "divergence persists after {MAX_ROLLBACKS} rollbacks (iteration \
                     {it_after}, loss {loss64}) — giving up"
                )));
            }
            let outcome = dir.resume_latest(trainer)?;
            trainer.solver_mut().scale_lr(ROLLBACK_LR_DROP);
            losses.truncate(outcome.iteration.saturating_sub(start_iter) as usize);
            guard.reset();
            record(
                &mut events,
                TrainEvent::Rollback {
                    from_iteration: it_after,
                    to_iteration: outcome.iteration,
                    lr_scale: trainer.solver().lr_scale(),
                },
            );
            continue;
        }

        if every > 0 && it_after.is_multiple_of(every as u64) && it_after < target {
            let path = dir.save(trainer)?;
            record(
                &mut events,
                TrainEvent::Checkpoint {
                    iteration: it_after,
                    path,
                },
            );
        }
    }

    let path = dir.save(trainer)?;
    record(
        &mut events,
        TrainEvent::Checkpoint {
            iteration: target,
            path,
        },
    );
    Ok(FtReport {
        losses,
        events,
        rollbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::data::BatchSource;
    use net::{Net, NetSpec};
    use solvers::SolverConfig;

    const MICRO_SPEC: &str = r#"
name: micro
layer {
  name: d
  type: Data
  batch: 2
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 3
  seed: 17
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}
"#;

    struct Ramp;
    impl BatchSource<f32> for Ramp {
        fn num_samples(&self) -> usize {
            6
        }
        fn sample_shape(&self) -> blob::Shape {
            blob::Shape::from([4usize])
        }
        fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
            mmblas::set(0.1 * (index + 1) as f32, out);
            (index % 3) as f32
        }
    }

    fn micro_trainer() -> CoarseGrainTrainer<f32> {
        let net =
            Net::from_spec(&NetSpec::parse(MICRO_SPEC).unwrap(), Some(Box::new(Ramp))).unwrap();
        CoarseGrainTrainer::new(net, SolverConfig::lenet(), 1)
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cgdnn-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn guard_detects_nan_inf_and_explosion() {
        let mut g = DivergenceGuard::new();
        assert!(g.observe(f64::NAN));
        assert!(g.observe(f64::INFINITY));
        // Until the window is full only finiteness is tested.
        assert!(!g.observe(1e30));
        g.reset();
        for _ in 0..GUARD_WINDOW {
            assert!(!g.observe(1.0));
        }
        let explosion = GUARD_FACTOR + 0.5;
        assert!(
            g.observe(explosion),
            "{explosion} > {GUARD_FACTOR} x mean(1)"
        );
        assert!(g.observe(explosion), "divergent sample was not admitted");
        assert!(
            !g.observe(GUARD_FACTOR),
            "equal to the bound is not above it"
        );
        g.reset();
        assert!(!g.observe(50.0), "fresh window after reset");
    }

    #[test]
    fn guard_window_trails_the_last_healthy_losses() {
        let mut g = DivergenceGuard::new();
        for _ in 0..GUARD_WINDOW {
            assert!(!g.observe(1.0));
        }
        // Each 3 is under 4 x the mean; together they push every 1 out.
        for _ in 0..GUARD_WINDOW {
            assert!(!g.observe(3.0));
        }
        let loss = 3.0 * GUARD_FACTOR - 1.0;
        assert!(
            !g.observe(loss),
            "{loss} is within {GUARD_FACTOR} x mean(3)"
        );
    }

    #[test]
    fn manifest_retains_newest_and_prunes() {
        let dir = CheckpointDir::new(tmp("retain")).with_keep(2);
        let mut t = micro_trainer();
        let mut paths = Vec::new();
        for _ in 0..3 {
            t.train(1);
            paths.push(dir.save(&t).unwrap());
        }
        let entries = dir.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], paths[2], "newest first");
        assert_eq!(entries[1], paths[1]);
        assert!(!paths[0].exists(), "pruned beyond retention");
        // Resume restores the newest.
        let mut fresh = micro_trainer();
        let outcome = dir.resume_latest(&mut fresh).unwrap();
        assert_eq!(outcome.iteration, 3);
        assert!(outcome.skipped.is_empty());
        let _ = fs::remove_dir_all(dir.path());
    }

    #[test]
    fn corrupt_newest_falls_back_to_last_good() {
        let dir = CheckpointDir::new(tmp("fallback")).with_keep(3);
        let mut t = micro_trainer();
        t.train(2);
        dir.save(&t).unwrap();
        t.train(2);
        let newest = dir.save(&t).unwrap();
        // Bit-flip the newest checkpoint mid-file.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let mut fresh = micro_trainer();
        let outcome = dir.resume_latest(&mut fresh).unwrap();
        assert_eq!(outcome.iteration, 2, "fell back to the iter-2 checkpoint");
        assert_eq!(outcome.skipped.len(), 1);
        assert!(
            outcome.skipped[0].1.contains("crc"),
            "{:?}",
            outcome.skipped
        );
        let _ = fs::remove_dir_all(dir.path());
    }

    #[test]
    fn save_sweeps_unlisted_checkpoint_files() {
        let dir = CheckpointDir::new(tmp("orphan")).with_keep(2);
        let mut t = micro_trainer();
        t.train(1);
        dir.save(&t).unwrap();
        // Plant an orphan the way a commit-window crash would: a durable
        // ckpt file no manifest mentions.
        let orphan = dir.path().join("ckpt-99999999.cgdn");
        fs::write(&orphan, b"leftover from a crashed save").unwrap();
        // Unrelated files must survive the sweep.
        let bystander = dir.path().join("notes.txt");
        fs::write(&bystander, b"keep me").unwrap();
        t.train(1);
        dir.save(&t).unwrap();
        assert!(!orphan.exists(), "unlisted ckpt file swept");
        assert!(bystander.exists(), "non-checkpoint files untouched");
        assert_eq!(dir.entries().unwrap().len(), 2);
        for e in dir.entries().unwrap() {
            assert!(e.exists(), "manifest-listed checkpoints kept");
        }
        let _ = fs::remove_dir_all(dir.path());
    }

    #[test]
    fn empty_dir_resume_is_not_found() {
        let dir = CheckpointDir::new(tmp("empty"));
        let mut t = micro_trainer();
        let e = dir.resume_latest(&mut t).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn train_with_checkpoints_writes_anchor_and_final() {
        let dir = CheckpointDir::new(tmp("anchor"));
        let mut t = micro_trainer();
        let report = train_with_checkpoints(&mut t, 4, &dir, 2, |_, _| {}).unwrap();
        assert_eq!(report.losses.len(), 4);
        assert_eq!(report.rollbacks, 0);
        // Anchor (0), periodic (2), final (4).
        let ckpts: Vec<u64> = report
            .events
            .iter()
            .filter_map(|e| match e {
                TrainEvent::Checkpoint { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .collect();
        assert_eq!(ckpts, vec![0, 2, 4]);
        assert!(dir.path().join("training.log").exists());
        let _ = fs::remove_dir_all(dir.path());
    }
}
