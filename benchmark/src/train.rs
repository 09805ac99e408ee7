//! `train_lenet` / `train_cifar`: the paper's two networks trained in one
//! process through `CoarseGrainTrainer::step`, and the per-layer probe of
//! the same loop.

use crate::corpus::NetKind;
use crate::harness::{run_rounds, E2e, Round, Tally, TracePlan};
use crate::schema::{Metrics, Workload};
use crate::tracing::{harness_span, traced};
use crate::{host, stats};
use cgdnn::prelude::*;
use std::time::{Duration, Instant};

/// Samples in the synthetic training set: a whole number of batches for
/// both nets and of 64-sample effective batches for `dist_lenet`.
const LENET_SAMPLES: usize = 4096;
const CIFAR_SAMPLES: usize = 4000;

/// Untimed steps after building a trainer: page in the workspace, spin up
/// the team.
fn warmup_steps(kind: NetKind) -> usize {
    match kind {
        NetKind::Lenet => 10,
        NetKind::Cifar => 2,
    }
}

/// Steps of the 1-thread reference pass the N-thread trajectory is held
/// to. Fewer on CIFAR, whose 1-thread step takes 0.7 s.
fn reference_steps(kind: NetKind) -> usize {
    match kind {
        NetKind::Lenet => 20,
        NetKind::Cifar => 4,
    }
}

pub fn mnist(seed: u64) -> SyntheticMnist {
    SyntheticMnist::new(LENET_SAMPLES, seed)
}

pub fn num_samples(kind: NetKind) -> usize {
    match kind {
        NetKind::Lenet => LENET_SAMPLES,
        NetKind::Cifar => CIFAR_SAMPLES,
    }
}

/// The net of `kind` over its seeded synthetic dataset.
pub fn build_net(kind: NetKind, seed: u64) -> Net<f32> {
    match kind {
        NetKind::Lenet => cgdnn::nets::lenet(Box::new(mnist(seed))),
        NetKind::Cifar => {
            cgdnn::nets::cifar10_full(Box::new(SyntheticCifar::new(CIFAR_SAMPLES, seed)))
        }
    }
    .expect("the embedded specs build")
}

fn build_trainer(kind: NetKind, seed: u64, threads: usize) -> CoarseGrainTrainer<f32> {
    let solver = match kind {
        NetKind::Lenet => SolverConfig::lenet(),
        NetKind::Cifar => SolverConfig::cifar(),
    };
    CoarseGrainTrainer::new(build_net(kind, seed), solver, threads)
}

/// What a run of consecutive steps measured.
#[derive(Default)]
struct Steps {
    ms: Vec<f64>,
    losses: Vec<f32>,
    wall_s: f64,
    /// Per layer, the forward / backward seconds of every step
    /// (`Net::last_forward_seconds`, `Net::last_backward_seconds`).
    fwd_s: Vec<Vec<f64>>,
    bwd_s: Vec<Vec<f64>>,
}

/// Step until at least `min_steps` steps and `min_time` have passed.
fn run_steps(tr: &mut CoarseGrainTrainer<f32>, min_steps: usize, min_time: Duration) -> Steps {
    let layers = tr.net().num_layers();
    let mut out = Steps {
        fwd_s: vec![Vec::new(); layers],
        bwd_s: vec![Vec::new(); layers],
        ..Steps::default()
    };
    let start = Instant::now();
    while out.ms.len() < min_steps || start.elapsed() < min_time {
        let t0 = Instant::now();
        let loss = tr.step();
        out.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        harness_span("step", t0);
        out.losses.push(loss);
        for (acc, s) in out.fwd_s.iter_mut().zip(tr.net().last_forward_seconds()) {
            acc.push(*s);
        }
        for (acc, s) in out.bwd_s.iter_mut().zip(tr.net().last_backward_seconds()) {
            acc.push(*s);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The 1-thread pass: the loss trajectory every other thread count must
/// reproduce to rounding (the paper's convergence invariance) and the
/// 1-thread step times for the measured speed-up.
fn reference_pass(kind: NetKind, seed: u64) -> Steps {
    let mut tr = build_trainer(kind, seed, 1);
    run_steps(&mut tr, reference_steps(kind), Duration::ZERO)
}

/// How closely a trajectory must follow its reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Match {
    /// The same bits at every step: the same arithmetic in the same order.
    Bitwise,
    /// The N-thread ordered reduction against the 1-thread pass. The merge
    /// of per-thread partial gradients groups the sums by thread, so the
    /// last bits depend on the thread count (only
    /// `ReductionMode::Canonical` is bitwise thread-invariant), and
    /// training amplifies them: over 110 seeds the drift stays below 1e-6
    /// through step 7, but on one seed in fifteen a ReLU or pooling switch
    /// flips and it grows severalfold a step from there (largest seen
    /// within the 20 reference steps: 2.5e-4). A wrong merge moves the
    /// loss of step 1 by half a percent. So the first [`TIGHT_STEPS`]
    /// steps are held to [`TIGHT_TOLERANCE`], where an arithmetic error
    /// shows and nothing has been amplified yet, and the later ones only
    /// to the same descent, [`LOOSE_TOLERANCE`].
    ToRounding,
}

const TIGHT_STEPS: usize = 4;
const TIGHT_TOLERANCE: f32 = 1e-5;
const LOOSE_TOLERANCE: f32 = 0.1;

impl Match {
    fn differs(self, step: usize, reference: f32, got: f32) -> bool {
        match self {
            Match::Bitwise => reference.to_bits() != got.to_bits(),
            Match::ToRounding => {
                let tolerance = if step < TIGHT_STEPS {
                    TIGHT_TOLERANCE
                } else {
                    LOOSE_TOLERANCE
                };
                (reference - got).abs() > tolerance * reference.abs()
            }
        }
    }
}

/// Failed steps of a trajectory: a non-finite loss, a loss that differs
/// from the reference at the same step by more than `how` allows, and —
/// when the net is expected to learn within the run — a final loss not
/// below the first. The first failure of each kind is reported on stderr,
/// since any one fails the whole run.
pub fn failed_steps(reference: &[f32], got: &[f32], how: Match, must_decrease: bool) -> u64 {
    let bad: Vec<usize> = (0..got.len())
        .filter(|&i| {
            !got[i].is_finite() || reference.get(i).is_some_and(|r| how.differs(i, *r, got[i]))
        })
        .collect();
    if let Some(&i) = bad.first() {
        eprintln!(
            "oracle: {} of {} steps off the reference ({how:?}); first at step {i}: \
             loss {:e}, reference {:?}",
            bad.len(),
            got.len(),
            got[i],
            reference.get(i)
        );
    }
    let mut failed = bad.len() as u64;
    if must_decrease && got.len() >= 2 && got[got.len() - 1] >= got[0] {
        eprintln!(
            "oracle: loss did not fall over {} steps: first {:e}, last {:e}",
            got.len(),
            got[0],
            got[got.len() - 1]
        );
        failed += 1;
    }
    failed
}

/// LeNet's loss falls within a few steps; the CIFAR net, with Caffe's
/// 1e-4 Gaussian init, sits on its ln(10) plateau far longer than any run
/// here, so only its trajectory and finiteness are checked.
fn learns_within_a_run(kind: NetKind) -> bool {
    kind == NetKind::Lenet
}

/// Build a trainer at the host's team size and warm it up; returns the
/// trainer and the warm-up losses (the first steps of its trajectory).
fn setup(kind: NetKind, seed: u64) -> (CoarseGrainTrainer<f32>, Vec<f32>) {
    let mut tr = build_trainer(kind, seed, host::team_size());
    let warm = run_steps(&mut tr, warmup_steps(kind), Duration::ZERO);
    (tr, warm.losses)
}

/// The untraced end-to-end run. Every round trains the same seed at the
/// same team size from scratch, so beyond the check against the 1-thread
/// reference their trajectories must agree with each other to the bit —
/// or a race decides the result.
pub fn run(kind: NetKind, seed: u64, seconds: f64) -> Result<E2e, String> {
    let reference = reference_pass(kind, seed);
    let mut longest: Vec<f32> = Vec::new();
    run_rounds(seconds, |window| {
        let t0 = Instant::now();
        let (mut tr, mut losses) = setup(kind, seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let steps = run_steps(&mut tr, 1, window);
        losses.extend_from_slice(&steps.losses);
        let failed = failed_steps(&longest, &losses, Match::Bitwise, false)
            + failed_steps(
                &reference.losses,
                &losses,
                Match::ToRounding,
                learns_within_a_run(kind),
            );
        let attempted = losses.len() as u64;
        if losses.len() > longest.len() {
            longest = losses;
        }
        Ok(Round {
            setup_s,
            work: (steps.ms.len() * kind.batch()) as f64,
            wall_s: steps.wall_s,
            latencies_ms: steps.ms,
            tally: Tally { attempted, failed },
        })
    })
}

/// The traced per-layer probe of one net.
pub fn probe(
    kind: NetKind,
    seed: u64,
    plan: &TracePlan,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let net = kind.tag();
    let workload = match kind {
        NetKind::Lenet => Workload::TrainLenet,
        NetKind::Cifar => Workload::TrainCifar,
    };
    let window = plan.window(workload);
    let threads = host::team_size();
    let reference = reference_pass(kind, seed);
    let (mut tr, mut losses) = setup(kind, seed);
    let untraced = plan
        .is_focus(workload)
        .then(|| run_steps(&mut tr, 1, window));
    let (steps, trace) = traced(|| run_steps(&mut tr, 1, window));

    let step_p50_ms = stats::median(&steps.ms);
    let total_s: f64 = steps.ms.iter().sum::<f64>() / 1e3;
    let names = tr.net().layer_names();
    if names != kind.layers() {
        return Err(format!(
            "{net}: layer names {names:?} differ from the corpus"
        ));
    }
    for (i, layer) in names.iter().enumerate() {
        m.insert(
            format!("layers.{net}.{layer}.fwd_ms"),
            stats::median(&steps.fwd_s[i]) * 1e3,
        );
        if i > 0 {
            m.insert(
                format!("layers.{net}.{layer}.bwd_ms"),
                stats::median(&steps.bwd_s[i]) * 1e3,
            );
        }
    }
    let fwd_s: f64 = steps.fwd_s.iter().flatten().sum();
    let bwd_s: f64 = steps.bwd_s.iter().flatten().sum();
    let updates_us = trace.durations_us("solver_update");
    let update_s = updates_us.iter().sum::<f64>() / 1e6;
    let attributed = (fwd_s + bwd_s + update_s) / total_s;
    m.insert(format!("net.{net}.fwd_share"), fwd_s / total_s);
    m.insert(format!("net.{net}.bwd_share"), bwd_s / total_s);
    m.insert(
        format!("solvers.{net}.update_ms"),
        stats::median(&updates_us) / 1e3,
    );
    m.insert(format!("core.{net}.attributed_share"), attributed);
    m.insert(
        format!("core.{net}.step_ms_p90"),
        stats::percentile(&steps.ms, 0.90),
    );
    m.insert(
        format!("omprt.{net}.ordered_wait_share"),
        trace.total_us("ordered_wait") / 1e6 / (total_s * threads as f64),
    );
    m.insert(
        format!("omprt.{net}.region_imbalance"),
        cgdnn::observe::measured_imbalance(&trace.events).map_or(1.0, |r| r.imbalance_factor),
    );

    // The paper's Fig 6/9 point, measured; and the simulator's prediction
    // of the same point, checked against it.
    let speedup = stats::median(&reference.ms) / step_p50_ms;
    let profiles = tr.net().profiles();
    let model = machine::CpuModel::xeon_e5_2667v2();
    let predicted = machine::overall_speedup(
        &machine::simulate_cpu(&profiles, &model, 1),
        &machine::simulate_cpu(&profiles, &model, threads),
    );
    m.insert(format!("core.{net}.speedup_nt"), speedup);
    m.insert(
        format!("machine.{net}.step_pred_err_pct"),
        100.0 * (predicted - speedup).abs() / speedup,
    );

    if let Some(untraced) = &untraced {
        losses.extend_from_slice(&untraced.losses);
        trace.report_focus(workload, &steps.ms, &untraced.ms, m)?;
    }
    losses.extend_from_slice(&steps.losses);
    tally.add(
        losses.len() as u64,
        failed_steps(
            &reference.losses,
            &losses,
            Match::ToRounding,
            learns_within_a_run(kind),
        ),
    );
    tally.check(attributed >= 0.95, || {
        format!("core.{net}.attributed_share = {attributed:.4}, below 0.95")
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_trajectory_mismatch_is_counted() {
        let reference = [2.5f32, 2.0, 1.5, 1.2, 1.0];
        let got = [2.5, 2.0, 1.5, 1.2, 1.0, 0.9];
        assert_eq!(failed_steps(&reference, &got, Match::Bitwise, true), 0);
        // Bitwise: one ulp off at step 1 is a failed step ...
        let ulp_off = f32::from_bits(2.0f32.to_bits() + 1);
        let got = [2.5, ulp_off, 1.5, 1.2, 1.0];
        assert_eq!(failed_steps(&reference, &got, Match::Bitwise, true), 1);
        // ... to rounding it is not, but the half percent of a wrong merge
        // is, while the steps are still held tightly ...
        assert_eq!(failed_steps(&reference, &got, Match::ToRounding, true), 0);
        let got = [2.5, 2.01, 1.5, 1.2, 1.0];
        assert_eq!(failed_steps(&reference, &got, Match::ToRounding, true), 1);
        // ... and later only leaving the descent is.
        let got = [2.5, 2.0, 1.5, 1.2, 1.005];
        assert_eq!(failed_steps(&reference, &got, Match::ToRounding, true), 0);
        let got = [2.5, 2.0, 1.5, 1.2, 1.2];
        assert_eq!(failed_steps(&reference, &got, Match::ToRounding, true), 1);
        // A non-finite loss beyond the reference is a failed step.
        let got = [2.5, 2.0, 1.5, 1.2, 1.0, f32::NAN];
        assert_eq!(failed_steps(&reference, &got, Match::Bitwise, false), 1);
        // A run that ends no lower than it began fails once more.
        let got = [2.5, 2.0, 1.5, 1.2, 1.0, 2.5];
        assert_eq!(failed_steps(&reference, &got, Match::Bitwise, true), 1);
        assert_eq!(failed_steps(&reference, &got, Match::Bitwise, false), 0);
    }
}
