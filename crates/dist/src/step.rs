//! One synchronous data-parallel step, written once.
//!
//! [`shard_gradient`] is what a rank computes and [`fold_and_update`] what
//! the coordinator does with the `world` results. A live worker calls the
//! first between its socket reads, elastic recovery calls it on the
//! coordinator for a dead rank, and [`train_local`] calls it for every rank
//! with no socket at all: where the arithmetic runs differs, never what it is.

use crate::coordinator::Metrics;
use crate::frames::{accumulate_scaled_into_diffs, flatten_diffs, flatten_params, load_params};
use crate::{DistConfig, DistError};
use layers::ReductionMode;
use net::{Net, RunConfig};
use omprt::ThreadTeam;
use solvers::Solver;
use std::time::Instant;

/// Rank-local half of step `step`: load the broadcast `params`, seat the
/// data cursor at `step · local_batch` (so no rank state outlives a step)
/// and run the gradient half on one thread with one canonical reduction
/// slot — the configuration the bitwise claim depends on (crate docs,
/// point 2). Returns `(flat gradient, local loss)`.
pub(crate) fn shard_gradient(
    net: &mut Net<f32>,
    params: &[f32],
    step: u64,
    local_batch: usize,
) -> Result<(Vec<f32>, f32), DistError> {
    let team = ThreadTeam::new(1);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: 1 },
        ..RunConfig::default()
    };
    load_params(net, params)?;
    net.set_data_cursor(step as usize * local_batch);
    let loss = solvers::gradient(net, &team, &run, step);
    Ok((flatten_diffs(net), loss))
}

/// Coordinator half: fold the per-rank `(gradient, local loss)` pairs in
/// rank order with the exact `1/W` rescale, rebuild the global loss by
/// undoing each rank's `1/b` normalization (exact: `b` is a power of two),
/// run the solver's update half, and walk the data cursor — the
/// coordinator's data layer never runs forward, yet a checkpoint must carry
/// the cursor the single-process run would have. Returns the global loss.
pub(crate) fn fold_and_update(
    net: &mut Net<f32>,
    solver: &mut Solver<f32>,
    cfg: &DistConfig,
    contribs: &[(Vec<f32>, f32)],
    metrics: &Metrics,
) -> Result<f32, DistError> {
    let inv_world = 1.0f32 / cfg.world as f32;
    let local_batch = cfg.local_batch() as f32;
    net.zero_param_diffs();
    let mut total_loss = 0.0f32;
    let t0 = Instant::now();
    for (grad, local_loss) in contribs {
        accumulate_scaled_into_diffs(net, grad, inv_world)?;
        total_loss += local_loss * local_batch;
    }
    metrics.reduce_seconds.observe(t0.elapsed().as_secs_f64());
    let loss = total_loss / cfg.effective_batch as f32;
    {
        let _span = obs::trace::span("dist_update", "dist");
        solver.update(net);
    }
    if let Some(c) = net.data_cursor() {
        net.set_data_cursor((c + cfg.effective_batch) % cfg.num_samples);
    }
    net.set_iteration(solver.iteration());
    metrics.steps.inc();
    metrics.last_loss.set(loss as f64);
    Ok(loss)
}

/// The coordinator's step with every rank local: `cfg.iters` steps over
/// `shard_nets` (rank `r`'s at index `r`, built as a worker's: local batch,
/// that rank's `ShardedSource`). Returns the loss trajectory — that of the
/// TCP run and of the single-process `Canonical { groups: world }` run.
///
/// # Panics
/// Panics unless there is one shard net per rank.
pub fn train_local(
    net: &mut Net<f32>,
    solver: &mut Solver<f32>,
    shard_nets: &mut [Net<f32>],
    cfg: &DistConfig,
) -> Result<Vec<f32>, DistError> {
    cfg.validate()?;
    assert_eq!(shard_nets.len(), cfg.world, "one shard net per rank");
    let metrics = Metrics::new();
    (0..cfg.iters)
        .map(|_| {
            let step = solver.iteration();
            let params = flatten_params(net);
            let contribs = shard_nets
                .iter_mut()
                .map(|shard| shard_gradient(shard, &params, step, cfg.local_batch()))
                .collect::<Result<Vec<_>, _>>()?;
            fold_and_update(net, solver, cfg, &contribs, &metrics)
        })
        .collect()
}
