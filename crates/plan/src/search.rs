//! Greedy beam search over per-layer strategies.
//!
//! The search walks the net layer by layer. At each layer it tries every
//! strategy in the layer's executable space (as reported by
//! `Layer::strategy_space`), prices the full network with
//! [`machine::simulate_cpu`] (candidate prefix + sample-split suffix), and
//! keeps the `beam` cheapest prefixes. Candidate enumeration puts
//! `SampleSplit` first and the sort is stable, so ties keep the default
//! strategy and the plan stays canonical. Because `SampleSplit` is always
//! in the space, the projected plan time can never exceed the batch-only
//! baseline.

use crate::transform::transform_profiles;
use layers::profile::LayerProfile;
use layers::strategy::LayerStrategy;
use machine::{simulate_cpu, CpuModel};

/// Per-layer outcome of a search, for reporting.
#[derive(Debug, Clone)]
pub struct LayerChoice {
    /// Layer instance name.
    pub name: String,
    /// Layer type string.
    pub layer_type: String,
    /// The winning strategy.
    pub strategy: LayerStrategy,
    /// Projected fwd+bwd seconds under the batch-only baseline.
    pub batch_only_secs: f64,
    /// Projected fwd+bwd seconds under the plan.
    pub planned_secs: f64,
}

/// Search result: the chosen schedule and its projection.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// One strategy per layer, in execution order.
    pub strategies: Vec<LayerStrategy>,
    /// Projected step time with every layer sample-split.
    pub batch_only_secs: f64,
    /// Projected step time under the chosen schedule.
    pub planned_secs: f64,
    /// Per-layer breakdown.
    pub layers: Vec<LayerChoice>,
}

impl SearchResult {
    /// Layers where the search picked something other than sample split.
    pub fn non_sample_layers(&self) -> usize {
        self.strategies.iter().filter(|s| !s.is_sample()).count()
    }

    /// Projected speedup of the plan over the batch-only baseline.
    pub fn projected_speedup(&self) -> f64 {
        if self.planned_secs > 0.0 {
            self.batch_only_secs / self.planned_secs
        } else {
            1.0
        }
    }
}

/// Total projected step seconds for one complete strategy assignment.
pub fn project_secs(
    profiles: &[LayerProfile],
    strategies: &[LayerStrategy],
    model: &CpuModel,
    threads: usize,
) -> f64 {
    let tp = transform_profiles(profiles, strategies);
    simulate_cpu(&tp, model, threads)
        .iter()
        .map(|t| t.total())
        .sum()
}

/// Run the search. `spaces[i]` is the executable strategy space of layer
/// `i` (from `Net::layer_strategy_spaces`); `beam` is the number of
/// prefixes kept per step (1 = pure greedy).
pub fn search(
    profiles: &[LayerProfile],
    spaces: &[Vec<LayerStrategy>],
    model: &CpuModel,
    threads: usize,
    beam: usize,
) -> SearchResult {
    assert_eq!(profiles.len(), spaces.len(), "one space per layer");
    let n = profiles.len();
    let beam = beam.max(1);
    let base = vec![LayerStrategy::SampleSplit; n];

    let score = |assign: &[LayerStrategy]| project_secs(profiles, assign, model, threads);
    let batch_only_secs = score(&base);

    let mut frontier: Vec<(Vec<LayerStrategy>, f64)> = vec![(Vec::new(), batch_only_secs)];
    for i in 0..n {
        let mut next: Vec<(Vec<LayerStrategy>, f64)> = Vec::new();
        for (prefix, _) in &frontier {
            for &cand in &spaces[i] {
                let mut assign = base.clone();
                assign[..i].copy_from_slice(prefix);
                assign[i] = cand;
                let s = score(&assign);
                let mut p = prefix.clone();
                p.push(cand);
                next.push((p, s));
            }
        }
        next.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite projections"));
        next.truncate(beam);
        frontier = next;
    }
    let (strategies, planned_secs) = frontier.swap_remove(0);

    let base_times = simulate_cpu(profiles, model, threads);
    let plan_times = simulate_cpu(&transform_profiles(profiles, &strategies), model, threads);
    let layers = base_times
        .iter()
        .zip(&plan_times)
        .zip(&strategies)
        .map(|((b, p), &s)| LayerChoice {
            name: b.name.clone(),
            layer_type: b.layer_type.clone(),
            strategy: s,
            batch_only_secs: b.total(),
            planned_secs: p.total(),
        })
        .collect();

    SearchResult {
        strategies,
        batch_only_secs,
        planned_secs,
        layers,
    }
}

/// Rescale analytic profiles so their 1-thread projection matches measured
/// per-layer times from a `cgdnn train --profile-csv` file. Layers absent
/// from the CSV keep their analytic numbers. Returns the calibrated
/// profiles and how many layers matched.
pub fn calibrate_with_csv(
    profiles: &[LayerProfile],
    csv: &str,
    model: &CpuModel,
) -> (Vec<LayerProfile>, usize) {
    // layer,fwd_ms,bwd_ms,... — ignore the header and any total row.
    let mut measured: Vec<(String, f64, f64)> = Vec::new();
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() < 3 {
            continue;
        }
        if let (Ok(f), Ok(b)) = (cols[1].parse::<f64>(), cols[2].parse::<f64>()) {
            measured.push((cols[0].to_string(), f / 1.0e3, b / 1.0e3));
        }
    }
    let analytic = simulate_cpu(profiles, model, 1);
    let mut out = profiles.to_vec();
    let mut matched = 0;
    for (p, a) in out.iter_mut().zip(&analytic) {
        let Some((_, mf, mb)) = measured.iter().find(|(n, _, _)| *n == p.name) else {
            continue;
        };
        matched += 1;
        if a.fwd > 0.0 && *mf > 0.0 {
            let r = mf / a.fwd;
            p.forward.flops_per_iter *= r;
            p.forward.seq_flops *= r;
        }
        if a.bwd > 0.0 && *mb > 0.0 {
            let r = mb / a.bwd;
            p.backward.flops_per_iter *= r;
            p.backward.seq_flops *= r;
        }
    }
    (out, matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::PassProfile;

    fn layer(
        name: &str,
        ty: &str,
        batch: usize,
        flops: f64,
        extent_divisible: bool,
    ) -> LayerProfile {
        LayerProfile {
            name: name.into(),
            layer_type: ty.into(),
            forward: PassProfile {
                coalesced_iters: batch,
                flops_per_iter: flops,
                bytes_in_per_iter: 1.0e3,
                bytes_out_per_iter: 1.0e3,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: batch,
                flops_per_iter: flops,
                bytes_in_per_iter: 1.0e3,
                bytes_out_per_iter: 1.0e3,
                seq_flops: 0.0,
                reduction_elems: if extent_divisible { 100 } else { 0 },
            },
            batch,
            out_bytes_per_sample: 1.0e3,
            sequential: false,
        }
    }

    fn spaces_for(n: usize, splits: &[usize]) -> Vec<Vec<LayerStrategy>> {
        (0..n)
            .map(|i| {
                let mut s = vec![LayerStrategy::SampleSplit];
                if splits.contains(&i) {
                    s.push(LayerStrategy::ChannelSplit { ways: 2 });
                    s.push(LayerStrategy::ChannelSplit { ways: 4 });
                }
                s
            })
            .collect()
    }

    #[test]
    fn batch_starved_net_picks_a_split() {
        // Batch 4 on a 64-thread node: sample split leaves 60 threads idle;
        // a 4-way channel split fills them.
        let profiles = vec![layer("conv1", "Convolution", 4, 5.0e8, true)];
        let spaces = spaces_for(1, &[0]);
        let model = CpuModel::scaled_node(4, 16);
        let r = search(&profiles, &spaces, &model, 64, 2);
        assert!(
            !r.strategies[0].is_sample(),
            "batch-starved layer should split, got {}",
            r.strategies[0]
        );
        assert!(
            r.planned_secs < r.batch_only_secs,
            "planned {} !< batch-only {}",
            r.planned_secs,
            r.batch_only_secs
        );
        assert!(r.projected_speedup() > 1.0);
        assert_eq!(r.non_sample_layers(), 1);
    }

    #[test]
    fn batch_rich_net_keeps_sample_split() {
        // Batch 64 on 8 threads: sample split already saturates the team and
        // splitting only adds replicated input traffic.
        let profiles = vec![layer("conv1", "Convolution", 64, 5.0e8, true)];
        let spaces = spaces_for(1, &[0]);
        let model = CpuModel::xeon_e5_2667v2();
        let r = search(&profiles, &spaces, &model, 8, 2);
        assert!(r.strategies[0].is_sample(), "got {}", r.strategies[0]);
        assert_eq!(r.planned_secs, r.batch_only_secs);
    }

    #[test]
    fn plan_never_projects_worse_than_batch_only() {
        for threads in [1, 2, 8, 32, 128] {
            let profiles = vec![
                layer("data", "Data", 16, 1.0e3, false),
                layer("conv1", "Convolution", 16, 2.0e8, true),
                layer("relu1", "ReLU", 16, 1.0e4, false),
                layer("ip1", "InnerProduct", 16, 1.0e8, true),
            ];
            let spaces = spaces_for(4, &[1, 3]);
            let model = CpuModel::scaled_node(8, 16);
            let r = search(&profiles, &spaces, &model, threads, 1);
            assert!(
                r.planned_secs <= r.batch_only_secs,
                "threads={threads}: {} > {}",
                r.planned_secs,
                r.batch_only_secs
            );
            assert_eq!(r.layers.len(), 4);
        }
    }

    #[test]
    fn csv_calibration_scales_matched_layers() {
        let profiles = vec![layer("conv1", "Convolution", 8, 1.0e8, true)];
        let model = CpuModel::xeon_e5_2667v2();
        let analytic = simulate_cpu(&profiles, &model, 1);
        // Pretend measurement says forward is 3x the analytic projection.
        let csv = format!(
            "layer,fwd_ms,bwd_ms,total_ms,pct_total\nconv1,{:.6},{:.6},0,0\n",
            analytic[0].fwd * 3.0e3,
            analytic[0].bwd * 1.0e3,
        );
        let (cal, matched) = calibrate_with_csv(&profiles, &csv, &model);
        assert_eq!(matched, 1);
        let recal = simulate_cpu(&cal, &model, 1);
        assert!(
            (recal[0].fwd - analytic[0].fwd * 3.0).abs() / recal[0].fwd < 0.05,
            "calibrated fwd {} vs target {}",
            recal[0].fwd,
            analytic[0].fwd * 3.0
        );
        let (_, none) = calibrate_with_csv(&profiles, "layer,fwd_ms,bwd_ms\nother,1,1\n", &model);
        assert_eq!(none, 0);
    }
}
