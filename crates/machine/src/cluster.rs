//! Multi-node gradient-aggregation scaling model (the FireCaffe analysis
//! applied to this runtime's distributed data-parallel mode).
//!
//! `crates/dist` runs synchronous data-parallel SGD: per step every worker
//! computes a gradient over its batch shard and the coordinator folds the
//! shards and broadcasts parameters. On one host that exchange rides
//! loopback and is nearly free; across real nodes the gradient traffic is
//! the scaling bottleneck, and *how* it is aggregated decides the curve.
//! Following FireCaffe (Iandola et al.), two aggregation schemes:
//!
//! * **Parameter server** (what `dist`'s star-topology coordinator is when
//!   placed on its own node): one node terminates every flow, so its NIC
//!   serializes `W` gradient receives plus `W` parameter sends —
//!   `comm(W) = 2·W·P/BW + 2·L`. Linear in `W`: adding workers *adds*
//!   communication time, and past the crossover the end-to-end step gets
//!   slower, not faster.
//! * **Reduction tree** (allreduce): gradients combine pairwise up a
//!   binary tree and parameters ride back down —
//!   `comm(W) = 2·ceil(log2 W)·(L + P/BW)`. Logarithmic in `W`, so the
//!   compute term `compute/W` keeps paying off far longer.
//!
//! Step time is `T(W) = compute/W + comm(W)`; speedup is `T(1)/T(W)`
//! (`comm(1) = 0` — a single worker exchanges nothing). The compute term
//! comes from the calibrated single-node simulation
//! ([`crate::report::NetworkSim`]) and `P` from the real network's
//! parameter count, so the curves are driven by measured work profiles,
//! not guesses.

use crate::report::{total_time, NetworkSim};

/// How per-step gradients are combined across worker nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Star topology: every worker exchanges with one central node.
    ParamServer,
    /// Binary reduction tree / allreduce.
    ReductionTree,
}

/// Cluster cost model: one node's per-step compute plus the interconnect.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    /// Single-node time for one full-batch training step, seconds.
    pub step_compute_s: f64,
    /// Gradient (= parameter) payload exchanged per step, bytes.
    pub param_bytes: f64,
    /// Per-link bandwidth, bytes/second.
    pub link_bandwidth: f64,
    /// Per-message link latency, seconds.
    pub link_latency_s: f64,
}

impl ClusterModel {
    /// Model with a commodity 10 GbE interconnect (1.25 GB/s per link,
    /// 25 µs per message) — the fabric a lab cluster actually has, and
    /// slow enough that the aggregation scheme visibly matters.
    pub fn ten_gbe(step_compute_s: f64, param_bytes: f64) -> Self {
        Self {
            step_compute_s,
            param_bytes,
            link_bandwidth: 1.25e9,
            link_latency_s: 25e-6,
        }
    }

    /// Model driven by a calibrated single-node simulation: the 1-thread
    /// step time of `sim` as the compute term and the network's parameter
    /// count (4 bytes each) as the payload.
    pub fn from_sim(sim: &NetworkSim, num_params: usize) -> Self {
        Self::ten_gbe(total_time(sim.serial()), num_params as f64 * 4.0)
    }

    /// Communication time per step for `workers` nodes, seconds.
    pub fn comm_time(&self, agg: Aggregation, workers: usize) -> f64 {
        if workers <= 1 {
            return 0.0;
        }
        let w = workers as f64;
        let transfer = self.param_bytes / self.link_bandwidth;
        match agg {
            Aggregation::ParamServer => 2.0 * w * transfer + 2.0 * self.link_latency_s,
            Aggregation::ReductionTree => {
                let hops = (workers as f64).log2().ceil();
                2.0 * hops * (self.link_latency_s + transfer)
            }
        }
    }

    /// End-to-end step time `compute/W + comm(W)`, seconds.
    pub fn step_time(&self, agg: Aggregation, workers: usize) -> f64 {
        self.step_compute_s / workers.max(1) as f64 + self.comm_time(agg, workers)
    }

    /// Speedup over a single worker.
    pub fn speedup(&self, agg: Aggregation, workers: usize) -> f64 {
        self.step_time(agg, 1) / self.step_time(agg, workers)
    }
}

/// Render the scaling table: one row per worker count, step time and
/// speedup under both aggregation schemes.
pub fn format_cluster_table(model: &ClusterModel, worker_counts: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>14}{:>9}{:>14}{:>9}\n",
        "workers", "pserver (ms)", "x", "tree (ms)", "x"
    ));
    for &w in worker_counts {
        out.push_str(&format!(
            "{:>8}{:>14.3}{:>9.2}{:>14.3}{:>9.2}\n",
            w,
            model.step_time(Aggregation::ParamServer, w) * 1e3,
            model.speedup(Aggregation::ParamServer, w),
            model.step_time(Aggregation::ReductionTree, w) * 1e3,
            model.speedup(Aggregation::ReductionTree, w),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ClusterModel {
        // 100 ms of compute, 10 M parameters: AlexNet-ish proportions.
        ClusterModel::ten_gbe(0.1, 4e7)
    }

    #[test]
    fn single_worker_exchanges_nothing() {
        let m = model();
        for agg in [Aggregation::ParamServer, Aggregation::ReductionTree] {
            assert_eq!(m.comm_time(agg, 1), 0.0);
            assert_eq!(m.step_time(agg, 1), m.step_compute_s);
            assert_eq!(m.speedup(agg, 1), 1.0);
        }
    }

    #[test]
    fn param_server_comm_is_linear_tree_is_logarithmic() {
        let m = model();
        let ps2 = m.comm_time(Aggregation::ParamServer, 2);
        let ps8 = m.comm_time(Aggregation::ParamServer, 8);
        // 4x the workers ~ 4x the serialized traffic (latency term aside).
        assert!(ps8 / ps2 > 3.5 && ps8 / ps2 < 4.5, "ratio {}", ps8 / ps2);
        let t2 = m.comm_time(Aggregation::ReductionTree, 2);
        let t8 = m.comm_time(Aggregation::ReductionTree, 8);
        // 4x the workers ~ 3x the hops (log2 8 / log2 2).
        assert!((t8 / t2 - 3.0).abs() < 1e-9, "ratio {}", t8 / t2);
    }

    #[test]
    fn tree_scales_past_the_param_server_crossover() {
        let m = model();
        for w in [2usize, 4, 8, 16, 32, 64] {
            assert!(
                m.speedup(Aggregation::ReductionTree, w) >= m.speedup(Aggregation::ParamServer, w),
                "tree should never lose at W={w}"
            );
        }
        // The star topology eventually goes backwards: more workers, a
        // slower step. The tree is still ahead of serial at the same W.
        let ps64 = m.speedup(Aggregation::ParamServer, 64);
        let ps4 = m.speedup(Aggregation::ParamServer, 4);
        assert!(ps64 < ps4, "pserver must saturate: {ps64} vs {ps4}");
        assert!(m.speedup(Aggregation::ReductionTree, 64) > ps64);
    }

    #[test]
    fn table_covers_every_worker_count() {
        let m = model();
        let counts = [1usize, 2, 4, 8];
        let table = format_cluster_table(&m, &counts);
        assert_eq!(table.lines().count(), 1 + counts.len());
        assert!(table.contains("pserver"));
        assert!(table.lines().any(|l| l.trim_start().starts_with("8 ")));
    }
}
