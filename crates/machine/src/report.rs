//! Aggregation and paper-style reporting over simulated layer times.

use crate::cpu::{simulate_cpu, CpuModel, LayerTimes};
use crate::gpu::{simulate_gpu, GpuImpl, GpuModel};
use layers::profile::LayerProfile;

/// Sum of forward + backward over all layers.
pub fn total_time(times: &[LayerTimes]) -> f64 {
    times.iter().map(|t| t.total()).sum()
}

/// Overall speedup of `times` relative to `base`.
pub fn overall_speedup(base: &[LayerTimes], times: &[LayerTimes]) -> f64 {
    total_time(base) / total_time(times)
}

/// Per-layer `(name, fwd speedup, bwd speedup)` of `times` vs `base`.
/// Layers with zero base time report 1.0.
pub fn per_layer_speedups(base: &[LayerTimes], times: &[LayerTimes]) -> Vec<(String, f64, f64)> {
    base.iter()
        .zip(times)
        .map(|(b, t)| {
            let f = if t.fwd > 0.0 && b.fwd > 0.0 {
                b.fwd / t.fwd
            } else {
                1.0
            };
            let w = if t.bwd > 0.0 && b.bwd > 0.0 {
                b.bwd / t.bwd
            } else {
                1.0
            };
            (b.name.clone(), f, w)
        })
        .collect()
}

/// Full simulation bundle for one network: CPU times at each thread count
/// plus the two GPU tiers — everything Figures 4-9 need.
pub struct NetworkSim {
    /// Thread counts simulated (the paper's 1, 2, 4, 8, 12, 16).
    pub thread_counts: Vec<usize>,
    /// CPU layer times per thread count (same order as `thread_counts`).
    pub cpu: Vec<Vec<LayerTimes>>,
    /// Plain-GPU layer times.
    pub gpu_plain: Vec<LayerTimes>,
    /// cuDNN-GPU layer times.
    pub gpu_cudnn: Vec<LayerTimes>,
}

impl NetworkSim {
    /// Simulate a network (given its layer profiles) on the paper's
    /// machine at the paper's thread counts.
    pub fn paper_machine(profiles: &[LayerProfile]) -> Self {
        Self::run(
            profiles,
            &CpuModel::xeon_e5_2667v2(),
            &GpuModel::k40(),
            &[1, 2, 4, 8, 12, 16],
        )
    }

    /// Simulate with explicit models and thread counts.
    pub fn run(
        profiles: &[LayerProfile],
        cpu: &CpuModel,
        gpu: &GpuModel,
        thread_counts: &[usize],
    ) -> Self {
        Self {
            thread_counts: thread_counts.to_vec(),
            cpu: thread_counts
                .iter()
                .map(|&t| simulate_cpu(profiles, cpu, t))
                .collect(),
            gpu_plain: simulate_gpu(profiles, gpu, GpuImpl::Plain),
            gpu_cudnn: simulate_gpu(profiles, gpu, GpuImpl::Cudnn),
        }
    }

    /// Serial (1-thread) CPU layer times.
    ///
    /// # Panics
    /// Panics if thread count 1 was not simulated.
    pub fn serial(&self) -> &[LayerTimes] {
        let i = self
            .thread_counts
            .iter()
            .position(|&t| t == 1)
            .expect("NetworkSim: thread count 1 required as the baseline");
        &self.cpu[i]
    }

    /// CPU layer times at `threads`.
    pub fn cpu_at(&self, threads: usize) -> Option<&[LayerTimes]> {
        self.thread_counts
            .iter()
            .position(|&t| t == threads)
            .map(|i| self.cpu[i].as_slice())
    }

    /// Overall CPU speedup at `threads` vs serial.
    pub fn cpu_speedup(&self, threads: usize) -> Option<f64> {
        self.cpu_at(threads)
            .map(|t| overall_speedup(self.serial(), t))
    }

    /// Overall plain-GPU speedup vs serial CPU.
    pub fn gpu_plain_speedup(&self) -> f64 {
        overall_speedup(self.serial(), &self.gpu_plain)
    }

    /// Overall cuDNN-GPU speedup vs serial CPU.
    pub fn gpu_cudnn_speedup(&self) -> f64 {
        overall_speedup(self.serial(), &self.gpu_cudnn)
    }
}

/// Render a per-layer time table (microseconds) in the style of the
/// paper's Figures 4/7: one row per layer pass, one column per thread
/// count, plus the relative weight at the last thread count.
pub fn format_layer_table(sim: &NetworkSim) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "layer/pass"));
    for &t in &sim.thread_counts {
        out.push_str(&format!("{:>11}", format!("{t}T (us)")));
    }
    out.push_str(&format!("{:>9}\n", "wt%"));
    let last = sim.cpu.last().expect("at least one thread count");
    let total_last = total_time(last);
    let n_layers = sim.serial().len();
    for pass in 0..2 {
        for i in 0..n_layers {
            let name = &sim.serial()[i].name;
            let dir = if pass == 0 { "fwd" } else { "bwd" };
            out.push_str(&format!("{:<14}", format!("{name}:{dir}")));
            for times in &sim.cpu {
                let v = if pass == 0 {
                    times[i].fwd
                } else {
                    times[i].bwd
                };
                out.push_str(&format!("{:>11.1}", v * 1e6));
            }
            let v_last = if pass == 0 { last[i].fwd } else { last[i].bwd };
            out.push_str(&format!("{:>8.1}%\n", 100.0 * v_last / total_last));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(name: &str, fwd: f64, bwd: f64) -> LayerTimes {
        LayerTimes {
            name: name.into(),
            layer_type: "X".into(),
            fwd,
            bwd,
        }
    }

    #[test]
    fn totals_and_speedups() {
        let base = vec![lt("a", 2.0, 2.0), lt("b", 4.0, 0.0)];
        let fast = vec![lt("a", 1.0, 1.0), lt("b", 2.0, 0.0)];
        assert_eq!(total_time(&base), 8.0);
        assert_eq!(overall_speedup(&base, &fast), 2.0);
        let per = per_layer_speedups(&base, &fast);
        assert_eq!(per[0], ("a".to_string(), 2.0, 2.0));
        // zero bwd time -> 1.0 placeholder
        assert_eq!(per[1].2, 1.0);
    }

    #[test]
    fn network_sim_accessors() {
        use layers::profile::{LayerProfile, PassProfile};
        let p = LayerProfile {
            name: "l".into(),
            layer_type: "Pooling".into(),
            forward: PassProfile {
                coalesced_iters: 1000,
                flops_per_iter: 1e4,
                bytes_in_per_iter: 1e3,
                bytes_out_per_iter: 1e3,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile::empty(),
            batch: 10,
        };
        let sim = NetworkSim::paper_machine(&[p]);
        assert_eq!(sim.thread_counts, vec![1, 2, 4, 8, 12, 16]);
        assert!(sim.cpu_speedup(8).unwrap() > 1.0);
        assert!(sim.cpu_at(3).is_none());
        assert!(sim.gpu_plain_speedup() > 0.0);
        let table = format_layer_table(&sim);
        assert!(table.contains("l:fwd"));
    }
}
