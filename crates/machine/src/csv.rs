//! CSV serialization of simulated series — the plot-ready form of the
//! figure data (one file per figure, written by the `export_csv` harness
//! binary).

use crate::cpu::LayerTimes;
use crate::report::{per_layer_speedups, total_time, NetworkSim};

/// Per-layer times at every thread count (Figures 4 and 7):
/// `layer,pass,t1,...,tN` in microseconds.
pub fn layer_times_csv(sim: &NetworkSim) -> String {
    let mut out = String::from("layer,pass");
    for &t in &sim.thread_counts {
        out.push_str(&format!(",us_at_{t}t"));
    }
    out.push('\n');
    let n = sim.serial().len();
    for pass in ["fwd", "bwd"] {
        for i in 0..n {
            out.push_str(&format!("{},{}", sim.serial()[i].name, pass));
            for times in &sim.cpu {
                let v = if pass == "fwd" {
                    times[i].fwd
                } else {
                    times[i].bwd
                };
                out.push_str(&format!(",{:.3}", v * 1e6));
            }
            out.push('\n');
        }
    }
    out
}

/// Per-layer speedups vs serial at every thread count (Figures 5 and 8).
pub fn layer_speedups_csv(sim: &NetworkSim) -> String {
    let mut out = String::from("layer,pass");
    for &t in &sim.thread_counts {
        out.push_str(&format!(",x_at_{t}t"));
    }
    out.push('\n');
    let serial = sim.serial().to_vec();
    let per_t: Vec<Vec<(String, f64, f64)>> = sim
        .cpu
        .iter()
        .map(|times| per_layer_speedups(&serial, times))
        .collect();
    for (pi, pass) in ["fwd", "bwd"].iter().enumerate() {
        for i in 0..serial.len() {
            out.push_str(&format!("{},{}", serial[i].name, pass));
            for sp in &per_t {
                let v = if pi == 0 { sp[i].1 } else { sp[i].2 };
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Overall speedup series incl. the GPU tiers (Figures 6 and 9):
/// `config,speedup`.
pub fn overall_csv(sim: &NetworkSim) -> String {
    let mut out = String::from("config,speedup\n");
    for &t in &sim.thread_counts {
        out.push_str(&format!("omp_{t}t,{:.4}\n", sim.cpu_speedup(t).unwrap()));
    }
    out.push_str(&format!("gpu_plain,{:.4}\n", sim.gpu_plain_speedup()));
    out.push_str(&format!("gpu_cudnn,{:.4}\n", sim.gpu_cudnn_speedup()));
    out
}

/// GPU per-layer speedups (right panels of Figures 6 and 9).
pub fn gpu_layers_csv(sim: &NetworkSim) -> String {
    let mut out = String::from("layer,plain_fwd,plain_bwd,cudnn_fwd,cudnn_bwd\n");
    let plain = per_layer_speedups(sim.serial(), &sim.gpu_plain);
    let cudnn = per_layer_speedups(sim.serial(), &sim.gpu_cudnn);
    for (p, c) in plain.iter().zip(&cudnn) {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            p.0, p.1, p.2, c.1, c.2
        ));
    }
    out
}

/// Totals sanity row used by tests.
pub fn total_us(times: &[LayerTimes]) -> f64 {
    total_time(times) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::{LayerProfile, PassProfile};

    fn sim() -> NetworkSim {
        let p = LayerProfile {
            name: "l1".into(),
            layer_type: "Pooling".into(),
            forward: PassProfile {
                coalesced_iters: 100,
                flops_per_iter: 1e4,
                bytes_in_per_iter: 1e3,
                bytes_out_per_iter: 1e3,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile::empty(),
            batch: 10,
        };
        NetworkSim::run(
            &[p],
            &crate::CpuModel::xeon_e5_2667v2(),
            &crate::GpuModel::k40(),
            &[1, 2],
        )
    }

    #[test]
    fn csv_outputs_are_well_formed() {
        let s = sim();
        let lt = layer_times_csv(&s);
        assert!(lt.starts_with("layer,pass,us_at_1t,us_at_2t\n"));
        assert_eq!(lt.lines().count(), 1 + 2); // header + fwd + bwd rows
        let ls = layer_speedups_csv(&s);
        assert!(ls.contains("l1,fwd,1.0000,"));
        let ov = overall_csv(&s);
        assert!(ov.contains("omp_1t,1.0000"));
        assert!(ov.contains("gpu_plain,"));
        let gl = gpu_layers_csv(&s);
        assert_eq!(gl.lines().count(), 2);
        // Every data row has the same column count as its header.
        for text in [lt, ls, ov, gl] {
            let mut lines = text.lines();
            let cols = lines.next().unwrap().split(',').count();
            for l in lines {
                assert_eq!(l.split(',').count(), cols, "row {l}");
            }
        }
    }
}
