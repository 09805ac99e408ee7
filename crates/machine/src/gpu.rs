//! GPU (NVIDIA K40) execution model, in the paper's two implementation
//! tiers: Caffe's native kernels (`plain`) and the cuDNN-accelerated build.
//!
//! A GPU pass processes the whole batch in one kernel:
//! `t = launch + max(flops / (peak * eff_c), bytes / (bw * eff_b))`.
//! The per-layer-type efficiencies encode implementation quality — the
//! paper's observation is precisely that the *same hardware* gives wildly
//! different per-layer speedups depending on kernel maturity (native Caffe
//! conv ~1x vs cuDNN conv ~15-50x, native pooling ~60x vs cuDNN pooling
//! ~27x on small maps).

use crate::cpu::LayerTimes;
use layers::profile::{LayerProfile, PassProfile};

/// Which GPU software stack is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuImpl {
    /// Caffe's native CUDA kernels ("plain-GPU" in the paper).
    Plain,
    /// The cuDNN v2 build ("cuDNN-GPU"): conv and pooling replaced.
    Cudnn,
}

/// Calibration constants of the simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak single-precision flops/s.
    pub peak_flops: f64,
    /// Device memory bandwidth (bytes/s).
    pub mem_bw: f64,
    /// Kernel launch + driver overhead per pass (seconds).
    pub kernel_launch: f64,
}

impl GpuModel {
    /// NVIDIA K40: 4.29 Tflop/s SP, 288 GB/s.
    pub fn k40() -> Self {
        Self {
            peak_flops: 4.29e12,
            mem_bw: 2.88e11,
            kernel_launch: 9.0e-6,
        }
    }
}

/// `(compute efficiency, bandwidth efficiency)` of a layer-type's kernel.
///
/// Values chosen to reflect the implementation-quality story the paper
/// tells; they are per layer *type*, never per layer instance or figure.
fn efficiency(layer_type: &str, imp: GpuImpl, backward: bool, per_kernel_flops: f64) -> (f64, f64) {
    match (layer_type, imp) {
        // Caffe's native conv launches one small im2col+GEMM per *image*:
        // utilization saturates with the per-kernel work (the paper's MNIST
        // convs barely reach 1.1x-2.9x; the larger CIFAR convs 1.8x-6x).
        ("Convolution", GpuImpl::Plain) => {
            let util = per_kernel_flops / (per_kernel_flops + PLAIN_CONV_SATURATION_FLOPS);
            if backward {
                (0.0070 * util, 0.02)
            } else {
                (0.0075 * util, 0.04)
            }
        }
        // cuDNN conv: fused, batched, tiled (paper: 8x-50x).
        ("Convolution", GpuImpl::Cudnn) => {
            if backward {
                (0.028, 0.25)
            } else {
                (0.045, 0.30)
            }
        }
        // Native pooling kernels are embarrassingly parallel and
        // bandwidth-bound (paper: 57x-110x forward).
        ("Pooling", GpuImpl::Plain) => {
            if backward {
                (0.02, 0.18)
            } else {
                (0.08, 0.75)
            }
        }
        // cuDNN's generic pooling is *slower* on small maps (paper: pool2
        // drops 62x -> 27x).
        ("Pooling", GpuImpl::Cudnn) => {
            if backward {
                (0.012, 0.12)
            } else {
                (0.035, 0.33)
            }
        }
        // LRN: bandwidth-bound, good native kernels (paper: ~40x).
        ("LRN", _) => (0.05, 0.55),
        // Elementwise layers: bandwidth-bound; cuDNN's activation path adds
        // tensor-descriptor overhead (paper: ReLU 2.47x -> 1.74x).
        ("ReLU" | "Sigmoid" | "TanH" | "Dropout", GpuImpl::Plain) => (0.02, 0.45),
        ("ReLU" | "Sigmoid" | "TanH" | "Dropout", GpuImpl::Cudnn) => (0.012, 0.28),
        // Inner product: cuBLAS GEMV over the batch (paper: ~12x backward).
        ("InnerProduct", _) => {
            if backward {
                (0.010, 0.35)
            } else {
                (0.008, 0.30)
            }
        }
        // Softmax / loss and the rest: tiny kernels, launch-bound.
        _ => (0.01, 0.20),
    }
}

/// Per-kernel flops at which Caffe's one-image-at-a-time conv kernels reach
/// half of their (already poor) peak utilization.
const PLAIN_CONV_SATURATION_FLOPS: f64 = 2.5e6;

fn pass_time(model: &GpuModel, pass: &PassProfile, eff: (f64, f64)) -> f64 {
    let flops = pass.total_flops();
    let bytes = pass.total_bytes();
    if flops == 0.0 && bytes == 0.0 {
        return 0.0;
    }
    let comp = flops / (model.peak_flops * eff.0.max(1e-9));
    let mem = bytes / (model.mem_bw * eff.1.max(1e-9));
    model.kernel_launch + comp.max(mem)
}

/// Simulate every layer of a network on the GPU.
///
/// Data layers execute on the host (Caffe's data layers are host-side), so
/// their time is the batch fill on one core.
pub fn simulate_gpu(profiles: &[LayerProfile], model: &GpuModel, imp: GpuImpl) -> Vec<LayerTimes> {
    profiles
        .iter()
        .map(|p| {
            if p.layer_type == "Data" {
                // Host-side fill at the CPU model's 6 Gflop/s-equivalent
                // single-core rate.
                let host = p.forward.total_flops() / 6.0e9;
                return LayerTimes {
                    name: p.name.clone(),
                    layer_type: p.layer_type.clone(),
                    fwd: host,
                    bwd: 0.0,
                };
            }
            LayerTimes {
                name: p.name.clone(),
                layer_type: p.layer_type.clone(),
                fwd: pass_time(
                    model,
                    &p.forward,
                    efficiency(&p.layer_type, imp, false, p.forward.flops_per_iter),
                ),
                bwd: pass_time(
                    model,
                    &p.backward,
                    efficiency(&p.layer_type, imp, true, p.backward.flops_per_iter),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::PassProfile;

    fn prof(ty: &str, iters: usize, flops: f64, bytes: f64) -> LayerProfile {
        let pass = PassProfile {
            coalesced_iters: iters,
            flops_per_iter: flops,
            bytes_in_per_iter: bytes,
            bytes_out_per_iter: bytes,
            seq_flops: 0.0,
            reduction_elems: 0,
        };
        LayerProfile {
            name: ty.to_lowercase(),
            layer_type: ty.into(),
            forward: pass,
            backward: pass,
            batch: 64,
        }
    }

    #[test]
    fn cudnn_beats_plain_on_conv() {
        let m = GpuModel::k40();
        let conv = prof("Convolution", 64, 2.3e7, 1.8e6);
        let plain = simulate_gpu(std::slice::from_ref(&conv), &m, GpuImpl::Plain)[0].fwd;
        let cudnn = simulate_gpu(&[conv], &m, GpuImpl::Cudnn)[0].fwd;
        assert!(
            plain > cudnn * 5.0,
            "cuDNN conv should be much faster: plain {plain}, cudnn {cudnn}"
        );
    }

    #[test]
    fn plain_beats_cudnn_on_pooling() {
        let m = GpuModel::k40();
        let pool = prof("Pooling", 1280, 256.0, 2.3e3);
        let plain = simulate_gpu(std::slice::from_ref(&pool), &m, GpuImpl::Plain)[0].fwd;
        let cudnn = simulate_gpu(&[pool], &m, GpuImpl::Cudnn)[0].fwd;
        assert!(plain < cudnn, "plain {plain} vs cudnn {cudnn}");
    }

    #[test]
    fn tiny_layers_are_launch_bound() {
        let m = GpuModel::k40();
        let loss = prof("SoftmaxWithLoss", 64, 145.0, 80.0);
        let t = simulate_gpu(&[loss], &m, GpuImpl::Plain)[0].fwd;
        assert!(t >= m.kernel_launch);
        assert!(t < 2.0 * m.kernel_launch, "launch must dominate: {t}");
    }

    #[test]
    fn data_layer_runs_on_host() {
        let m = GpuModel::k40();
        let data = prof("Data", 64, 93_750.0, 0.0);
        let t = simulate_gpu(&[data], &m, GpuImpl::Cudnn).remove(0);
        assert!((t.fwd - 1e-3).abs() < 1e-9);
        assert_eq!(t.bwd, 0.0);
    }
}
