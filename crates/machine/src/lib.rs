//! `machine` — an execution-model simulator for the paper's evaluation
//! hardware.
//!
//! The paper's figures are speedup curves measured on a 16-core (2-socket
//! NUMA) Xeon E5-2667v2 and an NVIDIA K40. A 2-core host measures the 1→2
//! thread point directly (the benchmark's `core.<net>.speedup_nt`, against
//! which `machine.<net>.step_pred_err_pct` checks this model); every point
//! past the host's cores, and every GPU point, comes from the model. It
//! reproduces the *mechanisms* that produce those curves and is driven by
//! the **real work profiles** extracted from the real layer implementations
//! ([`layers::profile::LayerProfile`], exact flop/byte counts from the true
//! network shapes):
//!
//! * static-schedule work distribution — the same
//!   [`omprt::static_chunk`] math the runtime executes, so
//!   simulated imbalance equals real imbalance;
//! * a roofline per-iteration cost (compute vs. memory bound);
//! * inter-layer data locality: a consumer pays a penalty on input bytes
//!   whose producer distributed them differently (the
//!   distribution-changing LRN layers);
//! * NUMA: crossing the 8-core socket boundary raises the penalty;
//! * fork/join + worksharing-barrier overheads (the granularity wall that
//!   makes tiny layers stop scaling);
//! * the serialized ordered reduction of privatized gradients;
//! * a GPU kernel model (launch overhead + per-layer-type efficiency) in
//!   two quality tiers, `plain` (Caffe's native kernels) and `cudnn`.
//!
//! Calibration constants live in [`CpuModel::xeon_e5_2667v2`] and
//! [`GpuModel`]; they are machine-wide, not per-figure.

pub mod cpu;
pub mod gpu;
pub mod report;

pub use cpu::{simulate_cpu, CpuModel, DistKind, LayerTimes};
pub use gpu::{simulate_gpu, GpuImpl, GpuModel};
pub use report::{overall_speedup, per_layer_speedups, total_time, NetworkSim};
