//! Multicore NUMA CPU execution model.

use layers::profile::{LayerProfile, PassProfile};
use omprt::static_chunk;

/// How a layer pass distributes data across threads — the signature used by
/// the inter-layer locality model (paper §4.3, "Locality between layers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Contiguous sample-major static chunks (data, conv, pool, ip, relu,
    /// loss): consecutive layers of this kind keep data thread-local.
    Contiguous,
    /// Changes the data-thread association (the paper observes this for the
    /// LRN/norm layers): half the consumer's input is cold on average.
    Strided,
}

/// Classify a layer's distribution signature.
pub fn dist_kind(profile: &LayerProfile) -> DistKind {
    if profile.layer_type == "LRN" {
        DistKind::Strided
    } else {
        DistKind::Contiguous
    }
}

/// Calibration constants of the simulated CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Total cores (threads are pinned one per core).
    pub cores: usize,
    /// Cores per NUMA socket.
    pub cores_per_socket: usize,
    /// Effective f32 flops/s of one core running the real layer kernels
    /// (a blend of scalar bookkeeping and SIMD BLAS inner loops).
    pub flops_per_core: f64,
    /// Streaming bandwidth one thread can extract (bytes/s).
    pub bw_per_core: f64,
    /// Saturated bandwidth of one socket (bytes/s).
    pub bw_per_socket: f64,
    /// Multiplier on bytes served from the remote NUMA node.
    pub numa_remote_factor: f64,
    /// Multiplier on input bytes whose producer ran on another thread
    /// (cold private cache).
    pub locality_miss_factor: f64,
    /// Fixed fork/join cost of a parallel region (seconds).
    pub region_base: f64,
    /// Per-thread component of fork/join (seconds).
    pub region_per_thread: f64,
    /// Per-thread cost of the implicit worksharing barrier (seconds).
    pub barrier_per_thread: f64,
    /// Bandwidth of the serialized ordered gradient merge (bytes/s).
    pub reduction_bw: f64,
    /// Hand-off latency per ordered turn (seconds).
    pub ordered_handoff: f64,
}

impl CpuModel {
    /// The paper's machine: 16-core Xeon E5-2667v2 @ 3.3 GHz, 2 sockets.
    pub fn xeon_e5_2667v2() -> Self {
        Self {
            cores: 16,
            cores_per_socket: 8,
            flops_per_core: 6.0e9,
            bw_per_core: 7.0e9,
            bw_per_socket: 2.0e10,
            numa_remote_factor: 1.9,
            locality_miss_factor: 2.2,
            region_base: 2.5e-6,
            region_per_thread: 0.35e-6,
            barrier_per_thread: 0.18e-6,
            reduction_bw: 5.0e9,
            ordered_handoff: 0.6e-6,
        }
    }
}

/// Simulated forward/backward seconds of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimes {
    /// Layer instance name.
    pub name: String,
    /// Layer type string.
    pub layer_type: String,
    /// Forward-pass seconds.
    pub fwd: f64,
    /// Backward-pass seconds.
    pub bwd: f64,
}

impl LayerTimes {
    /// Forward + backward.
    pub fn total(&self) -> f64 {
        self.fwd + self.bwd
    }
}

/// The more locality-hostile of two producer kinds.
fn worse(a: DistKind, b: DistKind) -> DistKind {
    use DistKind::*;
    match (a, b) {
        (Strided, _) | (_, Strided) => Strided,
        _ => Contiguous,
    }
}

/// Fraction of the consumer's input produced by a different thread.
fn miss_fraction(producer: Option<DistKind>, consumer: DistKind, threads: usize) -> f64 {
    if threads <= 1 {
        return 0.0;
    }
    let Some(p) = producer else { return 0.0 };
    match (p, consumer) {
        (DistKind::Strided, DistKind::Strided) => 0.0,
        (DistKind::Strided, _) | (_, DistKind::Strided) => 0.5,
        (DistKind::Contiguous, _) => 0.0,
    }
}

/// Per-thread usable bandwidth when `threads` stream concurrently.
///
/// The second socket adds only half of its bandwidth: the network blobs are
/// first-touched by the sequential initialization (the paper: "the serial
/// initialization of the network structures is giving a suboptimal memory
/// allocation in the NUMA nodes"), so a large share of all traffic targets
/// socket 0 regardless of where the thread runs.
fn bw_per_thread(model: &CpuModel, threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    let sockets_used = threads.div_ceil(model.cores_per_socket).max(1) as f64;
    let effective_sockets = 1.0 + 0.5 * (sockets_used - 1.0);
    model
        .bw_per_core
        .min(model.bw_per_socket * effective_sockets / t)
}

/// Simulate one pass of one layer.
fn pass_time(
    model: &CpuModel,
    pass: &PassProfile,
    producer: Option<DistKind>,
    consumer: DistKind,
    threads: usize,
) -> f64 {
    let mut t = 0.0;
    // Sequential section (loss final sum).
    if pass.seq_flops > 0.0 {
        t += pass.seq_flops / model.flops_per_core;
    }
    if pass.coalesced_iters == 0 {
        return t;
    }
    let threads = threads.max(1);

    // Roofline per-iteration cost with the locality/NUMA penalty applied to
    // the missed fraction of input bytes.
    let miss = miss_fraction(producer, consumer, threads);
    let cross_socket = threads > model.cores_per_socket;
    let miss_factor = if cross_socket {
        model.locality_miss_factor * model.numa_remote_factor
    } else {
        model.locality_miss_factor
    };
    let bw = bw_per_thread(model, threads);
    let in_bytes_eff = pass.bytes_in_per_iter * (1.0 + miss * (miss_factor - 1.0));
    let mem = (in_bytes_eff + pass.bytes_out_per_iter) / bw;
    let comp = pass.flops_per_iter / model.flops_per_core;
    // Additive cost: these kernels overlap compute and memory poorly (short
    // per-segment loops, no software prefetch), so the roofline max() is too
    // optimistic; the sum matches the saturating curves the paper reports.
    let t_iter = comp + mem;

    // Static-schedule distribution: region time = slowest thread.
    let max_iters = (0..threads)
        .map(|tid| static_chunk(tid, threads, pass.coalesced_iters).len())
        .max()
        .unwrap_or(0);
    t += max_iters as f64 * t_iter;

    // Fork/join + implicit barrier.
    if threads > 1 {
        t += model.region_base
            + threads as f64 * (model.region_per_thread + model.barrier_per_thread);
    }

    // Ordered reduction: every slot's privatized gradient is merged
    // serially (Algorithm 5 lines 22-24).
    if pass.reduction_elems > 0 && threads > 1 {
        let bytes = (pass.reduction_elems * 4) as f64;
        t += threads as f64 * (bytes / model.reduction_bw + model.ordered_handoff);
    }
    t
}

/// Simulate every layer of a network at the given thread count.
///
/// `profiles` must be in execution order; the locality model links each
/// layer's forward input to its predecessor's distribution and each
/// backward input to its successor's.
pub fn simulate_cpu(
    profiles: &[LayerProfile],
    model: &CpuModel,
    threads: usize,
) -> Vec<LayerTimes> {
    let kinds: Vec<DistKind> = profiles.iter().map(dist_kind).collect();
    profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let prev = if i > 0 { Some(kinds[i - 1]) } else { None };
            let next = if i + 1 < profiles.len() {
                Some(kinds[i + 1])
            } else {
                None
            };
            // Backward reads the successor's diffs *and* re-reads its own
            // bottom data (produced by the predecessor), so it pays the
            // worse of the two producers' penalties.
            let bwd_producer = match (prev, next) {
                (Some(a), Some(b)) => Some(worse(a, b)),
                (a, b) => a.or(b),
            };
            LayerTimes {
                name: p.name.clone(),
                layer_type: p.layer_type.clone(),
                fwd: pass_time(model, &p.forward, prev, kinds[i], threads),
                bwd: pass_time(model, &p.backward, bwd_producer, kinds[i], threads),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::PassProfile;

    fn profile(
        name: &str,
        ty: &str,
        iters: usize,
        flops: f64,
        bytes: f64,
        red: usize,
    ) -> LayerProfile {
        let pass = PassProfile {
            coalesced_iters: iters,
            flops_per_iter: flops,
            bytes_in_per_iter: bytes,
            bytes_out_per_iter: bytes,
            seq_flops: 0.0,
            reduction_elems: red,
        };
        LayerProfile {
            name: name.into(),
            layer_type: ty.into(),
            forward: pass,
            backward: pass,
            batch: 64,
        }
    }

    fn speedup_of(p: &LayerProfile, neighbors: &[LayerProfile], threads: usize) -> f64 {
        let model = CpuModel::xeon_e5_2667v2();
        let mut profs = neighbors.to_vec();
        profs.insert(1.min(profs.len()), p.clone());
        let t1 = simulate_cpu(&profs, &model, 1);
        let tn = simulate_cpu(&profs, &model, threads);
        let idx = 1.min(tn.len() - 1);
        t1[idx].fwd / tn[idx].fwd
    }

    #[test]
    fn big_compute_layer_scales_well() {
        // Conv-like: heavy flops per iteration, 64 iterations.
        let big = profile("conv", "Convolution", 64, 2.3e7, 1.8e6, 0);
        let pre = profile("x", "Pooling", 64 * 20, 1e4, 6e3, 0);
        let s8 = speedup_of(&big, std::slice::from_ref(&pre), 8);
        let s16 = speedup_of(&big, &[pre], 16);
        assert!(s8 > 5.0, "8-thread speedup {s8}");
        assert!(s16 > s8, "16 threads ({s16}) beats 8 ({s8})");
        assert!(s16 < 16.0);
    }

    #[test]
    fn tiny_layer_hits_granularity_wall() {
        // Loss-like: 64 iterations of almost no work.
        let tiny = profile("loss", "SoftmaxWithLoss", 64, 150.0, 80.0, 0);
        let pre = profile("x", "InnerProduct", 64, 1e4, 4e3, 0);
        let s16 = speedup_of(&tiny, &[pre], 16);
        assert!(s16 < 2.0, "tiny layer should not scale, got {s16}");
    }

    #[test]
    fn lrn_changes_distribution_and_slows_successor() {
        let model = CpuModel::xeon_e5_2667v2();
        let conv = profile("conv", "Convolution", 100, 1e7, 2e6, 800);
        let lrn = profile("norm", "LRN", 100, 1e5, 2e5, 0);
        let pool = profile("pool", "Pooling", 3200, 1e4, 2e4, 0);
        let after_lrn = simulate_cpu(&[lrn, conv.clone()], &model, 16)[1].fwd;
        let after_pool = simulate_cpu(&[pool, conv], &model, 16)[1].fwd;
        assert!(after_lrn > after_pool, "{after_lrn} vs {after_pool}");
    }

    #[test]
    fn reduction_cost_grows_with_threads() {
        let model = CpuModel::xeon_e5_2667v2();
        // Pure-reduction pass: no parallel loop work difference matters.
        let p = profile("ip", "InnerProduct", 64, 1e5, 1e4, 400_000);
        let t2 = simulate_cpu(std::slice::from_ref(&p), &model, 2)[0].bwd;
        let t16 = simulate_cpu(&[p], &model, 16)[0].bwd;
        // At 16 threads the serialized merge of 16 slots dominates.
        let merge16 = 16.0 * (400_000.0 * 4.0 / model.reduction_bw);
        assert!(t16 > merge16, "t16 {t16} must include merge {merge16}");
        let merge2 = 2.0 * (400_000.0 * 4.0 / model.reduction_bw);
        assert!(t2 > merge2);
        assert!(t16 > t2 * 2.0, "merge scales with slots: {t2} -> {t16}");
    }

    #[test]
    fn numa_boundary_visible_beyond_8_threads() {
        // A memory-bound layer with a strided producer: crossing the socket
        // boundary multiplies the miss penalty.
        let model = CpuModel::xeon_e5_2667v2();
        let lrn = profile("norm", "LRN", 100, 1e5, 2e5, 0);
        let conv = profile("conv", "Convolution", 100, 1e5, 4e6, 0);
        let t8 = simulate_cpu(&[lrn.clone(), conv.clone()], &model, 8)[1].fwd;
        let t12 = simulate_cpu(&[lrn, conv], &model, 12)[1].fwd;
        // More threads, but per-iteration input cost rises enough that the
        // speedup from 8 -> 12 threads is clearly sublinear.
        let ratio = t8 / t12;
        assert!(ratio < 1.5, "8->12 thread gain should be weak, got {ratio}");
    }

    #[test]
    fn bw_per_thread_saturates_per_socket() {
        let m = CpuModel::xeon_e5_2667v2();
        assert_eq!(bw_per_thread(&m, 1), m.bw_per_core);
        // 8 threads share one socket.
        assert!(bw_per_thread(&m, 8) < m.bw_per_core);
        // The second socket contributes only half its bandwidth (first-touch
        // on node 0), so per-thread bandwidth *drops* from 8 to 16 threads.
        let b8 = bw_per_thread(&m, 8);
        let b16 = bw_per_thread(&m, 16);
        assert!(b16 < b8, "{b16} !< {b8}");
        assert!(
            (b16 - b8 * 0.75).abs() / b8 < 1e-9,
            "{b16} vs {}",
            b8 * 0.75
        );
    }
}
