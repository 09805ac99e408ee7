//! Strategy-aware rewriting of analytic work profiles.
//!
//! The cost oracle for plan search is [`machine::simulate_cpu`] — the same
//! execution model the `simulate` subcommand uses. It only understands
//! batch-parallel profiles, so to price a candidate strategy we rewrite the
//! layer's [`LayerProfile`] into the equivalent batch-parallel shape:
//!
//! * `SampleSplit` — unchanged.
//! * `ChannelSplit{w}` — the **forward** coalesced loop gains `w`× the
//!   iterations at `1/w` the flops and output bytes per iteration (each unit
//!   computes one block of output channels for one sample). Input bytes per
//!   iteration stay whole: every unit re-reads the full input of its sample
//!   — the replication cost that makes over-splitting lose. The backward
//!   pass is untouched because execution keeps backward sample-split (see
//!   `layers::drivers`).

use layers::profile::LayerProfile;
use layers::strategy::LayerStrategy;

/// Rewrite one profile according to `strategy`.
pub fn transform_profile(p: &LayerProfile, strategy: LayerStrategy) -> LayerProfile {
    let mut q = p.clone();
    let w = strategy.split_ways();
    q.forward.coalesced_iters *= w;
    q.forward.flops_per_iter /= w as f64;
    q.forward.bytes_out_per_iter /= w as f64;
    q
}

/// Rewrite every profile according to the per-layer `strategies`.
pub fn transform_profiles(
    profiles: &[LayerProfile],
    strategies: &[LayerStrategy],
) -> Vec<LayerProfile> {
    assert_eq!(
        profiles.len(),
        strategies.len(),
        "one strategy per profiled layer"
    );
    profiles
        .iter()
        .zip(strategies)
        .map(|(p, &s)| transform_profile(p, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::PassProfile;

    fn conv_like() -> LayerProfile {
        LayerProfile {
            name: "conv".into(),
            layer_type: "Convolution".into(),
            forward: PassProfile {
                coalesced_iters: 64,
                flops_per_iter: 1.0e6,
                bytes_in_per_iter: 4.0e4,
                bytes_out_per_iter: 2.0e4,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            backward: PassProfile {
                coalesced_iters: 64,
                flops_per_iter: 2.0e6,
                bytes_in_per_iter: 4.0e4,
                bytes_out_per_iter: 4.0e4,
                seq_flops: 0.0,
                reduction_elems: 500,
            },
            batch: 64,
            out_bytes_per_sample: 2.0e4,
            sequential: false,
        }
    }

    #[test]
    fn sample_split_is_identity() {
        let p = conv_like();
        let q = transform_profile(&p, LayerStrategy::SampleSplit);
        assert_eq!(p, q);
    }

    #[test]
    fn channel_split_preserves_flops_and_multiplies_iters() {
        let p = conv_like();
        let q = transform_profile(&p, LayerStrategy::ChannelSplit { ways: 4 });
        assert_eq!(q.forward.coalesced_iters, 256);
        assert!((q.forward.parallel_flops() - p.forward.parallel_flops()).abs() < 1.0);
        // Input traffic replicates per unit; output does not.
        assert_eq!(q.forward.bytes_in_per_iter, p.forward.bytes_in_per_iter);
        assert_eq!(
            q.forward.bytes_out_per_iter,
            p.forward.bytes_out_per_iter / 4.0
        );
        // Backward execution stays sample-split, so its model is untouched.
        assert_eq!(q.backward, p.backward);
    }
}
