//! Property-based tests on layer invariants: parallel == sequential for
//! arbitrary shapes and thread counts, softmax normalization, pooling
//! bounds, activation derivatives vs finite differences.

use blob::Blob;
use layers::conv::{ConvConfig, ConvolutionLayer};
use layers::pooling::{PoolConfig, PoolMethod, PoolingLayer};
use layers::softmax::softmax_vec;
use layers::{ExecCtx, Filler, Layer, ReductionMode, ReluLayer, Workspace, WorkspaceRequest};
use omprt::ThreadTeam;
use proptest::prelude::*;

fn run_layer<L: Layer<f64>>(
    layer_of: impl Fn() -> L,
    shape: [usize; 4],
    data: &[f64],
    threads: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut l = layer_of();
    let bottom: Blob<f64> = Blob::from_data(shape, data.to_vec());
    let shapes = l.setup(&[&bottom]);
    let team = ThreadTeam::new(threads);
    let mode = ReductionMode::Canonical { groups: 16 };
    let ws = Workspace::new(threads, mode.slots(threads), WorkspaceRequest::of(&l));
    let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
    let mut tops = vec![Blob::new(shapes[0].clone())];
    l.forward(&ctx, &[&bottom], &mut tops);
    for (i, v) in tops[0].diff_mut().iter_mut().enumerate() {
        *v = ((i % 11) as f64) * 0.1 - 0.5;
    }
    let trefs: Vec<&Blob<f64>> = tops.iter().collect();
    let mut bots = vec![bottom];
    l.backward(&ctx, &trefs, &mut bots);
    (tops[0].data().to_vec(), bots[0].diff().to_vec())
}

fn blob_data(count: usize, seed: u64) -> Vec<f64> {
    let mut rng = mmblas::Pcg32::seeded(seed);
    (0..count).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_parallel_equals_sequential(n in 1usize..4,
                                       c in 1usize..3,
                                       hw in 5usize..9,
                                       out_c in 1usize..4,
                                       threads in 2usize..5,
                                       seed in 0u64..500) {
        let shape = [n, c, hw, hw];
        let data = blob_data(n * c * hw * hw, seed);
        let mk = || {
            let mut cfg = ConvConfig::new(out_c, 3, 1, 1);
            cfg.seed = 99;
            ConvolutionLayer::<f64>::new("c", cfg)
        };
        let (y1, d1) = run_layer(mk, shape, &data, 1);
        let (yt, dt) = run_layer(mk, shape, &data, threads);
        prop_assert_eq!(y1, yt);
        prop_assert_eq!(d1, dt);
    }

    #[test]
    fn pooling_parallel_equals_sequential(n in 1usize..4,
                                          c in 1usize..4,
                                          hw in 4usize..10,
                                          max_mode in prop::bool::ANY,
                                          threads in 2usize..5,
                                          seed in 0u64..500) {
        let shape = [n, c, hw, hw];
        let data = blob_data(n * c * hw * hw, seed);
        let method = if max_mode { PoolMethod::Max } else { PoolMethod::Ave };
        let mk = || PoolingLayer::<f64>::new("p", PoolConfig { method, kernel: 2, pad: 0, stride: 2 });
        let (y1, d1) = run_layer(mk, shape, &data, 1);
        let (yt, dt) = run_layer(mk, shape, &data, threads);
        prop_assert_eq!(y1, yt);
        prop_assert_eq!(d1, dt);
    }

    #[test]
    fn max_pool_output_is_attained_and_bounding(n in 1usize..3, c in 1usize..3, hw in 4usize..8, seed in 0u64..300) {
        let shape = [n, c, hw, hw];
        let data = blob_data(n * c * hw * hw, seed);
        let mk = || PoolingLayer::<f64>::new("p", PoolConfig::max(2, 2));
        let (y, _) = run_layer(mk, shape, &data, 1);
        let max_in = data.iter().cloned().fold(f64::MIN, f64::max);
        let min_in = data.iter().cloned().fold(f64::MAX, f64::min);
        for &v in &y {
            prop_assert!(v <= max_in && v >= min_in);
            // Every output value is an actual input value.
            prop_assert!(data.contains(&v));
        }
    }

    #[test]
    fn relu_output_nonnegative_and_sparsifying(n in 1usize..4, len in 1usize..30, seed in 0u64..300) {
        let shape = [n, 1, 1, len];
        let data = blob_data(n * len, seed);
        let (y, _) = run_layer(|| ReluLayer::new("r"), shape, &data, 2);
        for (&v, &x) in y.iter().zip(&data) {
            prop_assert!(v >= 0.0);
            prop_assert_eq!(v, x.max(0.0));
        }
    }

    #[test]
    fn softmax_is_a_distribution(scores in proptest::collection::vec(-30.0f64..30.0, 1..20)) {
        let mut out = vec![0.0; scores.len()];
        softmax_vec(&scores, &mut out);
        let sum: f64 = out.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Order-preserving.
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] < scores[j] {
                    prop_assert!(out[i] <= out[j] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn conv_gradient_of_sum_matches_all_ones_backprop(hw in 5usize..8, seed in 0u64..200) {
        // With top diff = 1 everywhere, d(sum of outputs)/d(bias_o) equals
        // the number of output pixels per channel.
        let mut cfg = ConvConfig::new(2, 3, 0, 1);
        cfg.seed = seed;
        cfg.weight_filler = Filler::Xavier;
        let mut l: ConvolutionLayer<f64> = ConvolutionLayer::new("c", cfg);
        let shape = [2usize, 1, hw, hw];
        let data = blob_data(2 * hw * hw, seed);
        let bottom: Blob<f64> = Blob::from_data(shape, data);
        let shapes = l.setup(&[&bottom]);
        let team = ThreadTeam::new(1);
        let ws = Workspace::new(1, 1, WorkspaceRequest::of(&l));
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::<f64>::new(shapes[0].clone())];
        l.forward(&ctx, &[&bottom], &mut tops);
        mmblas::set(1.0, tops[0].diff_mut());
        let trefs: Vec<&Blob<f64>> = tops.iter().collect();
        let mut bots = vec![bottom];
        l.backward(&ctx, &trefs, &mut bots);
        let out_pix = (hw - 2) * (hw - 2);
        let expected = (2 * out_pix) as f64; // 2 samples
        for &db in l.params()[1].diff() {
            prop_assert!((db - expected).abs() < 1e-9);
        }
    }
}
