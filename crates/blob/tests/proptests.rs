//! Property-based tests for blob shape math and views.

use blob::{Blob, Shape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn offset_is_a_bijection_over_the_blob(n in 1usize..4, c in 1usize..4, h in 1usize..5, w in 1usize..5) {
        let b: Blob<f32> = Blob::new([n, c, h, w]);
        let mut seen = vec![false; b.count()];
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        let o = b.offset(ni, ci, hi, wi);
                        prop_assert!(o < b.count());
                        prop_assert!(!seen[o], "offset collision at {o}");
                        seen[o] = true;
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_views_tile_the_data(n in 1usize..5, rest in 1usize..20) {
        let mut b: Blob<f64> = Blob::new([n, rest]);
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut reassembled = Vec::new();
        for s in 0..n {
            prop_assert_eq!(b.sample_data(s).len(), rest);
            reassembled.extend_from_slice(b.sample_data(s));
        }
        prop_assert_eq!(reassembled.as_slice(), b.data());
    }

    #[test]
    fn segment_views_tile_each_sample(n in 1usize..4, c in 1usize..4, hw in 1usize..5) {
        let mut b: Blob<f64> = Blob::new([n, c, hw, hw]);
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut reassembled = Vec::new();
        for s in 0..n {
            for ch in 0..c {
                reassembled.extend_from_slice(b.segment_data(s, ch));
            }
        }
        prop_assert_eq!(reassembled.as_slice(), b.data());
        prop_assert_eq!(b.num_segments() * b.segment_len(), b.count());
    }

    #[test]
    fn count_range_is_multiplicative(dims in proptest::collection::vec(1usize..5, 1..5)) {
        let s = Shape::from(dims.clone());
        for from in 0..=dims.len() {
            for to in from..=dims.len() {
                let want: usize = dims[from..to].iter().product();
                prop_assert_eq!(s.count_range(from, to), want.max(1));
            }
        }
        prop_assert_eq!(s.count(), s.count_range(0, dims.len()));
    }

    #[test]
    fn update_then_negated_update_round_trips(vals in proptest::collection::vec(-10.0f64..10.0, 1..30)) {
        let n = vals.len();
        let mut b: Blob<f64> = Blob::from_data([n], vals.clone());
        let grads: Vec<f64> = vals.iter().map(|v| v * 0.5 + 1.0).collect();
        b.diff_mut().copy_from_slice(&grads);
        b.update();
        for v in b.diff_mut() {
            *v = -*v;
        }
        b.update();
        for (a, orig) in b.data().iter().zip(&vals) {
            prop_assert!((a - orig).abs() < 1e-12);
        }
    }
}
