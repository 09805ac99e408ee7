//! Property-based tests for the BLAS substrate: algebraic identities that
//! must hold for arbitrary shapes and values.

use mmblas::{
    axpy, col2im, dot, dot_seq, gemm, gemm_naive, gemv, im2col, scal, Conv2dGeometry, Transpose,
};
use proptest::prelude::*;

fn vecf(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, len..=len)
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..20, 1usize..20, 1usize..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `f64` leg of the differential matrix (the conv shapes, tile
    /// edges, SIMD-vs-twin and row-range legs are `level3`'s unit tests):
    /// arbitrary shape, transposes, scalars and padded strides against the
    /// oracle, with the padding of `C` left untouched.
    #[test]
    fn gemm_agrees_with_oracle((m, n, k) in dims(),
                               ta in prop::bool::ANY,
                               tb in prop::bool::ANY,
                               alpha in -2.0f64..2.0,
                               beta in -2.0f64..2.0,
                               pad in 0usize..3,
                               seed in 0u64..1000) {
        let mut rng = mmblas::Pcg32::seeded(seed);
        let (ta, tb) = (
            if ta { Transpose::Yes } else { Transpose::No },
            if tb { Transpose::Yes } else { Transpose::No },
        );
        let (ar, ac) = if ta.is_trans() { (k, m) } else { (m, k) };
        let (br, bc) = if tb.is_trans() { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (ac + pad, bc + pad, n + pad);
        let a: Vec<f64> = (0..ar * lda).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
        let b: Vec<f64> = (0..br * ldb).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
        let c0: Vec<f64> = (0..m * ldc).map(|_| rng.uniform_range(-3.0, 3.0)).collect();

        let mut c1 = c0.clone();
        gemm_naive(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c1, ldc);
        let mut c2 = c0.clone();
        gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c2, ldc);
        for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
            if i % ldc >= n {
                prop_assert_eq!(*y, c0[i]);
            }
            prop_assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()));
        }
    }

    /// Splitting the rows of an `f32` product anywhere gives the bits of the
    /// unsplit call (what channel-split layers stand on).
    #[test]
    fn gemm_row_split_is_bitwise((m, n, k) in (2usize..40, 1usize..40, 1usize..600),
                                 tb in prop::bool::ANY,
                                 cut in 1usize..39,
                                 seed in 0u64..1000) {
        let cut = 1 + cut % (m - 1);
        let mut rng = mmblas::Pcg32::seeded(seed);
        let tb = if tb { Transpose::Yes } else { Transpose::No };
        let ldb = if tb.is_trans() { k } else { n };
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut full = vec![0.0f32; m * n];
        gemm(Transpose::No, tb, m, n, k, 1.0, &a, k, &b, ldb, 0.0, &mut full, n);
        let mut split = vec![0.0f32; m * n];
        let (top, bottom) = split.split_at_mut(cut * n);
        gemm(Transpose::No, tb, cut, n, k, 1.0, &a, k, &b, ldb, 0.0, top, n);
        gemm(Transpose::No, tb, m - cut, n, k, 1.0, &a[cut * k..], k, &b, ldb, 0.0, bottom, n);
        prop_assert!(full.iter().zip(&split).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn gemm_is_linear_in_alpha((m, n, k) in dims(), seed in 0u64..1000) {
        let mut rng = mmblas::Pcg32::seeded(seed);
        let a: Vec<f64> = (0..m * k).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c1, n);
        gemm(Transpose::No, Transpose::No, m, n, k, 2.5, &a, k, &b, n, 0.0, &mut c2, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((2.5 * x - y).abs() < 1e-9 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn gemv_matches_gemm_with_one_column(m in 1usize..24, k in 1usize..24, seed in 0u64..1000) {
        let mut rng = mmblas::Pcg32::seeded(seed);
        let a: Vec<f64> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let x: Vec<f64> = (0..k).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let mut y1 = vec![0.0; m];
        gemv(Transpose::No, m, k, 1.0, &a, k, &x, 0.0, &mut y1);
        let mut y2 = vec![0.0; m];
        gemm(Transpose::No, Transpose::No, m, 1, k, 1.0, &a, k, &x, 1, 0.0, &mut y2, 1);
        for (p, q) in y1.iter().zip(&y2) {
            prop_assert!((p - q).abs() < 1e-10 * (1.0 + p.abs()));
        }
    }

    #[test]
    fn dot_is_symmetric_and_close_to_seq(x in vecf(33), y in vecf(33)) {
        let a = dot(&x, &y);
        let b = dot(&y, &x);
        prop_assert_eq!(a, b);
        let s = dot_seq(&x, &y);
        prop_assert!((a - s).abs() < 1e-9 * (1.0 + s.abs()));
    }

    #[test]
    fn axpy_then_inverse_axpy_is_identity(x in vecf(17), y0 in vecf(17), alpha in -5.0f64..5.0) {
        let mut y = y0.clone();
        axpy(alpha, &x, &mut y);
        axpy(-alpha, &x, &mut y);
        for (a, b) in y.iter().zip(&y0) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn scal_composes(xs in vecf(9), a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let mut x1 = xs.clone();
        scal(a, &mut x1);
        scal(b, &mut x1);
        let mut x2 = xs.clone();
        scal(a * b, &mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-9 * (1.0 + q.abs()));
        }
    }

    #[test]
    fn im2col_col2im_adjoint(channels in 1usize..4,
                             size in 3usize..9,
                             kernel in 1usize..4,
                             pad in 0usize..2,
                             stride in 1usize..3,
                             seed in 0u64..1000) {
        prop_assume!(size + 2 * pad >= kernel);
        let geom = Conv2dGeometry::square(channels, size, kernel, pad, stride);
        let mut rng = mmblas::Pcg32::seeded(seed);
        let x: Vec<f64> = (0..geom.image_len()).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let y: Vec<f64> = (0..geom.col_len()).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let mut cx = vec![0.0; geom.col_len()];
        im2col(&geom, &x, &mut cx);
        let mut iy = vec![0.0; geom.image_len()];
        col2im(&geom, &y, &mut iy);
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&iy).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    #[test]
    fn im2col_is_linear(channels in 1usize..3, size in 3usize..8, seed in 0u64..500) {
        let geom = Conv2dGeometry::square(channels, size, 3, 1, 1);
        let mut rng = mmblas::Pcg32::seeded(seed);
        let a: Vec<f64> = (0..geom.image_len()).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..geom.image_len()).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let mut ca = vec![0.0; geom.col_len()];
        let mut cb = vec![0.0; geom.col_len()];
        let mut cs = vec![0.0; geom.col_len()];
        im2col(&geom, &a, &mut ca);
        im2col(&geom, &b, &mut cb);
        im2col(&geom, &sum, &mut cs);
        for ((x, y), z) in ca.iter().zip(&cb).zip(&cs) {
            prop_assert!((x + y - z).abs() < 1e-12);
        }
    }

    #[test]
    fn pcg_uniform_u32_in_bounds(seed in 0u64..10_000, bound in 1u32..1000) {
        let mut rng = mmblas::Pcg32::seeded(seed);
        for _ in 0..32 {
            prop_assert!(rng.uniform_u32(bound) < bound);
        }
    }
}
