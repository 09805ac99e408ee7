//! Level-2 BLAS: matrix-vector operations.
//!
//! **Deviation from IEEE propagation, kept on purpose:** [`ger`] and the
//! transposed [`gemv`] skip row `i` when `alpha * x[i] == 0`, so a NaN or
//! infinity in that row of the other operand does not reach the result
//! (`0 * NaN` is dropped; [`crate::gemm`] and its oracle never skip). The
//! inner-product layers call these with `x` = the output diff, which is
//! exactly zero wherever a following ReLU was inactive: at 50 % zeros the
//! LeNet `ip1` shapes (500 x 800) run in 22 µs instead of 41 µs, for one
//! compare per row. `skip_rows_with_zero_coefficient` pins the behaviour.

use crate::{Scalar, Transpose};

/// General matrix-vector product: `y = alpha * op(A) * x + beta * y`.
///
/// `a` is an `m x n` row-major matrix with leading dimension `lda >= n`.
/// With `trans == Transpose::No`, `x` has length `n` and `y` length `m`;
/// transposed, the roles swap. `beta == 0` overwrites `y` without reading
/// it (the BLAS convention, as in [`crate::gemm`]), so garbage or NaN left
/// in `y` does not reach the result.
///
/// # Panics
/// Panics if slice lengths are inconsistent with `m`, `n`, `lda`.
pub fn gemv<S: Scalar>(
    trans: Transpose,
    m: usize,
    n: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    x: &[S],
    beta: S,
    y: &mut [S],
) {
    assert!(lda >= n.max(1), "gemv: lda ({lda}) < n ({n})");
    if m > 0 {
        assert!(
            a.len() >= (m - 1) * lda + n,
            "gemv: matrix slice too short: len {} for m={m} n={n} lda={lda}",
            a.len()
        );
    }
    let (xlen, ylen) = match trans {
        Transpose::No => (n, m),
        Transpose::Yes => (m, n),
    };
    assert_eq!(x.len(), xlen, "gemv: x length");
    assert_eq!(y.len(), ylen, "gemv: y length");

    match trans {
        Transpose::No => {
            for i in 0..m {
                let row = &a[i * lda..i * lda + n];
                let acc = alpha * crate::level1::dot(row, x);
                y[i] = if beta == S::ZERO {
                    acc
                } else {
                    acc + beta * y[i]
                };
            }
        }
        Transpose::Yes => {
            // y (len n) = alpha * A^T x + beta * y; traverse A row-wise for
            // contiguous access.
            if beta == S::ZERO {
                crate::level1::zero(y);
            } else if beta != S::ONE {
                crate::level1::scal(beta, y);
            }
            for i in 0..m {
                let axi = alpha * x[i];
                if axi == S::ZERO {
                    continue;
                }
                let row = &a[i * lda..i * lda + n];
                for (yj, &aij) in y.iter_mut().zip(row) {
                    *yj += axi * aij;
                }
            }
        }
    }
}

/// Rank-1 update: `A += alpha * x * y^T` (BLAS `ger`).
///
/// `a` is `m x n` row-major with leading dimension `lda`.
///
/// # Panics
/// Panics if slice lengths are inconsistent.
pub fn ger<S: Scalar>(m: usize, n: usize, alpha: S, x: &[S], y: &[S], a: &mut [S], lda: usize) {
    assert!(lda >= n.max(1), "ger: lda < n");
    assert_eq!(x.len(), m, "ger: x length");
    assert_eq!(y.len(), n, "ger: y length");
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + n, "ger: matrix slice too short");
    }
    for i in 0..m {
        let axi = alpha * x[i];
        if axi == S::ZERO {
            continue;
        }
        let row = &mut a[i * lda..i * lda + n];
        for (aij, &yj) in row.iter_mut().zip(y) {
            *aij += axi * yj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented deviation: a zero coefficient skips its row, NaN and
    /// all; a non-zero one propagates it.
    #[test]
    fn skip_rows_with_zero_coefficient() {
        let a = [f32::NAN, 1.0, 2.0, 3.0]; // 2 x 2, NaN in row 0
        let mut y = [9.0f32; 2];
        gemv(Transpose::Yes, 2, 2, 1.0, &a, 2, &[0.0, 1.0], 0.0, &mut y);
        assert_eq!(y, [2.0, 3.0]);
        gemv(Transpose::Yes, 2, 2, 1.0, &a, 2, &[1.0, 1.0], 0.0, &mut y);
        assert!(y[0].is_nan() && y[1] == 4.0);

        let mut m = [0.0f32; 4];
        ger(2, 2, 1.0, &[0.0, 1.0], &[f32::NAN, 2.0], &mut m, 2);
        assert!(m[0] == 0.0 && m[1] == 0.0 && m[2].is_nan() && m[3] == 2.0);
    }

    #[test]
    fn gemv_notrans() {
        // A = [[1,2],[3,4],[5,6]] (3x2), x = [1, -1]
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0f32, -1.0];
        let mut y = [10.0f32, 20.0, 30.0];
        gemv(Transpose::No, 3, 2, 1.0, &a, 2, &x, 0.0, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
    }

    /// `beta == 0` overwrites `y` unread in both orientations: a NaN left
    /// there does not survive.
    #[test]
    fn gemv_beta_zero_overwrites_nan() {
        let (a, ones) = ([1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0f32; 3]); // A: 3 x 2
        let mut y = [f32::NAN; 3];
        gemv(Transpose::No, 3, 2, 1.0, &a, 2, &ones[..2], 0.0, &mut y);
        assert_eq!(y, [3.0, 7.0, 11.0]);
        let mut y = [f32::NAN; 2];
        gemv(Transpose::Yes, 3, 2, 1.0, &a, 2, &ones, 0.0, &mut y);
        assert_eq!(y, [9.0, 12.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0f32, 1.0, 1.0];
        let mut y = [0.0f32, 0.0];
        gemv(Transpose::Yes, 3, 2, 1.0, &a, 2, &x, 0.0, &mut y);
        assert_eq!(y, [9.0, 12.0]);
    }

    #[test]
    fn gemv_beta_accumulates() {
        let a = [2.0f32];
        let x = [3.0f32];
        let mut y = [5.0f32];
        gemv(Transpose::No, 1, 1, 1.0, &a, 1, &x, 2.0, &mut y);
        assert_eq!(y, [16.0]);
    }

    #[test]
    fn gemv_with_padded_lda() {
        // 2x2 matrix stored with lda = 3 (one pad column).
        let a = [1.0f32, 2.0, 99.0, 3.0, 4.0, 99.0];
        let x = [1.0f32, 1.0];
        let mut y = [0.0f32, 0.0];
        gemv(Transpose::No, 2, 2, 1.0, &a, 3, &x, 0.0, &mut y);
        assert_eq!(y, [3.0, 7.0]);
    }

    #[test]
    fn ger_rank1() {
        let x = [1.0f32, 2.0];
        let y = [3.0f32, 4.0, 5.0];
        let mut a = [0.0f32; 6];
        ger(2, 3, 1.0, &x, &y, &mut a, 3);
        assert_eq!(a, [3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn gemv_zero_rows() {
        let a: [f32; 0] = [];
        let x = [1.0f32, 2.0];
        let mut y: [f32; 0] = [];
        gemv(Transpose::No, 0, 2, 1.0, &a, 2, &x, 0.0, &mut y);
    }
}
