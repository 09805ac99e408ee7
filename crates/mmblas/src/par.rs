//! Fine-grain (BLAS-level) parallel kernels — the paper's §3.1.1
//! alternative to batch-level parallelism.
//!
//! These parallelize *inside* one linear-algebra call: GEMM over row
//! blocks of `C`, GEMV over row blocks of `y`. The paper's analysis
//! applies directly: fine-grain parallelism only pays off when each call
//! is large (deep in the network the segments shrink and the fork/join
//! overhead dominates), whereas the batch-level loop stays coarse
//! everywhere. The `fine_grain` machine model and the
//! `e13_fine_grain_cpu` experiment quantify that trade-off; these kernels
//! are the real executable counterpart.
//!
//! Built on rayon (the workspace's sanctioned data-parallelism substrate)
//! rather than `omprt` so `mmblas` stays dependency-light and reusable.

use crate::{gemm, gemv, Scalar, Transpose};
use rayon::prelude::*;

/// Row-block size per parallel task: coarse enough to amortize task
/// dispatch, fine enough to balance.
const ROW_BLOCK: usize = 16;

/// Parallel GEMM: `C = alpha * op(A) * op(B) + beta * C`, parallelized
/// over row blocks of `C`. Each strip is a row-range call of the one
/// sequential kernel, so the result is bitwise-identical to [`gemm`] for any
/// thread count (every `C[i][j]` has its own accumulator and `k` order; see
/// [`crate::level3`]).
///
/// # Panics
/// Panics on inconsistent dimensions (same contract as [`crate::gemm`]).
pub fn gemm_par<S: Scalar>(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Row i of C depends on row i of op(A) only. Rows `row0..` of op(A)
    // start at stored row `row0` (as stored) or stored column `row0`
    // (transposed); either way the strip keeps the stored `lda`.
    c.par_chunks_mut(ROW_BLOCK * ldc)
        .enumerate()
        .for_each(|(blk, cchunk)| {
            let row0 = blk * ROW_BLOCK;
            if row0 >= m {
                return;
            }
            let rows = ROW_BLOCK.min(m - row0);
            let astrip = match ta {
                Transpose::No => &a[row0 * lda..],
                Transpose::Yes => &a[row0..],
            };
            gemm(
                ta, tb, rows, n, k, alpha, astrip, lda, b, ldb, beta, cchunk, ldc,
            );
        });
}

/// Parallel GEMV over row blocks of the output.
/// Bitwise-identical to the sequential [`gemv`].
///
/// # Panics
/// Panics on inconsistent dimensions (same contract as [`gemv`]).
pub fn gemv_par<S: Scalar>(
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
    match trans {
        Transpose::No => {
            // y[i] depends on row i of A only.
            y.par_chunks_mut(ROW_BLOCK)
                .enumerate()
                .for_each(|(blk, ychunk)| {
                    let row0 = blk * ROW_BLOCK;
                    let rows = ychunk.len();
                    let astrip = &a[row0 * lda..];
                    gemv(trans, rows, n, alpha, astrip, lda, x, beta, ychunk);
                });
        }
        Transpose::Yes => {
            // y[j] depends on column j of A (= row j of A^T): split the
            // output and give each task the column window of the stored A.
            y.par_chunks_mut(ROW_BLOCK)
                .enumerate()
                .for_each(|(blk, ychunk)| {
                    let col0 = blk * ROW_BLOCK;
                    let cols = ychunk.len();
                    // Stored A is m x n (lda >= n); the window is columns
                    // col0..col0+cols of every row.
                    let awin = &a[col0..];
                    gemv(trans, m, cols, alpha, awin, lda, x, beta, ychunk);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = crate::Pcg32::seeded(seed);
        (0..n).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
    }

    /// The strips are fixed `ROW_BLOCK`-row ranges whatever the pool size,
    /// and a row range of the one kernel is bit-equal to the same rows of
    /// the full call — so `gemm_par` equals `gemm` bit for bit for any
    /// thread count, on the SIMD (`f32`) path as on the scalar one.
    #[test]
    fn gemm_par_is_bitwise_gemm() {
        use Transpose::{No, Yes};
        for (ta, tb) in [(No, No), (No, Yes), (Yes, No), (Yes, Yes)] {
            for &(m, n, k) in &[
                (1usize, 1usize, 1usize),
                (7, 9, 5),
                (37, 18, 25),
                (64, 33, 300),
            ] {
                let (lda, ldb) = (
                    if ta.is_trans() { m } else { k },
                    if tb.is_trans() { k } else { n },
                );
                let dense32 = |len, seed| -> Vec<f32> {
                    dense(len, seed).iter().map(|&v| v as f32).collect()
                };
                let (a, b) = (dense32(m * k, 1), dense32(k * n, 2));
                let mut c1 = dense32(m * n, 3);
                let mut c2 = c1.clone();
                gemm(ta, tb, m, n, k, 1.5, &a, lda, &b, ldb, 0.5, &mut c1, n);
                gemm_par(ta, tb, m, n, k, 1.5, &a, lda, &b, ldb, 0.5, &mut c2, n);
                assert!(
                    c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "m={m} n={n} k={k} ta={ta:?} tb={tb:?}"
                );
            }
        }
    }

    #[test]
    fn gemv_par_matches_sequential_both_directions() {
        let (m, n) = (45usize, 23usize);
        let a = dense(m * n, 6);
        let x_n = dense(n, 7);
        let x_m = dense(m, 8);
        let mut y1 = dense(m, 9);
        let mut y2 = y1.clone();
        gemv(Transpose::No, m, n, 2.0, &a, n, &x_n, 0.25, &mut y1);
        gemv_par(Transpose::No, m, n, 2.0, &a, n, &x_n, 0.25, &mut y2);
        assert_eq!(y1, y2);

        let mut z1 = dense(n, 10);
        let mut z2 = z1.clone();
        gemv(Transpose::Yes, m, n, -1.0, &a, n, &x_m, 1.0, &mut z1);
        gemv_par(Transpose::Yes, m, n, -1.0, &a, n, &x_m, 1.0, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn zero_rows_is_noop() {
        let a: Vec<f64> = vec![];
        let b: Vec<f64> = vec![];
        let mut c: Vec<f64> = vec![];
        gemm_par(
            Transpose::No,
            Transpose::No,
            0,
            0,
            3,
            1.0,
            &a,
            3,
            &b,
            1,
            0.0,
            &mut c,
            1,
        );
    }
}
