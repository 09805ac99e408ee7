//! `mmblas` — a from-scratch, dependency-free BLAS subset.
//!
//! The PPoPP'16 paper configures Caffe with OpenBLAS and calls *sequential*
//! BLAS kernels from inside coarse-grain (batch-level) parallel regions. This
//! crate is the equivalent substrate: sequential level-1/2/3 routines plus the
//! `im2col`/`col2im` lowering used by convolutional layers.
//!
//! All matrices are **row-major** and dense. Routines follow the BLAS
//! calling convention (`alpha`, `beta`, leading dimensions) so the layer code
//! reads like the Caffe `caffe_cpu_gemm`/`caffe_cpu_gemv` call sites it
//! mirrors.
//!
//! There is one GEMM, [`gemm`]: a register-tiled microkernel over packed
//! strips, written once over 8- and 16-lane registers for `f32` (6x16 with
//! AVX2/FMA, 6x32 with AVX-512F, selected at run time) beside a scalar twin
//! that performs the same fused operations in the same order; the vector
//! paths also have a narrow path for products with at most 8 lane columns
//! (a few-row inner product), which keeps that order. Its results are
//! therefore bit-identical on every instruction set and for any row range
//! of a product — the property the coarse-grain
//! drivers' bit-identity guarantees rest on ([`level3`] has the argument).
//! [`gemm_naive`] is the triple-loop oracle the tests compare against.
//!
//! ```
//! use mmblas::{gemm, Transpose};
//!
//! // C (2x2) = A (2x3) * B (3x2)
//! let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
//! let b = [1.0f32, 0.0, 0.0, 1.0, 1.0, 1.0];
//! let mut c = [0.0f32; 4];
//! gemm(Transpose::No, Transpose::No, 2, 2, 3, 1.0, &a, 3, &b, 2, 0.0, &mut c, 2);
//! assert_eq!(c, [4.0, 5.0, 10.0, 11.0]);
//! ```

// BLAS calling conventions (alpha/beta, leading dimensions, transpose
// flags) intentionally exceed clippy's argument-count taste.
#![allow(clippy::too_many_arguments)]

pub mod im2col;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod rng;
pub mod scalar;

pub use im2col::{col2im, conv_out_dim, im2col, Conv2dGeometry, TapSpan};
pub use level1::*;
pub use level2::{gemv, ger};
pub use level3::{gemm, gemm_naive};
pub use rng::Pcg32;
pub use scalar::Scalar;

/// Whether an operand of [`gemm`]/[`gemv`] is used as stored or transposed.
///
/// Mirrors the `CBLAS_TRANSPOSE` argument of the C BLAS interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the matrix as stored (`op(A) = A`).
    No,
    /// Use the transpose (`op(A) = A^T`).
    Yes,
}

impl Transpose {
    /// Returns `true` for [`Transpose::Yes`].
    #[inline]
    pub fn is_trans(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_flag() {
        assert!(!Transpose::No.is_trans());
        assert!(Transpose::Yes.is_trans());
    }
}
