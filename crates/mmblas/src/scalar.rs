//! Scalar abstraction so every routine works for both `f32` and `f64`.
//!
//! Caffe templates its math over `float`/`double`; we mirror that with a
//! small sealed-ish trait instead of pulling in `num-traits`.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by every `mmblas` routine.
pub trait Scalar:
    Copy
    + Debug
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `usize` (used for averaging divisors).
    fn from_usize(v: usize) -> Self;
    /// Lossy conversion from `f64` (used for hyper-parameters).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used for reporting).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// `self^p` for real `p`.
    fn powf(self, p: Self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Caffe's `std::max(self, other)`: `other` if `self < other`, else
    /// `self` — so a NaN `self` comes back, and a NaN `other` does not.
    fn max_s(self, other: Self) -> Self;
    /// Fused multiply-add where the platform provides it.
    fn mul_add_s(self, a: Self, b: Self) -> Self;
    /// `true` if the value is finite (not NaN/inf).
    fn is_finite_s(self) -> bool;

    /// Hook for [`crate::gemm`]: the kernel for this element type. `f32`
    /// dispatches to the AVX2/FMA microkernel where the CPU has it, `f64` to
    /// the portable one compiled with FMA; every implementation returns the
    /// bits of the portable one.
    #[doc(hidden)]
    fn gemm_strided(problem: &crate::level3::Strided<'_, Self>, c: &mut [Self]);
}

macro_rules! impl_scalar {
    ($t:ty, $gemm:path) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline]
            fn powf(self, p: Self) -> Self {
                <$t>::powf(self, p)
            }
            #[inline]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline]
            fn max_s(self, other: Self) -> Self {
                if self < other {
                    other
                } else {
                    self
                }
            }
            #[inline]
            fn mul_add_s(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn is_finite_s(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn gemm_strided(problem: &crate::level3::Strided<'_, Self>, c: &mut [Self]) {
                $gemm(problem, c)
            }
        }
    };
}

impl_scalar!(f32, crate::level3::gemm_f32);
impl_scalar!(f64, crate::level3::gemm_scalar::<f64>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(f32::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_usize(7).to_f64(), 7.0);
        assert_eq!(f64::from_f64(2.5), 2.5);
    }

    #[test]
    fn math_helpers() {
        assert_eq!((-3.0f32).abs(), 3.0);
        assert_eq!(4.0f64.sqrt(), 2.0);
        assert!((1.0f32.exp() - std::f32::consts::E).abs() < 1e-6);
        assert_eq!(2.0f32.max_s(5.0), 5.0);
        assert_eq!(5.0f64.max_s(2.0), 5.0);
        assert!(f32::NAN.max_s(0.0).is_nan());
        assert_eq!(0.0f32.max_s(f32::NAN), 0.0);
        assert!((-0.0f32).max_s(0.0).is_sign_negative());
        assert!(1.0f32.is_finite_s());
        assert!(!(f32::NAN).is_finite_s());
    }
}
