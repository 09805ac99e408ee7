//! Level-1 BLAS: vector-vector operations.
//!
//! These are the `caffe_axpy`/`caffe_scal`/`caffe_set`-style helpers the
//! layer implementations call per blob segment.

use crate::Scalar;

/// `y += alpha * x` (BLAS `axpy`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if alpha == S::ZERO {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` (BLAS `scal`).
pub fn scal<S: Scalar>(alpha: S, x: &mut [S]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product `x . y` (BLAS `dot`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Four partial accumulators: breaks the serial dependence chain so the
    // compiler can vectorize without needing -ffast-math semantics.
    let mut acc = [S::ZERO; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = S::ZERO;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Strictly sequential dot product, summed left-to-right.
///
/// Used where bitwise reproducibility against a reference loop matters more
/// than speed (the paper's "ordered" requirement).
pub fn dot_seq<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len(), "dot_seq: length mismatch");
    let mut acc = S::ZERO;
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

/// Fill `x` with `v` (`caffe_set`).
pub fn set<S: Scalar>(v: S, x: &mut [S]) {
    for xi in x.iter_mut() {
        *xi = v;
    }
}

/// Zero-fill (`caffe_zero`) — the privatized-gradient initialisation of
/// Algorithm 5 line 5.
pub fn zero<S: Scalar>(x: &mut [S]) {
    set(S::ZERO, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpy_zero_alpha_is_noop() {
        let x = [f32::NAN; 3];
        let mut y = [1.0f32, 2.0, 3.0];
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn scal_and_set() {
        let mut x = [1.0f32, -2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
        zero(&mut x);
        assert_eq!(x, [0.0; 3]);
        set(7.0, &mut x);
        assert_eq!(x, [7.0; 3]);
    }

    #[test]
    fn dot_matches_seq_dot() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let a = dot(&x, &y);
        let b = dot_seq(&x, &y);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn dot_empty() {
        let e: [f32; 0] = [];
        assert_eq!(dot(&e, &e), 0.0);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch")]
    fn axpy_length_mismatch_panics() {
        let x = [1.0f32];
        let mut y = [1.0f32, 2.0];
        axpy(1.0, &x, &mut y);
    }
}
