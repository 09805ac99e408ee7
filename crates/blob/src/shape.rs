//! Blob shapes: small-vector of dimensions plus Caffe's count conventions.

/// Shape of a blob: an ordered list of dimension extents.
///
/// Constructible from arrays, slices and `Vec`s of `usize`:
/// `Shape::from([64, 1, 28, 28])`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Shape with no axes (a scalar blob of count 1).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of axis `i`.
    ///
    /// # Panics
    /// Panics if `i >= ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Extent of axis `i`, or `default` when the axis does not exist —
    /// Caffe's legacy accessor behaviour (`channels()` of a 2-D blob is 1).
    pub fn dim_or(&self, i: usize, default: usize) -> usize {
        self.0.get(i).copied().unwrap_or(default)
    }

    /// Total element count (product of all extents; 1 for a scalar shape).
    pub fn count(&self) -> usize {
        self.0.iter().product()
    }

    /// Product of extents over axes `[from, to)` clamped to valid range.
    pub fn count_range(&self, from: usize, to: usize) -> usize {
        let to = to.min(self.ndim());
        if from >= to {
            return 1;
        }
        self.0[from..to].iter().product()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_conventions() {
        let s = Shape::from([2usize, 3, 4]);
        assert_eq!(s.count(), 24);
        assert_eq!(s.count_range(1, 3), 12);
        assert_eq!(s.count_range(2, 2), 1);
        assert_eq!(s.count_range(5, 9), 1);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.dim_or(0, 1), 1);
    }

    #[test]
    fn display() {
        assert_eq!(
            Shape::from([64usize, 1, 28, 28]).to_string(),
            "(64, 1, 28, 28)"
        );
    }
}
