//! In-memory [`BatchSource`] over decoded samples.

use blob::Shape;
use layers::data::BatchSource;
use mmblas::Scalar;

/// A dataset held fully in memory (e.g. decoded from IDX / CIFAR binaries).
#[derive(Debug, Clone)]
pub struct InMemoryDataset {
    images: Vec<Vec<f32>>,
    labels: Vec<u8>,
    shape: Shape,
}

impl InMemoryDataset {
    /// Wrap decoded images/labels. Every image must have
    /// `shape.count()` elements.
    ///
    /// # Panics
    /// Panics on empty data or length mismatches.
    pub fn new(images: Vec<Vec<f32>>, labels: Vec<u8>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(!images.is_empty(), "InMemoryDataset: no images");
        assert_eq!(
            images.len(),
            labels.len(),
            "InMemoryDataset: image/label count mismatch"
        );
        for (i, img) in images.iter().enumerate() {
            assert_eq!(
                img.len(),
                shape.count(),
                "InMemoryDataset: image {i} length"
            );
        }
        Self {
            images,
            labels,
            shape,
        }
    }
}

impl<S: Scalar> BatchSource<S> for InMemoryDataset {
    fn num_samples(&self) -> usize {
        self.images.len()
    }

    fn sample_shape(&self) -> Shape {
        self.shape.clone()
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        let img = &self.images[index];
        for (o, &p) in out.iter_mut().zip(img) {
            *o = S::from_f64(p as f64);
        }
        S::from_usize(self.labels[index] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_samples_and_labels() {
        let ds = InMemoryDataset::new(
            vec![vec![0.5, 1.0], vec![0.0, 0.25]],
            vec![3, 7],
            [1usize, 1, 2],
        );
        let mut out = [0.0f32; 2];
        let l0 = BatchSource::<f32>::fill(&ds, 0, &mut out);
        assert_eq!(l0, 3.0);
        assert_eq!(out, [0.5, 1.0]);
        let l1 = BatchSource::<f32>::fill(&ds, 1, &mut out);
        assert_eq!(l1, 7.0);
        assert_eq!(out, [0.0, 0.25]);
    }

    #[test]
    #[should_panic(expected = "image/label count mismatch")]
    fn mismatched_lengths_panic() {
        let _ = InMemoryDataset::new(vec![vec![0.0]], vec![1, 2], [1usize]);
    }

    #[test]
    #[should_panic(expected = "image 0 length")]
    fn wrong_image_size_panics() {
        let _ = InMemoryDataset::new(vec![vec![0.0; 3]], vec![1], [2usize]);
    }
}
