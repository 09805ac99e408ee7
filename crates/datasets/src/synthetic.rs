//! Deterministic procedural datasets with MNIST / CIFAR-10 shapes.

use blob::Shape;
use layers::data::BatchSource;
use mmblas::{Pcg32, Scalar};

/// 5x7 bitmap glyphs for the digits 0-9 (classic segment-style font).
/// Each entry is 7 rows of 5 bits, MSB = leftmost pixel.
const DIGIT_FONT: [[u8; 7]; 10] = [
    [
        0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110,
    ], // 0
    [
        0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
    ], // 1
    [
        0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111,
    ], // 2
    [
        0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110,
    ], // 3
    [
        0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010,
    ], // 4
    [
        0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110,
    ], // 5
    [
        0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110,
    ], // 6
    [
        0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000,
    ], // 7
    [
        0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110,
    ], // 8
    [
        0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100,
    ], // 9
];

/// MNIST-shaped synthetic dataset: `1 x 28 x 28` grayscale digit glyphs with
/// per-sample translation jitter and additive noise.
///
/// Labels are pseudo-random over the 10 classes; the glyph rendered always
/// matches the label, so the classes are perfectly learnable in principle.
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    n: usize,
    seed: u64,
}

/// Standard deviation of [`SyntheticMnist`]'s additive Gaussian noise.
const MNIST_NOISE: f64 = 0.08;

impl SyntheticMnist {
    /// `n` samples from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self { n, seed }
    }

    /// The label of sample `index` (same value `fill` returns).
    pub fn label_of(&self, index: usize) -> usize {
        let mut rng = Pcg32::new(self.seed, index as u64);
        rng.uniform_u32(10) as usize
    }
}

impl<S: Scalar> BatchSource<S> for SyntheticMnist {
    fn num_samples(&self) -> usize {
        self.n
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([1usize, 28, 28])
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        assert_eq!(out.len(), 28 * 28, "SyntheticMnist: sample length");
        let mut rng = Pcg32::new(self.seed, index as u64);
        let label = rng.uniform_u32(10) as usize;
        // Jittered placement: glyph upscaled 3x (15x21 px) inside 28x28.
        let ox = 4 + rng.uniform_u32(7) as usize; // 4..10
        let oy = 2 + rng.uniform_u32(5) as usize; // 2..6
        let glyph = &DIGIT_FONT[label];
        for v in out.iter_mut() {
            *v = S::from_f64((rng.normal() * MNIST_NOISE).clamp(-0.3, 0.3).max(0.0));
        }
        for (r, bits) in glyph.iter().enumerate() {
            for c in 0..5 {
                if bits & (1 << (4 - c)) == 0 {
                    continue;
                }
                for dy in 0..3 {
                    for dx in 0..3 {
                        let y = oy + r * 3 + dy;
                        let x = ox + c * 3 + dx;
                        if y < 28 && x < 28 {
                            // Ink intensity with mild per-pixel variation.
                            let ink = 0.75 + 0.25 * rng.uniform_f64();
                            out[y * 28 + x] = S::from_f64(ink);
                        }
                    }
                }
            }
        }
        S::from_usize(label)
    }
}

/// CIFAR-shaped synthetic dataset: `3 x 32 x 32` images whose class
/// determines a base color and an oriented sinusoidal texture.
#[derive(Debug, Clone)]
pub struct SyntheticCifar {
    n: usize,
    seed: u64,
}

/// Standard deviation of [`SyntheticCifar`]'s additive Gaussian noise.
const CIFAR_NOISE: f64 = 0.1;

impl SyntheticCifar {
    /// `n` samples from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self { n, seed }
    }

    /// The label of sample `index`.
    pub fn label_of(&self, index: usize) -> usize {
        let mut rng = Pcg32::new(self.seed ^ 0xc1fa8, index as u64);
        rng.uniform_u32(10) as usize
    }
}

impl<S: Scalar> BatchSource<S> for SyntheticCifar {
    fn num_samples(&self) -> usize {
        self.n
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([3usize, 32, 32])
    }

    fn fill(&self, index: usize, out: &mut [S]) -> S {
        assert_eq!(out.len(), 3 * 32 * 32, "SyntheticCifar: sample length");
        let mut rng = Pcg32::new(self.seed ^ 0xc1fa8, index as u64);
        let label = rng.uniform_u32(10) as usize;
        // Class signature: base RGB color + grating orientation/frequency.
        let hue = label as f64 / 10.0;
        let base = [
            0.5 + 0.4 * (std::f64::consts::TAU * hue).cos(),
            0.5 + 0.4 * (std::f64::consts::TAU * (hue + 1.0 / 3.0)).cos(),
            0.5 + 0.4 * (std::f64::consts::TAU * (hue + 2.0 / 3.0)).cos(),
        ];
        let angle = label as f64 * std::f64::consts::PI / 10.0;
        let freq = 0.25 + 0.08 * (label % 5) as f64;
        let phase = rng.uniform_f64() * std::f64::consts::TAU;
        let (sa, ca) = angle.sin_cos();
        for y in 0..32usize {
            for x in 0..32usize {
                let t = ((x as f64 * ca + y as f64 * sa) * freq + phase).sin() * 0.25;
                for ch in 0..3usize {
                    let noise = rng.normal() * CIFAR_NOISE;
                    let v = (base[ch] + t + noise).clamp(0.0, 1.0);
                    out[ch * 32 * 32 + y * 32 + x] = S::from_f64(v);
                }
            }
        }
        S::from_usize(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_samples_are_deterministic() {
        let d = SyntheticMnist::new(100, 7);
        let mut a = vec![0.0f32; 28 * 28];
        let mut b = vec![0.0f32; 28 * 28];
        let la = BatchSource::<f32>::fill(&d, 42, &mut a);
        let lb = BatchSource::<f32>::fill(&d, 42, &mut b);
        assert_eq!(la, lb);
        assert_eq!(a, b);
    }

    #[test]
    fn mnist_label_matches_label_of_and_is_in_range() {
        let d = SyntheticMnist::new(50, 3);
        let mut buf = vec![0.0f32; 28 * 28];
        for i in 0..50 {
            let l = BatchSource::<f32>::fill(&d, i, &mut buf) as usize;
            assert_eq!(l, d.label_of(i));
            assert!(l < 10);
        }
    }

    #[test]
    fn mnist_pixels_in_unit_range_with_ink() {
        let d = SyntheticMnist::new(10, 1);
        let mut buf = vec![0.0f32; 28 * 28];
        for i in 0..10 {
            BatchSource::<f32>::fill(&d, i, &mut buf);
            assert!(buf.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let ink = buf.iter().filter(|&&v| v > 0.5).count();
            assert!(ink > 30, "sample {i} has only {ink} ink pixels");
        }
    }

    #[test]
    fn mnist_class_distribution_covers_all_digits() {
        let d = SyntheticMnist::new(500, 11);
        let mut seen = [0usize; 10];
        for i in 0..500 {
            seen[d.label_of(i)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 20), "{seen:?}");
    }

    #[test]
    fn cifar_shapes_and_determinism() {
        let d = SyntheticCifar::new(20, 5);
        assert_eq!(BatchSource::<f32>::sample_shape(&d).dims(), &[3, 32, 32]);
        let mut a = vec![0.0f32; 3 * 32 * 32];
        let mut b = vec![0.0f32; 3 * 32 * 32];
        let la = BatchSource::<f32>::fill(&d, 3, &mut a);
        let lb = BatchSource::<f32>::fill(&d, 3, &mut b);
        assert_eq!(la, lb);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cifar_classes_have_distinct_mean_colors() {
        let d = SyntheticCifar::new(200, 9);
        let mut buf = vec![0.0f64; 3 * 32 * 32];
        let mut means = vec![];
        for target in 0..4usize {
            // Find a sample of each class.
            let idx = (0..200).find(|&i| d.label_of(i) == target).unwrap();
            BatchSource::<f64>::fill(&d, idx, &mut buf);
            let m: f64 = buf[..1024].iter().sum::<f64>() / 1024.0;
            means.push(m);
        }
        // Red-channel means differ across classes (the color signature).
        for i in 0..means.len() {
            for j in i + 1..means.len() {
                assert!(
                    (means[i] - means[j]).abs() > 1e-3,
                    "classes {i} and {j} look identical"
                );
            }
        }
    }

    #[test]
    fn different_samples_differ() {
        let d = SyntheticMnist::new(10, 1);
        let mut a = vec![0.0f32; 28 * 28];
        let mut b = vec![0.0f32; 28 * 28];
        BatchSource::<f32>::fill(&d, 0, &mut a);
        BatchSource::<f32>::fill(&d, 1, &mut b);
        assert_ne!(a, b);
    }
}
