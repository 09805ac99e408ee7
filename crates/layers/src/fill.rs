//! A learnable layer's parameters: a weight filled as Caffe's
//! `weight_filler` says, and a zero bias.

use blob::Blob;
use mmblas::{Pcg32, Scalar};

/// Caffe's learning-rate multipliers (`lr_mult`) of [`weight_and_bias`]'s
/// two blobs: 1 for the weight, 2 for the bias.
pub const LR_MULTS: [f64; 2] = [1.0, 2.0];

/// Weight-initialization policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Filler {
    /// Zero-mean Gaussian with the given standard deviation.
    Gaussian {
        /// Standard deviation.
        std: f64,
    },
    /// Caffe's "xavier": uniform in `[-s, s]` with `s = sqrt(3 / fan_in)`,
    /// where `fan_in = count / num` of the blob.
    Xavier,
}

impl Filler {
    /// Fill `blob.data` deterministically from `rng`.
    pub fn fill<S: Scalar>(&self, blob: &mut Blob<S>, rng: &mut Pcg32) {
        let fan_in = if blob.num() > 0 {
            (blob.count() / blob.num()).max(1)
        } else {
            1
        };
        match *self {
            Filler::Gaussian { std } => {
                for x in blob.data_mut() {
                    *x = S::from_f64(rng.normal() * std);
                }
            }
            Filler::Xavier => {
                let scale = (3.0 / fan_in as f64).sqrt();
                for x in blob.data_mut() {
                    *x = S::from_f64(rng.uniform_range(-scale, scale));
                }
            }
        }
    }
}

/// The parameters of a convolution or inner product: a weight of shape
/// `dims` filled by `filler` from `seed`, then a zero bias of one element
/// per output (`dims[0]`), in that order — the order of [`LR_MULTS`].
pub fn weight_and_bias<S: Scalar>(dims: &[usize], filler: Filler, seed: u64) -> Vec<Blob<S>> {
    let mut w = Blob::new(dims);
    filler.fill(&mut w, &mut Pcg32::seeded(seed));
    vec![w, Blob::new([dims[0]])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_scale_tracks_fan_in() {
        // fan_in = 500*1*1 for a (10, 500) blob -> bound sqrt(3/500) ~ 0.0775
        let mut b: Blob<f64> = Blob::new([10usize, 500]);
        Filler::Xavier.fill(&mut b, &mut Pcg32::seeded(3));
        let bound = (3.0f64 / 500.0).sqrt();
        assert!(b.data().iter().all(|&v| v.abs() <= bound));
        // Values should actually use the range, not collapse near zero.
        assert!(b.data().iter().any(|&v| v.abs() > bound * 0.5));
    }

    #[test]
    fn gaussian_moments() {
        let mut b: Blob<f64> = Blob::new([20000usize]);
        Filler::Gaussian { std: 0.1 }.fill(&mut b, &mut Pcg32::seeded(17));
        let mean = b.data().iter().sum::<f64>() / b.count() as f64;
        let var = b
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / b.count() as f64;
        assert!(mean.abs() < 0.01);
        assert!((var.sqrt() - 0.1).abs() < 0.01);
    }

    #[test]
    fn weight_and_bias_is_a_seeded_weight_and_a_zero_bias() {
        let p: Vec<Blob<f32>> = weight_and_bias(&[3, 2, 2, 2], Filler::Xavier, 5);
        assert_eq!(p.len(), LR_MULTS.len());
        assert_eq!(p[0].shape().dims(), &[3, 2, 2, 2]);
        let mut w: Blob<f32> = Blob::new([3usize, 2, 2, 2]);
        Filler::Xavier.fill(&mut w, &mut Pcg32::seeded(5));
        assert_eq!(p[0].data(), w.data());
        assert_eq!(p[1].shape().dims(), &[3]);
        assert_eq!(p[1].data(), &[0.0; 3]);
    }
}
