//! Learning-rate schedules — the two Caffe `lr_policy` values the paper's
//! solvers use.

/// Learning-rate policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    /// Constant `base_lr` — CIFAR-10's schedule.
    Fixed,
    /// `base_lr * (1 + gamma * iter)^(-power)` — LeNet's schedule.
    Inv {
        /// Growth rate inside the base.
        gamma: f64,
        /// Decay exponent.
        power: f64,
    },
}

impl LrPolicy {
    /// Learning rate at iteration `iter`.
    pub fn lr(&self, base_lr: f64, iter: u64) -> f64 {
        match *self {
            LrPolicy::Fixed => base_lr,
            LrPolicy::Inv { gamma, power } => base_lr * (1.0 + gamma * iter as f64).powf(-power),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        assert_eq!(LrPolicy::Fixed.lr(0.01, 0), 0.01);
        assert_eq!(LrPolicy::Fixed.lr(0.01, 1_000_000), 0.01);
    }

    #[test]
    fn inv_matches_lenet_formula() {
        let p = LrPolicy::Inv {
            gamma: 1e-4,
            power: 0.75,
        };
        assert_eq!(p.lr(0.01, 0), 0.01);
        let want = 0.01 * (1.0 + 1e-4 * 500.0f64).powf(-0.75);
        assert!((p.lr(0.01, 500) - want).abs() < 1e-15);
        // Monotone decreasing.
        assert!(p.lr(0.01, 1000) < p.lr(0.01, 500));
    }
}
