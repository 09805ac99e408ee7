//! The paper's two evaluation networks, embedded as specs.

use layers::data::BatchSource;
use mmblas::Scalar;
use net::{Net, NetSpec, SpecError};

/// Text of the LeNet/MNIST spec (paper Figure 3, top).
pub const LENET_SPEC: &str = include_str!("../../../specs/lenet.prototxt");

/// Text of the CIFAR-10 full spec (paper Figure 3, bottom).
pub const CIFAR10_FULL_SPEC: &str = include_str!("../../../specs/cifar10_full.prototxt");

/// Parse the LeNet spec.
pub fn lenet_spec() -> NetSpec {
    NetSpec::parse(LENET_SPEC).expect("embedded LeNet spec is valid")
}

/// Parse the CIFAR-10 full spec.
pub fn cifar10_full_spec() -> NetSpec {
    NetSpec::parse(CIFAR10_FULL_SPEC).expect("embedded CIFAR spec is valid")
}

/// Text of the CIFAR-10 quick spec (Caffe's smaller CIFAR example; not one
/// of the paper's evaluation networks).
pub const CIFAR10_QUICK_SPEC: &str = include_str!("../../../specs/cifar10_quick.prototxt");

/// Parse the CIFAR-10 quick spec.
pub fn cifar10_quick_spec() -> NetSpec {
    NetSpec::parse(CIFAR10_QUICK_SPEC).expect("embedded CIFAR quick spec is valid")
}

/// Build the CIFAR-10 quick network over the given data source.
pub fn cifar10_quick<S: Scalar>(source: Box<dyn BatchSource<S>>) -> Result<Net<S>, SpecError> {
    Net::from_spec(&cifar10_quick_spec(), Some(source))
}

/// Build the LeNet/MNIST network over the given data source (batch 64,
/// `1x28x28` samples).
pub fn lenet<S: Scalar>(source: Box<dyn BatchSource<S>>) -> Result<Net<S>, SpecError> {
    Net::from_spec(&lenet_spec(), Some(source))
}

/// Build the CIFAR-10 full network over the given data source (batch 100,
/// `3x32x32` samples).
pub fn cifar10_full<S: Scalar>(source: Box<dyn BatchSource<S>>) -> Result<Net<S>, SpecError> {
    Net::from_spec(&cifar10_full_spec(), Some(source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{SyntheticCifar, SyntheticMnist};

    #[test]
    fn lenet_builds_with_expected_layers() {
        let net = lenet::<f32>(Box::new(SyntheticMnist::new(128, 0))).unwrap();
        assert_eq!(net.num_layers(), 9);
        assert_eq!(
            net.layer_names(),
            vec!["mnist", "conv1", "pool1", "conv2", "pool2", "ip1", "relu1", "ip2", "loss"]
        );
        // Shapes down the stack (Caffe's well-known LeNet dimensions).
        assert_eq!(net.blob("conv1").unwrap().shape().dims(), &[64, 20, 24, 24]);
        assert_eq!(net.blob("pool1").unwrap().shape().dims(), &[64, 20, 12, 12]);
        assert_eq!(net.blob("conv2").unwrap().shape().dims(), &[64, 50, 8, 8]);
        assert_eq!(net.blob("pool2").unwrap().shape().dims(), &[64, 50, 4, 4]);
        assert_eq!(net.blob("ip1").unwrap().shape().dims(), &[64, 500]);
        assert_eq!(net.blob("ip2").unwrap().shape().dims(), &[64, 10]);
    }

    /// The inner products privatize nothing, so LeNet's slot is conv2's
    /// gradient (50 x 20 x 5 x 5 weights + 50 biases), not ip1's 400 K.
    #[test]
    fn lenet_slot_holds_conv2s_gradient() {
        let mut net = lenet::<f32>(Box::new(SyntheticMnist::new(128, 0))).unwrap();
        net.ensure_workspace(16, layers::ReductionMode::Ordered);
        let report = net.memory_report();
        assert_eq!(report.slots, 16);
        assert_eq!(report.slot_bytes, 25_050 * 4);
    }

    #[test]
    fn cifar_quick_builds() {
        let net = cifar10_quick::<f32>(Box::new(SyntheticCifar::new(200, 0))).unwrap();
        assert_eq!(net.num_layers(), 13);
        assert_eq!(net.blob("pool3").unwrap().shape().dims(), &[100, 64, 4, 4]);
        assert_eq!(net.blob("ip1").unwrap().shape().dims(), &[100, 64]);
        assert_eq!(net.blob("ip2").unwrap().shape().dims(), &[100, 10]);
    }

    #[test]
    fn cifar_builds_with_expected_layers() {
        let net = cifar10_full::<f32>(Box::new(SyntheticCifar::new(200, 0))).unwrap();
        // 14 layers, as the paper's Figure 3 caption counts them.
        assert_eq!(net.num_layers(), 14);
        assert_eq!(
            net.blob("conv1").unwrap().shape().dims(),
            &[100, 32, 32, 32]
        );
        assert_eq!(
            net.blob("pool1").unwrap().shape().dims(),
            &[100, 32, 16, 16]
        );
        assert_eq!(
            net.blob("conv2").unwrap().shape().dims(),
            &[100, 32, 16, 16]
        );
        assert_eq!(net.blob("pool2").unwrap().shape().dims(), &[100, 32, 8, 8]);
        assert_eq!(net.blob("conv3").unwrap().shape().dims(), &[100, 64, 8, 8]);
        assert_eq!(net.blob("pool3").unwrap().shape().dims(), &[100, 64, 4, 4]);
        assert_eq!(net.blob("ip1").unwrap().shape().dims(), &[100, 10]);
    }
}
