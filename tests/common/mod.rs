//! Shared helpers for the integration tests: a scaled-down convolutional
//! network (same layer types as LeNet, smaller shapes) so debug-build test
//! runs stay fast.

// Each test binary compiles its own copy of this module and none uses every
// helper, so per-binary dead-code analysis is noise here.
#![allow(dead_code)]

use cgdnn::prelude::*;

/// A miniature LeNet: batch 8, 1x12x12 inputs, conv-pool-conv-pool-ip-loss.
pub const TINY_SPEC: &str = r#"
name: tiny_lenet
layer {
  name: data
  type: Data
  batch: 8
  top: data
  top: label
}
layer {
  name: conv1
  type: Convolution
  bottom: data
  top: conv1
  num_output: 4
  kernel: 3
  seed: 31
}
layer {
  name: pool1
  type: Pooling
  bottom: conv1
  top: pool1
  method: MAX
  kernel: 2
  stride: 2
}
layer {
  name: conv2
  type: Convolution
  bottom: pool1
  top: conv2
  num_output: 6
  kernel: 3
  seed: 32
}
layer {
  name: pool2
  type: Pooling
  bottom: conv2
  top: pool2
  method: AVE
  kernel: 3
  stride: 2
}
layer {
  name: ip1
  type: InnerProduct
  bottom: pool2
  top: ip1
  num_output: 24
  seed: 33
}
layer {
  name: relu1
  type: ReLU
  bottom: ip1
  top: relu1
}
layer {
  name: ip2
  type: InnerProduct
  bottom: relu1
  top: ip2
  num_output: 10
  seed: 34
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip2
  bottom: label
  top: loss
}
"#;

/// 12x12 single-channel deterministic source with class-dependent pattern.
pub struct TinySource {
    pub n: usize,
    pub seed: u64,
}

impl BatchSource<f32> for TinySource {
    fn num_samples(&self) -> usize {
        self.n
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([1usize, 12, 12])
    }

    fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
        let mut rng = mmblas::Pcg32::new(self.seed, index as u64);
        let label = rng.uniform_u32(10) as usize;
        // Strongly separable classes: a label-dependent brightness level, a
        // label-dependent oriented stripe, and mild noise.
        let base = 0.1 + 0.08 * label as f64;
        for (i, v) in out.iter_mut().enumerate() {
            let y = i / 12;
            let x = i % 12;
            let phase = (x as f64 * (label as f64 + 1.0) * 0.35 + y as f64 * 0.2).sin();
            *v = (base + 0.3 * phase + 0.03 * rng.normal()) as f32;
        }
        label as f32
    }
}

/// Build the tiny network over a fresh deterministic source.
pub fn tiny_net(seed: u64) -> Net<f32> {
    let spec = NetSpec::parse(TINY_SPEC).expect("tiny spec parses");
    Net::from_spec(&spec, Some(Box::new(TinySource { n: 64, seed }))).expect("tiny net builds")
}

/// `f64` twin of [`TinySource`] (same pattern, full precision).
pub struct TinySource64 {
    pub n: usize,
    pub seed: u64,
}

impl BatchSource<f64> for TinySource64 {
    fn num_samples(&self) -> usize {
        self.n
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([1usize, 12, 12])
    }

    fn fill(&self, index: usize, out: &mut [f64]) -> f64 {
        let mut rng = mmblas::Pcg32::new(self.seed, index as u64);
        let label = rng.uniform_u32(10) as usize;
        let base = 0.1 + 0.08 * label as f64;
        for (i, v) in out.iter_mut().enumerate() {
            let y = i / 12;
            let x = i % 12;
            let phase = (x as f64 * (label as f64 + 1.0) * 0.35 + y as f64 * 0.2).sin();
            *v = base + 0.3 * phase + 0.03 * rng.normal();
        }
        label as f64
    }
}

/// Build the tiny network in `f64` over a fresh deterministic source.
pub fn tiny_net_f64(seed: u64) -> Net<f64> {
    let spec = NetSpec::parse(TINY_SPEC).expect("tiny spec parses");
    Net::from_spec(&spec, Some(Box::new(TinySource64 { n: 64, seed }))).expect("tiny net builds")
}

/// Argmax hits over the net's current batch: how many samples' highest
/// entry in blob `scores` is their `label`, out of how many samples.
pub fn argmax_hits(net: &Net<f32>, scores: &str) -> (usize, usize) {
    let scores = net.blob(scores).expect("score blob");
    let labels = net.blob("label").expect("label blob");
    let hits = (0..scores.num())
        .filter(|&s| {
            let pred = scores
                .sample_data(s)
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                .unwrap()
                .0;
            pred == labels.data()[s] as usize
        })
        .count();
    (hits, scores.num())
}
