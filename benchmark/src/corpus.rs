//! The two evaluation networks as the benchmark sees them: layer names in
//! execution order and the exact BLAS / lowering shapes every
//! convolution and inner-product layer issues per sample.
//!
//! The tables are static so metric names exist without building a net;
//! `tests::corpus_matches_the_built_nets` cross-checks them against the
//! layer names and the analytic flop counts of `Net::profiles()`.

use mmblas::Conv2dGeometry;

/// One of the paper's two networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    Lenet,
    Cifar,
}

impl NetKind {
    pub const ALL: [NetKind; 2] = [NetKind::Lenet, NetKind::Cifar];

    /// Short name used inside metric names.
    pub fn tag(self) -> &'static str {
        match self {
            NetKind::Lenet => "lenet",
            NetKind::Cifar => "cifar",
        }
    }

    /// Batch size of the spec's data layer.
    pub const fn batch(self) -> usize {
        match self {
            NetKind::Lenet => 64,
            NetKind::Cifar => 100,
        }
    }

    /// Layer names in execution order; the first is the data layer.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            NetKind::Lenet => &[
                "mnist", "conv1", "pool1", "conv2", "pool2", "ip1", "relu1", "ip2", "loss",
            ],
            NetKind::Cifar => &[
                "cifar", "conv1", "pool1", "relu1", "norm1", "conv2", "relu2", "pool2", "norm2",
                "conv3", "relu3", "pool3", "ip1", "loss",
            ],
        }
    }

    /// GEMM-backed layers of this net.
    pub fn gemm_layers(self) -> &'static [GemmLayer] {
        match self {
            NetKind::Lenet => &LENET_GEMM,
            NetKind::Cifar => &CIFAR_GEMM,
        }
    }
}

/// What a GEMM-backed layer computes per sample.
#[derive(Debug, Clone, Copy)]
pub enum LayerOp {
    /// `im2col` + `gemm` (forward), `gemm` + `gemm` + `col2im` (backward).
    Conv {
        channels: usize,
        size: usize,
        kernel: usize,
        pad: usize,
    },
    /// `gemv` (forward), `ger` + transposed `gemv` (backward) over a
    /// `num_output x k` weight matrix.
    InnerProduct { k: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct GemmLayer {
    pub name: &'static str,
    pub num_output: usize,
    pub op: LayerOp,
    /// Whether the layer computes a bottom diff (false directly above the
    /// data layer, where Caffe skips it too).
    pub propagates: bool,
}

impl GemmLayer {
    /// The convolution geometry, if this is a convolution (stride 1 in
    /// both nets).
    pub fn geometry(&self) -> Option<Conv2dGeometry> {
        match self.op {
            LayerOp::Conv {
                channels,
                size,
                kernel,
                pad,
            } => Some(Conv2dGeometry::square(channels, size, kernel, pad, 1)),
            LayerOp::InnerProduct { .. } => None,
        }
    }

    /// Passes that issue a BLAS call, in metric order.
    pub fn passes(&self) -> &'static [Pass] {
        if self.propagates {
            &[Pass::Fwd, Pass::BwdW, Pass::BwdX]
        } else {
            &[Pass::Fwd, Pass::BwdW]
        }
    }

    /// Multiply-add flops (`2·m·n·k`) of one per-sample BLAS call; the
    /// same for all three passes of a layer.
    pub fn blas_flops(&self) -> f64 {
        let m = self.num_output as f64;
        match self.geometry() {
            Some(g) => 2.0 * m * g.col_rows() as f64 * g.col_cols() as f64,
            None => match self.op {
                LayerOp::InnerProduct { k } => 2.0 * m * k as f64,
                LayerOp::Conv { .. } => unreachable!("convolutions have a geometry"),
            },
        }
    }
}

/// The three BLAS-issuing passes of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Fwd,
    BwdW,
    BwdX,
}

impl Pass {
    pub fn tag(self) -> &'static str {
        match self {
            Pass::Fwd => "fwd",
            Pass::BwdW => "bwd_w",
            Pass::BwdX => "bwd_x",
        }
    }
}

const fn conv(
    name: &'static str,
    num_output: usize,
    channels: usize,
    size: usize,
    pad: usize,
    propagates: bool,
) -> GemmLayer {
    GemmLayer {
        name,
        num_output,
        op: LayerOp::Conv {
            channels,
            size,
            kernel: 5,
            pad,
        },
        propagates,
    }
}

const fn ip(name: &'static str, num_output: usize, k: usize) -> GemmLayer {
    GemmLayer {
        name,
        num_output,
        op: LayerOp::InnerProduct { k },
        propagates: true,
    }
}

const LENET_GEMM: [GemmLayer; 4] = [
    conv("conv1", 20, 1, 28, 0, false),
    conv("conv2", 50, 20, 12, 0, true),
    ip("ip1", 500, 800),
    ip("ip2", 10, 500),
];

const CIFAR_GEMM: [GemmLayer; 4] = [
    conv("conv1", 32, 3, 32, 2, false),
    conv("conv2", 32, 32, 16, 2, true),
    conv("conv3", 64, 32, 8, 2, true),
    ip("ip1", 10, 1024),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::build_net;

    #[test]
    fn corpus_matches_the_built_nets() {
        for kind in NetKind::ALL {
            let net = build_net(kind, 1);
            assert_eq!(net.layer_names(), kind.layers(), "{kind:?} layer names");
            let profiles = net.profiles();
            for layer in kind.gemm_layers() {
                let p = profiles
                    .iter()
                    .find(|p| p.name == layer.name)
                    .unwrap_or_else(|| panic!("{kind:?} has no layer {}", layer.name));
                assert_eq!(p.batch, kind.batch());
                // Both layer types charge one bias add per output element
                // on top of the BLAS call.
                let bias = match layer.geometry() {
                    Some(g) => (layer.num_output * g.col_cols()) as f64,
                    None => layer.num_output as f64,
                };
                assert_eq!(
                    p.forward.flops_per_iter,
                    layer.blas_flops() + bias,
                    "{kind:?} {} forward flops",
                    layer.name
                );
            }
        }
    }
}
