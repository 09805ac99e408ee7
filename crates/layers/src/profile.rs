//! Analytic work profiles consumed by the `machine` execution-model
//! simulator.
//!
//! A [`PassProfile`] describes one layer pass as the simulator sees it: the
//! trip count of the coalesced parallel loop, the arithmetic and memory
//! work per iteration, any sequential section, and the size of the ordered
//! gradient reduction. The values are derived from the layer's real shapes,
//! not measured, so profiles are identical on any host.

/// Work model of a single (forward or backward) layer pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassProfile {
    /// Trip count of the coalesced parallel loop (0 = fully sequential pass).
    pub coalesced_iters: usize,
    /// Floating-point operations per loop iteration.
    pub flops_per_iter: f64,
    /// Bytes read per loop iteration (input blob traffic).
    pub bytes_in_per_iter: f64,
    /// Bytes written per loop iteration (output blob traffic).
    pub bytes_out_per_iter: f64,
    /// Work executed sequentially regardless of the team size, in flops
    /// (e.g. a loss layer's final sum).
    pub seq_flops: f64,
    /// Elements of privatized gradient merged per slot in the ordered
    /// reduction: the layer's parameter count on a backward pass, which
    /// `Net::profiles` fills in; 0 otherwise.
    pub reduction_elems: usize,
}

impl PassProfile {
    /// A pass with no work at all.
    pub fn empty() -> Self {
        Self {
            coalesced_iters: 0,
            flops_per_iter: 0.0,
            bytes_in_per_iter: 0.0,
            bytes_out_per_iter: 0.0,
            seq_flops: 0.0,
            reduction_elems: 0,
        }
    }

    /// Total parallel flops of the pass.
    pub fn parallel_flops(&self) -> f64 {
        self.coalesced_iters as f64 * self.flops_per_iter
    }

    /// Total flops (parallel + sequential).
    pub fn total_flops(&self) -> f64 {
        self.parallel_flops() + self.seq_flops
    }

    /// Total bytes moved by the parallel loop.
    pub fn total_bytes(&self) -> f64 {
        self.coalesced_iters as f64 * (self.bytes_in_per_iter + self.bytes_out_per_iter)
    }
}

/// Forward + backward work model of a layer, plus identification (the
/// locality model reads its distribution signature off `layer_type`). A
/// layer states its two passes (`Layer::profile`); `Net::profiles` adds the
/// rest.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer instance name (e.g. `"conv1"`).
    pub name: String,
    /// Layer type string (e.g. `"Convolution"`).
    pub layer_type: String,
    /// Forward-pass work.
    pub forward: PassProfile,
    /// Backward-pass work.
    pub backward: PassProfile,
    /// Number of samples in the batch (the outermost coalesced dimension).
    pub batch: usize,
}

impl LayerProfile {
    /// Profile of a layer with (almost) no work — placeholder and tests.
    pub fn trivial(name: &str, layer_type: &str) -> Self {
        Self {
            name: name.to_string(),
            layer_type: layer_type.to_string(),
            forward: PassProfile::empty(),
            backward: PassProfile::empty(),
            batch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let p = PassProfile {
            coalesced_iters: 10,
            flops_per_iter: 100.0,
            bytes_in_per_iter: 8.0,
            bytes_out_per_iter: 4.0,
            seq_flops: 50.0,
            reduction_elems: 7,
        };
        assert_eq!(p.parallel_flops(), 1000.0);
        assert_eq!(p.total_flops(), 1050.0);
        assert_eq!(p.total_bytes(), 120.0);
    }

    #[test]
    fn empty_pass() {
        let p = PassProfile::empty();
        assert_eq!(p.total_flops(), 0.0);
        assert_eq!(p.total_bytes(), 0.0);
    }
}
