//! Memory accounting for the paper's §3.2.1 privatization-overhead claim
//! (experiment E7).
//!
//! The paper reports that the batch-level parallelization adds only the
//! per-thread privatized storage of the largest layer — ≤640 KB (MNIST) and
//! ≤1250 KB (CIFAR-10) at 16 threads, about 5% of the sequential footprint
//! (8 MB / 36 MB).

use crate::Net;
use mmblas::Scalar;

/// Byte-level memory breakdown of a configured network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryReport {
    /// Intermediate blob storage (data + diff), the sequential baseline.
    pub blob_bytes: usize,
    /// Learnable parameter storage (data + diff).
    pub param_bytes: usize,
    /// Extra bytes added by parallelization: privatized gradient slots plus
    /// the additional per-thread column buffers.
    pub parallel_overhead_bytes: usize,
    /// Threads the workspace is sized for.
    pub threads: usize,
    /// Reduction slots the workspace is sized for.
    pub slots: usize,
    /// Bytes of one slot: the largest gradient a layer privatizes.
    pub slot_bytes: usize,
}

impl MemoryReport {
    pub(crate) fn compute<S: Scalar>(net: &Net<S>) -> Self {
        let ws = net.workspace_ref();
        Self {
            blob_bytes: net.blobs_bytes(),
            param_bytes: net.params_bytes(),
            parallel_overhead_bytes: ws.overhead_bytes(),
            threads: ws.n_threads(),
            slots: ws.n_slots(),
            slot_bytes: ws.request().grad_len * std::mem::size_of::<S>(),
        }
    }

    /// Sequential-execution footprint (blobs + params + one column buffer).
    pub fn sequential_bytes(&self) -> usize {
        self.blob_bytes + self.param_bytes
    }

    /// Overhead as a percentage of the sequential footprint.
    pub fn overhead_percent(&self) -> f64 {
        if self.sequential_bytes() == 0 {
            return 0.0;
        }
        100.0 * self.parallel_overhead_bytes as f64 / self.sequential_bytes() as f64
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "blobs: {:.1} KB, params: {:.1} KB, sequential total: {:.1} KB",
            self.blob_bytes as f64 / 1024.0,
            self.param_bytes as f64 / 1024.0,
            self.sequential_bytes() as f64 / 1024.0
        )?;
        write!(
            f,
            "parallel overhead ({} threads, {} slots of {:.1} KB): {:.1} KB ({:.2}%)",
            self.threads,
            self.slots,
            self.slot_bytes as f64 / 1024.0,
            self.parallel_overhead_bytes as f64 / 1024.0,
            self.overhead_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_math() {
        let r = MemoryReport {
            blob_bytes: 900,
            param_bytes: 100,
            parallel_overhead_bytes: 50,
            threads: 4,
            slots: 4,
            slot_bytes: 10,
        };
        assert_eq!(r.sequential_bytes(), 1000);
        assert!((r.overhead_percent() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero_percent() {
        let r = MemoryReport {
            blob_bytes: 0,
            param_bytes: 0,
            parallel_overhead_bytes: 0,
            threads: 1,
            slots: 1,
            slot_bytes: 0,
        };
        assert_eq!(r.overhead_percent(), 0.0);
    }

    #[test]
    fn display_contains_key_figures() {
        let r = MemoryReport {
            blob_bytes: 2048,
            param_bytes: 1024,
            parallel_overhead_bytes: 512,
            threads: 16,
            slots: 16,
            slot_bytes: 16,
        };
        let s = r.to_string();
        assert!(s.contains("16 threads"));
        assert!(s.contains("0.5 KB"));
    }
}
