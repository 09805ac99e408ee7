//! Work-distribution introspection: per-thread work and the imbalance of a
//! worksharing loop.
//!
//! The paper identifies *work unbalance* as a limiting factor of the
//! coarse-grain parallelization (§4.3) and motivates loop coalescing with
//! it. [`analytic_distribution`] quantifies it for the static schedule;
//! callers build an [`ImbalanceReport`] from measured per-thread time too.

use crate::schedule::static_chunk;

/// Imbalance summary for one work distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Work units assigned to each thread.
    pub per_thread: Vec<usize>,
    /// Maximum over threads.
    pub max: usize,
    /// Minimum over threads.
    pub min: usize,
    /// Mean work per thread.
    pub mean: f64,
    /// `max / mean` — 1.0 is perfectly balanced; the parallel-region time is
    /// proportional to `max`, so this is the slowdown factor vs. ideal.
    pub imbalance_factor: f64,
}

impl ImbalanceReport {
    /// Build a report from per-thread work-unit counts.
    pub fn from_counts(per_thread: Vec<usize>) -> Self {
        assert!(!per_thread.is_empty(), "ImbalanceReport: no threads");
        let max = *per_thread.iter().max().unwrap();
        let min = *per_thread.iter().min().unwrap();
        let mean = per_thread.iter().sum::<usize>() as f64 / per_thread.len() as f64;
        let imbalance_factor = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        Self {
            per_thread,
            max,
            min,
            mean,
            imbalance_factor,
        }
    }
}

/// Per-thread work (in `units_per_iter` units) of a loop of `n_iters`
/// iterations on `nthreads` threads under the static schedule.
pub fn analytic_distribution(
    n_iters: usize,
    nthreads: usize,
    units_per_iter: usize,
) -> ImbalanceReport {
    ImbalanceReport::from_counts(
        (0..nthreads)
            .map(|t| static_chunk(t, nthreads, n_iters).len() * units_per_iter)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_loop_has_factor_one() {
        let r = analytic_distribution(64, 8, 1);
        assert_eq!(r.max, 8);
        assert_eq!(r.min, 8);
        assert!((r.imbalance_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncoalesced_batch_loop_is_unbalanced_on_12_threads() {
        // The paper's motivating case: 64 heavy iterations on 12 threads.
        let r = analytic_distribution(64, 12, 1000);
        assert_eq!(r.max, 6000);
        assert_eq!(r.min, 5000);
        assert!(r.imbalance_factor > 1.1);
        // Coalescing the same work into 64_000 light iterations fixes it.
        let c = analytic_distribution(64_000, 12, 1);
        assert!(c.imbalance_factor < 1.001);
    }

    #[test]
    fn report_from_counts() {
        let r = ImbalanceReport::from_counts(vec![4, 2]);
        assert_eq!(r.max, 4);
        assert_eq!(r.min, 2);
        assert!((r.mean - 3.0).abs() < 1e-12);
        assert!((r.imbalance_factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn empty_counts_panic() {
        let _ = ImbalanceReport::from_counts(vec![]);
    }
}
