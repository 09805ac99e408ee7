//! Measured observability reporting: per-layer pass timing in the paper's
//! Table-2 layout, and measured vs. analytic per-thread imbalance.
//!
//! The paper's evaluation (§5, Table 2) reports per-layer forward and
//! backward times and each layer's share of the iteration; this module
//! renders the same table from *measured* wall-clock data accumulated by
//! [`crate::CoarseGrainTrainer`] during a `--profile` run, and places a
//! measured per-thread imbalance factor (derived from the `omprt` region
//! spans in the trace buffers) next to the analytic
//! [`omprt::ImbalanceReport`] computed from the same static
//! schedule the runtime uses — a direct model-vs-reality comparison.

use layers::profile::LayerProfile;
use omprt::{static_chunk, ImbalanceReport};
use std::fmt::Write as _;

/// Accumulated per-layer forward/backward wall-clock time over a number of
/// training iterations.
#[derive(Debug, Clone)]
pub struct LayerTimeProfile {
    names: Vec<String>,
    fwd_secs: Vec<f64>,
    bwd_secs: Vec<f64>,
    iterations: u64,
}

impl LayerTimeProfile {
    /// An empty profile over the given layer names.
    pub fn new(names: Vec<String>) -> Self {
        let n = names.len();
        Self {
            names,
            fwd_secs: vec![0.0; n],
            bwd_secs: vec![0.0; n],
            iterations: 0,
        }
    }

    /// Fold in one iteration's per-layer times (from
    /// [`net::Net::last_forward_seconds`] / `last_backward_seconds`).
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with the layer count.
    pub fn accumulate(&mut self, fwd: &[f64], bwd: &[f64]) {
        assert_eq!(fwd.len(), self.names.len(), "forward times per layer");
        assert_eq!(bwd.len(), self.names.len(), "backward times per layer");
        for (acc, v) in self.fwd_secs.iter_mut().zip(fwd) {
            *acc += v;
        }
        for (acc, v) in self.bwd_secs.iter_mut().zip(bwd) {
            *acc += v;
        }
        self.iterations += 1;
    }

    /// Iterations accumulated so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Layer names, in execution order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Total accumulated time across all layers and passes, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.fwd_secs.iter().sum::<f64>() + self.bwd_secs.iter().sum::<f64>()
    }

    /// Mean per-iteration `(fwd_ms, bwd_ms, pct_of_total)` for layer `i`.
    fn row(&self, i: usize) -> (f64, f64, f64) {
        let iters = self.iterations.max(1) as f64;
        let fwd_ms = self.fwd_secs[i] / iters * 1e3;
        let bwd_ms = self.bwd_secs[i] / iters * 1e3;
        let total = self.total_secs();
        let pct = if total > 0.0 {
            (self.fwd_secs[i] + self.bwd_secs[i]) / total * 100.0
        } else {
            0.0
        };
        (fwd_ms, bwd_ms, pct)
    }

    /// Render the measured per-layer table in the paper's Table-2 layout:
    /// one row per layer with mean forward time, mean backward time, and
    /// the layer's share of total iteration time.
    pub fn table(&self) -> String {
        let name_w = self.names.iter().map(|n| n.len()).max().unwrap_or(5).max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "measured per-layer time over {} iteration(s) (mean ms/iter)",
            self.iterations
        );
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>7}",
            "layer", "fwd ms", "bwd ms", "total ms", "% total"
        );
        let mut fwd_ms_sum = 0.0;
        let mut bwd_ms_sum = 0.0;
        for i in 0..self.names.len() {
            let (f, b, pct) = self.row(i);
            fwd_ms_sum += f;
            bwd_ms_sum += b;
            let _ = writeln!(
                out,
                "{:name_w$}  {:>10.3}  {:>10.3}  {:>10.3}  {:>7.2}",
                self.names[i],
                f,
                b,
                f + b,
                pct
            );
        }
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10.3}  {:>10.3}  {:>10.3}  {:>7.2}",
            "total",
            fwd_ms_sum,
            bwd_ms_sum,
            fwd_ms_sum + bwd_ms_sum,
            100.0
        );
        out
    }

    /// The same data as [`LayerTimeProfile::table`] in CSV:
    /// `layer,fwd_ms,bwd_ms,total_ms,pct_total`.
    pub fn csv(&self) -> String {
        let mut out = String::from("layer,fwd_ms,bwd_ms,total_ms,pct_total\n");
        for i in 0..self.names.len() {
            let (f, b, pct) = self.row(i);
            let _ = writeln!(out, "{},{f:.6},{b:.6},{:.6},{pct:.3}", self.names[i], f + b);
        }
        out
    }
}

/// Measured per-thread busy time from trace events: sums the duration of
/// every `omprt`-category `region` span per thread id and builds an
/// [`ImbalanceReport`] over microseconds. Returns `None` when the trace
/// holds no region spans (tracing was off, or the run was size-1 inline
/// with no recorded regions).
pub fn measured_imbalance(events: &[obs::Event]) -> Option<ImbalanceReport> {
    let mut per_tid: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for e in events {
        if e.cat == "omprt" && e.name == "region" {
            *per_tid.entry(e.tid).or_default() += e.dur_us;
        }
    }
    if per_tid.is_empty() {
        return None;
    }
    Some(ImbalanceReport::from_counts(
        per_tid.values().map(|us| us.round() as usize).collect(),
    ))
}

/// Analytic per-thread work (flops) for one training iteration under the
/// runtime's static schedule: every layer pass contributes
/// `static_chunk(t, threads, coalesced_iters).len() × flops_per_iter` to
/// thread `t`, and sequential work (`seq_flops`) lands on thread 0 — the
/// same distribution the `machine` simulator assumes.
pub fn analytic_imbalance(profiles: &[LayerProfile], threads: usize) -> ImbalanceReport {
    assert!(threads >= 1, "analytic_imbalance: need at least one thread");
    let mut per_thread = vec![0.0f64; threads];
    for p in profiles {
        for pass in [&p.forward, &p.backward] {
            for (t, acc) in per_thread.iter_mut().enumerate() {
                *acc += static_chunk(t, threads, pass.coalesced_iters).len() as f64
                    * pass.flops_per_iter;
            }
            per_thread[0] += pass.seq_flops;
        }
    }
    ImbalanceReport::from_counts(per_thread.iter().map(|f| f.round() as usize).collect())
}

/// Render the measured-vs-analytic imbalance comparison block printed by
/// `cgdnn train --profile`.
pub fn imbalance_comparison(
    measured: Option<&ImbalanceReport>,
    analytic: &ImbalanceReport,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "imbalance factor (max/mean of per-thread work; 1.0 = perfectly balanced)"
    );
    let _ = writeln!(
        out,
        "  analytic (static schedule, flops): {:.4}  per-thread {:?}",
        analytic.imbalance_factor, analytic.per_thread
    );
    match measured {
        Some(m) => {
            let _ = writeln!(
                out,
                "  measured (omprt region spans, us): {:.4}  per-thread {:?}",
                m.imbalance_factor, m.per_thread
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  measured: n/a (no omprt region spans — run with --trace to collect them)"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::profile::PassProfile;
    use std::borrow::Cow;

    fn profile_with(names: &[&str]) -> LayerTimeProfile {
        LayerTimeProfile::new(names.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn table_and_csv_reflect_accumulated_means() {
        let mut p = profile_with(&["data", "conv1", "loss"]);
        p.accumulate(&[0.001, 0.004, 0.001], &[0.0, 0.008, 0.002]);
        p.accumulate(&[0.001, 0.004, 0.001], &[0.0, 0.008, 0.002]);
        assert_eq!(p.iterations(), 2);
        let table = p.table();
        assert!(table.contains("conv1"), "{table}");
        // conv1: mean 4 ms fwd, 8 ms bwd, 12/16 = 75% of total.
        assert!(table.contains("4.000"), "{table}");
        assert!(table.contains("8.000"), "{table}");
        assert!(table.contains("75.00"), "{table}");
        let csv = p.csv();
        assert!(csv.starts_with("layer,fwd_ms,bwd_ms,total_ms,pct_total\n"));
        assert!(csv.contains("conv1,4.000000,8.000000,12.000000,75.000\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn empty_profile_renders_without_dividing_by_zero() {
        let p = profile_with(&["only"]);
        let t = p.table();
        assert!(t.contains("0 iteration(s)"));
        assert!(t.contains("0.00"));
    }

    #[test]
    #[should_panic(expected = "forward times per layer")]
    fn accumulate_checks_lengths() {
        let mut p = profile_with(&["a", "b"]);
        p.accumulate(&[0.1], &[0.1]);
    }

    #[test]
    fn measured_imbalance_sums_region_spans_per_tid() {
        let mk = |tid, name: &'static str, cat: &'static str, dur| obs::Event {
            name: Cow::Borrowed(name),
            cat,
            ts_us: 0.0,
            dur_us: dur,
            tid,
            pid: 1,
        };
        let events = vec![
            mk(0, "region", "omprt", 100.0),
            mk(0, "region", "omprt", 100.0),
            mk(1, "region", "omprt", 100.0),
            mk(1, "barrier_wait", "omprt", 999.0), // not a region: ignored
            mk(0, "region", "driver", 999.0),      // wrong cat: ignored
        ];
        let r = measured_imbalance(&events).unwrap();
        assert_eq!(r.per_thread, vec![200, 100]);
        assert!((r.imbalance_factor - 200.0 / 150.0).abs() < 1e-12);
        assert!(measured_imbalance(&[]).is_none());
    }

    #[test]
    fn analytic_imbalance_splits_parallel_and_pins_sequential() {
        let mut p = LayerProfile::trivial("l", "Test");
        p.forward = PassProfile {
            coalesced_iters: 3,
            flops_per_iter: 10.0,
            seq_flops: 5.0,
            ..PassProfile::empty()
        };
        // 3 iters on 2 threads static: thread 0 gets 2, thread 1 gets 1;
        // seq_flops goes to thread 0.
        let r = analytic_imbalance(&[p], 2);
        assert_eq!(r.per_thread, vec![25, 10]);
        let one = analytic_imbalance(&[LayerProfile::trivial("z", "T")], 1);
        assert_eq!(one.per_thread, vec![0]);
    }

    #[test]
    fn comparison_renders_both_branches() {
        let analytic = ImbalanceReport::from_counts(vec![10, 10]);
        let with =
            imbalance_comparison(Some(&ImbalanceReport::from_counts(vec![12, 8])), &analytic);
        assert!(with.contains("analytic"));
        assert!(with.contains("measured (omprt region spans"));
        let without = imbalance_comparison(None, &analytic);
        assert!(without.contains("n/a"));
    }
}
