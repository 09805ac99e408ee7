//! `obs` — unified runtime observability for the coarse-grain DNN stack.
//!
//! The paper's whole evaluation (§5, Tables 2–4) is *measured* per-layer
//! timing under the coarse-grain OpenMP scheme; this crate is what lets the
//! reproduction measure itself instead of relying solely on the `machine`
//! analytic simulator. Two pieces, shared by training and serving:
//!
//! * [`registry`] — a lock-cheap metrics [`Registry`] of named counters,
//!   gauges, and fixed-bucket histograms. Handles are `Arc`-backed; every
//!   update is a handful of atomic operations (no locks, no allocation).
//!   [`Histogram`] is the one distribution metric: storage is fixed at
//!   registration, count, sum and extrema are exact, quantiles interpolate
//!   inside a bucket, and its snapshot delta subtracts, so per-rank folds
//!   add up. One process-wide instance lives behind [`registry::global`];
//!   the trainer, the checkpoint writer, and the serving tier all publish
//!   into it, and [`Registry::csv`] exposes everything as `metric,value`
//!   rows.
//! * [`trace`] — span-based tracing. Instrumented sites (omprt parallel
//!   regions, barrier waits, per-layer fwd/bwd passes, checkpoint I/O)
//!   record [`trace::Event`]s into thread-local buffers, flushed on demand
//!   to a Chrome `trace_event` JSON file that loads in `chrome://tracing`
//!   or Perfetto. Collection is gated by one global flag: when disabled
//!   every site is a single relaxed atomic load and an untaken branch — no
//!   allocation, no lock, no clock read — so the training hot path and its
//!   convergence guarantees are untouched.
//!
//! ```
//! use obs::registry::Registry;
//!
//! let reg = Registry::new();
//! let iters = reg.counter("train.iterations");
//! iters.inc();
//! let h = reg.histogram("step_seconds", &obs::registry::DURATION_BOUNDS_SECS);
//! h.observe(0.012);
//! assert!(reg.csv().contains("train.iterations,1\n"));
//!
//! obs::trace::set_enabled(true);
//! {
//!     let _span = obs::trace::span("region", "omprt");
//! }
//! obs::trace::set_enabled(false);
//! let events = obs::trace::take_events();
//! assert_eq!(events[0].name, "region");
//! ```

pub mod json;
pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
pub use trace::{Event, Span};

use std::time::{SystemTime, UNIX_EPOCH};

/// Structured log-line prefix correlating an event with both the training
/// iteration counter and wall-clock time (checkpoint files carry mtimes, so
/// post-mortems can line the two up): `ts=<unix_secs>.<millis> iter=<n>`.
///
/// Used by the divergence-guard `training.log` and the observability log
/// lines of the `cgdnn` binary; the format is documented in `DESIGN.md`.
pub fn logstamp(iteration: u64) -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    format!(
        "ts={}.{:03} iter={iteration}",
        now.as_secs(),
        now.subsec_millis()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logstamp_format() {
        let s = logstamp(42);
        let mut parts = s.split(' ');
        let ts = parts.next().unwrap();
        let iter = parts.next().unwrap();
        assert!(parts.next().is_none());
        let secs = ts.strip_prefix("ts=").unwrap();
        let (whole, frac) = secs.split_once('.').unwrap();
        assert!(whole.parse::<u64>().unwrap() > 1_600_000_000);
        assert_eq!(frac.len(), 3);
        frac.parse::<u32>().unwrap();
        assert_eq!(iter, "iter=42");
    }
}
