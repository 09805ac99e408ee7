//! The traced run's span store is `obs::trace` itself: the harness records
//! its own spans (`step`, `req`, …) around the calls into each crate with
//! `obs::trace::record`, next to the spans the crates already emit, so one
//! Chrome trace holds both and parent/child follows from containment on a
//! thread. Spans stay in memory until the window closes.

use crate::schema::{Metrics, Workload};
use crate::stats;
use obs::Event;
use std::io::Write;
use std::time::Instant;

/// Category of the spans the harness itself records.
pub const HARNESS_CAT: &str = "bench";

/// Everything recorded while a closure ran with tracing on.
pub struct Traced {
    pub events: Vec<Event>,
}

/// Run `f` with span collection on and return what was recorded.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Traced) {
    // Leftovers from untraced phases (there should be none) must not leak
    // into this window's totals.
    obs::trace::take_events();
    obs::trace::set_enabled(true);
    let result = f();
    obs::trace::set_enabled(false);
    let events = obs::trace::take_events();
    (result, Traced { events })
}

/// Record one harness span that started at `start` and ends now.
pub fn harness_span(name: &'static str, start: Instant) {
    obs::trace::record(name, HARNESS_CAT, start, start.elapsed());
}

impl Traced {
    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us)
            .collect()
    }

    /// Total duration (µs) of every span called `name`, over all threads.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// For the workload a traced run focuses on: what tracing cost it, from
    /// the latencies of its traced window and of the untraced window before
    /// it, and its Chrome trace. The two windows are compared at their
    /// fast tenth — the ops no neighbour on this shared box disturbed —
    /// because at the median the neighbours outweigh the tracing tenfold.
    pub fn report_focus(
        &self,
        workload: Workload,
        traced_ms: &[f64],
        untraced_ms: &[f64],
        m: &mut Metrics,
    ) -> Result<(), String> {
        let fast = |v: &[f64]| stats::percentile(v, 0.10);
        m.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * (fast(traced_ms) / fast(untraced_ms) - 1.0),
        );
        m.insert(
            "obs.trace_events_per_op".into(),
            self.events.len() as f64 / traced_ms.len() as f64,
        );
        self.write_chrome(workload.name())
    }

    /// Write the window as a Chrome trace under `benchmark/out/`, then
    /// read it back through the repository's own validator so an
    /// unloadable file fails the run instead of surprising a reader.
    fn write_chrome(&self, workload: &str) -> Result<(), String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/{workload}.trace.json");
        let mut buf = Vec::new();
        obs::trace::write_chrome_trace_with_dropped(
            &mut buf,
            &self.events,
            obs::trace::dropped_events(),
        )
        .map_err(|e| format!("encoding trace: {e}"))?;
        let mut file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        file.write_all(&buf)
            .and_then(|()| file.flush())
            .map_err(|e| format!("{path}: {e}"))?;
        let text = std::str::from_utf8(&buf).map_err(|e| format!("{path}: {e}"))?;
        obs::json::validate_chrome_trace(text).map_err(|e| format!("{path}: {e}"))?;
        Ok(())
    }
}
