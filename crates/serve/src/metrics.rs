//! Serving metrics: latency percentiles, batch-size distribution, queue
//! depth, admission counters, throughput.
//!
//! [`ServingMetrics`] is a plain struct of [`obs`] handles the batcher bumps
//! directly, registered under `serve.*` names in a registry the server owns
//! ([`ServingMetrics::registry`]). [`obs::Registry::adopt`] exposes the same
//! handles in a process-wide registry, so every exposition (`--metrics`,
//! `FRAME_STATS`, [`obs::Snapshot::csv`]) reads the live values with no
//! copy. [`ServingReport`] is a read of the handles at one moment.
//!
//! Storage is bounded no matter how long the server runs: latency and
//! queue wait land in histograms over [`LATENCY_BOUNDS_US`] (counts, sums
//! and extrema stay exact, percentiles interpolate inside one bucket), and
//! batch sizes in a histogram with one bucket per size up to the engines'
//! `max_batch`.

use obs::registry::LATENCY_BOUNDS_US;
use obs::{Counter, Gauge, Histogram, Registry};
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// The `serve.*` handles of one [`crate::Server`]; every update is a few
/// atomics.
pub struct ServingMetrics {
    /// Requests answered successfully.
    pub completed: Counter,
    /// Requests bounced off the full admission queue.
    pub rejected: Counter,
    /// Requests whose deadline expired before execution.
    pub timed_out: Counter,
    /// Panicked replicas rebuilt in place by their workers.
    pub replica_restarts: Counter,
    /// Batch-execution failures (engine errors and panics) per replica:
    /// `serve.replica_<i>_errors`.
    pub replica_errors: Vec<Counter>,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: Gauge,
    /// Deepest the admission queue ever got, as admitted requests saw it;
    /// never above the queue's capacity.
    pub max_queue_depth: Gauge,
    /// Replicas with a worker attached. The batcher keeps the liveness
    /// state itself; this gauge only shows it.
    pub healthy_replicas: Gauge,
    /// First enqueue → last completion, seconds.
    pub wall_secs: Gauge,
    /// Submit → reply, microseconds.
    pub latency_us: Histogram,
    /// Submit → batch assembly, microseconds.
    pub queue_wait_us: Histogram,
    /// Executed micro-batch sizes, one bucket per size.
    pub batch_size: Histogram,
    registry: Registry,
    first_enqueue: OnceLock<Instant>,
    queue_capacity: f64,
}

impl ServingMetrics {
    /// Handles for a server of `n_replicas` (all healthy) whose engines
    /// take batches of up to `max_batch`, behind a queue of
    /// `queue_capacity`.
    pub fn new(n_replicas: usize, max_batch: usize, queue_capacity: usize) -> Self {
        let reg = Registry::new();
        let sizes: Vec<f64> = (1..=max_batch).map(|b| b as f64).collect();
        let healthy_replicas = reg.gauge("serve.healthy_replicas");
        healthy_replicas.set(n_replicas as f64);
        Self {
            completed: reg.counter("serve.completed"),
            rejected: reg.counter("serve.rejected"),
            timed_out: reg.counter("serve.timed_out"),
            replica_restarts: reg.counter("serve.replica_restarts"),
            replica_errors: (0..n_replicas)
                .map(|i| reg.counter(&format!("serve.replica_{i}_errors")))
                .collect(),
            queue_depth: reg.gauge("serve.queue_depth"),
            max_queue_depth: reg.gauge("serve.max_queue_depth"),
            healthy_replicas,
            wall_secs: reg.gauge("serve.wall_secs"),
            latency_us: reg.histogram("serve.latency_us", &LATENCY_BOUNDS_US),
            queue_wait_us: reg.histogram("serve.queue_wait_us", &LATENCY_BOUNDS_US),
            batch_size: reg.histogram("serve.batch_size", &sizes),
            registry: reg,
            first_enqueue: OnceLock::new(),
            queue_capacity: queue_capacity as f64,
        }
    }

    /// The registry holding exactly this server's `serve.*` metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A request submitted at `at` was admitted to the queue while
    /// `serve.queue_depth`, its own slot counted, read `depth`.
    pub fn on_admitted(&self, at: Instant, depth: f64) {
        self.first_enqueue.get_or_init(|| at);
        // The gauge also counts submits still racing for a slot and a
        // request a worker has taken but not yet uncounted; the queue
        // itself never holds more than its capacity.
        self.max_queue_depth.set_max(depth.min(self.queue_capacity));
    }

    /// A request submitted at `submitted` was answered at `done`.
    pub fn on_completed(&self, submitted: Instant, done: Instant) {
        self.completed.inc();
        self.latency_us.observe(micros(submitted, done));
        let first = *self.first_enqueue.get_or_init(|| submitted);
        self.wall_secs
            .set_max(done.saturating_duration_since(first).as_secs_f64());
    }

    /// Read the handles into a report.
    ///
    /// Counts, means and maxima are exact; the percentiles are
    /// [`Histogram::quantile`] estimates (see [`ServingReport::p50_us`]).
    pub fn report(&self) -> ServingReport {
        let mut below = 0;
        let batch_hist = self
            .batch_size
            .cumulative_buckets()
            .into_iter()
            .filter_map(|(size, cum)| {
                let n = cum - below;
                below = cum;
                (n > 0).then_some((size as usize, n))
            })
            .collect();
        let completed = self.completed.get();
        let wall_secs = self.wall_secs.get();
        ServingReport {
            completed,
            rejected: self.rejected.get(),
            timed_out: self.timed_out.get(),
            p50_us: self.latency_us.quantile(0.50),
            p95_us: self.latency_us.quantile(0.95),
            p99_us: self.latency_us.quantile(0.99),
            mean_latency_us: self.latency_us.mean(),
            max_latency_us: self.latency_us.max(),
            mean_queue_wait_us: self.queue_wait_us.mean(),
            mean_batch: self.batch_size.mean(),
            max_batch: self.batch_size.max() as usize,
            n_batches: self.batch_size.count(),
            batch_hist,
            max_queue_depth: self.max_queue_depth.get() as usize,
            replica_errors: self.replica_errors.iter().map(Counter::get).collect(),
            healthy_replicas: self.healthy_replicas.get() as usize,
            replica_restarts: self.replica_restarts.get(),
            wall_secs,
            throughput_rps: if wall_secs > 0.0 {
                completed as f64 / wall_secs
            } else {
                0.0
            },
        }
    }
}

/// `from → to` in microseconds (0 if the clock reads them out of order).
pub(crate) fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Immutable summary of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests bounced off the full admission queue.
    pub rejected: u64,
    /// Requests whose deadline expired before execution.
    pub timed_out: u64,
    /// Median end-to-end latency, microseconds: [`Histogram::quantile`]
    /// over [`LATENCY_BOUNDS_US`], i.e. linear interpolation inside the
    /// bucket holding the rank, clamped to the exact min and max — off the
    /// exact nearest-rank value by at most that bucket's width.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds (same estimator).
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds (same estimator).
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_latency_us: f64,
    /// Worst observed latency, microseconds.
    pub max_latency_us: f64,
    /// Mean queue delay before batch assembly, microseconds.
    pub mean_queue_wait_us: f64,
    /// Mean executed micro-batch size.
    pub mean_batch: f64,
    /// Largest executed micro-batch.
    pub max_batch: usize,
    /// Number of executed micro-batches.
    pub n_batches: u64,
    /// `(batch_size, count)` distribution, ascending by size.
    pub batch_hist: Vec<(usize, u64)>,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: usize,
    /// Batch-execution failures per replica (engine errors and panics),
    /// indexed by replica id.
    pub replica_errors: Vec<u64>,
    /// Replicas still in service at snapshot time.
    pub healthy_replicas: usize,
    /// Panicked replicas rebuilt in place by their workers.
    pub replica_restarts: u64,
    /// First enqueue → last completion, seconds.
    pub wall_secs: f64,
    /// Completed requests per second over that window.
    pub throughput_rps: f64,
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "completed {}  rejected {}  timed_out {}",
            self.completed, self.rejected, self.timed_out
        )?;
        writeln!(
            f,
            "latency us: p50 {:.1}  p95 {:.1}  p99 {:.1}  mean {:.1}  max {:.1}",
            self.p50_us, self.p95_us, self.p99_us, self.mean_latency_us, self.max_latency_us
        )?;
        writeln!(
            f,
            "batches: {} executed, mean size {:.2}, max size {}, mean queue wait {:.1} us",
            self.n_batches, self.mean_batch, self.max_batch, self.mean_queue_wait_us
        )?;
        writeln!(
            f,
            "replicas: {}/{} healthy, {} restarted, errors {:?}",
            self.healthy_replicas,
            self.replica_errors.len(),
            self.replica_restarts,
            self.replica_errors
        )?;
        write!(
            f,
            "throughput: {:.1} req/s over {:.3} s (max queue depth {})",
            self.throughput_rps, self.wall_secs, self.max_queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_aggregates_counters() {
        let m = ServingMetrics::new(1, 4, 2);
        let t0 = Instant::now();
        m.on_admitted(t0, m.queue_depth.add(1.0));
        m.on_admitted(t0, m.queue_depth.add(1.0));
        // A third admission racing a rejected submit still reads the
        // capacity as the mark.
        m.on_admitted(t0, m.queue_depth.get() + 1.0);
        m.queue_depth.add(-1.0);
        m.queue_depth.add(-1.0);
        m.rejected.inc();
        m.batch_size.observe(2.0);
        m.queue_wait_us.observe(10.0);
        m.queue_wait_us.observe(30.0);
        m.on_completed(t0, t0 + Duration::from_micros(100));
        m.on_completed(t0, t0 + Duration::from_micros(300));
        let r = m.report();
        assert_eq!(r.completed, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.timed_out, 0);
        assert_eq!(r.max_queue_depth, 2);
        assert_eq!(m.queue_depth.get(), 0.0);
        assert_eq!(r.mean_batch, 2.0);
        assert_eq!(r.max_batch, 2);
        assert_eq!(r.batch_hist, vec![(2, 1)]);
        assert_eq!(r.mean_queue_wait_us, 20.0);
        assert_eq!(r.p50_us, 100.0);
        assert!((250.0..=300.0).contains(&r.p99_us), "p99 {}", r.p99_us);
        assert_eq!(r.max_latency_us, 300.0);
        assert_eq!(r.wall_secs, 300e-6);
    }

    #[test]
    fn storage_stays_bounded_over_a_million_records() {
        // Regression for unbounded Vec growth: a long-running server must
        // not accumulate one f64 per request. Aggregates stay exact.
        let m = ServingMetrics::new(1, 8, 1);
        let t0 = Instant::now();
        let n = 1_000_000u64;
        for i in 0..n {
            m.on_completed(t0, t0 + Duration::from_micros(i % 1000));
            if i % 4 == 0 {
                m.batch_size.observe(1.0 + (i % 8) as f64);
                m.queue_wait_us.observe((i % 100) as f64);
            }
        }
        let snap = m.registry().snapshot();
        for name in ["serve.latency_us", "serve.queue_wait_us"] {
            match snap.get(name) {
                Some(obs::MetricValue::Histogram { buckets, .. }) => {
                    assert_eq!(buckets.len(), LATENCY_BOUNDS_US.len() + 1, "{name}")
                }
                other => panic!("{name}: {other:?}"),
            }
        }
        let r = m.report();
        assert_eq!(r.completed, n);
        // Duration → secs_f64 → µs round-trips with ~1 ulp of noise.
        assert!((r.max_latency_us - 999.0).abs() < 1e-9);
        assert_eq!(r.n_batches, n / 4);
        assert!(r.batch_hist.len() <= 8, "one bucket per distinct size");
        assert_eq!(r.batch_hist.iter().map(|&(_, c)| c).sum::<u64>(), n / 4);
        // Percentiles are bucket-interpolated, but over a uniform 0..1000
        // stream they must land in the right neighbourhood.
        assert!((r.p50_us - 500.0).abs() < 50.0, "p50 {}", r.p50_us);
        assert!((r.p99_us - 990.0).abs() < 15.0, "p99 {}", r.p99_us);
    }

    #[test]
    fn percentiles_fall_in_the_bucket_of_the_exact_value() {
        // 10 000 seeded log-uniform latencies over 10 µs..100 ms: each
        // reported percentile lies in the LATENCY_BOUNDS_US bucket that
        // holds the exact nearest-rank value of the sorted stream.
        let m = ServingMetrics::new(1, 1, 1);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut stream: Vec<f64> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                10.0 * 1e4f64.powf(u)
            })
            .collect();
        for &v in &stream {
            m.latency_us.observe(v);
        }
        stream.sort_by(f64::total_cmp);
        let bucket = |v: f64| LATENCY_BOUNDS_US.partition_point(|b| v > *b);
        let r = m.report();
        for (q, got) in [(0.50, r.p50_us), (0.95, r.p95_us), (0.99, r.p99_us)] {
            let exact = stream[(q * stream.len() as f64).ceil() as usize - 1];
            assert_eq!(bucket(got), bucket(exact), "p{q}: {got} vs exact {exact}");
        }
    }
}
