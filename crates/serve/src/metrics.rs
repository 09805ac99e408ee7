//! Serving metrics: latency percentiles, batch-size distribution, queue
//! depth, admission counters, throughput — plus the same CSV form factor
//! as `machine::csv` so serving numbers land next to the figure data.
//!
//! [`ServingMetrics`] is the live, thread-shared accumulator the server
//! and its workers write into; [`ServingReport`] is the immutable summary
//! snapshotted from it at shutdown (or any other moment).
//!
//! Storage is bounded no matter how long the server runs: latency and
//! queue-wait streams are held in fixed-capacity [`obs::Reservoir`]s
//! ([`SAMPLE_CAP`] retained samples each; counts, sums, and extrema stay
//! exact, percentiles become reservoir estimates once the cap is passed),
//! and batch sizes accumulate into an exact `(size, count)` histogram
//! whose length is bounded by the number of distinct batch sizes (at most
//! the configured `max_batch`).

use obs::Reservoir;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Retained samples per latency/queue-wait reservoir. At 8 bytes per
/// sample this caps each stream at 32 KiB regardless of run length.
pub const SAMPLE_CAP: usize = 4096;

/// Thread-shared metrics accumulator.
pub struct ServingMetrics {
    latencies_us: Mutex<Reservoir>,
    queue_wait_us: Mutex<Reservoir>,
    /// Exact `(batch_size, count)` histogram, ascending by size.
    batch_hist: Mutex<Vec<(usize, u64)>>,
    completed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    window: Mutex<Option<(Instant, Instant)>>,
    replica_errors: Mutex<Vec<u64>>,
    replica_alive: Mutex<Vec<bool>>,
    replica_restarts: AtomicU64,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        Self {
            // Fixed seeds: the retained sample (and so the reported
            // percentiles) is reproducible for a given request sequence.
            latencies_us: Mutex::new(Reservoir::new(SAMPLE_CAP, 0x5e41)),
            queue_wait_us: Mutex::new(Reservoir::new(SAMPLE_CAP, 0x9_0a17)),
            batch_hist: Mutex::new(Vec::new()),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            window: Mutex::new(None),
            replica_errors: Mutex::new(Vec::new()),
            replica_alive: Mutex::new(Vec::new()),
            replica_restarts: AtomicU64::new(0),
        }
    }
}

impl ServingMetrics {
    /// A request was admitted to the queue.
    pub fn on_enqueue(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(d, Ordering::Relaxed);
        let now = Instant::now();
        let mut w = self.window.lock();
        *w = match *w {
            None => Some((now, now)),
            Some((s, e)) => Some((s, e.max(now))),
        };
    }

    /// A request left the queue (for any reason).
    pub fn on_dequeue(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request bounced off the full queue.
    pub fn on_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired before execution.
    pub fn on_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// A micro-batch of `n` live requests is about to run; `waits` are the
    /// per-request queue delays (submit → batch assembly).
    pub fn on_batch(&self, n: usize, waits: &[Duration]) {
        {
            let mut hist = self.batch_hist.lock();
            match hist.iter_mut().find(|(size, _)| *size == n) {
                Some((_, c)) => *c += 1,
                None => {
                    hist.push((n, 1));
                    hist.sort_unstable();
                }
            }
        }
        let mut q = self.queue_wait_us.lock();
        for d in waits {
            q.record(d.as_secs_f64() * 1e6);
        }
    }

    /// A request completed successfully after `latency` (submit → reply).
    pub fn on_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latencies_us.lock().record(latency.as_secs_f64() * 1e6);
        let now = Instant::now();
        let mut w = self.window.lock();
        *w = match *w {
            None => Some((now, now)),
            Some((s, e)) => Some((s, e.max(now))),
        };
    }

    /// `(retained latency samples, retained queue-wait samples)` — bounded
    /// by [`SAMPLE_CAP`] each; the regression test for unbounded growth.
    pub fn sample_counts(&self) -> (usize, usize) {
        (
            self.latencies_us.lock().samples().len(),
            self.queue_wait_us.lock().samples().len(),
        )
    }

    /// Declare `n` replicas, all initially healthy. Called once by the
    /// server at startup.
    pub fn set_replicas(&self, n: usize) {
        *self.replica_errors.lock() = vec![0; n];
        *self.replica_alive.lock() = vec![true; n];
    }

    /// Replica `i` failed to execute a batch (engine error or panic).
    pub fn on_replica_error(&self, i: usize) {
        let mut errs = self.replica_errors.lock();
        if i >= errs.len() {
            errs.resize(i + 1, 0);
        }
        errs[i] += 1;
    }

    /// Replica `i` is permanently out of service (its worker retired).
    pub fn on_replica_dead(&self, i: usize) {
        let mut alive = self.replica_alive.lock();
        if i >= alive.len() {
            alive.resize(i + 1, true);
        }
        alive[i] = false;
    }

    /// Replica `i` came back: its worker was re-staffed by the
    /// supervisor. Marks it healthy again and counts the restart.
    pub fn on_replica_restarted(&self, i: usize) {
        let mut alive = self.replica_alive.lock();
        if i >= alive.len() {
            alive.resize(i + 1, true);
        }
        alive[i] = true;
        drop(alive);
        self.replica_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Replicas still in service. `0` means the server can no longer
    /// answer anything.
    pub fn healthy_replicas(&self) -> usize {
        self.replica_alive.lock().iter().filter(|a| **a).count()
    }

    /// Ids of the replicas currently out of service — the supervisor's
    /// work list.
    pub fn dead_replicas(&self) -> Vec<usize> {
        self.replica_alive
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, alive)| (!alive).then_some(i))
            .collect()
    }

    /// Total worker re-staffs performed by the supervisor so far.
    pub fn replica_restarts(&self) -> u64 {
        self.replica_restarts.load(Ordering::Relaxed)
    }

    /// Snapshot the accumulated counters into an immutable report.
    ///
    /// Latency/queue-wait counts, means, and maxima are exact; the
    /// percentiles are computed over the retained reservoir sample, so
    /// they are exact until [`SAMPLE_CAP`] samples have been recorded and
    /// an unbiased estimate after that.
    pub fn report(&self) -> ServingReport {
        let latencies = self.latencies_us.lock();
        let waits = self.queue_wait_us.lock();
        let hist = self.batch_hist.lock().clone();
        let wall_secs = self
            .window
            .lock()
            .map(|(s, e)| (e - s).as_secs_f64())
            .unwrap_or(0.0);
        let completed = self.completed.load(Ordering::Relaxed);
        let n_batches: u64 = hist.iter().map(|&(_, c)| c).sum();
        let batch_total: u64 = hist.iter().map(|&(s, c)| s as u64 * c).sum();
        ServingReport {
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            p50_us: latencies.quantile(0.50),
            p95_us: latencies.quantile(0.95),
            p99_us: latencies.quantile(0.99),
            mean_latency_us: latencies.mean(),
            max_latency_us: latencies.max(),
            mean_queue_wait_us: waits.mean(),
            mean_batch: if n_batches == 0 {
                0.0
            } else {
                batch_total as f64 / n_batches as f64
            },
            max_batch: hist.last().map(|&(s, _)| s).unwrap_or(0),
            n_batches,
            batch_hist: hist,
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
            replica_errors: self.replica_errors.lock().clone(),
            healthy_replicas: self.healthy_replicas(),
            replica_restarts: self.replica_restarts.load(Ordering::Relaxed),
            wall_secs,
            throughput_rps: if wall_secs > 0.0 {
                completed as f64 / wall_secs
            } else {
                0.0
            },
        }
    }
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
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
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
    /// Worker re-staffs performed by the supervisor.
    pub replica_restarts: u64,
    /// First enqueue → last completion, seconds.
    pub wall_secs: f64,
    /// Completed requests per second over that window.
    pub throughput_rps: f64,
}

impl ServingReport {
    /// `metric,value` CSV of every scalar in the report.
    pub fn csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        out.push_str(&format!("completed,{}\n", self.completed));
        out.push_str(&format!("rejected,{}\n", self.rejected));
        out.push_str(&format!("timed_out,{}\n", self.timed_out));
        out.push_str(&format!("p50_us,{:.3}\n", self.p50_us));
        out.push_str(&format!("p95_us,{:.3}\n", self.p95_us));
        out.push_str(&format!("p99_us,{:.3}\n", self.p99_us));
        out.push_str(&format!("mean_latency_us,{:.3}\n", self.mean_latency_us));
        out.push_str(&format!("max_latency_us,{:.3}\n", self.max_latency_us));
        out.push_str(&format!(
            "mean_queue_wait_us,{:.3}\n",
            self.mean_queue_wait_us
        ));
        out.push_str(&format!("mean_batch,{:.3}\n", self.mean_batch));
        out.push_str(&format!("max_batch,{}\n", self.max_batch));
        out.push_str(&format!("n_batches,{}\n", self.n_batches));
        out.push_str(&format!("max_queue_depth,{}\n", self.max_queue_depth));
        out.push_str(&format!("healthy_replicas,{}\n", self.healthy_replicas));
        out.push_str(&format!("replica_restarts,{}\n", self.replica_restarts));
        for (i, e) in self.replica_errors.iter().enumerate() {
            out.push_str(&format!("replica_{i}_errors,{e}\n"));
        }
        out.push_str(&format!("wall_secs,{:.4}\n", self.wall_secs));
        out.push_str(&format!("throughput_rps,{:.2}\n", self.throughput_rps));
        out
    }

    /// `batch_size,count` CSV of the micro-batch size distribution.
    pub fn batch_hist_csv(&self) -> String {
        let mut out = String::from("batch_size,count\n");
        for &(size, count) in &self.batch_hist {
            out.push_str(&format!("{size},{count}\n"));
        }
        out
    }

    /// Mirror the report's scalars into a metrics [`obs::Registry`] under
    /// `serve.*` names, so serving numbers appear in the same exposition
    /// (`--metrics`, [`obs::Registry::csv`]) as the training counters.
    ///
    /// Everything is published as a gauge — the report is already an
    /// aggregate snapshot, so re-publishing a newer report must replace the
    /// old values, not add to them.
    pub fn publish(&self, reg: &obs::Registry) {
        let pairs = [
            ("serve.completed", self.completed as f64),
            ("serve.rejected", self.rejected as f64),
            ("serve.timed_out", self.timed_out as f64),
            ("serve.p50_us", self.p50_us),
            ("serve.p95_us", self.p95_us),
            ("serve.p99_us", self.p99_us),
            ("serve.mean_latency_us", self.mean_latency_us),
            ("serve.max_latency_us", self.max_latency_us),
            ("serve.mean_queue_wait_us", self.mean_queue_wait_us),
            ("serve.mean_batch", self.mean_batch),
            ("serve.max_batch", self.max_batch as f64),
            ("serve.n_batches", self.n_batches as f64),
            ("serve.max_queue_depth", self.max_queue_depth as f64),
            ("serve.healthy_replicas", self.healthy_replicas as f64),
            ("serve.replica_restarts", self.replica_restarts as f64),
            ("serve.wall_secs", self.wall_secs),
            ("serve.throughput_rps", self.throughput_rps),
        ];
        for (name, value) in pairs {
            reg.gauge(name).set(value);
        }
    }
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

    #[test]
    fn report_aggregates_counters() {
        let m = ServingMetrics::default();
        m.on_enqueue();
        m.on_enqueue();
        m.on_dequeue();
        m.on_dequeue();
        m.on_rejected();
        m.on_batch(2, &[Duration::from_micros(10), Duration::from_micros(30)]);
        m.on_completed(Duration::from_micros(100));
        m.on_completed(Duration::from_micros(300));
        let r = m.report();
        assert_eq!(r.completed, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.timed_out, 0);
        assert_eq!(r.max_queue_depth, 2);
        assert_eq!(r.mean_batch, 2.0);
        assert_eq!(r.batch_hist, vec![(2, 1)]);
        assert_eq!(r.mean_queue_wait_us, 20.0);
        assert_eq!(r.p50_us, 100.0);
        assert_eq!(r.p99_us, 300.0);
    }

    #[test]
    fn replica_health_is_tracked() {
        let m = ServingMetrics::default();
        m.set_replicas(3);
        assert_eq!(m.healthy_replicas(), 3);
        m.on_replica_error(1);
        m.on_replica_error(1);
        m.on_replica_dead(1);
        let r = m.report();
        assert_eq!(r.replica_errors, vec![0, 2, 0]);
        assert_eq!(r.healthy_replicas, 2);
        assert!(r.csv().contains("replica_1_errors,2\n"));
        assert!(r.csv().contains("healthy_replicas,2\n"));
    }

    #[test]
    fn restart_revives_replica_and_is_counted() {
        let m = ServingMetrics::default();
        m.set_replicas(2);
        m.on_replica_dead(0);
        assert_eq!(m.dead_replicas(), vec![0]);
        assert_eq!(m.healthy_replicas(), 1);
        m.on_replica_restarted(0);
        assert_eq!(m.dead_replicas(), Vec::<usize>::new());
        assert_eq!(m.healthy_replicas(), 2);
        assert_eq!(m.replica_restarts(), 1);
        let r = m.report();
        assert_eq!(r.replica_restarts, 1);
        assert!(r.csv().contains("replica_restarts,1\n"));
        assert!(r.to_string().contains("1 restarted"));
    }

    #[test]
    fn storage_stays_bounded_over_a_million_records() {
        // Regression for unbounded Vec growth: a long-running server must
        // not accumulate one f64 per request. Aggregates stay exact.
        let m = ServingMetrics::default();
        let n = 1_000_000u64;
        for i in 0..n {
            m.on_completed(Duration::from_micros(i % 1000));
            if i % 4 == 0 {
                m.on_batch(1 + (i % 8) as usize, &[Duration::from_micros(i % 100)]);
            }
        }
        let (lat_samples, wait_samples) = m.sample_counts();
        assert_eq!(lat_samples, SAMPLE_CAP);
        assert_eq!(wait_samples, SAMPLE_CAP);
        let r = m.report();
        assert_eq!(r.completed, n);
        // Duration → secs_f64 → µs round-trips with ~1 ulp of noise.
        assert!((r.max_latency_us - 999.0).abs() < 1e-9);
        assert_eq!(r.n_batches, n / 4);
        assert!(r.batch_hist.len() <= 8, "one bucket per distinct size");
        assert_eq!(r.batch_hist.iter().map(|&(_, c)| c).sum::<u64>(), n / 4);
        // Percentiles are estimates past the cap, but over a uniform
        // 0..1000 stream they must land in the right neighbourhood.
        assert!((r.p50_us - 500.0).abs() < 50.0, "p50 {}", r.p50_us);
        assert!((r.p99_us - 990.0).abs() < 15.0, "p99 {}", r.p99_us);
    }

    #[test]
    fn publish_mirrors_report_into_registry_idempotently() {
        let m = ServingMetrics::default();
        m.set_replicas(2);
        m.on_batch(3, &[Duration::from_micros(5)]);
        for _ in 0..3 {
            m.on_completed(Duration::from_micros(40));
        }
        let r = m.report();
        let reg = obs::Registry::new();
        r.publish(&reg);
        r.publish(&reg); // gauges: second publish must not double anything
        let csv = reg.csv();
        assert!(csv.contains("serve.completed,3.000000\n"), "csv:\n{csv}");
        assert!(csv.contains("serve.p50_us,40.000000\n"), "csv:\n{csv}");
        assert!(
            csv.contains("serve.healthy_replicas,2.000000\n"),
            "csv:\n{csv}"
        );
        assert!(csv.contains("serve.n_batches,1.000000\n"), "csv:\n{csv}");
    }

    #[test]
    fn csv_rows_have_two_columns() {
        let r = ServingMetrics::default().report();
        for text in [r.csv(), r.batch_hist_csv()] {
            let mut lines = text.lines();
            let cols = lines.next().unwrap().split(',').count();
            assert_eq!(cols, 2);
            for l in lines {
                assert_eq!(l.split(',').count(), cols, "row {l}");
            }
        }
    }
}
