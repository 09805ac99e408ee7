//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with lock-free updates.
//!
//! Registration (name → handle) takes the registry lock once; the returned
//! handle is an `Arc` over atomics, so the *update* path — the only part
//! that runs on hot paths — is a few atomic read-modify-writes with no
//! locks and no allocation. Histogram storage is fixed at registration
//! (bucket bounds never grow), so a metric's memory footprint is bounded
//! regardless of how many samples it absorbs.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wire::{Put, Reader};

/// Default histogram bounds for durations in seconds: decades from 1 µs to
/// 100 s (plus the implicit +Inf bucket).
pub const DURATION_BOUNDS_SECS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// Histogram bounds for latencies in microseconds: ten per decade from 1 µs
/// to 10 s, so no bucket's upper edge exceeds its lower edge by more than
/// 28 %, and a quantile interpolated inside one is that close to exact. The
/// serving tier's latency and queue wait and the load generator's round
/// trips all use them, so their percentiles come from one estimator.
#[rustfmt::skip]
pub const LATENCY_BOUNDS_US: [f64; 71] = [
    1.0, 1.25, 1.6, 2.0, 2.5, 3.15, 4.0, 5.0, 6.3, 8.0,
    1e1, 1.25e1, 1.6e1, 2e1, 2.5e1, 3.15e1, 4e1, 5e1, 6.3e1, 8e1,
    1e2, 1.25e2, 1.6e2, 2e2, 2.5e2, 3.15e2, 4e2, 5e2, 6.3e2, 8e2,
    1e3, 1.25e3, 1.6e3, 2e3, 2.5e3, 3.15e3, 4e3, 5e3, 6.3e3, 8e3,
    1e4, 1.25e4, 1.6e4, 2e4, 2.5e4, 3.15e4, 4e4, 5e4, 6.3e4, 8e4,
    1e5, 1.25e5, 1.6e5, 2e5, 2.5e5, 3.15e5, 4e5, 5e5, 6.3e5, 8e5,
    1e6, 1.25e6, 1.6e6, 2e6, 2.5e6, 3.15e6, 4e6, 5e6, 6.3e6, 8e6,
    1e7,
];

/// A monotonically increasing `u64` counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` (negative to subtract) atomically and return the new value:
    /// an up/down count kept in the gauge itself, with no shadow integer
    /// beside it.
    #[inline]
    pub fn add(&self, d: f64) -> f64 {
        atomic_f64_update(&self.0, |v| v + d)
    }

    /// Raise the gauge to `v` if it is below it — a high-water mark.
    #[inline]
    pub fn set_max(&self, v: f64) {
        atomic_f64_update(&self.0, |m| m.max(v));
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistCore {
    /// Ascending upper bounds; samples `<= bounds[i]` land in bucket `i`,
    /// anything larger in the final (+Inf) bucket.
    bounds: Box<[f64]>,
    /// `bounds.len() + 1` buckets, the last one +Inf.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Lock-free CAS update of an `f64` stored as bits; returns the value
/// written.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) -> f64 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur));
        match cell.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return next,
            Err(seen) => cur = seen,
        }
    }
}

/// A histogram over fixed bucket bounds, with exact count/sum/min/max.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistCore {
            bounds: bounds.into(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// Record one sample. Lock-free; storage never grows. A NaN (a
    /// poisoned clock delta) lands in the +Inf bucket, so it can only move
    /// the top quantiles, and never panics a reader.
    pub fn observe(&self, v: f64) {
        let c = &self.0;
        let i = c.bounds.partition_point(|b| v > *b || v.is_nan());
        c.buckets[i].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&c.sum_bits, |s| s + v);
        atomic_f64_update(&c.min_bits, |m| m.min(v));
        atomic_f64_update(&c.max_bits, |m| m.max(v));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
        }
    }

    /// `(upper_bound, cumulative_count)` pairs, ending with `(+Inf, count)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let c = &self.0;
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(c.buckets.len());
        for (i, b) in c.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = c.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket holding rank `q·count`. The first bucket
    /// interpolates from the exact minimum and the +Inf bucket up to the
    /// exact maximum, so estimates are always within `[min, max]`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let c = &self.0;
        let raw: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_from_parts(
            &c.bounds,
            &raw,
            raw.iter().sum(),
            f64::from_bits(c.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(c.max_bits.load(Ordering::Relaxed)),
            q,
        )
    }

    /// Smallest sample with the empty-identity intact: +Inf when empty.
    fn raw_min(&self) -> f64 {
        f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
    }

    /// Largest sample with the empty-identity intact: -Inf when empty.
    fn raw_max(&self) -> f64 {
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }

    /// Non-cumulative bucket counts (`bounds.len() + 1` entries).
    fn raw_buckets(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Fold another histogram's raw parts into this one. The extrema
    /// identities (+Inf min / -Inf max when empty) make the fold exact
    /// without empty-side special cases.
    fn merge_parts(
        &self,
        buckets: &[u64],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<(), String> {
        let c = &self.0;
        if buckets.len() != c.buckets.len() {
            return Err(format!(
                "histogram merge: {} buckets into {}",
                buckets.len(),
                c.buckets.len()
            ));
        }
        for (slot, &n) in c.buckets.iter().zip(buckets) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
        c.count.fetch_add(count, Ordering::Relaxed);
        atomic_f64_update(&c.sum_bits, |s| s + sum);
        atomic_f64_update(&c.min_bits, |m| m.min(min));
        atomic_f64_update(&c.max_bits, |m| m.max(max));
        Ok(())
    }
}

/// Shared quantile kernel over raw (non-cumulative) bucket counts, used by
/// [`Histogram::quantile`] and by [`Snapshot`] rendering. `min`/`max` are
/// the raw extrema (±Inf identities when empty).
fn quantile_from_parts(
    bounds: &[f64],
    buckets: &[u64],
    count: u64,
    min: f64,
    max: f64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    if q <= 0.0 {
        return min;
    }
    if q >= 1.0 {
        return max;
    }
    let rank = q * count as f64;
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        let prev = cum;
        cum += n;
        if n > 0 && cum as f64 >= rank {
            // Interpolate within [lo, hi]: the bucket's edges tightened by
            // the exact extrema (the first and last occupied buckets are
            // only partially covered by real samples).
            let lo = if i == 0 { min } else { bounds[i - 1].max(min) };
            let hi = if i < bounds.len() {
                bounds[i].min(max)
            } else {
                max
            };
            let frac = (rank - prev as f64) / n as f64;
            // Not `clamp`: it panics when NaN-only samples leave min > max.
            return (lo + (hi - lo) * frac).max(min).min(max);
        }
    }
    max
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Cheap to update (see module docs),
/// exported as a [`Snapshot`]. Cloning is cheap and yields a handle on the
/// *same* collection.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name` over `bounds` (ascending upper
    /// bucket bounds; an implicit +Inf bucket is appended). If the name is
    /// already registered, the existing histogram is returned and `bounds`
    /// is ignored.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind, or on
    /// unsorted/non-finite `bounds` at first registration.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut m = self.metrics.lock();
        m.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Expose every metric of `other` here too, under the same name and as
    /// the *same* handle: an update through either registry shows in both,
    /// with no copy. This is how a component that keeps metrics of its own
    /// (one `serve::Server` among several in a process) joins a process-wide
    /// exposition. A name already present is replaced, so adopting the same
    /// registry twice changes nothing.
    pub fn adopt(&self, other: &Registry) {
        let theirs = other.metrics.lock().clone();
        self.metrics.lock().extend(theirs);
    }

    /// `metric,value` CSV of every metric, sorted by name. Histograms expand to
    /// `_count`/`_sum`/`_mean`/`_min`/`_max` rows, interpolated
    /// `_p50`/`_p90`/`_p99` rows, and cumulative `_le_<bound>` bucket rows.
    pub fn csv(&self) -> String {
        self.snapshot().csv()
    }

    /// A point-in-time copy of every metric's value — the unit of transfer
    /// for the distributed observability plane. See [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = BTreeMap::new();
        for (name, metric) in self.metrics.lock().iter() {
            let v = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    bounds: h.0.bounds.to_vec(),
                    buckets: h.raw_buckets(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.raw_min(),
                    max: h.raw_max(),
                },
            };
            metrics.insert(name.clone(), v);
        }
        Snapshot { metrics }
    }

    /// Fold a (possibly remote) snapshot into this registry, prefixing
    /// every metric name with `prefix` (pass `""` for none). Counters and
    /// histogram buckets *add*, gauges overwrite — so folding a
    /// [`Snapshot::delta`] on top of an earlier fold accumulates exactly to
    /// the fold of the full snapshot. Returns an error (instead
    /// of panicking, since snapshots arrive off the wire) when a name is
    /// already registered under a different kind or with different
    /// histogram bounds.
    pub fn merge(&self, snap: &Snapshot, prefix: &str) -> Result<(), String> {
        for (name, value) in &snap.metrics {
            let full = format!("{prefix}{name}");
            {
                let reg = self.metrics.lock();
                if let Some(existing) = reg.get(&full) {
                    let want = value.kind();
                    if existing.kind() != want {
                        return Err(format!(
                            "metric '{full}' is a {}, snapshot carries a {want}",
                            existing.kind()
                        ));
                    }
                }
            }
            match value {
                MetricValue::Counter(n) => self.counter(&full).add(*n),
                MetricValue::Gauge(v) => self.gauge(&full).set(*v),
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let h = self.histogram(&full, bounds);
                    if h.0.bounds.as_ref() != bounds.as_slice() {
                        return Err(format!("metric '{full}': histogram bounds differ"));
                    }
                    h.merge_parts(buckets, *count, *sum, *min, *max)
                        .map_err(|e| format!("metric '{full}': {e}"))?;
                }
            }
        }
        Ok(())
    }
}

/// One metric's value inside a [`Snapshot`]. Histogram extrema are the
/// *raw* values (+Inf min / -Inf max when empty) so merges fold exactly
/// without empty-side special cases.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Fixed-bucket histogram: bounds plus `bounds.len() + 1` raw
    /// (non-cumulative) bucket counts and exact aggregates.
    Histogram {
        bounds: Vec<f64>,
        buckets: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    },
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// A point-in-time copy of a [`Registry`], detached from the live atomics.
/// Snapshots serialize to a compact length-prefixed binary form
/// ([`Snapshot::to_bytes`]) for `FRAME_STATS` payloads, subtract
/// ([`Snapshot::delta`]) so workers ship only what changed, and render as
/// the `metric,value` CSV that `cgdnn stats` prints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

/// Wire tags for [`MetricValue`] variants. Any other tag is a decode error.
const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

impl Snapshot {
    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics were captured.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The captured value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Drop every metric whose name `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.metrics.retain(|name, _| keep(name));
    }

    /// What changed since `base` (an earlier snapshot of the *same*
    /// registry): counters and histogram buckets/count/sum subtract
    /// (saturating, so a restarted metric degrades to its full value
    /// rather than wrapping); gauges and extrema carry the current value
    /// (they are not accumulative). Metrics absent from `base` ship whole.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        let mut metrics = BTreeMap::new();
        for (name, cur) in &self.metrics {
            let v = match (cur, base.metrics.get(name)) {
                (MetricValue::Counter(c), Some(MetricValue::Counter(b))) => {
                    MetricValue::Counter(c.saturating_sub(*b))
                }
                (
                    MetricValue::Histogram {
                        bounds,
                        buckets,
                        count,
                        sum,
                        min,
                        max,
                    },
                    Some(MetricValue::Histogram {
                        bounds: b_bounds,
                        buckets: b_buckets,
                        count: b_count,
                        sum: b_sum,
                        ..
                    }),
                ) if bounds == b_bounds => MetricValue::Histogram {
                    bounds: bounds.clone(),
                    buckets: buckets
                        .iter()
                        .zip(b_buckets)
                        .map(|(c, b)| c.saturating_sub(*b))
                        .collect(),
                    count: count.saturating_sub(*b_count),
                    sum: sum - b_sum,
                    min: *min,
                    max: *max,
                },
                _ => cur.clone(),
            };
            metrics.insert(name.clone(), v);
        }
        Snapshot { metrics }
    }

    /// Serialize to the length-prefixed little-endian wire form carried in
    /// `FRAME_STATS` payloads (layout documented in DESIGN.md).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(self.metrics.len() as u32);
        for (name, value) in &self.metrics {
            out.put_str(name);
            match value {
                MetricValue::Counter(n) => {
                    out.put_u8(TAG_COUNTER);
                    out.put_u64(*n);
                }
                MetricValue::Gauge(v) => {
                    out.put_u8(TAG_GAUGE);
                    out.put_f64(*v);
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                    min,
                    max,
                } => {
                    out.put_u8(TAG_HISTOGRAM);
                    out.put_u16(bounds.len() as u16);
                    wire::put_f64s(&mut out, bounds.iter().copied());
                    for b in buckets {
                        out.put_u64(*b);
                    }
                    out.put_u64(*count);
                    out.put_f64(*sum);
                    out.put_f64(*min);
                    out.put_f64(*max);
                }
            }
        }
        out
    }

    /// Parse bytes produced by [`Snapshot::to_bytes`]. Every length is
    /// bounds-checked against the remaining input, so corrupt or truncated
    /// payloads fail with an error rather than a huge allocation or panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, String> {
        Self::decode(bytes).map_err(|e| format!("metric snapshot: {e}"))
    }

    fn decode(bytes: &[u8]) -> Result<Snapshot, Box<dyn std::error::Error>> {
        let mut r = Reader::new(bytes);
        let mut metrics = BTreeMap::new();
        for _ in 0..r.u32()? {
            let name = r.str()?.to_string();
            let value = match r.u8()? {
                TAG_COUNTER => MetricValue::Counter(r.u64()?),
                TAG_GAUGE => MetricValue::Gauge(r.f64()?),
                TAG_HISTOGRAM => {
                    let n_bounds = r.u16()? as usize;
                    MetricValue::Histogram {
                        bounds: r.f64s(n_bounds)?.collect(),
                        buckets: r.u64s(n_bounds + 1)?.collect(),
                        count: r.u64()?,
                        sum: r.f64()?,
                        min: r.f64()?,
                        max: r.f64()?,
                    }
                }
                t => return Err(format!("unknown metric tag {t}").into()),
            };
            metrics.insert(name, value);
        }
        r.finish()?;
        Ok(Snapshot { metrics })
    }

    /// `metric,value` CSV in the same shape as [`Registry::csv`].
    pub fn csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "{name},{n}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name},{v:.6}");
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let shown_min = if *count == 0 { 0.0 } else { *min };
                    let shown_max = if *count == 0 { 0.0 } else { *max };
                    let _ = writeln!(out, "{name}_count,{count}");
                    let _ = writeln!(out, "{name}_sum,{sum:.6}");
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        sum / *count as f64
                    };
                    let _ = writeln!(out, "{name}_mean,{mean:.6}");
                    let _ = writeln!(out, "{name}_min,{shown_min:.6}");
                    let _ = writeln!(out, "{name}_max,{shown_max:.6}");
                    for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                        let est = quantile_from_parts(bounds, buckets, *count, *min, *max, q);
                        let _ = writeln!(out, "{name}_{tag},{est:.6}");
                    }
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        match bounds.get(i) {
                            Some(bound) => {
                                let _ = writeln!(out, "{name}_le_{bound:e},{cum}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_le_inf,{cum}");
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The process-wide registry that `Trainer`, the checkpoint writer, and
/// the serving tier publish into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second lookup returns the same underlying metric.
        assert_eq!(reg.counter("a.count").get(), 5);
        let g = reg.gauge("a.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.count", "a.gauge"]);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 560.5);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 500.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (10.0, 3));
        assert_eq!(buckets[2], (100.0, 4));
        assert_eq!(buckets[3].1, 5);
        assert!(buckets[3].0.is_infinite());
    }

    #[test]
    fn histogram_storage_is_fixed() {
        // "Fixed bounded storage": a million samples never grow the bucket
        // array — only the atomics advance.
        let reg = Registry::new();
        let h = reg.histogram("big", &DURATION_BOUNDS_SECS);
        let buckets_before = h.cumulative_buckets().len();
        for i in 0..1_000_000u64 {
            h.observe(i as f64 * 1e-7);
        }
        assert_eq!(h.cumulative_buckets().len(), buckets_before);
        assert_eq!(h.count(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let reg = Registry::new();
        let h = reg.histogram("e", &[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn csv_rows_have_two_columns_and_sorted_names() {
        // Regression guard: export order must be name-sorted and stable
        // regardless of registration order, so successive `--metrics`
        // snapshots diff cleanly and CI can grep fixed rows.
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.gauge("a.first").set(1.0);
        reg.histogram("m.mid", &[0.1, 1.0]).observe(0.05);
        reg.histogram("q.lat", &LATENCY_BOUNDS_US).observe(2.0);
        let csv = reg.csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("metric,value"));
        let rows: Vec<&str> = lines.collect();
        for r in &rows {
            assert_eq!(r.split(',').count(), 2, "row {r}");
        }
        // Metrics appear in name order (histogram sub-rows stay grouped in
        // a fixed count/sum/mean/min/max/quantiles/buckets order under
        // their metric).
        let a = csv.find("a.first,").unwrap();
        let m = csv.find("m.mid_count,").unwrap();
        let q = csv.find("q.lat_count,").unwrap();
        let z = csv.find("z.last,").unwrap();
        assert!(a < m && m < q && q < z, "metrics ordered by name");
        assert!(csv.contains("m.mid_count,1\n"));
        assert!(csv.contains("m.mid_p50,"));
        assert!(csv.contains("m.mid_le_inf,1\n"));
        assert!(csv.contains("q.lat_p99,2.000000\n"));
        assert!(csv.contains("z.last,1\n"));

        // Same content registered in the opposite order exports the same
        // bytes, and repeated exports are identical.
        let reg2 = Registry::new();
        reg2.histogram("q.lat", &LATENCY_BOUNDS_US).observe(2.0);
        reg2.histogram("m.mid", &[0.1, 1.0]).observe(0.05);
        reg2.gauge("a.first").set(1.0);
        reg2.counter("z.last").inc();
        assert_eq!(csv, reg2.csv());
        assert_eq!(csv, reg.csv());
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q", &[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for v in [2.0, 4.0, 6.0, 8.0] {
            h.observe(v);
        }
        // All four samples live in the (1, 10] bucket with min 2, max 8:
        // estimates interpolate inside [2, 8] and the extremes are exact.
        assert_eq!(h.quantile(0.0), 2.0);
        assert_eq!(h.quantile(1.0), 8.0);
        let p50 = h.quantile(0.5);
        assert!((2.0..=8.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99 && p99 <= 8.0, "p99 {p99}");
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2.5);
        let h = reg.histogram("h", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        reg.histogram("empty", &[1.0]); // ±Inf extrema must survive the wire
        let snap = reg.snapshot();
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.get("c"), Some(&MetricValue::Counter(7)));
        match back.get("empty") {
            Some(MetricValue::Histogram {
                min, max, count, ..
            }) => {
                assert_eq!(*count, 0);
                assert!(min.is_infinite() && *min > 0.0);
                assert!(max.is_infinite() && *max < 0.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_from_bytes_rejects_garbage() {
        assert!(Snapshot::from_bytes(&[]).is_err());
        let good = {
            let reg = Registry::new();
            reg.counter("c").inc();
            reg.snapshot().to_bytes()
        };
        assert!(Snapshot::from_bytes(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Snapshot::from_bytes(&trailing).is_err());
        let mut bad_tag = good;
        *bad_tag.last_mut().unwrap() = 0; // truncates the counter value
        assert!(Snapshot::from_bytes(&bad_tag[..bad_tag.len() - 8]).is_err());
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h", &[1.0, 10.0]);
        c.add(3);
        h.observe(0.5);
        let base = reg.snapshot();
        c.add(2);
        h.observe(5.0);
        reg.counter("new").inc(); // absent from base: ships whole
        let delta = reg.snapshot().delta(&base);
        assert_eq!(delta.get("c"), Some(&MetricValue::Counter(2)));
        assert_eq!(delta.get("new"), Some(&MetricValue::Counter(1)));
        match delta.get("h") {
            Some(MetricValue::Histogram {
                buckets,
                count,
                sum,
                ..
            }) => {
                assert_eq!(*count, 1);
                assert_eq!(*sum, 5.0);
                assert_eq!(buckets, &vec![0, 1, 0]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_applies_prefix_and_accumulates() {
        let remote = Registry::new();
        remote.counter("train.iterations").add(5);
        remote.gauge("train.loss").set(0.25);
        remote.histogram("step", &[1.0]).observe(0.5);
        let snap = remote.snapshot();

        let coord = Registry::new();
        coord.merge(&snap, "r1.").unwrap();
        coord.merge(&snap, "r1.").unwrap(); // a second delta accumulates
        assert_eq!(coord.counter("r1.train.iterations").get(), 10);
        assert_eq!(coord.gauge("r1.train.loss").get(), 0.25);
        let h = coord.histogram("r1.step", &[1.0]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1.0);
        assert_eq!(h.min(), 0.5);
        assert!(coord.csv().contains("r1.train.iterations,10\n"));
    }

    #[test]
    fn merge_rejects_kind_and_bounds_mismatch() {
        let remote = Registry::new();
        remote.counter("x").inc();
        let snap = remote.snapshot();
        let coord = Registry::new();
        coord.gauge("x");
        assert!(coord.merge(&snap, "").is_err());

        let remote2 = Registry::new();
        remote2.histogram("h", &[1.0, 2.0]).observe(0.5);
        let coord2 = Registry::new();
        coord2.histogram("h", &[1.0, 3.0]);
        assert!(coord2.merge(&remote2.snapshot(), "").is_err());
    }

    #[test]
    fn nan_samples_neither_panic_nor_break_the_csv() {
        // A NaN (a poisoned clock delta) sorts into the +Inf bucket: it
        // cannot leak into the lower quantiles, and a NaN-only histogram,
        // whose extrema stay at their empty identities, must still render.
        let reg = Registry::new();
        let mixed = reg.histogram("mixed", &[1.0, 10.0]);
        for v in [3.0, f64::NAN, 1.0, 2.0] {
            mixed.observe(v);
        }
        assert_eq!(mixed.cumulative_buckets()[0], (1.0, 1));
        assert_eq!(mixed.quantile(0.5), 2.0);
        assert!(mixed.quantile(0.99) <= mixed.max());
        let only = reg.histogram("only_nan", &LATENCY_BOUNDS_US);
        only.observe(f64::NAN);
        for q in [0.0, 0.5, 0.99, 1.0] {
            only.quantile(q);
        }
        let csv = reg.snapshot().csv();
        assert!(csv.contains("only_nan_count,1\n"));
        assert!(csv.contains("only_nan_p99,"));
        for row in csv.lines().skip(1) {
            let (name, value) = row.split_once(',').expect("two columns");
            assert!(value.parse::<f64>().is_ok(), "{name}: '{value}'");
        }
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = Registry::new();
        let h = reg.histogram("conc", &[10.0, 100.0]);
        let c = reg.counter("conc.n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        h.observe(i as f64 % 200.0);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.cumulative_buckets().last().unwrap().1, 40_000);
    }
}
