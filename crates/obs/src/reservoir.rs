//! Fixed-capacity reservoir sampling (Vitter's Algorithm R) with exact
//! aggregate statistics.
//!
//! Long-running metric streams — serving latencies, queue waits — cannot
//! keep every sample without growing without bound. A [`Reservoir`] keeps a
//! uniform random sample of at most `cap` values (good enough for
//! percentile estimates) while tracking count, sum, min, and max exactly.
//! The RNG is a seeded xorshift64*, so a given insertion sequence always
//! produces the same sample — tests and replays are deterministic.

/// Fixed-capacity uniform sample over an unbounded stream of `f64`s.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<f64>,
    cap: usize,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    rng: u64,
}

/// One xorshift64* step (Vigna); full 64-bit period for non-zero state.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Deterministically keep `k` of `v`'s elements (partial Fisher–Yates
/// driven by `rng`), discarding the rest. `k > v.len()` keeps everything.
fn subsample(v: &mut Vec<f64>, k: usize, rng: &mut u64) {
    if k >= v.len() {
        return;
    }
    for i in 0..k {
        let j = i + (xorshift(rng) % (v.len() - i) as u64) as usize;
        v.swap(i, j);
    }
    v.truncate(k);
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples (`cap >= 1`),
    /// with a deterministic RNG stream derived from `seed`.
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap >= 1, "reservoir capacity must be at least 1");
        // splitmix64 scrambles the seed so nearby seeds give unrelated
        // streams, and guarantees the xorshift state is effectively random
        // (zero is remapped below).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Reservoir {
            samples: Vec::new(),
            cap,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rng: if z == 0 { 1 } else { z }, // xorshift state must be non-zero
        }
    }

    fn next_u64(&mut self) -> u64 {
        xorshift(&mut self.rng)
    }

    /// Record one value: aggregates update exactly; the sample set updates
    /// per Algorithm R (element `n` kept with probability `cap/n`).
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = (self.next_u64() % self.count) as usize;
            if j < self.cap {
                self.samples[j] = v;
            }
        }
    }

    /// Exact number of values recorded (not the sample size).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every recorded value.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The current sample set (length `min(count, cap)`), unordered.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Raw minimum: `+Inf` when empty (the mergeable identity), unlike
    /// [`Reservoir::min`] which reports 0 for display.
    pub fn raw_min(&self) -> f64 {
        self.min
    }

    /// Raw maximum: `-Inf` when empty (the mergeable identity).
    pub fn raw_max(&self) -> f64 {
        self.max
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) from the retained sample by
    /// nearest rank over the sorted samples. Exact while `count <= cap`;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.samples, q)
    }

    /// Merge `other` into `self`. The aggregates fold **exactly**:
    /// `count += other.count`, `sum += other.sum`, min/max are the
    /// pairwise fold (the ±Inf empty identities make an empty side a
    /// no-op). The retained sample set becomes a deterministic
    /// proportional blend: each side contributes slots in proportion to
    /// its exact count (so the merged sample stays approximately uniform
    /// over the union stream), selected by this reservoir's seeded RNG —
    /// the same inputs always merge to the same sample set.
    ///
    /// Rebuild a merged reservoir from per-rank snapshots with
    /// [`Reservoir::from_parts`].
    pub fn merge(&mut self, other: &Reservoir) {
        self.merge_parts(&other.samples, other.count, other.sum, other.min, other.max);
    }

    /// [`Reservoir::merge`] from unpacked parts (a deserialized snapshot
    /// rather than a live reservoir). `min`/`max` must be the raw
    /// (±Inf-when-empty) values.
    pub fn merge_parts(&mut self, samples: &[f64], count: u64, sum: f64, min: f64, max: f64) {
        if count == 0 {
            return;
        }
        let total = self.count + count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        if self.samples.len() + samples.len() <= self.cap {
            self.samples.extend_from_slice(samples);
        } else {
            // Proportional allocation by exact counts, clamped to what
            // each side actually holds, then topped up so the merged set
            // fills the capacity whenever enough samples exist.
            let mut keep_self = ((self.cap as u128 * self.count as u128 / total as u128) as usize)
                .min(self.samples.len());
            let mut keep_other = (self.cap - keep_self).min(samples.len());
            keep_self = (self.cap - keep_other).min(self.samples.len());
            keep_other = (self.cap - keep_self).min(samples.len());
            let mut rng = self.rng;
            subsample(&mut self.samples, keep_self, &mut rng);
            let mut from_other = samples.to_vec();
            subsample(&mut from_other, keep_other, &mut rng);
            self.samples.append(&mut from_other);
            self.rng = rng;
        }
        self.count = total;
    }

    /// Rebuild a reservoir from snapshot parts (see
    /// [`Reservoir::merge_parts`] for the field contract).
    pub fn from_parts(
        cap: usize,
        seed: u64,
        samples: &[f64],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Self {
        let mut r = Reservoir::new(cap, seed);
        r.merge_parts(samples, count, sum, min, max);
        r
    }
}

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of an unsorted sample; 0 when
/// empty. The one percentile rule behind [`Reservoir::quantile`], metric
/// snapshots and the serving report.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    // total_cmp, not partial_cmp().unwrap(): a NaN sample (e.g. a poisoned
    // clock delta) must not panic the reporting path. NaN sorts above every
    // real value, so it can only inflate the top percentile.
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_cap_keeps_everything_in_order() {
        let mut r = Reservoir::new(8, 1);
        for v in [3.0, 1.0, 4.0] {
            r.record(v);
        }
        assert_eq!(r.samples(), &[3.0, 1.0, 4.0]);
        assert_eq!(r.count(), 3);
        assert_eq!(r.sum(), 8.0);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 4.0);
    }

    #[test]
    fn never_exceeds_cap_and_aggregates_stay_exact() {
        let mut r = Reservoir::new(64, 7);
        let n = 100_000u64;
        for i in 0..n {
            r.record(i as f64);
        }
        assert_eq!(r.samples().len(), 64);
        assert_eq!(r.count(), n);
        assert_eq!(r.sum(), (n * (n - 1) / 2) as f64);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), (n - 1) as f64);
        // Every retained sample really was in the stream.
        assert!(r.samples().iter().all(|&v| v >= 0.0 && v < n as f64));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(16, seed);
            for i in 0..10_000 {
                r.record(i as f64);
            }
            r.samples().to_vec()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // With 100k values in [0, 1) and cap 1000, the retained sample's
        // mean should sit near 0.5 — a loose sanity check that late
        // elements actually displace early ones.
        let mut r = Reservoir::new(1000, 99);
        let n = 100_000;
        for i in 0..n {
            r.record(i as f64 / n as f64);
        }
        let mean: f64 = r.samples().iter().sum::<f64>() / r.samples().len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn empty_reservoir_reports_zeros() {
        let r = Reservoir::new(4, 1);
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        assert!(r.samples().is_empty());
    }

    #[test]
    fn merge_preserves_exact_count_sum_and_extrema() {
        let mut a = Reservoir::new(32, 1);
        let mut b = Reservoir::new(32, 2);
        for i in 0..1000 {
            a.record(i as f64 * 0.5);
        }
        for i in 0..500 {
            b.record(1000.0 + i as f64 * 0.25);
        }
        let (ca, sa) = (a.count(), a.sum());
        let (cb, sb) = (b.count(), b.sum());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.sum(), sa + sb);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 1000.0 + 499.0 * 0.25);
        // The blended sample never exceeds capacity and every sample
        // really was in one of the streams.
        assert_eq!(a.samples().len(), 32);
        assert!(a.samples().iter().all(|&v| (0.0..=1124.75).contains(&v)));
    }

    #[test]
    fn merge_with_empty_sides_is_identity() {
        let mut a = Reservoir::new(8, 1);
        for v in [2.0, 4.0, 6.0] {
            a.record(v);
        }
        let before = a.samples().to_vec();
        a.merge(&Reservoir::new(8, 9)); // empty other: no-op
        assert_eq!(a.samples(), &before[..]);
        assert_eq!(a.count(), 3);

        let mut empty = Reservoir::new(8, 7);
        empty.merge(&a); // empty self: adopts other's aggregates exactly
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.sum(), 12.0);
        assert_eq!(empty.min(), 2.0);
        assert_eq!(empty.max(), 6.0);
    }

    #[test]
    fn merge_below_cap_keeps_every_sample() {
        let mut a = Reservoir::new(16, 1);
        let mut b = Reservoir::new(16, 2);
        for v in [1.0, 2.0] {
            a.record(v);
        }
        for v in [3.0, 4.0, 5.0] {
            b.record(v);
        }
        a.merge(&b);
        let mut s = a.samples().to_vec();
        s.sort_by(f64::total_cmp);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn merge_is_deterministic() {
        let build = || {
            let mut a = Reservoir::new(16, 5);
            let mut b = Reservoir::new(16, 6);
            for i in 0..200 {
                a.record(i as f64);
                b.record(1000.0 + i as f64);
            }
            a.merge(&b);
            a.samples().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn from_parts_round_trips_a_snapshot() {
        let mut a = Reservoir::new(8, 3);
        for i in 0..100 {
            a.record(i as f64);
        }
        let back = Reservoir::from_parts(
            a.capacity(),
            3,
            a.samples(),
            a.count(),
            a.sum(),
            a.raw_min(),
            a.raw_max(),
        );
        assert_eq!(back.count(), a.count());
        assert_eq!(back.sum(), a.sum());
        assert_eq!(back.min(), a.min());
        assert_eq!(back.max(), a.max());
        assert_eq!(back.samples(), a.samples());
    }

    #[test]
    fn quantile_is_nearest_rank_over_samples() {
        let mut r = Reservoir::new(16, 1);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.record(v);
        }
        assert_eq!(r.quantile(0.0), 1.0);
        assert_eq!(r.quantile(0.5), 3.0);
        assert_eq!(r.quantile(0.9), 5.0);
        assert_eq!(r.quantile(1.0), 5.0);
        assert_eq!(Reservoir::new(4, 1).quantile(0.5), 0.0);
    }

    #[test]
    fn nearest_rank_over_a_hundred_values() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 95.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn nearest_rank_survives_nan_samples() {
        // Regression: sort_by(partial_cmp().unwrap()) panicked here. NaN
        // must neither panic nor leak into the lower percentiles.
        let v = vec![3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(nearest_rank(&v, 0.50), 2.0);
        assert_eq!(nearest_rank(&v, 0.25), 1.0);
        assert!(nearest_rank(&v, 1.0).is_nan(), "NaN sorts to the top rank");
        assert!(nearest_rank(&[f64::NAN], 0.5).is_nan());
    }
}
