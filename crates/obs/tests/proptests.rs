//! Property-based tests for the snapshot wire format and the
//! snapshot/delta/merge algebra behind cross-rank aggregation.
//!
//! All generated sample values are dyadic rationals (multiples of 0.5 with
//! small magnitude), so every f64 sum, difference, and re-accumulation in
//! these properties is exact — bit-equality assertions are legitimate.

use obs::{MetricValue, Registry, Snapshot};
use proptest::prelude::*;

const BOUNDS: [f64; 3] = [1.0, 16.0, 256.0];

fn dyadic(raw: &[u32]) -> Vec<f64> {
    raw.iter().map(|&v| v as f64 * 0.5).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_bytes_round_trip_exactly(
        count in 0u64..10_000,
        gauge_raw in 0u32..4096,
        hist_raw in proptest::collection::vec(0u32..1024, 0..40),
    ) {
        let reg = Registry::new();
        reg.counter("p.count").add(count);
        reg.gauge("p.gauge").set(gauge_raw as f64 * 0.5);
        let h = reg.histogram("p.hist", &BOUNDS);
        for v in dyadic(&hist_raw) {
            h.observe(v);
        }
        reg.histogram("p.empty", &BOUNDS);
        let snap = reg.snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes());
        prop_assert_eq!(decoded.as_ref(), Ok(&snap));

        // The codec must reject, not misread, a damaged payload: dropping
        // the last byte truncates, appending one leaves trailing garbage.
        let bytes = snap.to_bytes();
        prop_assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert!(Snapshot::from_bytes(&longer).is_err());
    }

    #[test]
    fn merging_baseline_plus_delta_equals_merging_full_snapshot(
        base_count in 0u64..100,
        extra_count in 0u64..100,
        base_raw in proptest::collection::vec(0u32..1024, 0..30),
        extra_raw in proptest::collection::vec(0u32..1024, 0..30),
        gauge_raw in 0u32..4096,
    ) {
        // A worker's life: some activity before the baseline snapshot
        // (solo warm-up), more activity after, then ship either the delta
        // on top of an earlier baseline fold or the full snapshot at once.
        // Both roads must leave the coordinator registry identical, for
        // every metric kind.
        let worker = Registry::new();
        worker.counter("w.steps").add(base_count);
        worker.gauge("w.loss").set(-1.0);
        let h = worker.histogram("w.step_us", &BOUNDS);
        for v in dyadic(&base_raw) {
            h.observe(v);
        }
        let baseline = worker.snapshot();

        worker.counter("w.steps").add(extra_count);
        worker.gauge("w.loss").set(gauge_raw as f64 * 0.5);
        for v in dyadic(&extra_raw) {
            h.observe(v);
        }
        let full = worker.snapshot();
        let delta = full.delta(&baseline);

        let incremental = Registry::new();
        incremental.merge(&baseline, "r3.").map_err(TestCaseError::fail)?;
        incremental.merge(&delta, "r3.").map_err(TestCaseError::fail)?;
        let direct = Registry::new();
        direct.merge(&full, "r3.").map_err(TestCaseError::fail)?;
        prop_assert_eq!(incremental.snapshot(), direct.snapshot());

        // Self-delta is the zero element: folding it changes nothing.
        let zero = full.delta(&full);
        if let Some(MetricValue::Counter(n)) = zero.get("w.steps") {
            prop_assert_eq!(*n, 0u64);
        } else {
            prop_assert!(false, "w.steps missing from self-delta");
        }
        direct.merge(&zero, "r3.").map_err(TestCaseError::fail)?;
        prop_assert_eq!(incremental.snapshot(), direct.snapshot());
    }

    #[test]
    fn histogram_quantile_is_bounded_and_monotone(
        raw in proptest::collection::vec(0u32..4096, 1..60),
        q_raw in (0u32..101, 0u32..101),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("q.hist", &BOUNDS);
        let vals = dyadic(&raw);
        for &v in &vals {
            h.observe(v);
        }
        let (mut lo, mut hi) = (q_raw.0 as f64 / 100.0, q_raw.1 as f64 / 100.0);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let (min, max) = (h.min(), h.max());
        for q in [0.0, lo, hi, 1.0] {
            let est = h.quantile(q);
            prop_assert!(
                (min..=max).contains(&est),
                "quantile({q}) = {est} outside [{min}, {max}]"
            );
        }
        prop_assert!(h.quantile(lo) <= h.quantile(hi), "quantile not monotone");
        prop_assert_eq!(h.quantile(0.0), min);
        prop_assert_eq!(h.quantile(1.0), max);
    }
}
