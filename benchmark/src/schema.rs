//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` at the repository root lists the same names; the test
//! below keeps the two in step.

use crate::corpus::NetKind;
use std::collections::BTreeMap;

/// Metric name → measured value.
pub type Metrics = BTreeMap<String, f64>;

/// The five workloads. See `benchmark/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainLenet,
    TrainCifar,
    ServeUnary,
    ServePipelined,
    DistLenet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainLenet,
        Workload::TrainCifar,
        Workload::ServeUnary,
        Workload::ServePipelined,
        Workload::DistLenet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainLenet => "train_lenet",
            Workload::TrainCifar => "train_cifar",
            Workload::ServeUnary => "serve_unary",
            Workload::ServePipelined => "serve_pipelined",
            Workload::DistLenet => "dist_lenet",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics as `(name, unit)`; every workload reports all four.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Unit of a per-layer metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    const SUFFIX_UNITS: [(&str, &str); 16] = [
        ("_ms", "ms"),
        ("_ms_p90", "ms"),
        ("_ms_mean", "ms"),
        ("_us", "us"),
        ("_us_p50", "us"),
        ("_us_p99", "us"),
        ("_us_mean", "us"),
        ("_us_per_sample", "us"),
        ("_ns", "ns"),
        ("_bytes", "B"),
        ("_per_step", "B"),
        (".bytes_per_req", "B"),
        (".gflops", "GFLOP/s"),
        (".gbps", "GB/s"),
        ("_share", "ratio"),
        ("_pct", "%"),
    ];
    const COUNTS: [&str; 3] = ["mean_batch", "loop_wakeups_per_req", "trace_events_per_op"];
    const FACTORS: [&str; 2] = ["speedup_nt", "region_imbalance"];
    if COUNTS.iter().any(|s| name.ends_with(s)) {
        "count"
    } else if FACTORS.iter().any(|s| name.ends_with(s)) {
        "x"
    } else {
        SUFFIX_UNITS
            .iter()
            .find(|(suffix, _)| name.ends_with(suffix))
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("per-layer metric '{name}' has no unit rule"))
    }
}

/// Every per-layer metric as `(name, unit)`, grouped by the crate (layer)
/// the name starts with. A traced run reports exactly these.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<String> = Vec::new();
    for kind in NetKind::ALL {
        let net = kind.tag();
        names.push(format!("datasets.{net}.fill_us_per_sample"));
        for layer in kind.gemm_layers() {
            for pass in layer.passes() {
                names.push(format!("mmblas.{net}_{}_{}.gflops", layer.name, pass.tag()));
            }
            if layer.geometry().is_some() {
                names.push(format!("mmblas.im2col.{net}_{}.gbps", layer.name));
                if layer.propagates {
                    names.push(format!("mmblas.col2im.{net}_{}.gbps", layer.name));
                }
            }
        }
        for (i, layer) in kind.layers().iter().enumerate() {
            names.push(format!("layers.{net}.{layer}.fwd_ms"));
            // The data layer has no backward pass.
            if i > 0 {
                names.push(format!("layers.{net}.{layer}.bwd_ms"));
            }
        }
        for metric in [
            "net.{}.fwd_share",
            "net.{}.bwd_share",
            "solvers.{}.update_ms",
            "core.{}.attributed_share",
            "core.{}.step_ms_p90",
            "core.{}.speedup_nt",
            "machine.{}.step_pred_err_pct",
            "omprt.{}.ordered_wait_share",
            "omprt.{}.region_imbalance",
        ] {
            names.push(metric.replace("{}", net));
        }
    }
    for mode in ["unary", "pipelined"] {
        names.push(format!("serve.{mode}.mean_batch"));
        names.push(format!("serve.{mode}.queue_wait_us_mean"));
        names.push(format!("serve.{mode}.attributed_share"));
        names.push(format!("rpc.{mode}.loop_wakeups_per_req"));
        names.push(format!("rpc.{mode}.rtt_us_p99"));
    }
    names.extend(
        [
            "net.snapshot_encode_ms",
            "net.snapshot_decode_ms",
            "net.snapshot_bytes",
            "serve.engine_b1_us",
            "serve.engine_b8_us",
            "serve.engine_b16_us",
            "serve.inproc_rtt_us_p50",
            "rpc.frame_encode_ns",
            "rpc.frame_decode_ns",
            "rpc.connect_hello_us",
            "rpc.wire_overhead_us_p50",
            "rpc.bytes_per_req",
            "dist.param_bytes_per_step",
            "dist.grad_bytes_per_step",
            "dist.broadcast_ms",
            "dist.collect_ms",
            "dist.reduce_ms_mean",
            "dist.update_ms",
            "dist.worker_compute_ms",
            "dist.step_ms_p90",
            "dist.comm_share",
            "dist.attributed_share",
            "obs.trace_overhead_pct",
            "obs.trace_events_per_op",
        ]
        .map(String::from),
    );
    names
        .into_iter()
        .map(|n| {
            let unit = unit_of(&n);
            (n, unit)
        })
        .collect()
}

/// Pair every expected name with its measured value; a missing or an
/// unexpected name is a harness bug and fails the run.
pub fn collect(
    expected: &[(String, &'static str)],
    measured: &Metrics,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    if let Some(extra) = measured
        .keys()
        .find(|k| !expected.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "metric '{extra}' is measured but not in the schema"
        ));
    }
    expected
        .iter()
        .map(|(name, unit)| match measured.get(name) {
            Some(v) if v.is_finite() => Ok((name.clone(), *v, *unit)),
            Some(v) => Err(format!("metric '{name}' is not finite ({v})")),
            None => Err(format!("metric '{name}' was not measured")),
        })
        .collect()
}

/// `END_TO_END` in the owned form [`collect`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

/// The parts of `BENCHMARK.json` the harness reads back.
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Contract {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        use obs::json::Value;
        let root = obs::json::parse(text)?;
        let list = |key: &str| match root.get(key) {
            Some(Value::Array(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: '{key}' is not an array")),
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a '{key}' string"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json: end-to-end metric without a bound")?;
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                    bound,
                ))
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        Ok(Self {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Load the `BENCHMARK.json` this package was built beside.
    pub fn load() -> Result<Self, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_fit_the_contract_limits() {
        let layer = per_layer();
        assert!(Workload::ALL.len() <= 8 && END_TO_END.len() <= 16);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = std::collections::BTreeSet::new();
        let all = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .chain(layer.iter().map(|(n, _)| n.clone()));
        for name in all {
            assert!(well_formed(&name), "malformed name '{name}'");
            assert!(seen.insert(name.clone()), "name '{name}' used twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names_and_units() {
        let contract = Contract::load().unwrap();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, workloads);
        let e2e: Vec<(&str, &str)> = contract
            .end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        for (_, _, better, bound) in &contract.end_to_end {
            assert!(better == "higher" || better == "lower");
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(contract.per_layer, layer);
    }

    #[test]
    fn collect_rejects_missing_extra_and_non_finite() {
        let expected = vec![("a".to_string(), "ms")];
        let mut m = Metrics::new();
        assert!(collect(&expected, &m).is_err());
        m.insert("a".into(), f64::NAN);
        assert!(collect(&expected, &m).is_err());
        m.insert("a".into(), 1.5);
        assert_eq!(
            collect(&expected, &m).unwrap(),
            vec![("a".to_string(), 1.5, "ms")]
        );
        m.insert("b".into(), 1.0);
        assert!(collect(&expected, &m).is_err());
    }
}
