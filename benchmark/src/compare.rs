//! `compare A B`: hold two sets of recorded runs against the bounds in
//! `BENCHMARK.json`, one row per (workload, metric).

use crate::schema::Contract;
use crate::stats;
use obs::json::Value;
use std::collections::BTreeMap;

/// `(workload, metric)` → values, one per recorded run.
type Cells = BTreeMap<(String, String), Vec<f64>>;

/// The runs of one `--out` file, split by mode.
struct RunSet {
    end_to_end: Cells,
    per_layer: Cells,
    failed_ops: u64,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet {
        end_to_end: Cells::new(),
        per_layer: Cells::new(),
        failed_ops: 0,
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let record = obs::json::parse(line).map_err(|e| bad(&e))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let traced = record.get("trace").and_then(Value::as_f64) == Some(1.0);
        set.failed_ops += record.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let Some(Value::Object(metrics)) = record.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let cells = if traced {
            &mut set.per_layer
        } else {
            &mut set.end_to_end
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            cells
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// How a cell of set B stands against set A.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    /// The run-to-run spread of either set exceeds the bound: the data
    /// cannot tell a regression from noise, which is not "unchanged".
    Unresolved,
}

/// Judge one end-to-end cell. `worse` is B's median change in the losing
/// direction as a share of A's median; the spread of a single-run set is
/// unknown and taken as zero.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma;
    let spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 2)
        .map(|v| stats::relative_spread(v))
        .fold(0.0, f64::max);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (worse, spread, verdict)
}

/// Print the comparison; `Ok(true)` when nothing regressed and no op failed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let contract = Contract::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    for ((workload, metric), va) in &a.end_to_end {
        let Some(vb) = b.end_to_end.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (_, _, better, bound) = contract
            .end_to_end
            .iter()
            .find(|(n, ..)| n == metric)
            .ok_or_else(|| format!("'{metric}' is not an end-to-end metric of BENCHMARK.json"))?;
        let (worse, spread, verdict) = judge(va, vb, better == "lower", *bound);
        ok &= verdict != Verdict::Regressed;
        println!(
            "{workload:<16} {metric:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.0}%  {}",
            stats::median(va),
            stats::median(vb),
            100.0 * worse,
            100.0 * spread,
            100.0 * bound,
            match verdict {
                Verdict::Within => "within bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    // Per-layer metrics carry no bound: show where they moved.
    for ((workload, metric), va) in &a.per_layer {
        if let Some(vb) = b.per_layer.get(&(workload.clone(), metric.clone())) {
            let (ma, mb) = (stats::median(va), stats::median(vb));
            println!(
                "{workload:<16} {metric:<40} {ma:>14.4} {mb:>14.4} {:>+8.2}%",
                100.0 * (mb - ma) / ma
            );
        }
    }
    for (path, set) in [(path_a, &a), (path_b, &b)] {
        if set.failed_ops > 0 {
            println!("{path}: {} failed ops", set.failed_ops);
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Higher-is-better metric that fell 20 % against a 10 % bound.
        let b = [80.0, 80.5, 79.5, 80.0, 80.2];
        assert_eq!(judge(&a, &b, false, 0.10).2, Verdict::Regressed);
        // The same fall on a lower-is-better metric is a gain.
        assert_eq!(judge(&a, &b, true, 0.10).2, Verdict::Within);
        // A 3 % move inside a 10 % bound.
        let c = [97.0, 97.5, 96.5, 97.0, 97.2];
        assert_eq!(judge(&a, &c, false, 0.10).2, Verdict::Within);
        // Noise wider than the bound hides any verdict.
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(judge(&a, &noisy, false, 0.10).2, Verdict::Unresolved);
    }
}
