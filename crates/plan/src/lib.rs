//! `plan` — per-layer parallelism planner.
//!
//! The paper parallelizes every layer the same way: coalesce the batch
//! loop and split samples across threads. That is optimal when the batch
//! is at least as wide as the machine, but a batch-starved configuration
//! (small batch, many cores) leaves most of the team idle. Following the
//! "hidden dimensions" observation of Jia et al. (see `PAPERS.md`), layers
//! also expose *within-sample* parallel dimensions — output channels for
//! convolution — that can be split without changing the math.
//!
//! This crate searches, per layer, over the strategies the layer can
//! actually execute (`Layer::strategy_space`: `sample | channel:N`), prices
//! each candidate with the [`machine`] execution-model simulator on
//! rewritten work profiles ([`transform`]), and emits the winning schedule
//! as a versioned, checksummed `.plan` text artifact ([`format`]) that
//! `cgdnn train --plan` and `cgdnn infer --plan` load and execute.
//!
//! Execution semantics keep results bit-identical to the batch-only
//! baseline: splits apply to the forward pass only (each unit computes a
//! disjoint output block with the same flop order, see
//! `mmblas::level3`), and backward stays sample-split with the ordered
//! gradient merge. A plan therefore changes *where* work runs, never *what*
//! is computed — and a stale plan is rejected with a typed error naming the
//! offending layer rather than executing wrong.
//!
//! The search's output is a *projection* of the cost model, not a
//! prediction: its best projected gain (LeNet at 128 modeled threads,
//! ≈ 0.7 %) is far below the model's own step-time error.

pub mod format;
pub mod search;
pub mod transform;

pub use format::{
    apply_to_net, apply_to_net_lenient, plan_for_net, Plan, PlanEntry, PlanError, PLAN_VERSION,
};
pub use search::{calibrate_with_csv, project_secs, search, LayerChoice, SearchResult};
pub use transform::{transform_profile, transform_profiles};

use layers::strategy::LayerStrategy;

/// Render a per-layer report of a search result as an aligned text table:
/// chosen strategy, projected batch-only vs planned milliseconds.
pub fn report_table(result: &SearchResult) -> String {
    let name_w = result
        .layers
        .iter()
        .map(|l| l.name.len())
        .chain(["layer".len()])
        .max()
        .unwrap_or(5);
    let strat_w = result
        .layers
        .iter()
        .map(|l| l.strategy.to_string().len())
        .chain(["strategy".len()])
        .max()
        .unwrap_or(8);
    let mut out = format!(
        "{:name_w$}  {:strat_w$}  {:>14}  {:>12}  {:>8}\n",
        "layer", "strategy", "batch-only ms", "planned ms", "speedup"
    );
    for l in &result.layers {
        let speedup = if l.planned_secs > 0.0 {
            l.batch_only_secs / l.planned_secs
        } else {
            1.0
        };
        out.push_str(&format!(
            "{:name_w$}  {:strat_w$}  {:>14.3}  {:>12.3}  {:>7.2}x\n",
            l.name,
            l.strategy.to_string(),
            l.batch_only_secs * 1.0e3,
            l.planned_secs * 1.0e3,
            speedup
        ));
    }
    out.push_str(&format!(
        "{:name_w$}  {:strat_w$}  {:>14.3}  {:>12.3}  {:>7.2}x\n",
        "total",
        "",
        result.batch_only_secs * 1.0e3,
        result.planned_secs * 1.0e3,
        result.projected_speedup()
    ));
    out
}

/// Short tag for a strategy, usable as a metric label
/// (e.g. `plan.strategy.conv1.channel2`).
pub fn strategy_tag(s: LayerStrategy) -> String {
    match s {
        LayerStrategy::SampleSplit => "sample".into(),
        LayerStrategy::ChannelSplit { ways } => format!("channel{ways}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_table_shapes_up() {
        let r = SearchResult {
            strategies: vec![
                LayerStrategy::ChannelSplit { ways: 2 },
                LayerStrategy::SampleSplit,
            ],
            batch_only_secs: 2.0e-3,
            planned_secs: 1.0e-3,
            layers: vec![
                LayerChoice {
                    name: "conv1".into(),
                    layer_type: "Convolution".into(),
                    strategy: LayerStrategy::ChannelSplit { ways: 2 },
                    batch_only_secs: 1.5e-3,
                    planned_secs: 0.5e-3,
                },
                LayerChoice {
                    name: "ip1".into(),
                    layer_type: "InnerProduct".into(),
                    strategy: LayerStrategy::SampleSplit,
                    batch_only_secs: 0.5e-3,
                    planned_secs: 0.5e-3,
                },
            ],
        };
        let t = report_table(&r);
        assert!(t.starts_with("layer"), "{t}");
        assert!(t.contains("channel:2"), "{t}");
        assert!(t.contains("total"), "{t}");
        assert_eq!(r.non_sample_layers(), 1);
    }

    #[test]
    fn strategy_tags_are_metric_safe() {
        for (s, tag) in [
            (LayerStrategy::SampleSplit, "sample"),
            (LayerStrategy::ChannelSplit { ways: 2 }, "channel2"),
        ] {
            let t = strategy_tag(s);
            assert_eq!(t, tag);
            assert!(t.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }
}
