//! End-to-end tests for the per-layer parallelism planner: strategy search
//! on a batch-starved net, `.plan` artifact round-trips, stale-plan
//! rejection with typed errors, and the execution guarantee — applying any
//! valid plan leaves forward outputs and training trajectories bit-identical
//! to batch-only execution.

mod common;

use cgdnn::plan::{self, Plan, PlanError};
use cgdnn::prelude::*;
use layers::LayerStrategy;
use machine::CpuModel;

use common::{mixed_strategies, tiny_net};

#[test]
fn search_picks_a_split_for_a_batch_starved_net() {
    // Batch 8 on a 128-core node: sample-splitting alone leaves 120 cores
    // idle, so the search must move at least one layer off SampleSplit and
    // project a strictly better step time.
    let net = tiny_net(5);
    let model = CpuModel::scaled_node(8, 16);
    let result = plan::search(
        &net.profiles(),
        &net.layer_strategy_spaces(),
        &model,
        128,
        4,
    );
    assert!(
        result.non_sample_layers() > 0,
        "batch-starved net must pick at least one non-sample strategy"
    );
    assert!(
        result.planned_secs < result.batch_only_secs,
        "planned {} must beat batch-only {}",
        result.planned_secs,
        result.batch_only_secs
    );
    assert!(result.projected_speedup() > 1.0);
}

#[test]
fn search_never_projects_worse_than_batch_only() {
    // On a small node with a healthy batch the search may keep everything
    // sample-split — but it must never project a slowdown, because
    // SampleSplit is always in the candidate space.
    let net = tiny_net(5);
    let model = CpuModel::xeon_e5_2667v2();
    for threads in [1, 4, 12] {
        let r = plan::search(
            &net.profiles(),
            &net.layer_strategy_spaces(),
            &model,
            threads,
            2,
        );
        assert!(
            r.planned_secs <= r.batch_only_secs,
            "threads={threads}: planned {} > batch-only {}",
            r.planned_secs,
            r.batch_only_secs
        );
    }
}

#[test]
fn plan_artifact_round_trips_through_emit_and_parse() {
    let net = tiny_net(5);
    let strategies = mixed_strategies(&net);
    let p = plan::plan_for_net(&net, &strategies, 128, "scaled:8x16");
    let text = p.emit();
    let back = Plan::parse(&text).expect("emitted plan parses");
    assert_eq!(back, p);
    assert!(back.non_sample_layers() > 0);
}

#[test]
fn corrupted_and_malformed_plans_fail_with_typed_errors() {
    let net = tiny_net(5);
    let p = plan::plan_for_net(&net, &mixed_strategies(&net), 8, "xeon");
    let text = p.emit();

    // Flip one byte of the net name — still parseable, so only the CRC
    // trailer can catch it.
    let corrupted = text.replacen("net tiny_lenet", "net tinY_lenet", 1);
    assert_ne!(corrupted, text, "corruption must actually hit a byte");
    assert!(matches!(
        Plan::parse(&corrupted),
        Err(PlanError::Crc { .. })
    ));

    // Future format version: typed rejection, not a parse panic.
    let vers = text.replacen("CGPLAN v1", "CGPLAN v9", 1);
    assert!(matches!(Plan::parse(&vers), Err(PlanError::Version { .. })));

    // Truncation mid-line is a parse error with a line number.
    let cut = &text[..text.len() / 2];
    match Plan::parse(cut) {
        Err(PlanError::Parse { line, .. }) => assert!(line > 0),
        Err(PlanError::Crc { .. }) => {} // cut exactly between lines
        other => panic!("want Parse or Crc error, got {other:?}"),
    }
}

#[test]
fn retired_strategy_tokens_are_parse_errors_naming_the_space() {
    // Older builds also emitted `output:N` (inner product) and `replicate`.
    // Such a line is rejected where it stands, before the checksum is read.
    let net = tiny_net(5);
    let text = plan::plan_for_net(&net, &mixed_strategies(&net), 8, "xeon").emit();
    let ip1 = text
        .lines()
        .position(|l| l.starts_with("layer ip1 "))
        .expect("the plan names ip1");
    for retired in ["output:2", "replicate"] {
        let old = text.replacen(
            "layer ip1 InnerProduct 0 sample",
            &format!("layer ip1 InnerProduct 0 {retired}"),
            1,
        );
        assert_ne!(old, text, "the ip1 line must actually change");
        match Plan::parse(&old) {
            Err(PlanError::Parse { line, msg }) => {
                assert_eq!(line, ip1 + 1, "{msg}");
                assert!(
                    msg.contains(retired) && msg.contains("sample | channel:N"),
                    "{msg}"
                );
            }
            other => panic!("{retired}: want a Parse error, got {other:?}"),
        }
    }
}

#[test]
fn stale_plans_are_rejected_with_the_layer_named() {
    let net = tiny_net(5);
    let good = plan::plan_for_net(&net, &mixed_strategies(&net), 8, "xeon");

    // A layer the net no longer has.
    let mut renamed = good.clone();
    renamed.entries[1].name = "conv_gone".to_string();
    let mut target = tiny_net(5);
    match plan::apply_to_net(&renamed, &mut target) {
        Err(PlanError::UnknownLayer { layer }) => assert_eq!(layer, "conv_gone"),
        other => panic!("want UnknownLayer, got {other:?}"),
    }

    // A layer whose split extent changed since planning time.
    let mut resized = good.clone();
    let idx = resized
        .entries
        .iter()
        .position(|e| e.extent > 0)
        .expect("some layer has a split extent");
    resized.entries[idx].extent += 1;
    let mut target = tiny_net(5);
    match plan::apply_to_net(&resized, &mut target) {
        Err(PlanError::LayerMismatch { layer, field, .. }) => {
            assert_eq!(layer, resized.entries[idx].name);
            assert_eq!(field, "extent");
        }
        other => panic!("want LayerMismatch, got {other:?}"),
    }
    let msg = plan::apply_to_net(&resized, &mut tiny_net(5))
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("stale"),
        "error should say the plan is stale: {msg}"
    );

    // A strategy outside the layer's executable space.
    let mut unsupported = good.clone();
    unsupported.entries[idx].strategy = LayerStrategy::ChannelSplit { ways: 7919 };
    let mut target = tiny_net(5);
    match plan::apply_to_net(&unsupported, &mut target) {
        Err(PlanError::Unsupported { layer, .. }) => {
            assert_eq!(layer, unsupported.entries[idx].name);
        }
        other => panic!("want Unsupported, got {other:?}"),
    }

    // Validation is atomic: the failed applies must not have touched any
    // layer's strategy.
    assert!(target
        .layer_strategies()
        .iter()
        .all(|s| *s == LayerStrategy::SampleSplit));
}

#[test]
fn planned_forward_is_bit_identical_to_batch_only() {
    let strategies = mixed_strategies(&tiny_net(5));
    for threads in [1usize, 2, 3, 4] {
        let team = ThreadTeam::new(threads);
        let run = RunConfig::default();

        let mut base = tiny_net(5);
        let loss_base = base.forward(&team, &run);

        let mut planned = tiny_net(5);
        let p = plan::plan_for_net(&planned, &strategies, threads, "test");
        plan::apply_to_net(&p, &mut planned).expect("fresh plan applies");
        assert!(p.non_sample_layers() > 0, "plan must actually split layers");
        let loss_planned = planned.forward(&team, &run);

        assert_eq!(
            loss_base.to_bits(),
            loss_planned.to_bits(),
            "threads={threads}: planned loss differs"
        );
        for name in base.output_names() {
            let a = base.blob(name).unwrap().data();
            let b = planned.blob(name).unwrap().data();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "threads={threads}: blob {name}[{i}] differs"
                );
            }
        }
    }
}

#[test]
fn fixed_plan_training_is_deterministic_and_matches_no_plan() {
    let strategies = mixed_strategies(&tiny_net(5));
    let train = |threads: usize, with_plan: bool| -> Vec<f32> {
        let mut net = tiny_net(5);
        if with_plan {
            let p = plan::plan_for_net(&net, &strategies, threads, "test");
            plan::apply_to_net(&p, &mut net).expect("fresh plan applies");
        }
        let team = ThreadTeam::new(threads);
        let run = RunConfig {
            reduction: ReductionMode::Canonical { groups: 16 },
            ..RunConfig::default()
        };
        let mut solver: Solver<f32> = Solver::new(SolverConfig::lenet());
        solver.train(&mut net, &team, &run, 3)
    };

    let reference = train(1, false);
    for threads in [1usize, 2, 4] {
        let planned = train(threads, true);
        assert_eq!(
            reference, planned,
            "threads={threads}: fixed plan changed the loss trajectory"
        );
    }
    // And re-running the same plan reproduces itself exactly.
    assert_eq!(train(2, true), train(2, true));
}
