//! Fault-injection recovery tests: torn checkpoint writes, crashes inside
//! the commit window, corrupt files on disk, poisoned weights, and serve
//! replicas panicking mid-batch. Gated behind the `fault-inject` feature
//! because the injection registry is process-global state:
//!
//! ```text
//! cargo test --features fault-inject --test fault_injection
//! ```

#![cfg(feature = "fault-inject")]

mod common;

use cgdnn::checkpoint::{train_with_checkpoints, CheckpointDir, TrainEvent, GUARD_WINDOW};
use cgdnn::prelude::*;
use common::tiny_net;
use net::faults::{arm, disarm_all, FaultMode};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

// The fault registry is process-global; these tests must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disarm_all();
    g
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cgdnn-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn trainer() -> CoarseGrainTrainer<f32> {
    CoarseGrainTrainer::new(tiny_net(7), SolverConfig::lenet(), 2)
}

#[test]
fn torn_write_leaves_last_good_checkpoint_resumable() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("torn"));
    let mut t = trainer();
    t.train(2);
    dir.save(&t).unwrap();
    t.train(2);
    // The next write dies halfway through the temp file, before the rename.
    arm("checkpoint.partial", FaultMode::Error, 0);
    let e = dir.save(&t).unwrap_err();
    assert!(e.to_string().contains("injected"), "got: {e}");

    let mut fresh = trainer();
    let outcome = dir.resume_latest(&mut fresh).unwrap();
    assert_eq!(outcome.iteration, 2, "manifest still points at iteration 2");
    assert!(
        outcome.skipped.is_empty(),
        "no corrupt files were published"
    );
    let _ = std::fs::remove_dir_all(dir.path());
}

#[test]
fn crash_in_commit_window_resumes_from_previous_manifest() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("commit"));
    let mut t = trainer();
    t.train(2);
    dir.save(&t).unwrap();
    t.train(2);
    // Die after the checkpoint file is durable but before the manifest
    // update — the crash window the save ordering is designed around.
    arm("checkpoint.commit", FaultMode::Error, 0);
    assert!(dir.save(&t).is_err());

    let mut fresh = trainer();
    let outcome = dir.resume_latest(&mut fresh).unwrap();
    assert_eq!(outcome.iteration, 2, "unpublished checkpoint is invisible");

    // After the 'crash', a re-save publishes iteration 4 normally.
    dir.save(&t).unwrap();
    let mut fresh2 = trainer();
    assert_eq!(dir.resume_latest(&mut fresh2).unwrap().iteration, 4);
    let _ = std::fs::remove_dir_all(dir.path());
}

#[test]
fn truncated_newest_checkpoint_falls_back_with_a_warning() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("trunc"));
    let mut t = trainer();
    t.train(1);
    dir.save(&t).unwrap();
    t.train(1);
    let newest = dir.save(&t).unwrap();
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();

    let mut fresh = trainer();
    let outcome = dir.resume_latest(&mut fresh).unwrap();
    assert_eq!(outcome.iteration, 1);
    assert_eq!(outcome.skipped.len(), 1);
    assert_eq!(outcome.skipped[0].0, newest);
    let _ = std::fs::remove_dir_all(dir.path());
}

#[test]
fn divergence_guard_rolls_back_poisoned_run_to_completion() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("poison"));
    let mut t = trainer();
    // Corrupt a weight to NaN right after the guard's window has filled:
    // the loss reads NaN. With checkpoints every 4 iterations the guard
    // must roll back to the window's last step, drop the LR, and still
    // finish all the iterations.
    let window = GUARD_WINDOW as u64;
    arm("train.poison", FaultMode::Error, GUARD_WINDOW as u32);
    let n = GUARD_WINDOW + 4;
    let report = train_with_checkpoints(&mut t, n, &dir, 4, |_, _| {}).unwrap();
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.losses.len(), n, "realized trajectory is complete");
    assert!(
        report.losses.iter().all(|l| l.is_finite() && *l < 20.0),
        "the poisoned iteration was replaced by its replay: {:?}",
        report.losses
    );
    assert_eq!(t.solver().iteration(), n as u64);
    assert!(
        t.solver().lr_scale() < 1.0,
        "rollback must have dropped the LR"
    );
    let mut saw_divergence = false;
    let mut saw_rollback = false;
    for e in &report.events {
        match e {
            TrainEvent::Divergence { iteration, loss } => {
                saw_divergence = true;
                assert_eq!(*iteration, window + 1);
                assert!(loss.is_nan(), "poisoned loss reads NaN: {loss}");
            }
            TrainEvent::Rollback { to_iteration, .. } => {
                saw_rollback = true;
                assert_eq!(*to_iteration, window);
            }
            TrainEvent::Checkpoint { .. } => {}
        }
    }
    assert!(saw_divergence && saw_rollback);
    let log = std::fs::read_to_string(dir.path().join("training.log")).unwrap();
    assert!(log.contains("divergence:") && log.contains("rollback:"));
    let _ = std::fs::remove_dir_all(dir.path());
}

#[test]
fn nan_loss_rolls_back_instead_of_erroring() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("nan-loss"));
    let mut t = trainer();
    // A NaN weight before the third step makes its loss NaN, before the
    // window has filled: the guard's finiteness test alone must roll the
    // run back to iteration 2.
    arm("train.poison", FaultMode::Error, 2);
    let report = train_with_checkpoints(&mut t, 4, &dir, 2, |_, _| {}).unwrap();
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.losses.len(), 4);
    assert!(
        report.losses.iter().all(|l| l.is_finite()),
        "{:?}",
        report.losses
    );
    let diverged: Vec<_> = report
        .events
        .iter()
        .filter(|e| !matches!(e, TrainEvent::Checkpoint { .. }))
        .collect();
    assert!(
        matches!(
            diverged[..],
            [
                TrainEvent::Divergence { iteration: 3, loss },
                TrainEvent::Rollback { from_iteration: 3, to_iteration: 2, lr_scale },
            ] if loss.is_nan() && *lr_scale == 0.5
        ),
        "{diverged:?}"
    );
    assert_eq!(t.solver().iteration(), 4);
    let _ = std::fs::remove_dir_all(dir.path());
}

#[test]
fn commit_window_crash_orphan_is_swept_by_the_next_save() {
    let _g = guard();
    let dir = CheckpointDir::new(tmp("orphan-sweep"));
    let mut t = trainer();
    t.train(2);
    dir.save(&t).unwrap();
    t.train(2);
    // Crash in the commit window: ckpt-00000004.cgdn is durable on disk,
    // but no manifest will ever point at it.
    arm("checkpoint.commit", FaultMode::Error, 0);
    assert!(dir.save(&t).is_err());
    let orphan = dir.path().join("ckpt-00000004.cgdn");
    assert!(orphan.exists(), "the crash left a durable unlisted file");

    // 'Restart': resume from the manifest (iteration 2), make different
    // progress so the orphan's name is never re-used, and save.
    let mut resumed = trainer();
    assert_eq!(dir.resume_latest(&mut resumed).unwrap().iteration, 2);
    resumed.train(1);
    dir.save(&resumed).unwrap();

    assert!(!orphan.exists(), "next save swept the orphan");
    // Every ckpt file on disk is manifest-listed, and vice versa.
    let listed: Vec<String> = dir
        .entries()
        .unwrap()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let mut on_disk: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| {
            let n = e.unwrap().file_name().to_string_lossy().into_owned();
            (n.starts_with("ckpt-") && n.ends_with(".cgdn")).then_some(n)
        })
        .collect();
    on_disk.sort();
    let mut listed_sorted = listed.clone();
    listed_sorted.sort();
    assert_eq!(
        on_disk, listed_sorted,
        "manifest is the sole source of truth"
    );
    let _ = std::fs::remove_dir_all(dir.path());
}

/// Replicas of the tiny net: 144-value samples, 10 outputs, batches of 4.
fn tiny_factory() -> serve::EngineFactory<f32> {
    let spec = NetSpec::parse(common::TINY_SPEC).unwrap();
    serve::EngineFactory::<f32>::new(
        &spec,
        &Shape::from([1usize, 12, 12]),
        &serve::EngineConfig {
            max_batch: 4,
            n_threads: 1,
        },
        None,
    )
    .unwrap()
}

/// Poll until `healthy_replicas` reads `n`, for at most 5 s.
fn await_healthy(metrics: &serve::ServingMetrics, n: f64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.healthy_replicas.get() != n {
        assert!(
            Instant::now() < deadline,
            "healthy_replicas did not reach {n} within 5 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn supervisor_restores_killed_replica_with_bit_identical_outputs() {
    let _g = guard();
    let factory = tiny_factory();

    // Reference: a never-killed engine sharing the factory's weights.
    let mut reference = factory.build().unwrap();
    let samples: Vec<Vec<f32>> = (0..6).map(|i| vec![0.07 * (i + 1) as f32; 144]).collect();
    let expected: Vec<Vec<f32>> = samples
        .iter()
        .map(|s| reference.infer_one(s).unwrap())
        .collect();

    let server = serve::Server::start_supervised(
        factory,
        2,
        serve::BatchPolicy::default(),
        serve::RestartBudget::default(),
    )
    .unwrap();
    let metrics = server.metrics();
    assert_eq!(metrics.healthy_replicas.get(), 2.0);

    // Kill one replica mid-batch: the in-flight request errors, the
    // worker retires, and the gauge drops.
    arm("serve.worker", FaultMode::Panic, 0);
    let e = server.infer(&samples[0]).unwrap_err();
    assert!(matches!(e, serve::ServeError::Replica(_)), "got: {e}");

    // The worker rebuilds its engine in place, right after answering.
    await_healthy(&metrics, 2.0);
    assert_eq!(metrics.replica_restarts.get(), 1);

    // Post-restart outputs are bit-identical to the never-killed
    // reference: the rebuilt engine adopted the same shared weight copy.
    for (s, want) in samples.iter().zip(&expected) {
        let got = server.infer(s).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "bits differ after restart");
    }
    let report = server.shutdown();
    assert_eq!(report.healthy_replicas, 2);
    assert_eq!(report.replica_restarts, 1);
    assert!(metrics
        .registry()
        .csv()
        .contains("serve.replica_restarts,1\n"));
}

#[test]
fn serve_worker_panic_degrades_but_does_not_kill_the_server() {
    let _g = guard();
    let engines = tiny_factory().build_n(2).unwrap();
    let server = serve::Server::start(engines, serve::BatchPolicy::default()).unwrap();
    let metrics = server.metrics();
    assert_eq!(metrics.healthy_replicas.get(), 2.0);

    // The first batch executed anywhere panics its replica mid-inference.
    arm("serve.worker", FaultMode::Panic, 0);
    let e = server.infer(&[0.3; 144]).unwrap_err();
    assert!(
        matches!(e, serve::ServeError::Replica(_)),
        "in-flight request gets an explicit error, not a hangup: {e}"
    );
    assert_eq!(
        metrics.healthy_replicas.get(),
        1.0,
        "panicked replica retired"
    );

    // The surviving replica keeps serving the queue.
    for i in 0..6 {
        let out = server.infer(&[0.1 * i as f32; 144]).unwrap();
        assert_eq!(out.len(), 10);
    }
    let report = server.shutdown();
    assert_eq!(report.healthy_replicas, 1);
    assert_eq!(report.replica_errors.iter().sum::<u64>(), 1);
    assert_eq!(report.completed, 6);
}

#[test]
fn exhausted_restart_budget_leaves_the_replica_retired() {
    let _g = guard();
    let server = serve::Server::start_supervised(
        tiny_factory(),
        2,
        serve::BatchPolicy::default(),
        serve::RestartBudget::new(1, Duration::from_secs(60)),
    )
    .unwrap();
    let metrics = server.metrics();

    // The first panic charges the budget's one restart: rebuilt in place.
    arm("serve.worker", FaultMode::Panic, 0);
    let e = server.infer(&[0.3; 144]).unwrap_err();
    assert!(matches!(e, serve::ServeError::Replica(_)), "got: {e}");
    await_healthy(&metrics, 2.0);

    // The second finds the budget spent: that replica stays retired, and
    // the survivor serves the queue.
    arm("serve.worker", FaultMode::Panic, 0);
    let e = server.infer(&[0.3; 144]).unwrap_err();
    assert!(matches!(e, serve::ServeError::Replica(_)), "got: {e}");
    for i in 0..6 {
        let out = server.infer(&[0.1 * i as f32; 144]).unwrap();
        assert_eq!(out.len(), 10);
    }
    assert_eq!(metrics.healthy_replicas.get(), 1.0);
    let report = server.shutdown();
    assert_eq!(report.healthy_replicas, 1);
    assert_eq!(report.replica_restarts, 1);
    assert_eq!(report.replica_errors.iter().sum::<u64>(), 2);
    assert_eq!(report.completed, 6);
    assert!(metrics
        .registry()
        .csv()
        .contains("serve.replica_restarts,1\n"));
}

/// A replica panic answers one request with `RESP_ERROR` on a connection
/// the server keeps open; the load client counts it and sends the rest of
/// its quota, so every request is accounted for as answered or failed.
#[test]
fn load_counts_a_replica_panic_and_sends_its_whole_quota() {
    let _g = guard();
    let server = serve::Server::start_supervised(
        tiny_factory(),
        2,
        serve::BatchPolicy::default(),
        serve::RestartBudget::default(),
    )
    .unwrap();
    let reg = obs::Registry::new();
    let rpc = rpc::RpcServer::start(
        "127.0.0.1:0",
        server.client(),
        server.output_len(),
        rpc::RpcConfig::default(),
        &reg,
    )
    .unwrap();
    arm("serve.worker", FaultMode::Panic, 5);
    let cfg = rpc::LoadConfig {
        clients: 4,
        requests: 200,
        ..rpc::LoadConfig::default()
    };
    let samples: Vec<Vec<f32>> = (0..4).map(|i| vec![0.05 * (i + 1) as f32; 144]).collect();
    let report = rpc::load::run(rpc.local_addr(), &cfg, &samples).unwrap();
    rpc.shutdown();
    let served = server.shutdown();
    assert!(
        (1..=4).contains(&report.errors),
        "the one panicked batch of at most 4: {report:?}"
    );
    assert_eq!(
        report.completed + report.errors,
        200,
        "every request answered: {report:?}"
    );
    assert_eq!(served.replica_restarts, 1);
    assert_eq!(served.healthy_replicas, 2);
}
