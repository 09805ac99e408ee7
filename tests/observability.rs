//! Cross-crate observability tests: tracing/profiling must not perturb
//! training (bit-identical trajectories with instrumentation off vs on),
//! the emitted Chrome trace must cover every layer pass and the omprt
//! ordered sections, and the metrics registry / timestamped training log
//! must see real training runs.

mod common;

use cgdnn::observe;
use cgdnn::prelude::*;
use common::tiny_net;
use datasets::ShardedSource;
use dist::{run_coordinator, run_worker, CoordinatorConfig, DistConfig, WorkerConfig};
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Span collection is process-global state; every test that flips it (or
/// asserts on drained events) takes this lock so the assertions see only
/// their own run's spans.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Train the tiny net for `iters` iterations and return (losses, params).
/// With `observed`, tracing and per-layer profiling are both active.
fn train_run(threads: usize, iters: usize, observed: bool) -> (Vec<f32>, Vec<u8>) {
    if observed {
        obs::trace::set_enabled(true);
        let _ = obs::trace::take_events(); // discard other tests' leftovers
    }
    let mut t = CoarseGrainTrainer::new(tiny_net(5), SolverConfig::lenet(), threads);
    if observed {
        t.enable_profiling();
    }
    let losses = t.train(iters);
    if observed {
        obs::trace::set_enabled(false);
        let events = obs::trace::take_events();
        assert!(!events.is_empty(), "observed run produced no spans");
        let profile = t.profile().expect("profiling was enabled");
        assert_eq!(profile.iterations(), iters as u64);
    }
    let mut snap = Vec::new();
    net::save_params(t.net(), &mut snap).unwrap();
    (losses, snap)
}

#[test]
fn instrumentation_does_not_change_training() {
    // The tentpole's non-negotiable: turning on tracing + profiling must
    // leave the loss trajectory and the final parameters bit-identical,
    // at one thread and at four.
    let _g = obs_lock();
    for threads in [1usize, 4] {
        let (base_losses, base_snap) = train_run(threads, 4, false);
        let (obs_losses, obs_snap) = train_run(threads, 4, true);
        assert_eq!(
            base_losses, obs_losses,
            "tracing changed the loss trajectory at {threads} threads"
        );
        assert_eq!(
            base_snap, obs_snap,
            "tracing changed the final parameters at {threads} threads"
        );
    }
}

/// 16 deterministic samples of shape [4] — the same source
/// `tests/dist_training.rs` uses, duplicated here because integration test
/// binaries cannot share helpers without a common crate.
struct Ramp;
impl BatchSource<f32> for Ramp {
    fn num_samples(&self) -> usize {
        16
    }
    fn sample_shape(&self) -> Shape {
        Shape::from([4usize])
    }
    fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
        mmblas::set(0.1 * (index + 1) as f32, out);
        (index % 3) as f32
    }
}

fn micro_spec(batch: usize) -> NetSpec {
    NetSpec::parse(&format!(
        r#"
name: micro
layer {{
  name: d
  type: Data
  batch: {batch}
  top: data
  top: label
}}
layer {{
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 3
  seed: 17
}}
layer {{
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}}
"#
    ))
    .unwrap()
}

/// Coordinator + 2 worker threads over loopback TCP, with tracing either
/// off or on for the whole run. Returns (losses, flat params).
fn dist_obs_run(iters: usize, observed: bool) -> (Vec<f32>, Vec<f32>) {
    const WORLD: usize = 2;
    if observed {
        obs::trace::set_enabled(true);
        let _ = obs::trace::take_events();
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            std::thread::spawn(move || {
                let sharded = ShardedSource::new(Box::new(Ramp), rank, WORLD, 8);
                let mut net =
                    Net::from_spec(&micro_spec(8 / WORLD), Some(Box::new(sharded))).unwrap();
                let mut cfg = WorkerConfig::new(addr.to_string(), rank);
                cfg.io_timeout = Duration::from_secs(10);
                run_worker(&mut net, &cfg)
            })
        })
        .collect();
    let mut net = Net::from_spec(&micro_spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let cfg = CoordinatorConfig {
        dist: DistConfig {
            world: WORLD,
            effective_batch: 8,
            num_samples: 16,
            iters,
            io_timeout: Duration::from_secs(10),
        },
        join_timeout: Duration::from_secs(10),
    };
    let losses = run_coordinator(listener, &mut net, &mut solver, &cfg, |_, _, _, _| Ok(()))
        .expect("distributed run failed");
    for (rank, h) in handles.into_iter().enumerate() {
        h.join()
            .unwrap()
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
    }
    if observed {
        obs::trace::set_enabled(false);
    }
    let params = net
        .learnable_params()
        .iter()
        .flat_map(|p| p.data().iter().copied())
        .collect();
    (losses, params)
}

#[test]
fn distributed_observability_is_invisible_and_aggregates_per_rank() {
    // The tentpole invariant extended to the distributed path: a full
    // coordinator + 2-worker run over real loopback TCP — stats flush,
    // trace flush, clock-offset handshake and all — must be bit-identical
    // with tracing off vs on.
    let _g = obs_lock();
    let (base_losses, base_params) = dist_obs_run(4, false);
    let (obs_losses, obs_params) = dist_obs_run(4, true);
    assert_eq!(
        base_losses, obs_losses,
        "tracing changed the distributed loss trajectory"
    );
    assert_eq!(
        base_params, obs_params,
        "tracing changed the distributed final parameters"
    );

    // Teardown aggregation ran: the coordinator's registry now holds
    // rank-prefixed rows merged from each worker's shipped delta.
    let csv = obs::registry::global().csv();
    for rank in 0..2 {
        assert!(
            csv.contains(&format!("r{rank}.dist.worker_steps,")),
            "no merged r{rank}.* rows in coordinator registry"
        );
    }

    // In-process workers share this registry, so each session's delta also
    // carries what earlier sessions folded in. A rank's fold must not nest
    // that under a second prefix (`r1.r0.*`): the registry would multiply
    // with every session. Other tests register names meanwhile, so the
    // bound is relative: at most one copy per rank of each plain name.
    let events = obs::trace::take_events();
    dist_obs_run(4, false);
    let snap = obs::registry::global().snapshot();
    let ranked = |n: &str| n.starts_with("r0.") || n.starts_with("r1.");
    let (folded, plain): (Vec<&str>, Vec<&str>) =
        snap.iter().map(|(n, _)| n).partition(|n| ranked(n));
    assert!(
        folded.iter().all(|n| !ranked(&n[3..])),
        "a rank prefix was nested: {folded:?}"
    );
    assert!(
        folded.len() <= 2 * plain.len(),
        "{} rank-prefixed names over {} plain ones after three sessions",
        folded.len(),
        plain.len()
    );

    // The observed run's merged trace (worker events arrived over
    // FRAME_TRACE and were injected coordinator-side) is a valid Chrome
    // trace. Per-rank pid separation is asserted in the CI smoke with real
    // spawned processes — in-process workers share the pid atomic.
    assert!(!events.is_empty(), "observed dist run produced no spans");
    assert!(
        events.iter().any(|e| e.cat == "dist"),
        "no dist-category spans in merged trace"
    );
    let mut buf = Vec::new();
    obs::trace::write_chrome_trace(&mut buf, &events).unwrap();
    let text = std::str::from_utf8(&buf).unwrap();
    let summary = obs::json::validate_chrome_trace(text).expect("merged trace validates");
    assert_eq!(summary.events, events.len());
}

#[test]
fn trace_covers_every_layer_pass_and_merge_waits() {
    let _g = obs_lock();
    obs::trace::set_enabled(true);
    let _ = obs::trace::take_events();
    // Two threads, so the gradient fold waits at its barrier (a team of one
    // never does), default Ordered reduction.
    let mut t = CoarseGrainTrainer::new(tiny_net(7), SolverConfig::lenet(), 2);
    t.train(2);
    let layer_names: Vec<String> = t
        .net()
        .layer_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    obs::trace::set_enabled(false);
    let events = obs::trace::take_events();

    let names: BTreeSet<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    for layer in &layer_names {
        assert!(
            names.contains(format!("fwd:{layer}").as_str()),
            "missing forward span for layer '{layer}'"
        );
        if layer != "data" {
            assert!(
                names.contains(format!("bwd:{layer}").as_str()),
                "missing backward span for layer '{layer}'"
            );
        }
    }
    assert!(names.contains("region"), "no omprt region spans");
    assert!(names.contains("grad_merge"), "no gradient fold spans");
    assert!(
        names.contains("barrier_wait"),
        "no barrier wait spans at 2 threads"
    );
    assert!(
        names.contains("solver_update"),
        "no solver parameter-update spans"
    );
    assert!(names.contains("data_load"), "no data-loading spans");
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert!(
        tids.len() >= 2,
        "expected spans from >= 2 threads: {tids:?}"
    );

    // The serialized trace is well-formed Chrome trace_event JSON and the
    // validator agrees with the in-memory event set.
    let mut buf = Vec::new();
    obs::trace::write_chrome_trace(&mut buf, &events).unwrap();
    let text = std::str::from_utf8(&buf).unwrap();
    let summary = obs::json::validate_chrome_trace(text).expect("trace validates");
    assert_eq!(summary.events, events.len());
    assert!(summary.cats.contains("omprt"));
    assert!(summary.cats.contains("layer"));
    assert!(summary.cats.contains("solver"));
    assert!(summary.cats.contains("data"));
    assert_eq!(summary.tids.len(), tids.len());

    // The same events drive the measured imbalance report: every omprt
    // worker contributes region time.
    let imb = observe::measured_imbalance(&events).expect("region spans present");
    assert_eq!(imb.per_thread.len(), tids.len());
    assert!(imb.imbalance_factor >= 1.0);
}

#[test]
fn trainer_publishes_into_the_global_registry() {
    let _g = obs_lock();
    let reg = obs::registry::global();
    let before = reg.counter("train.iterations").get();
    let mut t = CoarseGrainTrainer::new(tiny_net(3), SolverConfig::lenet(), 1);
    let losses = t.train(3);
    assert!(reg.counter("train.iterations").get() >= before + 3);
    let last = reg.gauge("train.last_loss").get();
    assert_eq!(last as f32, *losses.last().unwrap());
    let csv = reg.csv();
    assert!(csv.starts_with("metric,value\n"));
    assert!(csv.contains("train.step_seconds_count,"));
    assert!(csv.contains("train.step_seconds_mean,"));
}

#[test]
fn profile_table_uses_the_papers_layout() {
    let _g = obs_lock();
    let mut t = CoarseGrainTrainer::new(tiny_net(11), SolverConfig::lenet(), 2).with_profiling();
    t.train(2);
    let profile = t.profile().unwrap();
    let table = profile.table();
    for col in ["layer", "fwd ms", "bwd ms", "total ms", "% total"] {
        assert!(
            table.contains(col),
            "table missing column '{col}':\n{table}"
        );
    }
    for layer in t.net().layer_names() {
        assert!(table.contains(layer), "table missing layer '{layer}'");
    }
    let csv = profile.csv();
    assert!(csv.starts_with("layer,fwd_ms,bwd_ms,total_ms,pct_total\n"));
    assert_eq!(csv.lines().count(), t.net().layer_names().len() + 1);
}

#[test]
fn logstamp_has_documented_format() {
    let s = obs::logstamp(42);
    let (ts, iter) = s.split_once(' ').expect("two fields");
    assert_eq!(iter, "iter=42");
    let secs_millis = ts.strip_prefix("ts=").expect("ts= prefix");
    let (secs, millis) = secs_millis.split_once('.').expect("secs.millis");
    assert!(!secs.is_empty() && secs.bytes().all(|b| b.is_ascii_digit()));
    assert_eq!(millis.len(), 3);
    assert!(millis.bytes().all(|b| b.is_ascii_digit()));
}

#[test]
fn training_log_lines_are_timestamped() {
    let _g = obs_lock();
    let dir_path = std::env::temp_dir().join(format!("cgdnn-obslog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_path);
    let dir = CheckpointDir::new(&dir_path).with_keep(2);
    let mut t = CoarseGrainTrainer::new(tiny_net(13), SolverConfig::lenet(), 1);
    train_with_checkpoints(&mut t, 4, &dir, 2, |_, _| {}).unwrap();
    let log = std::fs::read_to_string(dir_path.join("training.log")).unwrap();
    assert!(!log.trim().is_empty(), "no training.log lines");
    for line in log.lines() {
        assert!(line.starts_with("ts="), "line not timestamped: {line}");
        assert!(line.contains(" iter="), "line has no iteration: {line}");
        // The event body survives after the prefix (greppable as before).
        assert!(line.contains("checkpoint:"), "unexpected event: {line}");
    }
    let _ = std::fs::remove_dir_all(&dir_path);
}
