//! End-to-end serving tests: the dynamic batcher must be semantically
//! invisible (batched answers identical to one-at-a-time forwards) and
//! overload must surface as explicit rejections, not unbounded queueing.
//!
//! The tests that need a backlog build it on purpose: a one-shot
//! `serve.worker` delay parks the only replica with one batch in hand while
//! the test queues the rest. The fault registry is process-global and every
//! served batch passes that point, so every test here that starts a
//! [`Server`] holds [`fault_lock`].

mod common;

use cgdnn::prelude::*;
use common::{TinySource, TINY_SPEC};
use net::faults::{arm, disarm_all, FaultMode};
use serve::{BatchPolicy, Engine, EngineConfig, EngineFactory, ServeError, Server};
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    let g = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disarm_all();
    g
}

/// How long a parked replica sleeps: far longer than queueing a few dozen
/// requests takes, so they are all waiting when it wakes.
const PARK: Duration = Duration::from_millis(300);

/// Hand `server`'s only replica `sample` and park it for [`PARK`] once the
/// sample's batch is assembled; returns the receiver of that sample's
/// answer. When this returns the worker holds a batch of exactly that one
/// request and takes nothing off the queue until the park ends.
fn park_only_replica(server: &Server<f32>, sample: &[f32]) -> Receiver<Vec<f32>> {
    arm("serve.worker", FaultMode::Delay(PARK.as_millis() as u64), 0);
    let (tx, rx) = std::sync::mpsc::channel();
    server
        .client()
        .submit_async(sample.to_vec(), None, move |r| {
            let _ = tx.send(r.unwrap().to_vec());
        })
        .unwrap();
    // The batch-size histogram is observed after assembly, just before the
    // engine runs (and the delay fires): the queue is free to fill.
    let metrics = server.metrics();
    while metrics.batch_size.count() == 0 {
        std::thread::yield_now();
    }
    rx
}

fn trained_snapshot() -> Vec<u8> {
    let spec = NetSpec::parse(TINY_SPEC).unwrap();
    let mut net =
        Net::<f32>::from_spec(&spec, Some(Box::new(TinySource { n: 64, seed: 3 }))).unwrap();
    let team = ThreadTeam::new(2);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: 16 },
        ..RunConfig::default()
    };
    let mut solver: Solver<f32> = Solver::new(SolverConfig::lenet());
    solver.train(&mut net, &team, &run, 2);
    let mut buf = Vec::new();
    net::save_params(&net, &mut buf).unwrap();
    buf
}

fn request_samples(n: usize) -> Vec<Vec<f32>> {
    let src = TinySource { n: 64, seed: 21 };
    (0..n)
        .map(|i| {
            let mut s = vec![0.0f32; 144];
            src.fill(i, &mut s);
            s
        })
        .collect()
}

fn build_engines(n: usize, snapshot: &[u8]) -> Vec<Engine<f32>> {
    build_engines_of(n, 8, snapshot)
}

/// `n` replicas of the tiny net, sharing `snapshot`'s weights, each taking
/// batches of up to `max_batch`.
fn build_engines_of(n: usize, max_batch: usize, snapshot: &[u8]) -> Vec<Engine<f32>> {
    let spec = NetSpec::parse(TINY_SPEC).unwrap();
    EngineFactory::new(
        &spec,
        &Shape::from([1usize, 12, 12]),
        &EngineConfig {
            max_batch,
            n_threads: 2,
        },
        Some(snapshot),
    )
    .and_then(|f| f.build_n(n))
    .unwrap()
}

#[test]
fn batched_serving_matches_one_at_a_time_forwards() {
    let snap = trained_snapshot();
    let samples = request_samples(24);

    // Reference: every sample alone through a solo engine.
    let mut solo = build_engines(1, &snap).remove(0);
    let expected: Vec<Vec<f32>> = samples.iter().map(|s| solo.infer_one(s).unwrap()).collect();

    // Served: sample 0 parks the only replica, samples 1..24 queue behind
    // it, so the worker wakes to a backlog and batches it by capacity.
    let _g = fault_lock();
    let server = Server::start(build_engines(1, &snap), BatchPolicy::default()).unwrap();
    let parked = park_only_replica(&server, &samples[0]);
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, s) in samples.iter().enumerate().skip(1) {
        let tx = tx.clone();
        server
            .client()
            .submit_async(s.clone(), None, move |r| {
                let _ = tx.send((i, r.unwrap().to_vec()));
            })
            .unwrap();
    }
    drop(tx);
    let mut served = vec![parked.recv().unwrap()];
    served.resize(24, Vec::new());
    for (i, out) in rx {
        served[i] = out;
    }
    let report = server.shutdown();

    assert_eq!(report.completed, 24);
    for (i, (want, got)) in expected.iter().zip(&served).enumerate() {
        assert_eq!(want, got, "sample {i}: batched bits differ from solo run");
    }
    // The parked batch of one, then 23 queued requests in batches of the
    // engine's capacity 8: 8 + 8 + 7.
    assert_eq!(report.n_batches, 4, "batch sizes: {:?}", report.batch_hist);
    assert_eq!(report.max_batch, 8);
}

#[test]
fn overload_is_rejected_not_queued_unboundedly() {
    let snap = trained_snapshot();
    let _g = fault_lock();
    let server = Server::start(build_engines(1, &snap), BatchPolicy { queue_depth: 2 }).unwrap();
    let samples = request_samples(1);
    // With the only replica parked, burst far past the queue bound from
    // many threads at once: exactly the queue's 2 seats are admitted.
    let parked = park_only_replica(&server, &samples[0]);
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let client = server.client();
            let s = samples[0].clone();
            std::thread::spawn(move || client.infer(&s))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    parked.recv().unwrap();
    let report = server.shutdown();

    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Rejected)))
        .count() as u64;
    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
    assert_eq!(ok + rejected, 32, "only Ok or Rejected outcomes expected");
    assert_eq!(
        (ok, rejected),
        (2, 30),
        "a 2-deep queue in front of a parked replica admits 2 of 32"
    );
    assert_eq!(report.completed, ok + 1);
    assert_eq!(report.rejected, rejected);
    assert!(
        report.max_queue_depth <= 2,
        "queue depth bounded by capacity: {}",
        report.max_queue_depth
    );
}

/// `serve.max_queue_depth` is a mark of admitted requests: three submits
/// against a 2-deep queue in front of a parked replica admit two, and the
/// rejected third leaves the mark at the capacity, not one past it.
#[test]
fn a_rejected_submit_leaves_the_queue_depth_mark_at_capacity() {
    let snap = trained_snapshot();
    let _g = fault_lock();
    let server = Server::start(build_engines(1, &snap), BatchPolicy { queue_depth: 2 }).unwrap();
    let samples = request_samples(1);
    let parked = park_only_replica(&server, &samples[0]);
    let (tx, rx) = std::sync::mpsc::channel();
    let admitted: Vec<_> = (0..3)
        .map(|_| {
            let tx = tx.clone();
            server
                .client()
                .submit_async(samples[0].clone(), None, move |r| {
                    let _ = tx.send(r.is_ok());
                })
        })
        .collect();
    drop(tx);
    let metrics = server.metrics();
    assert_eq!(metrics.max_queue_depth.get(), 2.0);
    assert_eq!(metrics.queue_depth.get(), 2.0);
    assert_eq!(admitted, [Ok(()), Ok(()), Err(ServeError::Rejected)]);
    parked.recv().unwrap();
    assert_eq!(rx.iter().collect::<Vec<_>>(), [true, true]);
    let report = server.shutdown();
    assert_eq!(report.max_queue_depth, 2);
    assert_eq!(metrics.queue_depth.get(), 0.0);
    assert_eq!((report.completed, report.rejected), (3, 1));
}

/// A blocking caller whose queued request is dropped unanswered reads
/// `Closed`. The only replica, taking batches of one, panics on the
/// batch in front (that request reads `Replica`) and retires; the request
/// still queued behind it goes with the queue.
#[test]
fn a_queued_request_dropped_by_a_dead_replica_reads_closed() {
    let snap = trained_snapshot();
    let _g = fault_lock();
    let server = Server::start(build_engines_of(1, 1, &snap), BatchPolicy::default()).unwrap();
    let samples = request_samples(3);
    let parked = park_only_replica(&server, &samples[0]);
    // Fires on the next batch, after the park's delay has fired.
    arm("serve.worker", FaultMode::Panic, 0);
    let waiters: Vec<_> = samples[1..]
        .iter()
        .map(|s| {
            let client = server.client();
            let s = s.clone();
            std::thread::spawn(move || client.infer(&s))
        })
        .collect();
    let metrics = server.metrics();
    while metrics.queue_depth.get() < 2.0 {
        std::thread::yield_now();
    }
    parked.recv().unwrap();
    let mut results: Vec<_> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|r| matches!(r, Err(ServeError::Closed)));
    assert!(
        matches!(
            results[..],
            [Err(ServeError::Replica(_)), Err(ServeError::Closed)]
        ),
        "{results:?}"
    );
    let report = server.shutdown();
    assert_eq!((report.completed, report.healthy_replicas), (1, 0));
}

#[test]
fn deadline_expiry_is_reported_per_request() {
    let snap = trained_snapshot();
    let _g = fault_lock();
    let server = Server::start(build_engines(1, &snap), BatchPolicy { queue_depth: 16 }).unwrap();
    let s = request_samples(1).remove(0);
    // Generous deadline completes; already-expired deadline times out.
    let ok = server.infer_with_deadline(&s, std::time::Instant::now() + Duration::from_secs(30));
    assert!(ok.is_ok());
    let late = server.infer_with_deadline(&s, std::time::Instant::now() - Duration::from_millis(1));
    assert_eq!(late.unwrap_err(), ServeError::TimedOut);
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.timed_out, 1);
}

/// Each server keeps handles of its own, so two servers alive in one
/// process count apart, and adopting one server's handles into a shared
/// registry exposes the live values as the same handles: no copy to
/// repeat, nothing to double.
#[test]
fn two_servers_in_one_process_count_apart() {
    let snap = trained_snapshot();
    let s = request_samples(1).remove(0);
    let _g = fault_lock();
    let a = Server::start(build_engines(1, &snap), BatchPolicy::default()).unwrap();
    let b = Server::start(build_engines(1, &snap), BatchPolicy::default()).unwrap();
    let reg = obs::Registry::new();
    reg.adopt(a.metrics().registry());
    reg.adopt(a.metrics().registry());
    for _ in 0..3 {
        a.infer(&s).unwrap();
    }
    for _ in 0..5 {
        b.infer(&s).unwrap();
    }
    assert_eq!(a.metrics().report().completed, 3);
    assert_eq!(b.metrics().report().completed, 5);
    assert_eq!(reg.counter("serve.completed").get(), 3);
    let wait = reg.histogram("serve.queue_wait_us", &obs::registry::LATENCY_BOUNDS_US);
    assert_eq!(wait.count(), 3);
    assert_eq!(a.shutdown().completed, 3);
    assert_eq!(b.shutdown().completed, 5);
}

/// The active-batch contract, for one net: an engine of capacity
/// `max_batch` answers a batch of any `n` with exactly the rows a
/// capacity-1 engine gives each sample alone — for every team size — and a
/// large → small → large sequence of batches shows no row of an earlier
/// batch.
fn assert_active_batch_matches_solo(
    spec: &NetSpec,
    sample_shape: &Shape,
    samples: &[Vec<f32>],
    max_batch: usize,
) {
    assert!(samples.len() >= 2 * max_batch);
    let factory = |max_batch: usize, n_threads: usize| {
        serve::EngineFactory::<f32>::new(
            spec,
            sample_shape,
            &EngineConfig {
                max_batch,
                n_threads,
            },
            None,
        )
        .unwrap()
    };
    // The oracle has no second row to be confused by.
    let mut solo = factory(1, 1).build().unwrap();
    let expected: Vec<Vec<f32>> = samples.iter().map(|s| solo.infer_one(s).unwrap()).collect();
    let out_len = expected[0].len();

    for threads in [1usize, 2] {
        let what = format!("threads {threads}");
        let mut engine = factory(max_batch, threads).build().unwrap();
        let mut check = |range: std::ops::Range<usize>| {
            let refs: Vec<&[f32]> = samples[range.clone()].iter().map(|s| &s[..]).collect();
            let got = engine.infer_batch(&refs).unwrap();
            assert_eq!(got.len(), range.len() * out_len, "{what}: {range:?}");
            for (row, want) in got.chunks(out_len).zip(&expected[range.clone()]) {
                assert_eq!(row, &want[..], "{what}: batch {range:?} row differs");
            }
        };
        // Every n, each at a different offset into the sample pool so
        // row i never holds the sample it held one call earlier.
        for n in 1..=max_batch {
            check(n..2 * n);
        }
        // Large, small, large: the single row overwrites row 0 only,
        // and the regrown batch brings its own rows 1.. back.
        check(0..max_batch);
        check(max_batch..max_batch + 1);
        check(max_batch - 1..2 * max_batch - 1);

        assert!(matches!(
            engine.infer_batch(&[]),
            Err(ServeError::BadInput(_))
        ));
        let too_many: Vec<&[f32]> = samples[..=max_batch].iter().map(|s| &s[..]).collect();
        assert!(matches!(
            engine.infer_batch(&too_many),
            Err(ServeError::BadInput(_))
        ));
    }
}

#[test]
fn active_batch_matches_solo_inference_on_tiny() {
    let spec = NetSpec::parse(TINY_SPEC).unwrap();
    assert_active_batch_matches_solo(
        &spec,
        &Shape::from([1usize, 12, 12]),
        &request_samples(16),
        8,
    );
}

#[test]
fn active_batch_matches_solo_inference_on_lenet() {
    let source = SyntheticMnist::new(64, 9);
    let samples: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            let mut s = vec![0.0f32; 28 * 28];
            source.fill(i, &mut s);
            s
        })
        .collect();
    assert_active_batch_matches_solo(
        &nets::lenet_spec(),
        &Shape::from([1usize, 28, 28]),
        &samples,
        4,
    );
}

/// The served LeNet engine at the CLI's capacity of 16 answers a batch of
/// every size `n`, row for row, with the bits `infer_one` gives each sample
/// alone — on one thread and on two, where the static schedule cuts the
/// inner products' run of `n` rows differently for every `n`. Biases are
/// made non-zero so the rows the GEMM adds onto count too.
#[test]
fn every_lenet_batch_size_matches_infer_one_bitwise() {
    const MAX_BATCH: usize = 16;
    let source = SyntheticMnist::new(64, 11);
    let samples: Vec<Vec<f32>> = (0..MAX_BATCH)
        .map(|i| {
            let mut s = vec![0.0f32; 28 * 28];
            source.fill(i, &mut s);
            s
        })
        .collect();
    let engine = |n_threads: usize| {
        serve::EngineFactory::<f32>::new(
            &nets::lenet_spec(),
            &Shape::from([1usize, 28, 28]),
            &EngineConfig {
                max_batch: MAX_BATCH,
                n_threads,
            },
            None,
        )
        .unwrap()
        .build()
        .unwrap()
    };
    let mut params = engine(1).params();
    for p in params.iter_mut().filter(|p| p.shape().dims().len() == 1) {
        for (j, v) in p.data_mut().iter_mut().enumerate() {
            *v = 0.1 * (j as f32 * 0.7).sin();
        }
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut want = Vec::new();
    for threads in [1usize, 2] {
        let mut engine = engine(threads);
        engine.adopt_params(&params).unwrap();
        let alone: Vec<Vec<u32>> = samples
            .iter()
            .map(|s| bits(&engine.infer_one(s).unwrap()))
            .collect();
        if threads == 1 {
            want = alone;
        } else {
            assert_eq!(alone, want, "infer_one differs between team sizes");
        }
        for n in 1..=MAX_BATCH {
            let refs: Vec<&[f32]> = samples[..n].iter().map(|s| &s[..]).collect();
            let got = engine.infer_batch(&refs).unwrap();
            let rows: Vec<Vec<u32>> = got.chunks(got.len() / n).map(bits).collect();
            assert_eq!(rows, want[..n], "{threads} threads, batch of {n}");
        }
    }
}

/// Work really shrinks, by count rather than by clock: after seating `n`
/// of `capacity`, every layer of the deploy net reports `n / capacity` of
/// its full coalesced iterations, no blob was reallocated, and seating the
/// capacity again restores the full profile.
#[test]
fn seated_batch_scales_every_layers_coalesced_iterations() {
    const CAPACITY: usize = 8;
    let deploy = serve::deploy_spec(&nets::lenet_spec()).unwrap();
    let mut net = Net::<f32>::from_spec_with_inputs(
        &deploy.spec,
        None,
        &[(deploy.input.clone(), Shape::from([CAPACITY, 1, 28, 28]))],
    )
    .unwrap();
    assert_eq!((net.batch_capacity(), net.batch()), (CAPACITY, CAPACITY));
    let full = net.profiles();
    // LeNet names each top after its layer; the input blob comes first.
    let buffers = |net: &Net<f32>| -> Vec<*const f32> {
        std::iter::once(deploy.input.as_str())
            .chain(net.layer_names())
            .filter_map(|name| net.blob(name))
            .map(|b| b.data().as_ptr())
            .collect()
    };
    let allocated = buffers(&net);
    assert_eq!(
        allocated.len(),
        1 + net.num_layers(),
        "every blob is watched"
    );

    for n in [1usize, 3, CAPACITY] {
        net.set_batch(n).unwrap();
        assert_eq!(net.batch(), n);
        for (p, f) in net.profiles().iter().zip(&full) {
            assert!(
                f.forward.coalesced_iters > 0,
                "{}: has forward work",
                f.name
            );
            assert_eq!(
                p.forward.coalesced_iters * CAPACITY,
                f.forward.coalesced_iters * n,
                "{}: forward iterations must scale by {n}/{CAPACITY}",
                f.name
            );
            assert_eq!(p.batch, n, "{}", f.name);
            assert_eq!(
                p.forward.flops_per_iter, f.forward.flops_per_iter,
                "{}: per-iteration work is untouched",
                f.name
            );
        }
        assert_eq!(buffers(&net), allocated, "batch {n}: no buffer reallocated");
    }

    for bad in [0, CAPACITY + 1] {
        assert!(net.set_batch(bad).is_err(), "batch {bad} is out of range");
        assert_eq!(net.batch(), CAPACITY, "a refused batch changes nothing");
    }
    // A net fed by a data layer has no input blob to seat.
    assert!(common::tiny_net(1).set_batch(1).is_err());
}
