//! Dynamic micro-batching with bounded-queue backpressure and a
//! self-healing replica pool.
//!
//! Clients submit single samples; worker threads (one per engine replica)
//! assemble them into micro-batches without ever waiting on purpose: a
//! worker takes the first request, tops it up with whatever is already
//! queued (up to the engine's `max_batch`) and flushes. With one engine per
//! worker, the engine's compute time is the assembly window — requests that
//! arrive while a batch runs are the next batch — so a lone request is
//! never held and a backlog still fills whole batches.
//!
//! Admission control is a bounded [`std::sync::mpsc::sync_channel`]: when
//! `queue_depth` requests are already waiting, `try_send` fails and the
//! client gets [`ServeError::Rejected`] immediately — memory stays bounded
//! no matter the offered load. Requests may carry a deadline; a worker
//! drops expired ones with [`ServeError::TimedOut`] instead of wasting a
//! batch slot on an answer nobody is waiting for.
//!
//! Every request carries one completion callback. The worker copies the
//! request's row out of the engine's flat output into an owned `Vec` and
//! calls the callback with it (or with the request's error). The blocking
//! [`Client::infer`] is that same callback sending on a one-slot channel
//! it waits on; a request dropped unanswered drops the sender, which the
//! waiter reads as [`ServeError::Closed`].
//!
//! A worker whose engine panics answers its batch with an error and
//! retires its replica. On a server started with
//! [`Server::start_supervised`] the same worker then restarts it in place:
//! it charges the shared [`RestartBudget`] and rebuilds its engine from the
//! [`EngineFactory`] (sharing the one decoded weight copy — no snapshot
//! re-read) on its own thread. A replica that dies more often than the
//! budget allows points at a systematic fault: it stays retired, and the
//! server keeps serving on the surviving replicas.

use crate::engine::{Engine, EngineFactory};
use crate::metrics::{micros, ServingMetrics, ServingReport};
use crate::ServeError;
use mmblas::Scalar;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission policy.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Admission-queue capacity; one more request than this is `Rejected`.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    /// A 64-deep queue.
    fn default() -> Self {
        Self { queue_depth: 64 }
    }
}

/// A sliding-window restart budget: at most `max_restarts` charges inside
/// any `restart_window`. A charge leaves the window once it is a full
/// window old. Serving charges it per replica restart, distributed
/// training per worker death; running out means something is dying
/// systematically, not blipping.
#[derive(Debug, Clone)]
pub struct RestartBudget {
    /// Charges allowed inside one sliding window.
    pub max_restarts: usize,
    /// Width of the sliding window.
    pub restart_window: Duration,
    /// Times of the charges still inside the window, oldest first.
    charges: VecDeque<Instant>,
}

impl RestartBudget {
    /// A budget with nothing charged yet.
    pub fn new(max_restarts: usize, restart_window: Duration) -> Self {
        Self {
            max_restarts,
            restart_window,
            charges: VecDeque::new(),
        }
    }

    /// Charge one restart at `now`, if the window has room; `false` (and
    /// nothing charged) when it is full.
    pub fn try_charge(&mut self, now: Instant) -> bool {
        while self
            .charges
            .front()
            .is_some_and(|t| now.duration_since(*t) >= self.restart_window)
        {
            self.charges.pop_front();
        }
        if self.charges.len() >= self.max_restarts {
            return false;
        }
        self.charges.push_back(now);
        true
    }
}

impl Default for RestartBudget {
    /// 5 restarts per 30 s window.
    fn default() -> Self {
        Self::new(5, Duration::from_secs(30))
    }
}

/// How a finished request reaches its submitter: called once, on the
/// worker thread that finishes the request, with its output row or its
/// error.
type Reply<S> = Box<dyn FnOnce(Result<Vec<S>, ServeError>) + Send>;

/// One in-flight request: the sample, its timing, and the reply path.
struct Request<S: Scalar> {
    input: Vec<S>,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Reply<S>,
}

/// Everything a worker thread needs besides its own engine; cloned once
/// per worker.
struct WorkerShared<S: Scalar + Send + 'static> {
    rx: Arc<Mutex<Receiver<Request<S>>>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServingMetrics>,
    /// Which replicas have a working engine: [`Client`]'s admission
    /// check. `serve.healthy_replicas` shows the count; no decision reads
    /// the gauge.
    alive: Arc<[AtomicBool]>,
    /// What a panicked replica rebuilds from and the budget it charges;
    /// `None` (a server from [`Server::start`]) retires it for good.
    restart: Option<Arc<(EngineFactory<S>, Mutex<RestartBudget>)>>,
}

impl<S: Scalar + Send + 'static> Clone for WorkerShared<S> {
    fn clone(&self) -> Self {
        Self {
            rx: Arc::clone(&self.rx),
            stop: Arc::clone(&self.stop),
            metrics: Arc::clone(&self.metrics),
            alive: Arc::clone(&self.alive),
            restart: self.restart.clone(),
        }
    }
}

impl<S: Scalar + Send + 'static> WorkerShared<S> {
    /// Replica `i` is out of service: its worker retired or never spawned.
    fn retire(&self, i: usize) {
        self.alive[i].store(false, Ordering::SeqCst);
        self.metrics.healthy_replicas.add(-1.0);
    }

    /// Replica `i` is back: its worker rebuilt the engine.
    fn revive(&self, i: usize) {
        self.alive[i].store(true, Ordering::SeqCst);
        self.metrics.healthy_replicas.add(1.0);
        self.metrics.replica_restarts.inc();
    }

    /// A fresh engine for a panicked replica, if this server restarts
    /// replicas, the budget has room and the build succeeds.
    fn rebuild(&self) -> Option<Engine<S>> {
        let (factory, budget) = self.restart.as_deref()?;
        if !budget.lock().try_charge(Instant::now()) {
            return None;
        }
        factory.build().ok()
    }
}

/// A running inference service: engines, workers, queue and metrics.
pub struct Server<S: Scalar + Send + 'static = f32> {
    /// The submit side; [`Server::client`] hands out clones.
    client: Client<S>,
    workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    output_len: usize,
}

impl<S: Scalar + Send + 'static> Server<S> {
    /// Start serving on the given engine replicas (one worker thread
    /// each). All engines must share a sample shape and batch capacity.
    /// A panicked replica stays retired; use [`Server::start_supervised`]
    /// for self-healing.
    pub fn start(engines: Vec<Engine<S>>, policy: BatchPolicy) -> Result<Self, ServeError> {
        Self::start_inner(engines, policy, None)
    }

    /// Start serving on `n_replicas` engines built from `factory`. A
    /// worker whose engine panics rebuilds it from `factory` — without
    /// re-reading the snapshot, since the factory holds the one decoded
    /// weight copy all replicas share — while `budget` has room.
    pub fn start_supervised(
        factory: EngineFactory<S>,
        n_replicas: usize,
        policy: BatchPolicy,
        budget: RestartBudget,
    ) -> Result<Self, ServeError> {
        let engines = factory.build_n(n_replicas)?;
        Self::start_inner(
            engines,
            policy,
            Some(Arc::new((factory, Mutex::new(budget)))),
        )
    }

    fn start_inner(
        engines: Vec<Engine<S>>,
        policy: BatchPolicy,
        restart: Option<Arc<(EngineFactory<S>, Mutex<RestartBudget>)>>,
    ) -> Result<Self, ServeError> {
        let first = engines
            .first()
            .ok_or_else(|| ServeError::Build("need at least one engine".into()))?;
        let (sample_len, output_len, max_batch) =
            (first.sample_len(), first.output_len(), first.max_batch());
        if engines
            .iter()
            .any(|e| e.sample_len() != sample_len || e.max_batch() != max_batch)
        {
            return Err(ServeError::Build(
                "engine replicas disagree on sample shape or batch capacity".into(),
            ));
        }
        if policy.queue_depth == 0 {
            return Err(ServeError::Build("queue_depth must be >= 1".into()));
        }
        let (tx, rx) = std::sync::mpsc::sync_channel::<Request<S>>(policy.queue_depth);
        let n_replicas = engines.len();
        let shared = WorkerShared {
            rx: Arc::new(Mutex::new(rx)),
            stop: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(ServingMetrics::new(
                n_replicas,
                max_batch,
                policy.queue_depth,
            )),
            alive: (0..n_replicas).map(|_| AtomicBool::new(true)).collect(),
            restart,
        };
        let mut workers = Vec::with_capacity(n_replicas);
        let mut spawn_err = None;
        for (i, engine) in engines.into_iter().enumerate() {
            let worker = shared.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(i, engine, worker));
            match spawned {
                Ok(h) => workers.push(h),
                Err(e) => {
                    // A replica we cannot staff is a dead replica, not a
                    // fatal error — serve on whatever did spawn.
                    shared.retire(i);
                    spawn_err = Some(e);
                }
            }
        }
        if workers.is_empty() {
            return Err(ServeError::Build(format!(
                "could not spawn any serve worker: {}",
                spawn_err.map_or_else(|| "no engines".into(), |e| e.to_string())
            )));
        }
        Ok(Self {
            client: Client {
                tx,
                metrics: shared.metrics,
                alive: shared.alive,
                sample_len,
            },
            workers,
            stop: shared.stop,
            output_len,
        })
    }

    /// Values per input sample, as the engine replicas expect.
    pub fn sample_len(&self) -> usize {
        self.client.sample_len
    }

    /// Values per output row the engines produce (the wire front-end
    /// advertises this in its handshake).
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// A cheap cloneable handle for submitting requests from other threads
    /// (the wire front end submits through one).
    pub fn client(&self) -> Client<S> {
        self.client.clone()
    }

    /// Submit one sample and block for its output. See [`Client::infer`].
    pub fn infer(&self, input: &[S]) -> Result<Vec<S>, ServeError> {
        self.client.infer(input)
    }

    /// Submit with a deadline. See [`Client::infer_with_deadline`].
    pub fn infer_with_deadline(
        &self,
        input: &[S],
        deadline: Instant,
    ) -> Result<Vec<S>, ServeError> {
        self.client.infer_with_deadline(input, deadline)
    }

    /// This server's `serve.*` handles (read any time with
    /// [`ServingMetrics::report`]; expose them process-wide with
    /// [`obs::Registry::adopt`] of [`ServingMetrics::registry`]).
    pub fn metrics(&self) -> Arc<ServingMetrics> {
        Arc::clone(&self.client.metrics)
    }

    /// Drain in-flight requests, stop the workers, and return the final
    /// report. Outstanding [`Client`] handles get [`ServeError::Closed`]
    /// (via a disconnected reply) for anything submitted after this.
    pub fn shutdown(self) -> ServingReport {
        self.stop.store(true, Ordering::SeqCst);
        // Dropping our sender closes the channel once all clients are gone;
        // workers also poll `stop` so they exit even while clients linger.
        drop(self.client.tx);
        for w in self.workers {
            let _ = w.join();
        }
        self.client.metrics.report()
    }
}

/// A cloneable request submitter.
pub struct Client<S: Scalar + Send + 'static = f32> {
    tx: SyncSender<Request<S>>,
    metrics: Arc<ServingMetrics>,
    alive: Arc<[AtomicBool]>,
    sample_len: usize,
}

impl<S: Scalar + Send + 'static> Clone for Client<S> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            metrics: Arc::clone(&self.metrics),
            alive: Arc::clone(&self.alive),
            sample_len: self.sample_len,
        }
    }
}

impl<S: Scalar + Send + 'static> Client<S> {
    /// Values per input sample, as the engine replicas expect.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Submit one sample and block until its output arrives (or the
    /// request is rejected / the server closes).
    pub fn infer(&self, input: &[S]) -> Result<Vec<S>, ServeError> {
        self.submit(input, None)
    }

    /// Like [`Client::infer`], but the request is dropped with
    /// [`ServeError::TimedOut`] if it is still queued at `deadline`.
    pub fn infer_with_deadline(
        &self,
        input: &[S],
        deadline: Instant,
    ) -> Result<Vec<S>, ServeError> {
        self.submit(input, Some(deadline))
    }

    /// Submit one sample without blocking: `callback` runs on the worker
    /// thread that finishes the request (with the output, or `TimedOut` if
    /// the deadline expired in the queue, or a replica error). Admission
    /// failures are synchronous — `Rejected` (queue full) and `Closed`
    /// (no healthy replica / shut down) return as errors here and the
    /// callback is never invoked, so the caller can answer backpressure
    /// immediately instead of parking a thread on it.
    ///
    /// This is the bridge the event-driven `rpc` front-end rides: thousands
    /// of connections share the batcher with zero blocked handler threads,
    /// and compute still runs on the bounded worker pool.
    pub fn submit_async(
        &self,
        input: Vec<S>,
        deadline: Option<Instant>,
        callback: impl FnOnce(Result<Vec<S>, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.enqueue(input, deadline, Box::new(callback))
    }

    /// [`Client::submit_async`] with a callback that sends on a one-slot
    /// channel (so the worker never waits), then wait for it. A request
    /// dropped unanswered drops the sender: that reads as `Closed`.
    fn submit(&self, input: &[S], deadline: Option<Instant>) -> Result<Vec<S>, ServeError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        self.enqueue(
            input.to_vec(),
            deadline,
            Box::new(move |r| {
                // A hung-up receiver already gave up on the answer.
                let _ = reply_tx.send(r);
            }),
        )?;
        reply_rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    fn enqueue(
        &self,
        input: Vec<S>,
        deadline: Option<Instant>,
        reply: Reply<S>,
    ) -> Result<(), ServeError> {
        if input.len() != self.sample_len {
            return Err(ServeError::BadInput(format!(
                "sample has {} values, server expects {}",
                input.len(),
                self.sample_len
            )));
        }
        if !self.alive.iter().any(|a| a.load(Ordering::SeqCst)) {
            // Every replica is retired; nothing will drain the queue.
            // (While a panicked replica rebuilds this is a transient state
            // — the caller may retry — but blocking here until the rebuild
            // would turn a fast failure into an unbounded stall.)
            return Err(ServeError::Closed);
        }
        let submitted = Instant::now();
        let req = Request {
            input,
            submitted,
            deadline,
            reply,
        };
        // Count before sending so a worker's dequeue can never take the
        // gauge below zero; undo on the failure paths.
        let depth = self.metrics.queue_depth.add(1.0);
        match self.tx.try_send(req) {
            Ok(()) => {
                self.metrics.on_admitted(submitted, depth);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.queue_depth.add(-1.0);
                self.metrics.rejected.inc();
                Err(ServeError::Rejected)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.add(-1.0);
                Err(ServeError::Closed)
            }
        }
    }
}

/// Top `first` up with the requests already waiting in `rx`, oldest first,
/// until the batch holds `max_batch` — never blocking: a lone request
/// flushes alone, a backlog fills the batch. Each request taken off the
/// queue leaves the `queue_depth` gauge.
fn fill_batch<S: Scalar>(
    first: Request<S>,
    rx: &Receiver<Request<S>>,
    max_batch: usize,
    queue_depth: &obs::Gauge,
) -> Vec<Request<S>> {
    let mut batch = vec![first];
    while batch.len() < max_batch {
        let Ok(r) = rx.try_recv() else { break };
        queue_depth.add(-1.0);
        batch.push(r);
    }
    batch
}

/// One worker: pull a first request, top it up with what is already
/// queued, drop expired requests, run the engine, copy each output row
/// into its request's reply.
///
/// The engine run is wrapped in `catch_unwind`: a panicking replica
/// answers its in-flight batch with [`ServeError::Replica`] and retires —
/// it never takes the process (or the other replicas) down with it, and
/// the shared queue keeps draining through the survivors. Under
/// [`Server::start_supervised`] the worker then rebuilds its engine and
/// revives the replica, while the [`RestartBudget`] has room.
fn worker_loop<S: Scalar + Send + 'static>(
    replica: usize,
    mut engine: Engine<S>,
    shared: WorkerShared<S>,
) {
    // How long a worker waits for its *first* request before rechecking
    // the stop flag; bounds shutdown latency while clients still exist.
    const IDLE_POLL: Duration = Duration::from_millis(20);
    let WorkerShared {
        rx, stop, metrics, ..
    } = &shared;
    let max_batch = engine.max_batch();
    loop {
        // Phases 1 and 2: wait for the batch's first request, then top it
        // up with what is already queued, under one hold of the receiver
        // lock. The lock is held only while collecting, never during
        // inference, so other replicas drain the queue while this one
        // computes. Filling under the same hold means a worker holding
        // unanswered requests never *waits* for the receiver: an idle
        // sibling re-takes the lock nanoseconds after each IDLE_POLL
        // release, a race a parked waiter can lose for seconds on end.
        let batch = {
            let guard = rx.lock();
            match guard.recv_timeout(IDLE_POLL) {
                Ok(first) => {
                    metrics.queue_depth.add(-1.0);
                    fill_batch(first, &guard, max_batch, &metrics.queue_depth)
                }
                Err(RecvTimeoutError::Timeout) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        // Phase 3: shed expired requests.
        let now = Instant::now();
        let (live, dead): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .partition(|r| r.deadline.is_none_or(|d| d > now));
        for r in dead {
            metrics.timed_out.inc();
            (r.reply)(Err(ServeError::TimedOut));
        }
        if live.is_empty() {
            continue;
        }
        // Phase 4: run and demux. `live` stays outside the unwind boundary
        // so a panicking engine cannot drop the replies — every in-flight
        // request gets an explicit error instead of a hangup.
        metrics.batch_size.observe(live.len() as f64);
        for r in &live {
            metrics.queue_wait_us.observe(micros(r.submitted, now));
        }
        let inputs: Vec<&[S]> = live.iter().map(|r| r.input.as_slice()).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net::faults::hit("serve.worker").map_err(|e| ServeError::Replica(e.to_string()))?;
            // The demux stays inside the unwind boundary because the flat
            // slice borrows the engine.
            let flat = engine.infer_batch(&inputs)?;
            let out_len = flat.len() / inputs.len();
            Ok::<_, ServeError>(flat.chunks(out_len).map(<[S]>::to_vec).collect::<Vec<_>>())
        }));
        match result {
            Ok(Ok(outputs)) => {
                let done = Instant::now();
                for (r, out) in live.into_iter().zip(outputs) {
                    metrics.on_completed(r.submitted, done);
                    (r.reply)(Ok(out));
                }
            }
            Ok(Err(e)) => {
                metrics.replica_errors[replica].inc();
                for r in live {
                    (r.reply)(Err(e.clone()));
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                metrics.replica_errors[replica].inc();
                shared.retire(replica);
                let err = ServeError::Replica(format!("replica {replica} panicked: {msg}"));
                for r in live {
                    (r.reply)(Err(err.clone()));
                }
                // The engine state is suspect after an unwind: restart in
                // place on a fresh engine, or stay retired.
                match shared.rebuild() {
                    Some(fresh) => {
                        engine = fresh;
                        shared.revive(replica);
                    }
                    None => return,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use blob::Shape;
    use net::NetSpec;

    const TRAIN: &str = r#"
name: t
layer {
  name: d
  type: Data
  batch: 4
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  num_output: 3
  seed: 5
  bottom: data
  top: ip
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: prob
}
"#;

    fn factory() -> EngineFactory<f32> {
        let spec = NetSpec::parse(TRAIN).unwrap();
        EngineFactory::new(
            &spec,
            &Shape::from(vec![6usize]),
            &EngineConfig {
                max_batch: 4,
                n_threads: 1,
            },
            None,
        )
        .unwrap()
    }

    fn engines(n: usize) -> Vec<Engine<f32>> {
        factory().build_n(n).unwrap()
    }

    /// The liveness state and handles of an `n`-replica server, without
    /// the threads.
    fn shared(n: usize) -> WorkerShared<f32> {
        let (_tx, rx) = std::sync::mpsc::sync_channel(1);
        WorkerShared {
            rx: Arc::new(Mutex::new(rx)),
            stop: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(ServingMetrics::new(n, 4, 1)),
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            restart: None,
        }
    }

    fn dead_replicas(s: &WorkerShared<f32>) -> Vec<usize> {
        (0..s.alive.len())
            .filter(|&i| !s.alive[i].load(Ordering::SeqCst))
            .collect()
    }

    #[test]
    fn replica_health_is_tracked() {
        let s = shared(3);
        assert_eq!(s.metrics.report().healthy_replicas, 3);
        s.metrics.replica_errors[1].inc();
        s.metrics.replica_errors[1].inc();
        s.retire(1);
        let r = s.metrics.report();
        assert_eq!(r.replica_errors, vec![0, 2, 0]);
        assert_eq!(r.healthy_replicas, 2);
        let csv = s.metrics.registry().csv();
        assert!(csv.contains("serve.replica_1_errors,2\n"), "csv:\n{csv}");
        assert!(
            csv.contains("serve.healthy_replicas,2.000000\n"),
            "csv:\n{csv}"
        );
    }

    #[test]
    fn restart_revives_replica_and_is_counted() {
        let s = shared(2);
        s.retire(0);
        assert_eq!(dead_replicas(&s), vec![0]);
        assert_eq!(s.metrics.report().healthy_replicas, 1);
        s.revive(0);
        assert_eq!(dead_replicas(&s), Vec::<usize>::new());
        let r = s.metrics.report();
        assert_eq!(r.healthy_replicas, 2);
        assert_eq!(r.replica_restarts, 1);
        let csv = s.metrics.registry().csv();
        assert!(csv.contains("serve.replica_restarts,1\n"), "csv:\n{csv}");
        assert!(r.to_string().contains("1 restarted"));
    }

    #[test]
    fn serves_concurrent_clients() {
        let server = Server::start(engines(2), BatchPolicy::default()).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let client = server.client();
                std::thread::spawn(move || {
                    let x = [i as f32 * 0.1; 6];
                    client.infer(&x).unwrap().to_vec()
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(out.len(), 3);
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 8);
        assert_eq!(report.rejected, 0);
        assert!(report.n_batches >= 2, "two replicas, >= 2 batches");
    }

    /// A worker holding a batch's first request must not queue for the
    /// receiver behind an idle sibling: the sibling re-takes the lock right
    /// after every 20 ms idle poll, and the waiter used to lose that race
    /// for rounds on end (about one request in four took 20-260 ms on two
    /// replicas, the worst over a minute — the 5 s client read timeouts of
    /// `rpc_loopback`). One closed-loop client is the sharpest probe: the
    /// second replica is idle the whole time. The bound is 5 ms per request
    /// — a quarter of one idle poll, against a forward of this engine that
    /// takes microseconds; the stall averaged 16 ms per request.
    #[test]
    fn idle_sibling_never_stalls_a_partial_batch() {
        const REQUESTS: u32 = 300;
        let server = Server::start(engines(2), BatchPolicy::default()).unwrap();
        let t0 = Instant::now();
        for _ in 0..REQUESTS {
            server.infer(&[0.25; 6]).unwrap();
        }
        let took = t0.elapsed();
        assert!(
            took < REQUESTS * Duration::from_millis(5),
            "{REQUESTS} sequential requests took {took:?}"
        );
        assert_eq!(server.shutdown().completed, u64::from(REQUESTS));
    }

    /// The fill rule, by counts: with `k` requests queued behind the first,
    /// a batch takes `min(k + 1, max_batch)` of them without waiting, the
    /// rest stay queued oldest first, and the `queue_depth` gauge ends at
    /// what is left. `k = 0` is "a lone request is never held"; `k >= 15`
    /// is "a backlog still fills the batch".
    #[test]
    fn fill_batch_takes_what_is_queued_up_to_max_batch() {
        const MAX_BATCH: usize = 16;
        let request = |id: usize| Request::<f32> {
            input: vec![id as f32],
            submitted: Instant::now(),
            deadline: None,
            reply: Box::new(|_| {}),
        };
        let ids = |rs: &[Request<f32>]| rs.iter().map(|r| r.input[0] as usize).collect::<Vec<_>>();
        for k in [0usize, 1, 5, 15, 16, 40] {
            let (tx, rx) = std::sync::mpsc::sync_channel(k + 1);
            let depth = obs::Registry::new().gauge("serve.queue_depth");
            for id in 0..=k {
                depth.add(1.0);
                tx.send(request(id)).unwrap();
            }
            let first = rx.recv().unwrap();
            depth.add(-1.0);
            let batch = fill_batch(first, &rx, MAX_BATCH, &depth);
            let took = (k + 1).min(MAX_BATCH);
            assert_eq!(ids(&batch), (0..took).collect::<Vec<_>>(), "k = {k}");
            let left: Vec<_> = rx.try_iter().collect();
            assert_eq!(ids(&left), (took..=k).collect::<Vec<_>>(), "k = {k}");
            assert_eq!(depth.get(), left.len() as f64, "k = {k}");
        }
    }

    #[test]
    fn rejects_wrong_sample_length() {
        let server = Server::start(engines(1), BatchPolicy::default()).unwrap();
        let e = server.infer(&[0.0; 5]).unwrap_err();
        assert!(matches!(e, ServeError::BadInput(_)));
        server.shutdown();
    }

    #[test]
    fn expired_deadline_times_out() {
        let server = Server::start(engines(1), BatchPolicy::default()).unwrap();
        // A deadline already in the past must come back TimedOut.
        let past = Instant::now() - Duration::from_millis(1);
        let e = server.infer_with_deadline(&[0.0; 6], past).unwrap_err();
        assert_eq!(e, ServeError::TimedOut);
        let report = server.shutdown();
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn submit_async_matches_blocking_infer() {
        let server = Server::start(engines(1), BatchPolicy::default()).unwrap();
        let x = [0.5f32; 6];
        let want = server.infer(&x).unwrap().to_vec();
        let (tx, rx) = std::sync::mpsc::channel();
        server
            .client()
            .submit_async(x.to_vec(), None, move |r| {
                let _ = tx.send(r.map(|o| o.to_vec()));
            })
            .unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("callback ran")
            .unwrap();
        assert_eq!(got, want, "callback path is bit-identical to blocking");
        // Shape errors surface synchronously; the callback is never invoked.
        let e = server
            .client()
            .submit_async(vec![0.0; 5], None, |_| panic!("must not run"))
            .unwrap_err();
        assert!(matches!(e, ServeError::BadInput(_)));
        let report = server.shutdown();
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn restart_budget_refuses_a_full_window_until_it_slides() {
        let t0 = Instant::now();
        let window = Duration::from_secs(10);
        let mut budget = RestartBudget::new(2, window);
        assert!(budget.try_charge(t0));
        assert!(budget.try_charge(t0 + Duration::from_secs(4)));
        assert!(
            !budget.try_charge(t0 + Duration::from_secs(9)),
            "window full"
        );
        // The first charge leaves the window once it is a full window old;
        // the refused charge was never counted.
        assert!(budget.try_charge(t0 + window));
        assert!(!budget.try_charge(t0 + window));
        assert!(budget.try_charge(t0 + Duration::from_secs(14)));
        assert!(!RestartBudget::new(0, window).try_charge(t0));
    }

    #[test]
    fn supervised_server_without_faults_never_restarts() {
        let server = Server::start_supervised(
            factory(),
            2,
            BatchPolicy::default(),
            RestartBudget::default(),
        )
        .unwrap();
        let x = [0.25f32; 6];
        for _ in 0..10 {
            assert_eq!(server.infer(&x).unwrap().len(), 3);
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 10);
        assert_eq!(report.replica_restarts, 0);
        assert_eq!(report.healthy_replicas, 2);
    }
}
