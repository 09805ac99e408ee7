//! E16 — serving throughput and latency under dynamic micro-batching.
//!
//! Beyond the paper: the training-side coarse-grain parallelism gives us a
//! fast batched forward pass; this experiment measures what that buys an
//! *online* serving tier. A load generator drives single-sample LeNet
//! requests through the `serve` stack while we sweep:
//!
//! 1. replica count (1, 2, 4 engines x 2 threads) at a fixed load, plus
//!    the same 2 replicas with batching off (`max_batch` 1);
//! 2. an overload burst against a tiny admission queue, demonstrating
//!    bounded-memory backpressure (`Rejected`, not OOM).
//!
//! Output: throughput / latency series plus the full CSV serving report.

use cgdnn_bench::banner;
use serve::{BatchPolicy, Engine, EngineConfig, EngineFactory, Server};

const SAMPLE: usize = 28 * 28;
const REQUESTS: usize = 1000;
const CLIENTS: usize = 8;

fn lenet_snapshot() -> Vec<u8> {
    // Serve real trained-format weights: build the training net and save
    // its (initialized) parameters through the CGDN snapshot path.
    let net = cgdnn::nets::lenet::<f32>(Box::new(datasets::SyntheticMnist::new(256, 7)))
        .expect("LeNet builds");
    let mut buf = Vec::new();
    net::save_params(&net, &mut buf).expect("snapshot serializes");
    buf
}

/// `requests` LeNet-shaped samples through `clients` closed-loop clients;
/// returns (answered, failed).
fn drive(server: &Server<f32>, requests: usize, clients: usize) -> (usize, usize) {
    use layers::data::BatchSource;
    let source = datasets::SyntheticMnist::new(512, 11);
    let n_samples = BatchSource::<f32>::num_samples(&source);
    let inputs = (0..requests)
        .map(|i| {
            let mut s = vec![0.0f32; SAMPLE];
            source.fill(i % n_samples, &mut s);
            s
        })
        .collect();
    let ok = server.drive(inputs, clients, None);
    (ok, requests - ok)
}

/// `replicas` LeNet engines sharing `snapshot`'s one decoded weight copy.
fn lenet_engines(snapshot: &[u8], replicas: usize, cfg: &EngineConfig) -> Vec<Engine<f32>> {
    let shape = blob::Shape::from(vec![1usize, 28, 28]);
    EngineFactory::new(&cgdnn::nets::lenet_spec(), &shape, cfg, Some(snapshot))
        .and_then(|f| f.build_n(replicas))
        .expect("engines build")
}

fn run_config(label: &str, snapshot: &[u8], replicas: usize, threads: usize, max_batch: usize) {
    let cfg = EngineConfig {
        max_batch,
        n_threads: threads,
    };
    let engines = lenet_engines(snapshot, replicas, &cfg);
    let server = Server::start(engines, BatchPolicy { queue_depth: 128 }).expect("server starts");
    let (ok, err) = drive(&server, REQUESTS, CLIENTS);
    let r = server.shutdown();
    println!(
        "  {label:<26} {:>8.0} req/s   p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us  \
         mean batch {:>5.2}  ({ok} ok / {err} failed)",
        r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_batch
    );
}

/// Linux VmRSS in KiB, if /proc is available.
fn rss_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Show that factory-built replicas hold one decoded weight copy between
/// them, while independently loaded engines each pay for their own.
fn weight_sharing_demo(snapshot: &[u8]) {
    let spec = cgdnn::nets::lenet_spec();
    let shape = blob::Shape::from(vec![1usize, 28, 28]);
    let cfg = EngineConfig {
        max_batch: 16,
        n_threads: 1,
    };
    let factory =
        EngineFactory::<f32>::new(&spec, &shape, &cfg, Some(snapshot)).expect("factory builds");
    let one_copy = factory.params_bytes();
    println!(
        "  decoded parameter set (data + diff): {:.1} KiB",
        one_copy as f64 / 1024.0
    );
    for n in [1usize, 2, 4, 8] {
        let before = rss_kb();
        let replicas = factory.build_n(n).expect("replicas build");
        let after = rss_kb();
        // Bytes of weight storage the replicas own privately; everything
        // else aliases the factory's copy through the Arc-backed blobs.
        let private: usize = replicas.iter().map(|e| e.params_unique_bytes()).sum();
        let rss = match (before, after) {
            (Some(b), Some(a)) => format!("{:+} KiB RSS", a - b),
            _ => "RSS unavailable".to_string(),
        };
        println!(
            "  {n} shared replica(s):  {:>10} private weight bytes  ({rss})",
            private
        );
        assert_eq!(private, 0, "factory replicas must not copy weights");
    }
    let before = rss_kb();
    let privates: Vec<Engine<f32>> = (0..4)
        .map(|_| {
            let mut e = Engine::build(&spec, &shape, &cfg).expect("engine builds");
            e.load_weights(snapshot).expect("weights load");
            e
        })
        .collect();
    let after = rss_kb();
    let private: usize = privates.iter().map(|e| e.params_unique_bytes()).sum();
    let rss = match (before, after) {
        (Some(b), Some(a)) => format!("{:+} KiB RSS", a - b),
        _ => "RSS unavailable".to_string(),
    };
    println!(
        "  4 private engine(s):  {private:>10} private weight bytes  ({rss}) \
         — {:.2}x one copy",
        private as f64 / one_copy as f64
    );
}

fn overload_demo(snapshot: &[u8]) {
    let cfg = EngineConfig {
        max_batch: 8,
        n_threads: 1,
    };
    let engines = lenet_engines(snapshot, 1, &cfg);
    // A 4-deep queue against a 16-client burst: admission control must
    // shed load instead of growing the queue.
    let server = Server::start(engines, BatchPolicy { queue_depth: 4 }).expect("server starts");
    let (ok, err) = drive(&server, 400, 16);
    let metrics = server.metrics();
    let r = server.shutdown();
    println!(
        "  queue_depth 4, burst 16 clients: {ok} served, {err} rejected \
         (max observed depth {}, {} batches)",
        r.max_queue_depth, r.n_batches
    );
    assert!(
        r.max_queue_depth <= 4,
        "queue depth must stay within its bound"
    );
    println!(
        "\nfull report of the overloaded run:\n{}",
        metrics.registry().csv()
    );
}

fn main() {
    banner(
        "E16",
        "serving throughput: dynamic micro-batching over the coarse-grain forward pass",
    );
    let snapshot = lenet_snapshot();
    println!("LeNet, {REQUESTS} single-sample requests, {CLIENTS} concurrent clients\n");

    println!("replica weight sharing (Arc copy-on-write blobs):");
    weight_sharing_demo(&snapshot);

    println!("\nreplica sweep (2 threads each, max_batch 16):");
    for replicas in [1, 2, 4] {
        run_config(
            &format!("{replicas} replica(s)"),
            &snapshot,
            replicas,
            2,
            16,
        );
    }
    run_config("2 replicas, max_batch 1", &snapshot, 2, 2, 1);

    println!("\noverload / backpressure:");
    overload_demo(&snapshot);
}
