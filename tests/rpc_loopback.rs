//! Loopback integration of the wire front-end: outputs over TCP must be
//! bit-identical to in-process [`serve::Server::infer`], deadlines and
//! rejections must propagate as typed frames, and the whole path must
//! publish `rpc.*` metrics and trace spans.
//!
//! Bit-identity holds even under concurrent clients because each output
//! row of the batched GEMM is a dot product over that row's inputs alone —
//! batch composition cannot perturb another row's arithmetic.

use rpc::{RpcClient, RpcConfig, RpcError, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::time::Duration;

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
    let spec = net::NetSpec::parse(TRAIN).unwrap();
    EngineFactory::<f32>::new(
        &spec,
        &blob::Shape::from(vec![6usize]),
        &EngineConfig {
            max_batch: 4,
            n_threads: 1,
        },
        None,
    )
    .unwrap()
}

/// One server behind one RPC front end, their `serve.*` and `rpc.*`
/// metrics together in a registry private to the stack.
fn start_stack(replicas: usize, policy: BatchPolicy) -> (Server<f32>, RpcServer, obs::Registry) {
    let server = Server::start(factory().build_n(replicas).unwrap(), policy).unwrap();
    let reg = obs::Registry::new();
    reg.adopt(server.metrics().registry());
    let rpc = RpcServer::start(
        "127.0.0.1:0",
        server.client(),
        server.output_len(),
        RpcConfig::default(),
        &reg,
    )
    .unwrap();
    (server, rpc, reg)
}

/// Deterministic distinct samples.
fn sample(i: usize) -> Vec<f32> {
    (0..6)
        .map(|j| ((i * 31 + j * 7) % 100) as f32 * 0.01 - 0.5)
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn wire_outputs_match_in_process_bit_for_bit() {
    let (server, rpc, _reg) = start_stack(1, BatchPolicy::default());
    let baselines: Vec<Vec<f32>> = (0..16)
        .map(|i| server.infer(&sample(i)).unwrap().to_vec())
        .collect();
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    assert_eq!(client.sample_len(), 6);
    assert_eq!(client.output_len(), 3);
    for (i, want) in baselines.iter().enumerate() {
        let got = client.infer(&sample(i)).unwrap();
        assert_eq!(
            bits(&got),
            bits(want),
            "wire output diverged from in-process for sample {i}"
        );
    }
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn concurrent_wire_clients_stay_bit_identical() {
    let (server, rpc, reg) = start_stack(2, BatchPolicy::default());
    let addr = rpc.local_addr();
    // In-process baselines first; concurrency must not perturb a row.
    let baselines: Vec<Vec<u32>> = (0..20)
        .map(|i| bits(&server.infer(&sample(i)).unwrap()))
        .collect();
    std::thread::scope(|s| {
        for c in 0..4 {
            let baselines = &baselines;
            s.spawn(move || {
                let mut client = RpcClient::connect(addr).unwrap();
                // Each client walks the samples from its own offset, so
                // concurrent micro-batches mix different inputs.
                for k in 0..20 {
                    let i = (c * 5 + k) % 20;
                    let got = client.infer(&sample(i)).unwrap();
                    assert_eq!(bits(&got), baselines[i], "client {c}, sample {i}");
                }
            });
        }
    });
    assert_eq!(reg.counter("rpc.completed").get(), 80);
    assert_eq!(reg.counter("rpc.decode_errors").get(), 0);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn deadline_budget_propagates_and_times_out_over_the_wire() {
    // A 1 us budget expires on the way from the frame parse through the
    // admission queue to the woken worker, which sheds it at assembly.
    let (server, rpc, reg) = start_stack(1, BatchPolicy::default());
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    let err = client.infer_with_budget(&sample(0), 1).unwrap_err();
    assert_eq!(err, RpcError::TimedOut);
    assert_eq!(reg.counter("rpc.timed_out").get(), 1);
    // A sane budget succeeds on the same connection.
    let out = client.infer_with_budget(&sample(0), 1_000_000).unwrap();
    assert_eq!(out.len(), 3);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn queue_pressure_rejections_propagate_over_the_wire() {
    // One replica, batch capacity 1, queue depth 1: eight closed-loop wire
    // clients guarantee admission-control rejections.
    let (server, rpc, reg) = start_stack(1, BatchPolicy { queue_depth: 1 });
    let cfg = rpc::LoadConfig {
        clients: 8,
        requests: 400,
        deadline_us: 0,
        ..rpc::LoadConfig::default()
    };
    let samples: Vec<Vec<f32>> = (0..16).map(sample).collect();
    let report = rpc::load::run(rpc.local_addr(), &cfg, &samples).unwrap();
    assert!(report.completed > 0, "no request completed: {report}");
    assert!(
        report.rejected > 0,
        "queue_depth 1 under 8 clients produced no rejection: {report}"
    );
    assert_eq!(report.errors, 0, "{report}");
    assert_eq!(
        report.completed + report.rejected + report.timed_out,
        400,
        "{report}"
    );
    // The server-side counters tell the same story.
    assert_eq!(reg.counter("rpc.completed").get(), report.completed);
    assert_eq!(reg.counter("rpc.rejected").get(), report.rejected);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn live_stats_scrape_is_invisible_to_inflight_requests() {
    // In-process baselines from a server of their own, so every request
    // the stack's batcher completes arrived over its wire.
    let baseline = Server::start(factory().build_n(1).unwrap(), BatchPolicy::default()).unwrap();
    let baselines: Vec<Vec<u32>> = (0..16)
        .map(|i| bits(&baseline.infer(&sample(i)).unwrap()))
        .collect();
    baseline.shutdown();
    let (server, rpc, _reg) = start_stack(1, BatchPolicy::default());
    let addr = rpc.local_addr();

    // Scrape the live registry repeatedly while an inference stream is in
    // flight on the same event loop: every response must stay bit-identical
    // to the in-process baseline, and every scrape must parse and carry the
    // batcher's live `serve.*` series beside `rpc.*`. The stream signals
    // after its first round and keeps going until the scrapes are done, so
    // each scrape below is taken mid-stream.
    let (first_round, started) = std::sync::mpsc::channel();
    let scraped = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (baselines, scraped) = (&baselines, &scraped);
        let infer = s.spawn(move || {
            let mut client = RpcClient::connect(addr).unwrap();
            let mut round = 0;
            while round < 4 || !scraped.load(std::sync::atomic::Ordering::SeqCst) {
                for (i, want) in baselines.iter().enumerate() {
                    let got = client.infer(&sample(i)).unwrap();
                    assert_eq!(
                        &bits(&got),
                        want,
                        "round {round} sample {i} diverged under live stats scrape"
                    );
                }
                round += 1;
                let _ = first_round.send(());
            }
        });
        started.recv().unwrap();
        for _ in 0..8 {
            let snap = rpc::fetch_stats(addr, Duration::from_secs(10)).unwrap();
            assert!(counter(&snap, "serve.completed") > 0);
            match snap.get("serve.queue_wait_us") {
                Some(obs::MetricValue::Histogram { count, .. }) => assert!(*count > 0),
                other => panic!("serve.queue_wait_us missing or mistyped: {other:?}"),
            }
            match snap.get("serve.batch_size") {
                Some(obs::MetricValue::Histogram { count, .. }) => assert!(*count > 0),
                other => panic!("serve.batch_size missing or mistyped: {other:?}"),
            }
            assert_eq!(
                snap.get("serve.healthy_replicas"),
                Some(&obs::MetricValue::Gauge(1.0))
            );
        }
        scraped.store(true, std::sync::atomic::Ordering::SeqCst);
        infer.join().unwrap();
    });

    let snap = rpc::fetch_stats(addr, Duration::from_secs(10)).unwrap();
    assert!(
        counter(&snap, "rpc.frames_total") > 0,
        "event loop served frames but counted none"
    );
    // A private registry: the batcher answered exactly what the wire asked.
    assert_eq!(
        counter(&snap, "serve.completed"),
        counter(&snap, "rpc.completed")
    );
    // The CSV rendering of the scraped snapshot carries the scraped
    // counter — what `cgdnn stats --connect` prints.
    let frames = snap
        .csv()
        .lines()
        .find_map(|l| l.strip_prefix("rpc.frames_total,")?.parse::<u64>().ok());
    assert!(
        frames.is_some_and(|n| n > 0),
        "rpc.frames_total missing from the CSV rendering"
    );
    rpc.shutdown();
    server.shutdown();
}

/// The counter `name` of a scraped snapshot.
fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(obs::MetricValue::Counter(n)) => *n,
        other => panic!("{name} missing or mistyped: {other:?}"),
    }
}

/// One raw frame exchange on an already-handshaken socket.
fn raw_exchange(s: &mut std::net::TcpStream, id: u64, payload_f32s: &[f32]) -> (u8, u64, Vec<u8>) {
    use rpc::proto;
    use std::io::{Read, Write};
    let mut payload = Vec::new();
    proto::write_f32s(&mut payload, payload_f32s);
    s.write_all(&proto::encode_header(
        proto::REQ_INFER,
        id,
        0,
        payload.len() as u32,
    ))
    .unwrap();
    s.write_all(&payload).unwrap();
    let mut head = [0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut head).unwrap();
    let h = proto::decode_header(&head).unwrap();
    let mut body = vec![0u8; h.payload_len as usize];
    s.read_exact(&mut body).unwrap();
    (h.kind, h.id, body)
}

#[test]
fn rpc_metrics_and_spans_cover_the_wire_path() {
    use rpc::proto;
    use std::io::{Read, Write};
    let (server, rpc, reg) = start_stack(1, BatchPolicy::default());
    obs::trace::set_enabled(true);
    let _ = obs::trace::take_events();

    let mut s = std::net::TcpStream::connect(rpc.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    proto::decode_server_hello(&hello).unwrap();
    s.write_all(&proto::encode_client_hello()).unwrap();

    let (kind, id, _) = raw_exchange(&mut s, 1, &sample(1));
    assert_eq!((kind, id), (proto::RESP_PROBS, 1));
    // A wrong-length infer payload is a decode error that must NOT kill
    // the connection (the CRC-verified header framed it correctly)...
    let (kind, id, _) = raw_exchange(&mut s, 2, &[1.0, 2.0, 3.0]);
    assert_eq!((kind, id), (proto::RESP_ERROR, 2));
    // ...so the same connection keeps serving.
    let (kind, id, _) = raw_exchange(&mut s, 3, &sample(2));
    assert_eq!((kind, id), (proto::RESP_PROBS, 3));
    drop(s);

    rpc.shutdown();
    server.shutdown();
    obs::trace::set_enabled(false);
    let events = obs::trace::take_events();
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    assert!(names.contains("conn"), "no conn span in {names:?}");
    assert!(names.contains("frame"), "no frame span in {names:?}");
    assert!(events.iter().any(|e| e.cat == "rpc"));

    assert!(reg.counter("rpc.connections").get() >= 1);
    assert_eq!(reg.counter("rpc.completed").get(), 2);
    assert_eq!(reg.counter("rpc.decode_errors").get(), 1);
    assert!(reg.counter("rpc.frames_in").get() >= 3);
    assert!(reg.counter("rpc.frames_out").get() >= 3);
    assert!(reg.counter("rpc.bytes_in").get() > 0);
    assert!(reg.counter("rpc.bytes_out").get() > 0);
    assert_eq!(reg.counter("rpc.handler_panics").get(), 0);
}
