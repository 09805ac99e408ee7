//! The load generator must *absorb* a transiently busy server: a
//! `HELLO_BUSY` greeting (connection cap reached) is retried
//! with backoff instead of failing the run, and the retries are counted in
//! the report.

use rpc::{load, proto, RpcConfig, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::io::Read;
use std::net::TcpStream;
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

/// A serving stack capped at two live connections, so two held
/// connections saturate admission.
fn start_tiny_stack() -> (Server<f32>, RpcServer, obs::Registry) {
    let spec = net::NetSpec::parse(TRAIN).unwrap();
    let factory = EngineFactory::<f32>::new(
        &spec,
        &blob::Shape::from(vec![6usize]),
        &EngineConfig {
            max_batch: 4,
            n_threads: 1,
        },
        None,
    )
    .unwrap();
    let server = Server::start(factory.build_n(1).unwrap(), BatchPolicy::default()).unwrap();
    let reg = obs::Registry::new();
    let cfg = RpcConfig { max_connections: 2 };
    let rpc = RpcServer::start(
        "127.0.0.1:0",
        server.client(),
        server.output_len(),
        cfg,
        &reg,
    )
    .unwrap();
    (server, rpc, reg)
}

/// Connect and read the server hello, holding the connection open —
/// occupies one of the two connection seats.
fn occupy(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    assert_eq!(
        proto::decode_server_hello(&hello).unwrap().status,
        proto::HELLO_OK
    );
    s
}

#[test]
fn busy_server_is_retried_with_backoff_not_failed() {
    let (server, rpc, _reg) = start_tiny_stack();
    let addr = rpc.local_addr();
    // Saturate admission: one connection being served, one queued.
    let held = (occupy(addr), occupy(addr));

    // Free the slots 250 ms from now — comfortably inside the load run's
    // default retry schedule (6 attempts from a 20 ms base), far outside
    // its first attempt.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        drop(held);
    });

    let cfg = load::LoadConfig {
        clients: 1,
        requests: 8,
        ..load::LoadConfig::default()
    };
    let samples = vec![vec![0.25f32; 6]; 4];
    let report = load::run(addr, &cfg, &samples).expect("busy window should be absorbed");
    release.join().unwrap();

    assert!(
        report.busy_retries >= 1,
        "expected at least one busy retry, report: {report}"
    );
    assert_eq!(report.completed, 8, "all requests served after the retry");
    assert_eq!(report.errors, 0);
    assert!(report.csv().contains("busy_retries,"));

    rpc.shutdown();
    server.shutdown();
}

#[test]
fn busy_retries_zero_keeps_fail_fast_semantics() {
    let (server, rpc, _reg) = start_tiny_stack();
    let addr = rpc.local_addr();
    let _held = (occupy(addr), occupy(addr));
    let cfg = load::LoadConfig {
        clients: 1,
        requests: 1,
        busy_retries: 0,
        ..load::LoadConfig::default()
    };
    let samples = vec![vec![0.25f32; 6]];
    match load::run(addr, &cfg, &samples) {
        Err(rpc::RpcError::Busy) => {}
        other => panic!("expected Busy with retries disabled, got {other:?}"),
    }
    rpc.shutdown();
    server.shutdown();
}
