//! Graceful-drain behaviour: a client blocked in a read during drain must
//! get a shutdown frame or a clean EOF within the drain window, a slow
//! reader must not wedge `shutdown()`, and a wire drain request must reach
//! the server's owner.

use rpc::{proto, RpcClient, RpcConfig, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn start_stack() -> (Server<f32>, RpcServer, obs::Registry) {
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

fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    proto::decode_server_hello(&hello).unwrap();
    s.write_all(&proto::encode_client_hello()).unwrap();
    s
}

fn send_infer(s: &mut TcpStream, id: u64) {
    let mut payload = Vec::new();
    proto::write_f32s(&mut payload, &[0.25f32; 6]);
    let head = proto::encode_header(proto::REQ_INFER, id, 0, payload.len() as u32);
    s.write_all(&head).unwrap();
    s.write_all(&payload).unwrap();
}

fn read_frame(s: &mut TcpStream) -> (u8, u64, Vec<u8>) {
    let mut head = [0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut head).unwrap();
    let h = proto::decode_header(&head).unwrap();
    let mut payload = vec![0u8; h.payload_len as usize];
    s.read_exact(&mut payload).unwrap();
    (h.kind, h.id, payload)
}

/// Regression test for the shutdown race: a client idling in a blocking
/// read while the server drains must be told — with a shutdown frame or a
/// clean EOF — within the drain window, not left to its own read timeout.
#[test]
fn client_blocked_in_read_is_released_by_drain() {
    let (server, rpc, _reg) = start_stack();
    let mut s = raw_conn(rpc.local_addr());
    // Prove the connection is live (and bound to a handler) first.
    send_infer(&mut s, 1);
    let (kind, id, _) = read_frame(&mut s);
    assert_eq!((kind, id), (proto::RESP_PROBS, 1));

    // Now sit in a blocking read with nothing in flight while the server
    // shuts down 100 ms from now.
    let shutdown = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        rpc.shutdown();
        t0.elapsed()
    });
    let t0 = Instant::now();
    let mut head = [0u8; proto::FRAME_HEADER_LEN];
    match s.read_exact(&mut head) {
        Ok(()) => {
            let h = proto::decode_header(&head).unwrap();
            assert_eq!(h.kind, proto::RESP_SHUTDOWN, "expected a shutdown frame");
        }
        // A clean EOF is an acceptable goodbye too.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "blocked reader waited {:?} for the drain goodbye",
        t0.elapsed()
    );
    let drain_time = shutdown.join().unwrap();
    assert!(
        drain_time < Duration::from_secs(3),
        "shutdown took {drain_time:?}"
    );
    server.shutdown();
}

/// A deliberately slow reader — response sent but never read — must not
/// wedge `shutdown()`; its buffered response stays readable afterwards.
#[test]
fn slow_reader_does_not_wedge_shutdown() {
    let (server, rpc, _reg) = start_stack();
    let mut s = raw_conn(rpc.local_addr());
    send_infer(&mut s, 9);
    // Let the server answer into the socket buffer, then drain while we
    // are conspicuously not reading.
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    rpc.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "shutdown blocked on a slow reader for {:?}",
        t0.elapsed()
    );
    // The answer was written before the drain; it is still in our buffer.
    let (kind, id, payload) = read_frame(&mut s);
    assert_eq!((kind, id), (proto::RESP_PROBS, 9));
    assert_eq!(payload.len(), 3 * std::mem::size_of::<f32>());
    // Followed by the drain goodbye (or a clean close).
    let mut head = [0u8; proto::FRAME_HEADER_LEN];
    match s.read_exact(&mut head) {
        Ok(()) => {
            let h = proto::decode_header(&head).unwrap();
            assert_eq!(h.kind, proto::RESP_SHUTDOWN);
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
    }
    server.shutdown();
}

/// A wire drain request is acknowledged and surfaces via
/// `drain_requested()` so the owning process knows to stop.
#[test]
fn wire_drain_request_is_acknowledged_and_surfaced() {
    let (server, rpc, _reg) = start_stack();
    assert!(!rpc.drain_requested());
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    client.drain_server().unwrap();
    assert!(rpc.drain_requested());
    rpc.shutdown();
    server.shutdown();
}
