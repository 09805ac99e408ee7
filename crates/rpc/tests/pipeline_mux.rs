//! The multiplexed protocol: pipelined requests on one connection and
//! out-of-order response delivery matched by frame id.
//!
//! Every served batch passes the process-global `serve.worker` fault
//! point, so each test that starts a stack holds [`fault_lock`]: one test
//! arms a delay there and must be the one to take it.

use net::faults::{arm, disarm_all, FaultMode};
use rpc::client::Outcome;
use rpc::{proto, RpcClient, RpcConfig, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    let g = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disarm_all();
    g
}

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

/// `replicas` engines behind the wire front-end.
fn start_stack(replicas: usize) -> (Server<f32>, RpcServer, obs::Registry) {
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
    let server = Server::start(factory.build_n(replicas).unwrap(), BatchPolicy::default()).unwrap();
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

/// A slow request issued before a fast one: their responses cross on the
/// wire, and the client matches them back by id. Two replicas, and a
/// one-shot `serve.worker` delay parks whichever runs the slow request's
/// batch for 200 ms. The fast one carries a 1 µs budget, so it is shed
/// with `TimedOut` at assembly — *before* any batch computes — whether it
/// joins the slow request's batch or goes to the idle replica: the
/// crossing is deterministic, not a scheduling accident.
#[test]
fn responses_cross_and_are_matched_by_id() {
    let _g = fault_lock();
    let (server, rpc, _reg) = start_stack(2);
    arm("serve.worker", FaultMode::Delay(200), 0);
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    let sample = vec![0.25f32; 6];

    let slow = client.send_infer(&sample, 0).unwrap();
    let fast = client.send_infer(&sample, 1).unwrap();
    assert_eq!(client.in_flight(), 2);

    let first = client.recv_completion().unwrap();
    assert_eq!(first.id, fast, "the later request must answer first");
    assert_eq!(first.outcome, Outcome::TimedOut);

    let second = client.recv_completion().unwrap();
    assert_eq!(second.id, slow);
    assert!(matches!(second.outcome, Outcome::Probs(_)));
    assert_eq!(client.in_flight(), 0);

    rpc.shutdown();
    server.shutdown();
}

/// The client against a scripted server that answers three pipelined
/// requests in reverse order — pure id bookkeeping, no timing involved.
#[test]
fn client_matches_reversed_responses_from_scripted_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.write_all(&proto::encode_server_hello(proto::HELLO_OK, 2, 1))
            .unwrap();
        let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
        s.read_exact(&mut hello).unwrap();
        // Read three unary requests, remembering their ids.
        let mut ids = Vec::new();
        for _ in 0..3 {
            let mut head = [0u8; proto::FRAME_HEADER_LEN];
            s.read_exact(&mut head).unwrap();
            let h = proto::decode_header(&head).unwrap();
            assert_eq!(h.kind, proto::REQ_INFER);
            let mut payload = vec![0u8; h.payload_len as usize];
            s.read_exact(&mut payload).unwrap();
            ids.push(h.id);
        }
        // Answer newest-first, each with a payload naming its id.
        for &id in ids.iter().rev() {
            let mut p = Vec::new();
            proto::write_f32s(&mut p, &[id as f32]);
            let head = proto::encode_header(proto::RESP_PROBS, id, 0, p.len() as u32);
            s.write_all(&head).unwrap();
            s.write_all(&p).unwrap();
        }
    });

    let mut client = RpcClient::connect(addr).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|_| client.send_infer(&[0.5, 0.5], 0).unwrap())
        .collect();
    // Completions arrive reversed; each must carry its own id's payload.
    for expect in ids.iter().rev() {
        let c = client.recv_completion().unwrap();
        assert_eq!(c.id, *expect);
        assert_eq!(c.outcome, Outcome::Probs(vec![*expect as f32]));
    }
    script.join().unwrap();
}

/// A server that greets and then goes silent: the client's read timeout
/// must surface as the typed [`rpc::RpcError::IoTimeout`], not as an `Io`
/// string carrying an errno. The script holds the socket open until the
/// client has seen the timeout, so this is a stall, never a hangup.
#[test]
fn silent_server_surfaces_as_a_typed_io_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let script = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.write_all(&proto::encode_server_hello(proto::HELLO_OK, 2, 1))
            .unwrap();
        let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
        s.read_exact(&mut hello).unwrap();
        done_rx.recv().unwrap();
    });

    let mut client = RpcClient::connect_with(addr, Duration::from_millis(50)).unwrap();
    assert_eq!(client.infer(&[0.5, 0.5]), Err(rpc::RpcError::IoTimeout));
    done_tx.send(()).unwrap();
    script.join().unwrap();
}

/// Five unary frames in flight together on one connection: every
/// sample's wire output is bit-identical to the in-process answer, matched
/// back by id whatever order the responses arrive in.
#[test]
fn pipelined_unary_requests_are_bit_identical() {
    let _g = fault_lock();
    let (server, rpc, _reg) = start_stack(1);
    let samples: Vec<Vec<f32>> = (0..5)
        .map(|i| (0..6).map(|j| (i * 6 + j) as f32 * 0.03).collect())
        .collect();
    let expected: Vec<Vec<f32>> = samples
        .iter()
        .map(|s| server.infer(s).unwrap().to_vec())
        .collect();

    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    let ids: Vec<u64> = samples
        .iter()
        .map(|s| client.send_infer(s, 0).unwrap())
        .collect();
    assert_eq!(client.in_flight(), 5);

    let mut got: Vec<Option<Vec<f32>>> = vec![None; 5];
    for _ in 0..5 {
        let c = client.recv_completion().unwrap();
        let Outcome::Probs(p) = c.outcome else {
            panic!("unexpected outcome for id {}", c.id);
        };
        let slot = ids
            .iter()
            .position(|&id| id == c.id)
            .unwrap_or_else(|| panic!("unknown id {}", c.id));
        assert!(got[slot].is_none(), "duplicate answer for slot {slot}");
        got[slot] = Some(p);
    }
    assert_eq!(client.in_flight(), 0);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.as_deref(), Some(e.as_slice()), "sample {i} differs");
    }

    rpc.shutdown();
    server.shutdown();
}

/// Kind 3 once carried K samples in one frame; no client sent it, and it
/// is now an unknown request kind like any other: refused with an error
/// frame and a `rpc.decode_errors` bump — and the connection survives it.
#[test]
fn retired_stream_kind_is_refused_connection_lives() {
    let _g = fault_lock();
    let (server, rpc, reg) = start_stack(1);
    let mut s = TcpStream::connect(rpc.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    s.write_all(&proto::encode_client_hello()).unwrap();

    // Two well-formed samples, as the retired kind framed them.
    let mut p = Vec::new();
    proto::write_f32s(&mut p, &[0.1f32; 12]);
    let head = proto::encode_header(3, 9, 0, p.len() as u32);
    s.write_all(&head).unwrap();
    s.write_all(&p).unwrap();
    let mut rhead = [0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut rhead).unwrap();
    let rh = proto::decode_header(&rhead).unwrap();
    assert_eq!(rh.kind, proto::RESP_ERROR);
    assert_eq!(rh.id, 9);
    let mut msg = vec![0u8; rh.payload_len as usize];
    s.read_exact(&mut msg).unwrap();
    assert_eq!(String::from_utf8_lossy(&msg), "unknown request kind 3");
    assert_eq!(reg.counter("rpc.decode_errors").get(), 1);

    // Same connection, now a well-formed unary request: still served.
    let mut p = Vec::new();
    proto::write_f32s(&mut p, &[0.1f32; 6]);
    let head = proto::encode_header(proto::REQ_INFER, 10, 0, p.len() as u32);
    s.write_all(&head).unwrap();
    s.write_all(&p).unwrap();
    s.read_exact(&mut rhead).unwrap();
    let rh = proto::decode_header(&rhead).unwrap();
    assert_eq!(rh.kind, proto::RESP_PROBS);
    assert_eq!(rh.id, 10);

    drop(s);
    rpc.shutdown();
    server.shutdown();
}

/// Client-side validation: a sample that does not match the handshake's
/// shape never reaches the wire.
#[test]
fn client_refuses_a_misshapen_sample() {
    let _g = fault_lock();
    let (server, rpc, _reg) = start_stack(1);
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    assert!(matches!(
        client.send_infer(&[0.0f32; 7], 0),
        Err(rpc::RpcError::ShapeMismatch { got: 7, want: 6 })
    ));
    assert!(matches!(
        client.send_infer(&[], 0),
        Err(rpc::RpcError::ShapeMismatch { got: 0, want: 6 })
    ));
    assert_eq!(client.in_flight(), 0);
    rpc.shutdown();
    server.shutdown();
}
