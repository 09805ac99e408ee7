//! Protocol robustness: malformed traffic of every flavour must produce a
//! typed error (and an `rpc.decode_errors` bump) — never a panic, never a
//! wedged server, never collateral damage to well-behaved connections.

use rpc::{proto, RpcClient, RpcConfig, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
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

/// Micro-batcher + wire front-end on an ephemeral port, with a private
/// metrics registry so counter assertions see only this test's traffic.
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

fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// Raw connection that has consumed the server hello and sent nothing yet.
fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    proto::decode_server_hello(&hello).unwrap();
    s
}

/// Read one response frame (header + payload) off a raw connection.
fn read_frame(s: &mut TcpStream) -> (u8, u64, Vec<u8>) {
    let mut head = [0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut head).unwrap();
    let h = proto::decode_header(&head).unwrap();
    let mut payload = vec![0u8; h.payload_len as usize];
    s.read_exact(&mut payload).unwrap();
    (h.kind, h.id, payload)
}

#[test]
fn bad_magic_yields_typed_error_and_leaves_server_alive() {
    let (server, rpc, reg) = start_stack();
    let addr = rpc.local_addr();

    let mut s = raw_conn(addr);
    s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (kind, id, payload) = read_frame(&mut s);
    assert_eq!(kind, proto::RESP_ERROR);
    assert_eq!(id, 0);
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("magic"), "unexpected message: {msg}");
    // The offending connection is closed. (A reset rather than a FIN is
    // fine: our unread junk was still in the server's receive buffer.)
    let mut sink = [0u8; 16];
    match s.read(&mut sink) {
        Ok(0) => {}
        Ok(n) => panic!("server kept talking: {n} unexpected bytes"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    // ...but a well-formed client still gets service.
    let mut good = RpcClient::connect(addr).unwrap();
    let out = good.infer(&[0.1; 6]).unwrap();
    assert_eq!(out.len(), 3);
    assert!(reg.counter("rpc.decode_errors").get() >= 1);
    assert_eq!(reg.counter("rpc.handler_panics").get(), 0);

    rpc.shutdown();
    server.shutdown();
}

#[test]
fn bad_version_is_rejected_with_explanation() {
    let (server, rpc, reg) = start_stack();
    let mut s = raw_conn(rpc.local_addr());
    let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
    hello[..4].copy_from_slice(&proto::MAGIC);
    hello[4..6].copy_from_slice(&999u16.to_le_bytes());
    s.write_all(&hello).unwrap();
    let (kind, _, payload) = read_frame(&mut s);
    assert_eq!(kind, proto::RESP_ERROR);
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("version"), "unexpected message: {msg}");
    assert!(reg.counter("rpc.decode_errors").get() >= 1);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation_or_panic() {
    let (server, rpc, reg) = start_stack();
    // Valid-CRC headers announcing one byte over the cap and 4 GiB: the
    // server must refuse on the announced length alone, before reading or
    // allocating — at the cap `proto::read_frame` enforces.
    for len in [proto::MAX_PAYLOAD + 1, u32::MAX] {
        let head = proto::encode_header(proto::REQ_INFER, 7, 0, len);
        let blocking = proto::read_frame(&mut &head[..]).err().unwrap();
        assert!(
            matches!(
                blocking,
                proto::FrameError::Decode(proto::DecodeError::Oversize { len: l, max })
                    if l == len && max == proto::MAX_PAYLOAD
            ),
            "{len}: {blocking:?}"
        );

        let mut s = raw_conn(rpc.local_addr());
        s.write_all(&proto::encode_client_hello()).unwrap();
        s.write_all(&head).unwrap();
        let (kind, id, payload) = read_frame(&mut s);
        assert_eq!(kind, proto::RESP_ERROR, "{len}");
        assert_eq!(id, 7);
        let msg = String::from_utf8_lossy(&payload).into_owned();
        assert!(msg.contains("exceeds"), "{len}: unexpected message: {msg}");
    }
    assert!(reg.counter("rpc.decode_errors").get() >= 2);
    assert_eq!(reg.counter("rpc.handler_panics").get(), 0);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn corrupt_header_crc_gets_error_frame_and_close() {
    let (server, rpc, reg) = start_stack();
    let mut s = raw_conn(rpc.local_addr());
    s.write_all(&proto::encode_client_hello()).unwrap();
    let mut head = proto::encode_header(proto::REQ_INFER, 1, 0, 24);
    head[8] ^= 0xff; // corrupt the id; the stored CRC no longer matches
    s.write_all(&head).unwrap();
    let (kind, _, payload) = read_frame(&mut s);
    assert_eq!(kind, proto::RESP_ERROR);
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("crc"), "unexpected message: {msg}");
    // No trustworthy framing left: the connection must be closed.
    let mut sink = [0u8; 16];
    assert_eq!(s.read(&mut sink).unwrap(), 0);
    assert!(reg.counter("rpc.decode_errors").get() >= 1);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn truncated_payload_counts_decode_error_and_never_answers() {
    let (server, rpc, reg) = start_stack();
    let mut s = raw_conn(rpc.local_addr());
    s.write_all(&proto::encode_client_hello()).unwrap();
    // Header promises 24 payload bytes; deliver 12 and hang up the write
    // side. The server must notice the mid-frame EOF, not wait forever.
    s.write_all(&proto::encode_header(proto::REQ_INFER, 3, 0, 24))
        .unwrap();
    s.write_all(&[0u8; 12]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert!(
        wait_for(
            || reg.counter("rpc.decode_errors").get() >= 1,
            Duration::from_secs(5)
        ),
        "decode_errors never bumped for a truncated payload"
    );
    // No response frame: just the close.
    let mut sink = [0u8; 16];
    assert_eq!(s.read(&mut sink).unwrap(), 0);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_in_header_counts_decode_error() {
    let (server, rpc, reg) = start_stack();
    let before = reg.counter("rpc.decode_errors").get();
    {
        let mut s = raw_conn(rpc.local_addr());
        s.write_all(&proto::encode_client_hello()).unwrap();
        // 10 of 24 header bytes, then vanish.
        s.write_all(&[0xab; 10]).unwrap();
    } // drop closes the socket
    assert!(
        wait_for(
            || reg.counter("rpc.decode_errors").get() > before,
            Duration::from_secs(5)
        ),
        "decode_errors never bumped for a mid-header disconnect"
    );
    assert_eq!(reg.counter("rpc.handler_panics").get(), 0);
    rpc.shutdown();
    server.shutdown();
}

#[test]
fn random_byte_prefix_fuzzing_never_panics_or_wedges() {
    let (server, rpc, reg) = start_stack();
    let addr = rpc.local_addr();
    let report = rpc::load::fuzz(addr, 32, 0xdecafbad, Duration::from_secs(5)).unwrap();
    assert_eq!(report.connections, 32);
    // Junk after a valid hello always has a CRC-protected header to fail;
    // junk from byte zero fails the hello decode — either way they count.
    assert!(
        wait_for(
            || reg.counter("rpc.decode_errors").get() >= 16,
            Duration::from_secs(5)
        ),
        "only {} decode errors after 32 junk connections",
        reg.counter("rpc.decode_errors").get()
    );
    assert_eq!(reg.counter("rpc.handler_panics").get(), 0);
    // The gauntlet survived: a real client still gets real answers.
    let mut good = RpcClient::connect(addr).unwrap();
    assert_eq!(good.infer(&[0.5; 6]).unwrap().len(), 3);
    rpc.shutdown();
    server.shutdown();
}
