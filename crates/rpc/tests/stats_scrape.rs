//! `fetch_stats` against a peer that lies: the scrape shares the one chunk
//! run (`proto::read_run`) with the distributed tier, so chunks must arrive
//! in order and the reassembled snapshot is capped — a hostile or broken
//! peer gets a typed [`RpcError::Protocol`], not memory.

use rpc::{fetch_stats, proto, RpcError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept one scrape, complete the handshake, read the stats request, then
/// answer with `reply` (a sequence of raw frames).
fn lying_peer(reply: Vec<u8>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.write_all(&proto::encode_server_hello(proto::HELLO_OK, 1, 1))
            .unwrap();
        let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
        s.read_exact(&mut hello).unwrap();
        let request = proto::read_frame(&mut s).unwrap();
        assert_eq!(request.kind, proto::FRAME_STATS);
        // The client may hang up as soon as it has seen enough.
        let _ = s.write_all(&reply);
    });
    (addr, peer)
}

fn stats_chunk(idx: usize, n: usize, payload: &[u8]) -> Vec<u8> {
    proto::encode_frame(
        proto::FRAME_STATS,
        1,
        proto::encode_chunk_aux(idx, n),
        payload,
    )
}

fn scrape(reply: Vec<u8>) -> Result<obs::Snapshot, RpcError> {
    let (addr, peer) = lying_peer(reply);
    let got = fetch_stats(addr, Duration::from_secs(5));
    peer.join().unwrap();
    got
}

#[test]
fn an_honest_two_chunk_reply_is_reassembled() {
    let reg = obs::Registry::new();
    reg.counter("scraped").add(3);
    let bytes = reg.snapshot().to_bytes();
    let (a, b) = bytes.split_at(5);
    let mut reply = stats_chunk(0, 2, a);
    reply.extend(stats_chunk(1, 2, b));
    assert_eq!(scrape(reply).unwrap(), reg.snapshot());
}

#[test]
fn out_of_order_chunks_are_a_protocol_error() {
    // Both halves of a valid snapshot, second half first: reassembling by
    // index would accept this.
    let bytes = obs::Registry::new().snapshot().to_bytes();
    let (a, b) = bytes.split_at(2);
    let mut reply = stats_chunk(1, 2, b);
    reply.extend(stats_chunk(0, 2, a));
    let got = scrape(reply);
    assert!(
        matches!(&got, Err(RpcError::Protocol(m)) if m.contains("out-of-order")),
        "{got:?}"
    );
}

#[test]
fn a_reply_over_the_blob_cap_is_a_protocol_error() {
    // 65 full chunks: one past the 16 MiB cap, far under what the 16-bit
    // chunk count can announce (65 535 chunks — 16 GiB at this chunk size).
    let full = vec![0u8; proto::MAX_CHUNK_BYTES as usize];
    let n = proto::MAX_BLOB_BYTES / full.len() + 1;
    let reply: Vec<u8> = (0..n).flat_map(|i| stats_chunk(i, n, &full)).collect();
    let got = scrape(reply);
    assert!(
        matches!(&got, Err(RpcError::Protocol(m)) if m.contains("cap")),
        "{got:?}"
    );
}
