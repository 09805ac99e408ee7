//! Snapshot error paths at the integration level: the serving tier trusts
//! `load_params` to reject malformed files loudly, so every corruption
//! class gets a test — truncation, bad magic, wrong version (the retired v1
//! layout included), CRC damage, trailing bytes — plus the `f32`/`f64`
//! round-trips (values travel as `f64`, so no precision is lost).

mod common;

use cgdnn::prelude::*;
use common::{tiny_net, tiny_net_f64};

fn snapshot_bytes() -> Vec<u8> {
    let net = tiny_net(13);
    let mut buf = Vec::new();
    net::save_params(&net, &mut buf).unwrap();
    buf
}

/// The pre-container v1 layout: magic, version 1, then the bare
/// parameter payload with no CRC.
fn v1_snapshot_bytes() -> Vec<u8> {
    let mut buf = b"CGDN".to_vec();
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&net::snapshot::params_to_bytes(&tiny_net(13)));
    buf
}

#[test]
fn f32_round_trip_is_bit_exact() {
    let src = tiny_net(13);
    let buf = snapshot_bytes();
    let mut dst = tiny_net(99); // different init, same shapes
    net::load_params(&mut dst, buf.as_slice()).unwrap();
    for (a, b) in src.learnable_params().iter().zip(dst.learnable_params()) {
        assert_eq!(a.shape().dims(), b.shape().dims());
        assert_eq!(
            a.data(),
            b.data(),
            "f64 storage must round-trip f32 exactly"
        );
    }
}

#[test]
fn f64_round_trip_is_bit_exact() {
    let src = tiny_net_f64(13);
    let mut buf = Vec::new();
    net::save_params(&src, &mut buf).unwrap();
    let mut dst = tiny_net_f64(99);
    net::load_params(&mut dst, buf.as_slice()).unwrap();
    for (a, b) in src.learnable_params().iter().zip(dst.learnable_params()) {
        assert_eq!(a.data(), b.data(), "f64 values must round-trip exactly");
    }
}

#[test]
fn v1_snapshot_is_rejected() {
    let mut net = tiny_net(99);
    let before: Vec<Vec<f32>> = net
        .learnable_params()
        .iter()
        .map(|p| p.data().to_vec())
        .collect();
    let e = net::load_params(&mut net, v1_snapshot_bytes().as_slice()).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("unsupported version 1"), "got: {e}");
    for (p, b) in net.learnable_params().iter().zip(&before) {
        assert_eq!(
            p.data(),
            b.as_slice(),
            "a refused file leaves the weights alone"
        );
    }
}

#[test]
fn truncated_snapshot_is_rejected_at_any_cut() {
    let buf = snapshot_bytes();
    // Cut in the header, in a section header, mid-payload, and inside the
    // CRC trailer.
    for cut in [0, 2, 7, 11, buf.len() / 2, buf.len() - 1] {
        let mut net = tiny_net(13);
        let e = net::load_params(&mut net, &buf[..cut]).unwrap_err();
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::InvalidData,
            "truncation at {cut} bytes must be clean InvalidData, got {e}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut buf = snapshot_bytes();
    buf[0..4].copy_from_slice(b"NOPE");
    let mut net = tiny_net(13);
    let e = net::load_params(&mut net, buf.as_slice()).unwrap_err();
    assert!(e.to_string().contains("magic"), "got: {e}");
}

#[test]
fn wrong_version_is_rejected() {
    let mut buf = snapshot_bytes();
    // Version field sits right after the 4-byte magic, little-endian u32.
    buf[4..8].copy_from_slice(&99u32.to_le_bytes());
    let mut net = tiny_net(13);
    let e = net::load_params(&mut net, buf.as_slice()).unwrap_err();
    assert!(e.to_string().contains("version"), "got: {e}");
}

#[test]
fn mid_file_corruption_fails_the_crc() {
    let mut buf = snapshot_bytes();
    let mid = buf.len() / 2;
    buf[mid] ^= 0x01; // single bit flip deep in the payload
    let mut net = tiny_net(13);
    let e = net::load_params(&mut net, buf.as_slice()).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("crc"), "got: {e}");
}

#[test]
fn trailing_garbage_is_rejected() {
    // The file is CRC-framed: anything after the trailer is corruption.
    let mut net = tiny_net(13);
    let mut buf = snapshot_bytes();
    buf.extend_from_slice(&[0xAB; 16]);
    let e = net::load_params(&mut net, buf.as_slice()).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    // And a lying blob count fails too, even under a valid CRC.
    let mut params = net::snapshot::params_to_bytes(&net);
    params[0..4].copy_from_slice(&1u32.to_le_bytes());
    let mut lying = Vec::new();
    net::snapshot::save_sections(&[(net::snapshot::SEC_PARAMS, &params)], &mut lying).unwrap();
    assert!(net::load_params(&mut net, lying.as_slice()).is_err());
}

#[test]
fn serving_engine_propagates_snapshot_errors() {
    // The serve tier wraps io errors in ServeError::Weights.
    let spec = NetSpec::parse(common::TINY_SPEC).unwrap();
    let mut engine = serve::Engine::<f32>::build(
        &spec,
        &Shape::from([1usize, 12, 12]),
        &serve::EngineConfig {
            max_batch: 4,
            n_threads: 1,
        },
    )
    .unwrap();
    let e = engine.load_weights(&b"XXXX"[..]).unwrap_err();
    assert!(matches!(e, serve::ServeError::Weights(_)));
    // So is the retired v1 layout; a valid snapshot for the same
    // architecture loads fine.
    let e = engine
        .load_weights(v1_snapshot_bytes().as_slice())
        .unwrap_err();
    assert!(matches!(e, serve::ServeError::Weights(_)));
    engine.load_weights(snapshot_bytes().as_slice()).unwrap();
}
