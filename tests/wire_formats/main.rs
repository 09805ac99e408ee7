//! Every byte that crosses a file or a socket is part of the bit-identity
//! oracle, so the formats are pinned twice here.
//!
//! **Golden bytes** (`golden.rs`) were recorded by running `fixtures.rs` at
//! the last commit whose encoders were hand-rolled; today's encoders must
//! emit exactly those bytes and today's decoders must read them back. The
//! two v1 layouts (snapshot and solver state) are no longer written or
//! read: their recorded bytes pin that they are refused by name.
//!
//! **Mutation** — one table of every decoder over a socket or a file. For
//! each: every truncation prefix, every single-byte flip, and every length
//! field forced to its maximum must come back as `Err` (or, where the
//! format has no checksum and the flip lands in data, as some valid value)
//! — never a panic, a hang or an allocation sized by the lie.

mod fixtures;
mod golden;

use cgdnn::prelude::*;
use dist::frames;
use mmblas::Scalar;
use rpc::proto;
use std::io::Cursor;

// ---------------------------------------------------------------- golden

#[test]
fn encoders_emit_the_recorded_bytes() {
    let recorded: [(&str, &[u8]); 12] = [
        ("SNAPSHOT_V2_F32", &golden::SNAPSHOT_V2_F32),
        ("SNAPSHOT_V2_F64", &golden::SNAPSHOT_V2_F64),
        ("SOLVER_STATE_V2", &golden::SOLVER_STATE_V2),
        ("CHECKPOINT", &golden::CHECKPOINT),
        ("OBS_SNAPSHOT", &golden::OBS_SNAPSHOT),
        ("WELCOME", &golden::WELCOME),
        ("TRACE_EVENTS", &golden::TRACE_EVENTS),
        ("SERVER_HELLO", &golden::SERVER_HELLO),
        ("CLIENT_HELLO", &golden::CLIENT_HELLO),
        ("FRAME_HEADER", &golden::FRAME_HEADER),
        ("TENSOR_STREAM_HEADERS", &golden::TENSOR_STREAM_HEADERS),
        ("BLOB_STREAM_HEADERS", &golden::BLOB_STREAM_HEADERS),
    ];
    let built = fixtures::all();
    assert_eq!(built.len(), recorded.len());
    for ((name, now), (recorded_name, then)) in built.iter().zip(recorded) {
        assert_eq!(*name, recorded_name);
        assert_eq!(now.as_slice(), then, "{name} no longer encodes as recorded");
    }
}

#[test]
fn two_chunk_streams_are_byte_identical() {
    let tensor = fixtures::tensor_stream();
    assert_eq!(tensor.len(), golden::TENSOR_STREAM_LEN);
    assert_eq!(fixtures::fnv1a(&tensor), golden::TENSOR_STREAM_FNV1A);
    let back = frames::recv_tensor(
        &mut Cursor::new(tensor),
        proto::FRAME_GRAD,
        9,
        proto::MAX_CHUNK_F32S + 3,
        None,
    )
    .unwrap();
    assert_eq!(bits(&back), bits(&fixtures::tensor_values()));

    let blob = fixtures::blob_stream();
    assert_eq!(blob.len(), golden::BLOB_STREAM_LEN);
    assert_eq!(fixtures::fnv1a(&blob), golden::BLOB_STREAM_FNV1A);
    let back = frames::recv_blob(&mut Cursor::new(blob), proto::FRAME_STATS, 7, None).unwrap();
    assert_eq!(back, fixtures::blob_bytes());
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_params<S: Scalar>(net: &Net<S>, value: impl Fn(usize) -> f64) {
    let flat: Vec<f64> = net
        .learnable_params()
        .iter()
        .flat_map(|p| p.data().iter().map(|v| v.to_f64()))
        .collect();
    assert_eq!(flat.len(), 9);
    for (i, v) in flat.iter().enumerate() {
        assert_eq!(v.to_bits(), value(i).to_bits(), "parameter {i}");
    }
}

#[test]
fn recorded_snapshots_load_bit_for_bit() {
    let mut net = fixtures::micro_net::<f32>(|_| 9.0);
    net::load_params(&mut net, &golden::SNAPSHOT_V2_F32[..]).unwrap();
    assert_params(&net, fixtures::f32_value);
    let mut net = fixtures::micro_net::<f64>(|_| 9.0);
    net::load_params(&mut net, &golden::SNAPSHOT_V2_F64[..]).unwrap();
    assert_params(&net, fixtures::f64_value);
}

/// `InvalidData` whose message names version 1.
fn assert_unsupported_v1(e: std::io::Error) {
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    assert!(e.to_string().contains("unsupported version 1"), "{e}");
}

#[test]
fn recorded_v1_snapshots_are_refused_by_version() {
    let mut net = fixtures::micro_net::<f32>(|_| 9.0);
    assert_unsupported_v1(net::load_params(&mut net, &golden::SNAPSHOT_V1_F32[..]).unwrap_err());
    let mut net = fixtures::micro_net::<f64>(|_| 9.0);
    assert_unsupported_v1(net::load_params(&mut net, &golden::SNAPSHOT_V1_F64[..]).unwrap_err());
    assert_unsupported_v1(
        blank_trainer()
            .resume_from_bytes(&golden::SNAPSHOT_V1_F32)
            .unwrap_err(),
    );
}

#[test]
fn recorded_solver_state_loads() {
    let mut s = fixtures::solver();
    s.scale_lr(8.0);
    s.load_state(&golden::SOLVER_STATE_V2[..]).unwrap();
    assert_eq!((s.iteration(), s.lr_scale()), (3, 0.5));
    let mut again = Vec::new();
    s.save_state(&mut again).unwrap();
    assert_eq!(again, golden::SOLVER_STATE_V2);

    // v1 had no lr_scale field; it is refused, and the solver is untouched.
    assert_unsupported_v1(s.load_state(&golden::SOLVER_STATE_V1[..]).unwrap_err());
    assert_eq!((s.iteration(), s.lr_scale()), (3, 0.5));
}

fn blank_trainer() -> CoarseGrainTrainer<f32> {
    let net = fixtures::micro_net::<f32>(|_| 9.0);
    CoarseGrainTrainer::new(net, fixtures::solver_config(), 1)
}

#[test]
fn recorded_checkpoint_resumes_and_re_encodes() {
    let mut t = blank_trainer();
    t.resume_from_bytes(&golden::CHECKPOINT).unwrap();
    assert_params(t.net(), fixtures::f32_value);
    assert_eq!(t.net().data_cursor(), Some(6));
    assert_eq!((t.solver().iteration(), t.solver().lr_scale()), (3, 0.5));
    assert_eq!(t.checkpoint_bytes().unwrap(), golden::CHECKPOINT);
}

#[test]
fn recorded_payloads_decode_to_their_values() {
    assert_eq!(
        obs::Snapshot::from_bytes(&golden::OBS_SNAPSHOT).unwrap(),
        fixtures::registry().snapshot()
    );
    assert_eq!(
        frames::decode_welcome(&golden::WELCOME).unwrap(),
        fixtures::welcome_value()
    );
    assert_eq!(
        frames::decode_trace_events(&golden::TRACE_EVENTS).unwrap(),
        fixtures::trace_event_values()
    );
    assert_eq!(
        proto::decode_server_hello(&golden::SERVER_HELLO).unwrap(),
        proto::ServerHello {
            status: proto::HELLO_BUSY,
            sample_len: 784,
            output_len: 10
        }
    );
    proto::decode_client_hello(&golden::CLIENT_HELLO).unwrap();
    assert_eq!(
        proto::decode_header(&golden::FRAME_HEADER).unwrap(),
        proto::FrameHeader {
            kind: fixtures::FRAME_HEADER_KIND,
            id: 0xDEAD_BEEF_0BAD_F00D,
            aux: 1500,
            payload_len: 3136
        }
    );
}

#[test]
fn an_unassigned_metric_tag_is_a_typed_error() {
    // Tags 0..=2 are counter, gauge and histogram. Tag 3 is what an older
    // peer's summary record carries: it must be named, not misread.
    let mut b = golden::OBS_SNAPSHOT.to_vec();
    b[13] = 3; // the tag byte of the first record, `a.count`
    let err = obs::Snapshot::from_bytes(&b).unwrap_err();
    assert!(err.contains("unknown metric tag 3"), "{err}");
}

// -------------------------------------------------------------- mutation

type Decode = fn(&[u8]) -> Result<(), String>;

/// One decoder and a valid input for it.
struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode,
    /// A checksum covers every byte: any flip must be an error.
    checksummed: bool,
    /// `(offset, width)` of every count or length field.
    lengths: Vec<(usize, usize)>,
    /// Re-stamp checksums after a length was forced, so the lie gets past
    /// them and reaches the parser it is aimed at.
    restamp: fn(&mut [u8]),
}

fn no_checksum(_: &mut [u8]) {}

/// The `CGDN` v2 trailer: CRC-32 of everything before the last four bytes.
fn restamp_trailer(b: &mut [u8]) {
    let body = b.len() - 4;
    let crc = wire::crc32(&b[..body]);
    b[body..].copy_from_slice(&crc.to_le_bytes());
}

/// The CRC of the frame header at the start of `b`.
fn restamp_header(b: &mut [u8]) {
    let crc = wire::crc32(&b[..20]);
    b[20..24].copy_from_slice(&crc.to_le_bytes());
}

fn e<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<(), String> {
    r.map(|_| ()).map_err(|e| e.to_string())
}

/// A run of two small chunks (`[1, 2, 3, 4]` then `[5, 6, 7, 8]`) — the
/// reader takes any chunk size up to the cap, so mutation need not walk a
/// quarter-megabyte stream.
fn small_run(kind: u8, id: u64) -> Vec<u8> {
    let mut s = Vec::new();
    frames::send_frame(
        &mut s,
        kind,
        id,
        proto::encode_chunk_aux(0, 2),
        &[1, 2, 3, 4],
    )
    .unwrap();
    frames::send_frame(
        &mut s,
        kind,
        id,
        proto::encode_chunk_aux(1, 2),
        &[5, 6, 7, 8],
    )
    .unwrap();
    s
}

fn cases() -> Vec<Case> {
    // CGDN v2: n_sections u32 at 8, then per section tag[4] | len u64.
    // PRMS payload: n_blobs, ndim, dims…
    let prms = |at: usize| vec![(at, 4), (at + 4, 4), (at + 8, 4), (at + 12, 4)];
    let mut snapshot_v2 = vec![(8, 4), (16, 8)];
    snapshot_v2.extend(prms(24));
    let mut checkpoint = snapshot_v2.clone();
    // SOLV section: len u64 at 124, CGSS n_buffers at 156, first len at 160;
    // META len at 244; CURS len at 272.
    checkpoint.extend([(124, 8), (156, 4), (160, 4), (244, 8), (272, 8)]);
    vec![
        Case {
            name: "snapshot v2",
            bytes: golden::SNAPSHOT_V2_F32.to_vec(),
            decode: |b| {
                e(net::load_params(
                    &mut fixtures::micro_net::<f32>(|_| 0.0),
                    b,
                ))
            },
            checksummed: true,
            lengths: snapshot_v2,
            restamp: restamp_trailer,
        },
        Case {
            name: "solver state v2",
            bytes: golden::SOLVER_STATE_V2.to_vec(),
            decode: |b| e(fixtures::solver().load_state(b)),
            checksummed: false,
            lengths: vec![(24, 4), (28, 4), (80, 4)],
            restamp: no_checksum,
        },
        Case {
            name: "trainer checkpoint",
            bytes: golden::CHECKPOINT.to_vec(),
            decode: |b| e(blank_trainer().resume_from_bytes(b)),
            checksummed: true,
            lengths: checkpoint,
            restamp: restamp_trailer,
        },
        Case {
            name: "metric snapshot",
            bytes: golden::OBS_SNAPSHOT.to_vec(),
            decode: |b| e(obs::Snapshot::from_bytes(b)),
            checksummed: false,
            // n_metrics; three name lengths; histogram n_bounds.
            lengths: vec![(0, 4), (4, 2), (22, 2), (40, 2), (49, 2)],
            restamp: no_checksum,
        },
        Case {
            name: "welcome payload",
            bytes: golden::WELCOME.to_vec(),
            decode: |b| e(frames::decode_welcome(b)),
            checksummed: false,
            lengths: vec![],
            restamp: no_checksum,
        },
        Case {
            name: "trace flush",
            bytes: golden::TRACE_EVENTS.to_vec(),
            decode: |b| e(frames::decode_trace_events(b)),
            checksummed: false,
            // n_events; name and cat lengths of both events.
            lengths: vec![(0, 4), (4, 2), (22, 2), (60, 2), (68, 2)],
            restamp: no_checksum,
        },
        Case {
            name: "server hello",
            bytes: golden::SERVER_HELLO.to_vec(),
            decode: |b| {
                e(proto::decode_server_hello(
                    b.try_into().map_err(|_| "short read")?,
                ))
            },
            checksummed: false,
            lengths: vec![],
            restamp: no_checksum,
        },
        Case {
            name: "client hello",
            bytes: golden::CLIENT_HELLO.to_vec(),
            decode: |b| {
                e(proto::decode_client_hello(
                    b.try_into().map_err(|_| "short read")?,
                ))
            },
            checksummed: false,
            lengths: vec![],
            restamp: no_checksum,
        },
        Case {
            name: "frame header",
            bytes: golden::FRAME_HEADER.to_vec(),
            decode: |b| {
                e(proto::decode_header(
                    b.try_into().map_err(|_| "short read")?,
                ))
            },
            checksummed: true,
            lengths: vec![],
            restamp: no_checksum,
        },
        Case {
            name: "f32 payload",
            bytes: vec![0, 0, 128, 63, 0, 0, 0, 192],
            decode: |b| match proto::read_f32s(b) {
                Ok(v) if v.len() == 2 => Ok(()),
                Ok(v) => Err(format!("{} values", v.len())),
                Err(e) => Err(e.to_string()),
            },
            checksummed: false,
            lengths: vec![],
            restamp: no_checksum,
        },
        Case {
            name: "blocking frame read",
            bytes: proto::encode_frame(proto::RESP_PROBS, 5, 0, &[1, 2, 3, 4, 5, 6, 7, 8]),
            decode: |b| e(proto::read_frame(&mut Cursor::new(b)).map_err(|e| format!("{e:?}"))),
            checksummed: false,
            lengths: vec![(16, 4)],
            restamp: restamp_header,
        },
        Case {
            name: "tensor run",
            bytes: small_run(proto::FRAME_GRAD, 3),
            decode: |b| {
                e(frames::recv_tensor(
                    &mut Cursor::new(b),
                    proto::FRAME_GRAD,
                    3,
                    2,
                    None,
                ))
            },
            checksummed: false,
            // payload_len and the n_chunks half of aux, first frame.
            lengths: vec![(16, 4), (12, 2)],
            restamp: restamp_header,
        },
        Case {
            name: "blob run",
            bytes: small_run(proto::FRAME_TRACE, 0),
            decode: |b| {
                e(frames::recv_blob(
                    &mut Cursor::new(b),
                    proto::FRAME_TRACE,
                    0,
                    None,
                ))
            },
            checksummed: false,
            lengths: vec![(16, 4), (12, 2)],
            restamp: restamp_header,
        },
    ]
}

#[test]
fn every_case_decodes_unmutated() {
    for c in cases() {
        (c.decode)(&c.bytes).unwrap_or_else(|e| panic!("{}: {e}", c.name));
    }
}

#[test]
fn every_truncation_prefix_is_an_error() {
    for c in cases() {
        for cut in 0..c.bytes.len() {
            assert!(
                (c.decode)(&c.bytes[..cut]).is_err(),
                "{}: the first {cut} of {} bytes decoded",
                c.name,
                c.bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_an_error_or_a_valid_value() {
    for c in cases() {
        for at in 0..c.bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut b = c.bytes.clone();
                b[at] ^= mask;
                let got = (c.decode)(&b);
                assert!(
                    got.is_err() || !c.checksummed,
                    "{}: byte {at} ^ {mask:#04x} went undetected",
                    c.name
                );
            }
        }
    }
}

#[test]
fn every_length_field_forced_to_its_maximum_is_an_error() {
    for c in cases() {
        for &(at, width) in &c.lengths {
            let mut b = c.bytes.clone();
            b[at..at + width].fill(0xFF);
            (c.restamp)(&mut b);
            assert!(
                (c.decode)(&b).is_err(),
                "{}: the {width}-byte length at {at} forced to its maximum decoded",
                c.name
            );
        }
    }
}
