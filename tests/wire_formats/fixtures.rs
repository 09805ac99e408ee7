//! How each golden fixture is produced, through public API only — so the
//! same builders ran at the commit before the `wire` crate existed (that
//! run recorded `golden.rs`) and run against the current encoders now.
//!
//! Every value is dyadic or a fixed decimal and no builder calls into libm,
//! so the bytes do not depend on the host.

use cgdnn::prelude::*;
use dist::frames::{self, Welcome, WELCOME_FLAG_TRACING};
use mmblas::Scalar;
use rpc::proto;

/// Data (batch 2, two values per sample) → InnerProduct(3) → loss: two
/// learnable blobs, `[3, 2]` weights and `[3]` bias, nine values in all.
const MICRO_SPEC: &str = r#"
name: micro
layer {
  name: d
  type: Data
  batch: 2
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 3
  seed: 4
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}
"#;

struct ConstSource;

impl<S: Scalar> BatchSource<S> for ConstSource {
    fn num_samples(&self) -> usize {
        8
    }
    fn sample_shape(&self) -> Shape {
        Shape::from([2usize])
    }
    fn fill(&self, index: usize, out: &mut [S]) -> S {
        mmblas::set(S::from_usize(index), out);
        S::from_usize(index % 3)
    }
}

/// The micro net with parameter `i` (flat, in blob order) set to `value(i)`.
pub fn micro_net<S: Scalar>(value: impl Fn(usize) -> f64) -> Net<S> {
    let spec = NetSpec::parse(MICRO_SPEC).expect("micro spec parses");
    let mut net = Net::from_spec(&spec, Some(Box::new(ConstSource))).expect("micro net builds");
    let mut i = 0;
    for p in net.learnable_params_mut() {
        for v in p.data_mut() {
            *v = S::from_f64(value(i));
            i += 1;
        }
    }
    net
}

/// `f32` parameters: quarter steps around zero.
pub fn f32_value(i: usize) -> f64 {
    (i as f64 - 4.0) * 0.25
}

/// `f64` parameters that no `f32` can hold, so a lossy path would show.
pub fn f64_value(i: usize) -> f64 {
    0.1 * (i as f64 + 1.0)
}

pub fn snapshot_v2_f32() -> Vec<u8> {
    let mut out = Vec::new();
    net::save_params(&micro_net::<f32>(f32_value), &mut out).unwrap();
    out
}

pub fn snapshot_v2_f64() -> Vec<u8> {
    let mut out = Vec::new();
    net::save_params(&micro_net::<f64>(f64_value), &mut out).unwrap();
    out
}

pub fn solver_config() -> SolverConfig {
    SolverConfig {
        base_lr: 0.5,
        momentum: 0.5,
        weight_decay: 0.0,
        lr_policy: LrPolicy::Fixed,
    }
}

/// A momentum-SGD solver three iterations in, LR halved once, with two
/// history buffers (`[6]` and `[3]`) left by one exact dyadic update.
pub fn solver() -> Solver<f32> {
    let mut s = Solver::new(solver_config());
    let mut w = Blob::<f32>::from_data([3usize, 2], vec![1.0; 6]);
    let mut b = Blob::<f32>::from_data([3usize], vec![1.0; 3]);
    for (i, g) in w.diff_mut().iter_mut().enumerate() {
        *g = 0.25 * (i as f32 + 1.0);
    }
    for (i, g) in b.diff_mut().iter_mut().enumerate() {
        *g = -0.5 * (i as f32 + 1.0);
    }
    s.apply_update(vec![&mut w, &mut b], 0.5, &[1.0, 1.0]);
    for _ in 0..3 {
        s.advance_iteration();
    }
    s.scale_lr(0.5);
    s
}

pub fn solver_state_v2() -> Vec<u8> {
    let mut out = Vec::new();
    solver().save_state(&mut out).unwrap();
    out
}

/// A trainer over the micro net holding [`solver`]'s state and a data
/// cursor of 6 — every section a checkpoint can carry.
pub fn trainer() -> CoarseGrainTrainer<f32> {
    let mut t = CoarseGrainTrainer::new(micro_net::<f32>(f32_value), solver_config(), 1);
    t.solver_mut()
        .load_state(solver_state_v2().as_slice())
        .unwrap();
    t.net_mut().set_data_cursor(6);
    t
}

pub fn checkpoint() -> Vec<u8> {
    trainer().checkpoint_bytes().unwrap()
}

/// One metric of each kind.
pub fn registry() -> obs::Registry {
    let reg = obs::Registry::new();
    reg.counter("a.count").add(41);
    reg.gauge("b.gauge").set(-2.5);
    let h = reg.histogram("c.hist", &[0.5, 2.0]);
    for v in [0.25, 1.0, 1.5, 8.0] {
        h.observe(v);
    }
    reg
}

pub fn obs_snapshot() -> Vec<u8> {
    registry().snapshot().to_bytes()
}

pub fn welcome_value() -> Welcome {
    Welcome {
        world: 3,
        effective_batch: 64,
        iters: 1000,
        flags: WELCOME_FLAG_TRACING,
        coord_clock_us: 0x0102_0304_0506_0708,
    }
}

pub fn welcome() -> Vec<u8> {
    frames::encode_welcome(&welcome_value()).to_vec()
}

pub fn trace_event_values() -> Vec<obs::Event> {
    vec![
        obs::Event {
            name: "dist_worker_step".into(),
            cat: "dist",
            ts_us: 1234.5,
            dur_us: 67.25,
            tid: 3,
            pid: 2,
        },
        obs::Event {
            name: String::from("fwd:ip").into(),
            cat: "layer",
            ts_us: 0.0,
            dur_us: 0.5,
            tid: 1,
            pid: 3,
        },
    ]
}

pub fn trace_events() -> Vec<u8> {
    frames::encode_trace_events(&trace_event_values())
}

pub fn server_hello() -> Vec<u8> {
    proto::encode_server_hello(proto::HELLO_BUSY, 784, 10).to_vec()
}

pub fn client_hello() -> Vec<u8> {
    proto::encode_client_hello().to_vec()
}

/// The header codec does not interpret `kind`; the recorded header carries
/// kind 3, which no request uses any more.
pub const FRAME_HEADER_KIND: u8 = 3;

pub fn frame_header() -> Vec<u8> {
    proto::encode_header(FRAME_HEADER_KIND, 0xDEAD_BEEF_0BAD_F00D, 1500, 3136).to_vec()
}

/// `MAX_CHUNK_F32S + 3` values: one full chunk and a 12-byte tail.
pub fn tensor_values() -> Vec<f32> {
    (0..proto::MAX_CHUNK_F32S + 3)
        .map(|i| (i % 1024) as f32 * 0.5 - 100.0)
        .collect()
}

pub fn tensor_stream() -> Vec<u8> {
    let mut out = Vec::new();
    frames::send_tensor(&mut out, proto::FRAME_GRAD, 9, &tensor_values()).unwrap();
    out
}

/// One full chunk and a 5-byte tail.
pub fn blob_bytes() -> Vec<u8> {
    (0..proto::MAX_CHUNK_F32S * 4 + 5)
        .map(|i| (i * 131 % 251) as u8)
        .collect()
}

pub fn blob_stream() -> Vec<u8> {
    let mut out = Vec::new();
    frames::send_blob(&mut out, proto::FRAME_STATS, 7, &blob_bytes()).unwrap();
    out
}

/// FNV-1a 64 — the two chunked streams are 262 KiB each, so `golden.rs`
/// pins their length, this hash of every byte, and both frame headers
/// rather than a quarter-megabyte literal.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offset of the second frame header in a two-chunk stream.
pub const SECOND_HEADER_AT: usize = proto::FRAME_HEADER_LEN + proto::MAX_CHUNK_F32S * 4;

/// Every literal `golden.rs` holds, by name.
pub fn all() -> Vec<(&'static str, Vec<u8>)> {
    let headers = |s: &[u8]| {
        let mut h = s[..proto::FRAME_HEADER_LEN].to_vec();
        h.extend_from_slice(&s[SECOND_HEADER_AT..SECOND_HEADER_AT + proto::FRAME_HEADER_LEN]);
        h
    };
    vec![
        ("SNAPSHOT_V2_F32", snapshot_v2_f32()),
        ("SNAPSHOT_V2_F64", snapshot_v2_f64()),
        ("SOLVER_STATE_V2", solver_state_v2()),
        ("CHECKPOINT", checkpoint()),
        ("OBS_SNAPSHOT", obs_snapshot()),
        ("WELCOME", welcome()),
        ("TRACE_EVENTS", trace_events()),
        ("SERVER_HELLO", server_hello()),
        ("CLIENT_HELLO", client_hello()),
        ("FRAME_HEADER", frame_header()),
        ("TENSOR_STREAM_HEADERS", headers(&tensor_stream())),
        ("BLOB_STREAM_HEADERS", headers(&blob_stream())),
    ]
}
