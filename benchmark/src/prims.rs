//! Primitive probes: every kernel and codec the workloads stand on, timed
//! through its public function on the exact input the two nets give it.
//! None depends on a workload, so a traced run measures them all.

use crate::corpus::{GemmLayer, NetKind, Pass};
use crate::harness::median_call_secs;
use crate::schema::Metrics;
use crate::train;
use cgdnn::prelude::*;
use mmblas::{Pcg32, Transpose};
use std::hint::black_box;
use std::time::Duration;

/// `n` reproducible values in `[-1, 1)`.
fn noise(rng: &mut Pcg32, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.uniform_f64() * 2.0 - 1.0) as f32)
        .collect()
}

/// GFLOP/s of the BLAS call `layer` issues per sample in `pass`, with the
/// operand layouts, transposes and beta the layer code uses.
fn blas_gflops(layer: &GemmLayer, pass: Pass, rng: &mut Pcg32, budget: Duration) -> f64 {
    let m = layer.num_output;
    let secs = match layer.geometry() {
        Some(g) => {
            let (cr, cc) = (g.col_rows(), g.col_cols());
            let w = noise(rng, m * cr);
            let col = noise(rng, cr * cc);
            let dy = noise(rng, m * cc);
            // (op(A), op(B), rows, cols, inner, A, lda, B, ldb, beta) exactly
            // as `ConvolutionLayer` passes them; the weight gradient
            // accumulates (beta = 1), and sums of bounded noise stay finite
            // over any budget.
            let (ta, tb, rows, cols, inner, a, lda, b, ldb, beta) = match pass {
                Pass::Fwd => (
                    Transpose::No,
                    Transpose::No,
                    m,
                    cc,
                    cr,
                    &w,
                    cr,
                    &col,
                    cc,
                    0.0,
                ),
                Pass::BwdW => (
                    Transpose::No,
                    Transpose::Yes,
                    m,
                    cr,
                    cc,
                    &dy,
                    cc,
                    &col,
                    cc,
                    1.0,
                ),
                Pass::BwdX => (
                    Transpose::Yes,
                    Transpose::No,
                    cr,
                    cc,
                    m,
                    &w,
                    cr,
                    &dy,
                    cc,
                    0.0,
                ),
            };
            let mut c = vec![0.0f32; rows * cols];
            median_call_secs(budget, 1, || {
                mmblas::gemm(
                    ta, tb, rows, cols, inner, 1.0, a, lda, b, ldb, beta, &mut c, cols,
                );
                black_box(&c);
            })
        }
        None => {
            let crate::corpus::LayerOp::InnerProduct { k } = layer.op else {
                unreachable!("a layer without geometry is an inner product");
            };
            let w = noise(rng, m * k);
            let x = noise(rng, k);
            let dy = noise(rng, m);
            // Vector kernels finish in microseconds: time them in chunks.
            match pass {
                Pass::Fwd => {
                    let mut y = vec![0.0f32; m];
                    median_call_secs(budget, 16, || {
                        mmblas::gemv(Transpose::No, m, k, 1.0, &w, k, &x, 0.0, &mut y);
                        black_box(&y);
                    })
                }
                Pass::BwdW => {
                    let mut dw = vec![0.0f32; m * k];
                    median_call_secs(budget, 16, || {
                        mmblas::ger(m, k, 1.0, &dy, &x, &mut dw, k);
                        black_box(&dw);
                    })
                }
                Pass::BwdX => {
                    let mut dx = vec![0.0f32; k];
                    median_call_secs(budget, 16, || {
                        mmblas::gemv(Transpose::Yes, m, k, 1.0, &w, k, &dy, 0.0, &mut dx);
                        black_box(&dx);
                    })
                }
            }
        }
    };
    layer.blas_flops() / secs / 1e9
}

/// Measure every primitive; `budget` is the sampling time of each.
pub fn probe(seed: u64, budget: Duration, m: &mut Metrics) -> Result<(), String> {
    let mut rng = Pcg32::new(seed, 0x9e37);
    for kind in NetKind::ALL {
        let net = kind.tag();
        for layer in kind.gemm_layers() {
            for &pass in layer.passes() {
                m.insert(
                    format!("mmblas.{net}_{}_{}.gflops", layer.name, pass.tag()),
                    blas_gflops(layer, pass, &mut rng, budget),
                );
            }
            let Some(g) = layer.geometry() else { continue };
            // Bytes are computed from the buffer sizes (image read or
            // written once, column matrix written or read once).
            let bytes = ((g.image_len() + g.col_len()) * std::mem::size_of::<f32>()) as f64;
            let mut image = noise(&mut rng, g.image_len());
            let mut col = noise(&mut rng, g.col_len());
            let secs = median_call_secs(budget, 4, || {
                mmblas::im2col(&g, &image, &mut col);
                black_box(&col);
            });
            m.insert(
                format!("mmblas.im2col.{net}_{}.gbps", layer.name),
                bytes / secs / 1e9,
            );
            if layer.propagates {
                let secs = median_call_secs(budget, 4, || {
                    mmblas::col2im(&g, &col, &mut image);
                    black_box(&image);
                });
                m.insert(
                    format!("mmblas.col2im.{net}_{}.gbps", layer.name),
                    bytes / secs / 1e9,
                );
            }
        }
    }

    // datasets: what the data layer pays per sample of a batch.
    let mnist = train::mnist(seed);
    let cifar = SyntheticCifar::new(train::num_samples(NetKind::Cifar), seed);
    let sources: [(&str, &dyn BatchSource<f32>); 2] = [("lenet", &mnist), ("cifar", &cifar)];
    for (net, source) in sources {
        let mut sample = vec![0.0f32; source.sample_shape().count()];
        let mut index = 0usize;
        let secs = median_call_secs(budget, 16, || {
            black_box(source.fill(index % source.num_samples(), &mut sample));
            index += 1;
        });
        m.insert(format!("datasets.{net}.fill_us_per_sample"), secs * 1e6);
    }

    // net: LeNet snapshot encode / decode, the set-up cost of serving.
    let mut lenet = train::build_net(NetKind::Lenet, seed);
    let mut bytes = Vec::new();
    net::save_params(&lenet, &mut bytes).map_err(|e| format!("snapshot encode: {e}"))?;
    let encode = median_call_secs(budget, 1, || {
        let mut out = Vec::with_capacity(bytes.len());
        net::save_params(&lenet, &mut out).expect("writing to a Vec cannot fail");
        black_box(&out);
    });
    let mut decode_err = None;
    let decode = median_call_secs(budget, 1, || {
        if let Err(e) = net::load_params(&mut lenet, bytes.as_slice()) {
            decode_err = Some(e.to_string());
        }
    });
    if let Some(e) = decode_err {
        return Err(format!("snapshot decode: {e}"));
    }
    m.insert("net.snapshot_encode_ms".into(), encode * 1e3);
    m.insert("net.snapshot_decode_ms".into(), decode * 1e3);
    m.insert("net.snapshot_bytes".into(), bytes.len() as f64);

    // rpc: one request frame (header + 784-float payload) each way.
    let sample = noise(&mut rng, 784);
    let mut wire = Vec::new();
    let encode = median_call_secs(budget, 256, || {
        wire.clear();
        rpc::proto::write_f32s(&mut wire, &sample);
        black_box(rpc::proto::encode_header(
            rpc::proto::REQ_INFER,
            1,
            0,
            wire.len() as u32,
        ));
    });
    let header = rpc::proto::encode_header(rpc::proto::REQ_INFER, 1, 0, wire.len() as u32);
    let mut decode_ok = true;
    let decode = median_call_secs(budget, 256, || {
        let parsed = rpc::proto::decode_header(black_box(&header)).is_ok();
        let payload = black_box(rpc::proto::read_f32s(black_box(&wire)));
        decode_ok &= parsed && payload.is_ok_and(|v| v.len() == sample.len());
    });
    if !decode_ok {
        return Err("frame decode probe: round trip failed".into());
    }
    m.insert("rpc.frame_encode_ns".into(), encode * 1e9);
    m.insert("rpc.frame_decode_ns".into(), decode * 1e9);
    Ok(())
}
