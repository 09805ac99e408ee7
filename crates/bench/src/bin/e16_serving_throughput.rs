//! E16 — replica weight sharing in the serving tier.
//!
//! Beyond the paper: every serving replica is an engine over one deploy
//! net, and the replicas an [`EngineFactory`] builds alias one decoded
//! parameter set through copy-on-write blobs. This binary prints what that
//! saves: the private weight bytes and the RSS growth of 1, 2, 4 and 8
//! shared replicas against 4 independently loaded engines.
//!
//! Serving throughput and latency are measured over the wire by the
//! benchmark's `serve_unary` and `serve_pipelined` workloads, and the wire
//! path's figures are E17's (`cgdnn infer` + `cgdnn load`).

use cgdnn_bench::banner;
use serve::{Engine, EngineConfig, EngineFactory};

fn lenet_snapshot() -> Vec<u8> {
    // Serve real trained-format weights: build the training net and save
    // its (initialized) parameters through the CGDN snapshot path.
    let net = cgdnn::nets::lenet::<f32>(Box::new(datasets::SyntheticMnist::new(256, 7)))
        .expect("LeNet builds");
    let mut buf = Vec::new();
    net::save_params(&net, &mut buf).expect("snapshot serializes");
    buf
}

/// Linux VmRSS in KiB, if /proc is available.
fn rss_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Build engines with `build` and report the RSS they added. Every set is
/// kept alive until the end, so no later set is placed in memory an earlier
/// one freed.
fn measured(
    held: &mut Vec<Vec<Engine<f32>>>,
    build: impl FnOnce() -> Vec<Engine<f32>>,
) -> (usize, String) {
    let before = rss_kb();
    let engines = build();
    let rss = match (before, rss_kb()) {
        (Some(b), Some(a)) => format!("{:+} KiB RSS", a - b),
        _ => "RSS unavailable".to_string(),
    };
    // Bytes of weight storage the engines own privately; a factory replica
    // aliases the factory's copy through the Arc-backed blobs instead.
    let private = engines.iter().map(|e| e.params_unique_bytes()).sum();
    held.push(engines);
    (private, rss)
}

/// Show that factory-built replicas hold one decoded weight copy between
/// them, while independently loaded engines each pay for their own.
fn weight_sharing_demo(snapshot: &[u8]) {
    let spec = cgdnn::nets::lenet_spec();
    let shape = blob::Shape::from(vec![1usize, 28, 28]);
    let cfg = EngineConfig {
        max_batch: 16,
        n_threads: 1,
    };
    let factory =
        EngineFactory::<f32>::new(&spec, &shape, &cfg, Some(snapshot)).expect("factory builds");
    let one_copy = factory.params_bytes();
    println!(
        "  decoded parameter set (data + diff): {:.1} KiB",
        one_copy as f64 / 1024.0
    );
    let mut held = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let (private, rss) = measured(&mut held, || factory.build_n(n).expect("replicas build"));
        println!("  {n} shared replica(s):  {private:>10} private weight bytes  ({rss})");
        assert_eq!(private, 0, "factory replicas must not copy weights");
    }
    let (private, rss) = measured(&mut held, || {
        (0..4)
            .map(|_| {
                let mut e = Engine::build(&spec, &shape, &cfg).expect("engine builds");
                e.load_weights(snapshot).expect("weights load");
                e
            })
            .collect()
    });
    println!(
        "  4 private engine(s):  {private:>10} private weight bytes  ({rss}) \
         — {:.2}x one copy",
        private as f64 / one_copy as f64
    );
}

fn main() {
    banner(
        "E16",
        "serving replicas share one decoded weight copy (Arc copy-on-write blobs)",
    );
    weight_sharing_demo(&lenet_snapshot());
}
