//! Training's bits do not depend on the host's instruction set: LeNet (3
//! steps) and CIFAR-10 full (2 steps) at 2 threads, with the `f32` GEMM
//! pinned to each path the CPU has — scalar, AVX2, AVX-512 — write
//! byte-identical checkpoints. A path the CPU lacks is reported as skipped,
//! so that a pass says which paths it compared.
//!
//! The nets run at batch 16 (LeNet) and 10 (CIFAR), not 64 and 100, to keep
//! the unoptimized build's scalar path short: every convolution GEMM has its
//! per-sample shape whatever the batch. The pin is process-wide, so this
//! file holds one test.

use cgdnn::nets::{CIFAR10_FULL_SPEC, LENET_SPEC};
use cgdnn::prelude::*;
use mmblas::level3::{force_isa, Isa};
use net::{Net, NetSpec};

type Build = fn() -> CoarseGrainTrainer<f32>;

/// `text` with its one `batch: from` line set to `batch: to`.
fn at_batch(text: &str, from: usize, to: usize) -> NetSpec {
    let from = format!("batch: {from}");
    assert_eq!(text.matches(&from).count(), 1, "no single `{from}` line");
    NetSpec::parse(&text.replace(&from, &format!("batch: {to}"))).unwrap()
}

fn lenet() -> CoarseGrainTrainer<f32> {
    let spec = at_batch(LENET_SPEC, 64, 16);
    let net = Net::from_spec(&spec, Some(Box::new(SyntheticMnist::new(256, 7)))).unwrap();
    CoarseGrainTrainer::new(net, SolverConfig::lenet(), 2)
}

fn cifar() -> CoarseGrainTrainer<f32> {
    let spec = at_batch(CIFAR10_FULL_SPEC, 100, 10);
    let net = Net::from_spec(&spec, Some(Box::new(SyntheticCifar::new(200, 7)))).unwrap();
    CoarseGrainTrainer::new(net, SolverConfig::cifar(), 2)
}

#[test]
fn checkpoints_are_byte_identical_on_every_gemm_path() {
    let nets: [(&str, usize, Build); 2] = [("LeNet", 3, lenet), ("CIFAR-10 full", 2, cifar)];
    for (name, steps, build) in nets {
        let mut first: Option<(Isa, Vec<u8>)> = None;
        for isa in Isa::ALL {
            if !force_isa(Some(isa)) {
                eprintln!("{name}: this CPU has no {isa:?} path; skipped it");
                continue;
            }
            let t0 = std::time::Instant::now();
            let mut trainer = build();
            trainer.train(steps);
            let bytes = trainer.checkpoint_bytes().unwrap();
            eprintln!("{name}: {isa:?} path, {:.1?}", t0.elapsed());
            match &first {
                None => first = Some((isa, bytes)),
                Some((want_isa, want)) => assert!(
                    bytes == *want,
                    "{name}: the {isa:?} checkpoint differs from the {want_isa:?} one"
                ),
            }
        }
    }
    force_isa(None);
}
