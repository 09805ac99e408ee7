//! A plain `cgdnn train` run (no `--snapshot-every`) stops at the first
//! non-finite loss: a NaN weight loaded through `--weights` reaches the
//! loss through the IP layer and the softmax, and the run ends with its
//! "diverged" error instead of training to its last step.

use net::{Net, NetSpec};
use std::process::Command;

/// One IP layer over synthetic MNIST, so the debug-build run is instant.
const SPEC: &str = "name: nantest
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
  num_output: 10
  seed: 3
  bottom: data
  top: ip
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}
";

#[test]
fn a_nan_weight_stops_a_plain_run_as_diverged() {
    let dir = std::env::temp_dir().join(format!("cgdnn-nan-weight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = NetSpec::parse(SPEC).unwrap();
    let source = datasets::SyntheticMnist::new(16, 1);
    let mut net = Net::<f32>::from_spec(&spec, Some(Box::new(source))).unwrap();
    net.learnable_params_mut()[0].data_mut()[0] = f32::NAN;
    let mut bytes = Vec::new();
    net::save_params(&net, &mut bytes).unwrap();
    std::fs::write(dir.join("nan.cgdn"), bytes).unwrap();
    std::fs::write(dir.join("spec.prototxt"), SPEC).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_cgdnn"))
        .args(["train", "spec.prototxt", "--weights", "nan.cgdn"])
        .args(["--threads", "1", "--iters", "5"])
        .current_dir(&dir)
        .env_remove("CGDNN_FAULT")
        .output()
        .expect("spawn cgdnn");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stdout:\n{stdout}");
    assert!(
        stderr.contains("diverged at iteration 1;"),
        "stderr:\n{stderr}"
    );
    let iters: Vec<_> = stdout.lines().filter(|l| l.starts_with("iter")).collect();
    assert_eq!(iters.len(), 1, "trained past the NaN:\n{stdout}");
    assert!(iters[0].ends_with("loss NaN"), "{}", iters[0]);
}
