//! `cgdnn train --plan` on a plan the parser rejects fails cleanly: exit
//! status 1 and an `error:` line that names the accepted strategies, with no
//! panic and no training step taken.

use std::process::Command;

const SPEC: &str = "name: plancli
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
fn retired_strategy_in_a_plan_file_exits_1_with_an_error() {
    let dir = std::env::temp_dir().join(format!("cgdnn-plan-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("spec.prototxt"), SPEC).unwrap();
    for retired in ["output:2", "replicate"] {
        let plan = format!(
            "CGPLAN v1\nnet plancli\nthreads 2\nmodel xeon\nlayer ip InnerProduct 0 {retired}\n\
             crc 00000000\n"
        );
        std::fs::write(dir.join("old.plan"), plan).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_cgdnn"))
            .args([
                "train",
                "spec.prototxt",
                "--iters",
                "1",
                "--plan",
                "old.plan",
            ])
            .current_dir(&dir)
            .env_remove("CGDNN_FAULT")
            .output()
            .expect("spawn cgdnn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{retired}: stderr {stderr}");
        assert!(
            stderr.starts_with("error:") && stderr.contains("sample | channel:N"),
            "{retired}: stderr {stderr}"
        );
        assert!(!stderr.contains("panic"), "{retired}: stderr {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("iter"),
            "{retired}: no step may run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
