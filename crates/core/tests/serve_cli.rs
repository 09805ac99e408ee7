//! The serving front door end to end: `cgdnn infer` with no `--listen`
//! serves on a free loopback port and publishes it through `--port-file`;
//! `cgdnn stats` scrapes it mid-run, `--metrics-every` rewrites the
//! `--metrics` file while it serves, and `cgdnn load --drain-server` drives
//! it and stops it cleanly.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/lenet.prototxt");

/// Kills the server if the test fails before it drains.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn cgdnn(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cgdnn"));
    cmd.args(args).current_dir(dir).env_remove("CGDNN_FAULT");
    cmd
}

fn run(dir: &Path, args: &[&str]) -> Output {
    let out = cgdnn(dir, args).output().expect("spawn cgdnn");
    assert!(
        out.status.success(),
        "cgdnn {args:?}:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The value of row `name` of a `metric,value` CSV.
fn row(csv: &str, name: &str) -> Option<f64> {
    csv.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(',')?.parse().ok())
}

/// Poll `f` every 50 ms for up to 60 s.
fn wait_for<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let t0 = Instant::now();
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(t0.elapsed() < Duration::from_secs(60), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn infer_listens_by_default_and_load_drains_it() {
    let dir: PathBuf = std::env::temp_dir().join(format!("cgdnn-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = std::fs::File::create(dir.join("infer.log")).unwrap();
    let mut server = Server(
        cgdnn(
            &dir,
            &[
                "infer",
                SPEC,
                "--threads",
                "1",
                "--port-file",
                "addr.txt",
                "--metrics",
                "m.csv",
                "--metrics-every",
                "0.2",
            ],
        )
        .stdin(Stdio::null())
        .stdout(log.try_clone().unwrap())
        .stderr(log)
        .spawn()
        .expect("spawn cgdnn infer"),
    );
    let read_log = || std::fs::read_to_string(dir.join("infer.log")).unwrap_or_default();
    let addr = wait_for("infer writes --port-file", || {
        if let Some(status) = server.0.try_wait().unwrap() {
            panic!("infer exited ({status}) before listening:\n{}", read_log());
        }
        std::fs::read_to_string(dir.join("addr.txt"))
            .ok()
            .filter(|a| a.starts_with("127.0.0.1:"))
    });

    // Some answered requests, then a live scrape while the server runs.
    run(&dir, &["load", "--connect", &addr, "--requests", "20"]);
    let stats = run(&dir, &["stats", "--connect", &addr]);
    let stats = String::from_utf8(stats.stdout).unwrap();
    assert!(stats.starts_with("metric,value\n"), "{stats}");
    assert!(row(&stats, "rpc.frames_total").unwrap() > 0.0, "{stats}");
    assert!(row(&stats, "serve.completed").unwrap() > 0.0, "{stats}");

    // --metrics-every rewrites the file while the server still serves.
    wait_for("--metrics rewritten before the drain", || {
        let m = std::fs::read_to_string(dir.join("m.csv")).ok()?;
        (row(&m, "serve.completed")? > 0.0).then_some(())
    });
    assert!(server.0.try_wait().unwrap().is_none(), "{}", read_log());

    run(
        &dir,
        &[
            "load",
            "--connect",
            &addr,
            "--requests",
            "200",
            "--csv",
            "l.csv",
            "--drain-server",
        ],
    );
    let load = std::fs::read_to_string(dir.join("l.csv")).unwrap();
    assert!(row(&load, "completed").unwrap() > 0.0, "{load}");
    assert_eq!(row(&load, "errors"), Some(0.0), "{load}");

    let status = wait_for("infer exits after the drain", || {
        server.0.try_wait().unwrap()
    });
    assert!(status.success(), "{}", read_log());
    let m = std::fs::read_to_string(dir.join("m.csv")).unwrap();
    assert_eq!(row(&m, "serve.completed"), Some(220.0), "{m}");
    let _ = std::fs::remove_dir_all(&dir);
}
