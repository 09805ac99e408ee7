//! A panic inside a multi-thread region aborts the process: it must neither
//! hang the team nor unwind the master past a worker still running the
//! region's closure.
//!
//! The test re-runs its own binary as a child process that panics on one
//! thread of a 2-thread team (thread 0, then thread 1) and requires the
//! child to die of `abort` within 10 s.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set in the child's environment: the thread id that panics.
const PANIC_ON_THREAD: &str = "OMPRT_TEST_PANIC_ON_THREAD";

/// The child's body; a no-op unless [`PANIC_ON_THREAD`] is set.
#[test]
fn child_panics_in_region() {
    let Ok(tid) = std::env::var(PANIC_ON_THREAD) else {
        return;
    };
    let tid: usize = tid.parse().expect("thread id");
    let team = omprt::ThreadTeam::new(2);
    team.parallel(|ctx| {
        if ctx.thread_id == tid {
            panic!("injected panic on thread {tid}");
        }
    });
}

#[test]
fn panic_in_a_multi_thread_region_aborts_within_10s() {
    for tid in [0, 1] {
        let mut child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["child_panics_in_region", "--exact", "--nocapture"])
            .env(PANIC_ON_THREAD, tid.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn child");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for child") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("panic on thread {tid}: child still alive after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read child stderr");
        assert!(
            !status.success(),
            "panic on thread {tid}: {status}\n{stderr}"
        );
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            const SIGABRT: i32 = 6;
            assert_eq!(
                status.signal(),
                Some(SIGABRT),
                "panic on thread {tid}: {status}\n{stderr}"
            );
        }
        assert!(
            stderr.contains(&format!("injected panic on thread {tid}"))
                && stderr.contains("omprt: panic inside a parallel region; aborting"),
            "panic on thread {tid}:\n{stderr}"
        );
    }
}
