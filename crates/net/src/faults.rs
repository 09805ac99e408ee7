//! Deterministic fault injection for robustness tests.
//!
//! Production code sprinkles named *injection points* (`faults::hit("…")`)
//! at the places where a crash, a torn write, or a worker death is
//! interesting. When nothing is armed the check is two relaxed atomic
//! loads — effectively free — so the points are compiled in
//! unconditionally and the `fault-inject` cargo feature only gates the
//! *tests* that arm them.
//!
//! A fault can be armed two ways:
//!
//! - programmatically, via [`arm`] / [`disarm_all`] (in-process tests);
//! - through the `CGDNN_FAULT` environment variable, for whole-process
//!   tests against the `cgdnn` binary:
//!   `CGDNN_FAULT="checkpoint.commit=kill:1;serve.worker=panic"` —
//!   `point=mode[:skip]`, `;`-separated, where `skip` hits pass through
//!   before the fault fires once. An entry with an unknown mode (or no
//!   `=`) is *not* silently dropped: a one-line warning goes to stderr so
//!   a typo'd spec cannot make a chaos test pass vacuously.
//!
//! Modes: `error` makes [`hit`] return an [`io::Error`], `panic` panics
//! (for catch-unwind isolation tests), `kill` aborts the process without
//! running destructors — the closest in-process stand-in for SIGKILL.
//! Two network-chaos modes join them: `delay:MS` makes [`hit`] sleep `MS`
//! milliseconds before returning `Ok` (straggler simulation; spelled
//! `point=delay:MS[:skip]`), and `corrupt` flips a byte in the buffer
//! passed to a [`corrupt`]-capable point (wire corruption; [`hit`]-only
//! points ignore armed `corrupt` entries).
//!
//! Known points: `checkpoint.partial` (mid `write_atomic`, before the
//! rename — simulates a torn write), `checkpoint.commit` (between the
//! checkpoint rename and the manifest update), `train.poison` (flips a
//! weight to NaN before a training step — simulates memory corruption),
//! `serve.worker` (inside a serve replica, mid-batch),
//! `dist.worker.step.r{rank}` (worker `rank`'s gradient computed but not
//! yet sent), `dist.frame.send` / `dist.frame.recv`
//! (the distributed frame write/read paths; both accept `delay`, `error`
//! and `kill`, and `dist.frame.send` / `dist.frame.recv` also accept
//! `corrupt` — bytes are flipped after CRC stamping / before CRC
//! checking, so the receiver sees `BadCrc`).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// What an armed fault does when its injection point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// [`hit`] returns an `io::Error` (`ErrorKind::Other`).
    Error,
    /// [`hit`] panics (callers that isolate workers catch this).
    Panic,
    /// The process aborts immediately — no destructors, no flushes.
    Kill,
    /// [`hit`] sleeps this many milliseconds, then returns `Ok` —
    /// a straggler / slow-link simulation.
    Delay(u64),
    /// A byte is flipped in the buffer handed to [`corrupt`]; points that
    /// only call [`hit`] pass armed `corrupt` entries through untouched.
    Corrupt,
}

struct Armed {
    point: String,
    mode: FaultMode,
    /// Pass through this many hits before firing.
    skip: u32,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static ARMED: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

/// Parse a `CGDNN_FAULT` spec into armed entries plus one warning line per
/// entry that could not be understood (missing `=`, unknown mode, bad
/// delay value) — malformed chaos specs must be loud, not vacuous.
fn parse_spec(spec: &str) -> (Vec<Armed>, Vec<String>) {
    let mut out = Vec::new();
    let mut warnings = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let Some((point, rest)) = entry.split_once('=') else {
            warnings.push(format!(
                "CGDNN_FAULT entry '{}' has no '=' — expected point=mode[:skip]; ignored",
                entry.trim()
            ));
            continue;
        };
        let mut parts = rest.split(':');
        let mode_str = parts.next().unwrap_or("").trim();
        // `delay` takes a leading millisecond argument; every mode takes an
        // optional trailing skip count.
        let (mode, skip_str) = match mode_str {
            "error" => (Some(FaultMode::Error), parts.next()),
            "panic" => (Some(FaultMode::Panic), parts.next()),
            "kill" => (Some(FaultMode::Kill), parts.next()),
            "corrupt" => (Some(FaultMode::Corrupt), parts.next()),
            "delay" => match parts.next().and_then(|ms| ms.trim().parse().ok()) {
                Some(ms) => (Some(FaultMode::Delay(ms)), parts.next()),
                None => {
                    warnings.push(format!(
                        "CGDNN_FAULT entry '{}' — delay needs milliseconds \
                         (point=delay:MS[:skip]); ignored",
                        entry.trim()
                    ));
                    continue;
                }
            },
            other => {
                warnings.push(format!(
                    "CGDNN_FAULT entry '{}' has unknown mode '{other}' \
                     (known: error, panic, kill, delay:MS, corrupt); ignored",
                    entry.trim()
                ));
                continue;
            }
        };
        let skip = skip_str.and_then(|s| s.trim().parse().ok()).unwrap_or(0);
        out.push(Armed {
            point: point.trim().to_string(),
            mode: mode.expect("mode set on every non-continue arm"),
            skip,
        });
    }
    (out, warnings)
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("CGDNN_FAULT") {
            let (parsed, warnings) = parse_spec(&spec);
            for w in &warnings {
                eprintln!("warning: {w}");
            }
            if !parsed.is_empty() {
                let mut armed = ARMED.lock().expect("fault registry lock");
                armed.extend(parsed);
                ANY_ARMED.store(true, Ordering::Release);
            }
        }
    });
}

/// Arm `point`: after `skip` pass-through hits, the next one fires `mode`
/// exactly once and the entry disarms itself.
pub fn arm(point: &str, mode: FaultMode, skip: u32) {
    ensure_env_init();
    let mut armed = ARMED.lock().expect("fault registry lock");
    armed.push(Armed {
        point: point.to_string(),
        mode,
        skip,
    });
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarm every pending fault (test teardown).
pub fn disarm_all() {
    ensure_env_init();
    let mut armed = ARMED.lock().expect("fault registry lock");
    armed.clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// Pop the first armed entry for `point` that passes `matches`, honouring
/// its skip count. Decided under the lock, acted on after releasing it, so
/// a panic never poisons the registry for other threads.
fn take_fired(point: &str, matches: impl Fn(FaultMode) -> bool) -> Option<FaultMode> {
    let mut armed = ARMED.lock().expect("fault registry lock");
    let i = armed
        .iter()
        .position(|a| a.point == point && matches(a.mode))?;
    if armed[i].skip > 0 {
        armed[i].skip -= 1;
        return None;
    }
    let mode = armed[i].mode;
    armed.remove(i);
    if armed.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
    Some(mode)
}

/// An injection point. Returns `Ok(())` unless a matching fault is armed;
/// a fired `Error` fault comes back as an [`io::Error`], `Panic` panics,
/// `Kill` aborts the process, `Delay(ms)` sleeps then returns `Ok`.
/// Armed `Corrupt` entries do not match here — they wait for a
/// buffer-carrying [`corrupt`] call on the same point.
pub fn hit(point: &str) -> io::Result<()> {
    ensure_env_init();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let Some(fired) = take_fired(point, |m| m != FaultMode::Corrupt) else {
        return Ok(());
    };
    match fired {
        FaultMode::Error => Err(io::Error::other(format!("injected fault at {point}"))),
        FaultMode::Panic => panic!("injected panic at {point}"),
        FaultMode::Kill => {
            eprintln!("injected kill at {point}");
            std::process::abort();
        }
        FaultMode::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        FaultMode::Corrupt => unreachable!("corrupt entries filtered above"),
    }
}

/// A corruption-capable injection point: if a `Corrupt` fault is armed for
/// `point` (and its skips are spent), one byte in `buf`'s leading
/// checksummed region is flipped and `true` is returned. Callers pass the
/// exact bytes about to cross a trust boundary (e.g. an encoded wire
/// frame), so the corruption lands where a real bit-flip would — after
/// checksumming on the send side, before verification on the receive
/// side. The flip stays inside the first 24 bytes because that is the
/// CGRP frame header, the only integrity-protected span: a flip there is
/// *detectable* corruption the receiver must reject, whereas a payload
/// flip would pass the header-only CRC silently and turn the harness into
/// a test of nothing.
pub fn corrupt(point: &str, buf: &mut [u8]) -> bool {
    ensure_env_init();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return false;
    }
    if take_fired(point, |m| m == FaultMode::Corrupt).is_none() {
        return false;
    }
    if let Some(b) = buf.get_mut(buf.len().min(24) / 2) {
        *b ^= 0xA5;
    }
    eprintln!("injected corruption at {point}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;
    use std::time::Instant;

    // The registry is process-global; serialize the tests that use it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm_all();
        g
    }

    #[test]
    fn unarmed_points_are_free() {
        let _g = guard();
        assert!(hit("nothing.armed.here").is_ok());
        let mut buf = [1u8, 2, 3];
        assert!(!corrupt("nothing.armed.here", &mut buf));
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn error_fault_fires_once_after_skips() {
        let _g = guard();
        arm("p", FaultMode::Error, 2);
        assert!(hit("p").is_ok());
        assert!(hit("p").is_ok());
        let e = hit("p").unwrap_err();
        assert!(e.to_string().contains("injected fault at p"));
        // Self-disarmed.
        assert!(hit("p").is_ok());
    }

    #[test]
    fn points_are_independent() {
        let _g = guard();
        arm("a", FaultMode::Error, 0);
        assert!(hit("b").is_ok());
        assert!(hit("a").is_err());
        disarm_all();
    }

    #[test]
    fn panic_mode_panics_without_poisoning_the_registry() {
        let _g = guard();
        arm("boom", FaultMode::Panic, 0);
        let r = std::panic::catch_unwind(|| hit("boom"));
        assert!(r.is_err());
        // Registry still usable afterwards.
        assert!(hit("boom").is_ok());
        arm("next", FaultMode::Error, 0);
        assert!(hit("next").is_err());
    }

    #[test]
    fn delay_mode_sleeps_then_passes() {
        let _g = guard();
        arm("slow", FaultMode::Delay(30), 0);
        let t0 = Instant::now();
        assert!(hit("slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(25));
        // Self-disarmed: the next hit is instant.
        let t1 = Instant::now();
        assert!(hit("slow").is_ok());
        assert!(t1.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn corrupt_mode_flips_one_byte_and_only_at_corrupt_points() {
        let _g = guard();
        arm("wire", FaultMode::Corrupt, 1);
        // hit() must not consume a corrupt entry…
        assert!(hit("wire").is_ok());
        let mut buf = vec![0u8; 8];
        // …and the skip pass-through applies to corrupt() itself.
        assert!(!corrupt("wire", &mut buf));
        assert_eq!(buf, vec![0u8; 8]);
        assert!(corrupt("wire", &mut buf));
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1, "{buf:?}");
        // Self-disarmed.
        let mut again = vec![0u8; 8];
        assert!(!corrupt("wire", &mut again));
    }

    #[test]
    fn corruption_lands_inside_the_checksummed_header_span() {
        let _g = guard();
        arm("wire", FaultMode::Corrupt, 0);
        // A frame much larger than its 24-byte header: the flip must land
        // in the header (CRC-protected, so the receiver detects it), not
        // in the payload (which the header-only CRC would never catch).
        let mut frame = vec![0u8; 4096];
        assert!(corrupt("wire", &mut frame));
        let flipped: Vec<usize> = frame
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b != 0).then_some(i))
            .collect();
        assert_eq!(flipped, vec![12], "flip outside the header span");
    }

    #[test]
    fn corrupt_and_hit_entries_coexist_on_one_point() {
        let _g = guard();
        arm("both", FaultMode::Corrupt, 0);
        arm("both", FaultMode::Error, 0);
        // hit() skips the corrupt entry and fires the error one.
        assert!(hit("both").is_err());
        let mut buf = vec![7u8; 4];
        assert!(corrupt("both", &mut buf));
    }

    #[test]
    fn env_spec_parses_modes_and_skips() {
        let (parsed, warnings) = parse_spec("checkpoint.commit=kill:2;serve.worker=panic");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].point, "checkpoint.commit");
        assert_eq!(parsed[0].mode, FaultMode::Kill);
        assert_eq!(parsed[0].skip, 2);
        assert_eq!(parsed[1].mode, FaultMode::Panic);
        assert_eq!(parsed[1].skip, 0);
    }

    #[test]
    fn env_spec_parses_delay_and_corrupt() {
        let (parsed, warnings) =
            parse_spec("dist.frame.send=delay:250;dist.frame.recv=delay:40:3;w=corrupt:1");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(parsed[0].mode, FaultMode::Delay(250));
        assert_eq!(parsed[0].skip, 0);
        assert_eq!(parsed[1].mode, FaultMode::Delay(40));
        assert_eq!(parsed[1].skip, 3);
        assert_eq!(parsed[2].mode, FaultMode::Corrupt);
        assert_eq!(parsed[2].skip, 1);
    }

    #[test]
    fn env_spec_warns_on_junk_instead_of_silently_passing() {
        let (parsed, warnings) = parse_spec("junk;x=wat;y=delay;z=kill");
        assert_eq!(parsed.len(), 1, "only z=kill is valid");
        assert_eq!(parsed[0].point, "z");
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("no '='"));
        assert!(warnings[1].contains("unknown mode 'wat'"));
        assert!(warnings[2].contains("delay needs milliseconds"));
    }
}
