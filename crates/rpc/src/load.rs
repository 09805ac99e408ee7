//! Closed-loop load generation and malformed-traffic fuzzing over the
//! wire — `cgdnn load`'s engine, and the E17 measurement harness.
//!
//! [`run`] opens `clients` connections up front (failing fast if the
//! server refuses any), then drives each in a closed loop: keep up to
//! [`LoadConfig::pipeline`] requests in flight (1 = the classic
//! send-one-wait-one loop), collect completions as the server finishes
//! them — in any order, matched by frame id — and refill the window.
//! [`LoadConfig::idle_conns`] parked connections can ride along: they
//! handshake, then sit silent for the whole run, proving idle sockets
//! cost the server ~nothing. One refusal is *not* final:
//! a `HELLO_BUSY` greeting ([`RpcError::Busy`] — the server is at its
//! connection-handler cap) is retried with capped exponential backoff and
//! deterministic equal-jitter, up to [`LoadConfig::busy_retries`] times
//! per client, and the total count lands in the report's `busy_retries`
//! column — so a briefly-saturated server degrades the numbers instead of
//! killing the run. Per-request round-trip times are merged at the end
//! into an [`obs::Histogram`] over [`obs::registry::LATENCY_BOUNDS_US`] and
//! the report's percentiles come from [`obs::Histogram::quantile`] — the
//! same estimator over the same bounds as the server's `serve.latency_us`,
//! so the load generator and the server derive percentiles one way.
//!
//! [`fuzz`] is deliberate vandalism: seeded-random byte prefixes thrown at
//! the socket — half of them from byte zero (bad magic), half after a
//! valid hello (corrupt frame headers) — to prove the server answers junk
//! with a typed error frame or a clean close, never a panic or a hang.

use crate::client::{Outcome, RpcClient};
use crate::proto;
use crate::RpcError;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-run shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (threads), each with its own closed loop.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Per-request deadline budget in µs; 0 = none.
    pub deadline_us: u32,
    /// Connect attempts retried per client when the server greets with
    /// `HELLO_BUSY` (handler slots full). 0 = fail fast, the old behaviour.
    pub busy_retries: u32,
    /// Requests each client keeps in flight (window size); 1 = the
    /// classic closed loop.
    pub pipeline: usize,
    /// Extra connections that handshake and then sit idle for the whole
    /// run — load on the server's connection table, not its compute.
    pub idle_conns: usize,
}

impl Default for LoadConfig {
    /// 4 clients, 1000 requests, no deadline, up to 6 busy retries.
    fn default() -> Self {
        Self {
            clients: 4,
            requests: 1000,
            deadline_us: 0,
            busy_retries: 6,
            pipeline: 1,
            idle_conns: 0,
        }
    }
}

/// Outcome counts and round-trip latency distribution of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests answered with probabilities.
    pub completed: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Requests whose deadline budget expired server-side.
    pub timed_out: u64,
    /// Requests cut short by server drain.
    pub shutdown: u64,
    /// Requests answered with an error, plus protocol or socket failures
    /// (each of those ends its client's loop).
    pub errors: u64,
    /// `HELLO_BUSY` connect refusals absorbed by backoff-and-retry.
    pub busy_retries: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Median round-trip, µs (completed requests only; interpolated over
    /// [`obs::registry::LATENCY_BOUNDS_US`] by [`obs::Histogram::quantile`]).
    pub p50_us: f64,
    /// 95th-percentile round-trip, µs (same estimator).
    pub p95_us: f64,
    /// 99th-percentile round-trip, µs (same estimator).
    pub p99_us: f64,
    /// Worst round-trip, µs.
    pub max_us: f64,
    /// Mean round-trip, µs.
    pub mean_us: f64,
}

impl LoadReport {
    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// `metric,value` CSV, one line per field (the form of every metrics
    /// exposition).
    pub fn csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (k, v) in [
            ("completed", self.completed as f64),
            ("rejected", self.rejected as f64),
            ("timed_out", self.timed_out as f64),
            ("shutdown", self.shutdown as f64),
            ("errors", self.errors as f64),
            ("busy_retries", self.busy_retries as f64),
            ("wall_secs", self.wall.as_secs_f64()),
            ("throughput_rps", self.throughput_rps()),
            ("rtt_p50_us", self.p50_us),
            ("rtt_p95_us", self.p95_us),
            ("rtt_p99_us", self.p99_us),
            ("rtt_max_us", self.max_us),
            ("rtt_mean_us", self.mean_us),
        ] {
            out.push_str(&format!("{k},{v:.3}\n"));
        }
        out
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wire load: {} completed, {} rejected, {} timed out, {} shutdown, {} errors, \
             {} busy retries in {:.3} s ({:.0} req/s)",
            self.completed,
            self.rejected,
            self.timed_out,
            self.shutdown,
            self.errors,
            self.busy_retries,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
        )?;
        write!(
            f,
            "wire RTT us: p50 {:.0}, p95 {:.0}, p99 {:.0}, max {:.0}, mean {:.0}",
            self.p50_us, self.p95_us, self.p99_us, self.max_us, self.mean_us
        )
    }
}

/// Drive a closed-loop load run against `addr`. `samples` are cycled
/// (staggered per client so concurrent batches mix inputs); they must
/// match the server's sample shape.
pub fn run(
    addr: SocketAddr,
    cfg: &LoadConfig,
    samples: &[Vec<f32>],
) -> Result<LoadReport, RpcError> {
    if samples.is_empty() {
        return Err(RpcError::Protocol(
            "load run needs at least one sample".into(),
        ));
    }
    let clients = cfg.clients.max(1);
    // Connect everything first: a refused or half-dead server fails the
    // run instead of polluting the numbers. A `HELLO_BUSY` greeting is
    // the one transient refusal — absorbed by backoff-and-retry.
    let mut busy_retries = 0u64;
    let conns: Vec<RpcClient> = (0..clients)
        .map(|c| connect_busy_retry(addr, cfg, c as u64, &mut busy_retries))
        .collect::<Result<_, _>>()?;
    // Idle riders: handshake, then silence. Held until the run finishes
    // so the server carries them in its connection table throughout.
    let idle: Vec<RpcClient> = (0..cfg.idle_conns)
        .map(|c| connect_busy_retry(addr, cfg, (clients + c) as u64, &mut busy_retries))
        .collect::<Result<_, _>>()?;
    let mut report = LoadReport {
        busy_retries,
        ..LoadReport::default()
    };
    let mut rtts_us: Vec<f64> = Vec::with_capacity(cfg.requests);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let quota = cfg.requests / clients + usize::from(c < cfg.requests % clients);
                let deadline_us = cfg.deadline_us;
                let window = cfg.pipeline.max(1);
                s.spawn(move || {
                    let mut part = LoadReport::default();
                    let mut rtts = Vec::with_capacity(quota);
                    let mut pending: HashMap<u64, Instant> = HashMap::with_capacity(window);
                    let mut sent = 0usize;
                    let mut answered = 0usize;
                    'run: while answered < quota {
                        // Refill the window, then collect one completion.
                        while sent < quota && pending.len() < window {
                            let sample = &samples[(c + sent * clients) % samples.len()];
                            let t = Instant::now();
                            match client.send_infer(sample, deadline_us) {
                                Ok(id) => {
                                    pending.insert(id, t);
                                    sent += 1;
                                }
                                Err(_) => {
                                    part.errors += 1;
                                    break 'run;
                                }
                            }
                        }
                        match client.recv_completion() {
                            Ok(comp) => {
                                answered += 1;
                                let t = pending.remove(&comp.id);
                                match comp.outcome {
                                    Outcome::Probs(_) => {
                                        part.completed += 1;
                                        if let Some(t) = t {
                                            rtts.push(t.elapsed().as_secs_f64() * 1e6);
                                        }
                                    }
                                    Outcome::Rejected => part.rejected += 1,
                                    Outcome::TimedOut => part.timed_out += 1,
                                    // One request failed (a replica panic,
                                    // say) on a connection the server keeps
                                    // open: count it and go on. A dead
                                    // socket ends the client below.
                                    Outcome::Error(_) => part.errors += 1,
                                }
                            }
                            Err(RpcError::ServerShutdown) => {
                                // The server is draining: everything this
                                // client still owes is cut short.
                                part.shutdown += (quota - answered) as u64;
                                break 'run;
                            }
                            Err(_) => {
                                part.errors += 1;
                                break 'run;
                            }
                        }
                    }
                    (part, rtts)
                })
            })
            .collect();
        for h in handles {
            let (part, rtts) = h.join().unwrap_or_default();
            report.completed += part.completed;
            report.rejected += part.rejected;
            report.timed_out += part.timed_out;
            report.shutdown += part.shutdown;
            report.errors += part.errors;
            rtts_us.extend(rtts);
        }
    });
    report.wall = t0.elapsed();
    drop(idle); // parked the whole run; close them only now
                // One estimator for every percentile this repo reports: fold the RTTs
                // into an `obs::Histogram` and interpolate, exactly as a `cgdnn stats`
                // scrape of a live server would. Mean and max stay exact — the
                // histogram tracks raw sum/count/extrema alongside the buckets.
    let reg = obs::Registry::new();
    let hist = reg.histogram("load.rtt_us", &obs::registry::LATENCY_BOUNDS_US);
    for &rtt in &rtts_us {
        hist.observe(rtt);
    }
    report.p50_us = hist.quantile(0.50);
    report.p95_us = hist.quantile(0.95);
    report.p99_us = hist.quantile(0.99);
    report.max_us = hist.max();
    report.mean_us = hist.mean();
    Ok(report)
}

/// Backoff before busy retry `attempt` (1-based): capped exponential with
/// equal-jitter — uniform in `[d/2, d]` where `d = base · 2^(attempt-1)`,
/// capped at 2 s. Jitter comes from the caller's xorshift state, so a
/// seeded run backs off identically every time, while distinct clients
/// (distinct seeds) decorrelate and don't re-stampede the server in sync.
fn busy_backoff_delay(base: Duration, attempt: u32, seed: &mut u64) -> Duration {
    let exp = base
        .saturating_mul(1u32 << (attempt - 1).min(10))
        .min(Duration::from_secs(2));
    let half = exp / 2;
    let span_ns = (exp - half).as_nanos() as u64;
    let jitter_ns = if span_ns == 0 {
        0
    } else {
        xorshift(seed) % (span_ns + 1)
    };
    half + Duration::from_nanos(jitter_ns)
}

/// Socket I/O timeout on every load connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Backoff before the first busy retry; doubles per attempt (capped at
/// 2 s) with deterministic equal-jitter.
const BUSY_BACKOFF: Duration = Duration::from_millis(20);

/// Connect, absorbing up to `cfg.busy_retries` `HELLO_BUSY` refusals with
/// [`busy_backoff_delay`]; every other error (and a still-busy server
/// after the last retry) propagates unchanged.
fn connect_busy_retry(
    addr: SocketAddr,
    cfg: &LoadConfig,
    client_idx: u64,
    retries: &mut u64,
) -> Result<RpcClient, RpcError> {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ client_idx.wrapping_mul(0xA24B_AED4_963E_E407) | 1;
    let mut attempt = 0u32;
    loop {
        match RpcClient::connect_with(addr, IO_TIMEOUT) {
            Err(RpcError::Busy) if attempt < cfg.busy_retries => {
                attempt += 1;
                *retries += 1;
                std::thread::sleep(busy_backoff_delay(BUSY_BACKOFF, attempt, &mut seed));
            }
            other => return other,
        }
    }
}

/// What [`fuzz`] observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzReport {
    /// Malformed connections attempted.
    pub connections: usize,
    /// Connections the server answered with bytes (an error frame) before
    /// closing; the rest were closed without comment (mid-frame EOF).
    pub answered: usize,
}

/// xorshift64 — deterministic junk without pulling in an RNG crate.
fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// Throw `connections` seeded-random byte prefixes at `addr` — even
/// connections from byte zero (bad magic territory), odd ones after a
/// valid hello (corrupt frame headers) — and read each socket to EOF. The
/// server must survive all of it; every rejection shows up in its
/// `rpc.decode_errors` counter.
pub fn fuzz(
    addr: SocketAddr,
    connections: usize,
    seed: u64,
    io_timeout: Duration,
) -> io::Result<FuzzReport> {
    let mut state = seed | 1;
    let mut report = FuzzReport::default();
    for i in 0..connections {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(io_timeout))?;
        s.set_write_timeout(Some(io_timeout))?;
        let mut hello = [0u8; proto::SERVER_HELLO_LEN];
        s.read_exact(&mut hello)?; // the server speaks first, even to us
        let mut junk = Vec::new();
        if i % 2 == 1 {
            junk.extend_from_slice(&proto::encode_client_hello());
        }
        let n = 1 + (xorshift(&mut state) % 64) as usize;
        junk.extend((0..n).map(|_| xorshift(&mut state) as u8));
        report.connections += 1;
        if s.write_all(&junk).is_err() {
            continue; // server already slammed the door — that's a pass
        }
        let _ = s.shutdown(Shutdown::Write);
        let mut sink = [0u8; 256];
        let mut answered = false;
        loop {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => answered = true,
                Err(_) => break,
            }
        }
        report.answered += usize::from(answered);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_backoff_is_bounded_equal_jitter() {
        let base = Duration::from_millis(20);
        let mut seed = 12345u64;
        for attempt in 1..=12u32 {
            let d = busy_backoff_delay(base, attempt, &mut seed);
            let exp = base
                .saturating_mul(1u32 << (attempt - 1).min(10))
                .min(Duration::from_secs(2));
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} below {:?}", exp / 2);
            assert!(d <= exp, "attempt {attempt}: {d:?} above {exp:?}");
        }
        // The cap holds no matter how deep the retry goes.
        let d = busy_backoff_delay(base, 40, &mut seed);
        assert!(d <= Duration::from_secs(2));
    }

    #[test]
    fn busy_backoff_is_deterministic_per_seed() {
        let base = Duration::from_millis(10);
        let (mut a, mut b) = (77u64, 77u64);
        for attempt in 1..=6 {
            assert_eq!(
                busy_backoff_delay(base, attempt, &mut a),
                busy_backoff_delay(base, attempt, &mut b)
            );
        }
        // A different seed (client) decorrelates the schedule.
        let mut c = 78u64;
        let schedule = |s: &mut u64| {
            (1..=6)
                .map(|i| busy_backoff_delay(base, i, s))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(&mut a), schedule(&mut c));
    }

    #[test]
    fn report_csv_carries_busy_retries() {
        let report = LoadReport {
            busy_retries: 3,
            ..LoadReport::default()
        };
        assert!(report.csv().contains("busy_retries,3.000\n"));
        assert!(report.to_string().contains("3 busy retries"));
    }
}
