//! Types and timing helpers every workload shares.

use crate::schema::Workload;
use crate::stats;
use std::time::{Duration, Instant};

/// Rounds of an untraced run. Each round sets the workload up afresh and
/// measures an eighth of `--seconds`. This box shares its cores with other
/// tenants: for stretches of a step to a minute the same code runs a third
/// slower, so a single window's median says more about the neighbours than
/// about the code. Speed is therefore taken from the best round — the
/// least disturbed eighth of the run — which is what a change to the code
/// can move; `setup_s` is the median of the eight set-ups.
pub const ROUNDS: usize = 8;

/// Checked operations of a run: a step, a request or a self-check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one self-check; a failed one is reported on stderr with its
    /// reason, since it fails the whole run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("self-check failed: {}", what());
        }
    }
}

/// What one round measured after its set-up.
pub struct Round {
    /// Set-up wall time, warm-up included.
    pub setup_s: f64,
    /// Wall time of every measured op: a step or a request round trip.
    pub latencies_ms: Vec<f64>,
    /// Samples trained or responses verified in the window.
    pub work: f64,
    pub wall_s: f64,
    pub tally: Tally,
}

/// What one untraced run of a workload measured, over all its rounds.
pub struct E2e {
    /// Median set-up time of the rounds.
    pub setup_s: f64,
    /// Work per second of measured window, in the best round.
    pub throughput_per_s: f64,
    /// Median op latency of a round, in the best round.
    pub latency_ms_p50: f64,
    /// Ops timed, over all rounds.
    pub samples: usize,
    pub tally: Tally,
}

/// Run [`ROUNDS`] rounds of `seconds / ROUNDS` each.
pub fn run_rounds(
    seconds: f64,
    mut round: impl FnMut(Duration) -> Result<Round, String>,
) -> Result<E2e, String> {
    let window = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let rounds = (0..ROUNDS)
        .map(|_| round(window))
        .collect::<Result<Vec<_>, _>>()?;
    if rounds.iter().any(|r| r.latencies_ms.is_empty()) {
        return Err("a round's measured window completed no operation".into());
    }
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let mut tally = Tally::default();
    for r in &rounds {
        tally.add(r.tally.attempted, r.tally.failed);
    }
    Ok(E2e {
        setup_s: stats::median(&per_round(|r| r.setup_s)),
        throughput_per_s: per_round(|r| r.work / r.wall_s)
            .into_iter()
            .fold(f64::MIN, f64::max),
        latency_ms_p50: per_round(|r| stats::median(&r.latencies_ms))
            .into_iter()
            .fold(f64::MAX, f64::min),
        samples: rounds.iter().map(|r| r.latencies_ms.len()).sum(),
        tally,
    })
}

/// How a traced run spends its time: every workload gets a short traced
/// window; the focus workload — the one `--workload` named — gets a long
/// one, an untraced twin before it that prices the tracing itself, and the
/// Chrome trace.
pub struct TracePlan {
    pub focus: Workload,
    pub seconds: f64,
    /// Sampling time of each primitive probe.
    pub budget: Duration,
}

impl TracePlan {
    pub fn is_focus(&self, w: Workload) -> bool {
        w == self.focus
    }

    /// Length of `w`'s traced window.
    pub fn window(&self, w: Workload) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.is_focus(w) { 0.5 } else { 0.1 })
    }
}

/// Median seconds per call of `f`, sampled in chunks of `inner` calls for
/// at least `budget` (and at least five chunks, after one warm-up chunk).
pub fn median_call_secs(budget: Duration, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut chunk = || {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        t0.elapsed().as_secs_f64() / inner as f64
    };
    chunk();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        samples.push(chunk());
    }
    stats::median(&samples)
}
