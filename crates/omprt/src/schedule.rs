//! The worksharing loop — `#pragma omp for schedule(static)`, the paper's
//! schedule and the only one the runtime has.
//!
//! The chunk math is a pure function so that the `machine` execution-model
//! simulator distributes iterations *identically* to the real runtime.

use crate::WorkerCtx;
use std::ops::Range;

/// Contiguous range of iterations thread `tid` receives under
/// `schedule(static)` for a loop of `n` iterations on `nthreads` threads.
///
/// Matches the usual OpenMP runtime convention: the first `n % nthreads`
/// threads receive one extra iteration.
pub fn static_chunk(tid: usize, nthreads: usize, n: usize) -> Range<usize> {
    debug_assert!(tid < nthreads);
    let base = n / nthreads;
    let extra = n % nthreads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..start + len
}

/// Execute `body(run)` once with this thread's [`static_chunk`] of `0..n`
/// (not at all if the chunk is empty), then wait at the implicit
/// end-of-worksharing barrier (OpenMP default). The team's runs never
/// overlap, and together they cover `0..n` once.
///
/// A kernel that takes a run of iterations in one call (a row-range GEMM)
/// thus sees each thread's share in one call; a per-iteration kernel walks
/// the run in order.
///
/// Must be encountered by **all** threads of the team, like any OpenMP
/// worksharing construct; otherwise the team deadlocks at the barrier.
pub fn for_each_range(ctx: &WorkerCtx, n: usize, body: impl FnOnce(Range<usize>)) {
    let run = static_chunk(ctx.thread_id, ctx.num_threads, n);
    if !run.is_empty() {
        body(run);
    }
    ctx.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_chunk_partitions_exactly() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for nt in [1usize, 2, 3, 8, 16] {
                let ranges: Vec<_> = (0..nt).map(|t| static_chunk(t, nt, n)).collect();
                // Contiguous, in order, non-overlapping, covering 0..n.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "n={n} nt={nt}");
                    expect = r.end;
                }
                assert_eq!(expect, n, "n={n} nt={nt}");
                // Balanced to within one iteration.
                let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn static_chunk_matches_paper_imbalance_example() {
        // 64 samples on 12 threads: 4 threads get 6, 8 threads get 5 — the
        // work-unbalance the paper's loop coalescing addresses.
        let lens: Vec<_> = (0..12).map(|t| static_chunk(t, 12, 64).len()).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 6).count(), 4);
        assert_eq!(lens.iter().filter(|&&l| l == 5).count(), 8);
    }

    /// Each thread gets at most one run, its own static chunk.
    #[test]
    fn each_thread_runs_its_static_chunk_once() {
        use std::sync::Mutex;
        for nt in [1usize, 2, 3, 4] {
            let team = crate::ThreadTeam::new(nt);
            for n in [0usize, 1, 5, 37, 100] {
                let runs = Mutex::new(vec![Vec::new(); nt]);
                team.parallel(|w| {
                    let tid = w.thread_id;
                    for_each_range(w, n, |r| runs.lock().unwrap()[tid].push(r));
                });
                for (t, r) in runs.into_inner().unwrap().iter().enumerate() {
                    let chunk = static_chunk(t, nt, n);
                    let want = if chunk.is_empty() {
                        vec![]
                    } else {
                        vec![chunk]
                    };
                    assert_eq!(r, &want, "{nt} threads, n = {n}: thread {t}");
                }
            }
        }
    }
}
