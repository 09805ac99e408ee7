//! Worksharing loop schedules — `#pragma omp for schedule(...)`.
//!
//! The static chunk math is exposed as pure functions so that the `machine`
//! execution-model simulator distributes iterations *identically* to the
//! real runtime.

use crate::WorkerCtx;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Loop scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// `schedule(static)`: one contiguous chunk per thread (OpenMP default,
    /// and the paper's choice).
    Static,
    /// `schedule(static, chunk)`: fixed-size chunks dealt round-robin.
    StaticChunk(usize),
    /// `schedule(dynamic, chunk)`: threads pull chunks from a shared queue.
    Dynamic(usize),
    /// `schedule(guided)`: dynamic with exponentially shrinking chunks.
    Guided,
}

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

/// All per-thread ranges under `schedule(static)` — used by the imbalance
/// metrics and the machine simulator.
pub fn static_assignment(nthreads: usize, n: usize) -> Vec<Range<usize>> {
    (0..nthreads)
        .map(|t| static_chunk(t, nthreads, n))
        .collect()
}

/// Deterministic serial projection of the chunks each thread claims under
/// `sched` for a loop of `n` iterations on `nthreads` threads — the pure
/// chunk math with no team, for the machine simulator, the imbalance
/// metrics, and the planner's cost oracle.
///
/// For [`Schedule::Static`] and [`Schedule::StaticChunk`] this is exactly
/// the runtime's assignment. For the dynamic schedules the *chunk
/// boundaries* are exactly the sequence the shared-counter loop generates
/// ([`Schedule::Guided`] shrinks each chunk to `(remaining / 2·nthreads)`,
/// floor 1); which thread claims which chunk races at runtime, so the
/// projection deals them round-robin in claim order.
pub fn static_projection(sched: Schedule, nthreads: usize, n: usize) -> Vec<Vec<Range<usize>>> {
    let nt = nthreads.max(1);
    let mut per_thread: Vec<Vec<Range<usize>>> = vec![Vec::new(); nt];
    let mut deal = |k: usize, r: Range<usize>| {
        if !r.is_empty() {
            per_thread[k % nt].push(r);
        }
    };
    match sched {
        Schedule::Static => {
            for t in 0..nt {
                deal(t, static_chunk(t, nt, n));
            }
        }
        Schedule::StaticChunk(chunk) | Schedule::Dynamic(chunk) => {
            let chunk = chunk.max(1);
            let mut start = 0;
            let mut k = 0;
            while start < n {
                let end = (start + chunk).min(n);
                deal(k, start..end);
                start = end;
                k += 1;
            }
        }
        Schedule::Guided => {
            let mut start = 0;
            let mut k = 0;
            while start < n {
                let chunk = ((n - start) / (2 * nt)).max(1);
                let end = (start + chunk).min(n);
                deal(k, start..end);
                start = end;
                k += 1;
            }
        }
    }
    per_thread
}

/// Iteration count thread `tid` receives under `schedule(static, chunk)`.
pub fn static_chunked_count(tid: usize, nthreads: usize, n: usize, chunk: usize) -> usize {
    let chunk = chunk.max(1);
    let mut total = 0;
    let mut start = tid * chunk;
    while start < n {
        total += chunk.min(n - start);
        start += nthreads * chunk;
    }
    total
}

/// Execute `body(i)` for this thread's share of `0..n` under `sched`, with
/// the implicit end-of-worksharing barrier (OpenMP default): the indices of
/// [`for_each_range`]'s runs, in order.
///
/// Must be encountered by **all** threads of the team, like any OpenMP
/// worksharing construct; otherwise the team deadlocks at the barrier.
pub fn for_each_index(ctx: &WorkerCtx, n: usize, sched: Schedule, mut body: impl FnMut(usize)) {
    for_each_range(ctx, n, sched, |run| run.for_each(&mut body));
}

/// Execute `body(run)` for each contiguous, non-empty run of `0..n` this
/// thread receives under `sched`, with the implicit end-of-worksharing
/// barrier. The runs are the schedule's chunks: one per thread for
/// [`Schedule::Static`], `chunk` long for [`Schedule::StaticChunk`] and
/// [`Schedule::Dynamic`], shrinking for [`Schedule::Guided`] — the
/// boundaries [`static_projection`] projects, up to a guided claim that
/// races another. Runs never overlap, and together they cover `0..n` once.
///
/// A kernel that takes a run of iterations in one call (a row-range GEMM)
/// thus sees each thread's share in as few calls as the schedule allows.
/// Same team-wide encounter rule as [`for_each_index`].
pub fn for_each_range(
    ctx: &WorkerCtx,
    n: usize,
    sched: Schedule,
    mut body: impl FnMut(Range<usize>),
) {
    let (tid, nt) = (ctx.thread_id, ctx.num_threads);
    match sched {
        Schedule::Static => {
            let run = static_chunk(tid, nt, n);
            if !run.is_empty() {
                body(run);
            }
        }
        Schedule::StaticChunk(chunk) => {
            let chunk = chunk.max(1);
            let mut start = tid * chunk;
            while start < n {
                body(start..(start + chunk).min(n));
                start += nt * chunk;
            }
        }
        Schedule::Dynamic(chunk) => {
            let chunk = chunk.max(1);
            dynamic_loop(ctx, n, move |_remaining| chunk, &mut body);
        }
        Schedule::Guided => {
            dynamic_loop(
                ctx,
                n,
                move |remaining| (remaining / (2 * nt)).max(1),
                &mut body,
            );
        }
    }
    if nt > 1 {
        ctx.barrier();
    }
}

/// Shared-counter loop used by the dynamic and guided schedules. The chunk
/// size may depend on the number of iterations still unclaimed.
fn dynamic_loop(
    ctx: &WorkerCtx,
    n: usize,
    chunk_of: impl Fn(usize) -> usize,
    body: &mut impl FnMut(Range<usize>),
) {
    if ctx.num_threads == 1 {
        // A team of one claims every chunk in turn: no counter to share.
        let mut start = 0;
        while start < n {
            let end = (start + chunk_of(n - start).max(1)).min(n);
            body(start..end);
            start = end;
        }
        return;
    }
    let next = ctx.loop_counter();
    // Entry protocol: reset the shared counter exactly once, with barriers
    // isolating the reset from both the previous loop and the claims below.
    ctx.barrier();
    if ctx.thread_id == 0 {
        next.store(0, Ordering::Relaxed);
    }
    ctx.barrier();
    loop {
        let claimed = next.load(Ordering::Relaxed);
        if claimed >= n {
            break;
        }
        let chunk = chunk_of(n - claimed).max(1);
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        body(start..(start + chunk).min(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_chunk_partitions_exactly() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for nt in [1usize, 2, 3, 8, 16] {
                let ranges = static_assignment(nt, n);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} nt={nt}");
                // Contiguous, in order, non-overlapping.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
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
        let lens: Vec<_> = static_assignment(12, 64).iter().map(|r| r.len()).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 6).count(), 4);
        assert_eq!(lens.iter().filter(|&&l| l == 5).count(), 8);
    }

    #[test]
    fn static_chunked_count_sums_to_n() {
        for &(n, nt, c) in &[(100usize, 4usize, 7usize), (13, 5, 2), (5, 8, 3), (0, 3, 4)] {
            let total: usize = (0..nt).map(|t| static_chunked_count(t, nt, n, c)).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn zero_chunk_is_clamped() {
        assert_eq!(static_chunked_count(0, 2, 10, 0), 5);
    }

    #[test]
    fn projection_agrees_with_the_runtime_chunk_math() {
        // Static: one contiguous range per thread, same as static_assignment.
        let proj = static_projection(Schedule::Static, 3, 10);
        assert_eq!(
            proj,
            vec![vec![0..4], vec![4..7], vec![7..10]],
            "static projection must match static_assignment"
        );
        // StaticChunk: round-robin dealing, per-thread totals match
        // static_chunked_count.
        let proj = static_projection(Schedule::StaticChunk(3), 2, 10);
        assert_eq!(proj, vec![vec![0..3, 6..9], vec![3..6, 9..10]]);
        for (t, ranges) in proj.iter().enumerate() {
            let got: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(got, static_chunked_count(t, 2, 10, 3));
        }
        // Guided: chunks shrink as (remaining / 2nt).max(1); 20 iters on 2
        // threads → 5, 3, 3, 2, 1, 1, ... dealt round-robin.
        let proj = static_projection(Schedule::Guided, 2, 20);
        let mut chunks: Vec<_> = proj.iter().flatten().cloned().collect();
        chunks.sort_by_key(|r| r.start);
        assert_eq!(chunks[0], 0..5);
        assert_eq!(chunks[1], 5..8);
        let covered: usize = chunks.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 20);
    }

    /// `for_each_range` hands each thread exactly the indices
    /// `for_each_index` gives it, as non-empty runs on the schedule's chunk
    /// boundaries, which together tile `0..n`.
    #[test]
    fn ranges_cover_exactly_the_indices_for_each_index_covers() {
        use std::sync::Mutex;
        for nt in [1usize, 2, 3, 4] {
            let team = crate::ThreadTeam::new(nt);
            for n in [0usize, 1, 5, 37, 100] {
                for sched in [
                    Schedule::Static,
                    Schedule::StaticChunk(3),
                    Schedule::Dynamic(2),
                    Schedule::Guided,
                ] {
                    let what = format!("{sched:?}, {nt} threads, n = {n}");
                    let runs = Mutex::new(vec![Vec::new(); nt]);
                    let indices = Mutex::new(vec![Vec::new(); nt]);
                    team.parallel(|w| {
                        let tid = w.thread_id;
                        for_each_range(w, n, sched, |r| runs.lock().unwrap()[tid].push(r));
                        for_each_index(w, n, sched, |i| indices.lock().unwrap()[tid].push(i));
                    });
                    let runs = runs.into_inner().unwrap();
                    let indices = indices.into_inner().unwrap();

                    let mut tiles: Vec<Range<usize>> = runs.iter().flatten().cloned().collect();
                    tiles.sort_by_key(|r| r.start);
                    let mut next = 0;
                    for r in &tiles {
                        assert!(!r.is_empty() && r.start == next, "{what}: {tiles:?}");
                        next = r.end;
                    }
                    assert_eq!(next, n, "{what}");

                    let raced = nt > 1 && matches!(sched, Schedule::Dynamic(_) | Schedule::Guided);
                    if raced {
                        // Which thread claims a chunk races; the cover does not.
                        let mut all: Vec<usize> = indices.into_iter().flatten().collect();
                        all.sort_unstable();
                        assert_eq!(all, (0..n).collect::<Vec<_>>(), "{what}");
                    } else {
                        for (t, (r, i)) in runs.iter().zip(&indices).enumerate() {
                            let flat: Vec<usize> = r.iter().flat_map(Clone::clone).collect();
                            assert_eq!(&flat, i, "{what}: thread {t}");
                        }
                    }
                    // Chunk boundaries are the projection's, except where a
                    // stale guided read races the claim counter.
                    if !(raced && sched == Schedule::Guided) {
                        let mut proj: Vec<Range<usize>> = static_projection(sched, nt, n)
                            .into_iter()
                            .flatten()
                            .collect();
                        proj.sort_by_key(|r| r.start);
                        assert_eq!(tiles, proj, "{what}");
                    }
                }
            }
        }
    }
}
