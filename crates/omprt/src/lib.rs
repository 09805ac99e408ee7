//! `omprt` — a miniature OpenMP-style runtime.
//!
//! The PPoPP'16 paper expresses its coarse-grain parallelization with OpenMP
//! constructs: `#pragma omp parallel`, `#pragma omp for` with static
//! scheduling over *coalesced* loops, data privatization, and an `ordered`
//! loop for the gradient reduction (Algorithms 4-5). This crate implements
//! those constructs so the Rust layer code can be a faithful transliteration:
//!
//! * [`ThreadTeam`] — a persistent pool; [`ThreadTeam::parallel`] is
//!   `#pragma omp parallel`.
//! * [`Schedule`] + [`for_each_index`] — `#pragma omp for schedule(...)`;
//!   [`for_each_range`] hands out the same iterations as the schedule's
//!   contiguous chunks.
//! * [`coalesce::Coalesce`] — the manual loop-coalescing transformation
//!   (`civ -> (s, d1, d2, ...)` decode functions `f_s`, `f_1`, ...).
//! * [`ordered::OrderedRegion`] — `#pragma omp for ordered` used to merge
//!   privatized gradients in thread order.
//! * [`sendptr::SendPtr`] and the safe disjoint-chunk helpers — the data
//!   privatization idioms.
//!
//! The static-schedule chunk math is pure and public so the `machine`
//! execution-model simulator distributes work exactly like the real runtime.
//!
//! ```
//! use omprt::{Schedule, ThreadTeam};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let team = ThreadTeam::new(4);
//! let hits = AtomicUsize::new(0);
//! // #pragma omp parallel for schedule(static)
//! team.parallel_for(100, Schedule::Static, |_ctx, _i| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//!
//! // #pragma omp parallel for reduction(+) — deterministic merge order.
//! let sum = team.parallel_reduce(10, Schedule::Static, 0usize, |i| i, |a, b| a + b);
//! assert_eq!(sum, 45);
//! ```

pub mod coalesce;
pub mod metrics;
pub mod ordered;
pub mod schedule;
pub mod sendptr;

pub use coalesce::Coalesce;
pub use metrics::ImbalanceReport;
pub use ordered::OrderedRegion;
pub use schedule::{for_each_index, for_each_range, static_chunk, Schedule};
pub use sendptr::SendPtr;

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

type Job = *const (dyn Fn(&WorkerCtx) + Sync);

struct JobSlot(UnsafeCell<Option<Job>>);
// SAFETY: the slot is only written by the master strictly before the start
// barrier and read by workers strictly after it; the barriers provide the
// happens-before edges and mutual exclusion. The stored pointer is only
// dereferenced while the owning closure is pinned on the master's stack.
unsafe impl Sync for JobSlot {}
unsafe impl Send for JobSlot {}

struct TeamShared {
    job: JobSlot,
    start: Barrier,
    end: Barrier,
    user_barrier: Barrier,
    shutdown: AtomicBool,
    turn: ordered::Turn,
    /// Shared claim counter for dynamic/guided worksharing loops.
    loop_counter: AtomicUsize,
    /// `#pragma omp critical` lock.
    critical: parking_lot::Mutex<()>,
    /// Claim flags for the `single` constructs of the current region,
    /// indexed by encounter order.
    singles: parking_lot::Mutex<Vec<bool>>,
}

impl TeamShared {
    fn new(size: usize) -> Self {
        Self {
            job: JobSlot(UnsafeCell::new(None)),
            start: Barrier::new(size),
            end: Barrier::new(size),
            user_barrier: Barrier::new(size),
            shutdown: AtomicBool::new(false),
            turn: ordered::Turn::new(),
            loop_counter: AtomicUsize::new(0),
            critical: parking_lot::Mutex::new(()),
            singles: parking_lot::Mutex::new(Vec::new()),
        }
    }
}

/// Per-thread context handed to the closure of [`ThreadTeam::parallel`] —
/// the equivalent of `omp_get_thread_num()` / `omp_get_num_threads()` plus
/// the in-region synchronization primitives.
pub struct WorkerCtx<'a> {
    /// This thread's id in `0..num_threads`.
    pub thread_id: usize,
    /// Team size.
    pub num_threads: usize,
    shared: &'a TeamShared,
    /// How many `single` constructs this thread has encountered in the
    /// current region (identifies the construct instance).
    singles_seen: std::cell::Cell<usize>,
}

impl WorkerCtx<'_> {
    /// `#pragma omp barrier` — all team threads must call it the same number
    /// of times. No layer calls it by name; the worksharing constructs do:
    /// the implicit barrier that ends [`for_each_index`] and
    /// [`WorkerCtx::single`], and the two around the shared-counter reset
    /// on entry to a dynamic or guided loop.
    pub fn barrier(&self) {
        let _span = obs::trace::span("barrier_wait", "omprt");
        self.shared.user_barrier.wait();
    }

    /// Execute `f` in thread-id order (`#pragma omp ordered` over a loop of
    /// one iteration per thread, as in Algorithm 5 lines 22-24).
    ///
    /// Every team thread must call this the same number of times per region;
    /// each "round" runs threads 0, 1, ..., n-1 in order.
    pub fn ordered<R>(&self, f: impl FnOnce() -> R) -> R {
        self.shared
            .turn
            .run_ordered(self.thread_id, self.num_threads, f)
    }

    /// `#pragma omp critical` — run `f` under the team-wide mutual
    /// exclusion lock.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.shared.critical.lock();
        f()
    }

    /// `#pragma omp single` — exactly one thread (the first to arrive at
    /// this construct instance) runs `f`; every thread then waits at the
    /// implicit barrier. Returns `Some(result)` on the executing thread,
    /// `None` on the others.
    ///
    /// All team threads must encounter every `single` in the same order,
    /// like any OpenMP worksharing construct.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let idx = self.singles_seen.get();
        self.singles_seen.set(idx + 1);
        let elected = {
            let mut claimed = self.shared.singles.lock();
            if claimed.len() <= idx {
                claimed.resize(idx + 1, false);
            }
            if claimed[idx] {
                false
            } else {
                claimed[idx] = true;
                true
            }
        };
        let r = if elected { Some(f()) } else { None };
        if self.num_threads > 1 {
            self.barrier();
        }
        r
    }

    pub(crate) fn loop_counter(&self) -> &AtomicUsize {
        &self.shared.loop_counter
    }
}

/// A persistent team of worker threads — `#pragma omp parallel` with the
/// team reused across regions (as an OpenMP runtime reuses its pool).
///
/// The calling thread participates as thread 0, so a team of size `n` spawns
/// `n - 1` OS threads. A team of size 1 executes regions inline with no
/// synchronization at all.
pub struct ThreadTeam {
    size: usize,
    shared: Option<Arc<TeamShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadTeam {
    /// Create a team of `size` threads (including the caller).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "ThreadTeam: size must be >= 1");
        if size == 1 {
            return Self {
                size,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(TeamShared::new(size));
        let mut handles = Vec::with_capacity(size - 1);
        for tid in 1..size {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("omprt-worker-{tid}"))
                    .spawn(move || worker_loop(tid, size, &sh))
                    .expect("omprt: failed to spawn worker"),
            );
        }
        Self {
            size,
            shared: Some(shared),
            handles,
        }
    }

    /// Team size (`omp_get_num_threads()` inside a region).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every team thread — `#pragma omp parallel`.
    ///
    /// Blocks until all threads have finished the region. Panics in worker
    /// threads abort the process (there is no cross-thread unwind recovery,
    /// matching OpenMP semantics where such programs are undefined).
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx) + Sync,
    {
        let Some(shared) = &self.shared else {
            // Size-1 team: run inline. A dummy shared block is still needed
            // for ordered/barrier calls, so build a cheap one.
            let dummy = TeamShared::new(1);
            let ctx = WorkerCtx {
                thread_id: 0,
                num_threads: 1,
                shared: &dummy,
                singles_seen: std::cell::Cell::new(0),
            };
            {
                let _span = obs::trace::span("region", "omprt");
                f(&ctx);
            }
            return;
        };

        shared.turn.reset();
        shared.singles.lock().clear();
        let job: &(dyn Fn(&WorkerCtx) + Sync) = &f;
        // SAFETY (lifetime erasure): the job pointer is consumed by workers
        // between the two barriers below; the master does not return from
        // this function until every worker has passed the end barrier, so
        // `f` outlives all uses.
        let erased: Job = unsafe { std::mem::transmute(job) };
        unsafe { *shared.job.0.get() = Some(erased) };
        shared.start.wait();
        let ctx = WorkerCtx {
            thread_id: 0,
            num_threads: self.size,
            shared,
            singles_seen: std::cell::Cell::new(0),
        };
        {
            let _span = obs::trace::span("region", "omprt");
            f(&ctx);
        }
        shared.end.wait();
        unsafe { *shared.job.0.get() = None };
    }

    /// Convenience: `#pragma omp parallel for schedule(sched)` over
    /// `0..n_iters`, invoking `body(ctx, i)` for each index.
    pub fn parallel_for<F>(&self, n_iters: usize, sched: Schedule, body: F)
    where
        F: Fn(&WorkerCtx, usize) + Sync,
    {
        self.parallel(|ctx| {
            for_each_index(ctx, n_iters, sched, |i| body(ctx, i));
        });
    }

    /// `#pragma omp parallel for reduction(...)`: map every index through
    /// `map` and fold with `combine`, merging the per-thread partials in
    /// thread-id order (deterministic for a fixed team size under the
    /// static schedules).
    pub fn parallel_reduce<V, M, C>(
        &self,
        n_iters: usize,
        sched: Schedule,
        identity: V,
        map: M,
        combine: C,
    ) -> V
    where
        V: Send + Clone,
        M: Fn(usize) -> V + Sync,
        C: Fn(V, V) -> V + Sync,
    {
        let partials: Vec<parking_lot::Mutex<Option<V>>> = (0..self.size)
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        self.parallel(|ctx| {
            // Threads that receive no iterations contribute no partial, so
            // `identity` need not be a true neutral element.
            let mut acc: Option<V> = None;
            for_each_index(ctx, n_iters, sched, |i| {
                let v = map(i);
                acc = Some(match acc.take() {
                    Some(a) => combine(a, v),
                    None => v,
                });
            });
            *partials[ctx.thread_id].lock() = acc;
        });
        let mut total: Option<V> = None;
        for p in partials {
            if let Some(v) = p.into_inner() {
                total = Some(match total.take() {
                    Some(a) => combine(a, v),
                    None => v,
                });
            }
        }
        total.unwrap_or(identity)
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.shutdown.store(true, Ordering::Release);
            shared.start.wait();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(tid: usize, size: usize, shared: &TeamShared) {
    loop {
        shared.start.wait();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: written by master before the start barrier; master blocks
        // on the end barrier until we are done with it.
        let job = unsafe { (*shared.job.0.get()).expect("omprt: start without job") };
        let ctx = WorkerCtx {
            thread_id: tid,
            num_threads: size,
            shared,
            singles_seen: std::cell::Cell::new(0),
        };
        {
            let _span = obs::trace::span("region", "omprt");
            unsafe { (*job)(&ctx) };
        }
        shared.end.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn size_one_runs_inline() {
        let team = ThreadTeam::new(1);
        let mut hits = 0;
        let cell = std::sync::Mutex::new(&mut hits);
        team.parallel(|ctx| {
            assert_eq!(ctx.thread_id, 0);
            assert_eq!(ctx.num_threads, 1);
            **cell.lock().unwrap() += 1;
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn all_threads_enter_region() {
        let team = ThreadTeam::new(4);
        let count = AtomicUsize::new(0);
        let seen = std::sync::Mutex::new(vec![false; 4]);
        team.parallel(|ctx| {
            count.fetch_add(1, Ordering::SeqCst);
            seen.lock().unwrap()[ctx.thread_id] = true;
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert!(seen.lock().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn team_is_reusable_across_regions() {
        let team = ThreadTeam::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..50 {
            team.parallel(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let team = ThreadTeam::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every thread must observe all 4 increments.
            if phase1.load(Ordering::SeqCst) == 4 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let team = ThreadTeam::new(4);
        let n = 1003;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(7),
            Schedule::Dynamic(5),
            Schedule::Guided,
        ] {
            for h in &hits {
                h.store(0, Ordering::Relaxed);
            }
            team.parallel_for(n, sched, |_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} under {sched:?}");
            }
        }
    }

    #[test]
    fn ordered_runs_in_thread_order() {
        let team = ThreadTeam::new(4);
        let order = std::sync::Mutex::new(Vec::new());
        team.parallel(|ctx| {
            ctx.ordered(|| {
                order.lock().unwrap().push(ctx.thread_id);
            });
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ordered_is_reusable_across_regions() {
        let team = ThreadTeam::new(3);
        for _ in 0..10 {
            let order = std::sync::Mutex::new(Vec::new());
            team.parallel(|ctx| {
                ctx.ordered(|| order.lock().unwrap().push(ctx.thread_id));
            });
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        }
    }

    #[test]
    fn critical_provides_mutual_exclusion() {
        let team = ThreadTeam::new(4);
        // A non-atomic counter: only safe because of critical.
        let counter = std::sync::Mutex::new(0usize);
        team.parallel(|ctx| {
            for _ in 0..100 {
                ctx.critical(|| {
                    let mut c = counter.lock().unwrap();
                    let v = *c;
                    // Widen the race window.
                    std::hint::black_box(v);
                    *c = v + 1;
                });
            }
        });
        assert_eq!(*counter.lock().unwrap(), 400);
    }

    #[test]
    fn single_runs_exactly_once_per_construct() {
        let team = ThreadTeam::new(4);
        let first = AtomicUsize::new(0);
        let second = AtomicUsize::new(0);
        let winners = AtomicUsize::new(0);
        team.parallel(|ctx| {
            if ctx
                .single(|| first.fetch_add(1, Ordering::SeqCst))
                .is_some()
            {
                winners.fetch_add(1, Ordering::SeqCst);
            }
            ctx.single(|| second.fetch_add(1, Ordering::SeqCst));
        });
        assert_eq!(first.load(Ordering::SeqCst), 1);
        assert_eq!(second.load(Ordering::SeqCst), 1);
        assert_eq!(winners.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_resets_between_regions() {
        let team = ThreadTeam::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..5 {
            team.parallel(|ctx| {
                ctx.single(|| hits.fetch_add(1, Ordering::SeqCst));
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn single_on_team_of_one() {
        let team = ThreadTeam::new(1);
        team.parallel(|ctx| {
            assert_eq!(ctx.single(|| 7), Some(7));
        });
    }

    #[test]
    fn parallel_reduce_sums_correctly_under_every_schedule() {
        let team = ThreadTeam::new(3);
        let want: u64 = (0..1000u64).map(|i| i * i).sum();
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(13),
            Schedule::Dynamic(7),
            Schedule::Guided,
        ] {
            let got =
                team.parallel_reduce(1000, sched, 0u64, |i| (i as u64) * (i as u64), |a, b| a + b);
            assert_eq!(got, want, "{sched:?}");
        }
    }

    #[test]
    fn parallel_reduce_is_deterministic_for_fixed_team() {
        let team = ThreadTeam::new(4);
        // Float summation: thread-ordered merge must reproduce bit-for-bit.
        let run = || {
            team.parallel_reduce(
                4096,
                Schedule::Static,
                0.0f64,
                |i| 1.0 / (1.0 + i as f64),
                |a, b| a + b,
            )
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn parallel_reduce_empty_range_is_identity() {
        let team = ThreadTeam::new(2);
        let got = team.parallel_reduce(0, Schedule::Static, 42i32, |_| 1, |a, b| a + b);
        assert_eq!(got, 42);
    }

    #[test]
    fn parallel_reduce_identity_not_overcounted() {
        // Even a non-neutral "identity" must not leak into non-empty
        // reductions (idle threads contribute nothing).
        let team = ThreadTeam::new(4);
        let got = team.parallel_reduce(2, Schedule::Static, 100i32, |i| i as i32, |a, b| a + b);
        assert_eq!(got, 1);
    }
}
