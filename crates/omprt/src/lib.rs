//! `omprt` — the OpenMP constructs of the paper's coarse-grain
//! parallelization, and no others.
//!
//! The PPoPP'16 paper runs each layer pass as `#pragma omp parallel` around
//! a `#pragma omp for schedule(static)` over a *coalesced* loop (Algorithm
//! 4). Its Algorithm 5 merges privatized gradients under `ordered`; here the
//! merge is a barrier plus a second static loop over the gradient elements
//! (`layers::drivers::backward_reduce`), which keeps every element's
//! additions and their order, so no thread waits for a turn. This crate
//! implements exactly the constructs those loops use:
//!
//! * [`ThreadTeam`] — a persistent pool; [`ThreadTeam::parallel`] is
//!   `#pragma omp parallel`, and [`WorkerCtx::barrier`] is the in-region
//!   construct.
//! * [`for_each_range`] — `#pragma omp for schedule(static)`: one
//!   contiguous [`static_chunk`] per thread, then the implicit barrier.
//! * [`SendPtr`] and [`DisjointSlices`] — the data privatization idioms.
//! * [`analytic_distribution`] — the static schedule's per-thread work, as
//!   an [`ImbalanceReport`].
//!
//! The chunk math is pure and public so the `machine` execution-model
//! simulator distributes work exactly like the real runtime.
//!
//! ```
//! use omprt::{for_each_range, ThreadTeam};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let team = ThreadTeam::new(4);
//! let hits = AtomicUsize::new(0);
//! let saw_all = AtomicUsize::new(0);
//! // #pragma omp parallel
//! team.parallel(|ctx| {
//!     // #pragma omp for schedule(static)
//!     for_each_range(ctx, 100, |run| {
//!         hits.fetch_add(run.len(), Ordering::Relaxed);
//!     });
//!     // Past the loop's implicit barrier every thread sees every hit.
//!     if hits.load(Ordering::Relaxed) == 100 {
//!         saw_all.fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//! assert_eq!(saw_all.into_inner(), 4);
//! ```

mod metrics;
mod schedule;
mod sendptr;

pub use metrics::{analytic_distribution, ImbalanceReport};
pub use schedule::{for_each_range, static_chunk};
pub use sendptr::{DisjointSlices, SendPtr};

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

type Job = *const (dyn Fn(&WorkerCtx) + Sync);

struct JobSlot(UnsafeCell<Option<Job>>);
// SAFETY: the slot is only written by the master strictly before the start
// barrier or after the end barrier, and read by workers strictly between
// the two; the barriers provide the happens-before edges and mutual
// exclusion. The stored pointer is only dereferenced while the owning
// closure is pinned on the master's stack.
unsafe impl Sync for JobSlot {}
// SAFETY: as for `Sync`: the slot moves between threads only inside the
// `Arc<TeamShared>`, under the same barrier protocol.
unsafe impl Send for JobSlot {}

struct TeamShared {
    job: JobSlot,
    start: Barrier,
    end: Barrier,
    user_barrier: Barrier,
    shutdown: AtomicBool,
}

impl TeamShared {
    fn new(size: usize) -> Self {
        Self {
            job: JobSlot(UnsafeCell::new(None)),
            start: Barrier::new(size),
            end: Barrier::new(size),
            user_barrier: Barrier::new(size),
            shutdown: AtomicBool::new(false),
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
}

impl WorkerCtx<'_> {
    /// `#pragma omp barrier` — all team threads must call it the same number
    /// of times. Its callers are the implicit barrier that ends
    /// [`for_each_range`] and the one between the gradient accumulation and
    /// the fold of `layers::drivers::backward_reduce`. A no-op on a team of
    /// one.
    pub fn barrier(&self) {
        if self.num_threads > 1 {
            let _span = obs::trace::span("barrier_wait", "omprt");
            self.shared.user_barrier.wait();
        }
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
    /// Blocks until all threads have finished the region. A panic on any
    /// thread of a team larger than one aborts the process (there is no
    /// cross-thread unwind recovery, matching OpenMP semantics where such
    /// programs are undefined). A size-1 team runs `f` inline, so a panic
    /// there unwinds to the caller as usual.
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx) + Sync,
    {
        let Some(shared) = &self.shared else {
            // Size-1 team: run inline. `WorkerCtx` still borrows a shared
            // block, so build a cheap one; its barrier is never waited on.
            let dummy = TeamShared::new(1);
            let ctx = WorkerCtx {
                thread_id: 0,
                num_threads: 1,
                shared: &dummy,
            };
            let _span = obs::trace::span("region", "omprt");
            f(&ctx);
            return;
        };

        let job: &(dyn Fn(&WorkerCtx) + Sync) = &f;
        // SAFETY: lifetime erasure. Workers dereference the job only
        // between the start and end barriers below, and this function does
        // not return before every worker has passed the end barrier — nor
        // unwind: a panic in `f` aborts — so `f` outlives all uses.
        let erased: Job = unsafe { std::mem::transmute(job) };
        // SAFETY: every worker is parked at the start barrier (the previous
        // region's end barrier ordered its last read of the slot before this
        // write), so nothing reads the slot concurrently.
        unsafe { *shared.job.0.get() = Some(erased) };
        shared.start.wait();
        let ctx = WorkerCtx {
            thread_id: 0,
            num_threads: self.size,
            shared,
        };
        abort_on_unwind(|| {
            let _span = obs::trace::span("region", "omprt");
            f(&ctx);
        });
        shared.end.wait();
        // SAFETY: every worker has passed the end barrier, so none reads the
        // slot again before the next region's start barrier.
        unsafe { *shared.job.0.get() = None };
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
        // SAFETY: written by the master before the start barrier; the
        // master does not touch the slot again until we pass the end
        // barrier.
        let job = unsafe { (*shared.job.0.get()).expect("omprt: start without job") };
        let ctx = WorkerCtx {
            thread_id: tid,
            num_threads: size,
            shared,
        };
        abort_on_unwind(|| {
            let _span = obs::trace::span("region", "omprt");
            // SAFETY: `job` points at the master's closure, which stays
            // alive until every worker has passed the end barrier below
            // (see `ThreadTeam::parallel`).
            unsafe { (*job)(&ctx) };
        });
        shared.end.wait();
    }
}

/// Run a team thread's share of a region, aborting the process if it
/// unwinds. An unwinding master would free the closure the workers are
/// still running; an unwinding worker would leave the team waiting at the
/// end barrier forever.
fn abort_on_unwind(f: impl FnOnce()) {
    struct Bomb;
    impl Drop for Bomb {
        fn drop(&mut self) {
            eprintln!("omprt: panic inside a parallel region; aborting");
            std::process::abort();
        }
    }
    let bomb = Bomb;
    f();
    std::mem::forget(bomb);
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
    fn size_one_panic_unwinds_to_the_caller() {
        let team = ThreadTeam::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.parallel(|_| panic!("inline"))
        }));
        assert!(r.is_err());
        // The team is still usable afterwards.
        let hits = AtomicUsize::new(0);
        team.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.into_inner(), 1);
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
}
