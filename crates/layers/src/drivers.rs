//! Parallel drivers: the reusable renderings of Algorithms 4 and 5.
//!
//! * [`parallel_rows`] / [`parallel_segments`] /
//!   [`parallel_segments_scratch`] — the coalesced, statically-scheduled
//!   loop over disjoint output segments (Algorithm 4), handed to the kernel
//!   as each thread's one contiguous run (the inner product's row-range GEMM)
//!   or one segment at a time, optionally with the thread's scratch buffer
//!   (convolution's im2col column).
//!   Forward passes and backward-data passes write disjoint segments, so no
//!   synchronization is required.
//! * [`backward_reduce`] — the privatize-then-merge pattern for weight/bias
//!   gradients (Algorithm 5): each *slot* accumulates the gradients of a
//!   contiguous chunk of samples; past one barrier the team folds the slots
//!   into the shared parameter diff in slot order, each thread over its own
//!   static chunk of the gradient elements.
//!
//! These drivers are what makes the parallelization *network-agnostic*: a
//! new layer type only supplies the per-segment / per-sample kernel.

use crate::ctx::ExecCtx;
use crate::workspace::ThreadScratch;
use mmblas::Scalar;
use omprt::{for_each_range, static_chunk, DisjointSlices, SendPtr};
use std::ops::Range;

/// The one loop shape under every segment driver: `out` holds
/// `out.len() / row_len` disjoint rows, and `f(thread_id, rows, out_rows)`
/// runs once per thread with the contiguous run of rows its static chunk
/// holds ([`for_each_range`]; not at all for an empty run).
fn for_each_run<S, F>(ctx: &ExecCtx<'_, S>, out: &mut [S], row_len: usize, f: F)
where
    S: Scalar,
    F: Fn(usize, Range<usize>, &mut [S]) + Sync,
{
    if out.is_empty() {
        return;
    }
    let ds = DisjointSlices::new(out, row_len);
    let n = ds.len();
    ctx.team.parallel(|w| {
        let _span = obs::trace::span("segments", "driver");
        for_each_range(w, n, |rows| {
            // SAFETY: `for_each_range` deals disjoint runs, one thread each.
            let out_rows = unsafe { ds.segments_mut(rows.clone()) };
            f(w.thread_id, rows, out_rows);
        });
    });
}

/// The coalesced, statically-scheduled loop of Algorithm 4 with each
/// thread's run kept whole: `out` holds `out.len() / row_len` disjoint
/// rows (one per coalesced iteration), and `f(rows, out_rows)` is invoked
/// once per thread with the contiguous run of rows it receives
/// ([`for_each_range`]; not at all for an empty run), with `out_rows` the
/// run's `rows.len() * row_len` elements of `out`.
///
/// A kernel that is one call per run (the inner product's row-range GEMM)
/// must write each row with values that do not depend on the run it arrives
/// in — `mmblas::gemm` over a row range does.
pub fn parallel_rows<S, F>(ctx: &ExecCtx<'_, S>, out: &mut [S], row_len: usize, f: F)
where
    S: Scalar,
    F: Fn(Range<usize>, &mut [S]) + Sync,
{
    for_each_run(ctx, out, row_len, |_, rows, out_rows| f(rows, out_rows));
}

/// [`parallel_rows`] one segment at a time: `f(i, segment)` is invoked
/// exactly once per segment index, by the thread whose static chunk holds it.
///
/// With a team of size 1 this degenerates to the sequential loop of
/// Algorithm 2, in the same iteration order.
pub fn parallel_segments<S, F>(ctx: &ExecCtx<'_, S>, out: &mut [S], seg_len: usize, f: F)
where
    S: Scalar,
    F: Fn(usize, &mut [S]) + Sync,
{
    parallel_rows(ctx, out, seg_len, |rows, segs| {
        for (i, seg) in rows.zip(segs.chunks_exact_mut(seg_len)) {
            f(i, seg);
        }
    });
}

/// [`parallel_segments`] plus the thread's scratch buffer (the im2col
/// column buffer of convolution): `f(i, segment, scratch)`.
pub fn parallel_segments_scratch<S, F>(ctx: &ExecCtx<'_, S>, out: &mut [S], seg_len: usize, f: F)
where
    S: Scalar,
    F: Fn(usize, &mut [S], &mut ThreadScratch<S>) + Sync,
{
    for_each_run(ctx, out, seg_len, |tid, rows, segs| {
        let mut scratch = ctx.workspace.thread_scratch(tid);
        for (i, seg) in rows.zip(segs.chunks_exact_mut(seg_len)) {
            f(i, seg, &mut scratch);
        }
    });
}

/// Privatized gradient accumulation with deterministic merge — Algorithm 5.
///
/// `body(sample, slot_grads, scratch)` computes sample `sample`'s
/// contribution, accumulating (`+=`) into `slot_grads` (one `&mut [S]` per
/// parameter, as long as and in the order of `shared_diffs`). The driver:
///
/// 1. partitions samples into `reduction.slots(team_size)` contiguous
///    chunks (static-schedule math, so thread chunks and slot chunks
///    coincide in [`crate::ReductionMode::Ordered`] mode);
/// 2. zeroes each slot's privatized buffer (Algorithm 5 line 5);
/// 3. runs the per-sample bodies in parallel;
/// 4. waits at one barrier, then folds: each thread takes a static chunk of
///    the layer's gradient elements and adds every slot into it, slot 0
///    first. Each element of `shared_diffs` thus gets `+= slot[g]` for
///    `g` ascending — the additions, in the order, of Algorithm 5's
///    `ordered` merge — so the bits depend on the slot count alone, not on
///    which thread folds which element, and no thread waits for a turn.
///
/// # Panics
/// Panics if the workspace has too few slots or too little gradient space.
pub fn backward_reduce<S, F>(
    ctx: &ExecCtx<'_, S>,
    n_samples: usize,
    shared_diffs: &mut [&mut [S]],
    body: F,
) where
    S: Scalar,
    F: Fn(usize, &mut [&mut [S]], &mut ThreadScratch<S>) + Sync,
{
    let param_lens: Vec<usize> = shared_diffs.iter().map(|d| d.len()).collect();
    let total: usize = param_lens.iter().sum();
    let nslots = ctx.reduction.slots(ctx.team.size());
    assert!(
        ctx.workspace.n_slots() >= nslots,
        "backward_reduce: workspace has {} slots, need {nslots}",
        ctx.workspace.n_slots()
    );
    assert!(
        ctx.workspace.request().grad_len >= total,
        "backward_reduce: workspace grad_len {} < layer total {total}",
        ctx.workspace.request().grad_len
    );

    let shared: Vec<SendPtr<S>> = shared_diffs.iter_mut().map(|s| SendPtr::new(s)).collect();

    ctx.team.parallel(|w| {
        {
            let _span = obs::trace::span("grad_accum", "driver");
            let mut scratch = ctx.workspace.thread_scratch(w.thread_id);
            for slot in static_chunk(w.thread_id, w.num_threads, nslots) {
                let mut sg = ctx.workspace.slot(slot);
                sg.prepare(total);
                let mut parts = sg.parts(&param_lens);
                for s in static_chunk(slot, nslots, n_samples) {
                    body(s, &mut parts, &mut scratch);
                }
            }
        }
        w.barrier();
        let _span = obs::trace::span("grad_merge", "driver");
        let mine = static_chunk(w.thread_id, w.num_threads, total);
        if mine.is_empty() {
            return;
        }
        let slots: Vec<_> = (0..nslots).map(|g| ctx.workspace.slot_read(g)).collect();
        let mut off = 0usize;
        for (j, &len) in param_lens.iter().enumerate() {
            let (lo, hi) = (mine.start.max(off), mine.end.min(off + len));
            if lo < hi {
                // SAFETY: the parameters tile `0..total` in `param_lens`
                // order and `static_chunk` deals each element of it to one
                // thread, so no two threads write the same element.
                let dst = unsafe { shared[j].slice_mut(lo - off, hi - lo) };
                for sg in &slots {
                    mmblas::axpy(S::ONE, &sg.active(total)[lo..hi], dst);
                }
            }
            off += len;
        }
    });
}

/// Parallel per-sample evaluation followed by a *sequential, in-order* sum
/// — used by loss layers so the reported scalar is deterministic.
///
/// The sum uses the gradient reduction's grouping: per-sample values are
/// first summed within each of the `reduction.slots(team_size)` slot chunks
/// ([`static_chunk`]), then the group partial sums are folded in group
/// order. The scalar thus depends on the slot count only, as the gradient
/// does, and decomposes across group boundaries — a distributed run whose
/// workers each own whole groups reproduces it bitwise from per-worker
/// partial sums. One group is the flat sequential fold.
///
/// Returns `sum_i f(i)`.
pub fn parallel_map_ordered_sum<S, F>(ctx: &ExecCtx<'_, S>, n: usize, f: F) -> S
where
    S: Scalar,
    F: Fn(usize) -> S + Sync,
{
    let mut vals = vec![S::ZERO; n];
    parallel_segments(ctx, &mut vals, 1, |i, out| out[0] = f(i));
    let groups = ctx.reduction.slots(ctx.team.size());
    let mut acc = S::ZERO;
    for g in 0..groups {
        let mut part = S::ZERO;
        for i in static_chunk(g, groups, n) {
            part += vals[i];
        }
        acc += part;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ReductionMode;
    use crate::workspace::{Workspace, WorkspaceRequest};
    use omprt::ThreadTeam;

    fn ctx_with<'a>(
        team: &'a ThreadTeam,
        ws: &'a Workspace<f64>,
        mode: ReductionMode,
    ) -> ExecCtx<'a, f64> {
        ExecCtx::new(team, ws).with_reduction(mode)
    }

    #[test]
    fn parallel_segments_writes_each_segment() {
        let team = ThreadTeam::new(3);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut out = vec![0.0f64; 12];
        parallel_segments(&ctx, &mut out, 4, |i, seg| {
            for v in seg {
                *v = i as f64;
            }
        });
        assert_eq!(out, [0., 0., 0., 0., 1., 1., 1., 1., 2., 2., 2., 2.]);
    }

    #[test]
    fn parallel_segments_empty_out_is_noop() {
        let team = ThreadTeam::new(2);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut out: Vec<f64> = vec![];
        parallel_segments(&ctx, &mut out, 4, |_, _| panic!("no segments"));
    }

    /// Simple "gradient": sample s contributes s+1 to param 0 and 2(s+1) to
    /// param 1.
    fn run_reduce(nthreads: usize, mode: ReductionMode, n_samples: usize) -> (Vec<f64>, Vec<f64>) {
        let team = ThreadTeam::new(nthreads);
        let nslots = mode.slots(nthreads);
        let ws = Workspace::new(
            nthreads,
            nslots,
            WorkspaceRequest {
                col_len: 4,
                grad_len: 5,
            },
        );
        let ctx = ctx_with(&team, &ws, mode);
        let mut w = vec![0.0f64; 3];
        let mut b = vec![0.0f64; 2];
        {
            let mut shared: Vec<&mut [f64]> = vec![&mut w, &mut b];
            backward_reduce(&ctx, n_samples, &mut shared, |s, parts, scratch| {
                assert_eq!(scratch.col.len(), 4);
                for v in parts[0].iter_mut() {
                    *v += (s + 1) as f64;
                }
                for v in parts[1].iter_mut() {
                    *v += 2.0 * (s + 1) as f64;
                }
            });
        }
        (w, b)
    }

    #[test]
    fn backward_reduce_totals_are_correct() {
        let n = 10;
        let expect: f64 = (1..=n).map(|s| s as f64).sum();
        for mode in [
            ReductionMode::Ordered,
            ReductionMode::Canonical { groups: 16 },
        ] {
            for t in [1, 2, 4] {
                let (w, b) = run_reduce(t, mode, n);
                for &v in &w {
                    assert!((v - expect).abs() < 1e-9, "{mode:?} t={t}: {v} != {expect}");
                }
                for &v in &b {
                    assert!((v - 2.0 * expect).abs() < 1e-9);
                }
            }
        }
    }

    /// Sample `s`'s contribution to gradient element `e`: a mix of
    /// magnitudes 1e-5..1e7 and both signs, so a changed addition order
    /// shows in the bits, plus a few NaN and more -0.0 entries.
    fn contribution(s: usize, e: usize) -> f32 {
        if (s * 7 + e * 3).is_multiple_of(41) {
            return f32::NAN;
        }
        match (s * 7 + e * 3) % 13 {
            1 | 2 => -0.0,
            k => {
                let sign = if (s + e).is_multiple_of(2) { 1.0 } else { -1.0 };
                sign * 10f32.powi(k as i32 - 5) * (1.0 + (s * 31 + e * 17) as f32 / 97.0)
            }
        }
    }

    #[test]
    fn fold_is_bitwise_a_sequential_slot_order_axpy_loop() {
        // (threads, mode, param_lens, samples): a parameter boundary inside
        // thread 0's element chunk (0..5 of [3, 6]); fewer elements than
        // threads (3 at 4, so thread 3 folds nothing); odd totals;
        // Canonical{16} at 3 threads; more threads than canonical groups.
        let cases: [(usize, ReductionMode, &[usize], usize); 6] = [
            (2, ReductionMode::Ordered, &[3, 6], 9),
            (4, ReductionMode::Ordered, &[1, 2], 7),
            (3, ReductionMode::Canonical { groups: 16 }, &[7, 2, 4], 37),
            (5, ReductionMode::Canonical { groups: 2 }, &[11, 1], 23),
            (1, ReductionMode::Ordered, &[5, 3], 4),
            (2, ReductionMode::Ordered, &[4, 3], 0),
        ];
        for (threads, mode, lens, n) in cases {
            let total: usize = lens.iter().sum();
            let nslots = mode.slots(threads);
            // Shared diffs start non-zero, with a -0.0 that a +0.0 slot
            // entry must turn into +0.0.
            let init: Vec<f32> = (0..total)
                .map(|e| if e % 4 == 1 { -0.0 } else { e as f32 * 0.25 })
                .collect();

            // Reference: each slot accumulated on its own, then `axpy`ed
            // into the shared diff in ascending slot order.
            let mut want = init.clone();
            for g in 0..nslots {
                let mut slot = vec![0.0f32; total];
                for s in static_chunk(g, nslots, n) {
                    for (e, v) in slot.iter_mut().enumerate() {
                        *v += contribution(s, e);
                    }
                }
                mmblas::axpy(1.0, &slot, &mut want);
            }

            let team = ThreadTeam::new(threads);
            let ws = Workspace::<f32>::new(
                threads,
                nslots,
                WorkspaceRequest {
                    col_len: 0,
                    grad_len: total,
                },
            );
            let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
            let mut got = init.clone();
            let mut rest: &mut [f32] = &mut got;
            let mut shared: Vec<&mut [f32]> = Vec::new();
            for &l in lens {
                let (head, tail) = rest.split_at_mut(l);
                shared.push(head);
                rest = tail;
            }
            backward_reduce(&ctx, n, &mut shared, |s, parts, _| {
                let mut e = 0;
                for part in parts.iter_mut() {
                    for v in part.iter_mut() {
                        *v += contribution(s, e);
                        e += 1;
                    }
                }
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{threads} threads, {mode:?}, lens {lens:?}, {n} samples"
            );
            assert!(got.iter().any(|x| x.is_nan()) || n == 0);
        }
    }

    #[test]
    fn canonical_mode_bitwise_invariant_across_thread_counts() {
        let mode = ReductionMode::Canonical { groups: 16 };
        let (w1, b1) = run_reduce(1, mode, 37);
        for t in [2, 3, 4, 5] {
            let (w, b) = run_reduce(t, mode, 37);
            assert_eq!(w, w1, "t={t}");
            assert_eq!(b, b1, "t={t}");
        }
    }

    #[test]
    fn ordered_mode_deterministic_for_fixed_thread_count() {
        let (w_a, b_a) = run_reduce(4, ReductionMode::Ordered, 23);
        let (w_b, b_b) = run_reduce(4, ReductionMode::Ordered, 23);
        assert_eq!(w_a, w_b);
        assert_eq!(b_a, b_b);
    }

    #[test]
    fn zero_samples_leaves_diffs_untouched() {
        let (w, b) = run_reduce(2, ReductionMode::Ordered, 0);
        assert_eq!(w, [0.0; 3]);
        assert_eq!(b, [0.0; 2]);
    }

    #[test]
    fn ordered_sum_groups_by_thread() {
        let f = |i: usize| (i as f64) * 0.1;
        let sum = |threads: usize, mode: ReductionMode| {
            let team = ThreadTeam::new(threads);
            let ws = Workspace::<f64>::empty();
            let ctx = ExecCtx::new(&team, &ws).with_reduction(mode);
            parallel_map_ordered_sum(&ctx, 100, f)
        };
        // One thread, one group: the flat sequential fold.
        let mut want = 0.0;
        for i in 0..100 {
            want += f(i);
        }
        assert_eq!(sum(1, ReductionMode::Ordered), want);
        // T threads sum as T pinned groups on one thread.
        for t in [2, 3, 4] {
            let pinned = sum(1, ReductionMode::Canonical { groups: t });
            assert_eq!(sum(t, ReductionMode::Ordered).to_bits(), pinned.to_bits());
        }
    }

    #[test]
    fn canonical_sum_is_grouped_and_decomposable() {
        // With Canonical{groups: 2} the sum must equal
        // (chunk-0 sequential sum) + (chunk-1 sequential sum) exactly —
        // the decomposition a 2-worker distributed run relies on.
        let ws = Workspace::<f64>::empty();
        let f = |i: usize| 1.0 / (i as f64 + 0.7);
        let n = 25;
        let part = |r: std::ops::Range<usize>| {
            let mut acc = 0.0;
            for i in r {
                acc += f(i);
            }
            acc
        };
        for threads in [1, 2] {
            let team = ThreadTeam::new(threads);
            let ctx = ctx_with(&team, &ws, ReductionMode::Canonical { groups: 2 });
            assert_eq!(
                parallel_map_ordered_sum(&ctx, n, f),
                part(static_chunk(0, 2, n)) + part(static_chunk(1, 2, n))
            );
        }
        // groups: 1 on one thread degenerates to the flat fold.
        let team = ThreadTeam::new(1);
        let ctx1 = ctx_with(&team, &ws, ReductionMode::Canonical { groups: 1 });
        assert_eq!(parallel_map_ordered_sum(&ctx1, n, f), part(0..n));
    }

    #[test]
    fn parallel_rows_calls_once_per_scheduled_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ws = Workspace::<f64>::empty();
        for threads in [1, 3] {
            let team = ThreadTeam::new(threads);
            let ctx = ExecCtx::new(&team, &ws);
            let calls = AtomicUsize::new(0);
            let mut out = vec![-1.0f64; 7 * 3];
            parallel_rows(&ctx, &mut out, 3, |rows, y| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(y.len(), rows.len() * 3);
                for (r, row) in rows.zip(y.chunks_exact_mut(3)) {
                    row.fill(r as f64);
                }
            });
            let want: Vec<f64> = (0..21).map(|i| (i / 3) as f64).collect();
            assert_eq!(out, want, "{threads} threads");
            // One static run per thread.
            assert_eq!(calls.into_inner(), threads, "{threads} threads");
        }
    }

    #[test]
    fn parallel_segments_scratch_lends_each_thread_its_scratch() {
        let threads = 3;
        let team = ThreadTeam::new(threads);
        let ws = Workspace::new(
            threads,
            threads,
            WorkspaceRequest {
                col_len: 2,
                grad_len: 0,
            },
        );
        let ctx = ExecCtx::new(&team, &ws);
        let mut out = vec![0.0f64; 12];
        parallel_segments_scratch(&ctx, &mut out, 4, |s, seg, scratch| {
            assert_eq!(scratch.col.len(), 2);
            seg.fill(s as f64);
        });
        let mut segs = vec![0.0f64; 12];
        parallel_segments(&ctx, &mut segs, 4, |s, seg| seg.fill(s as f64));
        assert_eq!(out, [0., 0., 0., 0., 1., 1., 1., 1., 2., 2., 2., 2.]);
        assert_eq!(out, segs);
    }

    #[test]
    #[should_panic(expected = "workspace grad_len")]
    fn undersized_workspace_panics() {
        let team = ThreadTeam::new(1);
        let ws = Workspace::new(
            1,
            1,
            WorkspaceRequest {
                col_len: 0,
                grad_len: 1,
            },
        );
        let ctx = ExecCtx::new(&team, &ws);
        let mut w = vec![0.0f64; 3];
        let mut shared: Vec<&mut [f64]> = vec![&mut w];
        backward_reduce(&ctx, 1, &mut shared, |_, _, _| {});
    }
}
