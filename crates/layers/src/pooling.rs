//! Spatial pooling — Caffe's `Pooling` layer (MAX and AVE).
//!
//! Output dimensions use Caffe's ceil-mode formula
//! `pooled = ceil((in + 2*pad - kernel) / stride) + 1`, with windows clipped
//! to the input. MAX pooling keeps no arg-max mask: the backward re-derives
//! each window's arg-max from the forward's input and output. Both passes
//! are coalesced over `(sample, channel)` segments — the pooling
//! granularity the paper analyses (pool2 on MNIST saturates because these
//! segments become tiny).

use crate::ctx::ExecCtx;
use crate::drivers::parallel_segments;
use crate::profile::PassProfile;
use crate::Layer;
use blob::{Blob, Shape};
use mmblas::Scalar;
use std::hint::select_unpredictable;

/// Pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMethod {
    /// Window maximum.
    Max,
    /// Window average.
    Ave,
}

/// Configuration for [`PoolingLayer`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// MAX or AVE.
    pub method: PoolMethod,
    /// Square window size.
    pub kernel: usize,
    /// Zero padding.
    pub pad: usize,
    /// Stride.
    pub stride: usize,
}

impl PoolConfig {
    /// Max pooling with no padding.
    pub fn max(kernel: usize, stride: usize) -> Self {
        Self {
            method: PoolMethod::Max,
            kernel,
            pad: 0,
            stride,
        }
    }

    /// Average pooling with no padding.
    pub fn ave(kernel: usize, stride: usize) -> Self {
        Self {
            method: PoolMethod::Ave,
            kernel,
            pad: 0,
            stride,
        }
    }
}

/// Caffe ceil-mode pooled output dimension.
pub fn pooled_dim(dim: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    let numer = (dim + 2 * pad).saturating_sub(kernel);
    let pooled = numer.div_ceil(stride) + 1;
    // The last window must start inside the (unpadded) input. Caffe clips
    // only when `pad > 0`; without padding the case needs `stride > kernel`
    // and would leave a window with nothing in it.
    if (pooled - 1) * stride >= dim + pad {
        pooled - 1
    } else {
        pooled
    }
}

/// Caffe `Pooling` layer.
pub struct PoolingLayer<S: Scalar = f32> {
    name: String,
    cfg: PoolConfig,
    batch: usize,
    channels: usize,
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
    /// MAX mode: the taps of the current geometry.
    table: Option<TapTable>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> PoolingLayer<S> {
    /// New pooling layer.
    pub fn new(name: impl Into<String>, cfg: PoolConfig) -> Self {
        Self {
            name: name.into(),
            cfg,
            batch: 0,
            channels: 0,
            in_h: 0,
            in_w: 0,
            out_h: 0,
            out_w: 0,
            table: None,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Input positions `start..end` that window `o` covers along an axis of
/// `dim` pixels, clipped to it. Never empty: `pad < kernel` and
/// [`pooled_dim`] starts the last window inside the input.
#[inline]
fn extent(cfg: &PoolConfig, dim: usize, o: usize) -> std::ops::Range<usize> {
    let start = o * cfg.stride;
    start.saturating_sub(cfg.pad)..(start + cfg.kernel - cfg.pad).min(dim)
}

/// Outputs a MAX kernel carries in registers at once: each tap then costs
/// two loads (its offset and its pixel), not four.
const BLOCK: usize = 8;

/// The taps of every MAX window of an `(sample, channel)` segment, as
/// offsets into it: `kernel²` rows, tap-major, row `kh * kernel + kw`
/// holding tap `(kh, kw)` of each output — the order a window scan meets
/// them in — padded to a whole `BLOCK` (offset 0). A tap that falls
/// outside its (clipped) window points at the window's first in-image
/// tap, which row 0 holds: re-reading that tap can neither raise a maximum
/// (strict `>`) nor precede it in scan order.
struct TapTable {
    /// Every one `< in_seg`: what lets the kernels skip bounds checks.
    offsets: Vec<u32>,
    in_seg: usize,
    /// Outputs per segment.
    outs: usize,
}

impl TapTable {
    fn new(cfg: &PoolConfig, in_h: usize, in_w: usize, out_h: usize, out_w: usize) -> Self {
        let (k, pad, stride) = (cfg.kernel, cfg.pad, cfg.stride);
        let in_seg = in_h * in_w;
        assert!(
            u32::try_from(in_seg).is_ok(),
            "Pooling: a plane of more than u32::MAX pixels"
        );
        let at = |o: usize, tap: usize, axis: &std::ops::Range<usize>| {
            (o * stride + tap)
                .checked_sub(pad)
                .filter(|p| axis.contains(p))
        };
        let outs = out_h * out_w;
        let mut offsets = Vec::with_capacity(k * k * outs.next_multiple_of(BLOCK));
        for kh in 0..k {
            for kw in 0..k {
                for oy in 0..out_h {
                    let hs = extent(cfg, in_h, oy);
                    for ox in 0..out_w {
                        let ws = extent(cfg, in_w, ox);
                        let (h, w) = at(oy, kh, &hs)
                            .zip(at(ox, kw, &ws))
                            .unwrap_or((hs.start, ws.start));
                        offsets.push((h * in_w + w) as u32);
                    }
                }
                offsets.resize(offsets.len().next_multiple_of(BLOCK), 0);
            }
        }
        assert!(offsets.iter().all(|&i| (i as usize) < in_seg));
        Self {
            offsets,
            in_seg,
            outs,
        }
    }

    /// Block `b` of every row, in tap order.
    fn block(&self, b: usize) -> impl DoubleEndedIterator<Item = &[u32; BLOCK]> {
        let rows = self.offsets.chunks_exact(self.outs.next_multiple_of(BLOCK));
        rows.map(move |row| row[b * BLOCK..][..BLOCK].try_into().expect("a padded row"))
    }

    /// MAX-pools segment `xin` into `out`, `BLOCK` outputs at a time: row 0,
    /// then each later row folded in by strict `>`. Every output meets its
    /// taps in window-scan order, so ties keep the earlier tap, a NaN
    /// neither wins nor loses its place, and the values are the scan's bit
    /// for bit.
    fn max<S: Scalar>(&self, xin: &[S], out: &mut [S]) {
        assert!(xin.len() == self.in_seg && out.len() == self.outs);
        // SAFETY: every offset is below `in_seg` (asserted in `new`), which
        // is `xin.len()` (asserted above).
        let at = |i: u32| unsafe { *xin.get_unchecked(i as usize) };
        for (b, out) in out.chunks_mut(BLOCK).enumerate() {
            let mut rows = self.block(b);
            let first = rows.next().expect("a tap");
            let mut best: [S; BLOCK] = std::array::from_fn(|j| at(first[j]));
            for row in rows {
                for (o, &i) in best.iter_mut().zip(row) {
                    let v = at(i);
                    *o = select_unpredictable(v > *o, v, *o);
                }
            }
            out.copy_from_slice(&best[..out.len()]);
        }
    }

    /// MAX backward of one segment: `dx` is zeroed, then each `dy` is added
    /// at its output's arg-max, in output order. The arg-max is re-derived
    /// from the segment's input `xin` and pooled `top`, `BLOCK` outputs at a
    /// time, as the first tap in scan order whose bits equal the output's
    /// (a select per tap from the last row back to row 0). That is the tap
    /// the scan kept: every tap before it is strictly below the maximum (or
    /// NaN, whose bits differ), a NaN output comes only from a NaN first
    /// tap, and `±0` are told apart by their bits.
    fn backward<S: Scalar>(&self, xin: &[S], top: &[S], dy: &[S], dx: &mut [S]) {
        assert!(xin.len() == self.in_seg && top.len() == self.outs && dy.len() == self.outs);
        // SAFETY: as in `max`.
        let at = |i: u32| unsafe { *xin.get_unchecked(i as usize) };
        mmblas::zero(dx);
        for (b, (top, dy)) in top.chunks(BLOCK).zip(dy.chunks(BLOCK)).enumerate() {
            let mut y = [0u64; BLOCK];
            for (y, v) in y.iter_mut().zip(top) {
                *y = v.bits();
            }
            let mut rows = self.block(b).rev();
            let mut found = *rows.next().expect("a tap");
            for row in rows {
                for ((a, &i), &y) in found.iter_mut().zip(row).zip(&y) {
                    *a = select_unpredictable(at(i).bits() == y, i, *a);
                }
            }
            for (&a, &g) in found.iter().zip(dy) {
                dx[a as usize] += g;
            }
        }
    }
}

impl<S: Scalar> Layer<S> for PoolingLayer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Pooling"
    }

    fn setup(&mut self, bottom: &[&Blob<S>]) -> Vec<Shape> {
        assert_eq!(bottom.len(), 1, "Pooling: exactly one bottom");
        let b = bottom[0];
        assert_eq!(b.shape().ndim(), 4, "Pooling: 4-D bottom required");
        let regeometry = (b.height(), b.width()) != (self.in_h, self.in_w);
        self.batch = b.num();
        self.channels = b.channels();
        self.in_h = b.height();
        self.in_w = b.width();
        let PoolConfig {
            kernel,
            pad,
            stride,
            ..
        } = self.cfg;
        assert!(
            kernel > 0 && stride > 0 && pad < kernel,
            "Pooling '{}': needs kernel > 0, stride > 0 and pad < kernel",
            self.name
        );
        self.out_h = pooled_dim(self.in_h, kernel, pad, stride);
        self.out_w = pooled_dim(self.in_w, kernel, pad, stride);
        if self.cfg.method == PoolMethod::Max && (regeometry || self.table.is_none()) {
            let (in_h, in_w, out_h, out_w) = (self.in_h, self.in_w, self.out_h, self.out_w);
            self.table = Some(TapTable::new(&self.cfg, in_h, in_w, out_h, out_w));
        }
        vec![Shape::from(vec![
            self.batch,
            self.channels,
            self.out_h,
            self.out_w,
        ])]
    }

    fn forward(&mut self, ctx: &ExecCtx<'_, S>, bottom: &[&Blob<S>], top: &mut [Blob<S>]) {
        let x = bottom[0].data();
        let in_seg = self.in_h * self.in_w;
        let out_seg = self.out_h * self.out_w;
        let (out_w, in_h, in_w) = (self.out_w, self.in_h, self.in_w);
        let cfg = self.cfg;
        let table = self.table.as_ref();
        parallel_segments(ctx, top[0].data_mut(), out_seg, |sc, out| {
            let xin = &x[sc * in_seg..(sc + 1) * in_seg];
            match cfg.method {
                PoolMethod::Max => table.expect("MAX set-up").max(xin, out),
                PoolMethod::Ave => {
                    for (oy, row) in out.chunks_exact_mut(out_w).enumerate() {
                        let hr = extent(&cfg, in_h, oy);
                        for (ox, o) in row.iter_mut().enumerate() {
                            let wr = extent(&cfg, in_w, ox);
                            let mut acc = S::ZERO;
                            for h in hr.clone() {
                                for &v in &xin[h * in_w..][wr.clone()] {
                                    acc += v;
                                }
                            }
                            *o = acc / S::from_usize(hr.len() * wr.len());
                        }
                    }
                }
            }
        });
    }

    /// MAX re-derives each arg-max from the top the forward wrote and the
    /// bottom it read; `Net` refuses in-place layers, so both reach here
    /// unchanged.
    fn backward(&mut self, ctx: &ExecCtx<'_, S>, top: &[&Blob<S>], bottom: &mut [Blob<S>]) {
        let (ydata, tdiff) = (top[0].data(), top[0].diff());
        let in_seg = self.in_h * self.in_w;
        let out_seg = self.out_h * self.out_w;
        let (out_h, out_w, in_h, in_w) = (self.out_h, self.out_w, self.in_h, self.in_w);
        let cfg = self.cfg;
        let table = self.table.as_ref();
        let (x, dxs) = bottom[0].data_diff_mut();
        let x: &[S] = x;
        parallel_segments(ctx, dxs, in_seg, |sc, dx| {
            let seg = sc * out_seg..(sc + 1) * out_seg;
            let dy = &tdiff[seg.clone()];
            match cfg.method {
                PoolMethod::Max => {
                    let xin = &x[sc * in_seg..(sc + 1) * in_seg];
                    let table = table.expect("MAX set-up");
                    table.backward(xin, &ydata[seg], dy, dx);
                }
                PoolMethod::Ave => {
                    mmblas::zero(dx);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let (hr, wr) = (extent(&cfg, in_h, oy), extent(&cfg, in_w, ox));
                            let area = hr.len() * wr.len();
                            let share = dy[oy * out_w + ox] / S::from_usize(area);
                            for h in hr.clone() {
                                for d in &mut dx[h * in_w..][wr.clone()] {
                                    *d += share;
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    fn profile(&self) -> (PassProfile, PassProfile) {
        let elem = std::mem::size_of::<S>() as f64;
        let out_seg = (self.out_h * self.out_w) as f64;
        let in_seg = (self.in_h * self.in_w) as f64;
        let window = (self.cfg.kernel * self.cfg.kernel) as f64;
        (
            PassProfile {
                coalesced_iters: self.batch * self.channels,
                // Per tap: two loads (offset, pixel), a compare and a
                // select (MAX), or a load and an add in a short window loop
                // (AVE): ~4 ops.
                flops_per_iter: out_seg * window * 4.0,
                bytes_in_per_iter: in_seg * elem,
                bytes_out_per_iter: out_seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
            PassProfile {
                coalesced_iters: self.batch * self.channels,
                flops_per_iter: (in_seg + out_seg * window) * 3.0,
                bytes_in_per_iter: out_seg * elem,
                bytes_out_per_iter: in_seg * elem,
                seq_flops: 0.0,
                reduction_elems: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use omprt::ThreadTeam;

    #[test]
    fn pooled_dims_match_caffe() {
        // MNIST pool1/pool2: 24 -> 12, 8 -> 4 (k2 s2).
        assert_eq!(pooled_dim(24, 2, 0, 2), 12);
        assert_eq!(pooled_dim(8, 2, 0, 2), 4);
        // CIFAR pools: 32 -> 16, 16 -> 8, 8 -> 4 (k3 s2, ceil mode).
        assert_eq!(pooled_dim(32, 3, 0, 2), 16);
        assert_eq!(pooled_dim(16, 3, 0, 2), 8);
        assert_eq!(pooled_dim(8, 3, 0, 2), 4);
    }

    fn ctx_run<F: FnOnce(&ExecCtx<'_, f64>)>(threads: usize, f: F) {
        let team = ThreadTeam::new(threads);
        let ws = Workspace::<f64>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        f(&ctx);
    }

    #[test]
    fn max_forward_and_backward() {
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::max(2, 2));
        #[rustfmt::skip]
        let b: Blob<f64> = Blob::from_data([1usize, 1, 4, 4], vec![
            1.0, 2.0, 5.0, 4.0,
            3.0, 0.0, 1.0, 1.0,
            0.0, 0.0, 2.0, 0.0,
            0.0, 9.0, 0.0, 3.0,
        ]);
        let shapes = l.setup(&[&b]);
        assert_eq!(shapes[0].dims(), &[1, 1, 2, 2]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            assert_eq!(tops[0].data(), &[3.0, 5.0, 9.0, 3.0]);
            tops[0].diff_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b.clone()];
            l.backward(ctx, &trefs, &mut bots);
            #[rustfmt::skip]
            let want = [
                0.0, 0.0, 2.0, 0.0,
                1.0, 0.0, 0.0, 0.0,
                0.0, 0.0, 0.0, 0.0,
                0.0, 3.0, 0.0, 4.0,
            ];
            assert_eq!(bots[0].diff(), want);
        });
    }

    #[test]
    fn ave_forward_is_window_mean_and_backward_distributes() {
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::ave(2, 2));
        let b: Blob<f64> = Blob::from_data([1usize, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let shapes = l.setup(&[&b]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            assert_eq!(tops[0].data(), &[4.0]);
            tops[0].diff_mut().copy_from_slice(&[8.0]);
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b.clone()];
            l.backward(ctx, &trefs, &mut bots);
            assert_eq!(bots[0].diff(), &[2.0, 2.0, 2.0, 2.0]);
        });
    }

    #[test]
    fn ceil_mode_clips_last_window() {
        // 5x5 input, k3 s2 -> ceil((5-3)/2)+1 = 2... then windows at 0 and 2
        // fit; ceil((5-3)/2)=1 so pooled = 2.
        assert_eq!(pooled_dim(5, 3, 0, 2), 2);
        // 6x6 input, k3 s2: ceil(3/2)+1 = 3; last window starts at 4, clipped
        // to rows 4..6 (size 2).
        assert_eq!(pooled_dim(6, 3, 0, 2), 3);
        let mut l: PoolingLayer<f64> = PoolingLayer::new("p", PoolConfig::ave(3, 2));
        let b: Blob<f64> = Blob::from_data([1usize, 1, 6, 6], vec![1.0; 36]);
        let shapes = l.setup(&[&b]);
        ctx_run(1, |ctx| {
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(ctx, &[&b], &mut tops);
            // Mean of all-ones is 1 regardless of the clipped area.
            assert!(tops[0].data().iter().all(|&v| (v - 1.0).abs() < 1e-12));
        });
    }

    #[test]
    fn parallel_matches_sequential() {
        let data: Vec<f64> = (0..2 * 3 * 8 * 8)
            .map(|i| ((i * 37 % 101) as f64) - 50.0)
            .collect();
        let run = |threads: usize, method: PoolMethod| {
            let cfg = PoolConfig {
                method,
                kernel: 3,
                pad: 0,
                stride: 2,
            };
            let mut l: PoolingLayer<f64> = PoolingLayer::new("p", cfg);
            let b: Blob<f64> = Blob::from_data([2usize, 3, 8, 8], data.clone());
            let shapes = l.setup(&[&b]);
            let team = ThreadTeam::new(threads);
            let ws = Workspace::<f64>::empty();
            let ctx = ExecCtx::new(&team, &ws);
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[&b], &mut tops);
            for (i, v) in tops[0].diff_mut().iter_mut().enumerate() {
                *v = (i % 7) as f64;
            }
            let trefs: Vec<&Blob<f64>> = tops.iter().collect();
            let mut bots = vec![b];
            l.backward(&ctx, &trefs, &mut bots);
            (tops[0].data().to_vec(), bots[0].diff().to_vec())
        };
        for method in [PoolMethod::Max, PoolMethod::Ave] {
            let (t1, d1) = run(1, method);
            let (t4, d4) = run(4, method);
            assert_eq!(t1, t4);
            assert_eq!(d1, d4);
        }
    }

    /// The window scan — one clipped window at a time, strict `>` in `(h, w)`
    /// order, `h`-then-`w` sums — as the oracle of the differential tests:
    /// `(top, arg-max mask)` of one segment.
    fn scan_oracle<S: Scalar>(
        cfg: &PoolConfig,
        in_h: usize,
        in_w: usize,
        xin: &[S],
    ) -> (Vec<S>, Vec<u32>) {
        let clip = |dim: usize, o: usize| {
            let start = (o * cfg.stride) as isize - cfg.pad as isize;
            let end = ((start + cfg.kernel as isize).max(0) as usize).min(dim);
            (start.max(0) as usize).min(end)..end
        };
        let out_h = pooled_dim(in_h, cfg.kernel, cfg.pad, cfg.stride);
        let out_w = pooled_dim(in_w, cfg.kernel, cfg.pad, cfg.stride);
        let (mut top, mut mask) = (Vec::new(), Vec::new());
        for oy in 0..out_h {
            for ox in 0..out_w {
                let (hr, wr) = (clip(in_h, oy), clip(in_w, ox));
                let mut best_idx = hr.start * in_w + wr.start;
                let mut best = xin[best_idx];
                let mut acc = S::ZERO;
                for h in hr.clone() {
                    for w in wr.clone() {
                        let idx = h * in_w + w;
                        acc += xin[idx];
                        if xin[idx] > best {
                            best = xin[idx];
                            best_idx = idx;
                        }
                    }
                }
                match cfg.method {
                    PoolMethod::Max => {
                        top.push(best);
                        mask.push(best_idx as u32);
                    }
                    PoolMethod::Ave => top.push(acc / S::from_usize(hr.len() * wr.len())),
                }
            }
        }
        (top, mask)
    }

    /// The layer against the oracle, bit for bit, on a `(2, 2, in_h, in_w)`
    /// bottom at 1 and 2 threads: its top, and (MAX) its backward `dx`,
    /// which must be the oracle's mask scattered in output order.
    fn assert_matches_oracle<S: Scalar>(cfg: PoolConfig, in_h: usize, in_w: usize, data: &[S]) {
        let bits = |v: &[S]| -> Vec<u64> { v.iter().map(|x| x.bits()).collect() };
        let seg = in_h * in_w;
        assert_eq!(data.len(), 4 * seg);
        let (mut want_top, mut want_dx) = (Vec::new(), vec![S::ZERO; data.len()]);
        let dy = |o: usize| S::from_usize(o % 5 + 1);
        for (sc, xin) in data.chunks(seg).enumerate() {
            let (top, mask) = scan_oracle(&cfg, in_h, in_w, xin);
            for (o, &m) in mask.iter().enumerate() {
                want_dx[sc * seg + m as usize] += dy(want_top.len() + o);
            }
            want_top.extend(top);
        }
        for threads in [1, 2] {
            let what = format!("{cfg:?} {in_h}x{in_w} at {threads} threads");
            let mut l: PoolingLayer<S> = PoolingLayer::new("p", cfg);
            let b: Blob<S> = Blob::from_data([2usize, 2, in_h, in_w], data.to_vec());
            let shapes = l.setup(&[&b]);
            let team = ThreadTeam::new(threads);
            let ws = Workspace::<S>::empty();
            let ctx = ExecCtx::new(&team, &ws);
            let mut tops = vec![Blob::new(shapes[0].clone())];
            l.forward(&ctx, &[&b], &mut tops);
            assert_eq!(bits(tops[0].data()), bits(&want_top), "top, {what}");
            if cfg.method == PoolMethod::Ave {
                continue;
            }
            for (o, g) in tops[0].diff_mut().iter_mut().enumerate() {
                *g = dy(o);
            }
            let mut bots = vec![b];
            l.backward(&ctx, &[&tops[0]], &mut bots);
            assert_eq!(bits(bots[0].diff()), bits(&want_dx), "dx, {what}");
        }
    }

    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = mmblas::Pcg32::seeded(seed);
        (0..len).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
    }

    fn both_methods(kernel: usize, pad: usize, stride: usize) -> [PoolConfig; 2] {
        [PoolMethod::Max, PoolMethod::Ave].map(|method| PoolConfig {
            method,
            kernel,
            pad,
            stride,
        })
    }

    #[test]
    fn forward_is_the_window_scan_bit_for_bit() {
        // (kernel, pad, stride, in_h, in_w): the two nets' poolings (CIFAR's
        // k3/s2 ceil mode clips its last row and column of windows), padded
        // ones, odd and non-square inputs, stride 1, stride > kernel (whose
        // last window `pooled_dim` drops), a kernel wider than the input.
        let cases = [
            (2, 0, 2, 24, 24),
            (2, 0, 2, 8, 8),
            (3, 0, 2, 32, 32),
            (3, 0, 2, 16, 16),
            (3, 0, 2, 8, 8),
            (3, 1, 2, 32, 32),
            (3, 1, 1, 7, 11),
            (3, 2, 2, 9, 5),
            (5, 2, 3, 13, 17),
            (2, 1, 2, 5, 5),
            (3, 0, 1, 6, 7),
            (1, 0, 3, 5, 7),
            (2, 0, 5, 11, 6),
            (5, 0, 2, 3, 4),
            (4, 3, 1, 2, 3),
        ];
        for (seed, (kernel, pad, stride, in_h, in_w)) in cases.into_iter().enumerate() {
            let data = noise(4 * in_h * in_w, seed as u64);
            let single: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            for cfg in both_methods(kernel, pad, stride) {
                assert_matches_oracle(cfg, in_h, in_w, &data);
                assert_matches_oracle(cfg, in_h, in_w, &single);
            }
        }
    }

    #[test]
    fn ties_nan_and_infinities_resolve_as_in_the_scan() {
        let (in_h, in_w) = (9, 10);
        let len = 4 * in_h * in_w;
        // All-equal windows: the first index wins.
        let flat = vec![0.25f32; len];
        // Few distinct values: ties everywhere, signed zeros included.
        let coarse: Vec<f32> = noise(len, 1)
            .iter()
            .map(|v| [-0.0f32, 0.0, 1.0, -1.0][(v.abs() * 4.0) as usize % 4])
            .collect();
        // NaN (either sign), -inf and +inf sprinkled over noise; the first
        // segment starts on a NaN, the second on -inf.
        let mut wild: Vec<f32> = noise(len, 2).iter().map(|&v| v as f32).collect();
        for (i, v) in wild.iter_mut().enumerate() {
            match i % 7 {
                0 => *v = f32::NAN,
                2 => *v = f32::NEG_INFINITY,
                3 if i % 5 == 0 => *v = f32::INFINITY,
                5 if i % 3 == 0 => *v = -f32::NAN,
                _ => {}
            }
        }
        wild[in_h * in_w] = f32::NEG_INFINITY;
        let all_neg_inf = vec![f32::NEG_INFINITY; len];
        for data in [flat, coarse, wild, all_neg_inf] {
            for (kernel, pad, stride) in [(2, 0, 2), (3, 0, 2), (3, 1, 2), (3, 1, 1)] {
                for cfg in both_methods(kernel, pad, stride) {
                    assert_matches_oracle(cfg, in_h, in_w, &data);
                }
            }
        }
        // The documented tie rule, stated directly: each window's gradient
        // lands on its first pixel.
        let mut l: PoolingLayer<f32> = PoolingLayer::new("p", PoolConfig::max(3, 2));
        let b: Blob<f32> = Blob::from_data([1usize, 1, 4, 4], vec![7.0; 16]);
        let shapes = l.setup(&[&b]);
        let team = ThreadTeam::new(1);
        let ws = Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        l.forward(&ctx, &[&b], &mut tops);
        tops[0].diff_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut bots = vec![b];
        l.backward(&ctx, &[&tops[0]], &mut bots);
        let landed: Vec<(usize, f32)> = (bots[0].diff().iter().enumerate())
            .filter(|(_, &g)| g != 0.0)
            .map(|(i, &g)| (i, g))
            .collect();
        assert_eq!(landed, [(0, 1.0), (2, 2.0), (8, 3.0), (10, 4.0)]);
    }

    #[test]
    fn every_window_has_a_pixel() {
        // `pad < kernel` plus the clip in `pooled_dim`: no window is empty,
        // for any stride — what lets forward and backward go without an
        // empty-window case.
        for kernel in 1..6 {
            for pad in 0..kernel {
                for stride in 1..8 {
                    for dim in 1..20 {
                        let cfg = PoolConfig {
                            method: PoolMethod::Max,
                            kernel,
                            pad,
                            stride,
                        };
                        for o in 0..pooled_dim(dim, kernel, pad, stride) {
                            let e = extent(&cfg, dim, o);
                            assert!(e.start < e.end && e.end <= dim, "{cfg:?} dim {dim} o {o}");
                        }
                    }
                }
            }
        }
        // Stride past the kernel, no padding: Caffe would emit a third,
        // empty window starting at 6.
        assert_eq!(pooled_dim(5, 1, 0, 3), 2);
    }

    #[test]
    #[should_panic(expected = "pad < kernel")]
    fn setup_rejects_pad_not_below_kernel() {
        let cfg = PoolConfig {
            method: PoolMethod::Ave,
            kernel: 2,
            pad: 2,
            stride: 1,
        };
        let mut l: PoolingLayer<f32> = PoolingLayer::new("p", cfg);
        l.setup(&[&Blob::new([1usize, 1, 4, 4])]);
    }
}
