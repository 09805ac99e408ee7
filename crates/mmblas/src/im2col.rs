//! `im2col`/`col2im` lowering for convolutional layers.
//!
//! Caffe implements convolution as `im2col` followed by one GEMM per image;
//! the backward pass uses GEMM followed by `col2im`. These are the exact
//! per-sample kernels invoked from inside the coarse-grain parallel region.

use crate::Scalar;

/// Geometry of a 2-D convolution (or pooling) over one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Zero padding applied on top/bottom.
    pub pad_h: usize,
    /// Zero padding applied on left/right.
    pub pad_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
}

impl Conv2dGeometry {
    /// Square-kernel convenience constructor.
    pub fn square(channels: usize, size: usize, kernel: usize, pad: usize, stride: usize) -> Self {
        Self {
            channels,
            height: size,
            width: size,
            kernel_h: kernel,
            kernel_w: kernel,
            pad_h: pad,
            pad_w: pad,
            stride_h: stride,
            stride_w: stride,
        }
    }

    /// Output height after the convolution.
    pub fn out_h(&self) -> usize {
        conv_out_dim(self.height, self.kernel_h, self.pad_h, self.stride_h)
    }

    /// Output width after the convolution.
    pub fn out_w(&self) -> usize {
        conv_out_dim(self.width, self.kernel_w, self.pad_w, self.stride_w)
    }

    /// Rows of the column matrix: `channels * kernel_h * kernel_w`.
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the column matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of elements in the column buffer.
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Number of elements of one input image (`channels * height * width`).
    pub fn image_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    fn validate(&self) {
        assert!(
            self.stride_h > 0 && self.stride_w > 0,
            "im2col: zero stride"
        );
        assert!(
            self.kernel_h > 0 && self.kernel_w > 0,
            "im2col: zero kernel"
        );
        assert!(
            self.height + 2 * self.pad_h >= self.kernel_h
                && self.width + 2 * self.pad_w >= self.kernel_w,
            "im2col: kernel larger than padded input"
        );
    }
}

/// Caffe-compatible output dimension: `(dim + 2*pad - kernel) / stride + 1`.
pub fn conv_out_dim(dim: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    (dim + 2 * pad - kernel) / stride + 1
}

/// The outputs of one axis that kernel tap `k` keeps inside the image:
/// outputs `lo..hi` read input positions `first`, `first + stride`, ...;
/// every other output of the axis reads padding. Convolution lowering and
/// pooling clip with this and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapSpan {
    /// First output whose tap is inside the image.
    pub lo: usize,
    /// One past the last such output.
    pub hi: usize,
    /// Input position read by output `lo`.
    pub first: usize,
}

impl TapSpan {
    /// Solves `0 <= o * stride + k - pad < dim` for `o` in `0..out`.
    pub fn new(out: usize, dim: usize, k: usize, pad: usize, stride: usize) -> Self {
        let lo = pad.saturating_sub(k).div_ceil(stride).min(out);
        let hi = (dim + pad)
            .checked_sub(k + 1)
            .map_or(0, |last| last / stride + 1)
            .clamp(lo, out);
        TapSpan {
            lo,
            hi,
            first: (lo * stride + k).saturating_sub(pad),
        }
    }

    /// Whether the tap misses the image for every output.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Calls `f(tap, rows, cols)` once per kernel tap `tap = kh * kernel_w +
/// kw`, with `rows` / `cols` saying which entries of its `out_h x out_w`
/// blocks mirror a pixel. A tap's block for channel `c` is row `c * taps +
/// tap` of the column matrix and reads plane `c` of the image: the spans do
/// not depend on the channel, so they are solved once per tap, not once per
/// row of the matrix, and the callers loop over the channels. All clipping is
/// decided here; the loops of [`im2col`] and [`col2im`] over a span test
/// nothing.
fn for_each_tap(geom: &Conv2dGeometry, mut f: impl FnMut(usize, TapSpan, TapSpan)) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for kh in 0..geom.kernel_h {
        let rows = TapSpan::new(oh, geom.height, kh, geom.pad_h, geom.stride_h);
        for kw in 0..geom.kernel_w {
            let cols = TapSpan::new(ow, geom.width, kw, geom.pad_w, geom.stride_w);
            f(kh * geom.kernel_w + kw, rows, cols);
        }
    }
}

/// `(block, plane)` offsets of tap `tap` for every channel: its block in the
/// column matrix and the channel's plane in the image.
fn channels(geom: &Conv2dGeometry, tap: usize) -> impl Iterator<Item = (usize, usize)> {
    let (taps, block, plane) = (
        geom.kernel_h * geom.kernel_w,
        geom.col_cols(),
        geom.height * geom.width,
    );
    (0..geom.channels).map(move |c| ((c * taps + tap) * block, c * plane))
}

/// Expand one `(C, H, W)` image into a `(C*kh*kw) x (out_h*out_w)` row-major
/// column matrix. Out-of-bounds (padding) taps read as zero.
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn im2col<S: Scalar>(geom: &Conv2dGeometry, image: &[S], col: &mut [S]) {
    geom.validate();
    assert_eq!(image.len(), geom.image_len(), "im2col: image length");
    assert_eq!(col.len(), geom.col_len(), "im2col: col length");

    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (width, sh, sw) = (geom.width, geom.stride_h, geom.stride_w);
    for_each_tap(geom, |tap, rows, cols| {
        if rows.is_empty() || cols.is_empty() {
            for (block, _) in channels(geom, tap) {
                col[block..block + oh * ow].fill(S::ZERO);
            }
            return;
        }
        // Padding before the first mirrored entry and after the last one.
        let (head, tail) = (rows.lo * ow + cols.lo, (rows.hi - 1) * ow + cols.hi);
        let n = cols.hi - cols.lo;
        let first = rows.first * width + cols.first;
        // Whether every entry of the block mirrors a pixel (no padding).
        let inside = head == 0 && tail == oh * ow && n == ow;
        for (block, plane) in channels(geom, tap) {
            let block = &mut col[block..block + oh * ow];
            let src = &image[plane + first..];
            if sw == 1 && sh == 1 && ow == width {
                // Output rows and image rows have one pitch ("same"
                // padding), so the tap is a single shifted copy of the
                // plane; what it drags across the row ends is zeroed below.
                block[head..tail].copy_from_slice(&src[..tail - head]);
            } else if sw == 1 {
                for oy in 0..rows.hi - rows.lo {
                    let at = head + oy * ow;
                    copy_row(&mut block[at..at + n], &src[oy * sh * width..][..n]);
                }
            } else {
                let rows = block[head..tail].chunks_mut(ow).zip(src.chunks(sh * width));
                for (dst, src) in rows {
                    for (d, s) in dst[..n].iter_mut().zip(src.iter().step_by(sw)) {
                        *d = *s;
                    }
                }
            }
            if inside {
                continue;
            }
            // The padding outside the mirrored rectangle: before its first
            // entry, after its last, and between two of its rows (the end
            // of one, the start of the next: `ow - n` adjacent entries,
            // stored column by column, as a `fill` per row is a `memset`
            // call for an entry or two).
            block[..head].fill(S::ZERO);
            block[tail..].fill(S::ZERO);
            let gaps = &mut block[head + n..tail];
            if !gaps.is_empty() {
                for g in 0..ow - n {
                    for d in gaps[g..].iter_mut().step_by(ow) {
                        *d = S::ZERO;
                    }
                }
            }
        }
    });
}

/// `dst.copy_from_slice(src)` for a row of a few entries, where a `memcpy`
/// call would cost more than the copy: 8 entries at a time, then one at a
/// time (an indexed loop, which is not turned back into a `memcpy` call).
#[inline(always)]
fn copy_row<S: Scalar>(dst: &mut [S], src: &[S]) {
    let mut j = 0;
    while j + 8 <= dst.len() {
        let d: &mut [S; 8] = (&mut dst[j..j + 8]).try_into().expect("8 entries");
        *d = src[j..j + 8].try_into().expect("8 entries");
        j += 8;
    }
    while j < dst.len() {
        dst[j] = src[j];
        j += 1;
    }
}

/// Inverse of [`im2col`]: scatter-accumulate a column matrix back into an
/// image. Overlapping taps sum (the gradient semantics of convolution).
/// The output image is zeroed first. Each pixel receives its contributions
/// in `(kh, kw, oy)` order, which is part of the contract: training is
/// reproducible bit for bit only while that order stands. (The taps are
/// visited in that order with the channels innermost; two channels never
/// share a pixel.)
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn col2im<S: Scalar>(geom: &Conv2dGeometry, col: &[S], image: &mut [S]) {
    geom.validate();
    assert_eq!(image.len(), geom.image_len(), "col2im: image length");
    assert_eq!(col.len(), geom.col_len(), "col2im: col length");

    crate::level1::zero(image);
    let ow = geom.out_w();
    let (width, sh, sw) = (geom.width, geom.stride_h, geom.stride_w);
    for_each_tap(geom, |tap, rows, cols| {
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let (head, tail) = (rows.lo * ow + cols.lo, (rows.hi - 1) * ow + cols.hi);
        let n = cols.hi - cols.lo;
        let first = rows.first * width + cols.first;
        for (block, plane) in channels(geom, tap) {
            let dst = &mut image[plane + first..];
            let rows = col[block + head..block + tail]
                .chunks(ow)
                .zip(dst.chunks_mut(sh * width));
            // A row holds at most one contribution per pixel, so the order
            // within it is free.
            for (src, dst) in rows {
                if sw == 1 {
                    for (d, s) in dst[..n].iter_mut().zip(&src[..n]) {
                        *d += *s;
                    }
                } else {
                    for (d, s) in dst.iter_mut().step_by(sw).zip(&src[..n]) {
                        *d += *s;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `im2col` one element and one bounds test at a time, as it was before
    /// the row-wise rewrite: the oracle of the differential tests.
    fn im2col_elementwise<S: Scalar>(geom: &Conv2dGeometry, image: &[S], col: &mut [S]) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let hw = geom.height * geom.width;
        let mut w = 0usize;
        for c in 0..geom.channels {
            let plane = &image[c * hw..(c + 1) * hw];
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    for oy in 0..oh {
                        let iy = (oy * geom.stride_h + kh) as isize - geom.pad_h as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride_w + kw) as isize - geom.pad_w as isize;
                            let inside = iy >= 0
                                && iy < geom.height as isize
                                && ix >= 0
                                && ix < geom.width as isize;
                            col[w] = if inside {
                                plane[iy as usize * geom.width + ix as usize]
                            } else {
                                S::ZERO
                            };
                            w += 1;
                        }
                    }
                }
            }
        }
    }

    /// `col2im` one element at a time, in the `(c, kh, kw, oy, ox)` order
    /// that fixes every pixel's order of accumulation.
    fn col2im_elementwise<S: Scalar>(geom: &Conv2dGeometry, col: &[S], image: &mut [S]) {
        crate::level1::zero(image);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let hw = geom.height * geom.width;
        let mut r = 0usize;
        for c in 0..geom.channels {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    for oy in 0..oh {
                        let iy = (oy * geom.stride_h + kh) as isize - geom.pad_h as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride_w + kw) as isize - geom.pad_w as isize;
                            if iy >= 0
                                && iy < geom.height as isize
                                && ix >= 0
                                && ix < geom.width as isize
                            {
                                image[c * hw + iy as usize * geom.width + ix as usize] += col[r];
                            }
                            r += 1;
                        }
                    }
                }
            }
        }
    }

    /// Both lowerings against their oracles, bit for bit, on noise. The
    /// column buffer starts out as NaN so that an entry left unwritten shows.
    fn assert_matches_oracle<S: Scalar>(geom: &Conv2dGeometry, seed: u64) {
        let mut rng = crate::Pcg32::seeded(seed);
        let mut noise = |len: usize| -> Vec<S> {
            (0..len)
                .map(|_| S::from_f64(rng.uniform_range(-1.0, 1.0)))
                .collect()
        };
        let (image, col) = (noise(geom.image_len()), noise(geom.col_len()));
        // Widening to `f64` is exact, so equal bits there are equal bits in `S`.
        let bits = |v: &[S]| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };

        let unwritten = S::from_f64(f64::NAN);
        let (mut got, mut want) = (vec![unwritten; col.len()], vec![unwritten; col.len()]);
        im2col(geom, &image, &mut got);
        im2col_elementwise(geom, &image, &mut want);
        assert_eq!(bits(&got), bits(&want), "im2col differs for {geom:?}");

        let (mut got, mut want) = (image.clone(), image.clone());
        col2im(geom, &col, &mut got);
        col2im_elementwise(geom, &col, &mut want);
        assert_eq!(bits(&got), bits(&want), "col2im differs for {geom:?}");
    }

    fn assert_matches_oracle_f32_f64(geom: &Conv2dGeometry, seed: u64) {
        assert_matches_oracle::<f32>(geom, seed);
        assert_matches_oracle::<f64>(geom, seed);
    }

    #[test]
    fn lowering_matches_the_oracle_on_the_nets_geometries() {
        // (channels, size, kernel, pad, stride): the five convolutions of
        // `benchmark/src/corpus.rs` — LeNet conv1/conv2, CIFAR conv1/2/3 —
        // and CIFAR's k3/s2 pooling window as the strided sixth.
        let corpus = [
            (1, 28, 5, 0, 1),
            (20, 12, 5, 0, 1),
            (3, 32, 5, 2, 1),
            (32, 16, 5, 2, 1),
            (32, 8, 5, 2, 1),
            (32, 32, 3, 0, 2),
        ];
        for (seed, (channels, size, kernel, pad, stride)) in corpus.into_iter().enumerate() {
            let geom = Conv2dGeometry::square(channels, size, kernel, pad, stride);
            assert_matches_oracle_f32_f64(&geom, seed as u64);
        }
    }

    #[test]
    fn lowering_matches_the_oracle_at_the_edges() {
        let geom =
            |height, width, kernel_h, kernel_w, pad_h, pad_w, stride_h, stride_w| Conv2dGeometry {
                channels: 2,
                height,
                width,
                kernel_h,
                kernel_w,
                pad_h,
                pad_w,
                stride_h,
                stride_w,
            };
        let edges = [
            // Kernel as large as the padded input: one output.
            geom(3, 4, 5, 6, 1, 1, 1, 1),
            geom(5, 5, 5, 5, 0, 0, 2, 3),
            // One output column, several rows, and the reverse.
            geom(6, 3, 2, 3, 0, 0, 1, 1),
            geom(3, 9, 3, 2, 0, 0, 1, 2),
            // Padding as wide as the kernel allows, and wider: some taps
            // miss the image for every output.
            geom(4, 5, 3, 3, 2, 2, 1, 1),
            geom(2, 2, 3, 3, 4, 5, 2, 1),
            // "Same" padding (output pitch == image pitch) with unequal
            // strides, and a stride past the kernel.
            geom(7, 6, 3, 3, 1, 1, 2, 1),
            geom(9, 8, 3, 5, 1, 2, 1, 1),
            geom(9, 11, 2, 2, 0, 1, 3, 3),
            // 1x1 kernel, 1x1 image.
            geom(4, 4, 1, 1, 0, 0, 1, 1),
            geom(1, 1, 3, 3, 1, 1, 1, 1),
        ];
        for (seed, geom) in edges.iter().enumerate() {
            assert_matches_oracle_f32_f64(geom, 100 + seed as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Non-square images and kernels, strides 1-3, every `pad` below
        /// the kernel: `im2col` and `col2im` (same accumulation order, so
        /// equal bits, not a tolerance) against the element-wise oracles.
        #[test]
        fn lowering_matches_the_oracle((height, width) in (1usize..12, 1usize..12),
                                       (kernel_h, kernel_w) in (1usize..6, 1usize..6),
                                       (pad_h, pad_w) in (0usize..5, 0usize..5),
                                       (stride_h, stride_w) in (1usize..4, 1usize..4),
                                       channels in 1usize..4,
                                       seed in 0u64..1000) {
            let geom = Conv2dGeometry {
                channels,
                height,
                width,
                kernel_h,
                kernel_w,
                pad_h: pad_h % kernel_h,
                pad_w: pad_w % kernel_w,
                stride_h,
                stride_w,
            };
            prop_assume!(height + 2 * geom.pad_h >= kernel_h && width + 2 * geom.pad_w >= kernel_w);
            assert_matches_oracle_f32_f64(&geom, seed);
        }
    }

    #[test]
    fn tap_span_solves_the_clipping_inequality() {
        for dim in 1..9 {
            for k in 0..6 {
                for pad in 0..7 {
                    for stride in 1..4 {
                        for out in 0..8 {
                            let span = TapSpan::new(out, dim, k, pad, stride);
                            let inside = |o: usize| (pad..dim + pad).contains(&(o * stride + k));
                            assert!(span.lo <= span.hi && span.hi <= out);
                            for o in 0..out {
                                assert_eq!(inside(o), (span.lo..span.hi).contains(&o));
                            }
                            if !span.is_empty() {
                                assert_eq!(span.first, span.lo * stride + k - pad);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_dims() {
        // LeNet conv1: 28x28, k5, p0, s1 -> 24x24.
        assert_eq!(conv_out_dim(28, 5, 0, 1), 24);
        // CIFAR conv1: 32x32, k5, p2, s1 -> 32x32.
        assert_eq!(conv_out_dim(32, 5, 2, 1), 32);
        // CIFAR pool1: 32x32, k3, p0, s2 -> 15x15.
        assert_eq!(conv_out_dim(32, 3, 0, 2), 15);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals the image.
        let geom = Conv2dGeometry::square(2, 3, 1, 0, 1);
        let image: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut col = vec![0.0f32; geom.col_len()];
        im2col(&geom, &image, &mut col);
        assert_eq!(col, image);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad -> 2x2 output.
        let geom = Conv2dGeometry::square(1, 3, 2, 0, 1);
        #[rustfmt::skip]
        let image = [
            1.0f32, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ];
        let mut col = vec![0.0f32; geom.col_len()];
        im2col(&geom, &image, &mut col);
        // Rows are kernel taps (kh,kw) in order; columns are output pixels.
        #[rustfmt::skip]
        let want = [
            1.0, 2.0, 4.0, 5.0, // tap (0,0)
            2.0, 3.0, 5.0, 6.0, // tap (0,1)
            4.0, 5.0, 7.0, 8.0, // tap (1,0)
            5.0, 6.0, 8.0, 9.0, // tap (1,1)
        ];
        assert_eq!(col.as_slice(), want);
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let geom = Conv2dGeometry::square(1, 2, 3, 1, 1);
        assert_eq!(geom.out_h(), 2);
        let image = [1.0f32, 2.0, 3.0, 4.0];
        let mut col = vec![f32::NAN; geom.col_len()];
        im2col(&geom, &image, &mut col);
        // Tap (0,0) touches row -1 / col -1 for every output: all zero except
        // output (1,1) which reads image(0,0) = 1.
        assert_eq!(&col[0..4], &[0.0, 0.0, 0.0, 1.0]);
        assert!(col.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // adjoint property, which is exactly what backward passes rely on.
        let geom = Conv2dGeometry::square(2, 5, 3, 1, 2);
        let n_img = geom.image_len();
        let n_col = geom.col_len();
        let x: Vec<f64> = (0..n_img).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n_col).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut cx = vec![0.0; n_col];
        im2col(&geom, &x, &mut cx);
        let mut iy = vec![0.0; n_img];
        col2im(&geom, &y, &mut iy);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&iy).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_counts_overlaps() {
        // All-ones col matrix: each image pixel receives one contribution per
        // kernel window covering it.
        let geom = Conv2dGeometry::square(1, 3, 2, 0, 1);
        let col = vec![1.0f32; geom.col_len()];
        let mut image = vec![0.0f32; geom.image_len()];
        col2im(&geom, &col, &mut image);
        #[rustfmt::skip]
        let want = [
            1.0, 2.0, 1.0,
            2.0, 4.0, 2.0,
            1.0, 2.0, 1.0,
        ];
        assert_eq!(image.as_slice(), want);
    }

    #[test]
    #[should_panic(expected = "im2col: kernel larger than padded input")]
    fn oversized_kernel_panics() {
        let geom = Conv2dGeometry::square(1, 2, 5, 0, 1);
        let image = [0.0f32; 4];
        let mut col = vec![0.0f32; 1];
        im2col(&geom, &image, &mut col);
    }
}
