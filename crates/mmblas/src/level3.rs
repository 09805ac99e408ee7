//! Level-3 BLAS: general matrix-matrix multiply.
//!
//! One kernel, [`gemm`], plus the triple-loop test oracle [`gemm_naive`].
//! Convolution layers call [`gemm`] per data segment from inside the
//! coarse-grain parallel region, exactly as Caffe's layers call a sequential
//! OpenBLAS kernel.
//!
//! # Structure
//!
//! The kernel is a register-tiled `MR x W` outer-product microkernel (6 rows
//! by 16 or 32 lanes) over fixed `KC`-deep panels of the `k` dimension:
//!
//! * the **lane operand** (the one whose columns become vector lanes) is
//!   packed, one `kb x W` strip at a time, into a zero-padded stack buffer
//!   that stays in L1 while the strip is swept down the other operand;
//! * the **broadcast operand** is never copied: the microkernel reads its
//!   `MR` rows through `(row, column)` strides, which covers stored and
//!   transposed layouts alike;
//! * when `op(B)` is a transposed matrix its rows are not contiguous, so the
//!   product is evaluated as `C^T = op(B)^T * op(A)^T` — the operands swap
//!   roles and the tile is written back through `C`'s transposed strides.
//!   That keeps the one transposing copy on the *smaller-reuse* side (for a
//!   convolution's weight gradient: the `m x k` output diff, not the big
//!   column matrix).
//!
//! The microkernel exists twice: `tile_scalar`, portable Rust, and
//! `simd::tile`, written once over a register type. Each `f32` call takes
//! the widest path the CPU has ([`Isa`]): with AVX-512F the 6 x 32 tile of
//! two `__m512` a row, unless the lane operand has at most 16 columns (half
//! a strip of padding); then, or with AVX2 only, the 6 x 16 tile of two
//! `__m256`. `f64`, and `f32` without AVX2+FMA, run the scalar twin —
//! compiled a second time with the `fma` target feature where the CPU has
//! it, so `mul_add` is an instruction, not a libm call.
//!
//! Both vector paths have one more path, the (AVX2) **narrow path**, for a
//! lane operand of at most `NARROW` (8) columns whose broadcast operand has
//! contiguous rows (`A`'s column stride 1) and whose `C` is contiguous along
//! those rows (`C`'s row stride 1). That is exactly the swapped product of a
//! few-row inner-product forward, `gemm(No, Yes, rows <= 8, outputs, k)`,
//! where a tile would leave 8–15 of its 16 lanes on padding. The narrow path
//! puts its lanes on 16 consecutive rows of `A` (the weight rows) instead:
//! it loads 4 columns of them, transposes the block in registers, and keeps
//! one accumulator per column of `B` (per request row), taking one `vfmadd`
//! per `p` against the broadcast `B[p][j]`. No copy of `A` is made, and
//! nothing is allocated.
//!
//! # Bit-identity
//!
//! Every element `C[i][j]` has **its own accumulator**. Vector lanes run over
//! `j` (or, in the swapped orientation, over `i`) and never over `k`, so no
//! lane-reduction tree exists. Per panel the accumulator starts at `+0.0` and
//! takes `acc = fma(a[i][p], b[p][j], acc)` for ascending `p`; panels are
//! `KC` deep (on every path: `KC`, not a strip width, fixes the association),
//! start at `p = 0` and are visited in ascending order; each panel is folded
//! into `C` by `fold`: `alpha * acc` when `beta == 0` on the first panel,
//! `fma(alpha, acc, beta * C[i][j])` otherwise (`beta` is 1 after the first
//! panel). Nothing in that recipe depends on where `(i, j)` sits in a tile,
//! on the tile's width, its register type or position, on the
//! orientation (`fma` commutes in its factors) or on which rows and columns
//! the call covers, and the scalar twin's `mul_add` is the same correctly
//! rounded `fma` the vector instruction computes per lane.
//!
//! The narrow path keeps that recipe with its lanes on `i` instead of `j`:
//! a lane still holds one `C[i][j]` and nothing else, the register
//! transpose only moves `A[i][p]` into lane `i` without arithmetic, each
//! panel's lanes start at `+0.0` and take `fma(a[i][p], b[p][j], acc)` for
//! ascending `p` over the same `KC` panels, and each panel is folded by
//! `fold`. Which lanes a product runs on is never part of the recipe, so
//! it returns the tile kernel's bits. Hence:
//!
//! * every path — scalar, AVX2, AVX-512 — returns the same bits;
//! * any row range of a product, computed by calling [`gemm`] on
//!   `&a[row0 * lda..]`, equals the same rows of the full call bit for bit —
//!   which is all a channel-split layer or a row-parallel driver needs.
//!
//! Padding never leaks: padded lanes and the clamped duplicate rows of an
//! edge tile are accumulated but not written back.

use crate::{Scalar, Transpose};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Register tile: `MR` broadcast rows by `NR` lanes (`2 * NR` on AVX-512). On
/// AVX2: 12 accumulators, 2 registers for the `B` row, 1 for the broadcast.
pub(crate) const MR: usize = 6;
pub(crate) const NR: usize = 16;

/// Depth of one `k` panel, sized so that a packed strip (16 or 32 KiB of
/// `f32`) sits in L1. Part of the numerical contract: it fixes the association.
pub(crate) const KC: usize = 256;

/// Widest lane operand the vector paths hand to their narrow path instead of
/// the `MR x NR` tile, which would leave `NR - n` of its lanes on padding.
/// Set at the measured crossover of `gemm(No, Yes, rows, 500, 800)`: on a
/// 2-core Xeon the narrow path is 2.1–3.1x faster than the tile at 1–4
/// rows, 1.6–2.4x at 5–7 and 1.0–1.25x at 8, where its spilled
/// accumulators close the gap.
pub(crate) const NARROW: usize = 8;

/// A read-only strided matrix: element `(i, j)` is `data[i * rs + j * cs]`.
/// A stored row-major matrix has `cs == 1`; its transpose swaps the strides.
#[derive(Clone, Copy)]
struct MatRef<'a, S> {
    data: &'a [S],
    rs: usize,
    cs: usize,
}

impl<'a, S> MatRef<'a, S> {
    fn stored(data: &'a [S], ld: usize) -> Self {
        MatRef {
            data,
            rs: ld,
            cs: 1,
        }
    }

    fn t(self) -> Self {
        MatRef {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

/// One product in the kernel's own terms, after [`gemm`] has checked the
/// arguments and chosen the orientation: `C (m x n) = alpha * A * B + beta *
/// C` with `A` the broadcast operand (`m x k`), `B` the lane operand
/// (`k x n`), and element `(i, j)` of `C` at `c[i * c_rs + j * c_cs]`.
/// `m`, `n`, `k` and `alpha` are non-zero.
#[doc(hidden)]
pub struct Strided<'a, S> {
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: MatRef<'a, S>,
    b: MatRef<'a, S>,
    beta: S,
    c_rs: usize,
    c_cs: usize,
}

/// One microkernel call: the panel at `a_off` (row `i` of `A` starts at
/// `a_off[i]`) of the tile of `C` at `c[0]`, whose `mr x nr` corner is real.
struct Tile<'a, S> {
    p: &'a Strided<'a, S>,
    a_off: [usize; MR],
    beta: S,
    mr: usize,
    nr: usize,
}

fn check_gemm_args<S: Scalar>(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    c: &[S],
    ldc: usize,
) {
    let (ar, ac) = if ta.is_trans() { (k, m) } else { (m, k) };
    let (br, bc) = if tb.is_trans() { (n, k) } else { (k, n) };
    assert!(
        lda >= ac.max(1),
        "gemm: lda ({lda}) < cols of stored A ({ac})"
    );
    assert!(
        ldb >= bc.max(1),
        "gemm: ldb ({ldb}) < cols of stored B ({bc})"
    );
    assert!(ldc >= n.max(1), "gemm: ldc ({ldc}) < n ({n})");
    if ar > 0 && ac > 0 {
        assert!(a.len() >= (ar - 1) * lda + ac, "gemm: A slice too short");
    }
    if br > 0 && bc > 0 {
        assert!(b.len() >= (br - 1) * ldb + bc, "gemm: B slice too short");
    }
    if m > 0 && n > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "gemm: C slice too short");
    }
}

#[inline]
fn a_at<S: Scalar>(a: &[S], lda: usize, ta: Transpose, i: usize, p: usize) -> S {
    match ta {
        Transpose::No => a[i * lda + p],
        Transpose::Yes => a[p * lda + i],
    }
}

fn scale_c<S: Scalar>(m: usize, n: usize, beta: S, c: &mut [S], ldc: usize) {
    if beta == S::ONE {
        return;
    }
    for i in 0..m {
        let row = &mut c[i * ldc..i * ldc + n];
        if beta == S::ZERO {
            crate::level1::zero(row);
        } else {
            crate::level1::scal(beta, row);
        }
    }
}

/// Reference GEMM and test oracle: `C = alpha * op(A) * op(B) + beta * C` as
/// a plain triple loop (unfused multiply-add, no blocking, no skipping — a
/// zero in `A` still meets a NaN or infinity in `B`).
///
/// All matrices row-major; `lda`/`ldb`/`ldc` are row strides of the *stored*
/// operands.
///
/// # Panics
/// Panics if any slice is too short for its dimensions.
pub fn gemm_naive<S: Scalar>(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    check_gemm_args(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
    scale_c(m, n, beta, c, ldc);
    if alpha == S::ZERO || k == 0 {
        return;
    }
    // ikj order: the innermost loop streams a row of B and a row of C.
    for i in 0..m {
        for p in 0..k {
            let aip = alpha * a_at(a, lda, ta, i, p);
            let crow = &mut c[i * ldc..i * ldc + n];
            match tb {
                Transpose::No => {
                    let brow = &b[p * ldb..p * ldb + n];
                    for (cij, &bpj) in crow.iter_mut().zip(brow) {
                        *cij += aip * bpj;
                    }
                }
                Transpose::Yes => {
                    for (j, cij) in crow.iter_mut().enumerate() {
                        *cij += aip * b[j * ldb + p];
                    }
                }
            }
        }
    }
}

/// General matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// All matrices row-major; `lda`/`ldb`/`ldc` are row strides of the *stored*
/// operands. `beta == 0` overwrites `C` without reading it, and
/// `alpha == 0` leaves `A` and `B` unread (the BLAS conventions).
///
/// The result is bit-identical on every instruction set, and every row range
/// computed on its own (`&a[row0 * lda..]`, the matching rows of `c`) is
/// bit-identical to those rows of the full product; see the
/// [module docs](self) for the argument. The call allocates nothing.
///
/// # Panics
/// Panics if any slice is too short for its dimensions.
pub fn gemm<S: Scalar>(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    gemm_with(
        S::gemm_strided,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// [`gemm`] over an explicit strided core: argument checks, the degenerate
/// cases, and the choice of orientation.
fn gemm_with<S: Scalar>(
    core: fn(&Strided<'_, S>, &mut [S]),
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    check_gemm_args(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    if alpha == S::ZERO || k == 0 {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    let (a, b) = (MatRef::stored(a, lda), MatRef::stored(b, ldb));
    let a = if ta.is_trans() { a.t() } else { a }; // op(A), m x k
    let b = if tb.is_trans() { b.t() } else { b }; // op(B), k x n
    let problem = if tb.is_trans() {
        // Rows of op(B) are strided: evaluate C^T = op(B)^T * op(A)^T, so
        // stored B is streamed as the broadcast operand and op(A)^T packed.
        Strided {
            m: n,
            n: m,
            k,
            alpha,
            a: b.t(),
            b: a.t(),
            beta,
            c_rs: 1,
            c_cs: ldc,
        }
    } else {
        Strided {
            m,
            n,
            k,
            alpha,
            a,
            b,
            beta,
            c_rs: ldc,
            c_cs: 1,
        }
    };
    core(&problem, c);
}

/// The strided core with the portable microkernel compiled for the baseline
/// target: the scalar twin every other path is held to. On an x86_64
/// baseline `mul_add` is a libm call here.
pub(crate) fn gemm_portable<S: Scalar>(p: &Strided<'_, S>, c: &mut [S]) {
    gemm_loops::<S, NR>(tile_scalar, p, c);
}

/// The strided core for `f64`, and for `f32` without AVX2: the portable
/// microkernel, compiled with FMA where the CPU has it so that `mul_add` is
/// one instruction — the same correctly rounded operation as the libm call,
/// hence the scalar twin's bits.
pub(crate) fn gemm_scalar<S: Scalar>(p: &Strided<'_, S>, c: &mut [S]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") {
        // SAFETY: `gemm_fma` requires the `fma` CPU feature, which was
        // detected on the running CPU on the line above.
        unsafe { gemm_fma(p, c) };
        return;
    }
    gemm_portable(p, c);
}

/// [`gemm_portable`]'s loops compiled with the `fma` target feature.
///
/// # Safety
/// The running CPU must support the `fma` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn gemm_fma<S: Scalar>(p: &Strided<'_, S>, c: &mut [S]) {
    // A closure, not the bare `tile_scalar`: the closure inherits this
    // function's target features, so the microkernel inlined into it is
    // compiled with FMA (a fn item would be called through a shim without).
    gemm_loops::<S, NR>(|t, strip, c| tile_scalar(t, strip, c), p, c);
}

/// The paths of the `f32` [`gemm`], narrowest first. A call takes the one
/// [`force_isa`] pinned, or else the widest the CPU has.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    Scalar,
    Avx2,
    Avx512,
}

impl Isa {
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// Whether the running CPU has this path's features.
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return match self {
            Isa::Scalar => true,
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Isa::Avx512 => is_x86_feature_detected!("avx512f") && Isa::Avx2.available(),
        };
        #[cfg(not(target_arch = "x86_64"))]
        return self == Isa::Scalar;
    }
}

/// `Isa as u8` of the pinned path, if any (`Relaxed`: it publishes nothing).
static PINNED: AtomicU8 = AtomicU8::new(u8::MAX);

/// Test hook: every later `f32` [`gemm`] in the process takes `isa`'s path
/// (`None`: the widest). Returns `false`, pinning nothing, if the CPU lacks it.
#[doc(hidden)]
pub fn force_isa(isa: Option<Isa>) -> bool {
    let ok = isa.is_none_or(Isa::available);
    if ok {
        PINNED.store(isa.map_or(u8::MAX, |isa| isa as u8), Relaxed);
    }
    ok
}

/// The strided core for `f32`.
pub(crate) fn gemm_f32(p: &Strided<'_, f32>, c: &mut [f32]) {
    let pinned = Isa::ALL.get(PINNED.load(Relaxed) as usize).copied();
    let widest = Isa::ALL.into_iter().rev().find(|isa| isa.available());
    gemm_on(pinned.or(widest).unwrap_or(Isa::Scalar), p, c);
}

/// The `f32` strided core on `isa`'s path, which the CPU must have.
fn gemm_on(isa: Isa, p: &Strided<'_, f32>, c: &mut [f32]) {
    assert!(isa.available(), "gemm: this CPU has no {isa:?} path");
    match isa {
        // SAFETY: `available` (asserted) detected `avx512f`, `avx2` and `fma`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { simd::gemm_avx512(p, c) },
        // SAFETY: `available` (asserted) detected `avx2` and `fma`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { simd::gemm_avx2(p, c) },
        _ => gemm_scalar(p, c),
    }
}

/// Loop nest shared by every path, over strips `W` lanes wide.
///
/// `inline(always)` so that each vector path's copy — packing and all — is
/// compiled with that function's target features.
#[inline(always)]
fn gemm_loops<S: Scalar, const W: usize>(
    tile: impl Fn(&Tile<'_, S>, &[[S; W]], &mut [S]),
    p: &Strided<'_, S>,
    c: &mut [S],
) {
    let (a, b) = (p.a, p.b);
    let mut strip = Aligned([[S::ZERO; W]; KC]); // No row load splits a line.
    for pc in (0..p.k).step_by(KC) {
        let kb = KC.min(p.k - pc);
        // Later panels add to what the first one wrote.
        let beta = if pc == 0 { p.beta } else { S::ONE };
        for jr in (0..p.n).step_by(W) {
            let nr = W.min(p.n - jr);
            pack_strip(&mut strip.0[..kb], b, pc, jr, nr);
            for ir in (0..p.m).step_by(MR) {
                let mr = MR.min(p.m - ir);
                let t = Tile {
                    p,
                    // Offsets of the tile's rows at column `pc`; an edge
                    // tile re-reads its last row instead of reading past
                    // the matrix.
                    a_off: std::array::from_fn(|i| (ir + i.min(mr - 1)) * a.rs + pc * a.cs),
                    beta,
                    mr,
                    nr,
                };
                tile(&t, &strip.0[..kb], &mut c[ir * p.c_rs + jr * p.c_cs..]);
            }
        }
    }
}

#[repr(align(64))]
struct Aligned<T>(T);

/// Copies the `strip.len() x nr` block of `b` at `(pc, jr)` to `strip[p][j]`
/// and zeroes lanes `nr..W`, so the microkernel always reads full rows.
#[inline(always)]
fn pack_strip<S: Scalar, const W: usize>(
    strip: &mut [[S; W]],
    b: MatRef<'_, S>,
    pc: usize,
    jr: usize,
    nr: usize,
) {
    let block = &b.data[pc * b.rs + jr * b.cs..];
    if b.cs == 1 {
        for (p, dst) in strip.iter_mut().enumerate() {
            dst[..nr].copy_from_slice(&block[p * b.rs..][..nr]);
            dst[nr..].fill(S::ZERO);
        }
    } else {
        // Column j of the block is the strided run starting at its top
        // element; walk each run once (contiguous when `b.rs == 1`).
        for j in 0..nr {
            let run = &block[j * b.cs..];
            for (p, dst) in strip.iter_mut().enumerate() {
                dst[j] = run[p * b.rs];
            }
        }
        if nr < W {
            for dst in strip.iter_mut() {
                dst[nr..].fill(S::ZERO);
            }
        }
    }
}

/// Folds one panel's accumulator `v` into `C[i][j]`: the one expression by
/// which `alpha` and `beta` are applied, on every path.
#[inline(always)]
fn fold<S: Scalar>(alpha: S, beta: S, cij: &mut S, v: S) {
    *cij = if beta == S::ZERO {
        alpha * v
    } else {
        alpha.mul_add_s(v, beta * *cij)
    };
}

/// Folds one panel's accumulators, row `i` in `acc[i]`, into the `mr x nr`
/// corner of the tile of `C` at `c[0]`.
#[inline(always)]
fn write_back<S: Scalar, const W: usize>(t: &Tile<'_, S>, acc: &[[S; W]; MR], c: &mut [S]) {
    let fold = |cij: &mut S, v: S| fold(t.p.alpha, t.beta, cij, v);
    for (i, arow) in acc.iter().take(t.mr).enumerate() {
        if t.p.c_cs == 1 {
            // Contiguous row of C: a slice, so the loop vectorizes.
            for (cij, &v) in c[i * t.p.c_rs..][..t.nr].iter_mut().zip(arow) {
                fold(cij, v);
            }
        } else {
            for (j, &v) in arow[..t.nr].iter().enumerate() {
                fold(&mut c[i * t.p.c_rs + j * t.p.c_cs], v);
            }
        }
    }
}

/// Portable microkernel, the scalar twin of `simd::tile`:
/// `acc[i][j] = sum over p of a[a_off[i] + p * a_cs] * strip[p][j]`, fused,
/// ascending `p`, from `+0.0`, then folded into `C`.
#[inline(always)]
fn tile_scalar<S: Scalar, const W: usize>(t: &Tile<'_, S>, strip: &[[S; W]], c: &mut [S]) {
    let mut acc = [[S::ZERO; W]; MR];
    for (p, brow) in strip.iter().enumerate() {
        for (row, &off) in acc.iter_mut().zip(&t.a_off) {
            let aip = t.p.a.data[off + p * t.p.a.cs];
            for (cij, &bpj) in row.iter_mut().zip(brow) {
                *cij = aip.mul_add_s(bpj, *cij);
            }
        }
    }
    write_back(t, &acc, c);
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{fold, gemm_loops, write_back, Strided, Tile, KC, MR, NARROW, NR};
    use std::arch::x86_64::{
        __m256, __m512, _mm256_castps128_ps256, _mm256_fmadd_ps, _mm256_insertf128_ps,
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_setr_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
        _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_set1_ps, _mm512_storeu_ps, _mm_loadu_ps,
    };

    /// [`gemm_loops`] over the 6 x 16 tile of two `__m256` a row, or the
    /// [`narrow`] path when the problem has that shape.
    ///
    /// # Safety
    /// The running CPU must support the `avx2` and `fma` features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_avx2(p: &Strided<'_, f32>, c: &mut [f32]) {
        if p.n <= NARROW && p.a.cs == 1 && p.c_rs == 1 {
            match p.n {
                1 => narrow::<1>(p, c),
                2 => narrow::<2>(p, c),
                3 => narrow::<3>(p, c),
                4 => narrow::<4>(p, c),
                5 => narrow::<5>(p, c),
                6 => narrow::<6>(p, c),
                7 => narrow::<7>(p, c),
                _ => narrow::<NARROW>(p, c),
            }
            return;
        }
        // SAFETY: the closure inherits `avx2,fma`, `__m256`'s features.
        gemm_loops(|t, s, c| unsafe { tile::<__m256, NR>(t, s, c) }, p, c);
    }

    /// [`gemm_loops`] over the 6 x 32 tile of two `__m512` a row, or
    /// [`gemm_avx2`] for a lane operand of at most `NR` columns.
    ///
    /// # Safety
    /// The running CPU must support the `avx512f`, `avx2` and `fma` features.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn gemm_avx512(p: &Strided<'_, f32>, c: &mut [f32]) {
        if p.n <= NR {
            // SAFETY: the caller guarantees `gemm_avx2`'s features.
            unsafe { gemm_avx2(p, c) };
        } else {
            // SAFETY: the closure inherits `avx512f`, `__m512`'s feature.
            gemm_loops(|t, s, c| unsafe { tile::<__m512, 32>(t, s, c) }, p, c);
        }
    }

    /// A vector register of `N` `f32` lanes, as [`tile`] uses it.
    ///
    /// # Safety
    /// Each method requires its impl's CPU features (`avx2` and `fma` for
    /// `__m256`, `avx512f` for `__m512`); `load` reads and `store` writes the
    /// `N` floats at `p`.
    trait Lanes: Copy {
        const N: usize;
        // SAFETY: (each method) the trait's `# Safety` section.
        unsafe fn splat(x: f32) -> Self;
        // SAFETY: as above.
        unsafe fn load(p: *const f32) -> Self;
        // SAFETY: as above.
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
        // SAFETY: as above.
        unsafe fn store(p: *mut f32, v: Self);
    }

    /// `impl Lanes for $ty`: `$n` lanes, the features `$f`, an intrinsic each.
    #[rustfmt::skip]
    macro_rules! lanes {
        ($ty:ty, $n:literal, $f:literal, $splat:ident, $load:ident, $fma:ident, $store:ident) => {
            impl Lanes for $ty {
                const N: usize = $n;
                // SAFETY: (each method) the trait's contract: the caller
                // guarantees `$f`, and for `load` / `store` the access.
                #[inline] #[target_feature(enable = $f)]
                unsafe fn splat(x: f32) -> Self { $splat(x) }
                // SAFETY: as above.
                #[inline] #[target_feature(enable = $f)]
                unsafe fn load(p: *const f32) -> Self { $load(p) }
                // SAFETY: as above.
                #[inline] #[target_feature(enable = $f)]
                unsafe fn fma(a: Self, b: Self, c: Self) -> Self { $fma(a, b, c) }
                // SAFETY: as above.
                #[inline] #[target_feature(enable = $f)]
                unsafe fn store(p: *mut f32, v: Self) { $store(p, v) }
            }
        };
    }
    lanes! { __m256, 8, "avx2,fma", _mm256_set1_ps, _mm256_loadu_ps, _mm256_fmadd_ps, _mm256_storeu_ps }
    lanes! { __m512, 16, "avx512f", _mm512_set1_ps, _mm512_loadu_ps, _mm512_fmadd_ps, _mm512_storeu_ps }

    /// The vector twin of [`super::tile_scalar`], `W = 2 * L::N` lanes wide:
    /// row `i` lives in two registers, lane = column `j`, and takes one fused
    /// multiply-add per `p` — the twin's operation, in its order. With
    /// `alpha == 1` and `beta == 0`, [`fold`] is `1 * acc == acc`, so a full
    /// tile on contiguous rows of `C` is stored there from the registers;
    /// any other spills to the stack for [`write_back`].
    ///
    /// # Safety
    /// The running CPU must support `L`'s features.
    #[inline(always)]
    unsafe fn tile<L: Lanes, const W: usize>(t: &Tile<'_, f32>, strip: &[[f32; W]], c: &mut [f32]) {
        assert!(2 * L::N == W && !strip.is_empty(), "tile: bad panel");
        // The largest index read below is `max(a_off) + (kb - 1) * a_cs`;
        // checked, so that no smaller `off + p * a_cs` can wrap either.
        let last = t.a_off.iter().copied().max().and_then(|off| {
            let span = (strip.len() - 1).checked_mul(t.p.a.cs)?;
            off.checked_add(span)
        });
        assert!(
            last.is_some_and(|last| last < t.p.a.data.len()),
            "tile: A rows out of range"
        );
        // SAFETY: the caller guarantees `L`'s features, which every `L::`
        // call needs; `off + p * a_cs <= last < a.len()` (asserted above);
        // the two registers of a row load and store lanes `0..N` and `N..2N
        // = W` of a `W`-long row: of `brow`, of `spill`, or of `C`.
        unsafe {
            let mut acc = [[L::splat(0.0); 2]; MR];
            for (p, brow) in strip.iter().enumerate() {
                let b = [L::load(brow.as_ptr()), L::load(brow.as_ptr().add(L::N))];
                for (ci, &off) in acc.iter_mut().zip(&t.a_off) {
                    let aip = L::splat(*t.p.a.data.get_unchecked(off + p * t.p.a.cs));
                    *ci = [L::fma(aip, b[0], ci[0]), L::fma(aip, b[1], ci[1])];
                }
            }
            if t.p.alpha == 1.0 && t.beta == 0.0 && t.p.c_cs == 1 && t.nr == W {
                for (i, ci) in acc.iter().take(t.mr).enumerate() {
                    let row = c[i * t.p.c_rs..][..W].as_mut_ptr();
                    L::store(row, ci[0]);
                    L::store(row.add(L::N), ci[1]);
                }
            } else {
                let mut spill = [[0.0; W]; MR];
                for (row, ci) in spill.iter_mut().zip(&acc) {
                    L::store(row.as_mut_ptr(), ci[0]);
                    L::store(row.as_mut_ptr().add(L::N), ci[1]);
                }
                write_back(t, &spill, c);
            }
        }
    }

    /// 8-lane registers per column of `B` in a narrow block: two, so that
    /// even a 1-column product has two independent FMA chains.
    const H: usize = 2;

    /// The narrow path, for `n == N <= NARROW` lane columns, rows of `A`
    /// contiguous (`a.cs == 1`) and `C` contiguous down a column (`c_rs ==
    /// 1`) — the swapped form of a few-row inner product, whose `A` is the
    /// weight matrix. Lanes run over a block of `8 * H` consecutive rows of
    /// `A` instead of over the `N` columns of `B`: each step loads 4 columns
    /// of the block, transposes them in registers ([`columns4`]), and gives
    /// every column `j` of `B` one `vfmadd` per 8 rows against the broadcast
    /// `B[p][j]`. Each `C[i][j]` still has its own lane, starting at `+0.0`
    /// per `KC` panel, taking the fused products in ascending `p` and folded
    /// by [`fold`] — the tile kernel's recipe, hence its bits.
    #[target_feature(enable = "avx2,fma")]
    fn narrow<const N: usize>(p: &Strided<'_, f32>, c: &mut [f32]) {
        let (a, b) = (p.a, p.b);
        assert!(p.n == N && a.cs == 1 && p.c_rs == 1, "narrow: not narrow");
        // The largest indices read below are `(m - 1) * a.rs + k - 1` in A
        // and `(k - 1) * b.rs + (N - 1) * b.cs` in B; checked, so that no
        // smaller index can wrap either.
        let a_last = (p.m - 1)
            .checked_mul(a.rs)
            .and_then(|off| off.checked_add(p.k - 1));
        assert!(
            a_last.is_some_and(|last| last < a.data.len()),
            "narrow: A rows out of range"
        );
        let b_last = (p.k - 1)
            .checked_mul(b.rs)
            .zip((N - 1).checked_mul(b.cs))
            .and_then(|(r, s)| r.checked_add(s));
        assert!(
            b_last.is_some_and(|last| last < b.data.len()),
            "narrow: B out of range"
        );
        // SAFETY: every `b_at` call below passes `q < k` and `j < N`, so
        // the index is at most `b_last < b.data.len()`.
        let b_at = |q: usize, j: usize| unsafe { *b.data.get_unchecked(q * b.rs + j * b.cs) };
        for ir in (0..p.m).step_by(8 * H) {
            let mr = (8 * H).min(p.m - ir);
            // Offsets of the block's rows, 8 lanes per register; an edge
            // block re-reads its last row instead of reading past the
            // matrix.
            let rows: [[usize; 8]; H] = std::array::from_fn(|h| {
                std::array::from_fn(|r| (ir + (8 * h + r).min(mr - 1)) * a.rs)
            });
            for pc in (0..p.k).step_by(KC) {
                let end = (pc + KC).min(p.k);
                // Later panels add to what the first one wrote.
                let beta = if pc == 0 { p.beta } else { 1.0 };
                let mut acc = [[_mm256_setzero_ps(); H]; N];
                // Column `q` of the block (lane `r` of register `h` holds
                // row `8 * h + r`) against `B[q][j]`, for every `j`.
                let mut take = |col: &[__m256; H], q: usize| {
                    for (j, accj) in acc.iter_mut().enumerate() {
                        let bpj = _mm256_set1_ps(b_at(q, j));
                        for (acc, col) in accj.iter_mut().zip(col) {
                            *acc = _mm256_fmadd_ps(*col, bpj, *acc);
                        }
                    }
                };
                let mut q = pc;
                while q + 4 <= end {
                    let mut cols = [[_mm256_setzero_ps(); H]; 4];
                    for (h, rows) in rows.iter().enumerate() {
                        // SAFETY: every row offset is at most `(m - 1) *
                        // a.rs` and `q + 3 < k`, so each 4-float load ends
                        // at or before `a_last + 1 <= a.data.len()`.
                        let block = unsafe { columns4(a.data.as_ptr(), rows, q) };
                        for (col, v) in cols.iter_mut().zip(block) {
                            col[h] = v;
                        }
                    }
                    for (d, col) in cols.iter().enumerate() {
                        take(col, q + d);
                    }
                    q += 4;
                }
                // The panel's last `(end - pc) % 4` columns, one gathered
                // column at a time.
                for q in q..end {
                    let mut col = [_mm256_setzero_ps(); H];
                    for (col, rows) in col.iter_mut().zip(&rows) {
                        // SAFETY: row offset `<= (m - 1) * a.rs` and `q <
                        // k`, so the index is at most `a_last < a.data.len()`.
                        let at = |r: usize| unsafe { *a.data.get_unchecked(rows[r] + q) };
                        *col =
                            _mm256_setr_ps(at(0), at(1), at(2), at(3), at(4), at(5), at(6), at(7));
                    }
                    take(&col, q);
                }
                for (j, accj) in acc.iter().enumerate() {
                    let mut v = [[0.0f32; 8]; H];
                    for (v, acc) in v.iter_mut().zip(accj) {
                        // SAFETY: `v` is exactly 8 floats, so the unaligned
                        // store covers it and nothing else.
                        unsafe { _mm256_storeu_ps(v.as_mut_ptr(), *acc) };
                    }
                    let cj = &mut c[ir + j * p.c_cs..][..mr];
                    for (cij, &v) in cj.iter_mut().zip(v.as_flattened()) {
                        fold(p.alpha, beta, cij, v);
                    }
                }
            }
        }
    }

    /// Columns `q..q + 4` of the 8 rows of `A` at `a + rows[r]`: element
    /// `d` of the result holds `A[row r][q + d]` in lane `r`. Rows `r` and
    /// `r + 4` share one register (low and high 128-bit half), so a 4 x 4
    /// transpose inside each half finishes the job.
    ///
    /// # Safety
    /// `a + rows[r] + q .. + 4` must be readable for every `r`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn columns4(a: *const f32, rows: &[usize; 8], q: usize) -> [__m256; 4] {
        // SAFETY: the caller guarantees both 4-float reads.
        let pair = |r: usize| unsafe {
            let lo = _mm_loadu_ps(a.add(rows[r] + q));
            let hi = _mm_loadu_ps(a.add(rows[r + 4] + q));
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
        };
        let (r0, r1, r2, r3) = (pair(0), pair(1), pair(2), pair(3));
        // Per 128-bit half, with rows a..d of that half:
        let t0 = _mm256_unpacklo_ps(r0, r1); // a0 b0 a1 b1
        let t1 = _mm256_unpackhi_ps(r0, r1); // a2 b2 a3 b3
        let t2 = _mm256_unpacklo_ps(r2, r3); // c0 d0 c1 d1
        let t3 = _mm256_unpackhi_ps(r2, r3); // c2 d2 c3 d3
        [
            _mm256_shuffle_ps::<0x44>(t0, t2), // a0 b0 c0 d0
            _mm256_shuffle_ps::<0xEE>(t0, t2), // a1 b1 c1 d1
            _mm256_shuffle_ps::<0x44>(t1, t3), // a2 b2 c2 d2
            _mm256_shuffle_ps::<0xEE>(t1, t3), // a3 b3 c3 d3
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Transpose::{No, Yes};

    /// One GEMM call: shape, transposes, scalars, and `pad` extra elements on
    /// every leading dimension (0 = tight, as the layers call it).
    #[derive(Debug, Clone, Copy)]
    struct Case {
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        pad: usize,
    }

    impl Case {
        fn new(ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize, beta: f64) -> Self {
            Case {
                ta,
                tb,
                m,
                n,
                k,
                alpha: 1.0,
                beta,
                pad: 0,
            }
        }
        /// (rows, cols) of stored A and stored B.
        fn stored(&self) -> ((usize, usize), (usize, usize)) {
            let Case { m, n, k, .. } = *self;
            (
                if self.ta.is_trans() { (k, m) } else { (m, k) },
                if self.tb.is_trans() { (n, k) } else { (k, n) },
            )
        }
        fn lds(&self) -> (usize, usize, usize) {
            let ((_, ac), (_, bc)) = self.stored();
            (
                ac.max(1) + self.pad,
                bc.max(1) + self.pad,
                self.n.max(1) + self.pad,
            )
        }
    }

    /// `(num_output, col_rows, col_cols, propagates_down)` of the five
    /// convolutions of LeNet and the CIFAR-10 net, in net order.
    const CONVS: [(usize, usize, usize, bool); 5] = [
        (20, 25, 576, false),  // LeNet conv1
        (50, 500, 64, true),   // LeNet conv2
        (32, 75, 1024, false), // CIFAR conv1
        (32, 800, 256, true),  // CIFAR conv2
        (64, 800, 64, true),   // CIFAR conv3
    ];

    /// The 13 GEMMs those layers issue per sample, with the transposes and
    /// `beta` `ConvolutionLayer` passes: forward `W * col`, weight gradient
    /// `dy * col^T` (accumulating), input gradient `W^T * dy`.
    fn conv_cases() -> Vec<Case> {
        let mut cases = Vec::new();
        for (m, cr, cc, propagates) in CONVS {
            cases.push(Case::new(No, No, m, cc, cr, 0.0));
            cases.push(Case::new(No, Yes, m, cr, cc, 1.0));
            if propagates {
                cases.push(Case::new(Yes, No, cr, cc, m, 0.0));
            }
        }
        assert_eq!(cases.len(), 13);
        cases
    }

    /// The inner-product forwards of both nets, `Y = X W^T + bias`, over
    /// runs of samples on both sides of `NARROW`: LeNet ip1 (500 x 800) and
    /// ip2 (10 x 500), CIFAR ip1 (10 x 1024).
    fn ip_cases() -> Vec<Case> {
        let mut cases = Vec::new();
        for (m, k) in [(500, 800), (10, 500), (10, 1024)] {
            for rows in [1, 2, 3, 4, 5, NARROW, NARROW + 1, 16] {
                cases.push(Case::new(No, Yes, rows, m, k, 1.0));
            }
        }
        cases
    }

    /// Sizes on and one either side of every blocking constant, for all four
    /// transpose pairs, with general `alpha`/`beta` and padded strides.
    fn edge_cases() -> Vec<Case> {
        let mut cases = Vec::new();
        for (ta, tb) in [(No, No), (No, Yes), (Yes, No), (Yes, Yes)] {
            for &(m, n, k) in &[
                (1, 1, 1),
                (MR - 1, NR - 1, 3),
                (MR, NR, KC),
                (MR + 1, NR + 1, KC + 1),
                (2 * MR + 5, NR - 1, KC - 1),
                (MR - 1, 2 * NR + 1, 2 * KC + 1),
                (NR + 1, MR + 1, 5),
                (63, 65, 31),
            ] {
                for (alpha, beta, pad) in [(1.5, 0.5, 0), (1.0, 0.0, 3), (-0.75, 1.0, 1)] {
                    cases.push(Case {
                        ta,
                        tb,
                        m,
                        n,
                        k,
                        alpha,
                        beta,
                        pad,
                    });
                }
            }
        }
        cases
    }

    /// Problems the vector paths hand to the narrow path: `op(B)` transposed
    /// with at most `NARROW` rows of `C` (after the swap, `NARROW` lanes
    /// over the stored rows of `B`), and a one-column `C` with `ldc == 1`
    /// in the stored orientation. Row counts of `A` on and either side of
    /// the 16-row block, `k` on and either side of the 4-column step and
    /// the `KC` panel, with `edge_cases`' `alpha`/`beta`/`pad` triples.
    fn narrow_cases() -> Vec<Case> {
        let mut cases = Vec::new();
        for m in [1, 7, 8, 9, 37, 500] {
            for k in [1, 7, 8, KC, KC + 9] {
                for (alpha, beta, pad) in [(1.5, 0.5, 0), (1.0, 0.0, 3), (-0.75, 1.0, 1)] {
                    let case = |ta, tb, m, n| Case {
                        ta,
                        tb,
                        m,
                        n,
                        k,
                        alpha,
                        beta,
                        pad,
                    };
                    for rows in 1..=NARROW {
                        cases.push(case(No, Yes, rows, m));
                    }
                    cases.push(case(Yes, Yes, 2, m));
                    if pad == 0 {
                        cases.push(case(No, No, m, 1));
                    }
                }
            }
        }
        cases
    }

    /// Reproducible values in [-1, 1).
    fn dense<S: Scalar>(len: usize, seed: u64) -> Vec<S> {
        let mut rng = crate::Pcg32::seeded(seed);
        (0..len)
            .map(|_| S::from_f64(rng.uniform_range(-1.0, 1.0)))
            .collect()
    }

    /// `(a, b, c0)` for a case, sized by its padded leading dimensions.
    fn operands<S: Scalar>(case: &Case) -> (Vec<S>, Vec<S>, Vec<S>) {
        let ((ar, _), (br, _)) = case.stored();
        let (lda, ldb, ldc) = case.lds();
        (
            dense(ar * lda, 1),
            dense(br * ldb, 2),
            dense(case.m * ldc, 3),
        )
    }

    type GemmFn<S> = fn(
        Transpose,
        Transpose,
        usize,
        usize,
        usize,
        S,
        &[S],
        usize,
        &[S],
        usize,
        S,
        &mut [S],
        usize,
    );

    /// [`gemm`] forced onto the scalar twin, whatever the CPU supports.
    fn gemm_twin<S: Scalar>(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: S,
        a: &[S],
        lda: usize,
        b: &[S],
        ldb: usize,
        beta: S,
        c: &mut [S],
        ldc: usize,
    ) {
        gemm_with(
            gemm_portable::<S>,
            ta,
            tb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            beta,
            c,
            ldc,
        );
    }

    /// [`gemm`] on path `Isa::ALL[I]`, whatever the widest path is.
    fn gemm_path<const I: usize>(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        gemm_with(
            |p, c| gemm_on(Isa::ALL[I], p, c),
            ta,
            tb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            beta,
            c,
            ldc,
        );
    }

    /// The `f32` [`gemm`] on every path this CPU has, named; a path it lacks
    /// is reported as skipped, so that a pass never hides which paths ran.
    fn f32_paths() -> Vec<(Isa, GemmFn<f32>)> {
        let all: [GemmFn<f32>; 3] = [gemm_path::<0>, gemm_path::<1>, gemm_path::<2>];
        let paths: Vec<_> = Isa::ALL
            .into_iter()
            .zip(all)
            .filter(|(isa, _)| isa.available())
            .collect();
        for isa in Isa::ALL.iter().filter(|isa| !isa.available()) {
            eprintln!("level3 tests: this CPU has no {isa:?} path; skipped it");
        }
        paths
    }

    fn run<S: Scalar>(f: GemmFn<S>, case: &Case, a: &[S], b: &[S], c0: &[S]) -> Vec<S> {
        let (lda, ldb, ldc) = case.lds();
        let mut c = c0.to_vec();
        f(
            case.ta,
            case.tb,
            case.m,
            case.n,
            case.k,
            S::from_f64(case.alpha),
            a,
            lda,
            b,
            ldb,
            S::from_f64(case.beta),
            &mut c,
            ldc,
        );
        c
    }

    fn assert_bitwise<S: Scalar>(got: &[S], want: &[S], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_f64().to_bits() == w.to_f64().to_bits(),
                "{what}: element {i} differs: {g:?} vs {w:?}"
            );
        }
    }

    /// `|got - want| <= tol * k * (1 + |want|)`: both sides round every one
    /// of the `k` products, so the bound scales with `k`.
    fn assert_close<S: Scalar>(got: &[S], want: &[S], k: usize, eps: f64, what: &str) {
        let tol = eps * k.max(1) as f64;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let (g, w) = (g.to_f64(), w.to_f64());
            assert!(
                (g - w).abs() <= tol * (1.0 + w.abs()),
                "{what}: element {i}: got {g}, want {w}"
            );
        }
    }

    /// (a) + (b) on the nets' own shapes: `f32` kernel against the oracle to
    /// a `k`-scaled tolerance, and against its scalar twin bit for bit; on
    /// the inner-product shapes `f64` too, whose kernel is the twin compiled
    /// with FMA.
    #[test]
    fn net_shapes_match_oracle_and_twin_bitwise() {
        let ip = ip_cases();
        for case in conv_cases().iter().chain(&ip) {
            let (a, b, c0) = operands::<f32>(case);
            let twin = run(gemm_twin::<f32>, case, &a, &b, &c0);
            let want = run(gemm_naive::<f32>, case, &a, &b, &c0);
            for (isa, path) in f32_paths() {
                let got = run(path, case, &a, &b, &c0);
                let what = format!("{isa:?} {case:?}");
                assert_bitwise(&got, &twin, &what);
                assert_close(&got, &want, case.k, f32::EPSILON as f64, &what);
            }
        }
        for case in &ip {
            let (a, b, c0) = operands::<f64>(case);
            let got = run(gemm::<f64>, case, &a, &b, &c0);
            let twin = run(gemm_twin::<f64>, case, &a, &b, &c0);
            assert_bitwise(&got, &twin, &format!("f64 {case:?}"));
        }
    }

    /// (b) + (d) + (e) at the tile and panel edges: `f32` SIMD and the
    /// FMA-compiled `f64` kernel against the scalar twin bitwise, both
    /// against the oracle, padding of a strided `C` untouched (the oracle
    /// leaves it alone, and all of `C` is compared).
    #[test]
    fn edge_sizes_match_oracle_and_twin_bitwise() {
        for case in edge_cases() {
            let what = format!("{case:?}");
            let (a, b, c0) = operands::<f32>(&case);
            let twin = run(gemm_twin::<f32>, &case, &a, &b, &c0);
            let want = run(gemm_naive::<f32>, &case, &a, &b, &c0);
            for (isa, path) in f32_paths() {
                let got = run(path, &case, &a, &b, &c0);
                assert_bitwise(&got, &twin, &format!("{isa:?} {what}"));
                assert_close(&got, &want, case.k, f32::EPSILON as f64, &what);
            }

            let (a, b, c0) = operands::<f64>(&case);
            let got = run(gemm::<f64>, &case, &a, &b, &c0);
            assert_bitwise(&got, &run(gemm_twin::<f64>, &case, &a, &b, &c0), &what);
            let want = run(gemm_naive::<f64>, &case, &a, &b, &c0);
            assert_close(&got, &want, 1, 1e-9, &what);
        }
    }

    /// The narrow path at its edges: `f32` against the scalar twin, whose
    /// tile loops it replaces, bit for bit, and against the oracle.
    #[test]
    fn narrow_path_matches_oracle_and_twin_bitwise() {
        for case in narrow_cases() {
            let (a, b, c0) = operands::<f32>(&case);
            let twin = run(gemm_twin::<f32>, &case, &a, &b, &c0);
            let want = run(gemm_naive::<f32>, &case, &a, &b, &c0);
            for (isa, path) in f32_paths() {
                let what = format!("{isa:?} {case:?}");
                let got = run(path, &case, &a, &b, &c0);
                assert_bitwise(&got, &twin, &what);
                assert_close(&got, &want, case.k, f32::EPSILON as f64, &what);
            }
        }
    }

    /// (c) Every `(row0, rows)` range of `m` rows, computed on its own, is
    /// bit-equal to the same rows of the full call — in both orientations
    /// (`tb = Yes` puts C's rows on the vector lanes) and for a transposed
    /// `A`, whose row range is a column range of the stored matrix.
    #[test]
    fn every_row_range_is_bitwise_the_full_call() {
        let mut cases = Vec::new();
        for m in [20, 50, 64] {
            cases.push(Case::new(No, No, m, NR + 3, 37, 0.0));
            cases.push(Case::new(No, Yes, m, MR + 1, 37, 1.0));
        }
        cases.push(Case::new(Yes, No, 20, NR + 3, 2 * KC + 5, 0.5));
        cases.push(Case::new(Yes, Yes, 20, MR + 1, 2 * KC + 5, 0.5));
        for (case, (isa, path)) in cases
            .iter()
            .flat_map(|c| f32_paths().into_iter().map(move |p| (c, p)))
        {
            let (a, b, c0) = operands::<f32>(case);
            let full = run(path, case, &a, &b, &c0);
            let (lda, ldb, ldc) = case.lds();
            for row0 in 0..case.m {
                for rows in 1..=case.m - row0 {
                    let a_rows = if case.ta.is_trans() {
                        &a[row0..]
                    } else {
                        &a[row0 * lda..]
                    };
                    let c_rows = row0 * ldc..(row0 + rows) * ldc;
                    let mut got = c0[c_rows.clone()].to_vec();
                    path(
                        case.ta,
                        case.tb,
                        rows,
                        case.n,
                        case.k,
                        case.alpha as f32,
                        a_rows,
                        lda,
                        &b,
                        ldb,
                        case.beta as f32,
                        &mut got,
                        ldc,
                    );
                    assert_bitwise(
                        &got,
                        &full[c_rows],
                        &format!("{isa:?}: rows {row0}+{rows} of {case:?}"),
                    );
                }
            }
        }
    }

    /// Every `(col0, cols)` range of `op(B) = B^T`'s columns — for `(No,
    /// Yes)`, stored rows `col0..col0 + cols` of `B` — computed on its own
    /// into `&mut c[col0..]` with the full `ldc`, is bit-equal to those
    /// columns of the full call and leaves the others alone. An inner
    /// product split over its outputs relies on it: the columns are the
    /// output neurons, the stored rows of `B` their weights.
    #[test]
    fn every_column_range_is_bitwise_the_full_call() {
        let mut cases = Vec::new();
        for m in [1, 7, NR + 1] {
            cases.push(Case::new(No, Yes, m, 2 * MR + 5, KC + 37, 0.0));
            cases.push(Case::new(No, Yes, m, NR + 3, KC + 37, 1.0));
        }
        for (case, (isa, path)) in cases
            .iter()
            .flat_map(|c| f32_paths().into_iter().map(move |p| (c, p)))
        {
            let (a, b, c0) = operands::<f32>(case);
            let full = run(path, case, &a, &b, &c0);
            let (lda, ldb, ldc) = case.lds();
            for col0 in 0..case.n {
                for cols in 1..=case.n - col0 {
                    let mut got = c0.clone();
                    path(
                        case.ta,
                        case.tb,
                        case.m,
                        cols,
                        case.k,
                        case.alpha as f32,
                        &a,
                        lda,
                        &b[col0 * ldb..],
                        ldb,
                        case.beta as f32,
                        &mut got[col0..],
                        ldc,
                    );
                    let what = format!("{isa:?}: columns {col0}+{cols} of {case:?}");
                    let (inside, after) = (col0..col0 + cols, col0 + cols..);
                    for (row, (want, before)) in
                        got.chunks(ldc).zip(full.chunks(ldc).zip(c0.chunks(ldc)))
                    {
                        assert_bitwise(&row[inside.clone()], &want[inside.clone()], &what);
                        assert_bitwise(&row[..col0], &before[..col0], &what);
                        assert_bitwise(&row[after.clone()], &before[after.clone()], &what);
                    }
                }
            }
        }
    }

    /// A NaN or infinity in either operand reaches `C` through the kernel
    /// exactly where it does through the oracle (no `alpha * a == 0`
    /// shortcut on either side), while `beta == 0` still overwrites
    /// non-finite garbage in `C`.
    #[test]
    fn non_finite_operands_propagate_like_the_oracle() {
        let mut cases: Vec<Case> = [(No, No), (No, Yes), (Yes, No), (Yes, Yes)]
            .into_iter()
            .map(|(ta, tb)| Case::new(ta, tb, MR + 2, NR + 3, 9, 0.0))
            .collect();
        // The narrow path: 1 and `NARROW` lanes, an edge block of A.
        cases.push(Case::new(No, Yes, 1, 37, 9, 0.0));
        cases.push(Case::new(No, Yes, NARROW, 37, KC + 9, 0.0));
        for case in cases {
            let (clean_a, clean_b, mut c0) = operands::<f32>(&case);
            c0.fill(f32::NAN);
            for poison in [f32::NAN, f32::INFINITY] {
                for in_a in [true, false] {
                    let (mut a, mut b) = (clean_a.clone(), clean_b.clone());
                    // Zero the other operand's matching entries so the only
                    // route into C is `0 * poison`.
                    if in_a {
                        a[4] = poison;
                        b.fill(0.0);
                    } else {
                        b[4] = poison;
                        a.fill(0.0);
                    }
                    let want = run(gemm_naive::<f32>, &case, &a, &b, &c0);
                    assert!(want.iter().any(|v| v.is_nan()), "oracle dropped {poison}");
                    let paths = f32_paths().into_iter().map(|(_, path)| path);
                    for f in paths.chain([gemm_twin::<f32> as GemmFn<f32>]) {
                        let got = run(f, &case, &a, &b, &c0);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(g.is_nan(), w.is_nan(), "element {i} of {case:?}");
                            assert!(g.is_nan() || g == w, "element {i} of {case:?}");
                        }
                    }
                }
            }
            // Finite operands: nothing of the NaN-filled C survives beta = 0.
            for (isa, path) in f32_paths() {
                let got = run(path, &case, &clean_a, &clean_b, &c0);
                assert!(got.iter().all(|v| v.is_finite()), "{isa:?} {case:?}");
            }
        }
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let empty: [f64; 0] = [];
        let mut c = vec![7.0f64; 4];
        // k == 0: C = beta * C only.
        gemm(No, No, 2, 2, 0, 1.0, &empty, 1, &empty, 2, 2.0, &mut c, 2);
        assert_eq!(c, vec![14.0; 4]);
        // alpha == 0: likewise, and A / B are not read (NaN stays out).
        let nan = [f64::NAN; 4];
        gemm(No, No, 2, 2, 2, 0.0, &nan, 2, &nan, 2, 0.5, &mut c, 2);
        assert_eq!(c, vec![7.0; 4]);
        // m == 0 or n == 0: C untouched.
        gemm(No, No, 0, 2, 2, 1.0, &empty, 2, &nan, 2, 0.0, &mut c, 2);
        gemm(No, Yes, 2, 0, 2, 1.0, &nan, 2, &empty, 2, 0.0, &mut c, 1);
        assert_eq!(c, vec![7.0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm: A slice too short")]
    fn short_a_panics() {
        let a = [1.0f64];
        let b = [1.0f64; 4];
        let mut c = [0.0f64; 4];
        gemm(No, No, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
    }

    #[test]
    #[should_panic(expected = "gemm: C slice too short")]
    fn short_c_panics() {
        let a = [1.0f64; 4];
        let b = [1.0f64; 4];
        let mut c = [0.0f64; 3];
        gemm_naive(No, Yes, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
    }
}
