//! Vectorized base cases of the two SBGEMV sweeps.
//!
//! Each entry point offers work to an AVX2+FMA kernel; `false` means no
//! vector kernel applies (portable level, `simd` feature off, non-x86
//! host) and the caller must run its scalar loop, which stays the
//! reference. Every vector kernel evaluates, per output element, the
//! *same expression tree* as the scalar code — same operand order, same
//! fused/unfused mix, same summation tree — so results are bit-identical
//! at every dispatch level. What differs is only which elements share an
//! instruction, and the lanes are always chosen to be independent:
//!
//! * [`notrans_tile`] — one base run of the row-tiled non-transpose sweep
//!   (`crate::kernels::notrans_pairwise_tile`). Lanes are *rows*: one
//!   widened accumulator register per row group walks the columns
//!   sequentially, the scalar chain exactly. The pairwise merge above the
//!   base case stays scalar (elementwise and cheap).
//! * [`trans_columns`] — the whole (conjugate-)transpose sweep. Lanes are
//!   *output columns*: each lane runs one column's `pairwise_dot` chain
//!   `acc = op(a_ij).mul_add(x_i, acc)` down the rows, the recursive
//!   halving above [`PAIRWISE_BASE`] is replayed for the whole group with
//!   lane-wise adds, and the `α`/`β` epilogue runs lane-wise with `α`/`β`
//!   in the broadcast operand, so the scalar operand order is kept.
//!   Splitting one dot product *along* the reduction would change its
//!   summation tree; spreading independent columns across lanes cannot.
//!   `ConjTrans` is an exact sign flip of the imaginary lanes. About four
//!   registers of columns stay in flight (8 columns for `Complex<f64>`,
//!   16 for the other types); a ragged last group repeats its final
//!   column in the surplus lanes and writes back only the real ones.
//!
//! 16-bit tiers widen on load and round through storage after every
//! multiply, add and fused multiply-add, exactly where the emulated
//! scalar arithmetic rounds.

use fftmatvec_numeric::Scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::kernels::PAIRWISE_BASE;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod cast {
    //! Identity casts from a generic `Scalar` to the concrete type a
    //! kernel was written for; `None` when the types differ.
    use core::any::TypeId;

    use fftmatvec_numeric::Scalar;

    pub(super) fn slice<S: Scalar, U: Scalar>(v: &[S]) -> Option<&[U]> {
        (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
            // SAFETY: S == U was just checked; identity cast.
            unsafe { core::slice::from_raw_parts(v.as_ptr() as *const U, v.len()) }
        })
    }

    pub(super) fn slice_mut<S: Scalar, U: Scalar>(v: &mut [S]) -> Option<&mut [U]> {
        (TypeId::of::<S>() == TypeId::of::<U>()).then(|| {
            // SAFETY: as above; the exclusive borrow transfers.
            unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut U, v.len()) }
        })
    }

    pub(super) fn value<S: Scalar, U: Scalar>(v: S) -> Option<U> {
        // SAFETY: S == U is checked first; identity copy.
        (TypeId::of::<S>() == TypeId::of::<U>()).then(|| unsafe { core::mem::transmute_copy(&v) })
    }
}

/// May the AVX2+FMA kernels run? The Avx2/Avx512 levels are only
/// reachable through `level_supported`, which verified avx2+fma on this
/// host.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_active() -> bool {
    use fftmatvec_numeric::simd::{active_level, SimdLevel};
    matches!(active_level(), SimdLevel::Avx2 | SimdLevel::Avx512)
}

/// Vectorized tile base case. Fills `acc[..rows]` with the
/// pairwise-base accumulation of columns `[j0, j1)` over rows
/// `[i0, i0 + rows)`. Returns `false` if no vector kernel applies.
#[allow(unused_variables, clippy::too_many_arguments)]
pub(crate) fn notrans_tile<S: Scalar>(
    a: &[S],
    lda: usize,
    x: &[S],
    i0: usize,
    rows: usize,
    j0: usize,
    j1: usize,
    acc: &mut [S],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        macro_rules! try_tile {
            ($(($u:ty, $min_rows:expr, $kernel:path)),+ $(,)?) => {
                if avx2_active() {
                    $(
                        if rows >= $min_rows {
                            if let (Some(a), Some(x), Some(acc)) = (
                                cast::slice::<S, $u>(a),
                                cast::slice::<S, $u>(x),
                                cast::slice_mut::<S, $u>(acc),
                            ) {
                                // SAFETY: `avx2_active` verified avx2+fma.
                                unsafe { $kernel(a, lda, x, i0, rows, j0, j1, acc) };
                                return true;
                            }
                        }
                    )+
                }
            };
        }
        try_tile!(
            (f32, 8, x86::tile_f32),
            (f64, 4, x86::tile_f64),
            (fftmatvec_numeric::half::f16, 8, x86::tile_f16),
            (fftmatvec_numeric::half::bf16, 8, x86::tile_bf16),
            (fftmatvec_numeric::Complex<f32>, 4, x86::tile_c32),
            (fftmatvec_numeric::Complex<f64>, 2, x86::tile_c64),
            (fftmatvec_numeric::Complex<fftmatvec_numeric::half::f16>, 4, x86::tile_c16),
            (fftmatvec_numeric::Complex<fftmatvec_numeric::half::bf16>, 4, x86::tile_cb16),
        );
    }
    false
}

/// Vectorized transposed sweep: for every `j < y.len()`,
/// `y[j] = α·pairwise_dot(op(a[j·lda..j·lda + m]), x) + β·y[j]` with
/// `m = x.len()` and `op` the conjugate when `conj`. `beta = None` means
/// `y` is write-only. Returns `false` if no vector kernel applies.
#[allow(unused_variables)]
pub(crate) fn trans_columns<S: Scalar>(
    conj: bool,
    alpha: S,
    a: &[S],
    lda: usize,
    x: &[S],
    beta: Option<S>,
    y: &mut [S],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if !avx2_active() {
            return false;
        }
        let (m, n) = (x.len(), y.len());
        // Checked: the unsafe kernels read every column through this.
        let need = match n {
            0 => Some(0),
            n => (n - 1).checked_mul(lda).and_then(|last| last.checked_add(m)),
        };
        assert!(
            need.is_some_and(|need| a.len() >= need),
            "matrix too short for {m}x{n}, lda {lda}"
        );
        macro_rules! try_trans {
            ($(($u:ty, $kernel:path)),+ $(,)?) => {
                $(
                    if let (Some(a), Some(x), Some(y), Some(alpha)) = (
                        cast::slice::<S, $u>(a),
                        cast::slice::<S, $u>(x),
                        cast::slice_mut::<S, $u>(y),
                        cast::value::<S, $u>(alpha),
                    ) {
                        let beta = beta.and_then(cast::value::<S, $u>);
                        // SAFETY: `avx2_active` verified avx2+fma, and
                        // the assertion above bounds every column read.
                        unsafe { $kernel(conj, alpha, a, lda, x, beta, y) };
                        return true;
                    }
                )+
            };
        }
        try_trans!(
            (f32, x86::trans_f32),
            (f64, x86::trans_f64),
            (fftmatvec_numeric::half::f16, x86::trans_f16),
            (fftmatvec_numeric::half::bf16, x86::trans_bf16),
            (fftmatvec_numeric::Complex<f32>, x86::trans_c32),
            (fftmatvec_numeric::Complex<f64>, x86::trans_c64),
            (fftmatvec_numeric::Complex<fftmatvec_numeric::half::f16>, x86::trans_c16),
            (fftmatvec_numeric::Complex<fftmatvec_numeric::half::bf16>, x86::trans_cb16),
        );
    }
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! AVX2+FMA kernels, one per `Scalar` type and sweep. Uniform safety
    //! contract: caller guarantees AVX2+FMA support and in-bounds
    //! operands; accesses are unaligned.
    #![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

    use core::arch::x86_64::*;

    use fftmatvec_numeric::half::{bf16, f16};
    use fftmatvec_numeric::simd::x86::{
        cmul_pd, cmul_ps, cmuladd_pd, cmuladd_ps, dup_im_ps, dup_re_ps, narrow8_bf16, narrow8_f16,
        neg_even_ps, neg_odd_pd, neg_odd_ps, round8_bf16, round8_f16, swap_pairs_pd, swap_pairs_ps,
        widen8_bf16, widen8_f16,
    };
    use fftmatvec_numeric::{Complex, Scalar};

    use super::PAIRWISE_BASE;

    /// Scalar accumulation over the remainder rows `[full, rows)` — the
    /// identical expression chain of the scalar base case.
    #[inline(always)]
    fn scalar_rows<S: Scalar>(
        a: &[S],
        lda: usize,
        x: &[S],
        i0: usize,
        full: usize,
        rows: usize,
        j0: usize,
        j1: usize,
        acc: &mut [S],
    ) {
        for p in acc[full..rows].iter_mut() {
            *p = S::zero();
        }
        for j in j0..j1 {
            let xj = x[j];
            for (p, &aij) in acc[full..rows].iter_mut().zip(&a[j * lda + i0 + full..]) {
                *p = aij.mul_add(xj, *p);
            }
        }
    }

    /// f32 rows, 8 per register: `acc[p] = fma(a[p][j], x[j], acc[p])`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_f32(
        a: &[f32],
        lda: usize,
        x: &[f32],
        i0: usize,
        rows: usize,
        j0: usize,
        j1: usize,
        acc: &mut [f32],
    ) {
        let full = rows / 8 * 8;
        let ap = a.as_ptr();
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_ps();
            for j in j0..j1 {
                let col = _mm256_loadu_ps(ap.add(j * lda + i0 + r));
                v = _mm256_fmadd_ps(col, _mm256_set1_ps(x[j]), v);
            }
            _mm256_storeu_ps(acc.as_mut_ptr().add(r), v);
            r += 8;
        }
        scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
    }

    /// f64 rows, 4 per register.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_f64(
        a: &[f64],
        lda: usize,
        x: &[f64],
        i0: usize,
        rows: usize,
        j0: usize,
        j1: usize,
        acc: &mut [f64],
    ) {
        let full = rows / 4 * 4;
        let ap = a.as_ptr();
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_pd();
            for j in j0..j1 {
                let col = _mm256_loadu_pd(ap.add(j * lda + i0 + r));
                v = _mm256_fmadd_pd(col, _mm256_set1_pd(x[j]), v);
            }
            _mm256_storeu_pd(acc.as_mut_ptr().add(r), v);
            r += 4;
        }
        scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
    }

    macro_rules! half_real_tile {
        ($t:ty, $kernel:ident, $widen8:ident, $narrow8:ident, $round8:ident) => {
            /// 16-bit rows, 8 widened per register; every FMA rounds
            /// through storage, matching the emulated scalar `mul_add`.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $kernel(
                a: &[$t],
                lda: usize,
                x: &[$t],
                i0: usize,
                rows: usize,
                j0: usize,
                j1: usize,
                acc: &mut [$t],
            ) {
                let full = rows / 8 * 8;
                let ap = a.as_ptr() as *const u16;
                let mut r = 0;
                while r < full {
                    let mut v = _mm256_setzero_ps();
                    for j in j0..j1 {
                        let col =
                            $widen8(_mm_loadu_si128(ap.add(j * lda + i0 + r) as *const __m128i));
                        let xj = _mm256_set1_ps(x[j].to_f32());
                        v = $round8(_mm256_fmadd_ps(col, xj, v));
                    }
                    _mm_storeu_si128(acc.as_mut_ptr().add(r) as *mut __m128i, $narrow8(v));
                    r += 8;
                }
                scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
            }
        };
    }

    half_real_tile!(f16, tile_f16, widen8_f16, narrow8_f16, round8_f16);
    half_real_tile!(bf16, tile_bf16, widen8_bf16, narrow8_bf16, round8_bf16);

    /// Complex<f32> rows, 4 per register, via the exact `mul_add` mix.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_c32(
        a: &[Complex<f32>],
        lda: usize,
        x: &[Complex<f32>],
        i0: usize,
        rows: usize,
        j0: usize,
        j1: usize,
        acc: &mut [Complex<f32>],
    ) {
        let full = rows / 4 * 4;
        let ap = a.as_ptr() as *const f32;
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_ps();
            for j in j0..j1 {
                let col = _mm256_loadu_ps(ap.add(2 * (j * lda + i0 + r)));
                let xj = x[j];
                let x_ri = _mm256_setr_ps(xj.re, xj.im, xj.re, xj.im, xj.re, xj.im, xj.re, xj.im);
                let x_sw = _mm256_setr_ps(xj.im, xj.re, xj.im, xj.re, xj.im, xj.re, xj.im, xj.re);
                v = cmuladd_ps(col, x_ri, x_sw, v);
            }
            _mm256_storeu_ps(acc.as_mut_ptr().add(r) as *mut f32, v);
            r += 4;
        }
        scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
    }

    /// Complex<f64> rows, 2 per register.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_c64(
        a: &[Complex<f64>],
        lda: usize,
        x: &[Complex<f64>],
        i0: usize,
        rows: usize,
        j0: usize,
        j1: usize,
        acc: &mut [Complex<f64>],
    ) {
        let full = rows / 2 * 2;
        let ap = a.as_ptr() as *const f64;
        let mut r = 0;
        while r < full {
            let mut v = _mm256_setzero_pd();
            for j in j0..j1 {
                let col = _mm256_loadu_pd(ap.add(2 * (j * lda + i0 + r)));
                let xj = x[j];
                let x_ri = _mm256_setr_pd(xj.re, xj.im, xj.re, xj.im);
                let x_sw = _mm256_setr_pd(xj.im, xj.re, xj.im, xj.re);
                v = cmuladd_pd(col, x_ri, x_sw, v);
            }
            _mm256_storeu_pd(acc.as_mut_ptr().add(r) as *mut f64, v);
            r += 2;
        }
        scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
    }

    macro_rules! half_complex_tile {
        ($t:ty, $kernel:ident, $widen8:ident, $narrow8:ident, $round8:ident) => {
            /// 16-bit complex rows, 4 widened per register. Both FMAs of
            /// the complex `mul_add` round through storage, matching the
            /// emulated scalar arithmetic.
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $kernel(
                a: &[Complex<$t>],
                lda: usize,
                x: &[Complex<$t>],
                i0: usize,
                rows: usize,
                j0: usize,
                j1: usize,
                acc: &mut [Complex<$t>],
            ) {
                let full = rows / 4 * 4;
                let ap = a.as_ptr() as *const u16;
                let mut r = 0;
                while r < full {
                    let mut v = _mm256_setzero_ps();
                    for j in j0..j1 {
                        let col = $widen8(_mm_loadu_si128(
                            ap.add(2 * (j * lda + i0 + r)) as *const __m128i
                        ));
                        let (re, im) = (x[j].re.to_f32(), x[j].im.to_f32());
                        let x_ri = _mm256_setr_ps(re, im, re, im, re, im, re, im);
                        let x_sw = _mm256_setr_ps(im, re, im, re, im, re, im, re);
                        let inner = $round8(_mm256_fmadd_ps(neg_even_ps(dup_im_ps(col)), x_sw, v));
                        v = $round8(_mm256_fmadd_ps(dup_re_ps(col), x_ri, inner));
                    }
                    _mm_storeu_si128(acc.as_mut_ptr().add(r) as *mut __m128i, $narrow8(v));
                    r += 4;
                }
                scalar_rows(a, lda, x, i0, full, rows, j0, j1, acc);
            }
        };
    }

    half_complex_tile!(f16, tile_c16, widen8_f16, narrow8_f16, round8_f16);
    half_complex_tile!(bf16, tile_cb16, widen8_bf16, narrow8_bf16, round8_bf16);

    // -----------------------------------------------------------------------
    // Transposed sweep: one vector lane per output column
    // -----------------------------------------------------------------------

    /// Unaligned read of the 2, 4 or 8 bytes at `p`, as raw bits.
    #[inline(always)]
    unsafe fn bits<T, B>(p: *const T) -> B {
        (p as *const B).read_unaligned()
    }

    /// Generates one transposed-sweep kernel from per-type lane
    /// operations: `$load` fills one register with row `i` of
    /// `$per` consecutive lanes, `$bcast` splats `x[i]`, `$mac` is the
    /// base-chain step `op(a).mul_add(x, acc)` (`cm` is the conjugation
    /// sign mask, zero for `Trans`), `$add` merges two tree halves and
    /// `$epi` stores `α·acc + β·y` for a whole group.
    macro_rules! trans_kernel {
        (
            $kernel:ident, $tree:ident, $t:ty, $v:ty, regs: $regs:expr, per: $per:expr,
            zero: $zero:expr, conj: $conj_mask:expr,
            $load:ident, $bcast:ident, $mac:ident, $add:ident, $epi:ident $(,)?
        ) => {
            /// Pairwise tree over rows `[i0, i1)` of one column group —
            /// per lane, exactly `pairwise_dot`'s recursion.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $tree(
                cols: &[*const $t; $regs * $per],
                x: &[$t],
                i0: usize,
                i1: usize,
                cm: $v,
            ) -> [$v; $regs] {
                if i1 - i0 <= PAIRWISE_BASE {
                    let mut acc = [$zero; $regs];
                    for i in i0..i1 {
                        let xb = $bcast(x.as_ptr().add(i));
                        for (r, acc) in acc.iter_mut().enumerate() {
                            *acc = $mac($load(cols, r * $per, i), cm, xb, *acc);
                        }
                    }
                    acc
                } else {
                    let mid = i0 + (i1 - i0) / 2;
                    let mut left = $tree(cols, x, i0, mid, cm);
                    let right = $tree(cols, x, mid, i1, cm);
                    for (l, &r) in left.iter_mut().zip(&right) {
                        *l = $add(*l, r);
                    }
                    left
                }
            }

            /// Whole transposed sweep for this type (see
            /// [`super::trans_columns`]).
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $kernel(
                conj: bool,
                alpha: $t,
                a: &[$t],
                lda: usize,
                x: &[$t],
                beta: Option<$t>,
                y: &mut [$t],
            ) {
                const G: usize = $regs * $per;
                let (m, n) = (x.len(), y.len());
                let cm = if conj { $conj_mask } else { $zero };
                let ap = a.as_ptr();
                let mut j0 = 0;
                while j0 < n {
                    // Lanes past the last column repeat it; their results
                    // are dropped.
                    let cols: [*const $t; G] =
                        core::array::from_fn(|l| ap.wrapping_add((j0 + l).min(n - 1) * lda));
                    let acc = $tree(&cols, x, 0, m, cm);
                    if j0 + G <= n {
                        $epi(&acc, alpha, beta, y.as_mut_ptr().add(j0));
                    } else {
                        let mut tail = [<$t as Scalar>::zero(); G];
                        tail[..n - j0].copy_from_slice(&y[j0..]);
                        $epi(&acc, alpha, beta, tail.as_mut_ptr());
                        y[j0..].copy_from_slice(&tail[..n - j0]);
                    }
                    j0 += G;
                }
            }
        };
    }

    // --- Complex<f64>: 2 lanes per register, interleaved (re, im) -----------

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_c64(cols: &[*const Complex<f64>], lane: usize, i: usize) -> __m256d {
        _mm256_loadu2_m128d(cols[lane + 1].add(i) as *const f64, cols[lane].add(i) as *const f64)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bcast_c64(x: *const Complex<f64>) -> (__m256d, __m256d) {
        let x = *x;
        let ri = _mm256_setr_pd(x.re, x.im, x.re, x.im);
        (ri, swap_pairs_pd(ri))
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mac_c64(
        a: __m256d,
        cm: __m256d,
        (ri, sw): (__m256d, __m256d),
        acc: __m256d,
    ) -> __m256d {
        cmuladd_pd(_mm256_xor_pd(a, cm), ri, sw, acc)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn epi_c64(
        acc: &[__m256d; 4],
        alpha: Complex<f64>,
        beta: Option<Complex<f64>>,
        y: *mut Complex<f64>,
    ) {
        let (al, _) = bcast_c64(&alpha);
        for (r, &acc) in acc.iter().enumerate() {
            let yp = (y as *mut f64).add(4 * r);
            let prior = match beta {
                Some(beta) => {
                    let (be, _) = bcast_c64(&beta);
                    let yv = _mm256_loadu_pd(yp);
                    cmul_pd(be, yv, swap_pairs_pd(yv))
                }
                None => _mm256_setzero_pd(),
            };
            _mm256_storeu_pd(yp, cmuladd_pd(al, acc, swap_pairs_pd(acc), prior));
        }
    }

    trans_kernel!(
        trans_c64, tree_c64, Complex<f64>, __m256d, regs: 4, per: 2,
        zero: _mm256_setzero_pd(), conj: neg_odd_pd(_mm256_setzero_pd()),
        load_c64, bcast_c64, mac_c64, _mm256_add_pd, epi_c64,
    );

    // --- Complex<f32>: 4 lanes per register ---------------------------------

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_c32(cols: &[*const Complex<f32>], lane: usize, i: usize) -> __m256 {
        _mm256_castsi256_ps(_mm256_setr_epi64x(
            bits(cols[lane].add(i)),
            bits(cols[lane + 1].add(i)),
            bits(cols[lane + 2].add(i)),
            bits(cols[lane + 3].add(i)),
        ))
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bcast_c32(x: *const Complex<f32>) -> (__m256, __m256) {
        let ri = _mm256_castsi256_ps(_mm256_set1_epi64x(bits(x)));
        (ri, swap_pairs_ps(ri))
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mac_c32(a: __m256, cm: __m256, (ri, sw): (__m256, __m256), acc: __m256) -> __m256 {
        cmuladd_ps(_mm256_xor_ps(a, cm), ri, sw, acc)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn epi_c32(
        acc: &[__m256; 4],
        alpha: Complex<f32>,
        beta: Option<Complex<f32>>,
        y: *mut Complex<f32>,
    ) {
        let (al, _) = bcast_c32(&alpha);
        for (r, &acc) in acc.iter().enumerate() {
            let yp = (y as *mut f32).add(8 * r);
            let prior = match beta {
                Some(beta) => {
                    let (be, _) = bcast_c32(&beta);
                    let yv = _mm256_loadu_ps(yp);
                    cmul_ps(be, yv, swap_pairs_ps(yv))
                }
                None => _mm256_setzero_ps(),
            };
            _mm256_storeu_ps(yp, cmuladd_ps(al, acc, swap_pairs_ps(acc), prior));
        }
    }

    trans_kernel!(
        trans_c32, tree_c32, Complex<f32>, __m256, regs: 4, per: 4,
        zero: _mm256_setzero_ps(), conj: neg_odd_ps(_mm256_setzero_ps()),
        load_c32, bcast_c32, mac_c32, _mm256_add_ps, epi_c32,
    );

    // --- Complex 16-bit: 4 lanes per register, widened to f32 ---------------

    macro_rules! half_complex_trans {
        (
            $t:ty, $kernel:ident, $tree:ident, $load:ident, $bcast:ident, $mac:ident,
            $add:ident, $epi:ident, $widen8:ident, $narrow8:ident, $round8:ident
        ) => {
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $load(cols: &[*const Complex<$t>], lane: usize, i: usize) -> __m256 {
                $widen8(_mm_setr_epi32(
                    bits(cols[lane].add(i)),
                    bits(cols[lane + 1].add(i)),
                    bits(cols[lane + 2].add(i)),
                    bits(cols[lane + 3].add(i)),
                ))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $bcast(x: *const Complex<$t>) -> (__m256, __m256) {
                let ri = $widen8(_mm_set1_epi32(bits(x)));
                (ri, swap_pairs_ps(ri))
            }

            /// `Complex::mul_add` with both FMAs rounded through storage.
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $mac(a: __m256, cm: __m256, (ri, sw): (__m256, __m256), acc: __m256) -> __m256 {
                let a = _mm256_xor_ps(a, cm);
                let inner = $round8(_mm256_fmadd_ps(neg_even_ps(dup_im_ps(a)), sw, acc));
                $round8(_mm256_fmadd_ps(dup_re_ps(a), ri, inner))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $add(l: __m256, r: __m256) -> __m256 {
                $round8(_mm256_add_ps(l, r))
            }

            /// `α.mul_add(acc, β·y)`; the complex `Mul` rounds both of
            /// its products and its FMA, like the scalar emulation.
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $epi(
                acc: &[__m256; 4],
                alpha: Complex<$t>,
                beta: Option<Complex<$t>>,
                y: *mut Complex<$t>,
            ) {
                let (al, _) = $bcast(&alpha);
                for (r, &acc) in acc.iter().enumerate() {
                    let yp = (y as *mut u16).add(8 * r) as *mut __m128i;
                    let prior = match beta {
                        Some(beta) => {
                            let (be, _) = $bcast(&beta);
                            let yv = $widen8(_mm_loadu_si128(yp));
                            let prod = $round8(_mm256_mul_ps(dup_im_ps(be), swap_pairs_ps(yv)));
                            $round8(_mm256_fmadd_ps(dup_re_ps(be), yv, neg_even_ps(prod)))
                        }
                        None => _mm256_setzero_ps(),
                    };
                    let inner = $round8(_mm256_fmadd_ps(
                        neg_even_ps(dup_im_ps(al)),
                        swap_pairs_ps(acc),
                        prior,
                    ));
                    let out = $round8(_mm256_fmadd_ps(dup_re_ps(al), acc, inner));
                    _mm_storeu_si128(yp, $narrow8(out));
                }
            }

            trans_kernel!(
                $kernel, $tree, Complex<$t>, __m256, regs: 4, per: 4,
                zero: _mm256_setzero_ps(), conj: neg_odd_ps(_mm256_setzero_ps()),
                $load, $bcast, $mac, $add, $epi,
            );
        };
    }

    half_complex_trans!(
        f16,
        trans_c16,
        tree_c16,
        load_c16,
        bcast_c16,
        mac_c16,
        add_c16,
        epi_c16,
        widen8_f16,
        narrow8_f16,
        round8_f16
    );
    half_complex_trans!(
        bf16,
        trans_cb16,
        tree_cb16,
        load_cb16,
        bcast_cb16,
        mac_cb16,
        add_cb16,
        epi_cb16,
        widen8_bf16,
        narrow8_bf16,
        round8_bf16
    );

    // --- f64: 4 lanes per register ------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_f64(cols: &[*const f64], lane: usize, i: usize) -> __m256d {
        _mm256_setr_pd(
            *cols[lane].add(i),
            *cols[lane + 1].add(i),
            *cols[lane + 2].add(i),
            *cols[lane + 3].add(i),
        )
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bcast_f64(x: *const f64) -> __m256d {
        _mm256_set1_pd(*x)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mac_f64(a: __m256d, _cm: __m256d, x: __m256d, acc: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, x, acc)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn epi_f64(acc: &[__m256d; 4], alpha: f64, beta: Option<f64>, y: *mut f64) {
        for (r, &acc) in acc.iter().enumerate() {
            let yp = y.add(4 * r);
            let prior = match beta {
                Some(beta) => _mm256_mul_pd(_mm256_set1_pd(beta), _mm256_loadu_pd(yp)),
                None => _mm256_setzero_pd(),
            };
            _mm256_storeu_pd(yp, _mm256_fmadd_pd(_mm256_set1_pd(alpha), acc, prior));
        }
    }

    trans_kernel!(
        trans_f64, tree_f64, f64, __m256d, regs: 4, per: 4,
        zero: _mm256_setzero_pd(), conj: _mm256_setzero_pd(),
        load_f64, bcast_f64, mac_f64, _mm256_add_pd, epi_f64,
    );

    // --- f32: 8 lanes per register ------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_f32(cols: &[*const f32], lane: usize, i: usize) -> __m256 {
        let v = |l: usize| *cols[lane + l].add(i);
        _mm256_setr_ps(v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7))
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn bcast_f32(x: *const f32) -> __m256 {
        _mm256_set1_ps(*x)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn mac_f32(a: __m256, _cm: __m256, x: __m256, acc: __m256) -> __m256 {
        _mm256_fmadd_ps(a, x, acc)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn epi_f32(acc: &[__m256; 2], alpha: f32, beta: Option<f32>, y: *mut f32) {
        for (r, &acc) in acc.iter().enumerate() {
            let yp = y.add(8 * r);
            let prior = match beta {
                Some(beta) => _mm256_mul_ps(_mm256_set1_ps(beta), _mm256_loadu_ps(yp)),
                None => _mm256_setzero_ps(),
            };
            _mm256_storeu_ps(yp, _mm256_fmadd_ps(_mm256_set1_ps(alpha), acc, prior));
        }
    }

    trans_kernel!(
        trans_f32, tree_f32, f32, __m256, regs: 2, per: 8,
        zero: _mm256_setzero_ps(), conj: _mm256_setzero_ps(),
        load_f32, bcast_f32, mac_f32, _mm256_add_ps, epi_f32,
    );

    // --- Real 16-bit: 8 lanes per register, widened to f32 ------------------

    macro_rules! half_real_trans {
        (
            $t:ty, $kernel:ident, $tree:ident, $load:ident, $bcast:ident, $mac:ident,
            $add:ident, $epi:ident, $widen8:ident, $narrow8:ident, $round8:ident
        ) => {
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $load(cols: &[*const $t], lane: usize, i: usize) -> __m256 {
                let v = |l: usize| bits::<_, i16>(cols[lane + l].add(i));
                $widen8(_mm_setr_epi16(v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7)))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $bcast(x: *const $t) -> __m256 {
                $widen8(_mm_set1_epi16(bits(x)))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $mac(a: __m256, _cm: __m256, x: __m256, acc: __m256) -> __m256 {
                $round8(_mm256_fmadd_ps(a, x, acc))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $add(l: __m256, r: __m256) -> __m256 {
                $round8(_mm256_add_ps(l, r))
            }

            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn $epi(acc: &[__m256; 2], alpha: $t, beta: Option<$t>, y: *mut $t) {
                let al = $bcast(&alpha);
                for (r, &acc) in acc.iter().enumerate() {
                    let yp = (y as *mut u16).add(8 * r) as *mut __m128i;
                    let prior = match beta {
                        Some(beta) => {
                            $round8(_mm256_mul_ps($bcast(&beta), $widen8(_mm_loadu_si128(yp))))
                        }
                        None => _mm256_setzero_ps(),
                    };
                    _mm_storeu_si128(yp, $narrow8($round8(_mm256_fmadd_ps(al, acc, prior))));
                }
            }

            trans_kernel!(
                $kernel, $tree, $t, __m256, regs: 2, per: 8,
                zero: _mm256_setzero_ps(), conj: _mm256_setzero_ps(),
                $load, $bcast, $mac, $add, $epi,
            );
        };
    }

    half_real_trans!(
        f16,
        trans_f16,
        tree_f16,
        load_f16,
        bcast_f16,
        mac_f16,
        add_f16,
        epi_f16,
        widen8_f16,
        narrow8_f16,
        round8_f16
    );
    half_real_trans!(
        bf16,
        trans_bf16,
        tree_bf16,
        load_bf16,
        bcast_bf16,
        mac_bf16,
        add_bf16,
        epi_bf16,
        widen8_bf16,
        narrow8_bf16,
        round8_bf16
    );
}
