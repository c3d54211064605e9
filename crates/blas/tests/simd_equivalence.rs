//! Bit-for-bit equivalence of the vectorized SBGEMV kernels against the
//! scalar sweeps, across every dispatch level, for all eight `Scalar`
//! types (4 real + 4 complex): the row-lane `NoTrans` tile base case and
//! the column-group `Trans`/`ConjTrans` sweep, the latter over every row
//! count that reaches the cross-column pairwise tree, every column-group
//! remainder, padded geometries and IEEE special values.

use std::sync::Mutex;

use fftmatvec_blas::kernels::run_kernel;
use fftmatvec_blas::{BatchGeometry, GemvOp, KernelChoice};
use fftmatvec_numeric::half::{bf16, f16};
use fftmatvec_numeric::simd::{level_supported, set_active_level, SimdLevel};
use fftmatvec_numeric::{Complex, Scalar, SplitMix64};

/// Guards the process-global dispatch level against concurrent tests.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Neon]
        .into_iter()
        .filter(|&l| level_supported(l))
        .collect()
}

fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
    (0..len).map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

fn digest<S: Scalar>(v: &[S]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|s| {
            let (re, im) = s.to_f64_parts();
            (re.to_bits(), im.to_bits())
        })
        .collect()
}

/// Run both kernel choices and all three ops over one geometry at the
/// current dispatch level.
fn run_all<S: Scalar>(m: usize, n: usize, batch: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut digests = Vec::new();
    for op in [GemvOp::NoTrans, GemvOp::Trans, GemvOp::ConjTrans] {
        let mut rng = SplitMix64::new(seed);
        let g = BatchGeometry::packed(m, n, op, batch);
        let a: Vec<S> = fill(&mut rng, batch * m * n);
        let x: Vec<S> = fill(&mut rng, batch * op.input_len(m, n));
        let y0: Vec<S> = fill(&mut rng, batch * op.output_len(m, n));
        let alpha = S::from_f64_parts(1.25, -0.5);
        let beta = S::from_f64_parts(0.75, 0.25);
        for kernel in [KernelChoice::Reference, KernelChoice::Optimized] {
            let mut y = y0.clone();
            run_kernel(kernel, op, alpha, &a, &x, beta, &mut y, &g);
            digests.push(digest(&y));
        }
    }
    digests
}

/// Shapes exercising the full vector body, the remainder rows of every
/// lane width (1–7 leftover rows), multiple row tiles, and the pairwise
/// tree above the base case (n > 16).
const SHAPES: &[(usize, usize, usize)] = &[(8, 20, 2), (12, 100, 1), (67, 33, 2), (5, 130, 3)];

fn check_tier<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for &(m, n, batch) in SHAPES {
        let seed = (m * 1000 + n * 10 + batch) as u64;
        set_active_level(SimdLevel::Portable);
        let reference = run_all::<S>(m, n, batch, seed);
        for &level in &levels {
            set_active_level(level);
            assert_eq!(
                run_all::<S>(m, n, batch, seed),
                reference,
                "m={m} n={n} batch={batch} level={level}"
            );
        }
    }
    set_active_level(prev);
}

#[test]
fn gemv_identical_across_levels_f32() {
    check_tier::<f32>();
}

#[test]
fn gemv_identical_across_levels_f64() {
    check_tier::<f64>();
}

#[test]
fn gemv_identical_across_levels_f16() {
    check_tier::<f16>();
}

#[test]
fn gemv_identical_across_levels_bf16() {
    check_tier::<bf16>();
}

#[test]
fn gemv_identical_across_levels_c32() {
    check_tier::<Complex<f32>>();
}

#[test]
fn gemv_identical_across_levels_c64() {
    check_tier::<Complex<f64>>();
}

#[test]
fn gemv_identical_across_levels_c16() {
    check_tier::<Complex<f16>>();
}

#[test]
fn gemv_identical_across_levels_cb16() {
    check_tier::<Complex<bf16>>();
}

// ---------------------------------------------------------------------------
// Transposed sweep: column-group kernels vs forced `Portable`
// ---------------------------------------------------------------------------

/// Bit patterns of every component, with each NaN reduced to "NaN".
///
/// Signed zeros, infinities and subnormals are compared bitwise. A NaN
/// must appear exactly where the reference has one, but its sign and
/// payload are not compared: when two NaNs meet in one add or FMA,
/// IEEE-754 leaves the result's sign and payload open, x86 picks by
/// instruction operand position, and the compiler may commute or
/// re-form those operands — the scalar path itself (and the libm `fma`
/// it calls) gives no fixed answer there.
fn digest_nan_class<S: Scalar>(v: &[S]) -> Vec<[Option<u64>; 2]> {
    let bits = |c: f64| (!c.is_nan()).then(|| c.to_bits());
    v.iter()
        .map(|s| {
            let (re, im) = s.to_f64_parts();
            [bits(re), bits(im)]
        })
        .collect()
}

/// Special values, each subnormal in one of the four real tiers
/// (f64, f32, f16, bf16) and a normal or zero in the others.
const SPECIALS: [f64; 9] =
    [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, 1e-310, 1e-40, 3e-6, -1e-39];

/// Values in ±1e3 with roughly one entry in `special_every` (0: none)
/// replaced by an IEEE special value, independently per component.
fn fill_special<S: Scalar>(rng: &mut SplitMix64, len: usize, special_every: usize) -> Vec<S> {
    let component = |rng: &mut SplitMix64| {
        if special_every > 0 && rng.next_usize(special_every) == 0 {
            SPECIALS[rng.next_usize(SPECIALS.len())]
        } else {
            rng.uniform(-1.0, 1.0) * [1.0, 1e-3, 1e3][rng.next_usize(3)]
        }
    };
    (0..len)
        .map(|_| {
            let re = component(rng);
            S::from_f64_parts(re, component(rng))
        })
        .collect()
}

/// One transposed-sweep case: op × kernel × β ∈ {0, ≠0} over a batch of
/// two padded matrices. Returns the output digest of every leg.
fn trans_case<S: Scalar>(
    m: usize,
    n: usize,
    pad: usize,
    special_every: usize,
) -> Vec<Vec<[Option<u64>; 2]>> {
    let batch = 2;
    let g = BatchGeometry {
        m,
        n,
        lda: m + pad,
        stride_a: (m + pad) * n + pad,
        stride_x: m + pad,
        stride_y: n + pad,
        batch,
    };
    let mut rng = SplitMix64::new((m * 4099 + n * 31 + pad) as u64);
    let a: Vec<S> = fill_special(&mut rng, batch * g.stride_a, special_every);
    let x: Vec<S> = fill_special(&mut rng, batch * g.stride_x, special_every);
    let y0: Vec<S> = fill_special(&mut rng, batch * g.stride_y, special_every);
    let alpha = S::from_f64_parts(1.25, -0.5);
    let mut out = Vec::new();
    for op in [GemvOp::Trans, GemvOp::ConjTrans] {
        for beta in [S::zero(), S::from_f64_parts(0.75, 0.25)] {
            for kernel in [KernelChoice::Reference, KernelChoice::Optimized] {
                let mut y = y0.clone();
                run_kernel(kernel, op, alpha, &a, &x, beta, &mut y, &g);
                out.push(digest_nan_class(&y));
            }
        }
    }
    out
}

/// `(m, n)` pairs: every `m` in 1..=40 (the tree above the 16-row base
/// case starts at 17 and recurses twice by 33) with `n` walking all of
/// 1..=33 — every remainder of the 8- and 16-column groups, below and
/// above one full group — plus every `n` for a base-case-only and a
/// one-level-tree row count.
fn trans_shapes() -> Vec<(usize, usize)> {
    let mut shapes: Vec<(usize, usize)> = (1..=40).map(|m| (m, 1 + (7 * m) % 33)).collect();
    for m in [1, 17] {
        shapes.extend((1..=33).map(|n| (m, n)));
    }
    shapes
}

fn check_trans_tier<S: Scalar>() {
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let levels = supported_levels();
    let prev = set_active_level(SimdLevel::Portable);
    for (m, n) in trans_shapes() {
        for (pad, special_every) in [(0, 0), (3, 8)] {
            set_active_level(SimdLevel::Portable);
            let reference = trans_case::<S>(m, n, pad, special_every);
            for &level in &levels {
                set_active_level(level);
                let got = trans_case::<S>(m, n, pad, special_every);
                for (leg, (g, r)) in got.iter().zip(&reference).enumerate() {
                    let at = g.iter().zip(r).position(|(g, r)| g != r);
                    assert!(
                        at.is_none(),
                        "m={m} n={n} pad={pad} specials={special_every} level={level}: \
                         leg {leg} differs at element {at:?}"
                    );
                }
            }
        }
    }
    set_active_level(prev);
}

#[test]
fn trans_identical_across_levels_f32() {
    check_trans_tier::<f32>();
}

#[test]
fn trans_identical_across_levels_f64() {
    check_trans_tier::<f64>();
}

#[test]
fn trans_identical_across_levels_f16() {
    check_trans_tier::<f16>();
}

#[test]
fn trans_identical_across_levels_bf16() {
    check_trans_tier::<bf16>();
}

#[test]
fn trans_identical_across_levels_c32() {
    check_trans_tier::<Complex<f32>>();
}

#[test]
fn trans_identical_across_levels_c64() {
    check_trans_tier::<Complex<f64>>();
}

#[test]
fn trans_identical_across_levels_c16() {
    check_trans_tier::<Complex<f16>>();
}

#[test]
fn trans_identical_across_levels_cb16() {
    check_trans_tier::<Complex<bf16>>();
}
