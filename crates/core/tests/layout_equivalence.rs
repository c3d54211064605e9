//! Bit-for-bit equivalence of the tiled, pool-split layout kernels with
//! the naive strided loops they replaced.
//!
//! The oracles below are the element-at-a-time transposes: one source
//! element, one cast, one strided store. Every kernel in
//! `fftmatvec_core::layout` must reproduce them exactly — same storage
//! tier, same bits, NaN payloads and signed zeros included — over ragged
//! shapes that leave remainder tiles on both axes, on both sides of the
//! parallel grain, for every tier (pair) and every unpad route. The
//! destinations start out as NaN-filled or other-tier buffers longer
//! than needed, so a kernel that skipped any element (the pad's zero
//! tail in particular) would show stale values.

use fftmatvec_core::layout;
use fftmatvec_numeric::{Complex, ComplexBuffer, Precision, Real, RealBuffer, SplitMix64, C64};

/// Ragged extents: single elements, one short of / exactly / one past a
/// 16-wide tile, two tiles and a bit, and one large enough that every
/// kernel crosses the parallel grain (301·602 and 301·301 elements).
const DIMS: [usize; 7] = [1, 2, 15, 16, 17, 33, 301];

fn shapes() -> impl Iterator<Item = (usize, usize)> {
    DIMS.iter().flat_map(|&a| DIMS.iter().map(move |&b| (a, b)))
}

fn other_tier(p: Precision) -> Precision {
    match p {
        Precision::Double => Precision::Half,
        _ => Precision::Double,
    }
}

/// Uniform stuffed-mantissa data with special values sprinkled in:
/// signed zeros, infinities, NaN, values that overflow f16 or f32, and
/// an f16 subnormal.
fn data(n: usize, seed: u64) -> Vec<f64> {
    const SPECIAL: [f64; 9] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 7.0e4, 1.0e39, 3.0e-8, 1.0e-300];
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0.0; n];
    rng.fill_uniform_stuffed(&mut v, -2.0, 2.0);
    for (i, x) in v.iter_mut().enumerate().step_by(7) {
        *x = SPECIAL[(i / 7) % SPECIAL.len()];
    }
    v
}

fn complex_data(n: usize, seed: u64) -> Vec<C64> {
    let re = data(n, seed);
    let im = data(n, seed ^ 0x5a5a);
    re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
}

fn real_bits(b: &RealBuffer) -> (Precision, Vec<u64>) {
    (b.precision(), (0..b.len()).map(|i| b.get(i).to_bits()).collect())
}

fn complex_bits(b: &ComplexBuffer) -> (Precision, Vec<(u64, u64)>) {
    let bits = (0..b.len()).map(|i| b.get(i)).map(|z| (z.re.to_bits(), z.im.to_bits()));
    (b.precision(), bits.collect())
}

fn nan_real(p: Precision, n: usize) -> RealBuffer {
    RealBuffer::from_f64(p, &vec![f64::NAN; n])
}

fn nan_complex(p: Precision, n: usize) -> ComplexBuffer {
    ComplexBuffer::from_c64(p, &vec![Complex::new(f64::NAN, f64::NAN); n])
}

/// Oracle phase 1: zero the whole padded buffer, then scatter one
/// element per output row.
fn oracle_pad(m: &[f64], n_series: usize, nt: usize, p: Precision) -> RealBuffer {
    fn inner<T: Real>(m: &[f64], n_series: usize, nt: usize, out: &mut [T]) {
        let n2 = 2 * nt;
        for t in 0..nt {
            for s in 0..n_series {
                out[s * n2 + t] = T::from_f64(m[t * n_series + s]);
            }
        }
    }
    let mut out = RealBuffer::zeros(p, n_series * 2 * nt);
    match &mut out {
        RealBuffer::F16(v) => inner(m, n_series, nt, v),
        RealBuffer::BF16(v) => inner(m, n_series, nt, v),
        RealBuffer::F32(v) => inner(m, n_series, nt, v),
        RealBuffer::F64(v) => inner(m, n_series, nt, v),
    }
    out
}

/// Oracle reorder: `src[outer][inner] → out[inner][outer]`, cast to `p`.
fn oracle_transpose(
    src: &ComplexBuffer,
    outer: usize,
    inner: usize,
    p: Precision,
) -> ComplexBuffer {
    fn run<Tin: Real, Tout: Real>(
        src: &[Complex<Tin>],
        outer: usize,
        inner: usize,
        out: &mut [Complex<Tout>],
    ) {
        for o in 0..outer {
            for i in 0..inner {
                out[i * outer + o] = src[o * inner + i].cast();
            }
        }
    }
    let mut out = ComplexBuffer::zeros(p, outer * inner);
    macro_rules! arms {
        ($s:expr, $($var:ident),+) => {
            match &mut out {
                $(ComplexBuffer::$var(o) => run($s, outer, inner, o),)+
            }
        };
    }
    match src {
        ComplexBuffer::C16(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::CB16(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::C32(s) => arms!(s, C16, CB16, C32, C64),
        ComplexBuffer::C64(s) => arms!(s, C16, CB16, C32, C64),
    }
    out
}

/// Oracle phase 5: drop the padding and transpose, matching on the
/// route for every element.
fn oracle_unpad(time: &RealBuffer, n_series: usize, nt: usize, p: Precision) -> Vec<f64> {
    let route = (!time.precision().widens_exactly_to(p)).then_some(p);
    let mut out = vec![0.0; n_series * nt];
    for s in 0..n_series {
        for t in 0..nt {
            let x = time.get(s * 2 * nt + t);
            out[t * n_series + s] = match route {
                None => x,
                Some(p) => p.round_f64(x),
            };
        }
    }
    out
}

#[test]
fn pad_matches_oracle_for_every_tier_and_rewrites_the_tail() {
    for p in Precision::ALL {
        // Carried across shapes: every call starts from the previous
        // shape's values, never from zeros.
        let mut reused = nan_real(p, 1);
        for (n_series, nt) in shapes() {
            let m = data(n_series * nt, (n_series * 1000 + nt) as u64);
            let want = real_bits(&oracle_pad(&m, n_series, nt, p));
            let len = 2 * n_series * nt;
            for mut out in [
                RealBuffer::F64(Vec::new()),
                nan_real(p, len + 37),
                nan_real(other_tier(p), len + 37),
            ] {
                layout::pad_input_into(&m, n_series, nt, p, &mut out);
                assert_eq!(real_bits(&out), want, "pad {p} {n_series}x{nt}");
            }
            layout::pad_input_into(&m, n_series, nt, p, &mut reused);
            assert_eq!(real_bits(&reused), want, "pad {p} {n_series}x{nt} reused");
            assert_eq!(real_bits(&layout::pad_input(&m, n_series, nt, p)), want);
        }
    }
}

#[test]
fn reorders_match_oracle_for_every_tier_pair() {
    for from in Precision::ALL {
        for to in Precision::ALL {
            for (n_series, nfreq) in shapes() {
                let src =
                    ComplexBuffer::from_c64(from, &complex_data(n_series * nfreq, nfreq as u64));
                let len = n_series * nfreq;
                let to_batch = complex_bits(&oracle_transpose(&src, n_series, nfreq, to));
                let to_spec = complex_bits(&oracle_transpose(&src, nfreq, n_series, to));
                for fill in [to, other_tier(to)] {
                    let mut out = nan_complex(fill, len + 19);
                    layout::spectrum_to_batch_into(&src, n_series, nfreq, to, &mut out);
                    assert_eq!(complex_bits(&out), to_batch, "s2b {from}->{to} {n_series}x{nfreq}");
                    let mut out = nan_complex(fill, len + 19);
                    layout::batch_to_spectrum_into(&src, n_series, nfreq, to, &mut out);
                    assert_eq!(complex_bits(&out), to_spec, "b2s {from}->{to} {n_series}x{nfreq}");
                }
            }
        }
    }
}

#[test]
fn unpad_matches_oracle_on_every_route() {
    for stored in Precision::ALL {
        for p in Precision::ALL {
            for (n_series, nt) in shapes() {
                let raw = data(n_series * 2 * nt, (nt * 1000 + n_series) as u64);
                let time = RealBuffer::from_f64(stored, &raw);
                let want: Vec<u64> =
                    oracle_unpad(&time, n_series, nt, p).iter().map(|x| x.to_bits()).collect();
                let mut out = vec![f64::NAN; n_series * nt];
                layout::unpad_output_into(&time, n_series, nt, p, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "unpad {stored} via {p} {n_series}x{nt}");
            }
        }
    }
}
