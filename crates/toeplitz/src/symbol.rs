//! Circulant embedding symbols: the frequency-domain setup shared by
//! every pipeline variant of one operator.
//!
//! Embedding a multi-level Toeplitz matrix into a multi-level circulant
//! turns its matvec into `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad`, where
//! `ĉ` — the *symbol spectrum* — is the N-d FFT of the circulant's
//! first-column tensor. The symbol is the expensive, shareable part of
//! construction (like `F̂` for the 1-level pipeline): [`ToeplitzSymbol`]
//! is built once per generator, computed in double precision, and lazily
//! cast per tier the first time a configuration touches that tier, then
//! shared across every precision variant via `Arc`
//! ([`crate::TwoLevelToeplitz::builder_arc`]).
//!
//! Two embedding paths exist:
//!
//! * **Full** — one circulant grid of per-level even extents
//!   `m_l ≥ rows_l + cols_l - 1`.
//! * **Split** (Siron & Molesky, arXiv:2406.17981; two-level only) —
//!   the outer extent is forced to `m₁ = 2·n₁` with
//!   `n₁ = max(rows₁, cols₁)`, and the radix-2 decimation-in-frequency
//!   identity splits the outer transform into an *even* and an *odd*
//!   frequency channel, each living on a half grid of `n₁` outer rows.
//!   Because the padded input is zero in its second outer half, both
//!   channels read the same half-size input (the odd channel pre-twists
//!   by `w_j = e^{-iπj/n₁}`), so the pipeline processes the channels
//!   sequentially through **one** half-size workspace grid — halving
//!   peak scratch at the cost of a second FFT pass.

use std::sync::OnceLock;

use fftmatvec_core::ConfigError;
use fftmatvec_fft::{FftDirection, NdFft};
use fftmatvec_numeric::ndindex::total_len;
use fftmatvec_numeric::{ComplexBuffer, Precision, C64};

use crate::generator::{LevelDims, ToeplitzGenerator};

/// One spectrum stored in double precision with lazily materialized
/// per-tier casts — the `F̂`-style cache of the 1-level pipeline. Every
/// tier is held as a [`ComplexBuffer`] so the pointwise multiply can
/// hand the spectrum straight to a
/// [`DeviceBackend`](fftmatvec_backend::DeviceBackend) primitive.
pub(crate) struct TierSpectra {
    d: ComplexBuffer,
    s: OnceLock<ComplexBuffer>,
    h: OnceLock<ComplexBuffer>,
    b: OnceLock<ComplexBuffer>,
}

/// Narrow a double spectrum into tier `p` (same rounding as the 1-level
/// pipeline's `F̂` casts).
fn narrowed(d: &[C64], p: Precision) -> ComplexBuffer {
    match p {
        Precision::Half => ComplexBuffer::C16(d.iter().map(|z| z.cast()).collect()),
        Precision::BFloat16 => ComplexBuffer::CB16(d.iter().map(|z| z.cast()).collect()),
        Precision::Single => ComplexBuffer::C32(d.iter().map(|z| z.cast()).collect()),
        Precision::Double => ComplexBuffer::C64(d.to_vec()),
    }
}

impl TierSpectra {
    fn new(d: Vec<C64>) -> Self {
        TierSpectra {
            d: ComplexBuffer::C64(d),
            s: OnceLock::new(),
            h: OnceLock::new(),
            b: OnceLock::new(),
        }
    }

    pub(crate) fn c64(&self) -> &[C64] {
        match &self.d {
            ComplexBuffer::C64(v) => v,
            _ => unreachable!("TierSpectra base spectrum is always double"),
        }
    }

    /// The spectrum as a device buffer in tier `p`, narrowing lazily on
    /// first request.
    pub(crate) fn buffer(&self, p: Precision) -> &ComplexBuffer {
        match p {
            Precision::Double => &self.d,
            Precision::Single => self.s.get_or_init(|| narrowed(self.c64(), p)),
            Precision::Half => self.h.get_or_init(|| narrowed(self.c64(), p)),
            Precision::BFloat16 => self.b.get_or_init(|| narrowed(self.c64(), p)),
        }
    }

    /// Materialize the cast for `p` (warm-up; keeps applies
    /// allocation-free).
    pub(crate) fn warm(&self, p: Precision) {
        let _ = self.buffer(p);
    }
}

/// Which embedding realizes the operator.
pub(crate) enum SpectraSet {
    /// One spectrum over the full circulant grid.
    Full(TierSpectra),
    /// Split-FFT: even/odd outer-frequency channels over half grids,
    /// plus the input twist `w_j = e^{-iπj/n₁}` and the output
    /// reconstruction phase `e^{+iπn/n₁}` for the odd channel.
    Split { even: TierSpectra, odd: TierSpectra, twist: Vec<C64>, untwist: Vec<C64> },
}

/// The shared, immutable frequency-domain setup of one multi-level
/// Toeplitz operator: generator, embedding extents, symbol spectra (with
/// per-tier lazy casts), and the one-time condition estimate. Buildable
/// once and shared across precision variants via `Arc`.
pub struct ToeplitzSymbol {
    gen: ToeplitzGenerator,
    /// Full circulant extents per level (`m_l`).
    embed_dims: Vec<usize>,
    /// Extents of the working grid the pipeline allocates: equals
    /// `embed_dims` for the full path, `[m₁/2, m₂]` for split.
    work_dims: Vec<usize>,
    spectra: SpectraSet,
    kappa: f64,
}

impl std::fmt::Debug for ToeplitzSymbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToeplitzSymbol")
            .field("levels", &self.gen.levels())
            .field("embed_dims", &self.embed_dims)
            .field("split", &self.is_split())
            .finish()
    }
}

/// Smallest even circulant extent embedding a level: even lengths keep
/// the extent choices uniform across paths (the split path needs even
/// `m₁` structurally).
fn embed_len(level: LevelDims) -> usize {
    let s = level.diags();
    s + (s % 2)
}

/// First-column tensor of the multi-level circulant embedding `T` in a
/// grid of extents `dims`: per axis, position `k < rows` holds diagonal
/// `+k`, position `k ≥ m - (cols-1)` holds diagonal `k - m`, anything
/// between is zero (the embedding slack). An entry is non-zero only if
/// every axis maps.
fn circulant_column(gen: &ToeplitzGenerator, dims: &[usize]) -> Vec<C64> {
    let levels = gen.levels();
    let diag_dims: Vec<usize> = levels.iter().map(LevelDims::diags).collect();
    let diag_strides = fftmatvec_numeric::ndindex::strides_row_major(&diag_dims);
    // Per-axis map: circulant coordinate → generator axis coordinate.
    let maps: Vec<Vec<Option<usize>>> = levels
        .iter()
        .zip(dims)
        .map(|(lv, &m)| {
            (0..m)
                .map(|k| {
                    if k < lv.rows {
                        Some(lv.cols - 1 + k)
                    } else if k + lv.cols > m {
                        // k - m ∈ [-(cols-1), -1] → axis index cols-1+k-m
                        Some(lv.cols - 1 + k - m)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    let total = total_len(dims);
    let mut col = vec![C64::new(0.0, 0.0); total];
    let mut idx = vec![0usize; dims.len()];
    for (flat, slot) in col.iter_mut().enumerate() {
        fftmatvec_numeric::ndindex::decompose(flat, dims, &mut idx);
        let mut diag_flat = 0usize;
        let mut hit = true;
        for (l, &k) in idx.iter().enumerate() {
            match maps[l][k] {
                Some(a) => diag_flat += a * diag_strides[l],
                None => {
                    hit = false;
                    break;
                }
            }
        }
        if hit {
            *slot = C64::new(gen.diagonals()[diag_flat], 0.0);
        }
    }
    col
}

/// Forward N-d FFT of the first-column tensor (double precision,
/// construction time).
fn symbol_spectrum(dims: &[usize], mut col: Vec<C64>) -> Vec<C64> {
    let nd = NdFft::<f64>::new(dims);
    let mut partner = vec![C64::new(0.0, 0.0); col.len()];
    nd.process(&mut col, &mut partner, FftDirection::Forward);
    col
}

/// Conservative condition proxy from the circulant spectrum:
/// `max|ĉ| / min|ĉ|`, capped so a (near-)singular embedding yields a
/// large-but-finite κ instead of ∞.
fn spectrum_condition(chat: &[C64]) -> f64 {
    let mut amax = 0.0f64;
    let mut amin = f64::INFINITY;
    for z in chat {
        let a = z.abs();
        amax = amax.max(a);
        amin = amin.min(a);
    }
    if amax == 0.0 {
        return 1.0;
    }
    (amax / amin.max(amax * 1e-16)).max(1.0)
}

impl ToeplitzSymbol {
    /// Build the full-embedding symbol for any number of levels.
    pub fn full(gen: ToeplitzGenerator) -> Result<ToeplitzSymbol, ConfigError> {
        let embed_dims: Vec<usize> = gen.levels().iter().map(|&l| embed_len(l)).collect();
        let chat = symbol_spectrum(&embed_dims, circulant_column(&gen, &embed_dims));
        let kappa = spectrum_condition(&chat);
        let work_dims = embed_dims.clone();
        Ok(ToeplitzSymbol {
            gen,
            embed_dims,
            work_dims,
            spectra: SpectraSet::Full(TierSpectra::new(chat)),
            kappa,
        })
    }

    /// Build the split-FFT symbol (two-level generators only): outer
    /// extent `m₁ = 2·n₁` with `n₁ = max(rows₁, cols₁)`, spectrum
    /// pre-split into even/odd outer-frequency half grids.
    pub fn split(gen: ToeplitzGenerator) -> Result<ToeplitzSymbol, ConfigError> {
        if gen.levels().len() != 2 {
            return Err(ConfigError::Unsupported { what: "split-FFT needs exactly two levels" });
        }
        let outer = gen.levels()[0];
        let n1 = outer.rows.max(outer.cols);
        let m1 = 2 * n1;
        debug_assert!(m1 >= outer.diags(), "2·max(r,c) ≥ r+c-1 always");
        let m2 = embed_len(gen.levels()[1]);
        let embed_dims = vec![m1, m2];
        let chat = symbol_spectrum(&embed_dims, circulant_column(&gen, &embed_dims));
        let kappa = spectrum_condition(&chat);
        let mut even = vec![C64::new(0.0, 0.0); n1 * m2];
        let mut odd = vec![C64::new(0.0, 0.0); n1 * m2];
        for k in 0..n1 {
            even[k * m2..(k + 1) * m2].copy_from_slice(&chat[(2 * k) * m2..(2 * k + 1) * m2]);
            odd[k * m2..(k + 1) * m2].copy_from_slice(&chat[(2 * k + 1) * m2..(2 * k + 2) * m2]);
        }
        let theta = std::f64::consts::PI / n1 as f64;
        let twist: Vec<C64> = (0..n1).map(|j| C64::expi(-theta * j as f64)).collect();
        let untwist: Vec<C64> = (0..n1).map(|n| C64::expi(theta * n as f64)).collect();
        Ok(ToeplitzSymbol {
            gen,
            embed_dims,
            work_dims: vec![n1, m2],
            spectra: SpectraSet::Split {
                even: TierSpectra::new(even),
                odd: TierSpectra::new(odd),
                twist,
                untwist,
            },
            kappa,
        })
    }

    /// The generator this symbol was built from.
    pub fn generator(&self) -> &ToeplitzGenerator {
        &self.gen
    }

    /// Full circulant extents per level.
    pub fn embed_dims(&self) -> &[usize] {
        &self.embed_dims
    }

    /// Extents of the working grid one pipeline pass allocates.
    pub fn work_dims(&self) -> &[usize] {
        &self.work_dims
    }

    /// Total full-embedding grid length (`∏ embed_dims`) — the FFT-depth
    /// proxy the Eq. 6 bound uses as `N_t`.
    pub fn embed_total(&self) -> usize {
        total_len(&self.embed_dims)
    }

    /// Flat length of the working grid (`∏ work_dims`).
    pub fn grid_len(&self) -> usize {
        total_len(&self.work_dims)
    }

    /// Whether this symbol realizes the split-FFT path.
    pub fn is_split(&self) -> bool {
        matches!(self.spectra, SpectraSet::Split { .. })
    }

    /// One-time condition estimate `κ` from the circulant spectrum.
    pub fn condition_estimate(&self) -> f64 {
        self.kappa
    }

    pub(crate) fn spectra(&self) -> &SpectraSet {
        &self.spectra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_2l() -> ToeplitzGenerator {
        let diags: Vec<f64> = (0..5 * 7).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
        ToeplitzGenerator::two_level((3, 3), (4, 4), diags).unwrap()
    }

    #[test]
    fn full_embedding_dims_are_even_and_cover_all_diagonals() {
        let sym = ToeplitzSymbol::full(gen_2l()).unwrap();
        assert_eq!(sym.embed_dims(), &[6, 8]);
        assert_eq!(sym.work_dims(), &[6, 8]);
        assert!(!sym.is_split());
        assert_eq!(sym.grid_len(), 48);
    }

    #[test]
    fn split_embedding_halves_the_working_grid() {
        let sym = ToeplitzSymbol::split(gen_2l()).unwrap();
        assert_eq!(sym.embed_dims(), &[6, 8]);
        assert_eq!(sym.work_dims(), &[3, 8]);
        assert!(sym.is_split());
        assert_eq!(sym.grid_len(), sym.embed_total() / 2);
    }

    #[test]
    fn split_rejects_non_two_level_generators() {
        let gen = ToeplitzGenerator::new(&[(3, 3)], vec![1.0; 5]).unwrap();
        assert!(matches!(ToeplitzSymbol::split(gen), Err(ConfigError::Unsupported { .. })));
    }

    #[test]
    fn split_channels_interleave_the_full_spectrum() {
        let gen = gen_2l();
        let full = ToeplitzSymbol::full(gen.clone()).unwrap();
        let split = ToeplitzSymbol::split(gen).unwrap();
        // Same embedding extents here (diags odd → +1 even == 2·max).
        assert_eq!(full.embed_dims(), split.embed_dims());
        let SpectraSet::Full(f) = full.spectra() else { panic!() };
        let SpectraSet::Split { even, odd, .. } = split.spectra() else { panic!() };
        let m2 = 8;
        for k in 0..3 {
            for p in 0..m2 {
                let e = even.c64()[k * m2 + p];
                let o = odd.c64()[k * m2 + p];
                let fe = f.c64()[(2 * k) * m2 + p];
                let fo = f.c64()[(2 * k + 1) * m2 + p];
                assert!((e.re - fe.re).abs() < 1e-12 && (e.im - fe.im).abs() < 1e-12);
                assert!((o.re - fo.re).abs() < 1e-12 && (o.im - fo.im).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn condition_estimate_is_finite_and_at_least_one() {
        let sym = ToeplitzSymbol::full(gen_2l()).unwrap();
        let k = sym.condition_estimate();
        assert!(k.is_finite() && k >= 1.0);
    }
}
