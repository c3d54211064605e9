//! The multi-level Toeplitz realizations of [`LinearOperator`]:
//! [`NdCirculantEmbedding`] (any level count, full circulant grid) and
//! [`TwoLevelToeplitz`] (the `L = 2` case, with the optional
//! memory-optimized split-FFT path).
//!
//! Both run the same five-phase mixed-precision pipeline as the 1-level
//! `FftMatvec` — Pad (grid embedding), Fft (forward N-d transform),
//! Sbgemv (the pointwise symbol multiply; the per-frequency blocks are
//! 1×1 so the batched GEMV degenerates to a Hadamard product), Ifft,
//! Unpad (head extraction) — over a full 4-tier [`PrecisionConfig`],
//! with pooled zero-allocation workspaces and runtime reconfiguration.

use std::sync::Arc;

use fftmatvec_backend::{BackendKind, DeviceBackend};
use fftmatvec_core::autotune::{self, AutotuneState};
use fftmatvec_core::workspace::{Workspace, WorkspacePool};
use fftmatvec_core::{
    check_apply, AutotuneChoice, BoundParams, ConfigError, ConfigurableOperator, LinearOperator,
    MatvecPhase, OpDirection, OpError, OpShape, PhaseWeights, PrecisionConfig,
};
use fftmatvec_fft::{cache, FftDirection, PlanHandle};
use fftmatvec_numeric::{ComplexBuffer, Precision};

use crate::engines::NdTierEngines;
use crate::generator::{ToeplitzGenerator, MAX_LEVELS};
use crate::kernels;
use crate::symbol::{SpectraSet, TierSpectra, ToeplitzSymbol};

/// One apply's worth of grid buffers. Under a fixed configuration each
/// buffer keeps a stable tier across applies, so `reset_for_overwrite`
/// reuses the allocation every time: `spec`/`specb` are the forward
/// grid and its rotation partner in the Fft tier, `mid` materializes
/// only when the Sbgemv tier differs, and `ispec`/`ispecb` only when
/// the Ifft tier differs from its predecessor.
#[derive(Default)]
struct GridWorkspace {
    spec: ComplexBuffer,
    specb: ComplexBuffer,
    mid: ComplexBuffer,
    ispec: ComplexBuffer,
    ispecb: ComplexBuffer,
}

impl Workspace for GridWorkspace {
    fn bytes(&self) -> usize {
        [&self.spec, &self.specb, &self.mid, &self.ispec, &self.ispecb]
            .iter()
            .map(|b| b.bytes())
            .sum()
    }
}

/// The shared pipeline engine behind both public realizations. Holds the
/// immutable symbol (shareable across precision variants via `Arc`), the
/// per-tier N-d FFT engines, and the pooled workspaces.
pub(crate) struct Core {
    sym: Arc<ToeplitzSymbol>,
    cfg: PrecisionConfig,
    backend: BackendKind,
    device: Arc<dyn DeviceBackend>,
    engines: NdTierEngines,
    pool: WorkspacePool<GridWorkspace>,
    shape: OpShape,
    kappa: f64,
    autotune: AutotuneState,
}

// ---------------------------------------------------------------------
// Tier dispatch helpers: one `match` per phase boundary, mirroring the
// 1-level pipeline's phase dispatch (`_ =>` arms are tier mismatches
// that the buffer-reset discipline makes unreachable).
// ---------------------------------------------------------------------

fn pad_full_dispatch(
    in_dims: &[usize],
    grid_dims: &[usize],
    input: &[f64],
    p_pad: Precision,
    dst: &mut ComplexBuffer,
) {
    match dst {
        ComplexBuffer::C16(v) => {
            kernels::zero_fill(v);
            kernels::embed_head(in_dims, grid_dims, input, p_pad, v);
        }
        ComplexBuffer::CB16(v) => {
            kernels::zero_fill(v);
            kernels::embed_head(in_dims, grid_dims, input, p_pad, v);
        }
        ComplexBuffer::C32(v) => {
            kernels::zero_fill(v);
            kernels::embed_head(in_dims, grid_dims, input, p_pad, v);
        }
        ComplexBuffer::C64(v) => {
            kernels::zero_fill(v);
            kernels::embed_head(in_dims, grid_dims, input, p_pad, v);
        }
    }
}

fn extract_full_dispatch(
    out_dims: &[usize],
    grid_dims: &[usize],
    grid: &ComplexBuffer,
    p_unpad: Precision,
    out: &mut [f64],
) {
    match grid {
        ComplexBuffer::C16(v) => kernels::extract_head(out_dims, grid_dims, v, p_unpad, out),
        ComplexBuffer::CB16(v) => kernels::extract_head(out_dims, grid_dims, v, p_unpad, out),
        ComplexBuffer::C32(v) => kernels::extract_head(out_dims, grid_dims, v, p_unpad, out),
        ComplexBuffer::C64(v) => kernels::extract_head(out_dims, grid_dims, v, p_unpad, out),
    }
}

fn fftn_dispatch(
    engines: &NdTierEngines,
    data: &mut ComplexBuffer,
    partner: &mut ComplexBuffer,
    dir: FftDirection,
) -> Result<(), OpError> {
    match (data, partner) {
        (ComplexBuffer::C16(x), ComplexBuffer::C16(y)) => engines.fft16().process(x, y, dir),
        (ComplexBuffer::CB16(x), ComplexBuffer::CB16(y)) => engines.fftb16().process(x, y, dir),
        (ComplexBuffer::C32(x), ComplexBuffer::C32(y)) => engines.fft32().process(x, y, dir),
        (ComplexBuffer::C64(x), ComplexBuffer::C64(y)) => engines.fft64().process(x, y, dir),
        _ => return Err(OpError::Internal("toeplitz fft tier mismatch")),
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn pad_split_dispatch(
    in_outer: usize,
    in_inner: usize,
    m2: usize,
    input: &[f64],
    p_pad: Precision,
    twist: Option<&[fftmatvec_numeric::C64]>,
    dst: &mut ComplexBuffer,
) {
    match dst {
        ComplexBuffer::C16(v) => kernels::pad_split(in_outer, in_inner, m2, input, p_pad, twist, v),
        ComplexBuffer::CB16(v) => {
            kernels::pad_split(in_outer, in_inner, m2, input, p_pad, twist, v)
        }
        ComplexBuffer::C32(v) => kernels::pad_split(in_outer, in_inner, m2, input, p_pad, twist, v),
        ComplexBuffer::C64(v) => kernels::pad_split(in_outer, in_inner, m2, input, p_pad, twist, v),
    }
}

#[allow(clippy::too_many_arguments)]
fn extract_split_dispatch(
    out_outer: usize,
    out_inner: usize,
    m2: usize,
    grid: &ComplexBuffer,
    p_unpad: Precision,
    weight: Option<&[fftmatvec_numeric::C64]>,
    accumulate: bool,
    out: &mut [f64],
) {
    match grid {
        ComplexBuffer::C16(v) => {
            kernels::extract_split(out_outer, out_inner, m2, v, p_unpad, weight, accumulate, out)
        }
        ComplexBuffer::CB16(v) => {
            kernels::extract_split(out_outer, out_inner, m2, v, p_unpad, weight, accumulate, out)
        }
        ComplexBuffer::C32(v) => {
            kernels::extract_split(out_outer, out_inner, m2, v, p_unpad, weight, accumulate, out)
        }
        ComplexBuffer::C64(v) => {
            kernels::extract_split(out_outer, out_inner, m2, v, p_unpad, weight, accumulate, out)
        }
    }
}

impl Core {
    fn new(
        sym: Arc<ToeplitzSymbol>,
        cfg: PrecisionConfig,
        backend: Option<BackendKind>,
        kappa_override: Option<f64>,
    ) -> Result<Core, ConfigError> {
        let kind = BackendKind::resolve(backend)?;
        let device = fftmatvec_backend::create(kind)?;
        let shape = OpShape::new(sym.generator().rows(), sym.generator().cols());
        let kappa = kappa_override.unwrap_or_else(|| sym.condition_estimate());
        let core = Core {
            engines: NdTierEngines::new(sym.work_dims().to_vec()),
            pool: WorkspacePool::default(),
            shape,
            kappa,
            cfg,
            backend: kind,
            device,
            sym,
            autotune: AutotuneState::default(),
        };
        core.warm_for(cfg);
        Ok(core)
    }

    /// Materialize everything `cfg` touches: FFT engines and the Sbgemv
    /// tier's spectrum cast (applies stay allocation-free).
    fn warm_for(&self, cfg: PrecisionConfig) {
        self.engines.warm(cfg);
        let p = cfg.phase(MatvecPhase::Sbgemv);
        match self.sym.spectra() {
            SpectraSet::Full(sp) => sp.warm(p),
            SpectraSet::Split { even, odd, .. } => {
                even.warm(p);
                odd.warm(p);
            }
        }
    }

    fn set_config(&mut self, cfg: PrecisionConfig) {
        self.engines.retain(cfg);
        self.cfg = cfg;
        self.warm_for(cfg);
    }

    /// Eq. 6 parameters for this operator: the N-d transform depth is
    /// `log₂(∏ m_l)` regardless of path (split runs the same total work
    /// in two channels), and the pointwise Sbgemv reduces over a single
    /// element (`n_local = 1`).
    fn bound_params(&self, dir: OpDirection) -> BoundParams {
        BoundParams::for_direction(dir, self.sym.embed_total(), 1, 1, 1, 1, self.kappa)
    }

    fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
        PhaseWeights::for_shape(1, 1, self.sym.embed_total(), dir)
    }

    /// Re-resolve the configuration for `budget` through the shared
    /// autotune path (the tier calibration persists across calls); on
    /// error the current configuration stays.
    fn retune_budget(&mut self, dir: OpDirection, budget: f64) -> Result<AutotuneChoice, OpError> {
        let (params, weights) = (self.bound_params(dir), self.phase_weights(dir));
        autotune::resolve_budget(self, |core| &mut core.autotune, dir, budget, &params, &weights)
    }

    /// One full pipeline pass, all intermediates drawn from `ws`. Caller
    /// has validated `input`/`out` lengths.
    fn run(
        &self,
        dir: OpDirection,
        input: &[f64],
        out: &mut [f64],
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        match self.sym.spectra() {
            SpectraSet::Full(_) => self.run_full(dir, input, out, ws),
            SpectraSet::Split { .. } => self.run_split(dir, input, out, ws),
        }
    }

    /// Phases 1–4 on one grid, all buffers drawn from `ws`: `pad` fills
    /// the Fft-tier grid, then the forward N-d FFT in cfg[Fft],
    /// the pointwise multiply by `sp` in cfg[Sbgemv] through the device
    /// backend's cast and Hadamard primitives, and the inverse N-d FFT in
    /// cfg[Ifft]. Returns the buffer holding the inverse transform. Each
    /// FFT operand sits in a buffer of its tier with a same-tier rotation
    /// partner, one buffer per role, so tiers stay stable across applies
    /// under a fixed configuration (zero steady-state allocation).
    fn grid_pass<'w>(
        &self,
        pad: impl FnOnce(&mut ComplexBuffer),
        sp: &TierSpectra,
        dir: OpDirection,
        ws: &'w mut GridWorkspace,
    ) -> Result<&'w ComplexBuffer, OpError> {
        let n = self.sym.grid_len();
        let p_fft = self.cfg.phase(MatvecPhase::Fft);
        let p_gemv = self.cfg.phase(MatvecPhase::Sbgemv);
        let p_ifft = self.cfg.phase(MatvecPhase::Ifft);
        let GridWorkspace { spec, specb, mid, ispec, ispecb } = ws;
        spec.reset_for_overwrite(p_fft, n);
        specb.reset_for_overwrite(p_fft, n);
        pad(spec);
        fftn_dispatch(&self.engines, spec, specb, FftDirection::Forward)?;

        let use_mid = p_gemv != p_fft;
        if use_mid {
            self.device.cast_complex(spec, p_gemv, mid)?;
        }
        let io = if use_mid { &mut *mid } else { &mut *spec };
        let conj = matches!(dir, OpDirection::Adjoint);
        self.device.pointwise_multiply(io, sp.buffer(p_gemv), conj)?;

        let (inv, partner) = if p_ifft != p_gemv {
            self.device.cast_complex(io, p_ifft, ispec)?;
            ispecb.reset_for_overwrite(p_ifft, n);
            (ispec, ispecb)
        } else if use_mid {
            ispecb.reset_for_overwrite(p_ifft, n);
            (mid, ispecb)
        } else {
            (spec, specb)
        };
        fftn_dispatch(&self.engines, inv, partner, FftDirection::Inverse)?;
        Ok(inv)
    }

    /// Full-embedding pipeline: pad → FFTN → ⊙ĉ → IFFTN → extract, one
    /// pass over the whole circulant grid.
    fn run_full(
        &self,
        dir: OpDirection,
        input: &[f64],
        out: &mut [f64],
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        let levels = self.sym.generator().levels();
        let nl = levels.len();
        let mut in_ext = [0usize; MAX_LEVELS];
        let mut out_ext = [0usize; MAX_LEVELS];
        for (l, lv) in levels.iter().enumerate() {
            match dir {
                OpDirection::Forward => {
                    in_ext[l] = lv.cols;
                    out_ext[l] = lv.rows;
                }
                OpDirection::Adjoint => {
                    in_ext[l] = lv.rows;
                    out_ext[l] = lv.cols;
                }
            }
        }
        let (in_dims, out_dims) = (&in_ext[..nl], &out_ext[..nl]);
        let grid_dims = self.sym.work_dims();
        let SpectraSet::Full(sp) = self.sym.spectra() else {
            return Err(OpError::Internal("full pipeline on a split symbol"));
        };
        let p_pad = self.cfg.phase(MatvecPhase::Pad);
        // Phase 1 — embed in cfg[Pad] (cast fused into the grid write).
        let pad = |grid: &mut ComplexBuffer| {
            pad_full_dispatch(in_dims, grid_dims, input, p_pad, grid);
        };
        let inv = self.grid_pass(pad, sp, dir, ws)?;
        // Phase 5 — head extraction through cfg[Unpad]; output is always
        // double.
        let p_unpad = self.cfg.phase(MatvecPhase::Unpad);
        extract_full_dispatch(out_dims, grid_dims, inv, p_unpad, out);
        Ok(())
    }

    /// Split-FFT pipeline (Siron & Molesky, arXiv:2406.17981): the even
    /// and odd outer-frequency channels stream **sequentially** through
    /// one half-size grid — two transform passes, half the peak scratch.
    /// The odd channel pre-twists the input rows and accumulates its
    /// reconstruction-weighted contribution straight into the `f64`
    /// output, so no full-size buffer ever materializes.
    fn run_split(
        &self,
        dir: OpDirection,
        input: &[f64],
        out: &mut [f64],
        ws: &mut GridWorkspace,
    ) -> Result<(), OpError> {
        let levels = self.sym.generator().levels();
        let (in_outer, in_inner, out_outer, out_inner) = match dir {
            OpDirection::Forward => {
                (levels[0].cols, levels[1].cols, levels[0].rows, levels[1].rows)
            }
            OpDirection::Adjoint => {
                (levels[0].rows, levels[1].rows, levels[0].cols, levels[1].cols)
            }
        };
        let m2 = self.sym.work_dims()[1];
        let SpectraSet::Split { even, odd, twist, untwist } = self.sym.spectra() else {
            return Err(OpError::Internal("split pipeline on a full symbol"));
        };
        let p_pad = self.cfg.phase(MatvecPhase::Pad);
        let p_unpad = self.cfg.phase(MatvecPhase::Unpad);

        for channel in 0..2u8 {
            let odd_channel = channel == 1;
            // Phase 1 — embed the (twisted) head into the half grid.
            let twist = odd_channel.then_some(&twist[..]);
            let pad = |grid: &mut ComplexBuffer| {
                pad_split_dispatch(in_outer, in_inner, m2, input, p_pad, twist, grid);
            };
            let inv = self.grid_pass(pad, if odd_channel { odd } else { even }, dir, ws)?;

            // Phase 5 — fold this channel into the output: the even
            // channel writes ½·E[n], the odd accumulates
            // ½·Re(e^{+iπn/n₁}·O[n]).
            extract_split_dispatch(
                out_outer,
                out_inner,
                m2,
                inv,
                p_unpad,
                if odd_channel { Some(untwist) } else { None },
                odd_channel,
                out,
            );
        }
        Ok(())
    }
}

impl LinearOperator for Core {
    fn shape(&self) -> OpShape {
        self.shape
    }

    fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape, OpDirection::Forward, input, out)?;
        self.run(OpDirection::Forward, input, out, &mut self.pool.checkout())
    }

    fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape, OpDirection::Adjoint, input, out)?;
        self.run(OpDirection::Adjoint, input, out, &mut self.pool.checkout())
    }

    fn apply_many_into(
        &self,
        dir: OpDirection,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), OpError> {
        self.pool.apply_many(self.shape, dir, inputs, outputs, |i, o, ws| self.run(dir, i, o, ws))
    }
}

impl ConfigurableOperator for Core {
    fn config(&self) -> PrecisionConfig {
        self.cfg
    }

    fn set_config(&mut self, cfg: PrecisionConfig) {
        Core::set_config(self, cfg);
    }
}

// ---------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------

enum SymbolSource {
    Gen(ToeplitzGenerator),
    Shared(Arc<ToeplitzSymbol>),
}

struct BuilderInner {
    source: SymbolSource,
    cfg: PrecisionConfig,
    backend: Option<BackendKind>,
    budget: Option<(OpDirection, f64)>,
    kappa: Option<f64>,
}

impl BuilderInner {
    fn new(source: SymbolSource) -> Self {
        BuilderInner {
            source,
            cfg: PrecisionConfig::all_double(),
            backend: None,
            budget: None,
            kappa: None,
        }
    }

    /// Resolve the symbol and assemble the core; `split` is the builder's
    /// requested path (`None` = full / inherit).
    fn build_core(self, split: Option<bool>, two_level_only: bool) -> Result<Core, ConfigError> {
        let sym = match self.source {
            SymbolSource::Gen(gen) => {
                if two_level_only && gen.levels().len() != 2 {
                    return Err(ConfigError::Unsupported {
                        what: "TwoLevelToeplitz needs exactly two levels",
                    });
                }
                Arc::new(if split == Some(true) {
                    ToeplitzSymbol::split(gen)?
                } else {
                    ToeplitzSymbol::full(gen)?
                })
            }
            SymbolSource::Shared(sym) => {
                if two_level_only && sym.generator().levels().len() != 2 {
                    return Err(ConfigError::Unsupported {
                        what: "TwoLevelToeplitz needs exactly two levels",
                    });
                }
                if let Some(want) = split {
                    if want != sym.is_split() {
                        return Err(ConfigError::Unsupported {
                            what: "shared symbol path conflicts with split_fft()",
                        });
                    }
                }
                sym
            }
        };
        let mut core = Core::new(sym, self.cfg, self.backend, self.kappa)?;
        if let Some((dir, budget)) = self.budget {
            core.retune_budget(dir, budget).map_err(autotune::build_error)?;
        }
        Ok(core)
    }
}

macro_rules! builder_setters {
    () => {
        /// Five-phase precision configuration (default `ddddd`).
        pub fn precision(mut self, cfg: PrecisionConfig) -> Self {
            self.inner.cfg = cfg;
            self
        }

        /// Execution backend. An explicit choice here wins over the
        /// `FFTMATVEC_BACKEND` environment override; when neither is set
        /// the operator runs on the CPU pool.
        pub fn backend(mut self, backend: fftmatvec_core::PipelineBackend) -> Self {
            self.inner.backend = Some(backend);
            self
        }

        /// Resolve the precision configuration from a forward-direction
        /// error budget at build time (see the 1-level builder's
        /// `error_budget`). Overrides any `precision(..)` setting.
        pub fn error_budget(self, budget: f64) -> Self {
            self.error_budget_for(OpDirection::Forward, budget)
        }

        /// [`error_budget`](Self::error_budget) for an explicit
        /// direction.
        pub fn error_budget_for(mut self, dir: OpDirection, budget: f64) -> Self {
            self.inner.budget = Some((dir, budget));
            self
        }

        /// Supply a known condition estimate instead of the symbol's
        /// spectrum-derived default.
        pub fn kappa_override(mut self, kappa: f64) -> Self {
            self.inner.kappa = Some(kappa);
            self
        }
    };
}

/// Builder for [`NdCirculantEmbedding`].
pub struct NdCirculantEmbeddingBuilder {
    inner: BuilderInner,
}

impl NdCirculantEmbeddingBuilder {
    builder_setters!();

    /// Build the operator: compute (or adopt) the symbol spectrum, warm
    /// the configured FFT engines through the process-wide plan cache,
    /// and — with an error budget set — run the autotune pass.
    pub fn build(self) -> Result<NdCirculantEmbedding, ConfigError> {
        Ok(NdCirculantEmbedding { core: self.inner.build_core(None, false)? })
    }
}

/// Builder for [`TwoLevelToeplitz`].
pub struct TwoLevelToeplitzBuilder {
    inner: BuilderInner,
    split: Option<bool>,
}

impl TwoLevelToeplitzBuilder {
    builder_setters!();

    /// Select the memory-optimized split-FFT construction path
    /// (default `false` = full embedding). Over a shared symbol
    /// ([`TwoLevelToeplitz::builder_arc`]) the symbol already fixes the
    /// path; requesting the other one fails construction.
    pub fn split_fft(mut self, split: bool) -> Self {
        self.split = Some(split);
        self
    }

    /// Build the operator (see
    /// [`NdCirculantEmbeddingBuilder::build`]).
    pub fn build(self) -> Result<TwoLevelToeplitz, ConfigError> {
        Ok(TwoLevelToeplitz { core: self.inner.build_core(self.split, true)? })
    }
}

// ---------------------------------------------------------------------
// Public operator types
// ---------------------------------------------------------------------

macro_rules! operator_common {
    ($ty:ident) => {
        impl $ty {
            /// Current precision configuration.
            pub fn config(&self) -> PrecisionConfig {
                self.core.cfg
            }

            /// Swap the precision configuration at runtime: engines whose
            /// tier survives are kept (with their warmed scratch), the
            /// rest rebuild through the shared plan cache.
            pub fn set_config(&mut self, cfg: PrecisionConfig) {
                self.core.set_config(cfg);
            }

            /// Re-resolve the configuration for a new error budget (or
            /// direction), reusing the tier calibration from previous
            /// resolutions. On error the current configuration stays.
            pub fn retune_budget(
                &mut self,
                dir: OpDirection,
                budget: f64,
            ) -> Result<AutotuneChoice, OpError> {
                self.core.retune_budget(dir, budget)
            }

            /// The autotuner's latest resolution, if any budget was ever
            /// resolved.
            pub fn autotuned(&self) -> Option<&AutotuneChoice> {
                self.core.autotune.last()
            }

            /// The shared symbol — build further precision variants over
            /// it without recomputing the spectrum.
            pub fn symbol_shared(&self) -> Arc<ToeplitzSymbol> {
                Arc::clone(&self.core.sym)
            }

            /// The generator this operator realizes.
            pub fn generator(&self) -> &ToeplitzGenerator {
                self.core.sym.generator()
            }

            /// Whether this operator runs the split-FFT path.
            pub fn is_split(&self) -> bool {
                self.core.sym.is_split()
            }

            /// Condition estimate used for Eq. 6 pruning.
            pub fn condition_estimate(&self) -> f64 {
                self.core.kappa
            }

            /// Eq. 6 parameters for this operator in direction `dir` —
            /// what `retune_budget` prunes with, exposed for sweeps and
            /// the service registry.
            pub fn bound_params(&self, dir: OpDirection) -> BoundParams {
                self.core.bound_params(dir)
            }

            /// Phase cost weights for calibration-based selection.
            pub fn phase_weights(&self, dir: OpDirection) -> PhaseWeights {
                self.core.phase_weights(dir)
            }

            /// Workspaces currently parked in the pool (diagnostic).
            pub fn workspaces_pooled(&self) -> usize {
                self.core.pool.pooled()
            }

            /// Workspaces currently checked out (diagnostic).
            pub fn workspaces_in_flight(&self) -> usize {
                self.core.pool.in_flight()
            }

            /// High-water mark of concurrent checkouts (diagnostic).
            pub fn workspaces_peak_in_flight(&self) -> usize {
                self.core.pool.peak_in_flight()
            }

            /// Largest single-workspace scratch footprint (bytes) any
            /// apply has used — the memory-model diagnostic the bench
            /// gate compares across construction paths.
            pub fn workspace_peak_bytes(&self) -> usize {
                self.core.pool.peak_bytes()
            }

            /// Scratch buffers pooled inside the FFT engines of tier `p`
            /// (`None` when no engine of that tier is resident).
            pub fn fft_scratch_pooled(&self, p: Precision) -> Option<usize> {
                self.core.engines.scratch_pooled(p)
            }

            /// The execution backend this operator was built for.
            pub fn backend(&self) -> fftmatvec_core::PipelineBackend {
                self.core.backend
            }

            /// The device backend handle the pointwise multiply and
            /// boundary casts dispatch through.
            pub fn device(&self) -> &Arc<dyn fftmatvec_backend::DeviceBackend> {
                &self.core.device
            }
        }

        impl LinearOperator for $ty {
            fn shape(&self) -> OpShape {
                self.core.shape()
            }
            fn apply_forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                self.core.apply_forward_into(input, out)
            }
            fn apply_adjoint_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), OpError> {
                self.core.apply_adjoint_into(input, out)
            }
            fn apply_many_into(
                &self,
                dir: OpDirection,
                inputs: &[f64],
                outputs: &mut [f64],
            ) -> Result<(), OpError> {
                self.core.apply_many_into(dir, inputs, outputs)
            }
        }

        impl ConfigurableOperator for $ty {
            fn config(&self) -> PrecisionConfig {
                self.core.cfg
            }
            fn set_config(&mut self, cfg: PrecisionConfig) {
                self.core.set_config(cfg);
            }
        }
    };
}

/// Multi-level Toeplitz operator realized by full multi-level circulant
/// embedding: any level count `1 ≤ L ≤` [`MAX_LEVELS`], rectangular
/// (non-square) levels included. `apply_forward` is
/// `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad`; the adjoint conjugates the
/// symbol.
pub struct NdCirculantEmbedding {
    core: Core,
}

impl NdCirculantEmbedding {
    /// Start building over a generator (computes the symbol spectrum at
    /// build time).
    pub fn builder(gen: ToeplitzGenerator) -> NdCirculantEmbeddingBuilder {
        NdCirculantEmbeddingBuilder { inner: BuilderInner::new(SymbolSource::Gen(gen)) }
    }

    /// Start building over an already-computed shared symbol — how a
    /// service builds per-configuration variants of one registered
    /// operator without recomputing spectra. The symbol must be a
    /// full-embedding one (split symbols belong to
    /// [`TwoLevelToeplitz`]).
    pub fn builder_arc(sym: Arc<ToeplitzSymbol>) -> NdCirculantEmbeddingBuilder {
        NdCirculantEmbeddingBuilder { inner: BuilderInner::new(SymbolSource::Shared(sym)) }
    }
}

operator_common!(NdCirculantEmbedding);

/// Two-level Toeplitz operator (block-Toeplitz with Toeplitz blocks —
/// the EM-scattering / acoustics / MRI system-matrix case), with an
/// optional memory-optimized **split-FFT** construction path
/// ([`TwoLevelToeplitzBuilder::split_fft`]) that streams the even/odd
/// outer-frequency channels through one half-size grid.
pub struct TwoLevelToeplitz {
    core: Core,
}

impl TwoLevelToeplitz {
    /// Start building over a two-level generator.
    pub fn builder(gen: ToeplitzGenerator) -> TwoLevelToeplitzBuilder {
        TwoLevelToeplitzBuilder { inner: BuilderInner::new(SymbolSource::Gen(gen)), split: None }
    }

    /// Start building over an already-computed shared symbol; the
    /// symbol's construction path (full or split) carries over.
    pub fn builder_arc(sym: Arc<ToeplitzSymbol>) -> TwoLevelToeplitzBuilder {
        TwoLevelToeplitzBuilder { inner: BuilderInner::new(SymbolSource::Shared(sym)), split: None }
    }

    /// The shared double-precision plan handle for the **outer** level's
    /// transform length (fastmat's `planWhole`). Taken from the resident
    /// double engine when the configuration has one, else resolved
    /// through the process-wide cache — either way, handles for the same
    /// length compare pointer-equal across every operator and pipeline
    /// in the process.
    pub fn plan_whole(&self) -> PlanHandle<f64> {
        match self.core.engines.d.get() {
            Some(engine) => engine.axis_plan(0).clone(),
            None => cache::complex_plan::<f64>(self.core.sym.work_dims()[0]),
        }
    }

    /// The shared double-precision plan handle for the **inner** level's
    /// transform length (fastmat's `planBlock`).
    pub fn plan_block(&self) -> PlanHandle<f64> {
        match self.core.engines.d.get() {
            Some(engine) => engine.axis_plan(1).clone(),
            None => cache::complex_plan::<f64>(self.core.sym.work_dims()[1]),
        }
    }
}

operator_common!(TwoLevelToeplitz);

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::vecmath::rel_l2_error;
    use fftmatvec_numeric::SplitMix64;

    fn random_gen(levels: &[(usize, usize)], seed: u64) -> ToeplitzGenerator {
        let diags: usize = levels.iter().map(|&(r, c)| r + c - 1).product();
        let mut rng = SplitMix64::new(seed);
        let mut d = vec![0.0; diags];
        rng.fill_uniform(&mut d, -1.0, 1.0);
        // Lift the main diagonal so the embedding spectrum stays well
        // conditioned (κ near 1 keeps Eq. 6 budgets meaningful).
        let mut main = 0usize;
        let mut stride = 1usize;
        for &(r, c) in levels.iter().rev() {
            main += (c - 1) * stride;
            stride *= r + c - 1;
        }
        d[main] += 4.0;
        ToeplitzGenerator::new(levels, d).unwrap()
    }

    fn dense_apply(gen: &ToeplitzGenerator, dir: OpDirection, x: &[f64]) -> Vec<f64> {
        let dense = gen.dense();
        let (rows, cols) = (gen.rows(), gen.cols());
        match dir {
            OpDirection::Forward => {
                (0..rows).map(|i| (0..cols).map(|j| dense[i * cols + j] * x[j]).sum()).collect()
            }
            OpDirection::Adjoint => {
                (0..cols).map(|j| (0..rows).map(|i| dense[i * cols + j] * x[i]).sum()).collect()
            }
        }
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut v = vec![0.0; n];
        rng.fill_uniform(&mut v, -1.0, 1.0);
        v
    }

    #[test]
    fn full_embedding_matches_dense_in_both_directions() {
        for levels in [
            &[(3usize, 3usize)][..],
            &[(3, 4), (5, 2)],
            &[(2, 2), (3, 3), (2, 4)],
            &[(1, 6), (4, 1)],
        ] {
            let gen = random_gen(levels, 7);
            let op = NdCirculantEmbedding::builder(gen.clone()).build().unwrap();
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = op.shape().io_lens(dir);
                let x = random_vec(in_len, 21);
                let mut y = vec![0.0; out_len];
                op.apply_into(dir, &x, &mut y).unwrap();
                let want = dense_apply(&gen, dir, &x);
                assert!(
                    rel_l2_error(&want, &y) < 1e-12,
                    "levels {levels:?} {dir}: {}",
                    rel_l2_error(&want, &y)
                );
            }
        }
    }

    #[test]
    fn split_matches_dense_and_full_on_odd_and_nonsquare_shapes() {
        // Odd block extents and rectangular levels — the regression
        // shapes: embedding slack on both axes, rows ≠ cols.
        for (outer, inner) in
            [((3, 3), (5, 5)), ((4, 2), (3, 7)), ((2, 5), (6, 3)), ((1, 4), (5, 1))]
        {
            let gen = random_gen(&[outer, inner], 11);
            let full = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
            let split = TwoLevelToeplitz::builder(gen.clone()).split_fft(true).build().unwrap();
            assert!(split.is_split() && !full.is_split());
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = full.shape().io_lens(dir);
                let x = random_vec(in_len, 31);
                let mut yf = vec![0.0; out_len];
                let mut ys = vec![0.0; out_len];
                full.apply_into(dir, &x, &mut yf).unwrap();
                split.apply_into(dir, &x, &mut ys).unwrap();
                let want = dense_apply(&gen, dir, &x);
                assert!(rel_l2_error(&want, &ys) < 1e-12, "split vs dense {outer:?}/{inner:?}");
                // Same algebra, same plans: the two paths agree to
                // double roundoff.
                assert!(rel_l2_error(&yf, &ys) < 1e-13, "split vs full {outer:?}/{inner:?}");
            }
        }
    }

    #[test]
    fn mixed_tier_configs_track_dense_within_documented_budgets() {
        let gen = random_gen(&[(4, 4), (6, 6)], 13);
        let sym = Arc::new(ToeplitzSymbol::full(gen.clone()).unwrap());
        for cfg in [
            PrecisionConfig::all_double(),
            PrecisionConfig::all_single(),
            "dssdd".parse().unwrap(),
            "shhsd".parse().unwrap(),
            "dbbdd".parse().unwrap(),
        ] {
            let op =
                NdCirculantEmbedding::builder_arc(Arc::clone(&sym)).precision(cfg).build().unwrap();
            let budget = crate::tier_rel_budget(crate::narrowest_tier(cfg));
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                let (in_len, out_len) = op.shape().io_lens(dir);
                let x = random_vec(in_len, 41);
                let mut y = vec![0.0; out_len];
                op.apply_into(dir, &x, &mut y).unwrap();
                let want = dense_apply(&gen, dir, &x);
                let err = rel_l2_error(&want, &y);
                assert!(err < budget, "{cfg} {dir}: err {err} over budget {budget}");
            }
        }
    }

    #[test]
    fn split_tracks_full_within_documented_budgets_per_tier() {
        let gen = random_gen(&[(5, 5), (4, 4)], 17);
        for cfg in
            [PrecisionConfig::all_double(), PrecisionConfig::all_single(), "dhhdd".parse().unwrap()]
        {
            let full = TwoLevelToeplitz::builder(gen.clone()).precision(cfg).build().unwrap();
            let split = TwoLevelToeplitz::builder(gen.clone())
                .precision(cfg)
                .split_fft(true)
                .build()
                .unwrap();
            let budget = crate::tier_rel_budget(crate::narrowest_tier(cfg));
            let x = random_vec(full.shape().cols, 43);
            let mut yf = vec![0.0; full.shape().rows];
            let mut ys = vec![0.0; full.shape().rows];
            full.apply_forward_into(&x, &mut yf).unwrap();
            split.apply_forward_into(&x, &mut ys).unwrap();
            let err = rel_l2_error(&yf, &ys);
            assert!(err < budget, "{cfg}: split drifts {err} from full (budget {budget})");
        }
    }

    #[test]
    fn into_and_allocating_paths_agree_bitwise() {
        let gen = random_gen(&[(3, 4), (5, 3)], 19);
        let op = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
        let x = random_vec(op.shape().cols, 51);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        assert_eq!(op.apply_forward(&x).unwrap(), y);
    }

    #[test]
    fn typed_errors_on_bad_lengths() {
        let gen = random_gen(&[(2, 3), (3, 2)], 23);
        let op = TwoLevelToeplitz::builder(gen).build().unwrap();
        let mut y = vec![0.0; op.shape().rows];
        assert!(matches!(
            op.apply_forward_into(&[0.0; 3], &mut y),
            Err(OpError::InputLength { .. })
        ));
        let x = vec![0.0; op.shape().cols];
        assert!(matches!(
            op.apply_forward_into(&x, &mut [0.0; 2]),
            Err(OpError::OutputLength { .. })
        ));
    }

    #[test]
    fn set_config_keeps_surviving_engines_and_swaps_results_consistently() {
        let gen = random_gen(&[(4, 4), (5, 5)], 29);
        let mut op = TwoLevelToeplitz::builder(gen.clone())
            .precision(PrecisionConfig::all_double())
            .split_fft(true)
            .build()
            .unwrap();
        let x = random_vec(op.shape().cols, 61);
        let mut y = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y).unwrap();
        let pooled_before = op.fft_scratch_pooled(Precision::Double);
        assert!(pooled_before.is_some());
        // dssdd keeps the double Ifft engine resident.
        op.set_config("dssdd".parse().unwrap());
        assert_eq!(op.fft_scratch_pooled(Precision::Double), pooled_before);
        assert!(op.fft_scratch_pooled(Precision::Single).is_some());
        let mut y2 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y2).unwrap();
        assert!(rel_l2_error(&y, &y2) < crate::tier_rel_budget(Precision::Single));
        // Back to all-double: single engine dropped.
        op.set_config(PrecisionConfig::all_double());
        assert!(op.fft_scratch_pooled(Precision::Single).is_none());
        let mut y3 = vec![0.0; op.shape().rows];
        op.apply_forward_into(&x, &mut y3).unwrap();
        assert_eq!(y, y3);
    }

    #[test]
    fn nested_plans_share_through_the_process_cache() {
        let gen = random_gen(&[(4, 4), (8, 8)], 31);
        let a = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let b = TwoLevelToeplitz::builder(gen.clone()).split_fft(true).build().unwrap();
        // Inner extents agree across paths (outer halves under split),
        // so planBlock is literally the same Arc.
        assert!(Arc::ptr_eq(&a.plan_block(), &b.plan_block()));
        // And a 1-level operator over the inner length shares it too.
        let inner = NdCirculantEmbedding::builder(random_gen(&[(8, 8)], 33)).build().unwrap();
        let _ = inner;
        assert!(Arc::ptr_eq(&a.plan_block(), &cache::complex_plan::<f64>(16)));
        // planWhole: full grid outer is 8, split half grid outer is 4.
        assert!(Arc::ptr_eq(&a.plan_whole(), &cache::complex_plan::<f64>(8)));
        assert!(Arc::ptr_eq(&b.plan_whole(), &cache::complex_plan::<f64>(4)));
    }

    #[test]
    fn split_peak_scratch_is_measurably_below_full() {
        let gen = random_gen(&[(8, 8), (8, 8)], 37);
        let full = TwoLevelToeplitz::builder(gen.clone()).build().unwrap();
        let split = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
        let x = random_vec(full.shape().cols, 71);
        let mut y = vec![0.0; full.shape().rows];
        full.apply_forward_into(&x, &mut y).unwrap();
        split.apply_forward_into(&x, &mut y).unwrap();
        let (fb, sb) = (full.workspace_peak_bytes(), split.workspace_peak_bytes());
        assert!(fb > 0 && sb > 0);
        // The half-size grid should cut workspace scratch to ~half;
        // allow generous slack while still proving a real reduction.
        assert!((sb as f64) <= 0.75 * fb as f64, "split scratch {sb} not below 0.75×full {fb}");
    }

    #[test]
    fn budget_build_and_retune_restore_on_error() {
        let gen = random_gen(&[(4, 4), (4, 4)], 41);
        let mut op = TwoLevelToeplitz::builder(gen.clone())
            .split_fft(true)
            .error_budget(1e-6)
            .build()
            .unwrap();
        let choice = *op.autotuned().unwrap();
        assert!(choice.bound.total <= 1e-6);
        assert_eq!(op.config(), choice.config);
        // Invalid budget: error, config untouched.
        let before = op.config();
        assert!(matches!(
            op.retune_budget(OpDirection::Forward, -1.0),
            Err(OpError::Config(ConfigError::InvalidBudget { .. }))
        ));
        assert_eq!(op.config(), before);
        // Unsatisfiable budget: error, config untouched.
        assert!(matches!(
            op.retune_budget(OpDirection::Forward, 1e-300),
            Err(OpError::Config(ConfigError::BudgetUnsatisfiable { .. }))
        ));
        assert_eq!(op.config(), before);
        // Budget-built operators stay correct.
        let x = random_vec(op.shape().cols, 81);
        let y = op.apply_forward(&x).unwrap();
        let want = dense_apply(&gen, OpDirection::Forward, &x);
        assert!(rel_l2_error(&want, &y) < 1e-5);
    }

    #[test]
    fn builder_rejects_mismatched_paths_and_level_counts() {
        let g1 = random_gen(&[(3, 3)], 43);
        assert!(matches!(
            TwoLevelToeplitz::builder(g1).build(),
            Err(ConfigError::Unsupported { .. })
        ));
        let g2 = random_gen(&[(3, 3), (4, 4)], 47);
        let split_sym = Arc::new(ToeplitzSymbol::split(g2.clone()).unwrap());
        assert!(matches!(
            TwoLevelToeplitz::builder_arc(Arc::clone(&split_sym)).split_fft(false).build(),
            Err(ConfigError::Unsupported { .. })
        ));
        // Inheriting the shared path works and shares the spectra.
        let op = TwoLevelToeplitz::builder_arc(split_sym).build().unwrap();
        assert!(op.is_split());
    }

    #[test]
    fn batched_apply_matches_loop_of_singles() {
        let gen = random_gen(&[(3, 3), (4, 4)], 53);
        let op = TwoLevelToeplitz::builder(gen).split_fft(true).build().unwrap();
        let (cols, rows) = (op.shape().cols, op.shape().rows);
        let batch = 5;
        let xs = random_vec(cols * batch, 91);
        let mut ys = vec![0.0; rows * batch];
        op.apply_many_into(OpDirection::Forward, &xs, &mut ys).unwrap();
        for b in 0..batch {
            let y = op.apply_forward(&xs[b * cols..(b + 1) * cols]).unwrap();
            assert_eq!(&ys[b * rows..(b + 1) * rows], &y[..]);
        }
        // Ragged batches are typed errors.
        assert!(matches!(
            op.apply_many_into(OpDirection::Forward, &xs[..cols + 1], &mut ys),
            Err(OpError::RaggedBatch { .. })
        ));
    }
}
