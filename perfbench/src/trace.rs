//! In-memory span recorder and the traced replay of one `FftMatvec`
//! apply through the public functions of each layer.
//!
//! The program under test carries no instrumentation: the replay calls
//! the same layer functions `FftMatvec::apply_into` calls, in the same
//! order and on warm buffers, and wraps each call in a span. A replay
//! whose output is not bit-identical to `apply_into` is reported as a
//! failure, so the per-layer times describe the program that was timed.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use fftmatvec::backend::{BatchFft, DeviceBackend};
use fftmatvec::blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec::core::{layout, BlockToeplitzOperator, MatvecPhase, OpDirection, PrecisionConfig};
use fftmatvec::numeric::{Complex, ComplexBuffer, RealBuffer};

use crate::stats::sbgemv_bytes;

/// One recorded span: a layer call with its start, end and the span
/// that caused it (0 for a root). Spans of one request or one replayed
/// apply share their root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Option<Instant>,
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    /// Start a span that is closed later with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, name, start, end: None });
        id
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        self.spans[(id - 1) as usize].end = Some(end);
    }

    /// Record a finished span.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.open(name, parent, start);
        self.close(id, end);
        id
    }

    /// Time `f` as a child span of `parent`; returns its result and the
    /// span's duration in ms.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, parent, t0, t1);
        (r, (t1 - t0).as_secs_f64() * 1e3)
    }

    /// Write every span as one JSON object per line (times in ns since
    /// the recorder was created).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for s in &self.spans {
            let end = s.end.map_or_else(|| "null".to_string(), |e| ns(e).to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                ns(s.start),
                end
            )?;
        }
        w.flush()
    }
}

/// Per-phase times of one replayed apply, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseMs {
    pub pad: f64,
    pub cast: f64,
    pub fft_forward: f64,
    pub reorder: f64,
    pub sbgemv: f64,
    pub reorder_back: f64,
    pub fft_inverse: f64,
    pub unpad: f64,
}

impl PhaseMs {
    pub fn sum(&self) -> f64 {
        self.pad
            + self.cast
            + self.fft_forward
            + self.reorder
            + self.sbgemv
            + self.reorder_back
            + self.fft_inverse
            + self.unpad
    }
}

/// Warm buffers and resolved engines for replaying one leg.
pub struct Replay {
    op: Arc<BlockToeplitzOperator>,
    device: Arc<dyn DeviceBackend>,
    cfg: PrecisionConfig,
    gemv_op: GemvOp,
    fft: Arc<dyn BatchFft>,
    ifft: Arc<dyn BatchFft>,
    padded: RealBuffer,
    casted: RealBuffer,
    spectrum: ComplexBuffer,
    xhat: ComplexBuffer,
    yhat: ComplexBuffer,
    dspec: ComplexBuffer,
    time: RealBuffer,
}

impl Replay {
    pub fn new(
        op: Arc<BlockToeplitzOperator>,
        device: Arc<dyn DeviceBackend>,
        cfg: PrecisionConfig,
        dir: OpDirection,
    ) -> Result<Self, String> {
        let n2 = 2 * op.nt();
        let engine = |ph| device.real_fft(cfg.phase(ph), n2).map_err(|e| e.to_string());
        let (fft, ifft) = (engine(MatvecPhase::Fft)?, engine(MatvecPhase::Ifft)?);
        let gemv_op = match dir {
            OpDirection::Forward => GemvOp::NoTrans,
            OpDirection::Adjoint => GemvOp::ConjTrans,
        };
        let empty_r = || RealBuffer::F64(Vec::new());
        let empty_c = || ComplexBuffer::C64(Vec::new());
        Ok(Replay {
            op,
            device,
            cfg,
            gemv_op,
            fft,
            ifft,
            padded: empty_r(),
            casted: empty_r(),
            spectrum: empty_c(),
            xhat: empty_c(),
            yhat: empty_c(),
            dspec: empty_c(),
            time: empty_r(),
        })
    }

    /// Computed bytes the SBGEMV of this leg moves per apply.
    pub fn sbgemv_bytes(&self) -> usize {
        let (nd, nm, nfreq) = (self.op.nd(), self.op.nm(), self.op.nfreq());
        let p = self.cfg.phase(MatvecPhase::Sbgemv);
        sbgemv_bytes(nd, nm, nfreq, self.gemv_op.is_transposed(), p)
    }

    /// One apply, phase by phase, each phase a child span of a
    /// `core.pipeline.replay` root.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        input: &[f64],
        out: &mut [f64],
    ) -> Result<PhaseMs, String> {
        let op = Arc::clone(&self.op);
        let (nd, nm, nt, nfreq) = (op.nd(), op.nm(), op.nt(), op.nfreq());
        let (n_in, n_out) = if self.gemv_op.is_transposed() { (nd, nm) } else { (nm, nd) };
        let phase = |ph| self.cfg.phase(ph);
        let (p_pad, p_fft, p_gemv) =
            (phase(MatvecPhase::Pad), phase(MatvecPhase::Fft), phase(MatvecPhase::Sbgemv));
        let (p_ifft, p_unpad) = (phase(MatvecPhase::Ifft), phase(MatvecPhase::Unpad));
        let root = rec.open("core.pipeline.replay", 0, Instant::now());
        let mut ms = PhaseMs::default();
        let Replay {
            device,
            fft,
            ifft,
            padded,
            casted,
            spectrum,
            xhat,
            yhat,
            dspec,
            time,
            gemv_op,
            ..
        } = self;

        ((), ms.pad) = rec.time("core.layout.pad", root, || {
            layout::pad_input_into(input, n_in, nt, p_pad, padded)
        });
        let fft_in: &RealBuffer = if p_fft == p_pad {
            padded
        } else {
            let (r, t) = rec.time("backend.cast", root, || device.cast_real(padded, p_fft, casted));
            r.map_err(|e| e.to_string())?;
            ms.cast = t;
            casted
        };
        spectrum.reset_for_overwrite(p_fft, n_in * nfreq);
        let (r, t) = rec.time("fft.forward", root, || fft.forward(fft_in, spectrum));
        r.map_err(|e| e.to_string())?;
        ms.fft_forward = t;

        ((), ms.reorder) = rec.time("core.layout.reorder", root, || {
            layout::spectrum_to_batch_into(spectrum, n_in, nfreq, p_gemv, xhat)
        });
        yhat.reset_for_overwrite(p_gemv, n_out * nfreq);
        let g = BatchGeometry::packed(nd, nm, *gemv_op, nfreq);
        let gop = *gemv_op;
        let (r, t) = rec.time("blas.sbgemv", root, || {
            match (&*xhat, &mut *yhat) {
                (ComplexBuffer::C16(x), ComplexBuffer::C16(y)) => {
                    sbgemv(gop, Complex::one(), op.fhat16(), x, Complex::zero(), y, &g);
                }
                (ComplexBuffer::CB16(x), ComplexBuffer::CB16(y)) => {
                    sbgemv(gop, Complex::one(), op.fhatb16(), x, Complex::zero(), y, &g);
                }
                (ComplexBuffer::C32(x), ComplexBuffer::C32(y)) => {
                    sbgemv(gop, Complex::one(), op.fhat32(), x, Complex::zero(), y, &g);
                }
                (ComplexBuffer::C64(x), ComplexBuffer::C64(y)) => {
                    sbgemv(gop, Complex::one(), op.fhat(), x, Complex::zero(), y, &g);
                }
                _ => return Err("phase-3 tier mismatch".to_string()),
            }
            Ok(())
        });
        r?;
        ms.sbgemv = t;

        ((), ms.reorder_back) = rec.time("core.layout.reorder_back", root, || {
            layout::batch_to_spectrum_into(yhat, n_out, nfreq, p_ifft, dspec)
        });
        time.reset_for_overwrite(p_ifft, n_out * 2 * nt);
        let (r, t) = rec.time("fft.inverse", root, || ifft.inverse(dspec, time));
        r.map_err(|e| e.to_string())?;
        ms.fft_inverse = t;
        ((), ms.unpad) = rec.time("core.layout.unpad", root, || {
            layout::unpad_output_into(time, n_out, nt, p_unpad, out)
        });
        rec.close(root, Instant::now());
        Ok(ms)
    }
}
