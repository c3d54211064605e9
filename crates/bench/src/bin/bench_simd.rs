//! SIMD-vs-scalar ratio gate: the CI check that the runtime-dispatched
//! vector kernels actually beat the portable scalar paths they shadow.
//!
//! Dispatch is a process-global runtime switch
//! ([`fftmatvec_numeric::simd::set_active_level`]), so — unlike the
//! thread-count gates — no re-exec is needed: each kernel is timed with
//! the two legs *interleaved* (portable, vector, portable, ...), which
//! cancels machine-state drift out of the speedup ratio. The measured
//! rows cover the three vectorized layers:
//!
//! * `convert_*` — the batched f16/bf16 ↔ f32 buffer casts;
//! * `fft_forward` — a full iterative transform (radix-4/radix-2
//!   butterfly stages) per precision tier;
//! * `sbgemv_notrans` — the optimized short-wide GEMV tile sweep;
//! * `sbgemv_conjtrans` — the column-group adjoint GEMV sweep, on the
//!   complex tiers of phase 3.
//!
//! Three checks, mirroring the other bench gates:
//! * **floor** — the 16-bit conversion and butterfly kernels (the
//!   tentpole claim) must be at least `-min`× the scalar path;
//! * **adjoint floor** — at each complex tier, the vector `ConjTrans`
//!   sweep must reach [`CONJ_FLOOR`]× the GB/s of the vector `NoTrans`
//!   sweep at the same shape (both stream the same `m·n` matrix and
//!   `m + n` vector elements, so this is the inverse time ratio);
//! * **baseline** — every row's speedup must stay within `-tol` of the
//!   committed `bench/baseline_simd.json`.
//!
//! On a host where no vector level is available (or the `simd` feature is
//! compiled out) the binary reports SKIPPED (exit 0) with the measured
//! numbers still in the log, like the parallel-speedup gate on a 1-core
//! runner.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_simd`
//! Flags:
//! * `-out <path>` — write the measured document
//! * `-check <path>` — gate against a committed baseline document
//! * `-tol <x>` — allowed speedup fade vs the baseline (default 1.25)
//! * `-min <x>` — floor for the 16-bit conversion/butterfly rows
//!   (default 1.0: "no slower than scalar")
//! * `-quick` — shorter samples (the CI smoke mode)

use std::hint::black_box;

use fftmatvec_bench::benchdoc::{format_document, limit_failures, Gates, SimdResult};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{rule, Args};
use fftmatvec_blas::kernels::run_kernel;
use fftmatvec_blas::{BatchGeometry, GemvOp, KernelChoice};
use fftmatvec_fft::FftPlan;
use fftmatvec_numeric::simd::{
    active_level, narrow_f32_to_bf16, narrow_f32_to_f16, set_active_level, widen_bf16_to_f32,
    widen_f16_to_f32, SimdLevel,
};
use fftmatvec_numeric::{bf16, f16, Complex, Real, Scalar, SplitMix64};

/// Elements per conversion call. Deliberately L1-resident (4096 f32 =
/// 16 KiB out + 8 KiB in): at larger sizes both legs saturate memory
/// bandwidth and the ratio collapses toward 1.0 regardless of compute
/// width, which is the memory wall, not a kernel regression.
const CONV_LEN: usize = 1 << 12;
/// Transform length for the butterfly rows (pure power of two: every
/// stage is a vectorized radix-4/radix-2 butterfly).
const FFT_N: usize = 1024;
/// Short-wide SBGEMV shape (paper regime: `m ≪ n`), batched.
const GEMV_SHAPE: (usize, usize, usize) = (64, 256, 4);
/// Least `ConjTrans`/`NoTrans` bandwidth ratio the adjoint sweep must
/// reach at the same shape and tier.
const CONJ_FLOOR: f64 = 0.8;

/// Time `work` with dispatch forced portable vs forced to `level`,
/// interleaved, and append the row.
fn measure<F: FnMut()>(
    rows: &mut Vec<SimdResult>,
    kernel: &str,
    precision: &str,
    level: SimdLevel,
    work: F,
    samples: usize,
    sample_ms: f64,
) {
    // Both interleaved legs drive the same workload closure; the RefCell
    // lets the two `FnMut` legs share it.
    let work = std::cell::RefCell::new(work);
    let (portable_ns, simd_ns) = time_pair_ns(
        || {
            set_active_level(SimdLevel::Portable);
            (work.borrow_mut())();
        },
        || {
            set_active_level(level);
            (work.borrow_mut())();
        },
        samples,
        sample_ms,
    );
    set_active_level(level);
    let row = SimdResult {
        kernel: kernel.to_string(),
        precision: precision.to_string(),
        level: level.name().to_string(),
        portable_ns,
        simd_ns,
    };
    println!(
        "{:<16} {:<5} portable {:>12.1} ns   {} {:>12.1} ns   {:>6.2}x",
        row.kernel,
        row.precision,
        row.portable_ns,
        row.level,
        row.simd_ns,
        row.speedup()
    );
    rows.push(row);
}

/// The whole-buffer cast kernels, each driven through the same
/// [`measure`] helper (the public entry points read the active level, so
/// forcing dispatch works the same way as for the fused kernels).
fn measure_conversions(rows: &mut Vec<SimdResult>, level: SimdLevel, samples: usize, ms: f64) {
    let mut rng = SplitMix64::new(41);
    let f32s: Vec<f32> = (0..CONV_LEN).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
    let mut f16s = vec![f16::from_f32(0.0); CONV_LEN];
    let mut bf16s = vec![bf16::from_f32(0.0); CONV_LEN];
    narrow_f32_to_f16(&f32s, &mut f16s);
    narrow_f32_to_bf16(&f32s, &mut bf16s);
    let mut wide = vec![0.0f32; CONV_LEN];

    {
        let (src, dst) = (&f16s, &mut wide);
        measure(
            rows,
            "convert_widen",
            "f16",
            level,
            || widen_f16_to_f32(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&bf16s, &mut wide);
        measure(
            rows,
            "convert_widen",
            "bf16",
            level,
            || widen_bf16_to_f32(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&f32s, &mut f16s);
        measure(
            rows,
            "convert_narrow",
            "f16",
            level,
            || narrow_f32_to_f16(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
    {
        let (src, dst) = (&f32s, &mut bf16s);
        measure(
            rows,
            "convert_narrow",
            "bf16",
            level,
            || narrow_f32_to_bf16(black_box(src), black_box(dst)),
            samples,
            ms,
        );
    }
}

fn measure_fft<T: Real>(
    rows: &mut Vec<SimdResult>,
    precision: &str,
    level: SimdLevel,
    samples: usize,
    ms: f64,
) {
    let mut rng = SplitMix64::new(43);
    let input: Vec<Complex<T>> = (0..FFT_N)
        .map(|_| {
            Complex::new(T::from_f64(rng.uniform(-1.0, 1.0)), T::from_f64(rng.uniform(-1.0, 1.0)))
        })
        .collect();
    let plan = FftPlan::<T>::new(FFT_N);
    let mut output = vec![Complex::<T>::zero(); FFT_N];
    let mut scratch = vec![Complex::<T>::zero(); plan.scratch_len()];
    measure(
        rows,
        "fft_forward",
        precision,
        level,
        || plan.forward(black_box(&input), black_box(&mut output), &mut scratch),
        samples,
        ms,
    );
}

fn measure_gemv<S: Scalar>(
    rows: &mut Vec<SimdResult>,
    op: GemvOp,
    precision: &str,
    level: SimdLevel,
    samples: usize,
    ms: f64,
) {
    let kernel = match op {
        GemvOp::NoTrans => "sbgemv_notrans",
        GemvOp::Trans => "sbgemv_trans",
        GemvOp::ConjTrans => "sbgemv_conjtrans",
    };
    let (m, n, batch) = GEMV_SHAPE;
    let mut rng = SplitMix64::new(47);
    let mut fill = |len: usize| -> Vec<S> {
        (0..len)
            .map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect()
    };
    let g = BatchGeometry::packed(m, n, op, batch);
    let a = fill(batch * m * n);
    let x = fill(batch * op.input_len(m, n));
    let mut y: Vec<S> = fill(batch * op.output_len(m, n));
    let (alpha, beta) = (S::one(), S::zero());
    measure(
        rows,
        kernel,
        precision,
        level,
        || {
            run_kernel(
                KernelChoice::Optimized,
                op,
                alpha,
                black_box(&a),
                black_box(&x),
                beta,
                black_box(&mut y),
                &g,
            )
        },
        samples,
        ms,
    );
}

/// Rows the `-min` floor applies to: the tentpole's 16-bit conversion and
/// butterfly kernels.
fn floor_gated(r: &SimdResult) -> bool {
    (r.precision == "f16" || r.precision == "bf16")
        && (r.kernel.starts_with("convert") || r.kernel.starts_with("fft"))
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (11, 25.0) };
    let tol: f64 = args.get("tol", 1.25);
    let min_speedup: f64 = args.get("min", 1.0);
    let out_path: String = args.get("out", String::new());
    let check_path: String = args.get("check", String::new());

    let level = active_level();
    println!(
        "SIMD ratio gate: portable scalar vs {} (min {min_speedup:.2}x on 16-bit rows)",
        level.name()
    );
    rule(78);

    let mut rows = Vec::new();
    measure_conversions(&mut rows, level, samples, sample_ms);
    measure_fft::<f64>(&mut rows, "f64", level, samples, sample_ms);
    measure_fft::<f32>(&mut rows, "f32", level, samples, sample_ms);
    measure_fft::<f16>(&mut rows, "f16", level, samples, sample_ms);
    measure_fft::<bf16>(&mut rows, "bf16", level, samples, sample_ms);
    measure_gemv::<f32>(&mut rows, GemvOp::NoTrans, "f32", level, samples, sample_ms);
    measure_gemv::<f16>(&mut rows, GemvOp::NoTrans, "f16", level, samples, sample_ms);
    measure_gemv::<bf16>(&mut rows, GemvOp::NoTrans, "bf16", level, samples, sample_ms);
    for op in [GemvOp::NoTrans, GemvOp::ConjTrans] {
        measure_gemv::<Complex<f64>>(&mut rows, op, "c64", level, samples, sample_ms);
        measure_gemv::<Complex<f32>>(&mut rows, op, "c32", level, samples, sample_ms);
        measure_gemv::<Complex<f16>>(&mut rows, op, "c16", level, samples, sample_ms);
        measure_gemv::<Complex<bf16>>(&mut rows, op, "cb16", level, samples, sample_ms);
    }
    rule(78);

    let mode = if quick { "quick" } else { "full" };
    if !out_path.is_empty() {
        std::fs::write(&out_path, format_document(mode, &rows)).expect("writing -out file");
        println!("wrote {out_path}");
    }

    if level == SimdLevel::Portable {
        // No vector level to compare against: both legs measured the same
        // scalar code (the numbers above show it), so there is nothing to
        // enforce on this host/build.
        println!(
            "simd gate: SKIPPED (no SIMD level active — portable-only host or simd feature off)"
        );
        return;
    }

    let mut gates = Gates::default();
    gates.record(
        "floor gate",
        &format!("16-bit conversion/butterfly rows >= {min_speedup:.2}x at {}", level.name()),
        &limit_failures(&rows, "speedup", min_speedup.., |r| floor_gated(r).then(|| r.speedup())),
    );
    let conj_vs_notrans = |conj: &SimdResult| {
        if conj.kernel != "sbgemv_conjtrans" {
            return None;
        }
        let notrans = rows
            .iter()
            .find(|r| r.kernel == "sbgemv_notrans" && r.precision == conj.precision)
            .expect("every ConjTrans tier has a NoTrans row");
        Some(notrans.simd_ns / conj.simd_ns)
    };
    gates.record(
        "adjoint floor gate",
        &format!("ConjTrans >= {CONJ_FLOOR:.2}x the NoTrans GB/s"),
        &limit_failures(&rows, "ConjTrans/NoTrans GB/s", CONJ_FLOOR.., conj_vs_notrans),
    );
    gates.check_baseline(&check_path, &rows, tol);
    gates.finish();
}
