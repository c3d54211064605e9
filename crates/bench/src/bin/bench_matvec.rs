//! Matvec API benchmark with machine-readable output — the data source
//! for `BENCH_matvec.json` and the committed `bench/baseline_matvec.json`
//! the CI `bench-smoke` job gates on.
//!
//! Times one full `FftMatvec` application at three memory-scaled paper
//! shapes, in the all-double and paper-optimal configurations, in both
//! directions, through both API paths:
//!
//! * `alloc` — the allocating [`LinearOperator::apply_forward`] /
//!   `apply_adjoint` conveniences;
//! * `into` — the zero-allocation `apply_forward_into` /
//!   `apply_adjoint_into` hot paths on preallocated buffers.
//!
//! Each (shape, config, direction) pair is measured with the two paths
//! *interleaved* (same time windows), so their ratio — the statistic both
//! gates run on — cancels machine-state drift. The acceptance criterion
//! is structural: the `into` path must be no slower than the allocating
//! path at every benchmarked key.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_matvec`
//! Flags:
//! * `-quick` — short samples (the CI smoke mode)
//! * `-out <path>` — write the JSON document (default `BENCH_matvec.json`)
//! * `-check <path>` — compare into/alloc ratios against a baseline
//!   document; exits non-zero past the tolerance
//! * `-tol <x>` — regression budget for `-check` (default 1.25 = +25%)
//! * `-ratio-tol <x>` — intra-run "into no slower than alloc" margin
//!   (default 1.10; the two paths differ only by one output-vector
//!   allocation, so the ratio sits at ~1.0 and the margin is pure
//!   scheduler noise on shared CI runners)
//!
//! Two adjoint-cost gates run on the `into` path at the largest shape
//! ([`ADJOINT_GATE_SHAPE`]): the `ddddd` adjoint may cost at most
//! [`MAX_ADJ_FWD_RATIO`]× the `ddddd` forward apply (both move the same
//! bytes; only the SBGEMV op differs), and the `dssdd` adjoint must beat
//! the `ddddd` adjoint — a narrower phase 3 has to be a cheaper one.
//! Each compares an interleaved pair of its own, so host drift cancels
//! out of the comparison like it does for the into/alloc ratio.

use std::hint::black_box;

use fftmatvec_bench::benchdoc::{format_document, limit_failures, Gates, MatvecResult, Row};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{make_operator, stuffed_vector, Args};
use fftmatvec_core::{FftMatvec, LinearOperator, OpDirection, PrecisionConfig};

/// Memory-scaled stand-ins for the paper's `N_d=100, N_m=5000, N_t=1000`
/// single-GPU shape: same `N_d ≪ N_m`, `N_t ≫ 1` structure at sizes a CI
/// runner measures in seconds (the error-shape convention every fig
/// binary uses). Small enough that the per-apply allocation cost is a
/// visible fraction, which is exactly what this gate watches.
const SHAPES: [(usize, usize, usize); 3] = [(2, 64, 64), (4, 128, 128), (8, 256, 256)];

/// Configurations the gate keys on: the baseline and the paper optimum.
const CONFIGS: [&str; 2] = ["ddddd", "dssdd"];

/// Shape the adjoint-cost gates run on.
const ADJOINT_GATE_SHAPE: (usize, usize, usize) = (8, 256, 256);
/// Most the `ddddd` adjoint apply may cost relative to the forward one.
const MAX_ADJ_FWD_RATIO: f64 = 1.3;

fn measure(
    mv: &FftMatvec,
    shape: &str,
    config: &str,
    dir: OpDirection,
    samples: usize,
    sample_ms: f64,
    out: &mut Vec<MatvecResult>,
) {
    let (in_len, out_len) = mv.shape().io_lens(dir);
    let input = stuffed_vector(in_len, 7);
    let mut sink = vec![0.0; out_len];
    // Warm up once so plan/workspace setup is not measured.
    mv.apply_into(dir, &input, &mut sink).expect("benchmark shapes are valid");
    let direction = match dir {
        OpDirection::Forward => "forward",
        OpDirection::Adjoint => "adjoint",
    };
    let (alloc, into) = time_pair_ns(
        || match dir {
            OpDirection::Forward => {
                black_box(mv.apply_forward(black_box(&input)).expect("valid shape"));
            }
            OpDirection::Adjoint => {
                black_box(mv.apply_adjoint(black_box(&input)).expect("valid shape"));
            }
        },
        || {
            mv.apply_into(dir, black_box(&input), black_box(&mut sink)).expect("valid shape");
        },
        samples,
        sample_ms,
    );
    for (path, ns) in [("alloc", alloc), ("into", into)] {
        out.push(MatvecResult {
            shape: shape.to_string(),
            config: config.to_string(),
            direction: direction.to_string(),
            path: path.to_string(),
            threads: rayon::current_num_threads(),
            ns_per_apply: ns,
        });
    }
}

/// Run the adjoint-cost gates; returns the failure lines (empty = pass).
fn adjoint_cost_failures(samples: usize, sample_ms: f64) -> Vec<String> {
    let (nd, nm, nt) = ADJOINT_GATE_SHAPE;
    let build = |config: &str| {
        FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
            .precision(config.parse().expect("valid config literal"))
            .build()
            .expect("CPU build")
    };
    let (d, mp) = (build("ddddd"), build("dssdd"));
    fn apply(mv: &FftMatvec, dir: OpDirection) -> impl FnMut() + '_ {
        let (in_len, out_len) = mv.shape().io_lens(dir);
        let input = stuffed_vector(in_len, 7);
        let mut out = vec![0.0; out_len];
        move || mv.apply_into(dir, black_box(&input), black_box(&mut out)).expect("valid shape")
    }
    let (fwd_d, adj_d) = time_pair_ns(
        apply(&d, OpDirection::Forward),
        apply(&d, OpDirection::Adjoint),
        samples,
        sample_ms,
    );
    let (adj_d2, adj_mp) = time_pair_ns(
        apply(&d, OpDirection::Adjoint),
        apply(&mp, OpDirection::Adjoint),
        samples,
        sample_ms,
    );
    let shape = format!("{nd}x{nm}x{nt}");
    println!(
        "adjoint cost at {shape}: ddddd adjoint/forward {:.3}x, dssdd/ddddd adjoint {:.3}x",
        adj_d / fwd_d,
        adj_mp / adj_d2
    );
    let mut failures = Vec::new();
    if adj_d / fwd_d > MAX_ADJ_FWD_RATIO {
        failures.push(format!(
            "{shape} ddddd adjoint/forward {:.2}x > {MAX_ADJ_FWD_RATIO:.2}x",
            adj_d / fwd_d
        ));
    }
    if adj_mp >= adj_d2 {
        failures.push(format!(
            "{shape} dssdd adjoint {adj_mp:.0} ns does not beat ddddd adjoint {adj_d2:.0} ns"
        ));
    }
    failures
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let out_path: String = args.get("out", "BENCH_matvec.json".to_string());
    let check_path: String = args.get("check", String::new());
    let tol: f64 = args.get("tol", 1.25);
    let ratio_tol: f64 = args.get("ratio-tol", 1.10);
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (15, 25.0) };
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::new();
    for &(nd, nm, nt) in &SHAPES {
        let shape = format!("{nd}x{nm}x{nt}");
        for config in CONFIGS {
            let cfg: PrecisionConfig = config.parse().expect("valid config literal");
            let mv = FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
                .precision(cfg)
                .build()
                .expect("CPU build");
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                measure(&mv, &shape, config, dir, samples, sample_ms, &mut results);
            }
        }
    }

    // Human-readable view.
    println!(
        "Matvec API benchmark ({mode} mode, {} pool threads) — ns per apply",
        rayon::current_num_threads()
    );
    let header = format!(
        "{:>12} | {:>6} | {:>8} | {:>12} | {:>12} | {:>10}",
        "shape", "config", "dir", "alloc", "into", "into/alloc"
    );
    println!("{header}");
    fftmatvec_bench::rule(header.len());
    for r in results.iter().filter(|r| r.path == "into") {
        let ratio = r.statistic(&results).expect("alloc leg measured with every into leg");
        println!(
            "{:>12} | {:>6} | {:>8} | {:>12.0} | {:>12.0} | {:>9.3}x",
            r.shape,
            r.config,
            r.direction,
            r.ns_per_apply / ratio,
            r.ns_per_apply,
            ratio
        );
    }

    let doc = format_document(mode, &results);
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path} ({} results)", results.len());

    let mut gates = Gates::default();
    // Structural acceptance gate: into never slower than alloc.
    gates.record(
        "into-vs-alloc check",
        &format!("tolerance {ratio_tol:.2}x"),
        &limit_failures(&results, "into/alloc", ..=ratio_tol, |r| r.statistic(&results)),
    );
    gates.record(
        "adjoint-cost check",
        &format!("ddddd adjoint/forward <= {MAX_ADJ_FWD_RATIO:.2}x, dssdd adjoint < ddddd"),
        &adjoint_cost_failures(samples, sample_ms),
    );
    gates.check_baseline(&check_path, &results, tol);
    gates.finish();
}
