//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary follows the same contract: *timings* come from the GPU
//! cost model evaluated at the paper's problem shape; *errors* come from
//! real mixed-precision arithmetic, run at a memory-scaled shape with the
//! same structure (mantissa-stuffed inputs, identical grid shapes). Each
//! binary prints the rows/series of its figure plus the paper's reference
//! values for side-by-side comparison.

use fftmatvec_core::pareto::error_sweep;
use fftmatvec_core::{BlockToeplitzOperator, FftMatvec, OpDirection, PrecisionConfig};
use fftmatvec_numeric::SplitMix64;

/// Tiny `-flag value` CLI parser (mirrors the artifact's `-nm 5000 -nd 100
/// -Nt 1000 -prec dssdd` interface).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn from_env() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `-name <v>`, parsed, or the default when the flag is
    /// absent. A present flag whose value is missing or does not parse is
    /// a usage error: the process exits with status 2, naming the flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        flag_value(&self.raw, name)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
            .unwrap_or(default)
    }

    /// Is `-name` present (boolean flag)?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("-{name}");
        self.raw.iter().any(|a| a.eq_ignore_ascii_case(&flag))
    }
}

/// The value following `-name` in `raw` (the flag matched
/// case-insensitively): `Ok(None)` when the flag is absent, an error
/// naming the flag when its value is missing or does not parse as `T`.
fn flag_value<T: std::str::FromStr>(raw: &[String], name: &str) -> Result<Option<T>, String> {
    let flag = format!("-{name}");
    let Some(i) = raw.iter().position(|a| a.eq_ignore_ascii_case(&flag)) else {
        return Ok(None);
    };
    let value = raw.get(i + 1).ok_or_else(|| format!("{flag}: missing value"))?;
    value.parse().map(Some).map_err(|_| format!("{flag}: invalid value {value:?}"))
}

/// Build a random block-Toeplitz operator. Entries are *positive*
/// uniforms, matching the artifact's initialization path
/// (`curandGenerateUniformDouble` produces values in (0, 1]); positive
/// data means the frequency-domain reductions have no sign cancellation,
/// which is a precondition for the ≲1e-7 mixed-precision errors the paper
/// reports at `N_m = 5000`.
pub fn make_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).expect("valid operator dims")
}

/// A mantissa-stuffed positive input vector (the §4.2.1 generator applied
/// to cuRAND-style (0,1] uniforms, so single-precision phases provably
/// incur error without introducing sign cancellation the paper's
/// workloads don't have).
pub fn stuffed_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0.0; n];
    rng.fill_uniform_stuffed(&mut v, 0.0, 1.0);
    v
}

/// Measured relative errors of many configurations against the all-double
/// baseline, reusing one operator. Thin shape-aware wrapper over
/// [`fftmatvec_core::pareto::error_sweep`], which runs the same sweep
/// for any `ConfigurableOperator` realization in either direction.
pub fn measure_errors_dir(
    op: BlockToeplitzOperator,
    dir: OpDirection,
    configs: &[PrecisionConfig],
    seed: u64,
) -> Vec<f64> {
    let len = match dir {
        OpDirection::Forward => op.nm() * op.nt(),
        OpDirection::Adjoint => op.nd() * op.nt(),
    };
    let x = stuffed_vector(len, seed);
    let mut mv = FftMatvec::builder(op).build().expect("CPU build");
    error_sweep(&mut mv, dir, configs, &x).expect("sweep over a well-shaped input")
}

/// [`measure_errors_dir`] for the forward matvec.
pub fn measure_errors(
    op: BlockToeplitzOperator,
    configs: &[PrecisionConfig],
    seed: u64,
) -> Vec<f64> {
    measure_errors_dir(op, OpDirection::Forward, configs, seed)
}

/// Format seconds as milliseconds with three decimals.
pub fn ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

pub mod benchdoc {
    //! Machine-readable benchmark documents: the `BENCH_*.json` files the gate
    //! binaries write and the committed `bench/baseline*.json` files the CI
    //! `bench-smoke` job gates on.
    //!
    //! The format is deliberately line-oriented JSON — one result object per
    //! line — so it round-trips through this module's dependency-free parser
    //! (the build environment has no serde) while staying valid JSON for any
    //! downstream tooling.
    //!
    //! Each document kind is a [`Row`] type that says only what is its own:
    //! how a row renders and parses, the key a baseline row is matched by, and
    //! its gate statistic. Every statistic is a ratio of two legs measured in
    //! one session, so machine speed and load cancel and a CI runner can be
    //! gated against a baseline committed from different hardware. The rest is
    //! shared: the envelope and parse loop ([`format_document`],
    //! [`parse_document`]), the baseline comparison ([`regressions`],
    //! [`gated_count`]), the absolute gates ([`limit_failures`]) and the
    //! binaries' verdicts and `-check` tail ([`Gates`]). A NaN statistic fails
    //! every gate: only a definite comparison passes.

    use std::fmt::Debug;
    use std::ops::RangeBounds;
    use std::str::FromStr;

    /// One row kind of a benchmark document.
    pub trait Row: Sized {
        /// The envelope's `"unit"` value.
        const UNIT: &'static str;
        /// Name of the gate statistic in failure lines.
        const STATISTIC: &'static str;
        /// Whether a larger statistic is better (a speedup) rather than
        /// worse (a cost ratio).
        const HIGHER_IS_BETTER: bool;

        /// The row's `"key": value` pairs, as its line holds them between
        /// the braces.
        fn render(&self) -> String;

        /// Parse one document line; `None` for envelope lines.
        fn parse(line: &str) -> Option<Self>;

        /// The key a baseline row is matched by in the current document,
        /// as `name=value` pairs (failure lines start with it).
        fn key(&self) -> String;

        /// The gate statistic of this row within `doc`, the document the
        /// row belongs to. `None` for a row that carries no statistic: the
        /// reference leg of a pair, or a pair whose reference is missing.
        fn statistic(&self, doc: &[Self]) -> Option<f64>;
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// [`field`], parsed.
    fn num<T: FromStr>(line: &str, key: &str) -> Option<T> {
        field(line, key)?.parse().ok()
    }

    /// The row of `doc` at `row`'s key that `leg` selects: the other leg
    /// of a same-document pair statistic.
    fn pair_leg<'a, R: Row>(doc: &'a [R], row: &R, leg: impl Fn(&R) -> bool) -> Option<&'a R> {
        let key = row.key();
        doc.iter().find(|r| leg(r) && r.key() == key)
    }

    /// Render the full document. `mode` records how the numbers were taken
    /// (`"quick"` for the CI smoke job, `"full"` for committed baselines).
    pub fn format_document<R: Row>(mode: &str, rows: &[R]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"unit\": \"{}\",\n", R::UNIT));
        out.push_str("  \"results\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!("    {{{}}}{sep}\n", r.render()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse every result line of a document produced by
    /// [`format_document`]. Lines that do not parse as a row — the
    /// envelope — are skipped, so no real JSON parser is needed. Derived
    /// fields a row renders (speedups, ratios) are recomputed, not
    /// trusted.
    pub fn parse_document<R: Row>(text: &str) -> Vec<R> {
        text.lines().filter_map(R::parse).collect()
    }

    /// Number of baseline rows the gate can actually enforce: rows with a
    /// statistic. A baseline that gates nothing is a broken baseline —
    /// callers should fail on 0, not report success.
    pub fn gated_count<R: Row>(baseline: &[R]) -> usize {
        baseline.iter().filter(|b| b.statistic(baseline).is_some()).count()
    }

    /// Compare `current` against `baseline`: at every key the baseline
    /// gates, the current statistic may be worse than the baseline's by at
    /// most the factor `tol` (e.g. `1.25` = fail on a >25% relative
    /// regression). A key missing from `current`, or a NaN on either side,
    /// fails. Baseline rows without a statistic are not gated — check
    /// [`gated_count`] to detect a baseline that silently gates nothing.
    /// Returns human-readable failure lines; empty = pass.
    pub fn regressions<R: Row>(current: &[R], baseline: &[R], tol: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline {
            let Some(base) = b.statistic(baseline) else {
                continue;
            };
            let key = b.key();
            let Some(cur) =
                current.iter().filter(|c| c.key() == key).find_map(|c| c.statistic(current))
            else {
                failures.push(format!("missing result for {key}"));
                continue;
            };
            let ratio = if R::HIGHER_IS_BETTER { base / cur } else { cur / base };
            if !(..=tol).contains(&ratio) {
                failures.push(format!(
                    "{key}: {} {cur:.3} vs baseline {base:.3} ({ratio:.2}x > {tol:.2}x budget)",
                    R::STATISTIC
                ));
            }
        }
        failures
    }

    /// The absolute gates: rows of `doc` whose `value` lies outside `limit`
    /// (`..=max` for a ceiling, `min..` for a floor). Rows where `value` is
    /// `None` are not gated; a NaN value fails. Returns failure lines
    /// naming the row's key and `what` was measured; empty = pass.
    pub fn limit_failures<R: Row>(
        doc: &[R],
        what: &str,
        limit: impl RangeBounds<f64> + Debug,
        value: impl Fn(&R) -> Option<f64>,
    ) -> Vec<String> {
        doc.iter()
            .filter_map(|r| {
                let v = value(r)?;
                (!limit.contains(&v))
                    .then(|| format!("{}: {what} {v:.3} outside {limit:?}", r.key()))
            })
            .collect()
    }

    /// Verdict ledger of a gate binary: each gate prints its outcome as it
    /// is recorded, and [`Gates::finish`] exits with status 1 if any gate
    /// failed — after all of them ran, so one log shows every failure.
    #[derive(Default)]
    pub struct Gates {
        failed: bool,
    }

    impl Gates {
        /// Record one gate: `"{name}: OK ({note})"` on stdout when
        /// `failures` is empty, else `"{name} FAILED:"` and one line per
        /// failure on stderr.
        pub fn record(&mut self, name: &str, note: &str, failures: &[String]) {
            if failures.is_empty() {
                println!("{name}: OK ({note})");
                return;
            }
            self.failed = true;
            eprintln!("{name} FAILED:");
            for f in failures {
                eprintln!("  {f}");
            }
        }

        /// The `-check <path>` gate of every gate binary: parse the baseline
        /// document at `path`, refuse one that gates nothing, and record the
        /// [`regressions`] of `current` against it at `tol`. Does nothing
        /// when `path` is empty (no `-check`).
        pub fn check_baseline<R: Row>(&mut self, path: &str, current: &[R], tol: f64) {
            if path.is_empty() {
                return;
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
            let baseline = parse_document::<R>(&text);
            let gated = gated_count(&baseline);
            assert!(gated > 0, "baseline {path} gates nothing — regenerate it with this binary");
            self.record(
                "baseline gate",
                &format!("{gated} gated rows within {tol:.2}x of {path}"),
                &regressions(current, &baseline, tol),
            );
        }

        /// Exit with status 1 if any recorded gate failed.
        pub fn finish(self) {
            if self.failed {
                std::process::exit(1);
            }
        }
    }

    /// One measured data point of the FFT engine benchmark
    /// (`BENCH_fft.json` / `bench/baseline.json`, written by `bench_fft`).
    /// Rows are keyed by `(size, precision)`; the statistic of an
    /// `iterative` row is its cost divided by the `recursive` row's at the
    /// same key.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchResult {
        /// Transform length.
        pub size: usize,
        /// `"f64"`, `"f32"`, `"f16"`, or `"bf16"` — the gate keys rows on
        /// `(size, precision)`, so the two 16-bit tiers must carry
        /// distinct labels despite sharing a byte width.
        pub precision: String,
        /// `"iterative"` (the Stockham engine) or `"recursive"` (the seed
        /// baseline).
        pub engine: String,
        /// Pool width the row was measured at
        /// (`rayon::current_num_threads()` — `RAYON_NUM_THREADS` or the
        /// machine's parallelism). Informational for cross-host
        /// comparison; the regression gate's normalized statistic
        /// already cancels it.
        pub threads: usize,
        /// Best-case (min-of-samples) wall-clock nanoseconds per
        /// transform; see [`crate::timing::min_ns`] for why min is the
        /// stable statistic here.
        pub ns_per_transform: f64,
    }

    impl Row for BenchResult {
        const UNIT: &'static str = "ns_per_transform";
        const STATISTIC: &'static str = "iterative/recursive";
        const HIGHER_IS_BETTER: bool = false;

        fn render(&self) -> String {
            format!(
                "\"size\": {}, \"precision\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
                 \"ns_per_transform\": {:.1}",
                self.size, self.precision, self.engine, self.threads, self.ns_per_transform
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(BenchResult {
                size: num(line, "size")?,
                precision: field(line, "precision")?.into(),
                engine: field(line, "engine")?.into(),
                // Absent in pre-thread-column documents: those were
                // measured on the sequential shim, i.e. one thread.
                threads: num(line, "threads").unwrap_or(1),
                ns_per_transform: num(line, "ns_per_transform")?,
            })
        }

        fn key(&self) -> String {
            format!("size={} precision={}", self.size, self.precision)
        }

        fn statistic(&self, doc: &[Self]) -> Option<f64> {
            if self.engine != "iterative" {
                return None;
            }
            let recursive = pair_leg(doc, self, |r| r.engine == "recursive")?;
            Some(self.ns_per_transform / recursive.ns_per_transform)
        }
    }

    /// One measured matvec data point (`BENCH_matvec.json` /
    /// `bench/baseline_matvec.json`, written by `bench_matvec`). Rows are
    /// keyed by `(shape, config, direction)`; `path` distinguishes the
    /// allocating `apply_forward` from the zero-allocation
    /// `apply_forward_into`, and the statistic of an `into` row is its cost
    /// divided by the `alloc` row's.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MatvecResult {
        /// Problem shape as `"{nd}x{nm}x{nt}"`.
        pub shape: String,
        /// Five-phase precision configuration string (`ddddd`, `dssdd`).
        pub config: String,
        /// `"forward"` or `"adjoint"`.
        pub direction: String,
        /// `"alloc"` (`apply_forward`) or `"into"` (`apply_forward_into`
        /// on preallocated buffers).
        pub path: String,
        /// Pool width the row was measured at (see
        /// [`BenchResult::threads`]).
        pub threads: usize,
        /// Best-case (min-of-samples) wall-clock nanoseconds per apply.
        pub ns_per_apply: f64,
    }

    impl Row for MatvecResult {
        const UNIT: &'static str = "ns_per_apply";
        const STATISTIC: &'static str = "into/alloc";
        const HIGHER_IS_BETTER: bool = false;

        fn render(&self) -> String {
            format!(
                "\"shape\": \"{}\", \"config\": \"{}\", \"direction\": \"{}\", \"path\": \"{}\", \
                 \"threads\": {}, \"ns_per_apply\": {:.1}",
                self.shape, self.config, self.direction, self.path, self.threads, self.ns_per_apply
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(MatvecResult {
                shape: field(line, "shape")?.into(),
                config: field(line, "config")?.into(),
                direction: field(line, "direction")?.into(),
                path: field(line, "path")?.into(),
                // Absent in pre-thread-column documents (sequential
                // shim era): one thread.
                threads: num(line, "threads").unwrap_or(1),
                ns_per_apply: num(line, "ns_per_apply")?,
            })
        }

        fn key(&self) -> String {
            format!("shape={} config={} direction={}", self.shape, self.config, self.direction)
        }

        fn statistic(&self, doc: &[Self]) -> Option<f64> {
            if self.path != "into" {
                return None;
            }
            let alloc = pair_leg(doc, self, |r| r.path == "alloc")?;
            Some(self.ns_per_apply / alloc.ns_per_apply)
        }
    }

    /// One measured kernel data point of the SIMD-vs-scalar benchmark
    /// (`BENCH_simd.json` / `bench/baseline_simd.json`, written by
    /// `bench_simd`). Rows are keyed by `(kernel, precision)`; the
    /// statistic is the portable/simd [`speedup`](SimdResult::speedup).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimdResult {
        /// Kernel family: `"convert_widen"`, `"convert_narrow"`,
        /// `"fft_forward"`, `"sbgemv_notrans"`, or `"sbgemv_conjtrans"`.
        pub kernel: String,
        /// Element type: `"f64"`, `"f32"`, `"f16"`, `"bf16"`, or the
        /// complex `"c64"`, `"c32"`, `"c16"`, `"cb16"`.
        pub precision: String,
        /// The [`fftmatvec_numeric::SimdLevel`] name the vector leg ran
        /// at (informational; the gate compares the ratio).
        pub level: String,
        /// Min-of-samples ns/call with dispatch forced to the portable
        /// scalar path.
        pub portable_ns: f64,
        /// Min-of-samples ns/call at the detected vector level.
        pub simd_ns: f64,
    }

    impl SimdResult {
        /// The gate statistic: how many times faster the vector leg ran.
        pub fn speedup(&self) -> f64 {
            self.portable_ns / self.simd_ns
        }
    }

    impl Row for SimdResult {
        const UNIT: &'static str = "ns_per_call";
        const STATISTIC: &'static str = "speedup";
        const HIGHER_IS_BETTER: bool = true;

        fn render(&self) -> String {
            format!(
                "\"kernel\": \"{}\", \"precision\": \"{}\", \"level\": \"{}\", \
                 \"portable_ns\": {:.1}, \"simd_ns\": {:.1}, \"speedup\": {:.3}",
                self.kernel,
                self.precision,
                self.level,
                self.portable_ns,
                self.simd_ns,
                self.speedup()
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(SimdResult {
                kernel: field(line, "kernel")?.into(),
                precision: field(line, "precision")?.into(),
                level: field(line, "level")?.into(),
                portable_ns: num(line, "portable_ns")?,
                simd_ns: num(line, "simd_ns")?,
            })
        }

        fn key(&self) -> String {
            format!("kernel={} precision={}", self.kernel, self.precision)
        }

        fn statistic(&self, _doc: &[Self]) -> Option<f64> {
            Some(self.speedup())
        }
    }

    /// One measured serving-load data point (`BENCH_service.json` /
    /// `bench/baseline_service.json`, written by `bench_service`). Rows
    /// are keyed by `shape`; `mode` is `"coalesced"` (the service's
    /// max-batch window) or `"batch1"` (windows forced to a single
    /// request), both measured in one session at the same offered load.
    /// The statistic of a `coalesced` row is the coalesced/batch1
    /// throughput ratio, the coalescing speedup.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceResult {
        /// Problem shape as `"{nd}x{nm}x{nt}"`.
        pub shape: String,
        /// `"coalesced"` or `"batch1"`.
        pub mode: String,
        /// The window bound the mode ran with (32 vs 1).
        pub max_batch: usize,
        /// Hardware lanes observed (`std::thread::available_parallelism`).
        /// Informational: the absolute ≥1.5× saturation gate only runs on
        /// ≥4 lanes; the baseline comparison is normalized and always on.
        pub threads: usize,
        /// Open-loop offered arrival rate, requests/second.
        pub offered_rps: f64,
        /// Completed requests divided by wall-clock from first submission
        /// through drain, requests/second.
        pub throughput_rps: f64,
        /// Median end-to-end latency (queue + execute), microseconds.
        pub p50_us: f64,
        /// 99th-percentile end-to-end latency, microseconds.
        pub p99_us: f64,
        /// Mean requests per executed batch window.
        pub mean_batch: f64,
        /// Requests completed successfully.
        pub completed: u64,
        /// Requests shed by admission control.
        pub rejected: u64,
    }

    impl ServiceResult {
        /// Mean window occupancy as a fraction of `max_batch`: the
        /// occupancy gate's value, defined for `coalesced` rows only.
        pub fn occupancy(&self) -> Option<f64> {
            (self.mode == "coalesced").then(|| self.mean_batch / self.max_batch as f64)
        }
    }

    impl Row for ServiceResult {
        const UNIT: &'static str = "requests_per_second";
        const STATISTIC: &'static str = "coalescing speedup";
        const HIGHER_IS_BETTER: bool = true;

        fn render(&self) -> String {
            format!(
                "\"shape\": \"{}\", \"mode\": \"{}\", \"max_batch\": {}, \"threads\": {}, \
                 \"offered_rps\": {:.1}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"mean_batch\": {:.2}, \"completed\": {}, \"rejected\": {}",
                self.shape,
                self.mode,
                self.max_batch,
                self.threads,
                self.offered_rps,
                self.throughput_rps,
                self.p50_us,
                self.p99_us,
                self.mean_batch,
                self.completed,
                self.rejected
            )
        }

        /// Needs `"max_batch"`, so the envelope — including its own
        /// `"mode"` line — is skipped.
        fn parse(line: &str) -> Option<Self> {
            Some(ServiceResult {
                shape: field(line, "shape")?.into(),
                mode: field(line, "mode")?.into(),
                max_batch: num(line, "max_batch")?,
                threads: num(line, "threads")?,
                offered_rps: num(line, "offered_rps")?,
                throughput_rps: num(line, "throughput_rps")?,
                p50_us: num(line, "p50_us")?,
                p99_us: num(line, "p99_us")?,
                mean_batch: num(line, "mean_batch")?,
                completed: num(line, "completed")?,
                rejected: num(line, "rejected")?,
            })
        }

        fn key(&self) -> String {
            format!("shape={}", self.shape)
        }

        fn statistic(&self, doc: &[Self]) -> Option<f64> {
            // An idle leg has no ratio; a NaN throughput stays in, so its
            // NaN speedup fails the gates.
            let served = |r: &Self| r.throughput_rps > 0.0 || r.throughput_rps.is_nan();
            if self.mode != "coalesced" || !served(self) {
                return None;
            }
            let batch1 = pair_leg(doc, self, |r| r.mode == "batch1" && served(r))?;
            Some(self.throughput_rps / batch1.throughput_rps)
        }
    }

    /// One autotuned operating point (`BENCH_autotune.json` /
    /// `bench/baseline_autotune.json`, written by `bench_autotune`). Rows
    /// are keyed by `(shape, direction, budget)`; the statistic is the
    /// double/tuned [`speedup`](AutotuneResult::speedup). The configuration
    /// the autotuner chooses is itself host-dependent (it measures this
    /// host's tiers), so the binary's baseline tolerance is looser than the
    /// kernel-level gates'.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AutotuneResult {
        /// `"{nd}x{nm}x{nt}"`.
        pub shape: String,
        /// `"forward"` or `"adjoint"`.
        pub direction: String,
        /// The caller's error budget the row was tuned for.
        pub budget: f64,
        /// The configuration the autotuner selected.
        pub config: String,
        /// The Eq. 6 bound the selection promised (`bound ≤ budget`).
        pub bound: f64,
        /// Measured relative error of the selected configuration.
        pub measured_error: f64,
        /// Min-of-samples ns/apply under all-double.
        pub double_ns: f64,
        /// Min-of-samples ns/apply under the selected configuration.
        pub tuned_ns: f64,
    }

    impl AutotuneResult {
        /// The gate statistic: how many times faster the autotuned
        /// configuration runs than all-double.
        pub fn speedup(&self) -> f64 {
            self.double_ns / self.tuned_ns
        }
    }

    impl Row for AutotuneResult {
        const UNIT: &'static str = "ns_per_apply";
        const STATISTIC: &'static str = "speedup";
        const HIGHER_IS_BETTER: bool = true;

        fn render(&self) -> String {
            format!(
                "\"shape\": \"{}\", \"direction\": \"{}\", \"budget\": {:e}, \"config\": \"{}\", \
                 \"bound\": {:.3e}, \"measured_error\": {:.3e}, \"double_ns\": {:.1}, \
                 \"tuned_ns\": {:.1}, \"speedup\": {:.3}",
                self.shape,
                self.direction,
                self.budget,
                self.config,
                self.bound,
                self.measured_error,
                self.double_ns,
                self.tuned_ns,
                self.speedup()
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(AutotuneResult {
                shape: field(line, "shape")?.into(),
                direction: field(line, "direction")?.into(),
                budget: num(line, "budget")?,
                config: field(line, "config")?.into(),
                bound: num(line, "bound")?,
                measured_error: num(line, "measured_error")?,
                double_ns: num(line, "double_ns")?,
                tuned_ns: num(line, "tuned_ns")?,
            })
        }

        fn key(&self) -> String {
            format!("shape={} direction={} budget={:e}", self.shape, self.direction, self.budget)
        }

        fn statistic(&self, _doc: &[Self]) -> Option<f64> {
            Some(self.speedup())
        }
    }

    /// One measured two-level operating point (`BENCH_toeplitz.json` /
    /// `bench/baseline_toeplitz.json`, written by `bench_toeplitz`). Rows
    /// are keyed by `(shape, direction)`; the statistic is the dense/full
    /// [`full_speedup`](ToeplitzResult::full_speedup). The differential
    /// check (FFT paths within ulp budget of dense) lives in the binary,
    /// not the document — a row only exists if it passed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ToeplitzResult {
        /// Two-level extents as `"{or}x{oc}x{ir}x{ic}"`.
        pub shape: String,
        /// `"forward"` or `"adjoint"`.
        pub direction: String,
        /// Min-of-samples ns/apply of the full-embedding path.
        pub full_ns: f64,
        /// Min-of-samples ns/apply of the split-FFT path.
        pub split_ns: f64,
        /// Min-of-samples ns/apply of the dense reference matvec.
        pub dense_ns: f64,
        /// Peak single-workspace bytes of the full-embedding path.
        pub full_peak_bytes: usize,
        /// Peak single-workspace bytes of the split-FFT path.
        pub split_peak_bytes: usize,
    }

    impl ToeplitzResult {
        /// The baseline gate statistic: how many times faster the full
        /// embedding runs than the dense reference.
        pub fn full_speedup(&self) -> f64 {
            self.dense_ns / self.full_ns
        }

        /// Dense-vs-split speedup (the split path trades one extra FFT
        /// pass for half the peak scratch, so this is allowed to trail
        /// [`ToeplitzResult::full_speedup`]).
        pub fn split_speedup(&self) -> f64 {
            self.dense_ns / self.split_ns
        }

        /// Split peak scratch as a fraction of full peak scratch.
        pub fn scratch_ratio(&self) -> f64 {
            self.split_peak_bytes as f64 / self.full_peak_bytes as f64
        }
    }

    impl Row for ToeplitzResult {
        const UNIT: &'static str = "ns_per_apply";
        const STATISTIC: &'static str = "dense/full speedup";
        const HIGHER_IS_BETTER: bool = true;

        fn render(&self) -> String {
            format!(
                "\"shape\": \"{}\", \"direction\": \"{}\", \"full_ns\": {:.1}, \
                 \"split_ns\": {:.1}, \"dense_ns\": {:.1}, \"full_peak_bytes\": {}, \
                 \"split_peak_bytes\": {}, \"full_speedup\": {:.3}, \"scratch_ratio\": {:.3}",
                self.shape,
                self.direction,
                self.full_ns,
                self.split_ns,
                self.dense_ns,
                self.full_peak_bytes,
                self.split_peak_bytes,
                self.full_speedup(),
                self.scratch_ratio()
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(ToeplitzResult {
                shape: field(line, "shape")?.into(),
                direction: field(line, "direction")?.into(),
                full_ns: num(line, "full_ns")?,
                split_ns: num(line, "split_ns")?,
                dense_ns: num(line, "dense_ns")?,
                full_peak_bytes: num(line, "full_peak_bytes")?,
                split_peak_bytes: num(line, "split_peak_bytes")?,
            })
        }

        fn key(&self) -> String {
            format!("shape={} direction={}", self.shape, self.direction)
        }

        fn statistic(&self, _doc: &[Self]) -> Option<f64> {
            Some(self.full_speedup())
        }
    }

    /// One measured dispatch data point (`BENCH_backend.json` /
    /// `bench/baseline_backend.json`, written by `bench_backend`). Rows
    /// are keyed by `(primitive, precision)`; both legs — the direct call
    /// path and the same kernel reached through `Arc<dyn DeviceBackend>` /
    /// `Arc<dyn BatchFft>` — are measured interleaved, and the statistic is
    /// the trait/direct [`overhead`](BackendResult::overhead).
    #[derive(Debug, Clone, PartialEq)]
    pub struct BackendResult {
        /// Primitive under test: `"fft_forward"`, `"fft_inverse"`,
        /// `"cast_real"`, `"cast_complex"`, `"pointwise_multiply"`, or
        /// `"tree_reduce"`.
        pub primitive: String,
        /// Element type of the device-side buffers.
        pub precision: String,
        /// Min-of-samples ns/call on the direct path (concrete types).
        pub direct_ns: f64,
        /// Min-of-samples ns/call through the `DeviceBackend` trait.
        pub trait_ns: f64,
    }

    impl BackendResult {
        /// The gate statistic: the cost of the trait boundary as a
        /// multiple of the direct path (1.0 = free dispatch).
        pub fn overhead(&self) -> f64 {
            self.trait_ns / self.direct_ns
        }
    }

    impl Row for BackendResult {
        const UNIT: &'static str = "ns_per_call";
        const STATISTIC: &'static str = "trait/direct overhead";
        const HIGHER_IS_BETTER: bool = false;

        fn render(&self) -> String {
            format!(
                "\"primitive\": \"{}\", \"precision\": \"{}\", \"direct_ns\": {:.1}, \
                 \"trait_ns\": {:.1}, \"overhead\": {:.4}",
                self.primitive,
                self.precision,
                self.direct_ns,
                self.trait_ns,
                self.overhead()
            )
        }

        fn parse(line: &str) -> Option<Self> {
            Some(BackendResult {
                primitive: field(line, "primitive")?.into(),
                precision: field(line, "precision")?.into(),
                direct_ns: num(line, "direct_ns")?,
                trait_ns: num(line, "trait_ns")?,
            })
        }

        fn key(&self) -> String {
            format!("primitive={} precision={}", self.primitive, self.precision)
        }

        fn statistic(&self, _doc: &[Self]) -> Option<f64> {
            Some(self.overhead())
        }
    }
}

/// Print a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Shared micro-benchmark timing used by every `bench_*` gate binary:
/// batch calibration and interleaved min-of-samples measurement.
pub mod timing {
    use std::time::Instant;

    /// Grow the batch size until one batch of `f` takes at least
    /// `sample_ms`.
    pub fn calibrate<F: FnMut()>(f: &mut F, sample_ms: f64) -> u64 {
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms >= sample_ms || iters >= 1 << 22 {
                return iters;
            }
            let grow = (sample_ms / elapsed_ms.max(1e-6)).ceil() as u64;
            iters = iters.saturating_mul(grow.clamp(2, 16));
        }
    }

    /// One timed batch, in nanoseconds per call.
    pub fn time_batch<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / iters as f64
    }

    /// Minimum ns/call over `samples` batches. The minimum is the right
    /// statistic for a CPU microbenchmark gate: scheduler noise only ever
    /// adds time, so min-of-N converges to the true cost much faster than
    /// the median — which keeps CI checks stable on shared runners.
    pub fn min_ns<F: FnMut()>(mut f: F, samples: usize, sample_ms: f64) -> f64 {
        let iters = calibrate(&mut f, sample_ms);
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(3) {
            best = best.min(time_batch(&mut f, iters));
        }
        best
    }

    /// Minimum ns/call for two routines, with their sample batches
    /// *interleaved* so both minima come from the same time windows —
    /// gates compare the a/b ratio, and interleaving cancels
    /// machine-state drift (frequency scaling, background load) that
    /// sequential measurement would bake into it.
    pub fn time_pair_ns<A: FnMut(), B: FnMut()>(
        mut a: A,
        mut b: B,
        samples: usize,
        sample_ms: f64,
    ) -> (f64, f64) {
        let ia = calibrate(&mut a, sample_ms);
        let ib = calibrate(&mut b, sample_ms);
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..samples.max(3) {
            best_a = best_a.min(time_batch(&mut a, ia));
            best_b = best_b.min(time_batch(&mut b, ib));
        }
        (best_a, best_b)
    }
}

/// Self-re-exec helper shared by the gate binaries whose measurements
/// depend on `RAYON_NUM_THREADS`: the pool reads the variable once per
/// process, so changing it means running a fresh child process of the
/// same executable.
pub mod respawn {
    use std::process::Command;

    /// Re-run the current executable with `child_env=1` and
    /// `RAYON_NUM_THREADS=threads`, returning its stdout (echoed when
    /// `echo` is set). Parent CLI args are forwarded so flags like
    /// `-quick` reach the child. Panics with the child's stderr on a
    /// non-zero exit.
    pub fn child_stdout(child_env: &str, threads: usize, echo: bool) -> String {
        let exe = std::env::current_exe().expect("own executable path");
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = Command::new(exe)
            .args(&args)
            .env(child_env, "1")
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output()
            .expect("spawning gate child process");
        assert!(
            out.status.success(),
            "gate child at {threads} threads failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        if echo {
            print!("{text}");
        }
        text
    }
}

/// Order-sensitive FNV-1a digest over f64 bit patterns — the statistic
/// the determinism CI gate compares across `RAYON_NUM_THREADS` settings.
/// Any single-bit difference in any element, or any reordering, changes
/// the digest.
pub mod digest {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Running FNV-1a 64 hasher.
    #[derive(Clone)]
    pub struct Fnv1a(u64);

    impl Fnv1a {
        #[allow(clippy::new_without_default)]
        pub fn new() -> Fnv1a {
            Fnv1a(FNV_OFFSET)
        }

        pub fn write_u64(&mut self, x: u64) {
            for byte in x.to_le_bytes() {
                self.0 ^= byte as u64;
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }

        pub fn write_f64_bits(&mut self, xs: &[f64]) {
            for &x in xs {
                self.write_u64(x.to_bits());
            }
        }

        pub fn finish(&self) -> u64 {
            self.0
        }
    }

    /// One-shot digest of a f64 buffer's exact bits.
    pub fn f64_bits(xs: &[f64]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_f64_bits(xs);
        h.finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchdoc::*;

    #[test]
    fn operator_builder() {
        let op = make_operator(3, 5, 4, 1);
        assert_eq!((op.nd(), op.nm(), op.nt()), (3, 5, 4));
    }

    #[test]
    fn stuffed_vectors_lose_bits_in_f32() {
        let v = stuffed_vector(100, 2);
        assert!(v.iter().all(|&x| (x as f32 as f64 - x).abs() > 0.0));
    }

    #[test]
    fn error_measurement_baseline_is_zero() {
        let op = make_operator(2, 6, 8, 3);
        let errs = measure_errors(op, &[PrecisionConfig::all_double()], 4);
        assert_eq!(errs[0], 0.0);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(0.00125), "1.250");
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        use crate::digest;
        let a = digest::f64_bits(&[1.0, 2.0, 3.0]);
        assert_eq!(a, digest::f64_bits(&[1.0, 2.0, 3.0]), "digest must be deterministic");
        assert_ne!(a, digest::f64_bits(&[1.0, 3.0, 2.0]), "order must matter");
        // One-ulp difference must change the digest.
        let tweaked = f64::from_bits(3.0f64.to_bits() + 1);
        assert_ne!(a, digest::f64_bits(&[1.0, 2.0, tweaked]));
        // Signed zero is a distinct bit pattern.
        assert_ne!(digest::f64_bits(&[0.0]), digest::f64_bits(&[-0.0]));
    }

    #[test]
    fn timing_measures_something_positive() {
        use crate::timing;
        let mut x = 0u64;
        let ns = timing::min_ns(
            || {
                x = x.wrapping_add(std::hint::black_box(1));
            },
            3,
            0.05,
        );
        assert!(ns.is_finite() && ns >= 0.0);
        let (a, b) = timing::time_pair_ns(|| (), || (), 3, 0.05);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        // The flag matches case-insensitively; an absent flag is no error.
        assert_eq!(flag_value::<usize>(&raw("-quick -NT 12"), "nt"), Ok(Some(12)));
        assert_eq!(flag_value::<f64>(&raw("-quick"), "tol"), Ok(None));
        // A present flag with a missing or unparsable value is one.
        let missing = flag_value::<String>(&raw("-out x.json -check"), "check").unwrap_err();
        assert!(missing.contains("-check"), "{missing}");
        let bad = flag_value::<f64>(&raw("-tol 1,5"), "tol").unwrap_err();
        assert!(bad.contains("-tol") && bad.contains("1,5"), "{bad}");
    }

    /// The shared checks every document kind goes through: `doc`
    /// round-trips through render and parse (the envelope is not read as
    /// a row), `gated` of its rows carry a statistic, and each
    /// `(current, baseline, tol, n)` case yields exactly `n` regression
    /// failures.
    fn assert_gates<R: Row + PartialEq + std::fmt::Debug>(
        doc: &[R],
        gated: usize,
        cases: &[(&[R], &[R], f64, usize)],
    ) {
        let text = format_document("quick", doc);
        assert!(text.contains("\"mode\": \"quick\""));
        assert_eq!(parse_document::<R>(&text), doc);
        assert_eq!(gated_count(doc), gated);
        for (i, &(current, baseline, tol, n)) in cases.iter().enumerate() {
            let failures = regressions(current, baseline, tol);
            assert_eq!(failures.len(), n, "case {i}: {failures:?}");
        }
    }

    /// `nan` is the passing document `good` with one row's statistic
    /// turned NaN: it fails the baseline gate on either side, and an
    /// absolute limit every finite statistic meets.
    fn assert_nan_fails<R: Row>(good: &[R], nan: &[R]) {
        let limit = |d: &[R]| limit_failures(d, R::STATISTIC, 0.0.., |r| r.statistic(d)).len();
        assert_eq!((regressions(good, good, 1.25).len(), limit(good)), (0, 0));
        assert_eq!(regressions(nan, good, 1.25).len(), 1, "NaN current");
        assert_eq!(regressions(good, nan, 1.25).len(), 1, "NaN baseline");
        assert_eq!(limit(nan), 1, "NaN limit");
    }

    fn bench_row(size: usize, precision: &str, engine: &str, ns: f64) -> BenchResult {
        BenchResult {
            size,
            precision: precision.into(),
            engine: engine.into(),
            threads: 4,
            ns_per_transform: ns,
        }
    }

    #[test]
    fn benchjson_roundtrip() {
        let doc = [
            bench_row(1024, "f64", "iterative", 1234.5),
            bench_row(2048, "f32", "recursive", 99.0),
        ];
        // Different keys: no iterative/recursive pair, nothing gated.
        assert_gates(&doc, 0, &[]);
        // Pre-thread-column lines (sequential-shim era) parse with
        // threads defaulting to 1.
        let legacy = "{\"size\": 8, \"precision\": \"f64\", \"engine\": \"iterative\", \
                      \"ns_per_transform\": 10.0}";
        let parsed = parse_document::<BenchResult>(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].threads, 1);
    }

    #[test]
    fn benchjson_regression_gate() {
        let pair = |it: f64, rec: f64| {
            vec![bench_row(1024, "f64", "iterative", it), bench_row(1024, "f64", "recursive", rec)]
        };
        // Baseline: iterative is 2x faster than recursive (cost 0.5).
        let base = pair(1000.0, 2000.0);
        assert_gates(
            &base,
            1,
            &[
                // A uniformly slower machine (both engines 3x slower)
                // still passes: the normalized cost is unchanged.
                (&pair(3000.0, 6000.0), &base, 1.25, 0),
                // 20% relative slowdown of the iterative engine passes...
                (&pair(1200.0, 2000.0), &base, 1.25, 0),
                // ...30% fails, even though the machine could be fast.
                (&pair(650.0, 1000.0), &base, 1.25, 1),
                // Missing entries fail.
                (&[], &base, 1.25, 1),
                // A baseline without the recursive reference is ungated...
                (&[], &base[..1], 1.25, 0),
            ],
        );
        // ...and gated_count exposes that so callers can refuse it.
        assert_eq!(gated_count(&base[..1]), 0, "iterative-only baseline gates nothing");
        assert_nan_fails(&base, &pair(f64::NAN, 2000.0));
    }

    #[test]
    fn matvecjson_roundtrip_and_gates() {
        let row = |path: &str, ns: f64| MatvecResult {
            shape: "4x250x100".into(),
            config: "dssdd".into(),
            direction: "forward".into(),
            path: path.into(),
            threads: 1,
            ns_per_apply: ns,
        };
        let doc = [row("alloc", 1000.0), row("into", 900.0)];
        assert_gates(
            &doc,
            1,
            &[
                (&doc, &doc, 1.25, 0),
                // Relative regression vs baseline fires even on a faster
                // machine.
                (&[row("alloc", 500.0), row("into", 640.0)], &doc, 1.25, 1),
                // A missing pair is a failure.
                (&[], &doc, 1.25, 1),
            ],
        );
        // An alloc-only baseline gates nothing.
        assert_eq!(gated_count(&doc[..1]), 0);
        assert_nan_fails(&doc, &[row("alloc", 1000.0), row("into", f64::NAN)]);
        // The into-vs-alloc ceiling: into faster than alloc passes, into
        // slower than alloc fires.
        let into_alloc =
            |d: &[MatvecResult]| limit_failures(d, "into/alloc", ..=1.05, |r| r.statistic(d));
        assert!(into_alloc(&doc).is_empty());
        assert_eq!(into_alloc(&[row("alloc", 1000.0), row("into", 1200.0)]).len(), 1);
    }

    #[test]
    fn simdjson_roundtrip_and_gate() {
        let row = |kernel: &str, portable: f64, simd: f64| SimdResult {
            kernel: kernel.into(),
            precision: "f16".into(),
            level: "avx2".into(),
            portable_ns: portable,
            simd_ns: simd,
        };
        let doc = [row("convert_widen", 4000.0, 1000.0), row("fft_forward", 3000.0, 2000.0)];
        let slower = [row("convert_widen", 8000.0, 2000.0), row("fft_forward", 6000.0, 4000.0)];
        let faded = [row("convert_widen", 4000.0, 2000.0), row("fft_forward", 3000.0, 2000.0)];
        assert!(format_document("quick", &doc).contains("\"speedup\": 4.000"));
        assert_gates(
            &doc,
            2,
            &[
                // Identical run passes; a uniformly slower machine passes
                // too (the speedup is a same-session ratio).
                (&doc, &doc, 1.25, 0),
                (&slower, &doc, 1.25, 0),
                // Losing more than the budget of the committed speedup
                // fails.
                (&faded, &doc, 1.25, 1),
                // Missing rows fail.
                (&doc[..1], &doc, 1.25, 1),
            ],
        );
        assert_nan_fails(&doc, &[doc[0].clone(), row("fft_forward", 3000.0, f64::NAN)]);
    }

    #[test]
    fn servicejson_roundtrip_and_gates() {
        let row = |mode: &str, max_batch: usize, thr: f64, occ: f64| ServiceResult {
            shape: "8x64x256".into(),
            mode: mode.into(),
            max_batch,
            threads: 8,
            offered_rps: 6000.0,
            throughput_rps: thr,
            p50_us: 800.0,
            p99_us: 2500.0,
            mean_batch: occ,
            completed: 400,
            rejected: 12,
        };
        let doc = [row("coalesced", 32, 5400.0, 18.0), row("batch1", 1, 2700.0, 1.0)];
        let slower = [row("coalesced", 32, 540.0, 18.0), row("batch1", 1, 270.0, 1.0)];
        let faded = [row("coalesced", 32, 3000.0, 18.0), row("batch1", 1, 2700.0, 1.0)];
        assert!(format_document("full", &doc).contains("\"throughput_rps\": 5400.0"));
        assert!((doc[0].statistic(&doc).unwrap() - 2.0).abs() < 1e-12);
        // `assert_gates` round-trips exactly these two rows: the
        // envelope's own `"mode"` line is not read as one.
        assert_gates(
            &doc,
            1,
            &[
                // Same doc vs itself passes; so does a uniformly slower
                // machine (the speedup is a same-session ratio).
                (&doc, &doc, 1.25, 0),
                (&slower, &doc, 1.25, 0),
                // Losing more than the budget of the committed speedup
                // fails.
                (&faded, &doc, 1.25, 1),
                // Missing pairs fail.
                (&[], &doc, 1.25, 1),
            ],
        );
        // A one-mode baseline gates nothing.
        assert_eq!(gated_count(&doc[..1]), 0);
        assert_nan_fails(&doc, &[row("coalesced", 32, f64::NAN, 18.0), doc[1].clone()]);
        // Absolute saturation bar: 2.0x passes 1.5, 1.1x fails.
        let saturation = |d: &[ServiceResult]| {
            limit_failures(d, "coalescing speedup", 1.5.., |r| r.statistic(d)).len()
        };
        assert_eq!((saturation(&doc), saturation(&faded)), (0, 1));
        // Occupancy bar: 18/32 passes 25%; 5/32 and a NaN mean fail.
        let occupancy = |occ: f64| {
            let d = [row("coalesced", 32, 5400.0, occ), row("batch1", 1, 2700.0, 1.0)];
            limit_failures(&d, "window occupancy", 0.25.., |r| r.occupancy()).len()
        };
        assert_eq!((occupancy(18.0), occupancy(5.0), occupancy(f64::NAN)), (0, 1, 1));
    }

    #[test]
    fn autotunejson_roundtrip_and_gates() {
        let row = |budget: f64, measured_error: f64, tuned_ns: f64| AutotuneResult {
            shape: "4x128x128".into(),
            direction: "adjoint".into(),
            budget,
            config: "dssdd".into(),
            bound: 1e-4,
            measured_error,
            double_ns: 2000.0,
            tuned_ns,
        };
        let doc = [row(1e-3, 1e-5, 1000.0), row(1e-12, 0.0, 2000.0)];
        assert_gates(
            &doc,
            2,
            &[
                (&doc, &doc, 1.5, 0),
                // Budgets are part of the key: a speedup lost past the
                // budget at one of them fails, a missing one fails.
                (&[row(1e-3, 1e-5, 1600.0), doc[1].clone()], &doc, 1.5, 1),
                (&doc[..1], &doc, 1.5, 1),
            ],
        );
        assert_nan_fails(&doc, &[row(1e-3, 1e-5, f64::NAN), doc[1].clone()]);
        // The promise (measured error within budget) and no-slower
        // (within the margin of all-double) gates, NaN failing both.
        let promise = |e: f64| {
            let d = [row(1e-3, e, 1000.0)];
            limit_failures(&d, "error/budget", ..=1.0, |r| Some(r.measured_error / r.budget)).len()
        };
        assert_eq!((promise(1e-3), promise(2e-3), promise(f64::NAN)), (0, 1, 1));
        let no_slower = |ns: f64| {
            let d = [row(1e-3, 1e-5, ns)];
            limit_failures(&d, "tuned/double", ..=1.10, |r| Some(r.tuned_ns / r.double_ns)).len()
        };
        assert_eq!((no_slower(2100.0), no_slower(2400.0), no_slower(f64::NAN)), (0, 1, 1));
    }

    #[test]
    fn toeplitzjson_roundtrip_and_gates() {
        let row =
            |dir: &str, full: f64, split: f64, dense: f64, fp: usize, sp: usize| ToeplitzResult {
                shape: "16x16x16x16".into(),
                direction: dir.into(),
                full_ns: full,
                split_ns: split,
                dense_ns: dense,
                full_peak_bytes: fp,
                split_peak_bytes: sp,
            };
        let doc = [
            row("forward", 1000.0, 1400.0, 8000.0, 32768, 16384),
            row("adjoint", 1100.0, 1500.0, 8000.0, 32768, 16384),
        ];
        let text = format_document("quick", &doc);
        assert!(text.contains("\"full_speedup\": 8.000"));
        assert!(text.contains("\"scratch_ratio\": 0.500"));
        let slower = [
            row("forward", 3000.0, 4200.0, 24000.0, 32768, 16384),
            row("adjoint", 3300.0, 4500.0, 24000.0, 32768, 16384),
        ];
        let faded = [row("forward", 2000.0, 1400.0, 8000.0, 32768, 16384), doc[1].clone()];
        assert_gates(
            &doc,
            2,
            &[
                // Identical run passes; a uniformly slower machine passes
                // too (the speedup is a same-session ratio).
                (&doc, &doc, 1.5, 0),
                (&slower, &doc, 1.5, 0),
                // Losing more than the budget of the committed speedup
                // fails.
                (&faded, &doc, 1.5, 1),
                // Missing rows fail.
                (&doc[..1], &doc, 1.5, 1),
            ],
        );
        let nan = [row("forward", f64::NAN, 1400.0, 8000.0, 32768, 16384), doc[1].clone()];
        assert_nan_fails(&doc, &nan);
        // Half the scratch clears the 0.75 bar; parity and a 0/0 ratio
        // do not.
        let scratch = |fp: usize, sp: usize| {
            let d = [row("forward", 1000.0, 1400.0, 8000.0, fp, sp)];
            limit_failures(&d, "split/full scratch", ..=0.75, |r| Some(r.scratch_ratio())).len()
        };
        assert_eq!((scratch(32768, 16384), scratch(32768, 32768), scratch(0, 0)), (0, 1, 1));
    }

    #[test]
    fn backendjson_roundtrip_and_gates() {
        let row = |primitive: &str, trait_ns: f64| BackendResult {
            primitive: primitive.into(),
            precision: "f32".into(),
            direct_ns: 1000.0,
            trait_ns,
        };
        let doc = [row("cast_real", 1010.0), row("tree_reduce", 990.0)];
        assert_gates(
            &doc,
            2,
            &[
                (&doc, &doc, 1.10, 0),
                // Overhead growing past the budget fails (lower is
                // better here); a missing row fails.
                (&[row("cast_real", 1200.0), doc[1].clone()], &doc, 1.10, 1),
                (&doc[1..], &doc, 1.10, 1),
            ],
        );
        assert_nan_fails(&doc, &[row("cast_real", f64::NAN), doc[1].clone()]);
        // The absolute ceiling.
        let ceiling =
            |d: &[BackendResult]| limit_failures(d, "overhead", ..=1.05, |r| r.statistic(d)).len();
        assert_eq!((ceiling(&doc), ceiling(&[row("cast_real", 1100.0)])), (0, 1));
    }
}
