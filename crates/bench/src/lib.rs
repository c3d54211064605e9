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

    /// Value of `-name <v>`, parsed, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("-{name}");
        self.raw
            .iter()
            .position(|a| a.eq_ignore_ascii_case(&flag))
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Is `-name` present (boolean flag)?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("-{name}");
        self.raw.iter().any(|a| a.eq_ignore_ascii_case(&flag))
    }
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

/// Machine-readable benchmark records: the `BENCH_fft.json` /
/// `bench/baseline.json` format the CI `bench-smoke` job produces and
/// gates on.
///
/// The format is deliberately line-oriented JSON — one result object per
/// line — so it round-trips through this module's dependency-free parser
/// (the build environment has no serde) while staying valid JSON for any
/// downstream tooling.
pub mod benchjson {
    /// One measured data point.
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

    /// Render the full document. `mode` records how the numbers were taken
    /// (`"quick"` for the CI smoke job, `"full"` for committed baselines).
    pub fn format_document(mode: &str, results: &[BenchResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_transform\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"size\": {}, \"precision\": \"{}\", \"engine\": \"{}\", \
                 \"threads\": {}, \"ns_per_transform\": {:.1}}}{}\n",
                r.size, r.precision, r.engine, r.threads, r.ns_per_transform, sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`]. Lines without a `"size"` field are skipped, so
    /// the surrounding envelope needs no real JSON parser.
    pub fn parse_document(text: &str) -> Vec<BenchResult> {
        text.lines()
            .filter_map(|line| {
                Some(BenchResult {
                    size: field(line, "size")?.parse().ok()?,
                    precision: field(line, "precision")?.to_string(),
                    engine: field(line, "engine")?.to_string(),
                    // Absent in pre-thread-column documents: those were
                    // measured on the sequential shim, i.e. one thread.
                    threads: field(line, "threads").and_then(|v| v.parse().ok()).unwrap_or(1),
                    ns_per_transform: field(line, "ns_per_transform")?.parse().ok()?,
                })
            })
            .collect()
    }

    /// Normalized cost of the iterative engine at `(size, precision)`:
    /// iterative ns divided by recursive ns *from the same document*.
    /// Because both engines are measured in one session, machine speed and
    /// load cancel, making the number comparable across hosts — a CI
    /// runner can be gated against a baseline committed from a laptop.
    fn normalized_cost(doc: &[BenchResult], size: usize, precision: &str) -> Option<f64> {
        let get = |engine: &str| {
            doc.iter()
                .find(|r| r.size == size && r.precision == precision && r.engine == engine)
                .map(|r| r.ns_per_transform)
        };
        Some(get("iterative")? / get("recursive")?)
    }

    /// Number of baseline entries the gate can actually enforce: iterative
    /// rows whose recursive reference is also present. A baseline that
    /// gates nothing is a broken baseline — callers should fail on 0, not
    /// report success.
    pub fn gated_count(baseline: &[BenchResult]) -> usize {
        baseline
            .iter()
            .filter(|b| b.engine == "iterative")
            .filter(|b| normalized_cost(baseline, b.size, &b.precision).is_some())
            .count()
    }

    /// Compare `current` against `baseline`: for every `(size, precision)`
    /// the baseline covers, the iterative engine's recursive-normalized
    /// cost must be within `tol` of the baseline's (e.g. `1.25` = fail on
    /// a >25% relative regression). Returns human-readable failure lines;
    /// empty = pass. Baseline iterative rows without a recursive reference
    /// cannot be normalized and are not gated — check [`gated_count`] to
    /// detect a baseline that silently gates nothing.
    pub fn regressions(current: &[BenchResult], baseline: &[BenchResult], tol: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline.iter().filter(|b| b.engine == "iterative") {
            let Some(base_cost) = normalized_cost(baseline, b.size, &b.precision) else {
                continue; // baseline lacks the recursive reference: ungated
            };
            let Some(cur_cost) = normalized_cost(current, b.size, &b.precision) else {
                failures.push(format!(
                    "missing result pair for size={} precision={}",
                    b.size, b.precision
                ));
                continue;
            };
            let ratio = cur_cost / base_cost;
            if ratio > tol {
                failures.push(format!(
                    "size={} precision={}: iterative/recursive = {:.3} vs baseline {:.3} \
                     ({:.2}x > {:.2}x budget)",
                    b.size, b.precision, cur_cost, base_cost, ratio, tol
                ));
            }
        }
        failures
    }
}

/// Machine-readable matvec benchmark records: the `BENCH_matvec.json` /
/// `bench/baseline_matvec.json` format the CI `bench-smoke` job produces
/// and gates on. Same line-oriented JSON convention as [`benchjson`];
/// rows are keyed by `(shape, config, direction, path)` where `path`
/// distinguishes the allocating `apply_forward` from the zero-allocation
/// `apply_forward_into` — the gate's normalized statistic is the
/// into/alloc cost ratio, which cancels machine speed.
pub mod matvecjson {
    /// One measured matvec data point.
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
        /// `benchjson::BenchResult::threads`).
        pub threads: usize,
        /// Best-case (min-of-samples) wall-clock nanoseconds per apply.
        pub ns_per_apply: f64,
    }

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[MatvecResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_apply\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"config\": \"{}\", \"direction\": \"{}\", \
                 \"path\": \"{}\", \"threads\": {}, \"ns_per_apply\": {:.1}}}{}\n",
                r.shape, r.config, r.direction, r.path, r.threads, r.ns_per_apply, sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`].
    pub fn parse_document(text: &str) -> Vec<MatvecResult> {
        text.lines()
            .filter_map(|line| {
                Some(MatvecResult {
                    shape: field(line, "shape")?.to_string(),
                    config: field(line, "config")?.to_string(),
                    direction: field(line, "direction")?.to_string(),
                    path: field(line, "path")?.to_string(),
                    // Absent in pre-thread-column documents (sequential
                    // shim era): one thread.
                    threads: field(line, "threads").and_then(|v| v.parse().ok()).unwrap_or(1),
                    ns_per_apply: field(line, "ns_per_apply")?.parse().ok()?,
                })
            })
            .collect()
    }

    fn lookup(doc: &[MatvecResult], key: &MatvecResult, path: &str) -> Option<f64> {
        doc.iter()
            .find(|r| {
                r.shape == key.shape
                    && r.config == key.config
                    && r.direction == key.direction
                    && r.path == path
            })
            .map(|r| r.ns_per_apply)
    }

    /// Normalized cost of the `into` path at `key`'s
    /// `(shape, config, direction)`: into ns divided by alloc ns *from
    /// the same document*, so machine speed cancels and a CI runner can
    /// gate against a baseline from different hardware.
    fn normalized_cost(doc: &[MatvecResult], key: &MatvecResult) -> Option<f64> {
        Some(lookup(doc, key, "into")? / lookup(doc, key, "alloc")?)
    }

    /// Number of baseline keys the gate can enforce (into rows whose
    /// alloc reference is present). 0 means a broken baseline.
    pub fn gated_count(baseline: &[MatvecResult]) -> usize {
        baseline
            .iter()
            .filter(|r| r.path == "into")
            .filter(|r| normalized_cost(baseline, r).is_some())
            .count()
    }

    /// Compare `current` against `baseline`: for every key the baseline
    /// covers, the into/alloc cost ratio must be within `tol` of the
    /// baseline's. Returns human-readable failure lines; empty = pass.
    pub fn regressions(
        current: &[MatvecResult],
        baseline: &[MatvecResult],
        tol: f64,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline.iter().filter(|r| r.path == "into") {
            let Some(base_cost) = normalized_cost(baseline, b) else {
                continue; // baseline lacks the alloc reference: ungated
            };
            let Some(cur_cost) = normalized_cost(current, b) else {
                failures.push(format!(
                    "missing result pair for shape={} config={} direction={}",
                    b.shape, b.config, b.direction
                ));
                continue;
            };
            let ratio = cur_cost / base_cost;
            if ratio > tol {
                failures.push(format!(
                    "shape={} config={} direction={}: into/alloc = {:.3} vs baseline {:.3} \
                     ({:.2}x > {:.2}x budget)",
                    b.shape, b.config, b.direction, cur_cost, base_cost, ratio, tol
                ));
            }
        }
        failures
    }

    /// The acceptance check itself: the `into` path must be no slower
    /// than the allocating path at every benchmarked key, within a small
    /// noise margin `tol` (the shipped default is `1.10` — the paths
    /// differ only by one output-vector allocation, so the ratio sits at
    /// ~1.0 and the margin absorbs shared-runner scheduler noise).
    /// Returns failure lines.
    pub fn into_slower_than_alloc(doc: &[MatvecResult], tol: f64) -> Vec<String> {
        doc.iter()
            .filter(|r| r.path == "into")
            .filter_map(|r| {
                let cost = normalized_cost(doc, r)?;
                (cost > tol).then(|| {
                    format!(
                        "shape={} config={} direction={}: into path {:.3}x the alloc path \
                         (> {:.2}x)",
                        r.shape, r.config, r.direction, cost, tol
                    )
                })
            })
            .collect()
    }
}

/// Machine-readable SIMD-vs-scalar records: the `BENCH_simd.json` /
/// `bench/baseline_simd.json` format the CI `bench-smoke` job produces
/// and gates on. Same line-oriented JSON convention as [`benchjson`];
/// rows are keyed by `(kernel, precision)`. Both legs of every row are
/// measured interleaved in one session, so the gate statistic — the
/// portable/simd speedup — cancels machine speed like the other gates'
/// normalized costs.
pub mod simdjson {
    /// One measured kernel data point.
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

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[SimdResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_call\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"precision\": \"{}\", \"level\": \"{}\", \
                 \"portable_ns\": {:.1}, \"simd_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
                r.kernel,
                r.precision,
                r.level,
                r.portable_ns,
                r.simd_ns,
                r.speedup(),
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`] (the redundant `speedup` field is recomputed,
    /// not trusted).
    pub fn parse_document(text: &str) -> Vec<SimdResult> {
        text.lines()
            .filter_map(|line| {
                Some(SimdResult {
                    kernel: field(line, "kernel")?.to_string(),
                    precision: field(line, "precision")?.to_string(),
                    level: field(line, "level")?.to_string(),
                    portable_ns: field(line, "portable_ns")?.parse().ok()?,
                    simd_ns: field(line, "simd_ns")?.parse().ok()?,
                })
            })
            .collect()
    }

    /// Number of baseline rows the gate can enforce. 0 means a broken
    /// baseline — callers should fail on it, not report success.
    pub fn gated_count(baseline: &[SimdResult]) -> usize {
        baseline.len()
    }

    /// Compare `current` against `baseline`: every baseline row's speedup
    /// must be matched within `tol` (e.g. `1.25` = the current speedup may
    /// be at most 25% below the committed one). Missing rows fail. Returns
    /// human-readable failure lines; empty = pass.
    pub fn regressions(current: &[SimdResult], baseline: &[SimdResult], tol: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline {
            let Some(c) =
                current.iter().find(|c| c.kernel == b.kernel && c.precision == b.precision)
            else {
                failures.push(format!(
                    "missing result for kernel={} precision={}",
                    b.kernel, b.precision
                ));
                continue;
            };
            let ratio = b.speedup() / c.speedup();
            if ratio > tol {
                failures.push(format!(
                    "kernel={} precision={}: speedup {:.2}x vs baseline {:.2}x \
                     ({:.2}x > {:.2}x budget)",
                    b.kernel,
                    b.precision,
                    c.speedup(),
                    b.speedup(),
                    ratio,
                    tol
                ));
            }
        }
        failures
    }
}

/// Machine-readable serving-load records: the `BENCH_service.json` /
/// `bench/baseline_service.json` format the CI `bench-smoke` job
/// produces and gates on. Same line-oriented JSON convention as
/// [`benchjson`]; rows are keyed by `(shape, mode)` where `mode` is
/// `"coalesced"` (the service's max-batch window) or `"batch1"`
/// (windows forced to a single request). Both modes are measured in one
/// session at the same offered load, so the gate statistic — the
/// coalesced/batch1 throughput ratio — cancels machine speed like the
/// other gates' normalized costs.
pub mod servicejson {
    /// One measured serving-load data point.
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

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[ServiceResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"requests_per_second\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"mode\": \"{}\", \"max_batch\": {}, \
                 \"threads\": {}, \"offered_rps\": {:.1}, \"throughput_rps\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"mean_batch\": {:.2}, \
                 \"completed\": {}, \"rejected\": {}}}{}\n",
                r.shape,
                r.mode,
                r.max_batch,
                r.threads,
                r.offered_rps,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.mean_batch,
                r.completed,
                r.rejected,
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`]. Lines without a `"max_batch"` field (the
    /// envelope, including its own `"mode"` line) are skipped.
    pub fn parse_document(text: &str) -> Vec<ServiceResult> {
        text.lines()
            .filter_map(|line| {
                Some(ServiceResult {
                    shape: field(line, "shape")?.to_string(),
                    mode: field(line, "mode")?.to_string(),
                    max_batch: field(line, "max_batch")?.parse().ok()?,
                    threads: field(line, "threads")?.parse().ok()?,
                    offered_rps: field(line, "offered_rps")?.parse().ok()?,
                    throughput_rps: field(line, "throughput_rps")?.parse().ok()?,
                    p50_us: field(line, "p50_us")?.parse().ok()?,
                    p99_us: field(line, "p99_us")?.parse().ok()?,
                    mean_batch: field(line, "mean_batch")?.parse().ok()?,
                    completed: field(line, "completed")?.parse().ok()?,
                    rejected: field(line, "rejected")?.parse().ok()?,
                })
            })
            .collect()
    }

    fn throughput(doc: &[ServiceResult], shape: &str, mode: &str) -> Option<f64> {
        doc.iter()
            .find(|r| r.shape == shape && r.mode == mode)
            .map(|r| r.throughput_rps)
            .filter(|&t| t > 0.0)
    }

    /// The gate statistic at `shape`: coalesced throughput divided by
    /// batch1 throughput *from the same document* — a same-session ratio,
    /// so machine speed cancels and a CI runner can gate against a
    /// baseline committed from different hardware.
    pub fn coalescing_speedup(doc: &[ServiceResult], shape: &str) -> Option<f64> {
        Some(throughput(doc, shape, "coalesced")? / throughput(doc, shape, "batch1")?)
    }

    /// Number of baseline shapes the gate can enforce (both modes
    /// present). 0 means a broken baseline — callers should fail on it,
    /// not report success.
    pub fn gated_count(baseline: &[ServiceResult]) -> usize {
        baseline
            .iter()
            .filter(|r| r.mode == "coalesced")
            .filter(|r| coalescing_speedup(baseline, &r.shape).is_some())
            .count()
    }

    /// Compare `current` against `baseline`: for every shape the baseline
    /// covers, the coalescing speedup must be within `tol` of the
    /// baseline's (e.g. `1.25` = the current speedup may be at most 25%
    /// below the committed one). Missing shapes fail. Returns
    /// human-readable failure lines; empty = pass.
    pub fn regressions(
        current: &[ServiceResult],
        baseline: &[ServiceResult],
        tol: f64,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline.iter().filter(|r| r.mode == "coalesced") {
            let Some(base) = coalescing_speedup(baseline, &b.shape) else {
                continue; // baseline lacks the batch1 reference: ungated
            };
            let Some(cur) = coalescing_speedup(current, &b.shape) else {
                failures.push(format!("missing result pair for shape={}", b.shape));
                continue;
            };
            let ratio = base / cur;
            if ratio > tol {
                failures.push(format!(
                    "shape={}: coalescing speedup {:.2}x vs baseline {:.2}x \
                     ({:.2}x > {:.2}x budget)",
                    b.shape, cur, base, ratio, tol
                ));
            }
        }
        failures
    }

    /// The absolute saturation gate: every shape's coalescing speedup
    /// must reach `min_speedup` (the shipped bar is `1.5`). Only
    /// meaningful on hosts with enough lanes that the coalesced window
    /// can actually exploit intra-batch parallelism — callers SKIP (with
    /// logged numbers) below 4 lanes. Returns failure lines.
    pub fn saturation_failures(doc: &[ServiceResult], min_speedup: f64) -> Vec<String> {
        doc.iter()
            .filter(|r| r.mode == "coalesced")
            .filter_map(|r| {
                let speedup = coalescing_speedup(doc, &r.shape)?;
                (speedup < min_speedup).then(|| {
                    format!(
                        "shape={}: coalescing speedup {:.2}x below the {:.2}x saturation bar",
                        r.shape, speedup, min_speedup
                    )
                })
            })
            .collect()
    }

    /// The occupancy gate: coalesced windows must average at least
    /// `min_frac` of their `max_batch` (the shipped bar is `0.25`) — it
    /// proves requests genuinely coalesce rather than trickling through
    /// one per window, and unlike the saturation gate it holds on any
    /// host because an overloaded single lane fills windows regardless
    /// of core count. Returns failure lines.
    pub fn occupancy_failures(doc: &[ServiceResult], min_frac: f64) -> Vec<String> {
        doc.iter()
            .filter(|r| r.mode == "coalesced")
            .filter_map(|r| {
                let floor = r.max_batch as f64 * min_frac;
                (r.mean_batch < floor).then(|| {
                    format!(
                        "shape={}: mean window occupancy {:.2} below {:.2} \
                         ({}% of max_batch {})",
                        r.shape,
                        r.mean_batch,
                        floor,
                        (min_frac * 100.0) as u32,
                        r.max_batch
                    )
                })
            })
            .collect()
    }
}

/// Print a horizontal rule sized to a header line.
/// Machine-readable autotuner records: the `BENCH_autotune.json` /
/// `bench/baseline_autotune.json` format the CI `bench-smoke` job
/// produces and gates on. Same line-oriented JSON convention as
/// [`benchjson`]; rows are keyed by `(shape, direction, budget)`.
///
/// Three gate statistics per row:
/// * **promise** (absolute, any host): the measured relative error of
///   the configuration the autotuner picked must be at or under the
///   requested budget;
/// * **no-slower** (intra-run, any host): all-double is always
///   admissible, so the autotuned configuration may never be materially
///   slower than all-double — both legs are timed interleaved in one
///   process;
/// * **speedup** (baseline-normalized): the double/tuned cost ratio is
///   a same-session statistic that cancels machine speed, but the
///   *chosen* configuration is itself host-dependent (the autotuner
///   measures this host's tiers), so the baseline tolerance is looser
///   than the kernel-level gates'.
pub mod autotunejson {
    /// One autotuned operating point.
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

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[AutotuneResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_apply\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"direction\": \"{}\", \"budget\": {:e}, \
                 \"config\": \"{}\", \"bound\": {:.3e}, \"measured_error\": {:.3e}, \
                 \"double_ns\": {:.1}, \"tuned_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
                r.shape,
                r.direction,
                r.budget,
                r.config,
                r.bound,
                r.measured_error,
                r.double_ns,
                r.tuned_ns,
                r.speedup(),
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`] (the redundant `speedup` field is recomputed,
    /// not trusted).
    pub fn parse_document(text: &str) -> Vec<AutotuneResult> {
        text.lines()
            .filter_map(|line| {
                Some(AutotuneResult {
                    shape: field(line, "shape")?.to_string(),
                    direction: field(line, "direction")?.to_string(),
                    budget: field(line, "budget")?.parse().ok()?,
                    config: field(line, "config")?.to_string(),
                    bound: field(line, "bound")?.parse().ok()?,
                    measured_error: field(line, "measured_error")?.parse().ok()?,
                    double_ns: field(line, "double_ns")?.parse().ok()?,
                    tuned_ns: field(line, "tuned_ns")?.parse().ok()?,
                })
            })
            .collect()
    }

    /// Number of baseline rows the gate can enforce. 0 means a broken
    /// baseline — callers should fail on it, not report success.
    pub fn gated_count(baseline: &[AutotuneResult]) -> usize {
        baseline.len()
    }

    /// Rows whose measured error exceeds the budget they were tuned
    /// for — the promise the autotuner must never break, on any host.
    pub fn promise_failures(doc: &[AutotuneResult]) -> Vec<String> {
        doc.iter()
            .filter(|r| r.measured_error > r.budget || r.measured_error.is_nan())
            .map(|r| {
                format!(
                    "shape={} direction={} budget={:e}: config {} measured {:.3e} \
                     over its budget",
                    r.shape, r.direction, r.budget, r.config, r.measured_error
                )
            })
            .collect()
    }

    /// Rows where the autotuned configuration ran materially slower
    /// than all-double (`tuned_ns > double_ns · margin`). All-double is
    /// always admissible, so picking something slower means the cost
    /// order was wrong.
    pub fn no_slower_failures(doc: &[AutotuneResult], margin: f64) -> Vec<String> {
        doc.iter()
            .filter(|r| r.tuned_ns > r.double_ns * margin)
            .map(|r| {
                format!(
                    "shape={} direction={} budget={:e}: config {} at {:.0} ns/apply is \
                     slower than all-double at {:.0} ns/apply (margin {:.2}x)",
                    r.shape, r.direction, r.budget, r.config, r.tuned_ns, r.double_ns, margin
                )
            })
            .collect()
    }

    /// Compare `current` against `baseline`: every baseline row's
    /// speedup must be matched within `tol`. Missing rows fail. Returns
    /// human-readable failure lines; empty = pass.
    pub fn regressions(
        current: &[AutotuneResult],
        baseline: &[AutotuneResult],
        tol: f64,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline {
            let Some(c) = current
                .iter()
                .find(|c| c.shape == b.shape && c.direction == b.direction && c.budget == b.budget)
            else {
                failures.push(format!(
                    "missing result for shape={} direction={} budget={:e}",
                    b.shape, b.direction, b.budget
                ));
                continue;
            };
            let ratio = b.speedup() / c.speedup();
            if ratio > tol {
                failures.push(format!(
                    "shape={} direction={} budget={:e}: speedup {:.2}x vs baseline {:.2}x \
                     ({:.2}x > {:.2}x budget)",
                    b.shape,
                    b.direction,
                    b.budget,
                    c.speedup(),
                    b.speedup(),
                    ratio,
                    tol
                ));
            }
        }
        failures
    }
}

/// Machine-readable multi-level Toeplitz records: the
/// `BENCH_toeplitz.json` / `bench/baseline_toeplitz.json` format the CI
/// `bench-smoke` job produces and gates on. Same line-oriented JSON
/// convention as [`benchjson`]; rows are keyed by `(shape, direction)`
/// where `shape` is the two-level extents
/// `"{or}x{oc}x{ir}x{ic}"`.
///
/// Three gate statistics per row:
/// * **scratch** (absolute, any host): the split-FFT path's peak
///   workspace bytes must be at most `max_ratio` (shipped bar `0.75`)
///   of the full embedding's — the whole point of the memory-optimized
///   construction, measured from the operators' own pool diagnostics,
///   so it cannot drift with timing noise;
/// * **speedup** (baseline-normalized): dense ns divided by FFT-path ns
///   is a same-session ratio — machine speed cancels, so a CI runner
///   gates against a baseline committed from different hardware;
/// * the differential check itself (FFT within ulp budget of dense)
///   lives in the binary, not the document — a row only exists if it
///   passed.
pub mod toeplitzjson {
    /// One measured two-level operating point.
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

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[ToeplitzResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_apply\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"direction\": \"{}\", \"full_ns\": {:.1}, \
                 \"split_ns\": {:.1}, \"dense_ns\": {:.1}, \"full_peak_bytes\": {}, \
                 \"split_peak_bytes\": {}, \"full_speedup\": {:.3}, \
                 \"scratch_ratio\": {:.3}}}{}\n",
                r.shape,
                r.direction,
                r.full_ns,
                r.split_ns,
                r.dense_ns,
                r.full_peak_bytes,
                r.split_peak_bytes,
                r.full_speedup(),
                r.scratch_ratio(),
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`] (the redundant derived fields are recomputed,
    /// not trusted).
    pub fn parse_document(text: &str) -> Vec<ToeplitzResult> {
        text.lines()
            .filter_map(|line| {
                Some(ToeplitzResult {
                    shape: field(line, "shape")?.to_string(),
                    direction: field(line, "direction")?.to_string(),
                    full_ns: field(line, "full_ns")?.parse().ok()?,
                    split_ns: field(line, "split_ns")?.parse().ok()?,
                    dense_ns: field(line, "dense_ns")?.parse().ok()?,
                    full_peak_bytes: field(line, "full_peak_bytes")?.parse().ok()?,
                    split_peak_bytes: field(line, "split_peak_bytes")?.parse().ok()?,
                })
            })
            .collect()
    }

    /// Number of baseline rows the gate can enforce. 0 means a broken
    /// baseline — callers should fail on it, not report success.
    pub fn gated_count(baseline: &[ToeplitzResult]) -> usize {
        baseline.len()
    }

    /// The absolute memory gate: rows where the split-FFT path's peak
    /// workspace exceeds `max_ratio` of the full embedding's. This is
    /// the split path's reason to exist, and it is measured from pool
    /// diagnostics (deterministic byte counts), so the shipped bar of
    /// `0.75` holds on any host.
    pub fn scratch_failures(doc: &[ToeplitzResult], max_ratio: f64) -> Vec<String> {
        doc.iter()
            .filter(|r| {
                let ratio = r.scratch_ratio();
                ratio.is_nan() || ratio > max_ratio
            })
            .map(|r| {
                format!(
                    "shape={} direction={}: split peak {} B is {:.2}x the full peak {} B \
                     (> {:.2}x budget)",
                    r.shape,
                    r.direction,
                    r.split_peak_bytes,
                    r.scratch_ratio(),
                    r.full_peak_bytes,
                    max_ratio
                )
            })
            .collect()
    }

    /// Compare `current` against `baseline`: every baseline row's
    /// dense/full speedup must be matched within `tol` (e.g. `1.5` =
    /// the current speedup may be at most 33% below the committed one).
    /// Missing rows fail. Returns human-readable failure lines; empty =
    /// pass.
    pub fn regressions(
        current: &[ToeplitzResult],
        baseline: &[ToeplitzResult],
        tol: f64,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline {
            let Some(c) = current.iter().find(|c| c.shape == b.shape && c.direction == b.direction)
            else {
                failures.push(format!(
                    "missing result for shape={} direction={}",
                    b.shape, b.direction
                ));
                continue;
            };
            let ratio = b.full_speedup() / c.full_speedup();
            if ratio > tol {
                failures.push(format!(
                    "shape={} direction={}: dense/full speedup {:.2}x vs baseline {:.2}x \
                     ({:.2}x > {:.2}x budget)",
                    b.shape,
                    b.direction,
                    c.full_speedup(),
                    b.full_speedup(),
                    ratio,
                    tol
                ));
            }
        }
        failures
    }
}

/// Machine-readable backend-dispatch records: the `BENCH_backend.json` /
/// `bench/baseline_backend.json` format the CI `bench-smoke` job
/// produces and gates on. Same line-oriented JSON convention as
/// [`benchjson`]; rows are keyed by `(primitive, precision)`. Both legs
/// of every row are measured interleaved in one session — the direct
/// call path (concrete types, no virtual dispatch) against the same
/// kernel reached through `Arc<dyn DeviceBackend>` / `Arc<dyn BatchFft>`
/// — so the gate statistic, the trait/direct overhead ratio, cancels
/// machine speed like the other gates' normalized costs.
///
/// Two checks, mirroring `bench_simd`:
/// * **ceiling** (absolute, any host): every row's overhead must stay
///   under `-max` (the shipped bar is `1.05` — the trait boundary adds
///   one vtable hop plus enum tier/length validation per *batched*
///   call, which real workloads amortize to noise);
/// * **baseline**: every row's overhead must stay within `-tol` of the
///   committed `bench/baseline_backend.json`.
pub mod backendjson {
    /// One measured dispatch data point.
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

    /// Render the full document (`mode` = `"quick"` or `"full"`).
    pub fn format_document(mode: &str, results: &[BackendResult]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"unit\": \"ns_per_call\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"primitive\": \"{}\", \"precision\": \"{}\", \
                 \"direct_ns\": {:.1}, \"trait_ns\": {:.1}, \"overhead\": {:.4}}}{}\n",
                r.primitive,
                r.precision,
                r.direct_ns,
                r.trait_ns,
                r.overhead(),
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extract the value following `"key":` on `line`, up to `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// Parse every result line of a document produced by
    /// [`format_document`] (the redundant `overhead` field is recomputed,
    /// not trusted).
    pub fn parse_document(text: &str) -> Vec<BackendResult> {
        text.lines()
            .filter_map(|line| {
                Some(BackendResult {
                    primitive: field(line, "primitive")?.to_string(),
                    precision: field(line, "precision")?.to_string(),
                    direct_ns: field(line, "direct_ns")?.parse().ok()?,
                    trait_ns: field(line, "trait_ns")?.parse().ok()?,
                })
            })
            .collect()
    }

    /// Number of baseline rows the gate can enforce. 0 means a broken
    /// baseline — callers should fail on it, not report success.
    pub fn gated_count(baseline: &[BackendResult]) -> usize {
        baseline.len()
    }

    /// The absolute ceiling gate: rows whose trait-dispatch overhead
    /// exceeds `max_overhead`. Returns failure lines; empty = pass.
    pub fn overhead_failures(doc: &[BackendResult], max_overhead: f64) -> Vec<String> {
        doc.iter()
            // NaN-safe: an incomparable (NaN) overhead must fail the gate,
            // so only a definite <= passes.
            .filter(|r| {
                !matches!(
                    r.overhead().partial_cmp(&max_overhead),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                )
            })
            .map(|r| {
                format!(
                    "primitive={} precision={}: trait path {:.3}x the direct path \
                     (> {:.2}x ceiling)",
                    r.primitive,
                    r.precision,
                    r.overhead(),
                    max_overhead
                )
            })
            .collect()
    }

    /// Compare `current` against `baseline`: every baseline row's
    /// overhead must be matched within `tol` (e.g. `1.05` = the current
    /// overhead may exceed the committed one by at most 5%). Missing
    /// rows fail. Returns human-readable failure lines; empty = pass.
    pub fn regressions(
        current: &[BackendResult],
        baseline: &[BackendResult],
        tol: f64,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for b in baseline {
            let Some(c) =
                current.iter().find(|c| c.primitive == b.primitive && c.precision == b.precision)
            else {
                failures.push(format!(
                    "missing result for primitive={} precision={}",
                    b.primitive, b.precision
                ));
                continue;
            };
            let ratio = c.overhead() / b.overhead();
            if ratio > tol {
                failures.push(format!(
                    "primitive={} precision={}: overhead {:.3}x vs baseline {:.3}x \
                     ({:.2}x > {:.2}x budget)",
                    b.primitive,
                    b.precision,
                    c.overhead(),
                    b.overhead(),
                    ratio,
                    tol
                ));
            }
        }
        failures
    }
}

pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Shared micro-benchmark timing used by every gate binary
/// (`bench_fft`, `bench_matvec`, `bench_speedup`): batch calibration and
/// interleaved min-of-samples measurement.
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
    fn benchjson_roundtrip() {
        use crate::benchjson::*;
        let results = vec![
            BenchResult {
                size: 1024,
                precision: "f64".into(),
                engine: "iterative".into(),
                threads: 4,
                ns_per_transform: 1234.5,
            },
            BenchResult {
                size: 2048,
                precision: "f32".into(),
                engine: "recursive".into(),
                threads: 4,
                ns_per_transform: 99.0,
            },
        ];
        let doc = format_document("quick", &results);
        assert!(doc.contains("\"mode\": \"quick\""));
        let parsed = parse_document(&doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].size, 1024);
        assert_eq!(parsed[0].engine, "iterative");
        assert_eq!(parsed[0].threads, 4);
        assert_eq!(parsed[1].precision, "f32");
        assert!((parsed[0].ns_per_transform - 1234.5).abs() < 0.11);
        // Pre-thread-column lines (sequential-shim era) parse with
        // threads defaulting to 1.
        let legacy = "{\"size\": 8, \"precision\": \"f64\", \"engine\": \"iterative\", \
                      \"ns_per_transform\": 10.0}";
        let parsed = parse_document(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].threads, 1);
    }

    #[test]
    fn matvecjson_roundtrip_and_gates() {
        use crate::matvecjson::*;
        let row = |path: &str, ns: f64| MatvecResult {
            shape: "4x250x100".into(),
            config: "dssdd".into(),
            direction: "forward".into(),
            path: path.into(),
            threads: 1,
            ns_per_apply: ns,
        };
        let doc = vec![row("alloc", 1000.0), row("into", 900.0)];
        let text = format_document("quick", &doc);
        assert_eq!(parse_document(&text), doc);
        assert_eq!(gated_count(&doc), 1);
        // into faster than alloc: both gates pass.
        assert!(into_slower_than_alloc(&doc, 1.05).is_empty());
        assert!(regressions(&doc, &doc, 1.25).is_empty());
        // into slower than alloc: the acceptance check fires.
        let bad = vec![row("alloc", 1000.0), row("into", 1200.0)];
        assert_eq!(into_slower_than_alloc(&bad, 1.05).len(), 1);
        // Relative regression vs baseline fires even on a faster machine.
        let slower = vec![row("alloc", 500.0), row("into", 640.0)];
        assert_eq!(regressions(&slower, &doc, 1.25).len(), 1);
        // Missing pair is a failure; alloc-only baseline gates nothing.
        assert_eq!(regressions(&[], &doc, 1.25).len(), 1);
        assert_eq!(gated_count(&doc[..1]), 0);
    }

    #[test]
    fn simdjson_roundtrip_and_gate() {
        use crate::simdjson::*;
        let row = |kernel: &str, portable: f64, simd: f64| SimdResult {
            kernel: kernel.into(),
            precision: "f16".into(),
            level: "avx2".into(),
            portable_ns: portable,
            simd_ns: simd,
        };
        let doc = vec![row("convert_widen", 4000.0, 1000.0), row("fft_forward", 3000.0, 2000.0)];
        let text = format_document("quick", &doc);
        assert!(text.contains("\"speedup\": 4.000"));
        assert_eq!(parse_document(&text), doc);
        assert_eq!(gated_count(&doc), 2);
        // Identical run passes; a uniformly slower machine passes too
        // (the speedup is a same-session ratio).
        assert!(regressions(&doc, &doc, 1.25).is_empty());
        let slower = vec![row("convert_widen", 8000.0, 2000.0), row("fft_forward", 6000.0, 4000.0)];
        assert!(regressions(&slower, &doc, 1.25).is_empty());
        // Losing more than the budget of the committed speedup fails.
        let faded = vec![row("convert_widen", 4000.0, 2000.0), row("fft_forward", 3000.0, 2000.0)];
        assert_eq!(regressions(&faded, &doc, 1.25).len(), 1);
        // Missing rows fail.
        assert_eq!(regressions(&doc[..1], &doc, 1.25).len(), 1);
    }

    #[test]
    fn servicejson_roundtrip_and_gates() {
        use crate::servicejson::*;
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
        let doc = vec![row("coalesced", 32, 5400.0, 18.0), row("batch1", 1, 2700.0, 1.0)];
        let text = format_document("full", &doc);
        assert!(text.contains("\"throughput_rps\": 5400.0"));
        assert_eq!(parse_document(&text), doc);
        assert_eq!(gated_count(&doc), 1);
        assert!((coalescing_speedup(&doc, "8x64x256").unwrap() - 2.0).abs() < 1e-12);
        // Same doc vs itself passes; so does a uniformly slower machine
        // (the speedup is a same-session ratio).
        assert!(regressions(&doc, &doc, 1.25).is_empty());
        let slower = vec![row("coalesced", 32, 540.0, 18.0), row("batch1", 1, 270.0, 1.0)];
        assert!(regressions(&slower, &doc, 1.25).is_empty());
        // Losing more than the budget of the committed speedup fails.
        let faded = vec![row("coalesced", 32, 3000.0, 18.0), row("batch1", 1, 2700.0, 1.0)];
        assert_eq!(regressions(&faded, &doc, 1.25).len(), 1);
        // Missing pairs fail; a one-mode baseline gates nothing.
        assert_eq!(regressions(&[], &doc, 1.25).len(), 1);
        assert_eq!(gated_count(&doc[..1]), 0);
        // Absolute saturation bar: 2.0x passes 1.5, 1.1x fails.
        assert!(saturation_failures(&doc, 1.5).is_empty());
        assert_eq!(saturation_failures(&faded, 1.5).len(), 1);
        // Occupancy bar: 18/32 passes 25%, 5/32 fails.
        assert!(occupancy_failures(&doc, 0.25).is_empty());
        let trickle = vec![row("coalesced", 32, 5400.0, 5.0), row("batch1", 1, 2700.0, 1.0)];
        assert_eq!(occupancy_failures(&trickle, 0.25).len(), 1);
    }

    #[test]
    fn toeplitzjson_roundtrip_and_gates() {
        use crate::toeplitzjson::*;
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
        let doc = vec![
            row("forward", 1000.0, 1400.0, 8000.0, 32768, 16384),
            row("adjoint", 1100.0, 1500.0, 8000.0, 32768, 16384),
        ];
        let text = format_document("quick", &doc);
        assert!(text.contains("\"full_speedup\": 8.000"));
        assert!(text.contains("\"scratch_ratio\": 0.500"));
        assert_eq!(parse_document(&text), doc);
        assert_eq!(gated_count(&doc), 2);
        // Half the scratch clears the 0.75 bar; parity does not.
        assert!(scratch_failures(&doc, 0.75).is_empty());
        let bloated = vec![row("forward", 1000.0, 1400.0, 8000.0, 32768, 32768)];
        assert_eq!(scratch_failures(&bloated, 0.75).len(), 1);
        // Identical run passes; a uniformly slower machine passes too
        // (the speedup is a same-session ratio).
        assert!(regressions(&doc, &doc, 1.5).is_empty());
        let slower = vec![
            row("forward", 3000.0, 4200.0, 24000.0, 32768, 16384),
            row("adjoint", 3300.0, 4500.0, 24000.0, 32768, 16384),
        ];
        assert!(regressions(&slower, &doc, 1.5).is_empty());
        // Losing more than the budget of the committed speedup fails.
        let faded = vec![
            row("forward", 2000.0, 1400.0, 8000.0, 32768, 16384),
            row("adjoint", 1100.0, 1500.0, 8000.0, 32768, 16384),
        ];
        assert_eq!(regressions(&faded, &doc, 1.5).len(), 1);
        // Missing rows fail.
        assert_eq!(regressions(&doc[..1], &doc, 1.5).len(), 1);
    }

    #[test]
    fn benchjson_regression_gate() {
        use crate::benchjson::*;
        let pair = |it: f64, rec: f64| {
            vec![
                BenchResult {
                    size: 1024,
                    precision: "f64".into(),
                    engine: "iterative".into(),
                    threads: 1,
                    ns_per_transform: it,
                },
                BenchResult {
                    size: 1024,
                    precision: "f64".into(),
                    engine: "recursive".into(),
                    threads: 1,
                    ns_per_transform: rec,
                },
            ]
        };
        // Baseline: iterative is 2x faster than recursive (cost 0.5).
        let base = pair(1000.0, 2000.0);
        // A uniformly slower machine (both engines 3x slower) still passes:
        // the normalized cost is unchanged.
        assert!(regressions(&pair(3000.0, 6000.0), &base, 1.25).is_empty());
        // 20% relative slowdown of the iterative engine passes...
        assert!(regressions(&pair(1200.0, 2000.0), &base, 1.25).is_empty());
        // ...30% fails, even though the machine could be fast overall.
        assert_eq!(regressions(&pair(650.0, 1000.0), &base, 1.25).len(), 1);
        // Missing entries fail.
        assert_eq!(regressions(&[], &base, 1.25).len(), 1);
        // A baseline without the recursive reference is ungated — and
        // gated_count exposes that so callers can refuse to run with it.
        assert!(regressions(&[], &base[..1], 1.25).is_empty());
        assert_eq!(gated_count(&base), 1);
        assert_eq!(gated_count(&base[..1]), 0, "iterative-only baseline gates nothing");
    }
}
