//! Sample statistics, host probes and computed-byte formulas.

use std::time::Instant;

use fftmatvec::numeric::Precision;

/// Nearest-rank summary of a latency sample: the quantiles this runner
/// reports, with the sample count they rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q·n` values at or below it. `None` on an empty
/// sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples lying strictly beyond the nearest-rank `q` quantile — the
/// count that tells whether a reported tail percentile rests on enough
/// data (at least ten).
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |q| nearest_rank(&sorted, q).unwrap_or(f64::NAN);
    Summary { n: sorted.len(), p50: q(0.5), p90: q(0.9), p99: q(0.99) }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Peak resident set (`VmHWM`) of this process in MB, from procfs.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Computed (not measured) bytes one strided batched GEMV moves: every
/// `nd × nm` block of `F̂` once, the input batch once and the output
/// batch once, all in the GEMV tier. Cache misses and write-allocate
/// traffic are not counted.
pub fn sbgemv_bytes(nd: usize, nm: usize, nfreq: usize, transposed: bool, p: Precision) -> usize {
    let (n_in, n_out) = if transposed { (nd, nm) } else { (nm, nd) };
    (nd * nm + n_in + n_out) * nfreq * p.complex_bytes()
}

/// Computed bytes of one STREAM triad pass `a = b + s·c` over `n`
/// doubles: two reads and one write per element.
pub fn triad_bytes(n: usize) -> usize {
    3 * n * std::mem::size_of::<f64>()
}

/// STREAM-style triad bandwidth in GB/s over three arrays whose joint
/// footprint is `bytes_total`, split across `threads` scoped threads;
/// best of `passes` passes after one first-touch pass.
pub fn stream_triad_gbps(bytes_total: usize, threads: usize, passes: usize) -> f64 {
    let n = bytes_total / triad_bytes(1);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..passes + 1 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(std::hint::black_box(&a).iter().all(|&v| v == 7.0), "triad result");
    triad_bytes(n) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_the_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Odd count: the median is the middle element, not an average.
        assert_eq!(nearest_rank(&[3.0, 7.0, 9.0], 0.5), Some(7.0));
    }

    #[test]
    fn summary_reports_its_sample_count_and_sorts_its_input() {
        let v: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 99.0);
        assert_eq!(s.p90, 179.0);
        assert_eq!(s.p99, 197.0);
    }

    #[test]
    fn tail_counts_show_when_a_percentile_has_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1500, 0.99), 15);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn sbgemv_bytes_count_the_matrix_and_both_vectors_in_the_gemv_tier() {
        // 8x1024 blocks, 257 frequencies, NoTrans: x has nm series, y nd.
        let d = sbgemv_bytes(8, 1024, 257, false, Precision::Double);
        assert_eq!(d, (8 * 1024 + 1024 + 8) * 257 * 16);
        // The adjoint swaps the vector lengths; the total is unchanged.
        assert_eq!(sbgemv_bytes(8, 1024, 257, true, Precision::Double), d);
        // Narrower tiers scale every term by the element size.
        assert_eq!(sbgemv_bytes(8, 1024, 257, false, Precision::Single) * 2, d);
        assert_eq!(sbgemv_bytes(8, 1024, 257, false, Precision::Half) * 4, d);
        assert_eq!(sbgemv_bytes(8, 1024, 257, false, Precision::BFloat16) * 4, d);
        // Non-square blocks: vector terms follow the direction.
        assert_eq!(sbgemv_bytes(1, 4, 3, false, Precision::Single), (4 + 4 + 1) * 3 * 8);
    }

    #[test]
    fn triad_bytes_count_two_reads_and_one_write() {
        assert_eq!(triad_bytes(1), 24);
        assert_eq!(triad_bytes(1000), 24_000);
        let gbps = stream_triad_gbps(3 * 8 * 4096, 2, 1);
        assert!(gbps.is_finite() && gbps > 0.0);
    }
}
