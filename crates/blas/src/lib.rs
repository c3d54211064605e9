//! # fftmatvec-blas — strided batched GEMV (SBGEMV)
//!
//! Phase 3 of FFTMatvec is a batched matrix-vector product with the
//! frequency-domain blocks `F̂_k` (`N_t + 1` matrices of size `N_d × N_m`,
//! `N_d ≪ N_m`). The paper found rocBLAS's (conjugate-)transpose kernel
//! collapsing on such *short and wide* matrices and contributed an
//! optimized kernel (Section 3.1.1), later merged upstream. This crate
//! rebuilds both:
//!
//! * [`KernelChoice::Reference`] — the rocBLAS-style kernels. In
//!   (conj)transpose mode each gridblock computes a *single* dot product
//!   of length `m`; grid dims `n × 1 × batch`. When `m ≪ n` that means
//!   many gridblocks with almost no work each — high launch overhead, low
//!   achieved bandwidth.
//! * [`KernelChoice::Optimized`] — the paper's kernel: gridblocks tile the
//!   *columns* of each matrix (grid `⌈n/TILE⌉ × 1 × batch`), each block's
//!   2-D thread set computes a chunk of outputs using vectorized 16-byte
//!   loads, read/compute/write pipelining, and wavefront-shuffle
//!   reductions.
//!
//! Both kernels execute real arithmetic on the CPU through one shared
//! sweep per op (bit-identical results); they differ in the
//! [`fftmatvec_gpu::KernelProfile`] their launches generate, which is
//! what Figure 1 measures. The host-side [`dispatch`] mirrors the rocBLAS
//! integration: transition points choose the kernel from `(op, m, n)`,
//! with the application code unchanged.

pub mod dispatch;
pub mod kernels;
mod simd;
pub mod types;

pub use dispatch::{kernel_profile, sbgemv, sbgemv_with, select_kernel};
pub use types::{BatchGeometry, GemvOp, KernelChoice};

/// Column tile width of the optimized kernel (the paper's gridblocks tile
/// the columns; 64 matches one wavefront of threads per tile edge).
pub const OPT_TILE_COLS: usize = 64;

/// Row chunk the reference non-transpose kernel assigns per gridblock
/// (rocBLAS launches `⌈m/64⌉` blocks in the first grid dimension).
pub const REF_ROW_BLOCK: usize = 64;
