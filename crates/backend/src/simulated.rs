//! [`SimulatedDevice`] — the `fftmatvec-gpu` analytical cost model recast
//! as a [`DeviceBackend`].
//!
//! Arithmetic executes on the CPU through the exact same kernels as
//! [`crate::CpuPool`] (so results are bit-identical — the determinism
//! gate runs a `FFTMATVEC_BACKEND=simulated` leg to pin this), but every
//! primitive also books the modeled wall time of the corresponding GPU
//! launch into a [`PhaseTimes`] ledger. That makes the backend the
//! cost-model front door: the free-standing `estimate_time` /
//! `achieved_bandwidth` entry points of `fftmatvec-gpu` are methods here
//! ([`SimulatedDevice::estimate`], [`SimulatedDevice::achieved_bandwidth`],
//! [`SimulatedDevice::efficiency`]), and the accumulated
//! [`SimulatedDevice::modeled`] snapshot is what the autotuner
//! calibration and the distributed-placement tests consume.
//!
//! Phase attribution: forward FFTs book [`Phase::Fft`], inverse FFTs
//! [`Phase::Ifft`], the pointwise symbol multiply [`Phase::Sbgemv`] (it
//! *is* the degenerate 1×1 SBGEMV of the multi-level pipelines),
//! phase-boundary casts [`Phase::Pad`] (they are fused into the
//! pad/boundary streaming traffic on a real device), and transfers plus
//! tree reductions [`Phase::Comm`]. Host↔device transfers are charged at
//! [`HOST_LINK_BYTES_PER_SEC`] — a PCIe Gen5 x16-class link, deliberately
//! far below HBM bandwidth so placement tests see the transfer cliff the
//! paper's Section 2.4 setup amortizes away.

use std::sync::{Arc, Mutex};

use fftmatvec_gpu::kernel::{dtype_for, FFT_PASSES};
use fftmatvec_gpu::{DeviceSpec, KernelProfile, Phase, PhaseTimes};
use fftmatvec_numeric::{ComplexBuffer, Precision, RealBuffer};

use crate::cpu::{
    cast_complex_impl, cast_real_impl, download_impl, new_cpu_fft, pointwise_impl,
    tree_reduce_impl, upload_impl,
};
use crate::error::BackendError;
use crate::kind::BackendKind;
use crate::traits::{BatchFft, DeviceBackend, TransferStats};

/// Modeled host↔device link bandwidth (bytes/s): PCIe Gen5 x16 class.
pub const HOST_LINK_BYTES_PER_SEC: f64 = 64e9;

#[derive(Debug, Default)]
struct SimState {
    times: PhaseTimes,
    stats: TransferStats,
}

/// A simulated GPU: CPU execution, modeled device timings.
#[derive(Debug)]
pub struct SimulatedDevice {
    spec: DeviceSpec,
    state: Arc<Mutex<SimState>>,
}

impl Default for SimulatedDevice {
    /// The paper's middle device (MI300X) — the lineup's representative
    /// tuned part.
    fn default() -> Self {
        Self::mi300x()
    }
}

impl SimulatedDevice {
    /// Simulate an arbitrary device specification.
    pub fn new(spec: DeviceSpec) -> Self {
        SimulatedDevice { spec, state: Arc::new(Mutex::new(SimState::default())) }
    }

    /// One MI250X Graphics Compute Die (CDNA2).
    pub fn mi250x_gcd() -> Self {
        Self::new(DeviceSpec::mi250x_gcd())
    }

    /// AMD Instinct MI300X (CDNA3).
    pub fn mi300x() -> Self {
        Self::new(DeviceSpec::mi300x())
    }

    /// AMD Instinct MI355X (CDNA4, untuned rocBLAS caps).
    pub fn mi355x() -> Self {
        Self::new(DeviceSpec::mi355x())
    }

    /// The paper's three evaluation devices, in presentation order.
    pub fn paper_lineup() -> Vec<SimulatedDevice> {
        DeviceSpec::paper_lineup().into_iter().map(Self::new).collect()
    }

    /// The simulated device's specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Modeled wall time of one kernel launch on this device — the
    /// cost-model front door (formerly reached through
    /// `KernelProfile::estimate_time` + a free-standing `DeviceSpec`).
    pub fn estimate(&self, kernel: &KernelProfile) -> f64 {
        kernel.estimate_time(&self.spec)
    }

    /// Modeled achieved fraction of peak bandwidth for a launch.
    pub fn efficiency(&self, kernel: &KernelProfile) -> f64 {
        kernel.efficiency(&self.spec)
    }

    /// Modeled achieved bandwidth (bytes/s) — the `rocblas-bench` metric
    /// Figure 1 plots.
    pub fn achieved_bandwidth(&self, kernel: &KernelProfile) -> f64 {
        kernel.achieved_bandwidth(&self.spec)
    }

    /// Snapshot of the modeled per-phase device times accumulated since
    /// construction or the last [`DeviceBackend::reset_transfers`].
    pub fn modeled(&self) -> PhaseTimes {
        self.state.lock().unwrap().times.clone()
    }

    fn book(&self, phase: Phase, seconds: f64) {
        self.state.lock().unwrap().times.add(phase, seconds);
    }

    fn book_link(&self, bytes: usize) {
        self.book(Phase::Comm, self.spec.launch_latency + bytes as f64 / HOST_LINK_BYTES_PER_SEC);
    }
}

/// Tier FFT handle that executes on the CPU and books modeled device
/// time per batch.
#[derive(Debug)]
struct SimFft {
    inner: Arc<dyn BatchFft>,
    spec: DeviceSpec,
    state: Arc<Mutex<SimState>>,
}

impl SimFft {
    fn book_fft(&self, phase: Phase, name: &'static str, batch: usize) {
        let kernel = KernelProfile::fft(
            name,
            dtype_for(true, self.inner.tier()),
            self.inner.transform_len(),
            batch,
            FFT_PASSES,
        );
        self.state.lock().unwrap().times.add(phase, kernel.estimate_time(&self.spec));
    }
}

impl BatchFft for SimFft {
    fn tier(&self) -> Precision {
        self.inner.tier()
    }

    fn transform_len(&self) -> usize {
        self.inner.transform_len()
    }

    fn forward(&self, input: &RealBuffer, output: &mut ComplexBuffer) -> Result<(), BackendError> {
        self.inner.forward(input, output)?;
        self.book_fft(Phase::Fft, "sim_fft_forward", input.len() / self.transform_len().max(1));
        Ok(())
    }

    fn inverse(
        &self,
        spectrum: &ComplexBuffer,
        output: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        self.inner.inverse(spectrum, output)?;
        self.book_fft(Phase::Ifft, "sim_fft_inverse", output.len() / self.transform_len().max(1));
        Ok(())
    }

    fn scratch_pooled(&self) -> usize {
        self.inner.scratch_pooled()
    }

    fn plan_handle_f64(&self) -> Option<fftmatvec_fft::RealPlanHandle<f64>> {
        self.inner.plan_handle_f64()
    }
}

impl DeviceBackend for SimulatedDevice {
    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn upload_f64(
        &self,
        src: &[f64],
        p: Precision,
        dst: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        upload_impl(src, p, dst);
        self.record_upload(std::mem::size_of_val(src));
        Ok(())
    }

    fn download_f64(&self, src: &RealBuffer, dst: &mut [f64]) -> Result<(), BackendError> {
        download_impl(src, dst)?;
        self.record_download(std::mem::size_of_val(dst));
        Ok(())
    }

    fn record_upload(&self, bytes: usize) {
        {
            let mut st = self.state.lock().unwrap();
            st.stats.uploads += 1;
            st.stats.bytes_up += bytes as u64;
        }
        self.book_link(bytes);
    }

    fn record_download(&self, bytes: usize) {
        {
            let mut st = self.state.lock().unwrap();
            st.stats.downloads += 1;
            st.stats.bytes_down += bytes as u64;
        }
        self.book_link(bytes);
    }

    fn transfers(&self) -> TransferStats {
        self.state.lock().unwrap().stats
    }

    fn reset_transfers(&self) {
        let mut st = self.state.lock().unwrap();
        st.stats = TransferStats::default();
        st.times.clear();
    }

    fn real_fft(&self, p: Precision, n: usize) -> Result<Arc<dyn BatchFft>, BackendError> {
        Ok(Arc::new(SimFft {
            inner: new_cpu_fft(p, n),
            spec: self.spec.clone(),
            state: Arc::clone(&self.state),
        }))
    }

    fn pointwise_multiply(
        &self,
        io: &mut ComplexBuffer,
        sym: &ComplexBuffer,
        conj: bool,
    ) -> Result<(), BackendError> {
        pointwise_impl(io, sym, conj)?;
        // The degenerate 1×1 SBGEMV: read grid + symbol, write grid.
        let kernel = KernelProfile::streaming(
            "sim_pointwise",
            dtype_for(true, sym.precision()),
            (io.bytes() + sym.bytes()) as f64,
            io.bytes() as f64,
        );
        self.book(Phase::Sbgemv, self.estimate(&kernel));
        Ok(())
    }

    fn cast_real(
        &self,
        src: &RealBuffer,
        p: Precision,
        dst: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        cast_real_impl(src, p, dst);
        let kernel = KernelProfile::streaming(
            "sim_cast_real",
            dtype_for(false, p),
            src.bytes() as f64,
            dst.bytes() as f64,
        );
        self.book(Phase::Pad, self.estimate(&kernel));
        Ok(())
    }

    fn cast_complex(
        &self,
        src: &ComplexBuffer,
        p: Precision,
        dst: &mut ComplexBuffer,
    ) -> Result<(), BackendError> {
        cast_complex_impl(src, p, dst);
        let kernel = KernelProfile::streaming(
            "sim_cast_complex",
            dtype_for(true, p),
            src.bytes() as f64,
            dst.bytes() as f64,
        );
        self.book(Phase::Pad, self.estimate(&kernel));
        Ok(())
    }

    fn tree_reduce(&self, flat: &mut RealBuffer, len: usize) -> Result<(), BackendError> {
        tree_reduce_impl(flat, len)?;
        // Log-depth reduction: each level halves the live data; total
        // traffic is ~1 read of the flat buffer plus ~half of it written.
        let kernel = KernelProfile::streaming(
            "sim_tree_reduce",
            dtype_for(false, flat.precision()),
            flat.bytes() as f64,
            (flat.bytes() / 2) as f64,
        );
        self.book(Phase::Comm, self.estimate(&kernel));
        Ok(())
    }

    fn modeled_times(&self) -> Option<PhaseTimes> {
        Some(self.modeled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPool;

    #[test]
    fn executes_bit_identically_to_cpu_pool() {
        let sim = SimulatedDevice::mi300x();
        let cpu = CpuPool::new();
        let n = 24;
        let x: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.1).cos()).collect();
        let input = RealBuffer::from_f64(Precision::Single, &x);
        let fft_s = sim.real_fft(Precision::Single, n).unwrap();
        let fft_c = cpu.real_fft(Precision::Single, n).unwrap();
        let mut spec_s = ComplexBuffer::zeros(Precision::Single, 2 * (n / 2 + 1));
        let mut spec_c = ComplexBuffer::zeros(Precision::Single, 2 * (n / 2 + 1));
        fft_s.forward(&input, &mut spec_s).unwrap();
        fft_c.forward(&input, &mut spec_c).unwrap();
        for i in 0..spec_s.len() {
            assert_eq!(spec_s.get(i), spec_c.get(i), "bin {i}");
        }
    }

    #[test]
    fn primitives_book_modeled_phase_time() {
        let sim = SimulatedDevice::mi250x_gcd();
        assert_eq!(sim.modeled().total(), 0.0);
        let n = 16;
        let fft = sim.real_fft(Precision::Double, n).unwrap();
        let input = RealBuffer::zeros(Precision::Double, 4 * n);
        let mut spec = ComplexBuffer::zeros(Precision::Double, 4 * (n / 2 + 1));
        fft.forward(&input, &mut spec).unwrap();
        let t = sim.modeled();
        assert!(t.get(Phase::Fft) > 0.0);
        assert_eq!(t.get(Phase::Ifft), 0.0);
        let mut out = RealBuffer::zeros(Precision::Double, 4 * n);
        fft.inverse(&spec, &mut out).unwrap();
        assert!(sim.modeled().get(Phase::Ifft) > 0.0);

        let sym = ComplexBuffer::zeros(Precision::Double, spec.len());
        sim.pointwise_multiply(&mut spec, &sym, false).unwrap();
        assert!(sim.modeled().get(Phase::Sbgemv) > 0.0);

        let mut cast = RealBuffer::zeros(Precision::Single, 0);
        sim.cast_real(&out, Precision::Single, &mut cast).unwrap();
        assert!(sim.modeled().get(Phase::Pad) > 0.0);

        sim.reset_transfers();
        assert_eq!(sim.modeled().total(), 0.0);
    }

    #[test]
    fn transfers_are_counted_and_charged_to_comm() {
        let sim = SimulatedDevice::mi355x();
        let host = vec![1.0f64; 1000];
        let mut dev = RealBuffer::zeros(Precision::Double, 0);
        sim.upload_f64(&host, Precision::Double, &mut dev).unwrap();
        let mut back = vec![0.0f64; 1000];
        sim.download_f64(&dev, &mut back).unwrap();
        let stats = sim.transfers();
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.downloads, 1);
        assert_eq!(stats.bytes_up, 8000);
        assert_eq!(stats.bytes_down, 8000);
        let comm = sim.modeled().get(Phase::Comm);
        // Two launches + 16 kB over the 64 GB/s link.
        let floor = 2.0 * sim.spec().launch_latency + 16000.0 / HOST_LINK_BYTES_PER_SEC;
        assert!((comm - floor).abs() < 1e-12, "comm={comm} floor={floor}");
    }

    #[test]
    fn cost_model_front_door_matches_kernel_profile() {
        let sim = SimulatedDevice::mi300x();
        let k = KernelProfile::fft("probe", dtype_for(true, Precision::Double), 2000, 512, 2.0);
        assert_eq!(sim.estimate(&k), k.estimate_time(sim.spec()));
        assert_eq!(sim.efficiency(&k), k.efficiency(sim.spec()));
        assert_eq!(sim.achieved_bandwidth(&k), k.achieved_bandwidth(sim.spec()));
        assert_eq!(SimulatedDevice::paper_lineup().len(), 3);
    }
}
