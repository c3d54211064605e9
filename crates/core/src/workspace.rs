//! One workspace pool and one batch driver for every operator.
//!
//! `FftMatvec`, the multi-level Toeplitz operators and
//! `DistributedFftMatvec` keep their per-apply buffers in a
//! [`WorkspacePool`]: one workspace per concurrently running worker, a
//! single reused one when serial. For shared-operator serving the pool
//! keeps a **checkout ledger** (each workspace's pool-unique id sits in
//! its pool slot and is recorded while it is out, so returning an id the
//! ledger does not list, the only way two batches could alias one
//! workspace, panics loudly), **bounded retention** (at most
//! [`workspace_retention_cap`] parked; the rest free their buffers), and
//! diagnostics: pooled, in-flight and peak-in-flight counts and the
//! largest single-workspace footprint, [`WorkspacePool::peak_bytes`].
//!
//! [`WorkspacePool::apply_many`] is the batch driver behind every pooled
//! operator's `apply_many_into`.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

use crate::linop::{check_batch, OpDirection, OpError, OpShape};

/// Flat batches above this many `f64` elements split across the pool.
pub const MANY_PAR_THRESHOLD: usize = 1 << 12;

/// One apply's worth of buffers, as a [`WorkspacePool`] holds them.
/// `Default` must not allocate (empty `Vec`s): a checkout with nothing
/// parked starts from it.
pub trait Workspace: Default + Send {
    /// Bytes the buffers currently hold: the scratch footprint of the
    /// apply that last ran in this workspace.
    fn bytes(&self) -> usize;
}

/// Most workspaces a pool parks between applies. A serving registry can
/// point many concurrent batch windows at one shared operator; each
/// window transiently checks out one workspace per executing worker, and
/// without a cap the pool would permanently retain that burst-peak
/// footprint. Sized to comfortably cover the machine's worker
/// concurrency (the steady-state checkout count) while letting bursts
/// free their excess.
pub fn workspace_retention_cap() -> usize {
    // Computed once: `available_parallelism` reads procfs/cgroup state on
    // Linux, which allocates — and this runs on the apply hot path (every
    // workspace return), which is contractually allocation-free.
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        (2 * hw).max(8)
    })
}

/// Bookkeeping behind one [`WorkspacePool`] mutex.
#[derive(Default)]
struct Ledger<W> {
    /// Parked workspaces with their ids, at most
    /// [`workspace_retention_cap`] of them.
    parked: Vec<(u64, W)>,
    /// Ids currently checked out. Small (≈ worker concurrency), so a
    /// linear scan beats a hash set.
    checked_out: Vec<u64>,
    next_id: u64,
    peak_out: usize,
    peak_bytes: usize,
}

/// Pool of `W` workspaces; see the [module docs](self).
#[derive(Default)]
pub struct WorkspacePool<W> {
    state: Mutex<Ledger<W>>,
}

impl<W: Workspace> WorkspacePool<W> {
    fn lock(&self) -> MutexGuard<'_, Ledger<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check out a parked workspace, or a fresh empty one when none is
    /// parked. The guard returns it on drop, so every exit path (`?`
    /// returns included) keeps the zero-allocation steady state.
    pub fn checkout(&self) -> Checkout<'_, W> {
        let mut st = self.lock();
        let (id, ws) = match st.parked.pop() {
            Some(slot) => slot,
            None => {
                st.next_id += 1;
                (st.next_id, W::default())
            }
        };
        st.checked_out.push(id);
        st.peak_out = st.peak_out.max(st.checked_out.len());
        Checkout { pool: self, id, ws }
    }

    /// Workspaces parked between applies, at most
    /// [`workspace_retention_cap`].
    pub fn pooled(&self) -> usize {
        self.lock().parked.len()
    }

    /// Workspaces checked out right now: the applies in progress.
    pub fn in_flight(&self) -> usize {
        self.lock().checked_out.len()
    }

    /// High-water mark of concurrent checkouts over the pool's lifetime.
    pub fn peak_in_flight(&self) -> usize {
        self.lock().peak_out
    }

    /// Largest single-workspace footprint (bytes) seen at return.
    pub fn peak_bytes(&self) -> usize {
        self.lock().peak_bytes
    }

    /// Batched apply over flat strided buffers (the
    /// [`LinearOperator::apply_many_into`](crate::LinearOperator::apply_many_into)
    /// contract): `run` computes one column into its output slice with a
    /// checked-out workspace. Serial batches share one checkout; under the
    /// `parallel` feature, batches above [`MANY_PAR_THRESHOLD`] elements
    /// split across the thread pool with one checkout per worker and
    /// return the lowest failing column's error, the one the serial loop
    /// stops at.
    pub fn apply_many(
        &self,
        shape: OpShape,
        dir: OpDirection,
        inputs: &[f64],
        outputs: &mut [f64],
        run: impl Fn(&[f64], &mut [f64], &mut W) -> Result<(), OpError> + Sync,
    ) -> Result<(), OpError> {
        let (in_len, out_len) = shape.io_lens(dir);
        check_batch(shape, dir, inputs, outputs)?;
        #[cfg(feature = "parallel")]
        if inputs.len().max(outputs.len()) > MANY_PAR_THRESHOLD {
            let first = crate::linop::FirstError::new();
            inputs
                .par_chunks_exact(in_len)
                .zip(outputs.par_chunks_exact_mut(out_len))
                .enumerate()
                .for_each_init(
                    || self.checkout(),
                    |ws, (k, (i, o))| first.record(k, run(i, o, ws)),
                );
            return first.into_result();
        }
        let mut ws = self.checkout();
        for (i, o) in inputs.chunks_exact(in_len).zip(outputs.chunks_exact_mut(out_len)) {
            run(i, o, &mut ws)?;
        }
        Ok(())
    }
}

/// A checked-out workspace: derefs to `W` and goes back to its pool on
/// drop.
pub struct Checkout<'a, W: Workspace> {
    pool: &'a WorkspacePool<W>,
    id: u64,
    ws: W,
}

impl<W: Workspace> Deref for Checkout<'_, W> {
    type Target = W;
    fn deref(&self) -> &W {
        &self.ws
    }
}

impl<W: Workspace> DerefMut for Checkout<'_, W> {
    fn deref_mut(&mut self) -> &mut W {
        &mut self.ws
    }
}

impl<W: Workspace> Drop for Checkout<'_, W> {
    fn drop(&mut self) {
        let ws = std::mem::take(&mut self.ws);
        let mut st = self.pool.lock();
        let idx = st
            .checked_out
            .iter()
            .position(|&id| id == self.id)
            .expect("workspace returned twice or to a foreign pool: aliased checkout");
        st.checked_out.swap_remove(idx);
        st.peak_bytes = st.peak_bytes.max(ws.bytes());
        if st.parked.len() < workspace_retention_cap() {
            st.parked.push((self.id, ws));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workspace whose footprint is its length in bytes.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Workspace for Bytes {
        fn bytes(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn workspace_pool_parks_at_most_the_retention_cap() {
        let pool = WorkspacePool::<Bytes>::default();
        let cap = workspace_retention_cap();
        // A burst of cap + 5 concurrent checkouts parks only `cap` on
        // return; the excess is freed.
        let guards: Vec<_> = (0..cap + 5).map(|_| pool.checkout()).collect();
        assert_eq!((pool.in_flight(), pool.peak_in_flight()), (cap + 5, cap + 5));
        drop(guards);
        assert_eq!((pool.in_flight(), pool.pooled()), (0, cap));
        // Steady-state reuse drains the parked set instead of allocating.
        let g = pool.checkout();
        assert_eq!(pool.pooled(), cap - 1);
        drop(g);
        assert_eq!(pool.pooled(), cap);
    }

    #[test]
    fn workspace_checkouts_never_alias() {
        // Live guards hold distinct ids; reuse hands back the parked
        // workspaces, buffers included.
        let pool = WorkspacePool::<Bytes>::default();
        let (mut a, b) = (pool.checkout(), pool.checkout());
        assert_ne!(a.id, b.id, "two live guards must never share a workspace");
        a.0.resize(16, 7);
        let ids = [a.id, b.id];
        drop((a, b));
        let (c, d) = (pool.checkout(), pool.checkout());
        assert_ne!(c.id, d.id);
        assert!(ids.contains(&c.id) && ids.contains(&d.id));
        let reused = if c.id == ids[0] { &c } else { &d };
        assert_eq!(reused.0, vec![7; 16], "a parked workspace keeps its buffers");
    }

    #[test]
    fn checkout_parks_and_tracks_peaks() {
        let pool = WorkspacePool::<Bytes>::default();
        let (mut a, mut b) = (pool.checkout(), pool.checkout());
        a.0.resize(256, 0);
        b.0.resize(64, 0);
        drop((a, b));
        assert_eq!((pool.in_flight(), pool.pooled(), pool.peak_in_flight()), (0, 2, 2));
        // The largest single workspace, not the sum.
        assert_eq!(pool.peak_bytes(), 256);
    }

    #[test]
    fn batch_driver_keeps_the_lowest_failing_column() {
        // Column k holds k in every element; columns 300 and 450 fail
        // with an error naming their column.
        let shape = OpShape::new(8, 8);
        let fwd = OpDirection::Forward;
        let run = |i: &[f64], o: &mut [f64], _: &mut Bytes| match i[0] as usize {
            k @ (300 | 450) => Err(OpError::RaggedBatch { dir: fwd, got: k, stride: 8 }),
            _ => {
                o.fill(2.0 * i[0]);
                Ok(())
            }
        };
        let pool = WorkspacePool::<Bytes>::default();
        // 600 columns split across the pool under `parallel`; 500 stay
        // below the threshold and run serially.
        for batch in [600usize, 500] {
            assert_eq!(batch * 8 > MANY_PAR_THRESHOLD, batch == 600);
            let inputs: Vec<f64> = (0..batch * 8).map(|e| (e / 8) as f64).collect();
            let mut outputs = vec![0.0; batch * 8];
            let got = pool.apply_many(shape, fwd, &inputs, &mut outputs, run);
            assert_eq!(got, Err(OpError::RaggedBatch { dir: fwd, got: 300, stride: 8 }));
            assert!(outputs[..300 * 8].iter().enumerate().all(|(e, &y)| y == 2.0 * (e / 8) as f64));
        }
        assert_eq!(pool.in_flight(), 0);
        let mut out = vec![0.0; 16];
        assert_eq!(pool.apply_many(shape, fwd, &[1.0; 16], &mut out, run), Ok(()));
        assert_eq!(out, vec![2.0; 16]);
        let ragged = pool.apply_many(shape, fwd, &[1.0; 9], &mut out, run);
        assert!(matches!(ragged, Err(OpError::RaggedBatch { got: 9, .. })));
    }
}
