//! Shared scratch space: per-thread column buffers and per-slot privatized
//! gradient buffers.
//!
//! The paper (§3.2.1) emphasises that the privatization memory "never
//! crosses the layer boundaries", so one workspace sized for the *largest*
//! layer is reused by every layer — total extra memory is bounded by the
//! layer with the most coefficients (the convolutional layers for both
//! networks), about 5% of the sequential footprint. [`Workspace::bytes`]
//! reports the exact figure for experiment E7.

use crate::Layer;
use mmblas::Scalar;
use parking_lot::{Mutex, MutexGuard};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Scratch-space requirements of a layer after `setup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceRequest {
    /// Elements of per-thread column buffer (im2col lowering).
    pub col_len: usize,
    /// Total elements of all parameter gradients (privatized per slot).
    pub grad_len: usize,
}

impl WorkspaceRequest {
    /// What `layer` needs: its [`Layer::col_len`], and a privatized
    /// gradient as long as its parameters.
    pub fn of<S: Scalar, L: Layer<S> + ?Sized>(layer: &L) -> Self {
        Self {
            col_len: layer.col_len(),
            grad_len: layer.params().iter().map(|p| p.count()).sum(),
        }
    }

    /// Pointwise maximum of two requests.
    pub fn max(self, other: Self) -> Self {
        Self {
            col_len: self.col_len.max(other.col_len),
            grad_len: self.grad_len.max(other.grad_len),
        }
    }
}

/// Per-thread scratch: the im2col column buffer.
#[derive(Debug)]
pub struct ThreadScratch<S: Scalar> {
    /// Column buffer; sized for the largest conv layer in the net.
    pub col: Vec<S>,
}

/// Per-slot privatized gradient buffer (all of one layer's parameter
/// gradients, concatenated).
#[derive(Debug)]
pub struct SlotGrad<S: Scalar> {
    buf: Vec<S>,
}

impl<S: Scalar> SlotGrad<S> {
    /// Zero the first `len` elements (the active layer's gradient length) —
    /// `caffe_zero` of Algorithm 5.
    pub fn prepare(&mut self, len: usize) {
        assert!(
            len <= self.buf.len(),
            "SlotGrad: layer needs {len} elements but workspace holds {}",
            self.buf.len()
        );
        mmblas::zero(&mut self.buf[..len]);
    }

    /// Split the buffer into one mutable slice per parameter blob.
    ///
    /// # Panics
    /// Panics if the lengths exceed the buffer.
    pub fn parts(&mut self, lens: &[usize]) -> Vec<&mut [S]> {
        let total: usize = lens.iter().sum();
        assert!(total <= self.buf.len(), "SlotGrad: parts exceed buffer");
        let mut rest: &mut [S] = &mut self.buf[..total];
        let mut out = Vec::with_capacity(lens.len());
        for &l in lens {
            let (head, tail) = rest.split_at_mut(l);
            out.push(head);
            rest = tail;
        }
        out
    }

    /// The first `len` elements, immutably (for the fold).
    pub fn active(&self, len: usize) -> &[S] {
        &self.buf[..len]
    }
}

/// The shared workspace: `n_threads` column buffers, each behind an
/// uncontended mutex (every thread only ever locks its own), plus `n_slots`
/// privatized gradient buffers behind read-write locks: a slot is written
/// by the one thread that accumulates it, then read by every thread of the
/// fold at once.
pub struct Workspace<S: Scalar> {
    threads: Vec<Mutex<ThreadScratch<S>>>,
    slots: Vec<RwLock<SlotGrad<S>>>,
    request: WorkspaceRequest,
}

impl<S: Scalar> Workspace<S> {
    /// Workspace sized by `request`, for `n_threads` threads and `n_slots`
    /// reduction slots.
    pub fn new(n_threads: usize, n_slots: usize, request: WorkspaceRequest) -> Self {
        let threads = (0..n_threads)
            .map(|_| {
                Mutex::new(ThreadScratch {
                    col: vec![S::ZERO; request.col_len],
                })
            })
            .collect();
        let slots = (0..n_slots)
            .map(|_| {
                RwLock::new(SlotGrad {
                    buf: vec![S::ZERO; request.grad_len],
                })
            })
            .collect();
        Self {
            threads,
            slots,
            request,
        }
    }

    /// Empty workspace (for contexts that never touch scratch space).
    pub fn empty() -> Self {
        Self::new(1, 1, WorkspaceRequest::default())
    }

    /// Number of per-thread scratch entries.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of privatized gradient slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// The sizing request this workspace was built for.
    pub fn request(&self) -> WorkspaceRequest {
        self.request
    }

    /// Lock thread `tid`'s scratch. Uncontended by construction.
    ///
    /// # Panics
    /// Panics if `tid >= n_threads()`.
    pub fn thread_scratch(&self, tid: usize) -> MutexGuard<'_, ThreadScratch<S>> {
        self.threads[tid].lock()
    }

    /// Lock gradient slot `slot` for writing. A lock a panic poisoned is
    /// taken anyway: the next pass re-zeroes the slot before it reads it.
    ///
    /// # Panics
    /// Panics if `slot >= n_slots()`.
    pub fn slot(&self, slot: usize) -> RwLockWriteGuard<'_, SlotGrad<S>> {
        self.slots[slot]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock gradient slot `slot` for reading; any number of threads may
    /// hold it at once.
    ///
    /// # Panics
    /// Panics if `slot >= n_slots()`.
    pub fn slot_read(&self, slot: usize) -> RwLockReadGuard<'_, SlotGrad<S>> {
        self.slots[slot]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Extra memory (bytes) this workspace adds over a sequential run,
    /// which needs 1 column buffer and no privatized gradients:
    /// `(n_threads - 1) * col + n_slots * grad` — the paper's §3.2.1 figure.
    pub fn overhead_bytes(&self) -> usize {
        let e = std::mem::size_of::<S>();
        self.threads.len().saturating_sub(1) * self.request.col_len * e
            + self.slots.len() * self.request.grad_len * e
    }

    /// Total workspace bytes.
    pub fn bytes(&self) -> usize {
        let e = std::mem::size_of::<S>();
        self.threads.len() * self.request.col_len * e + self.slots.len() * self.request.grad_len * e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_max_is_pointwise() {
        let a = WorkspaceRequest {
            col_len: 10,
            grad_len: 5,
        };
        let b = WorkspaceRequest {
            col_len: 3,
            grad_len: 50,
        };
        assert_eq!(
            a.max(b),
            WorkspaceRequest {
                col_len: 10,
                grad_len: 50
            }
        );
    }

    #[test]
    fn slot_prepare_and_parts() {
        let ws: Workspace<f32> = Workspace::new(
            2,
            4,
            WorkspaceRequest {
                col_len: 8,
                grad_len: 12,
            },
        );
        let mut sg = ws.slot(0);
        sg.prepare(10);
        let mut parts = sg.parts(&[6, 4]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 6);
        assert_eq!(parts[1].len(), 4);
        parts[0][0] = 1.0;
        parts[1][3] = 2.0;
        drop(parts);
        assert_eq!(sg.active(10)[0], 1.0);
        assert_eq!(sg.active(10)[9], 2.0);
    }

    #[test]
    #[should_panic(expected = "parts exceed buffer")]
    fn oversized_parts_panic() {
        let ws: Workspace<f32> = Workspace::new(
            1,
            1,
            WorkspaceRequest {
                col_len: 0,
                grad_len: 4,
            },
        );
        let mut sg = ws.slot(0);
        let _ = sg.parts(&[3, 3]);
    }

    #[test]
    fn overhead_accounting() {
        // 4 threads, 4 slots, col 100 elems, grad 200 elems, f32.
        let ws: Workspace<f32> = Workspace::new(
            4,
            4,
            WorkspaceRequest {
                col_len: 100,
                grad_len: 200,
            },
        );
        assert_eq!(ws.overhead_bytes(), (3 * 100 + 4 * 200) * 4);
        assert_eq!(ws.bytes(), (4 * 100 + 4 * 200) * 4);
    }
}
