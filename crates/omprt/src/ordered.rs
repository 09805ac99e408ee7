//! The `ordered` construct: serialize a code block in thread-id order.
//!
//! Algorithm 5 (lines 22-24) of the paper merges every thread's privatized
//! gradient blob into the shared gradient with an *ordered* loop, so the
//! floating-point accumulation order — and therefore the training loss
//! trajectory — is reproducible run-to-run for a fixed thread count.

use parking_lot::{Condvar, Mutex};

/// Monotonic turn counter backing [`crate::WorkerCtx::ordered`].
///
/// Each `run_ordered` call with thread id `t` on a team of `n` waits until
/// `counter % n == t`, runs the closure, then increments the counter. If
/// every thread calls it once per "round", rounds execute in thread order
/// and the construct is reusable for any number of rounds per region.
pub(crate) struct Turn {
    counter: Mutex<usize>,
    cv: Condvar,
}

impl Turn {
    pub(crate) fn new() -> Self {
        Self {
            counter: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Reset at the start of a parallel region (called by the master before
    /// the start barrier, so no thread can be waiting).
    pub(crate) fn reset(&self) {
        *self.counter.lock() = 0;
    }

    pub(crate) fn run_ordered<R>(&self, tid: usize, nthreads: usize, f: impl FnOnce() -> R) -> R {
        if nthreads <= 1 {
            return f();
        }
        {
            let _span = obs::trace::span("ordered_wait", "omprt");
            let mut c = self.counter.lock();
            while *c % nthreads != tid {
                self.cv.wait(&mut c);
            }
        }
        let r = f();
        let mut c = self.counter.lock();
        *c += 1;
        self.cv.notify_all();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turn_single_thread_is_passthrough() {
        let t = Turn::new();
        assert_eq!(t.run_ordered(0, 1, || 42), 42);
    }
}
