//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build container has no access to a crates.io registry, so the
//! workspace vendors the tiny slice of the parking_lot API it actually
//! uses: [`Mutex`] / [`MutexGuard`] with non-poisoning `lock()` and
//! `try_lock()`, and a
//! [`Condvar`] whose `wait` takes `&mut MutexGuard`. Poisoned std locks
//! are transparently recovered (parking_lot has no poisoning).

use std::sync;

/// A mutex whose `lock` returns the guard directly (no `Result`).
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Acquire the lock only if that takes no waiting; `None` means
    /// another thread holds it right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for [`Mutex::lock`]. The inner `Option` is only `None`
/// transiently inside [`Condvar::wait`].
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during wait")
    }
}

/// Condition variable compatible with [`MutexGuard`].
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Block until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken during wait");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_lock_refuses_only_while_held() {
        let m = Mutex::new(1);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        *m.try_lock().expect("free now") += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }
}
