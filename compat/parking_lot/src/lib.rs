//! Minimal, API-compatible subset of `parking_lot` layered over
//! `std::sync`, so the workspace builds without network access.
//!
//! Differences from the real crate are deliberate simplifications:
//! poisoning is swallowed (`parking_lot` has no poisoning), and the
//! guards wrap the std guards in an `Option` so `Condvar::wait_for`
//! can temporarily take ownership of the inner guard.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

// ---------------------------------------------------------------- Mutex

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so Condvar::wait_for can take/restore the std guard.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner: Some(guard) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: Some(p.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

// -------------------------------------------------------------- Condvar

/// A condition variable that makes a wake-up syscall only when a thread
/// waits on it, as `parking_lot`'s does (std's futex condvar wakes
/// unconditionally).
///
/// The waiter count is raised under the mutex before a thread parks and
/// lowered after it wakes, so a notifier that changed the condition
/// under the same mutex sees every thread that could have missed the
/// change: the raise precedes the waiter's unlock inside the wait
/// (release), which precedes the notifier's lock (acquire), which
/// precedes its load. The mutex orders the count, and the count
/// publishes no data, so its operations are `Relaxed`. A notifier that
/// changes the condition under another lock, or none, can find the
/// count at zero while a thread is about to park, and that thread then
/// sleeps out its timeout.
///
/// Its one product user is `rai-broker`, which keeps all of its state
/// behind one mutex and wakes every blocked receive through one
/// condvar: each notifier changes a queue under that mutex and calls
/// `notify_all` while it still holds it. (`rai-exec`'s pool, which no
/// product path reaches, notifies after pushing under another lock; its
/// waits are short polls.)
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new(), waiters: AtomicUsize::new(0) }
    }

    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.inner.notify_all();
        }
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        // Raised while the mutex is held (see the type's docs).
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (std_guard, result) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r)
            }
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(std_guard);
        WaitTimeoutResult { timed_out: result.timed_out() }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

// --------------------------------------------------------------- RwLock

pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(RwLockReadGuard { inner: p.into_inner() })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(RwLockWriteGuard { inner: p.into_inner() })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let result = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(result.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let handle = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                let r = cv2.wait_for(&mut g, Duration::from_secs(5));
                assert!(!r.timed_out(), "should be woken, not time out");
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        handle.join().expect("waiter finished");
    }
}
