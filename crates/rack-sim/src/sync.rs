//! Non-poisoning `std::sync` wrappers.
//!
//! The workspace builds hermetically — no network, no external crates —
//! so the `parking_lot` primitives the codebase originally used are
//! replaced by these thin wrappers over `std::sync`. They keep
//! `parking_lot`'s ergonomics: `lock()`/`read()`/`write()` return guards
//! directly instead of `Result`s, and a lock held by a panicking thread
//! is recovered rather than poisoning every later access. All simulator
//! state guarded by these locks is valid under inner-mutation at any
//! point (counters, queues, maps), so clearing poison is sound.

use std::sync::{self, LockResult, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

fn unpoison<G>(result: LockResult<G>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A mutual-exclusion lock with `parking_lot`-style API over
/// [`std::sync::Mutex`]: `lock()` returns the guard directly and never
/// observes poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoison(self.inner.lock())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// A reader-writer lock with `parking_lot`-style API over
/// [`std::sync::RwLock`]: `read()`/`write()` return guards directly and
/// never observe poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock guarding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the guarded value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking until no writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unpoison(self.inner.read())
    }

    /// Acquire exclusive write access, blocking until the lock is free.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unpoison(self.inner.write())
    }

    /// Try to acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

/// A condition variable with `parking_lot`-style ergonomics over
/// [`std::sync::Condvar`]: `wait` hands the guard back directly and never
/// observes poisoning. Pairs with [`Mutex`], whose guard is the plain
/// [`std::sync::MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release `guard` and block until notified, then reacquire.
    /// Spurious wakeups are possible; callers must loop on their predicate.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        unpoison(self.inner.wait(guard))
    }

    /// Wake every thread blocked in [`Condvar::wait`].
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one thread blocked in [`Condvar::wait`].
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_lock_cycle() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut done = lock.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn panicked_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(41));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A std Mutex would now return Err(Poisoned); the shim recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }
}
