//! Vendored, offline stand-in for the [`parking_lot`](https://docs.rs/parking_lot)
//! crate.
//!
//! Wraps `std::sync::RwLock` behind parking_lot's poison-free API: lock
//! acquisition returns guards directly instead of `Result`s. Like the real
//! parking_lot, a lock whose holder panicked is not poisoned: the next
//! caller gets the guard and sees whatever state the holder left.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::sync::{RwLock as StdRwLock, RwLockReadGuard, RwLockWriteGuard};

/// Reader-writer lock with parking_lot's non-poisoning guard API.
#[derive(Debug)]
pub struct RwLock<T>(StdRwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_reads_back_its_writes() {
        let lock = RwLock::new(1);
        assert_eq!(*lock.read(), 1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
    }

    #[test]
    fn a_panicked_writer_does_not_poison_the_lock() {
        let lock = std::sync::Arc::new(RwLock::new(1));
        let held = std::sync::Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            *held.write() = 2;
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.read(), 2);
    }
}
