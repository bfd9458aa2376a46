//! Offline stand-in for `parking_lot::Mutex`: the same panic-free
//! `lock()` signature over `std::sync::Mutex`. A poisoned lock is
//! recovered, which is what parking_lot (it has no poisoning) does.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

pub type MutexGuard<'a, T> = StdGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
