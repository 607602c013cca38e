//! Swappable concurrency primitives for deterministic model checking.
//!
//! Normal builds re-export the `std` types unchanged — a zero-cost alias,
//! so production binaries pay nothing. Building the workspace with
//! `RUSTFLAGS="--cfg astro_check"` swaps every one of these names for the
//! `astro_check::sync` shim, whose operations are scheduling points for
//! the bounded model checker (see the `astro-check` crate). Protocol code
//! that wants to be model-checkable imports its `Mutex`/`Condvar`/
//! `thread` from here instead of `std::sync`.
//!
//! The shim types mirror the `std` API surface used in this workspace
//! (`lock`, `wait`, `wait_timeout`, `notify_one`, `notify_all`,
//! `thread::Builder`/`spawn`/`JoinHandle`), so the only
//! difference between the two builds is the import path resolved here.

#[cfg(astro_check)]
pub use astro_check::sync::{thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(not(astro_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(not(astro_check))]
pub use std::thread;

// Error types are `std`'s in both builds (the shim reuses them), so
// poison-recovery code is identical either way.
pub use std::sync::PoisonError;

/// Acquire a ranked [`Mutex`], recovering from poisoning.
///
/// The model-checkable counterpart of
/// [`lockcheck::lock_ranked`](crate::lockcheck::lock_ranked): identical
/// rank bookkeeping and poison recovery, but for a [`sync::Mutex`](Mutex)
/// so the acquisition is a scheduling point under `--cfg astro_check`
/// (where the lock name also labels the resource in counterexample
/// schedules). The static analyzer (`astro-audit locks`) recognises
/// `sync::lock_ranked("name", ...)` sites exactly like
/// `lockcheck::acquire("name")` ones.
pub fn lock_ranked<'a, T>(
    name: &'static str,
    mutex: &'a Mutex<T>,
) -> (crate::lockcheck::LockToken, MutexGuard<'a, T>) {
    let token = crate::lockcheck::acquire(name);
    #[cfg(astro_check)]
    mutex.name_hint(name);
    let guard = mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (token, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_condvar_roundtrip() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        let g = m.lock().unwrap();
        let (g2, res) = cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
        assert!(res.timed_out());
        assert_eq!(*g2, 1);
    }

    #[test]
    fn lock_ranked_recovers_from_poison() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = thread::Builder::new()
            .name("sync-poisoner".into())
            .spawn(move || {
                let _g = m2.lock().unwrap();
                panic!("deliberately poison the mutex");
            })
            .unwrap()
            .join();
        let (_t, mut g) = lock_ranked("telemetry.sink", &m);
        *g += 1;
        assert_eq!(*g, 1);
    }
}
