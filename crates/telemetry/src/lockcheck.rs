//! Debug-build lock-order instrumentation.
//!
//! Every long-lived lock in the workspace has a declared **rank** in
//! [`RANKS`]; a thread may only acquire a lock whose rank is *strictly
//! greater* than the highest rank it already holds. Acquisitions in
//! increasing rank order cannot form a wait cycle, so adherence rules out
//! lock-order deadlocks by construction (the classic lock-hierarchy
//! argument).
//!
//! Call [`acquire`] immediately before taking a ranked lock and keep the
//! returned [`LockToken`] alive for the critical section; dropping it
//! records the release. Under `cfg(debug_assertions)` a violation panics
//! with both lock names; in release builds the whole machinery compiles
//! to nothing.
//!
//! Release builds therefore check nothing at run time; the same table is
//! also read statically by `astro-audit lint`, which requires every
//! `.lock()` outside the locking machinery to be ranked, every name it
//! acquires to have a row, every row to be acquired somewhere, and
//! lexically nested acquisitions to increase in rank.

/// One declared lock with its rank.
#[derive(Clone, Copy, Debug)]
pub struct LockRank {
    /// Stable name used at acquisition sites and in audit reports.
    pub name: &'static str,
    /// Position in the global order (higher = acquired later).
    pub rank: u32,
}

/// The global lock hierarchy. Gateway and router locks come first (they
/// sit at the bottom of every call stack), the serving-engine prefix
/// cache next, telemetry registries and the JSONL sink last — so code
/// holding a queue or cache lock may still emit telemetry, but telemetry
/// internals can never wait on either.
pub const RANKS: &[LockRank] = &[
    // Test-suite gates that serialise access to process-global state
    // (e.g. the fault-injection registry) sit below every runtime lock:
    // a test holds its gate for the whole test body.
    LockRank { name: "test.fault_gate", rank: 2 },
    // Gateway admission locks sit below the engine locks: a request
    // handler consults the rate limiter, releases it, then pushes to the
    // queue; neither lock is ever held across an engine call, but ranking
    // them low keeps "gateway lock → engine lock → telemetry" legal.
    // Router locks rank below the engine locks for the same reason the
    // gateway's do: the forward path consults the ring, releases it,
    // then talks to a replica over the network — but ranking them low
    // keeps "router lock → telemetry" legal. No router lock nests
    // another: the crash-hook slot and the cluster replica slots are
    // only held to move a value in or out — the kill callback runs, and
    // gateways are aborted, with neither held (aborting takes
    // `gateway.queue`).
    LockRank { name: "gateway.limiter", rank: 4 },
    LockRank { name: "router.ring", rank: 5 },
    LockRank { name: "gateway.queue", rank: 6 },
    LockRank { name: "router.crash_hook", rank: 8 },
    LockRank { name: "router.cluster", rank: 9 },
    // The process's ledger of idle cores (`cores`): held only to move the
    // count, never across other work, by schedulers and the trainer.
    LockRank { name: "telemetry.cores", rank: 14 },
    // A scheduler step's loan of idle cores parks their scratch pools
    // here between loans; it is held only to move pools in or out.
    LockRank { name: "serve.step_pools", rank: 15 },
    LockRank { name: "serve.prefix_cache", rank: 16 },
    // The trace in-flight table and ring sit below the metrics registry
    // and the sink: finishing a trace records histograms and emits a
    // JSONL line, so "trace lock → metrics → sink" must be ascending.
    LockRank { name: "telemetry.trace.inflight", rank: 17 },
    LockRank { name: "resilience.fault_plan", rank: 18 },
    LockRank { name: "telemetry.trace.ring", rank: 19 },
    LockRank { name: "telemetry.metrics.registry", rank: 20 },
    LockRank { name: "telemetry.span.registry", rank: 22 },
    LockRank { name: "telemetry.sink", rank: 30 },
];

/// Look up the declared rank of a lock name.
pub fn rank_of(name: &str) -> Option<u32> {
    RANKS.iter().find(|r| r.name == name).map(|r| r.rank)
}

#[cfg(debug_assertions)]
mod imp {
    use super::rank_of;
    use std::cell::RefCell;

    thread_local! {
        /// The ranks (and names) of locks this thread currently holds,
        /// in acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII record of one ranked acquisition.
    #[must_use = "hold the token for the critical section; dropping it records the release"]
    pub struct LockToken {
        name: &'static str,
    }

    /// Record an acquisition; panics on a rank-order violation.
    pub fn acquire(name: &'static str) -> LockToken {
        let rank = rank_of(name)
            .unwrap_or_else(|| panic!("lockcheck: {name} has no declared rank in RANKS"));
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                assert!(
                    rank > top_rank,
                    "lock-order violation: acquiring {name} (rank {rank}) while \
                     holding {top_name} (rank {top_rank}); locks must be taken in \
                     strictly increasing rank order"
                );
            }
            held.push((rank, name));
        });
        LockToken { name }
    }

    impl Drop for LockToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Release order may differ from acquisition order; remove
                // the most recent entry for this lock.
                if let Some(pos) = held.iter().rposition(|&(_, n)| n == self.name) {
                    held.remove(pos);
                }
            });
        }
    }

    /// How many ranked locks the current thread holds (test hook).
    pub fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// RAII record of one ranked acquisition (release build: a no-op).
    #[must_use = "hold the token for the critical section; dropping it records the release"]
    pub struct LockToken {
        _private: (),
    }

    /// Record an acquisition (release build: a no-op).
    #[inline(always)]
    pub fn acquire(_name: &'static str) -> LockToken {
        LockToken { _private: () }
    }

    /// How many ranked locks the current thread holds (release build:
    /// always 0).
    #[inline(always)]
    pub fn held_count() -> usize {
        0
    }
}

pub use imp::{acquire, held_count, LockToken};

/// Acquire a ranked mutex, recovering from poisoning.
///
/// Combines the rank check with `Mutex::lock` and maps a poisoned mutex
/// to its inner guard (`PoisonError::into_inner`): a panic on another
/// thread must never cascade into infrastructure code — the protected
/// state is simple enough that every critical section leaves it
/// structurally valid. Keep both returned values alive for the critical
/// section; the token records the release when dropped.
pub fn lock_ranked<'a, T>(
    name: &'static str,
    mutex: &'a std::sync::Mutex<T>,
) -> (LockToken, std::sync::MutexGuard<'a, T>) {
    let token = acquire(name);
    let guard = mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (token, guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_increasing_and_unique() {
        for w in RANKS.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} vs {}", w[0].name, w[1].name);
        }
        let names: std::collections::HashSet<&str> = RANKS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), RANKS.len());
    }

    #[test]
    fn increasing_order_is_accepted() {
        let a = acquire("gateway.queue");
        let b = acquire("telemetry.sink");
        assert!(held_count() <= 2);
        drop(b);
        drop(a);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn same_rank_reacquire_allowed_after_release() {
        for _ in 0..3 {
            let t = acquire("serve.prefix_cache");
            drop(t);
        }
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn out_of_order_release_is_tolerated() {
        let a = acquire("serve.prefix_cache");
        let b = acquire("telemetry.metrics.registry");
        drop(a); // released before b — must not corrupt the stack
        let c = acquire("telemetry.sink");
        drop(c);
        drop(b);
        assert_eq!(held_count(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_order_panics_in_debug() {
        let _a = acquire("telemetry.sink");
        let _b = acquire("serve.prefix_cache");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no declared rank")]
    fn unknown_lock_panics_in_debug() {
        let _t = acquire("nonexistent.lock");
    }

    #[test]
    fn rank_lookup() {
        assert_eq!(rank_of("telemetry.sink"), Some(30));
        assert_eq!(rank_of("nope"), None);
    }

    #[test]
    fn lock_ranked_recovers_from_poison() {
        use std::sync::Mutex;
        static POISONED: Mutex<u32> = Mutex::new(0);
        let _ = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(|| {
                let _g = POISONED.lock().unwrap();
                panic!("deliberately poison the mutex");
            })
            .unwrap()
            .join();
        assert!(POISONED.is_poisoned());
        let (_t, mut g) = lock_ranked("telemetry.sink", &POISONED);
        *g += 1;
        assert_eq!(*g, 1);
        assert_eq!(held_count(), if cfg!(debug_assertions) { 1 } else { 0 });
    }
}
