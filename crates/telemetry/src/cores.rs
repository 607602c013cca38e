//! One fan-out for the process: the core ledger every piece of parallel
//! work sizes itself by, the longest-first packer and the one scoped
//! runner that spreads work over threads.
//!
//! Two callers spread work: the offline engine's scheduler shards and a
//! scheduler step's split over borrowed cores. Both size themselves by
//! [`available`] — the machine's parallelism, capped at 8 — and both run
//! through [`run`], so no other code in the workspace spawns scoped
//! threads.
//!
//! # The ledger
//!
//! [`Cores::process`] is one count of idle cores shared by everything in
//! the process. A *holder* takes one core for as long as it has work
//! ([`Cores::hold`]: a scheduler with sequences, a training run); holding
//! never waits, so more holders than cores take the count below zero. A
//! *borrower* takes only what is idle, for one fan-out
//! ([`Cores::borrow`]). Both return a [`Loan`], a guard that gives its
//! cores back on drop — also when the holder unwinds. The count is a ranked
//! [`sync::Mutex`](crate::sync::Mutex) (`telemetry.cores`), so under
//! `--cfg astro_check` every hold, borrow and return is a scheduling point
//! of the model checker; `tests/check_cores.rs` explores two threads
//! holding, borrowing, returning and unwinding against it.
//!
//! # The runner
//!
//! [`pack`] deals weighted units onto queues, heaviest first; [`run`]
//! runs queue 0 on the calling thread and every other queue on a named
//! scoped thread of its own. A queue whose thread the OS refuses runs on
//! the caller afterwards, so a fan-out never loses work, and every queue's
//! `thread::Result` comes back to the caller — a panic with its own
//! payload, for the caller to report or resume. [`spawn`] starts the one
//! kind of thread that outlives its caller: a server's acceptor,
//! connection handlers, serving loops and prober.
//!
//! These two are the only places the workspace starts a thread, and both
//! run the new thread under the spawning thread's fault plan
//! ([`fault::inherit`]), so a plan a test enters reaches everything it
//! starts.

use crate::fault;
use crate::lockcheck::LockToken;
use crate::sync::{self, Mutex, MutexGuard};
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;
use std::{io, thread};

/// Hardware threads the OS reports for this process (1 if it cannot
/// tell), uncapped: what a run manifest records.
pub fn host_threads() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The one sizing rule: the cores this process spreads work over,
/// [`host_threads`] capped at 8 — far above the machines this workspace
/// targets, and the shard count past which an offline batch stops
/// gaining. The engine's auto shard count, the gateway's serving loops and
/// [`Cores::process`] all read it.
pub fn available() -> usize {
    host_threads().min(8)
}

/// A count of idle cores (see the module docs' *The ledger*).
pub struct Cores {
    idle: Mutex<isize>,
}

impl Cores {
    /// A ledger of `n` idle cores. Code under test builds private ones;
    /// everything else shares [`Cores::process`].
    pub fn new(n: usize) -> Self {
        Cores { idle: Mutex::new(n as isize) }
    }

    /// The process-wide ledger, of [`available`] cores.
    pub fn process() -> &'static Cores {
        static CORES: OnceLock<Cores> = OnceLock::new();
        CORES.get_or_init(|| Cores::new(available()))
    }

    /// Idle cores now; below zero while more holders than cores work.
    pub fn idle(&self) -> isize {
        *self.count().1
    }

    /// Take one core, whether or not one is idle, until the returned loan
    /// drops.
    pub fn hold(&self) -> Loan<'_> {
        *self.count().1 -= 1;
        Loan { cores: self, n: 1 }
    }

    /// Take up to `want` idle cores — never more than the count, and none
    /// while it is zero or below — until the loan drops.
    pub fn borrow(&self, want: usize) -> Loan<'_> {
        let (_token, mut idle) = self.count();
        let n = ((*idle).max(0) as usize).min(want);
        *idle -= n as isize;
        Loan { cores: self, n }
    }

    fn count(&self) -> (LockToken, MutexGuard<'_, isize>) {
        sync::lock_ranked("telemetry.cores", &self.idle)
    }
}

/// Cores held or borrowed from a [`Cores`] ledger, given back on drop —
/// also when their holder unwinds.
#[must_use = "the cores are given back when the loan drops"]
pub struct Loan<'a> {
    cores: &'a Cores,
    n: usize,
}

impl Loan<'_> {
    /// How many cores this loan holds (possibly none).
    pub fn cores(&self) -> usize {
        self.n
    }
}

impl Drop for Loan<'_> {
    fn drop(&mut self) {
        *self.cores.count().1 += self.n as isize;
    }
}

/// Deal `(weight, unit)` pairs onto `queues` queues: heaviest first, each
/// to the least-loaded queue so far, ties to the lowest — queue 0 being the
/// caller's in [`run`]. A unit weighs at least 1. With one queue the units
/// keep their order.
pub fn pack<U>(queues: usize, mut units: Vec<(usize, U)>) -> Vec<Vec<U>> {
    if queues > 1 {
        units.sort_by_key(|(weight, _)| std::cmp::Reverse(*weight));
    }
    let mut out: Vec<(usize, Vec<U>)> = (0..queues.max(1)).map(|_| (0, Vec::new())).collect();
    for (weight, unit) in units {
        if let Some((load, queue)) = out.iter_mut().min_by_key(|(load, _)| *load) {
            *load += weight.max(1);
            queue.push(unit);
        }
    }
    out.into_iter().map(|(_, queue)| queue).collect()
}

/// Run `work` once per queue: queue 0 on the calling thread, queue `i` on
/// a scoped thread named `{name}-{i}`, all at once, each under the
/// caller's fault plan. A queue whose thread could not be spawned runs on
/// the calling thread after the others. Returns each queue's result in
/// queue order, a panic as its payload.
pub fn run<Q: Send, R: Send>(
    name: &str,
    queues: Vec<Q>,
    work: impl Fn(Q) -> R + Sync,
) -> Vec<thread::Result<R>> {
    let work = &work;
    let caught = |queue: Q| panic::catch_unwind(AssertUnwindSafe(|| work(queue)));
    let mut slots: Vec<Option<Q>> = queues.into_iter().map(Some).collect();
    let mut done = Vec::new();
    thread::scope(|s| {
        let mut slots = slots.iter_mut();
        let own = slots.next().and_then(Option::take);
        let spawned: Vec<_> = (1..)
            .zip(slots)
            .map(|(i, slot)| {
                let thread = thread::Builder::new().name(format!("{name}-{i}"));
                thread.spawn_scoped(s, fault::inherit(move || slot.take().map(work))).ok()
            })
            .collect();
        done.push(own.map(caught));
        done.extend(spawned.into_iter().map(|h| h.and_then(|h| h.join().transpose())));
    });
    // A refused spawn left its queue in its slot.
    done.into_iter()
        .zip(slots)
        .filter_map(|(result, slot)| result.or_else(|| slot.map(caught)))
        .collect()
}

/// Start `f` on a thread named `name` under the caller's fault plan, for
/// as long as it runs; an error when the OS refuses the thread.
pub fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<thread::JoinHandle<T>> {
    thread::Builder::new().name(name.to_string()).spawn(fault::inherit(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_four_workers_give_the_same_outputs_in_unit_order() {
        let units: Vec<(usize, u64)> = (0..11u64).map(|u| ((u as usize * 7) % 5, u)).collect();
        let square = |u: u64| u * u + 1;
        let expected: Vec<(u64, u64)> = units.iter().map(|&(_, u)| (u, square(u))).collect();
        for workers in 1..=4 {
            let queues = pack(workers, units.clone());
            assert_eq!(queues.len(), workers);
            let results = run("cores-test", queues, |queue: Vec<u64>| {
                queue.into_iter().map(|u| (u, square(u))).collect::<Vec<_>>()
            });
            assert_eq!(results.len(), workers);
            let mut got: Vec<(u64, u64)> =
                results.into_iter().flat_map(|r| r.expect("no unit panics")).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_units_payload_reaches_the_caller_and_the_loan_comes_back() {
        let cores = Cores::new(3);
        let hold = cores.hold();
        let results = {
            let loan = cores.borrow(2);
            assert_eq!((loan.cores(), cores.idle()), (2, 0));
            let queues = pack(1 + loan.cores(), vec![(1, 0u32), (1, 1), (1, 2)]);
            run("cores-test", queues, |queue: Vec<u32>| {
                if queue.contains(&1) {
                    panic::panic_any(format!("unit {queue:?} failed"));
                }
                queue
            })
        };
        assert_eq!(cores.idle(), 2, "the loan is back; the hold is not");
        assert_eq!(results[0].as_ref().ok(), Some(&vec![0]));
        assert_eq!(results[2].as_ref().ok(), Some(&vec![2]));
        let payload = results[1].as_ref().err().and_then(|p| p.downcast_ref::<String>());
        assert_eq!(payload.map(String::as_str), Some("unit [1] failed"));
        drop(hold);
        assert_eq!(cores.idle(), 3);
    }

    #[test]
    fn longest_first_packing_breaks_ties_to_the_callers_queue() {
        assert_eq!(pack(2, vec![(3, 'a'), (3, 'b')]), vec![vec!['a'], vec!['b']]);
        assert_eq!(pack(3, vec![(1, 'a')]), vec![vec!['a'], vec![], vec![]]);
        // Heaviest first: 5 to the caller, 4 and 3 to the other queue, then
        // the weightless unit (weighing 1) to the now-lighter caller.
        let queues = pack(2, vec![(3, 'c'), (0, 'z'), (5, 'e'), (4, 'd')]);
        assert_eq!(queues, vec![vec!['e', 'z'], vec!['d', 'c']]);
        // One queue keeps the caller's order.
        assert_eq!(pack(1, vec![(1, 'x'), (9, 'y')]), vec![vec!['x', 'y']]);
    }

    #[test]
    fn a_borrow_never_takes_more_than_is_idle() {
        let cores = Cores::new(2);
        assert_eq!(cores.borrow(0).cores(), 0);
        let all = cores.borrow(8);
        assert_eq!((all.cores(), cores.idle()), (2, 0));
        assert_eq!(cores.borrow(1).cores(), 0, "nothing idle");
        drop(all);
        let holds: Vec<_> = (0..3).map(|_| cores.hold()).collect();
        assert_eq!(cores.idle(), -1);
        assert_eq!(cores.borrow(8).cores(), 0, "holders pushed the count below zero");
        assert_eq!(cores.idle(), -1);
        drop(holds);
        assert_eq!(cores.idle(), 2);
        assert_eq!(cores.borrow(1).cores(), 1);
        assert_eq!(cores.idle(), 2, "a dropped loan is back");
    }
}
