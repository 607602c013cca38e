//! Reference models of the serving stack's concurrency protocols, with
//! seeded mutants.
//!
//! The model is a faithful miniature of a production protocol (the
//! gateway bounded queue) built directly on [`crate::sync`], so the
//! checker's own test-suite — and the mutant-detection self-test in CI —
//! runs in **every** build, without `--cfg astro_check`. The mutants are the classic condvar bugs the
//! checker exists to catch:
//!
//! * **drop a notify** — `close()` forgets `notify_all`: a parked
//!   consumer never wakes → deadlock;
//! * **wait-loop → `if`** — a woken thread assumes its predicate holds:
//!   a second consumer stealing the item between notify and reacquire
//!   breaks the assumption → assertion violation;
//! * **skip the drain handshake** — a consumer exits on `closed` without
//!   draining buffered items → accepted ≠ completed.
//!
//! The model-checked harnesses over the *real* types (gateway
//! `BoundedQueue`, `PrefixCache`, `TraceRing`) live in their owning
//! crates behind `--cfg astro_check`.

use crate::sync::{thread, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};

/// Seeded bugs for the bounded-queue model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueMutant {
    /// The faithful protocol (must pass exhaustive exploration).
    Correct,
    /// `close()` sets the flag but never notifies → lost wakeup/deadlock.
    DropNotifyOnClose,
    /// The consumer waits with `if` instead of `while` → acts on a stale
    /// predicate after a steal.
    WaitIfInsteadOfWhile,
    /// The consumer returns as soon as it sees `closed`, abandoning
    /// buffered items → drain loses accepted work.
    SkipDrain,
}

struct MiniInner {
    items: VecDeque<u32>,
    closed: bool,
    max_depth: usize,
}

/// Miniature of `gateway::queue::BoundedQueue` (push/close/pop-loop) on
/// the instrumented shim.
struct MiniQueue {
    inner: Mutex<MiniInner>,
    cv: Condvar,
    cap: usize,
    mutant: QueueMutant,
}

impl MiniQueue {
    fn new(cap: usize, mutant: QueueMutant) -> Self {
        MiniQueue {
            inner: Mutex::new(MiniInner { items: VecDeque::new(), closed: false, max_depth: 0 }),
            cv: Condvar::new(),
            cap,
            mutant,
        }
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, MiniInner> {
        self.inner.name_hint("model.queue");
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking push (capacity respected, like `try_push`).
    fn push(&self, v: u32) -> bool {
        let mut g = self.lock();
        if g.closed || g.items.len() >= self.cap {
            return false;
        }
        g.items.push_back(v);
        g.max_depth = g.max_depth.max(g.items.len());
        drop(g);
        self.cv.notify_one();
        true
    }

    fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        if self.mutant != QueueMutant::DropNotifyOnClose {
            self.cv.notify_all();
        }
    }

    /// Blocking pop: `Some(item)` or `None` once closed-and-drained.
    fn pop(&self) -> Option<u32> {
        let mut g = self.lock();
        match self.mutant {
            QueueMutant::WaitIfInsteadOfWhile => {
                // BUG: a single `if` — the waker's predicate may no longer
                // hold by the time this thread reacquires the lock.
                if g.items.is_empty() && !g.closed {
                    g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                if let Some(v) = g.items.pop_front() {
                    return Some(v);
                }
                assert!(
                    g.closed,
                    "lost wakeup: woke to an empty, still-open queue (wait used `if`)"
                );
                None
            }
            QueueMutant::SkipDrain => loop {
                // BUG: checks `closed` before draining buffered items.
                if g.closed {
                    return None;
                }
                if let Some(v) = g.items.pop_front() {
                    return Some(v);
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            },
            _ => loop {
                if let Some(v) = g.items.pop_front() {
                    return Some(v);
                }
                if g.closed {
                    return None;
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            },
        }
    }

    /// Opportunistic non-blocking pop (the "stealing" consumer).
    fn try_pop(&self) -> Option<u32> {
        self.lock().items.pop_front()
    }
}

/// Bounded-queue drain model: producer pushes `items` values then closes;
/// consumers drain. Asserts FIFO completeness (every accepted item is
/// delivered exactly once), capacity never exceeded, and no deadlock.
///
/// For [`QueueMutant::WaitIfInsteadOfWhile`] a second, stealing consumer
/// creates the stale-predicate race the mutant mishandles.
pub fn bounded_queue_model(mutant: QueueMutant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cap = 2usize;
        let items = 2u32;
        let q = Arc::new(MiniQueue::new(cap, mutant));

        let qp = q.clone();
        let producer = thread::Builder::new()
            .name("producer".into())
            .spawn(move || {
                let mut accepted = 0u32;
                for v in 0..items {
                    if qp.push(v) {
                        accepted += 1;
                    }
                }
                qp.close();
                accepted
            })
            .unwrap_or_else(|e| crate::sched_die(format!("spawn: {e}")));

        // A stealing consumer exercises the woke-to-empty race.
        let steal = mutant == QueueMutant::WaitIfInsteadOfWhile;
        let stolen = if steal {
            let qs = q.clone();
            let h = thread::Builder::new()
                .name("stealer".into())
                .spawn(move || qs.try_pop().map_or(0u32, |_| 1))
                .unwrap_or_else(|e| crate::sched_die(format!("spawn: {e}")));
            Some(h)
        } else {
            None
        };

        let mut drained = 0u32;
        let mut last: Option<u32> = None;
        while let Some(v) = q.pop() {
            if let Some(prev) = last {
                assert!(v > prev, "FIFO order violated: {v} after {prev}");
            }
            last = Some(v);
            drained += 1;
        }

        let accepted = producer
            .join()
            .unwrap_or_else(|_| crate::sched_die("producer panicked".into()));
        let stolen = stolen.map_or(0, |h| {
            h.join().unwrap_or_else(|_| crate::sched_die("stealer panicked".into()))
        });
        assert_eq!(
            drained + stolen,
            accepted,
            "drain incomplete: accepted {accepted}, delivered {}",
            drained + stolen
        );
        let g = q.lock();
        assert!(g.max_depth <= cap, "queue exceeded capacity: {} > {cap}", g.max_depth);
        assert!(g.items.is_empty(), "items left behind after drain");
    }
}

/// Two-threads-increment sanity model: N spawned threads each lock one
/// mutex and increment; the final count must equal N. Used to validate
/// schedule counting and sleep-set pruning.
pub fn counter_model(threads: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let counter = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let c = counter.clone();
                thread::Builder::new()
                    .name(format!("inc-{i}"))
                    .spawn(move || {
                        *c.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                    })
                    .unwrap_or_else(|e| crate::sched_die(format!("spawn: {e}")))
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|_| crate::sched_die("incrementer panicked".into()));
        }
        let got = *counter.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(got, threads, "lost increment: {got} != {threads}");
    }
}
