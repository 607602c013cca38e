//! Bounded MPMC queue between connection handlers and the scheduler.
//!
//! `try_push` never blocks: a full queue is an admission decision (503),
//! not a wait. The serving loops are the consumers, one per core: each
//! `pop`s (blocking) while it has nothing to step and `try_pop`s what has
//! arrived while it has, and whichever reaches an item first takes it.
//! The inner mutex is ranked
//! `gateway.queue` in the telemetry lock hierarchy; see
//! `astro_telemetry::lockcheck`.
//!
//! The queue's primitives come from `astro_telemetry::sync` (std in
//! normal builds, the `astro-check` model-checker shim under
//! `--cfg astro_check`), so the push/pop/close protocol is exhaustively
//! explored for deadlocks and lost wakeups by `tests/check_queue.rs`.
//! A poisoned mutex (a producer panicking mid-push via the
//! `gateway.queue_poison` fault site) degrades to poison *recovery*:
//! every critical section leaves the buffer structurally valid, so later
//! callers simply adopt the state as-is.

use astro_telemetry::fault;
use astro_telemetry::sync::{self, Condvar, Mutex, PoisonError};
use std::collections::VecDeque;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A capacity-bounded multi-producer, multi-consumer queue with blocking
/// consumption.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    capacity: usize,
}

/// Why a `try_push` was refused. The rejected item is handed back so the
/// caller can answer the client with its reply channel intact.
pub enum PushError<T> {
    /// Queue is at capacity — backpressure, report 503.
    Full(T),
    /// Queue has been closed by shutdown — report 503 (draining).
    Closed(T),
}

/// Result of a `try_pop`.
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// Nothing is buffered right now.
    Empty,
    /// The queue is closed *and* empty — the consumer should exit.
    Closed,
}

impl<T> BoundedQueue<T> {
    /// Create a queue refusing pushes beyond `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue without blocking. On success returns the queue depth
    /// *after* the push (for the queue-depth gauge).
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let (_order, mut inner) = sync::lock_ranked("gateway.queue", &self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        // Chaos hook: panic while still holding the lock, poisoning the
        // mutex *after* a completed mutation — the recovery contract is
        // that later callers adopt the (valid) buffer as-is.
        if fault::should_fault("gateway.queue_poison") {
            std::panic::panic_any(fault::FaultPanic("gateway.queue_poison"));
        }
        drop(inner);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Dequeue one item, blocking until one arrives; `None` once the
    /// queue is closed *and* empty. A closed queue keeps yielding
    /// buffered items until empty, so a graceful drain loses nothing.
    pub fn pop(&self) -> Option<T> {
        let (_order, mut inner) = sync::lock_ranked("gateway.queue", &self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .cv
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeue one item if one is buffered, without blocking.
    pub fn try_pop(&self) -> Pop<T> {
        let (_order, mut inner) = sync::lock_ranked("gateway.queue", &self.inner);
        match inner.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if inner.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Current queue depth (for `/metricsz` and the depth gauge).
    pub fn depth(&self) -> usize {
        let (_order, inner) = sync::lock_ranked("gateway.queue", &self.inner);
        inner.items.len()
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// and consumers see [`Pop::Closed`] once the buffer drains.
    pub fn close(&self) {
        let (_order, mut inner) = sync::lock_ranked("gateway.queue", &self.inner);
        inner.closed = true;
        drop(inner);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_depth() {
        let q = BoundedQueue::new(4);
        assert!(matches!(q.try_push(1), Ok(1)));
        assert!(matches!(q.try_push(2), Ok(2)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(matches!(q.try_pop(), Pop::Item(2)));
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push("a").is_ok());
        match q.try_push("b") {
            Err(PushError::Full(item)) => assert_eq!(item, "b"),
            _ => panic!("expected Full"),
        }
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_buffered_items() {
        let q = BoundedQueue::new(4);
        q.try_push(7).ok().unwrap();
        q.close();
        match q.try_push(8) {
            Err(PushError::Closed(item)) => assert_eq!(item, 8),
            _ => panic!("expected Closed"),
        }
        assert!(matches!(q.try_pop(), Pop::Item(7)));
        assert!(matches!(q.try_pop(), Pop::Closed));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_pop_does_not_block_when_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert!(matches!(q.try_pop(), Pop::Empty));
    }

    #[test]
    fn blocking_pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32).ok().unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }
}
