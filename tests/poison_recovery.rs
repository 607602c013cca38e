//! Poisoned-lock recovery: a panic mid-critical-section must degrade the
//! way the module docs promise, never deadlock or lose state.
//!
//! The `gateway.queue_poison` fault site panics while still *holding* the
//! queue mutex, after the critical section finished its mutation and
//! notify. The documented contract (`gateway::queue` module docs) is that
//! every critical section leaves the protected state structurally valid,
//! so later lock holders recover the poison with `PoisonError::into_inner`
//! and simply adopt the state: the queue keeps every item that was
//! accepted before the poison, and push/pop/close all keep working
//! afterwards.
//!
//! The scenario runs under a watchdog so a regression to deadlock fails
//! fast instead of hanging the suite. The test enters its fault plan
//! itself; the pushes it poisons run on its own thread, and no other
//! thread sees the plan.

use astro_gateway::queue::{BoundedQueue, Pop, PushError};
use astro_telemetry::fault::{FaultPlan, Faults};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on a helper thread and fail loudly if it does not finish —
/// the degradation contract is "recover", and a deadlock must show up as
/// a test failure, not a hung suite.
fn assert_completes<F>(what: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} deadlocked instead of recovering"));
}

#[test]
fn queue_poisoned_mid_push_keeps_items_and_operations() {
    let faults = Faults::default().enter();
    faults.install(FaultPlan::single("gateway.queue_poison", 2));

    let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
    assert!(q.try_push(1).is_ok());

    // Second push panics while holding the queue mutex — after the item
    // was appended, so the buffer stays valid under the poison.
    let poisoned = catch_unwind(AssertUnwindSafe(|| q.try_push(2)));
    assert!(poisoned.is_err(), "fault site must panic the pusher");
    assert!(faults.fired("gateway.queue_poison"));

    let q2 = Arc::clone(&q);
    assert_completes("poisoned queue", move || {
        // Depth sees both items: the poisoned critical section completed
        // its mutation before panicking.
        assert_eq!(q2.depth(), 2);
        // FIFO drain is intact, including the item pushed by the
        // panicking producer.
        assert_eq!(q2.pop(), Some(1));
        assert!(matches!(q2.try_pop(), Pop::Item(2)));
        assert!(matches!(q2.try_pop(), Pop::Empty));
        // The queue still accepts, closes and drains after the poison.
        assert!(q2.try_push(3).is_ok());
        q2.close();
        match q2.try_push(4) {
            Err(PushError::Closed(item)) => assert_eq!(item, 4),
            Err(PushError::Full(_)) => panic!("expected Closed, got Full"),
            Ok(_) => panic!("expected Closed, got a grant"),
        }
        assert_eq!(q2.pop(), Some(3));
        assert!(matches!(q2.try_pop(), Pop::Closed));
        assert_eq!(q2.pop(), None);
    });

    faults.clear();
}
