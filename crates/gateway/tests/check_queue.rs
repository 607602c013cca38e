//! Model-check the real [`BoundedQueue`] push/pop/close protocol.
//!
//! Build with `RUSTFLAGS="--cfg astro_check"`; in normal builds this file
//! compiles to nothing. The checker explores every interleaving (up to
//! the preemption bound) of producers, a consumer (blocking `pop`, and
//! the serving loop's `pop`-then-`try_pop` mix) and `close`, asserting:
//!
//! * no deadlock and no lost wakeup (the checker's built-in guarantees);
//! * the queue never holds more than `capacity` items;
//! * a graceful drain delivers every accepted item, in FIFO order.
#![cfg(astro_check)]

use astro_check::{explore, CheckConfig};
use astro_gateway::queue::{BoundedQueue, Pop, PushError};
use astro_telemetry::sync::thread;
use std::sync::Arc;

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

#[test]
fn drain_delivers_every_accepted_item_in_order() {
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in 1..=2u32 {
                if q2.try_push(v).is_ok() {
                    accepted += 1;
                }
            }
            q2.close();
            accepted
        });
        let mut drained: Vec<u32> = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        let accepted = producer.join().unwrap_or_else(|_| panic!("producer panicked"));
        assert_eq!(drained.len() as u32, accepted, "drain lost accepted items");
        for w in drained.windows(2) {
            assert!(w[0] < w[1], "FIFO order violated: {drained:?}");
        }
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(report.schedules > 1, "expected interleavings, got {}", report.schedules);
}

#[test]
fn capacity_is_never_exceeded_and_rejects_hand_items_back() {
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in [10u32, 20u32] {
                match q2.try_push(v) {
                    Ok(depth) => {
                        assert!(depth <= 1, "depth {depth} exceeds capacity 1");
                        accepted += 1;
                    }
                    Err(PushError::Full(item)) => assert_eq!(item, v, "rejected item lost"),
                    Err(PushError::Closed(_)) => unreachable!("queue is never closed here"),
                }
            }
            q2.close();
            accepted
        });
        let mut drained = 0u32;
        loop {
            assert!(q.depth() <= 1, "queue depth exceeded capacity");
            if q.pop().is_none() {
                break;
            }
            drained += 1;
        }
        let accepted = producer.join().unwrap_or_else(|_| panic!("producer panicked"));
        assert_eq!(drained, accepted);
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
}

#[test]
fn two_consumers_close_wakes_everyone() {
    // The lost-wakeup shape: two blocked consumers, one close. `close`
    // uses notify_all — if it used notify_one, one consumer would sleep
    // forever and the checker would report a deadlock.
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0u32;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let _ = q.try_push(7);
        q.close();
        let total: u32 = consumers
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|_| panic!("consumer panicked")))
            .sum();
        assert_eq!(total, 1, "the single accepted item must be delivered exactly once");
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
}

#[test]
fn serving_loop_pop_mix_drains_every_accepted_item_in_order() {
    // The gateway loop's shape: block for an arrival while idle, then
    // `try_pop` whatever else is buffered before stepping. `Empty` sends
    // it back to the blocking pop; `Closed` from either call ends it.
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in 1..=3u32 {
                if q2.try_push(v).is_ok() {
                    accepted += 1;
                }
            }
            q2.close();
            accepted
        });
        let mut drained: Vec<u32> = Vec::new();
        'serve: while let Some(first) = q.pop() {
            drained.push(first);
            loop {
                match q.try_pop() {
                    Pop::Item(v) => drained.push(v),
                    Pop::Empty => break,
                    Pop::Closed => break 'serve,
                }
            }
        }
        let accepted = producer.join().unwrap_or_else(|_| panic!("producer panicked"));
        assert_eq!(drained.len() as u32, accepted, "drain lost accepted items");
        for w in drained.windows(2) {
            assert!(w[0] < w[1], "FIFO order violated: {drained:?}");
        }
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(report.schedules > 1, "expected interleavings, got {}", report.schedules);
}
