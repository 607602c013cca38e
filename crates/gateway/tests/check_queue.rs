//! Model-check the real [`BoundedQueue`] push/pop/close protocol.
//!
//! Build with `RUSTFLAGS="--cfg astro_check"`; in normal builds this file
//! compiles to nothing. The checker explores every interleaving (up to
//! the preemption bound) of producers, consumers (blocking `pop`, and the
//! serving loop's `pop`-then-`try_pop` mix — one loop, and the two a
//! two-core gateway runs over the one queue) and `close`, asserting:
//!
//! * no deadlock and no lost wakeup (the checker's built-in guarantees);
//! * the queue never holds more than `capacity` items;
//! * a graceful drain delivers every accepted item exactly once, in FIFO
//!   order per consumer, and every consumer exits;
//! * `pop` returns `None` only on a closed, drained queue — a consumer
//!   woken to an empty, still-open queue (another one took the item)
//!   waits again instead of exiting;
//! * a push wakes a consumer parked in `pop` without help from `close`.
#![cfg(astro_check)]

use astro_check::{explore, CheckConfig};
use astro_gateway::queue::{BoundedQueue, Pop, PushError};
use astro_telemetry::sync::thread;
use std::sync::Arc;

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

/// `q.pop()`, asserting that its `None` means closed and drained.
fn pop(q: &BoundedQueue<u32>) -> Option<u32> {
    let item = q.pop();
    if item.is_none() {
        assert!(matches!(q.try_pop(), Pop::Closed), "pop gave up on an open queue");
    }
    item
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
        while let Some(v) = pop(&q) {
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
            if pop(&q).is_none() {
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
                    while pop(&q).is_some() {
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
fn push_wakes_a_parked_consumer() {
    // No `close` follows the push until the consumer is joined, so only
    // the push's `notify_one` can wake a consumer parked in `pop`: a push
    // that forgot it is a reported deadlock.
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        assert!(q.try_push(7).is_ok());
        let got = consumer.join().unwrap_or_else(|_| panic!("consumer panicked"));
        assert_eq!(got, Some(7));
        q.close();
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
        'serve: while let Some(first) = pop(&q) {
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

/// The queue side of `gateway::scheduler::run_iter_scheduler` with `slots`
/// slots: block in `pop` while nothing is active, `try_pop` between steps
/// while something is, stop taking at a full batch; a simulated step
/// retires the oldest active item. Returns the items in retirement order.
fn serving_loop(q: &BoundedQueue<u32>, slots: usize) -> Vec<u32> {
    let (mut active, mut retired) = (Vec::new(), Vec::new());
    let mut closed = false;
    loop {
        while !closed && active.len() < slots {
            let next = if active.is_empty() {
                pop(q).map_or(Pop::Closed, Pop::Item)
            } else {
                q.try_pop()
            };
            match next {
                Pop::Item(v) => active.push(v),
                Pop::Empty => break,
                Pop::Closed => closed = true,
            }
        }
        if active.is_empty() && closed {
            return retired;
        }
        retired.push(active.remove(0));
    }
}

#[test]
fn two_serving_loops_deliver_every_accepted_item_exactly_once() {
    // A two-core gateway: two loops of two slots over one queue, one
    // producer, then `close`. Each accepted item reaches exactly one loop
    // and both loops exit — if `close` woke one sleeper (`notify_one`),
    // a loop idle in `pop` would sleep forever: a reported deadlock.
    let report = explore(&cfg(), || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        let loops: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || serving_loop(&q, 2))
            })
            .collect();
        let accepted: Vec<u32> = (1..=3u32).filter(|&v| q.try_push(v).is_ok()).collect();
        q.close();
        let mut delivered: Vec<u32> = Vec::new();
        for l in loops {
            let retired = l.join().unwrap_or_else(|_| panic!("serving loop panicked"));
            for w in retired.windows(2) {
                assert!(w[0] < w[1], "FIFO order violated within a loop: {retired:?}");
            }
            delivered.extend(retired);
        }
        delivered.sort_unstable();
        assert_eq!(delivered, accepted, "accepted items not delivered exactly once");
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(report.schedules > 1, "expected interleavings, got {}", report.schedules);
}
