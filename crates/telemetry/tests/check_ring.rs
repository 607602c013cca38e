//! Model-check the trace-ring admit/evict protocol on a private
//! [`TraceRing`] instance.
//!
//! Build with `RUSTFLAGS="--cfg astro_check"`; in normal builds this file
//! compiles to nothing. Two threads admit finished traces concurrently
//! into a capacity-1 ring while the main thread drains it. Under every
//! interleaving:
//!
//! * the ring never holds more than `ring_capacity` traces;
//! * `kept == evicted + resident` (no trace is lost or double-counted);
//! * a trace left resident is the one admitted last (eviction drops the
//!   oldest);
//! * no deadlock on the ring mutex.
#![cfg(astro_check)]

use astro_check::{explore, CheckConfig};
use astro_telemetry::sync::{self, thread, Mutex};
use astro_telemetry::trace::{TraceConfig, TraceFlags, TraceId, TraceRecord, TraceRing};
use std::sync::Arc;

fn record(seq: u128) -> TraceRecord {
    TraceRecord {
        id: TraceId(seq),
        name: format!("check-{seq}"),
        span: seq as u64,
        parent_span: None,
        start_us: 0,
        end_us: 1,
        status: 200,
        flags: TraceFlags::default(),
        keep: "",
        attrs: Vec::new(),
        nums: Vec::new(),
        phases: Vec::new(),
    }
}

#[test]
fn concurrent_admit_keeps_ring_bounded_and_counted() {
    let report = explore(&CheckConfig::default(), || {
        let ring = Arc::new(Mutex::new(TraceRing::new(TraceConfig {
            ring_capacity: 1,
            sample_one_in: 1, // keep everything → maximal eviction pressure
            slow_keep_min_count: u64::MAX,
        })));

        let admitters: Vec<_> = (1..=2u128)
            .map(|seq| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    let mut rec = record(seq);
                    let (_t, mut g) = sync::lock_ranked("telemetry.trace.ring", &ring);
                    let keep = g.admit(&mut rec, false);
                    assert_eq!(keep, "sampled", "sample_one_in=1 keeps everything");
                    assert!(g.len() <= 1, "ring exceeded capacity");
                    // Its id and its admit position, read under the lock.
                    (seq, g.counters().0)
                })
            })
            .collect();

        // Drain concurrently with the admitters.
        let drained_early = {
            let (_t, mut g) = sync::lock_ranked("telemetry.trace.ring", &ring);
            g.drain().len() as u64
        };

        let last = admitters
            .into_iter()
            .map(|a| a.join().unwrap_or_else(|_| panic!("admitter panicked")))
            .max_by_key(|&(_, pos)| pos)
            .map(|(seq, _)| seq);

        let (_t, mut g) = sync::lock_ranked("telemetry.trace.ring", &ring);
        let (finished, kept, evicted) = g.counters();
        assert_eq!(finished, 2);
        assert_eq!(kept, 2);
        let resident = g.len() as u64;
        assert!(resident <= 1);
        assert_eq!(
            kept,
            evicted + drained_early + resident,
            "a kept trace was lost or double-counted"
        );
        let left: Vec<u128> = g.drain().iter().map(|t| t.id.0).collect();
        if resident == 1 {
            assert_eq!(left, [last.unwrap()], "eviction kept a trace other than the newest");
        }
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(report.schedules > 1, "expected interleavings, got {}", report.schedules);
}
