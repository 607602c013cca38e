//! Stress test for the debug-build lock-order instrumentation.
//!
//! Hammers every ranked lock in the telemetry hierarchy (metrics and span
//! registries, sink) from many threads at once. Under
//! `cfg(debug_assertions)` each acquisition is checked against the
//! thread-local held stack, so any rank inversion introduced in
//! `crates/telemetry` panics here instead of deadlocking in a long
//! training run.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn threads_and_telemetry_respect_lock_order() {
    astro_telemetry::sink::init_memory();
    let done = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 200 {
                    break;
                }
                // Spans nest registry (rank 22) inside nothing, then emit to the
                // sink (rank 30) from the guard's Drop — strictly increasing.
                let g = astro_telemetry::span!("stress.job", idx = i);
                g.record_f64("work", i as f64);
                // Metrics registry (rank 20) while the span is open but its
                // registry lock is released — no nesting across ranks 20/22.
                astro_telemetry::counter("stress.jobs").inc();
                astro_telemetry::gauge("stress.last").set(i as i64);
                drop(g);
                astro_telemetry::Event::new("stress_tick").u64_field("idx", i as u64).emit();
                done.fetch_add(1, Ordering::Relaxed);
                // Every token must have been released between jobs.
                assert_eq!(astro_telemetry::lockcheck::held_count(), 0);
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 200);
    // Nothing is held after quiescence.
    assert_eq!(astro_telemetry::lockcheck::held_count(), 0);
    let lines = astro_telemetry::sink::drain_memory();
    assert!(lines.len() >= 200, "expected >=200 sink lines, got {}", lines.len());
    astro_telemetry::sink::close();
}
