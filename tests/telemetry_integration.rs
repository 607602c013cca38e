//! Cross-crate telemetry integration: the JSONL sink must emit lines the
//! in-repo JSON parser (`astro_eval::json`) reads back, and the metric
//! registries must stay exact under concurrent load from a pool of
//! threads.

use astro_eval::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The memory sink and the metric registries are process-global; hold
/// this while a test depends on exclusive sink ownership.
static SINK_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn jsonl_events_round_trip_through_eval_parser() {
    let _guard = SINK_LOCK.lock().unwrap();
    astro_telemetry::init_clock();
    astro_telemetry::sink::init_memory();

    let nasty = "quote\" backslash\\ newline\n tab\t cr\r unicode: 70B×α";
    astro_telemetry::Event::new("itest.nasty")
        .str_field("text", nasty)
        .f64_field("accuracy", 72.25)
        .f64_field("not_finite", f64::NAN)
        .u64_field("tokens", u64::MAX)
        .i64_field("delta", -42)
        .bool_field("ok", true)
        .emit();
    {
        let span = astro_telemetry::span!("itest.stage", tier = "S70b");
        span.record_f64("questions", 120.0);
    }
    astro_telemetry::info!("itest log line with \"quotes\"");

    let lines = astro_telemetry::sink::drain_memory();
    astro_telemetry::sink::close();
    assert!(lines.len() >= 2, "expected event + log lines, got {lines:?}");

    let mut saw_nasty = false;
    for line in &lines {
        let v = Json::parse(line)
            .unwrap_or_else(|e| panic!("sink line is not parseable JSON: {e}\n{line}"));
        assert!(v.get("event").is_some(), "every line carries an event name: {line}");
        if v.get("event").and_then(Json::as_str) == Some("itest.nasty") {
            saw_nasty = true;
            // The escaper keeps \" \\ \n \t \r exactly and maps other C0
            // bytes to spaces; this string round-trips verbatim.
            assert_eq!(v.get("text").and_then(Json::as_str), Some(nasty));
            assert_eq!(v.get("accuracy"), Some(&Json::Number(72.25)));
            assert_eq!(v.get("not_finite"), Some(&Json::Null));
            assert_eq!(v.get("delta"), Some(&Json::Number(-42.0)));
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        }
    }
    assert!(saw_nasty, "the itest.nasty event reached the sink: {lines:?}");
}

#[test]
fn counters_stay_exact_under_thread_pool_hammering() {
    const WORKERS: usize = 8;
    const JOBS: usize = 64;
    const INCS: u64 = 2_000;

    // WORKERS threads claim the JOBS off one shared cursor.
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= JOBS {
                    break;
                }
                let c = astro_telemetry::counter("itest.hammer");
                let h = astro_telemetry::histogram("itest.latency");
                let g = astro_telemetry::gauge("itest.inflight");
                g.add(1);
                for i in 0..INCS {
                    c.inc();
                    if i % 100 == 0 {
                        h.observe((job * 7 + i as usize) as f64);
                    }
                }
                g.add(-1);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), JOBS);

    assert_eq!(
        astro_telemetry::counter("itest.hammer").get(),
        JOBS as u64 * INCS,
        "no lost counter increments under contention"
    );
    let h = astro_telemetry::histogram("itest.latency");
    assert_eq!(h.count(), (JOBS as u64) * (INCS / 100));
    assert_eq!(astro_telemetry::gauge("itest.inflight").get(), 0);

    // The registry snapshot sees the same totals.
    let snap = astro_telemetry::metrics::snapshot();
    let (_, total) = snap
        .counters
        .iter()
        .find(|(n, _)| n == "itest.hammer")
        .expect("hammered counter appears in the snapshot");
    assert_eq!(*total, JOBS as u64 * INCS);
}
