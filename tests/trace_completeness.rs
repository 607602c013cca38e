//! Trace-completeness property: every request the gateway answers —
//! success, admission rejection (429/413/503/504), schema error, or an
//! injected chaos fault (`gateway.accept_fail`, `gateway.slow_client`,
//! `serve.cache_full`) — leaves behind **exactly one** finished,
//! well-formed trace whose phases are monotonic and non-overlapping,
//! and the whole ring round-trips through the `astro-bench trace` analyzer.
//!
//! The trace ring and the metrics registry are process-global, so every
//! test takes `GATE`; a fault plan is the test's own (`Faults::enter`).

use astro_bench::trace::{chrome_trace_json, parse_jsonl, validate_chrome_json};
use astro_gateway::{client, Gateway, GatewayConfig, GatewayState};
use astro_telemetry::event::write_json_string;
use astro_telemetry::fault::{FaultPlan, Faults};
use astro_telemetry::trace::{self, TraceRecord};
use astromlab::eval::{InstructEvalConfig, TokenEvalConfig};
use astromlab::mcq::Mcq;
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::{Study, StudyConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Serialises the tests' use of the process-global trace ring and
/// counters.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

const TIMEOUT: Duration = Duration::from_secs(30);

struct Ctx {
    study: Study,
    state: GatewayState,
}

fn setup(seed: u64) -> Ctx {
    setup_with(seed, Tier::S7b, InstructEvalConfig::default())
}

fn setup_with(seed: u64, tier: Tier, instruct_config: InstructEvalConfig) -> Ctx {
    let study = Study::prepare(StudyConfig::micro(seed)).expect("prepare");
    let params = Arc::new(Params::init(
        study.model_config(tier),
        &mut Rng::seed_from(seed + 1),
    ));
    let state = GatewayState {
        params,
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(study.mcq.exemplars.clone()),
        token_config: TokenEvalConfig::default(),
        instruct_config,
    };
    Ctx { study, state }
}

fn score_body(q: &Mcq, client_id: Option<&str>) -> String {
    let mut out = String::from("{\"question\":");
    write_json_string(&mut out, &q.question);
    out.push_str(",\"options\":[");
    for (i, opt) in q.options.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, opt);
    }
    out.push_str(&format!("],\"group\":{}", q.article));
    if let Some(c) = client_id {
        out.push_str(",\"client\":");
        write_json_string(&mut out, c);
    }
    out.push('}');
    out
}

/// A finished trace is well-formed when its phases tile forward in time:
/// each phase starts no earlier than the previous one ended, and all of
/// them sit inside the trace envelope. Traces that never produced a
/// response (`status == 0`, e.g. `gateway.accept_fail`) may be phaseless.
fn assert_well_formed(rec: &TraceRecord) {
    assert!(
        rec.end_us >= rec.start_us,
        "{}: end {} before start {}",
        rec.name,
        rec.end_us,
        rec.start_us
    );
    if rec.status == 0 {
        return;
    }
    assert!(!rec.phases.is_empty(), "{} ({}): no phases", rec.name, rec.status);
    let mut cursor = rec.start_us;
    for p in &rec.phases {
        assert!(
            p.start_us >= cursor,
            "{} ({}): phase {} starts at {} before the previous phase ended at {}",
            rec.name,
            rec.status,
            p.name,
            p.start_us,
            cursor
        );
        assert!(p.end_us >= p.start_us, "{}: phase {} runs backwards", rec.name, p.name);
        assert!(
            p.end_us <= rec.end_us,
            "{} ({}): phase {} ends at {} after the trace ended at {}",
            rec.name,
            rec.status,
            p.name,
            p.end_us,
            rec.end_us
        );
        cursor = p.end_us;
    }
}

/// Every phase of an answered `/v1/*` request, in the order the handler,
/// the serving loop, the scheduler and the handler again record them.
const PHASES: [&str; 10] = [
    "recv",
    "build",
    "queue_wait",
    "admit",
    "cache_lookup",
    "prefill",
    "decode",
    "sync",
    "extract",
    "write",
];

fn phase_names(rec: &TraceRecord) -> Vec<&'static str> {
    rec.phases.iter().map(|p| p.name).collect()
}

fn counter(name: &str) -> u64 {
    astro_telemetry::counter(name).get()
}

/// Exactly one trace per answered request across the full status matrix,
/// including injected faults, and the ring survives an analyzer
/// round-trip (JSONL parse + Chrome Trace Event self-validation).
#[test]
fn every_response_yields_exactly_one_complete_trace() {
    let _gate = gate();
    let faults = Faults::default().enter();
    trace::reset();
    let ctx = setup(61);
    let config = GatewayConfig {
        rate_per_sec: 0.5,
        burst: 2.0,
        max_body_bytes: 4096,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let q = ctx.study.eval_questions()[0].clone();
    let mut responses = 0u64;

    // Routing, schema, and admission statuses.
    for (status, resp) in [
        (200, client::get(addr, "/healthz", TIMEOUT)),
        (404, client::get(addr, "/nope", TIMEOUT)),
        (405, client::get(addr, "/v1/score", TIMEOUT)),
        (400, client::post_json(addr, "/v1/score", "not json", TIMEOUT)),
    ] {
        assert_eq!(resp.expect("response").status, status);
        responses += 1;
    }

    // 413: declared body larger than max_body_bytes.
    let huge = format!(
        "{{\"question\":\"{}\",\"options\":[\"a\",\"b\",\"c\",\"d\"]}}",
        "x".repeat(8192)
    );
    let resp = client::post_json(addr, "/v1/score", &huge, TIMEOUT).expect("413");
    assert_eq!(resp.status, 413, "{}", resp.body);
    responses += 1;

    // 429: exhaust the greedy client's burst of 2, then hit the limit.
    let body = score_body(&q, Some("greedy-client"));
    for i in 0..2 {
        let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT).expect("burst");
        assert_eq!(resp.status, 200, "burst {i}: {}", resp.body);
        responses += 1;
    }
    let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT).expect("limited");
    assert_eq!(resp.status, 429, "{}", resp.body);
    responses += 1;

    // gateway.slow_client: the handler answers 408 like a read timeout.
    faults.install(FaultPlan::single("gateway.slow_client", 1));
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("slow client");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(faults.fired("gateway.slow_client"));
    responses += 1;
    faults.clear();

    // serve.cache_full: fires inside the engine; the request still
    // succeeds and still gets exactly one trace.
    faults.install(FaultPlan::single("serve.cache_full", 1));
    let other = score_body(&q, Some("cache-client"));
    let resp = client::post_json(addr, "/v1/score", &other, TIMEOUT).expect("cache_full");
    assert_eq!(resp.status, 200, "{}", resp.body);
    responses += 1;
    faults.clear();

    // gateway.accept_fail: the connection is dropped before a handler
    // exists — no HTTP response, but the gateway still records a
    // status-0 reject trace so the drop is attributable.
    faults.install(FaultPlan::single("gateway.accept_fail", 1));
    assert!(client::get(addr, "/healthz", Duration::from_secs(2)).is_err());
    assert!(faults.fired("gateway.accept_fail"));
    faults.clear();

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");

    // Exactly one finished trace per response, plus the accept_fail drop.
    let ring = trace::ring_snapshot();
    assert_eq!(
        ring.len() as u64,
        responses + 1,
        "expected one trace per response: {:?}",
        ring.iter().map(|r| (r.name.clone(), r.status)).collect::<Vec<_>>()
    );
    let ids: BTreeSet<u128> = ring.iter().map(|r| r.id.0).collect();
    assert_eq!(ids.len(), ring.len(), "duplicate trace ids in the ring");
    assert_eq!(trace::stats().inflight, 0, "traces left open after drain");

    let mut by_status: Vec<u16> = ring.iter().map(|r| r.status).collect();
    by_status.sort_unstable();
    assert_eq!(by_status, vec![0, 200, 200, 200, 200, 400, 404, 405, 408, 413, 429]);

    for rec in &ring {
        assert_well_formed(rec);
        match rec.status {
            200 if rec.name.starts_with("gateway./v1/") => {
                assert_eq!(phase_names(rec), PHASES, "{}", rec.name);
            }
            0 => {
                assert!(rec.flags.fault, "accept_fail trace not flagged: {rec:?}");
                assert_eq!(rec.name, "gateway.reject");
            }
            _ => {}
        }
    }
    // The injected engine fault is attributed on the successful request.
    assert!(
        ring.iter().any(|r| r.status == 200
            && r.attrs.iter().any(|(k, v)| *k == "fault" && v == "serve.cache_full")),
        "serve.cache_full not attributed on any 200 trace"
    );

    // Analyzer round-trip: ring -> JSONL -> parse -> Chrome export.
    let path = std::env::temp_dir().join(format!("trace_completeness_{}.jsonl", std::process::id()));
    let written = trace::write_ring_jsonl(&path).expect("write ring jsonl");
    assert_eq!(written, ring.len());
    let text = std::fs::read_to_string(&path).expect("read jsonl back");
    let report = parse_jsonl(&text);
    assert!(report.malformed.is_empty(), "malformed lines: {:?}", report.malformed);
    assert_eq!(report.traces.len(), written, "JSONL round-trip lost traces");
    let chrome = chrome_trace_json(&report.traces);
    let events = validate_chrome_json(&chrome, &report.traces).expect("chrome export validates");
    assert!(events >= report.traces.len());
    let _ = std::fs::remove_file(&path);
}

/// Tiling: on every successful score of an 8-client burst the phase
/// durations sum to the end-to-end latency — no unattributed time hides
/// between phases (`assert_well_formed` checks order and containment,
/// not gaps). Slack is 5% with a 500µs floor: scheduler-side timestamps
/// quantise to whole microseconds and the final ring stamp lands a hair
/// after the `write` phase closes. The trace is all a request leaves
/// behind: the burst opens no span, which is why the span registry needs
/// no retirement to stay bounded in a serving process.
#[test]
fn phases_tile_end_to_end_latency_under_a_concurrent_burst() {
    let _gate = gate();
    trace::reset();
    let ctx = setup(71);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions = ctx.study.eval_questions();
    let spans_before = astro_telemetry::span::snapshot().len();
    std::thread::scope(|scope| {
        for c in 0..8 {
            let questions = &questions;
            scope.spawn(move || {
                for q in questions {
                    let body = score_body(q, Some(&format!("burst-{c}")));
                    let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT).expect("score");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
    });
    assert_eq!(
        astro_telemetry::span::snapshot().len(),
        spans_before,
        "the request path opened a span"
    );
    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");

    let ring = trace::ring_snapshot();
    let scored: Vec<&TraceRecord> = ring
        .iter()
        .filter(|r| r.status == 200 && r.name == "gateway./v1/score")
        .collect();
    assert_eq!(scored.len(), 8 * questions.len(), "one 200 score trace per burst request");
    for rec in scored {
        assert_well_formed(rec);
        assert_eq!(phase_names(rec), PHASES);
        let e2e = rec.duration_us() as f64;
        let attributed = rec.phase_total_us();
        assert!(
            (e2e - attributed as f64).abs() <= (e2e * 0.05).max(500.0),
            "phases sum to {attributed}µs of {e2e}µs end to end: {:?}",
            rec.phases
        );
    }
}

/// Deadline misses (504) and queue-full rejections (503) get traces
/// too. 504 from both of its sources, on a one-slot gateway with a 10ms
/// deadline and a generate that outlasts it ten times over (the largest
/// tier, a context-filling decode budget): the generate's handler gives
/// up waiting for the scheduler, and a score sent behind it expires *in
/// the queue* — the slot is taken, so it is never handed to the
/// scheduler, and when the generate retires the loop answers it
/// `Expired` without running it. 503 by flooding a
/// single-slot queue (bounded retries — the flood outcome mix is
/// timing-dependent, the per-response trace invariant is not).
#[test]
fn pressure_rejections_are_traced() {
    let _gate = gate();
    trace::reset();
    let slow_generate = InstructEvalConfig {
        max_new_tokens: 256,
        ..InstructEvalConfig::default()
    };
    let ctx = setup_with(67, Tier::S70b, slow_generate);
    let q = ctx.study.eval_questions()[0].clone();

    let config = GatewayConfig {
        deadline: Duration::from_millis(10),
        max_batch: 1,
        ..GatewayConfig::default()
    };
    let (timeouts, expired, admitted) = (
        counter("gateway.deadline_timeouts"),
        counter("gateway.expired"),
        counter("serve.sched.admitted"),
    );
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let generate = format!("{},\"seed\":7}}", score_body(&q, None).trim_end_matches('}'));
    for (path, body) in [("/v1/generate", &generate), ("/v1/score", &score_body(&q, None))] {
        let resp = client::post_json(gw.addr(), path, body, TIMEOUT).expect("deadline response");
        assert_eq!(resp.status, 504, "{path}: {}", resp.body);
    }
    // Both handlers abandoned their reply channels at the deadline, so
    // the drain legitimately reports accepted > completed here — no
    // drained_clean assertion for this scenario. It does flush the queue:
    // the score has been popped and answered by the time it returns.
    let _stats = gw.shutdown();
    assert_eq!(counter("gateway.deadline_timeouts") - timeouts, 2);
    assert_eq!(counter("gateway.expired") - expired, 1, "the queued score expired in the queue");
    assert_eq!(
        counter("serve.sched.admitted") - admitted,
        1,
        "only the generate ran: the scheduler never admits expired work"
    );
    let deadline_traces: Vec<TraceRecord> = trace::drain_ring()
        .into_iter()
        .filter(|r| r.status == 504)
        .collect();
    assert_eq!(deadline_traces.len(), 2, "expected exactly one 504 trace per response");
    for rec in &deadline_traces {
        assert!(rec.flags.deadline, "{rec:?}");
        assert_eq!(rec.keep, "deadline");
        assert_well_formed(rec);
    }

    // 503: a single-slot queue under a concurrent flood. Engine latency
    // decides how many of the six land 503 vs 200/504, so retry the
    // flood a few times until a 503 shows up — every round still must
    // hold the one-trace-per-response property.
    trace::reset();
    let config = GatewayConfig {
        queue_capacity: 1,
        max_batch: 1,
        rate_per_sec: 1000.0,
        burst: 1000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let mut total_responses = 0u64;
    let mut saw_503 = false;
    for _round in 0..8 {
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|t| {
                    let body = score_body(&q, Some(&format!("flood-{t}")));
                    scope.spawn(move || {
                        let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT)
                            .expect("flood response");
                        // Backpressure carries a retry hint: the router and
                        // well-behaved clients key their backoff off it.
                        assert!(
                            resp.status != 503 || resp.header("Retry-After").is_some(),
                            "503 without Retry-After: {}",
                            resp.body
                        );
                        resp.status
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });
        for s in &statuses {
            assert!(matches!(s, 200 | 503 | 504), "unexpected status {s}");
        }
        total_responses += statuses.len() as u64;
        if statuses.contains(&503) {
            saw_503 = true;
            break;
        }
    }
    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert!(saw_503, "queue-full 503 never observed across 8 flood rounds");
    let ring = trace::ring_snapshot();
    assert_eq!(ring.len() as u64, total_responses, "one trace per flood response");
    let ids: BTreeSet<u128> = ring.iter().map(|r| r.id.0).collect();
    assert_eq!(ids.len(), ring.len(), "duplicate trace ids in the ring");
    for rec in &ring {
        assert_well_formed(rec);
    }
    assert!(
        ring.iter().any(|r| r.status == 503),
        "503 response produced no trace"
    );
}
