//! End-to-end gateway tests over real sockets: bitwise parity with the
//! in-process serial path (sequentially and under a concurrent mixed
//! burst), the admission-control status matrix, queue backpressure behind
//! a full scheduler, what the serving loops share (`active_seqs` is their
//! sum, `max_batch` their joint bound, a same-group burst's prefix is
//! encoded at most once per loop), graceful drain with zero
//! accepted-request loss, injected gateway faults, and a hard abort
//! mid-burst.
//!
//! The metrics registry and the trace ring are process-global, so every
//! test takes `GATE`; the fault test's plan is its own (`Faults::enter`).

use astro_gateway::{client, Gateway, GatewayConfig, GatewayState};
use astromlab::eval::json::Json;
use astromlab::eval::{
    instruct_method_answer, score_job, token_method_predict, EvalModel, InstructEvalConfig,
    TokenEvalConfig,
};
use astromlab::mcq::Mcq;
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::serve::EngineConfig;
use astromlab::{Study, StudyConfig};
use astro_telemetry::event::write_json_string;
use astro_telemetry::fault::{FaultPlan, Faults};
use astro_telemetry::trace::{self, TraceId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serialises the tests' reads of the process-global counters, gauges and
/// trace ring.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

const TIMEOUT: Duration = Duration::from_secs(30);

struct Ctx {
    study: Study,
    params: Arc<Params>,
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
        params: Arc::clone(&params),
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(study.mcq.exemplars.clone()),
        token_config: TokenEvalConfig::default(),
        instruct_config,
    };
    Ctx {
        study,
        params,
        state,
    }
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

fn generate_body(q: &Mcq, seed: u64) -> String {
    let mut out = score_body(q, None);
    out.pop();
    out.push_str(&format!(",\"seed\":{seed}}}"));
    out
}

fn json_u32s(v: &Json, key: &str) -> Vec<u32> {
    let Some(Json::Array(items)) = v.get(key) else {
        panic!("missing array {key:?} in {v:?}");
    };
    items
        .iter()
        .map(|i| match i {
            Json::Number(n) => *n as u32,
            other => panic!("{key:?} entry not a number: {other:?}"),
        })
        .collect()
}

/// A number out of a parsed JSON object, by path.
fn json_number(v: &Json, path: &[&str]) -> f64 {
    match path.iter().try_fold(v, |v, key| v.get(key)) {
        Some(Json::Number(n)) => *n,
        other => panic!("no number at {path:?}: {other:?}"),
    }
}

fn health(addr: std::net::SocketAddr) -> Json {
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthz");
    Json::parse(&resp.body).expect("healthz body parses")
}

/// Poll `/healthz` until `ready` holds for its body: the way a test waits
/// for the gateway to reach a state only the gateway can report.
fn wait_for_health(addr: std::net::SocketAddr, what: &str, ready: impl Fn(&Json) -> bool) {
    let give_up = Instant::now() + TIMEOUT;
    while !ready(&health(addr)) {
        assert!(Instant::now() < give_up, "gateway never reached {what:?}");
        std::thread::yield_now();
    }
}

fn counter_value(name: &str) -> u64 {
    astro_telemetry::metrics::snapshot()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn socket_responses_match_in_process_serial_path_bitwise() {
    let _gate = gate();
    let ctx = setup(41);
    let model = EvalModel {
        params: &ctx.params,
        tokenizer: &ctx.state.tokenizer,
    };
    let questions = ctx.study.eval_questions();
    let n = questions.len().min(3);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();

    for (i, q) in questions.iter().take(n).enumerate() {
        // Token method over the socket vs in-process serial.
        let resp = client::post_json(addr, "/v1/score", &score_body(q, None), TIMEOUT)
            .expect("score request");
        assert_eq!(resp.status, 200, "q{i}: {}", resp.body);
        let v = Json::parse(&resp.body).expect("score body parses");
        let got_bits = json_u32s(&v, "score_bits");
        let (ref_pred, ref_scores) =
            token_method_predict(&model, q, &ctx.study.mcq.exemplars, &ctx.state.token_config);
        let ref_bits: Vec<u32> = ref_scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got_bits, ref_bits, "q{i}: score bits diverged");
        match v.get("prediction") {
            Some(Json::Number(p)) => assert_eq!(*p as usize, ref_pred, "q{i}: prediction"),
            other => panic!("q{i}: bad prediction {other:?}"),
        }

        // Full-instruct method with a per-request seed.
        let seed = 900 + i as u64;
        let resp = client::post_json(addr, "/v1/generate", &generate_body(q, seed), TIMEOUT)
            .expect("generate request");
        assert_eq!(resp.status, 200, "q{i}: {}", resp.body);
        let v = Json::parse(&resp.body).expect("generate body parses");
        let mut rng = Rng::seed_from(seed);
        let reference = instruct_method_answer(&model, q, &ctx.state.instruct_config, &mut rng);
        assert!(reference.error.is_none());
        assert_eq!(
            v.get("raw").and_then(Json::as_str),
            Some(reference.raw.as_str()),
            "q{i}: raw generation diverged"
        );
        match (v.get("prediction"), reference.prediction) {
            (Some(Json::Number(p)), Some(r)) => assert_eq!(*p as usize, r, "q{i}"),
            (Some(Json::Null), None) => {}
            (got, want) => panic!("q{i}: prediction {got:?} vs {want:?}"),
        }
    }

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(stats.accepted, 2 * n as u64);
    assert_eq!(stats.accepted, stats.completed);
}

/// A client's `traceparent` is adopted, and the one the gateway answers
/// with names this hop as the parent: the same trace id and the non-zero
/// id the trace minted for the hop, which is what the ring record carries.
#[test]
fn inbound_traceparent_is_adopted_and_answered_with_this_hops_id() {
    let _gate = gate();
    trace::reset();
    let ctx = setup(47);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let q = ctx.study.eval_questions()[0];
    let (sent_id, sent_parent) = (TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736), 0xf0_67aa_0ba9_02b7);
    let sent = trace::format_traceparent(sent_id, sent_parent);
    let resp = client::post_json_with_headers(
        gw.addr(),
        "/v1/score",
        &score_body(q, None),
        &[("traceparent", &sent)],
        TIMEOUT,
    )
    .expect("score request");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // Parsing rejects a zero parent-id, as every W3C reader does.
    let (id, hop) = resp
        .header("traceparent")
        .and_then(trace::parse_traceparent)
        .unwrap_or_else(|| panic!("no valid traceparent in {:?}", resp.headers));
    assert_eq!(id, sent_id, "the client's trace id is adopted");
    gw.shutdown();
    let ring = trace::ring_snapshot();
    let rec = ring
        .iter()
        .find(|r| r.parent_span == Some(sent_parent))
        .expect("a ring record whose parent is the client's span");
    assert_eq!((rec.id, rec.span), (sent_id, hop), "the answered parent-id is the record's hop id");
}

#[test]
fn concurrent_mixed_burst_matches_in_process_serial_path_bitwise() {
    let _gate = gate();
    let ctx = setup(61);
    let model = EvalModel {
        params: &ctx.params,
        tokenizer: &ctx.state.tokenizer,
    };
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();
    let n = questions.len().min(3);

    // Mixed concurrent burst: long generates sharing the scheduler's
    // steps with cheap scores, all answered bitwise-identically to the
    // serial in-process path.
    std::thread::scope(|scope| {
        for (i, q) in questions.iter().take(n).enumerate() {
            let model = &model;
            let ctx = &ctx;
            scope.spawn(move || {
                let seed = 700 + i as u64;
                let resp = client::post_json(addr, "/v1/generate", &generate_body(q, seed), TIMEOUT)
                    .expect("generate request");
                assert_eq!(resp.status, 200, "q{i}: {}", resp.body);
                let v = Json::parse(&resp.body).expect("generate body parses");
                let mut rng = Rng::seed_from(seed);
                let reference =
                    instruct_method_answer(model, q, &ctx.state.instruct_config, &mut rng);
                assert!(reference.error.is_none());
                assert_eq!(
                    v.get("raw").and_then(Json::as_str),
                    Some(reference.raw.as_str()),
                    "q{i}: raw generation diverged under a mixed batch"
                );
            });
            scope.spawn(move || {
                let resp = client::post_json(addr, "/v1/score", &score_body(q, None), TIMEOUT)
                    .expect("score request");
                assert_eq!(resp.status, 200, "q{i}: {}", resp.body);
                let v = Json::parse(&resp.body).expect("score body parses");
                let got_bits = json_u32s(&v, "score_bits");
                let (ref_pred, ref_scores) = token_method_predict(
                    model,
                    q,
                    &ctx.study.mcq.exemplars,
                    &ctx.state.token_config,
                );
                let ref_bits: Vec<u32> = ref_scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(got_bits, ref_bits, "q{i}: score bits diverged");
                match v.get("prediction") {
                    Some(Json::Number(p)) => assert_eq!(*p as usize, ref_pred, "q{i}"),
                    other => panic!("q{i}: bad prediction {other:?}"),
                }
            });
        }
    });

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(stats.accepted, 2 * n as u64);
    assert_eq!(stats.accepted, stats.completed);
}

#[test]
fn admission_control_status_matrix() {
    let _gate = gate();
    let ctx = setup(43);
    let config = GatewayConfig {
        rate_per_sec: 0.5,
        burst: 2.0,
        max_body_bytes: 4096,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let q = ctx.study.eval_questions()[0].clone();

    // Routing and health.
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"status\":\"ok\""), "{}", resp.body);
    let resp = client::get(addr, "/metricsz", TIMEOUT).expect("metricsz");
    assert_eq!(resp.status, 200);
    assert!(Json::parse(&resp.body).is_ok(), "{}", resp.body);
    assert_eq!(client::get(addr, "/v1/score", TIMEOUT).expect("405").status, 405);
    assert_eq!(client::get(addr, "/nope", TIMEOUT).expect("404").status, 404);

    // Schema errors.
    let resp = client::post_json(addr, "/v1/score", "not json", TIMEOUT).expect("400");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("invalid JSON"), "{}", resp.body);

    // Payload bound: declared body larger than max_body_bytes.
    let huge = format!(
        "{{\"question\":\"{}\",\"options\":[\"a\",\"b\",\"c\",\"d\"]}}",
        "x".repeat(8192)
    );
    let resp = client::post_json(addr, "/v1/score", &huge, TIMEOUT).expect("413");
    assert_eq!(resp.status, 413, "{}", resp.body);

    // Rate limit: burst of 2, then a 429 with Retry-After.
    let prefix_hits = counter_value("serve.prefix.hits");
    let body = score_body(&q, Some("greedy-client"));
    for i in 0..2 {
        let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT).expect("burst");
        assert_eq!(resp.status, 200, "burst {i}: {}", resp.body);
    }
    // The second of two same-group scores forked the first one's anchor,
    // and the scheduler's cache counters are visible from outside.
    let resp = client::get(addr, "/metricsz", TIMEOUT).expect("metricsz");
    let metrics = Json::parse(&resp.body).expect("metricsz parses");
    let hits = json_number(&metrics, &["counters", "serve.prefix.hits"]);
    assert!(hits >= (prefix_hits + 1) as f64, "serve.prefix.hits {hits} after a repeat");
    for gauge in ["serve.cache.resident_bytes", "serve.sched.active"] {
        assert!(json_number(&metrics, &["gauges", gauge]) >= 0.0);
    }
    let resp = client::get(addr, "/metricsz?format=prometheus", TIMEOUT).expect("prometheus");
    let prom_hits: f64 = resp
        .body
        .lines()
        .find_map(|l| l.strip_prefix("serve_prefix_hits "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no serve_prefix_hits sample: {}", resp.body));
    assert!(prom_hits >= hits);
    assert!(resp.body.contains("\nserve_cache_resident_bytes "), "{}", resp.body);
    let resp = client::post_json(addr, "/v1/score", &body, TIMEOUT).expect("limited");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let retry: u64 = resp
        .header("Retry-After")
        .and_then(|v| v.parse().ok())
        .expect("Retry-After header");
    assert!(retry >= 1);
    // A different client identity is unaffected.
    let other = score_body(&q, Some("patient-client"));
    let resp = client::post_json(addr, "/v1/score", &other, TIMEOUT).expect("other client");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
}

/// `queue_capacity` is the whole admission bound: a request leaves the
/// queue only for a free scheduler slot, so with the one slot held by a
/// long generate and the one queue place taken, further requests are shed
/// 503 + `Retry-After` at once, and the queued one runs as soon as the
/// generate retires. (A loop that drains the queue into a backlog of its
/// own instead answers all four scores 200.)
#[test]
fn requests_behind_a_full_scheduler_wait_in_the_queue_and_its_bound_sheds_the_rest() {
    let _gate = gate();
    // The largest tier and a context-filling decode budget: a generate
    // that outlasts the handful of local round trips below many times.
    let slow_generate = InstructEvalConfig {
        max_new_tokens: 256,
        ..InstructEvalConfig::default()
    };
    let ctx = setup_with(63, Tier::S70b, slow_generate);
    let config = GatewayConfig {
        max_batch: 1,
        queue_capacity: 1,
        rate_per_sec: 1000.0,
        burst: 1000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions = ctx.study.eval_questions();
    let occupied = |health: &Json| {
        (
            json_number(health, &["active_seqs"]) as usize,
            json_number(health, &["queue_depth"]) as usize,
        )
    };

    std::thread::scope(|scope| {
        let post = |path: &'static str, body: String| {
            scope.spawn(move || {
                let resp = client::post_json(addr, path, &body, TIMEOUT).expect("response");
                (resp, Instant::now())
            })
        };
        let generate = post("/v1/generate", generate_body(questions[0], 5));
        wait_for_health(addr, "the generate in its slot", |h| occupied(h) == (1, 0));
        let queued = post("/v1/score", score_body(questions[1], None));
        wait_for_health(addr, "a score waiting in the queue", |h| occupied(h) == (1, 1));
        let shed: Vec<_> = (0..3)
            .map(|i| post("/v1/score", score_body(questions[2 + i], None)))
            .collect();
        for handle in shed {
            let (resp, _) = handle.join().expect("client");
            assert_eq!(resp.status, 503, "{}", resp.body);
            assert!(resp.header("Retry-After").is_some(), "503 without Retry-After");
        }
        // The premise held to the end: all of that happened while the
        // generate was still decoding and the first score still queued.
        assert_eq!(occupied(&health(addr)), (1, 1), "the generate finished too early for this test");
        let (generated, generate_done) = generate.join().expect("client");
        let (scored, score_done) = queued.join().expect("client");
        assert_eq!(generated.status, 200, "{}", generated.body);
        assert_eq!(scored.status, 200, "{}", scored.body);
        assert!(score_done > generate_done, "the queued score ran before the slot was free");
    });

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!((stats.accepted, stats.completed), (2, 2), "{stats:?}");
}

/// The largest tier and a context-filling decode budget: a generate that
/// outlasts a handful of local round trips many times.
fn slow_generate_setup() -> Ctx {
    let slow_generate = InstructEvalConfig {
        max_new_tokens: 256,
        ..InstructEvalConfig::default()
    };
    setup_with(63, Tier::S70b, slow_generate)
}

fn active_seqs(health: &Json) -> usize {
    json_number(health, &["active_seqs"]) as usize
}

/// `/healthz` `active_seqs` is the sum over every serving loop: with
/// `max_batch: 2` a machine with two or more cores runs two loops of one
/// slot each, one core runs one loop of two, and two generates in flight
/// read 2 either way. (A gauge each loop overwrites reads the last
/// writer's own count, 1.) Once the loops exit, their shares are given
/// back and the gauge reads 0.
#[test]
fn healthz_active_seqs_is_the_sum_over_every_serving_loop() {
    let _gate = gate();
    let ctx = slow_generate_setup();
    let config = GatewayConfig {
        max_batch: 2,
        rate_per_sec: 1000.0,
        burst: 1000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions = ctx.study.eval_questions();
    std::thread::scope(|scope| {
        let generates: Vec<_> = (0..2)
            .map(|i| {
                let body = generate_body(questions[i], 5 + i as u64);
                scope.spawn(move || client::post_json(addr, "/v1/generate", &body, TIMEOUT))
            })
            .collect();
        wait_for_health(addr, "two generates active", |h| active_seqs(h) == 2);
        for handle in generates {
            let resp = handle.join().expect("client").expect("response");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    });
    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(astro_telemetry::metrics::gauge("serve.sched.active").get(), 0);
}

/// `max_batch` is the gateway-wide bound on active sequences however many
/// serving loops share it, and the queue is still the one place a request
/// waits: with both slots held by generates and the one queue place taken
/// by a third, further requests are shed 503 + `Retry-After` at once, and
/// `active_seqs` never reads above 2. The multi-loop twin of
/// `requests_behind_a_full_scheduler_wait_in_the_queue_and_its_bound_sheds_the_rest`.
#[test]
fn max_batch_bounds_active_sequences_over_every_serving_loop() {
    let _gate = gate();
    let ctx = slow_generate_setup();
    let config = GatewayConfig {
        max_batch: 2,
        queue_capacity: 1,
        rate_per_sec: 1000.0,
        burst: 1000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions = ctx.study.eval_questions();
    let occupied = |health: &Json| (active_seqs(health), json_number(health, &["queue_depth"]) as usize);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            // Bounded, so a failed assertion below cannot hang the scope.
            let give_up = Instant::now() + TIMEOUT;
            let mut most = 0;
            while !done.load(Ordering::SeqCst) && Instant::now() < give_up {
                most = most.max(active_seqs(&health(addr)));
                std::thread::sleep(Duration::from_millis(1));
            }
            most
        });
        let post = |path: &'static str, body: String| {
            scope.spawn(move || client::post_json(addr, path, &body, TIMEOUT).expect("response"))
        };
        // One at a time: the one queue place must be free for each.
        let mut generates = Vec::new();
        for (i, want) in [(0, (1, 0)), (1, (2, 0)), (2, (2, 1))] {
            generates.push(post("/v1/generate", generate_body(questions[i], 5 + i as u64)));
            wait_for_health(addr, &format!("generate {i} taken or queued"), |h| occupied(h) == want);
        }
        let shed: Vec<_> = (0..3)
            .map(|i| post("/v1/score", score_body(questions[3 + i], None)))
            .collect();
        for handle in shed {
            let resp = handle.join().expect("client");
            assert_eq!(resp.status, 503, "{}", resp.body);
            assert!(resp.header("Retry-After").is_some(), "503 without Retry-After");
        }
        assert_eq!(occupied(&health(addr)), (2, 1), "a generate finished too early for this test");
        for handle in generates {
            let resp = handle.join().expect("client");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        done.store(true, Ordering::SeqCst);
        assert_eq!(watcher.join().expect("watcher"), 2, "active_seqs above max_batch");
    });

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!((stats.accepted, stats.completed), (3, 3), "{stats:?}");
}

/// Leader/follower deferral is per serving loop, so a burst of identical
/// same-group scores encodes its prompt at most once per loop — once on a
/// one-core machine — rather than once per request, and every answer is
/// still bitwise the in-process serial path's.
#[test]
fn a_same_group_score_burst_encodes_its_prompt_at_most_once_per_serving_loop() {
    let _gate = gate();
    let ctx = setup(67);
    let model = EvalModel {
        params: &ctx.params,
        tokenizer: &ctx.state.tokenizer,
    };
    let q = ctx.study.eval_questions()[0];
    let exemplars = &ctx.study.mcq.exemplars;
    let (ref_pred, ref_scores) = token_method_predict(&model, q, exemplars, &ctx.state.token_config);
    let ref_bits: Vec<u32> = ref_scores.iter().map(|s| s.to_bits()).collect();
    let prompt_tokens = score_job(&model, q, exemplars, &ctx.state.token_config).prompt.len() as u64;
    let config = GatewayConfig::default();
    let loops = EngineConfig::pooled().resolved_parallelism().min(config.max_batch) as u64;
    let gw = Gateway::spawn(config, ctx.state.clone()).expect("spawn");
    let addr = gw.addr();

    let encoded_before = counter_value("serve.tokens.encoded");
    let body = score_body(q, None);
    std::thread::scope(|scope| {
        let burst: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| client::post_json(addr, "/v1/score", &body, TIMEOUT)))
            .collect();
        for handle in burst {
            let resp = handle.join().expect("client").expect("score request");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let v = Json::parse(&resp.body).expect("score body parses");
            assert_eq!(json_u32s(&v, "score_bits"), ref_bits, "score bits diverged");
            assert_eq!(json_number(&v, &["prediction"]) as usize, ref_pred);
        }
    });
    let encoded = counter_value("serve.tokens.encoded") - encoded_before;
    assert!(
        (prompt_tokens..=loops * prompt_tokens).contains(&encoded),
        "{encoded} tokens encoded for 8 copies of a {prompt_tokens}-token prompt on {loops} loops"
    );

    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(stats.accepted, 8);
}

/// One request must not be able to abort the process: a body nested far
/// past the JSON parser's bound (and well inside the default 64 KiB body
/// limit) is answered 400 on the handler's default-size stack, and the
/// gateway keeps serving.
#[test]
fn deeply_nested_body_is_a_400_and_the_gateway_survives() {
    let _gate = gate();
    let ctx = setup(45);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    for (path, body) in [
        ("/v1/score", "[".repeat(60_000)),
        ("/v1/generate", "{\"question\":".repeat(5_000)),
    ] {
        let resp = client::post_json(addr, path, &body, TIMEOUT).expect("deep body");
        assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        assert!(resp.body.contains("invalid JSON"), "{path}: {}", resp.body);
    }
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthz after deep bodies");
    assert_eq!(resp.status, 200);
    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
}

#[test]
fn graceful_drain_answers_every_accepted_request() {
    let _gate = gate();
    let ctx = setup(47);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let questions: Vec<Mcq> = ctx
        .study
        .eval_questions()
        .into_iter()
        .cloned()
        .collect();

    // A burst of concurrent clients, then shutdown while they are in
    // flight. Every request the gateway accepted must get a real answer;
    // late arrivals may see 503 (draining) or a refused connect — both
    // typed, never a hang or a torn response.
    let oks = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let q = questions[t % questions.len()].clone();
                let body = score_body(&q, Some(&format!("drain-client-{t}")));
                scope.spawn(move || {
                    let mut oks = 0;
                    for _ in 0..2 {
                        match client::post_json(addr, "/v1/score", &body, TIMEOUT) {
                            Ok(resp) if resp.status == 200 => {
                                assert!(Json::parse(&resp.body).is_ok(), "{}", resp.body);
                                oks += 1;
                            }
                            Ok(resp) => assert_eq!(resp.status, 503, "{}", resp.body),
                            Err(_refused_or_reset) => {}
                        }
                    }
                    oks
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let stats = gw.shutdown();
        assert!(stats.drained_clean, "{stats:?}");
        assert_eq!(stats.accepted, stats.completed, "{stats:?}");
        handles.into_iter().map(|h| h.join().expect("client")).sum::<u64>()
    });
    assert!(oks > 0, "no request completed before the drain");
}

#[test]
fn injected_gateway_faults_are_absorbed_without_panics() {
    let _gate = gate();
    let faults = Faults::default().enter();
    let panics_before = counter_value("gateway.handler_panics");
    let ctx = setup(53);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();

    // accept_fail: the next connection is dropped before a handler
    // exists; the client sees a typed transport error and a retry works.
    faults.install(FaultPlan::single("gateway.accept_fail", 1));
    let dropped = client::get(addr, "/healthz", Duration::from_secs(2));
    assert!(dropped.is_err(), "dropped connection should error: {dropped:?}");
    assert!(faults.fired("gateway.accept_fail"));
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("retry after accept_fail");
    assert_eq!(resp.status, 200);
    faults.clear();

    // slow_client: the handler answers 408 exactly like a read timeout.
    faults.install(FaultPlan::single("gateway.slow_client", 1));
    let resp = client::get(addr, "/healthz", TIMEOUT).expect("slow client response");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(faults.fired("gateway.slow_client"));
    faults.clear();

    let resp = client::get(addr, "/healthz", TIMEOUT).expect("healthy again");
    assert_eq!(resp.status, 200);
    let stats = gw.shutdown();
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(counter_value("gateway.handler_panics"), panics_before);
}

#[test]
fn abort_mid_burst_yields_typed_errors() {
    let _gate = gate();
    let panics_before = counter_value("gateway.handler_panics");
    let ctx = setup(59);
    let gw = Gateway::spawn(GatewayConfig::default(), ctx.state.clone()).expect("spawn");
    let addr = gw.addr();
    let q = ctx.study.eval_questions()[0].clone();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let body = score_body(&q, Some(&format!("abort-client-{t}")));
                scope.spawn(move || {
                    for _ in 0..3 {
                        match client::post_json(addr, "/v1/score", &body, TIMEOUT) {
                            // Completed before the abort, rejected during
                            // it, or refused after it — all acceptable,
                            // all typed.
                            Ok(resp) => assert!(
                                matches!(resp.status, 200 | 503 | 504),
                                "unexpected status {}: {}",
                                resp.status,
                                resp.body
                            ),
                            Err(_refused_or_reset) => {}
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        gw.abort();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    assert_eq!(counter_value("gateway.handler_panics"), panics_before);
}
