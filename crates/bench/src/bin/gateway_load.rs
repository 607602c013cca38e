//! Load-test the astro-gateway HTTP front-end over real sockets:
//! batched-over-socket throughput vs the serial single-request path,
//! bitwise answer parity, admission-control probes, and graceful drain.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin gateway_load -- [micro|smoke|fast|full] [seed]
//! cargo run --release -p astro-bench --bin gateway_load -- --serve [port]
//! ```
//!
//! The bench run has five phases, all against an untrained S7b model
//! (training state does not change the serving path):
//!
//! 1. **serial** — a gateway with `EngineConfig::serial()` and
//!    `max_batch: 1`, driven by ONE sequential client: the no-batching,
//!    no-cache baseline, still paying full HTTP cost per request;
//! 2. **batched** — a gateway with the pooled engine and a 10ms
//!    micro-batching window, driven by 8 concurrent clients; every
//!    response is checked **bitwise** (via `score_bits`) against the
//!    in-process serial reference;
//! 3. **mixed** — the head-of-line blocking scenario: one generate
//!    client plus seven score clients, run against both the coalescing
//!    and the iteration-scheduler gateways; the headline metrics are the
//!    per-endpoint score p95 improvement and the throughput ratio
//!    (`mixed_score_p95_improvement`, `mixed_throughput_ratio`), both
//!    gated here and against the committed baseline by
//!    `bench_regression`;
//! 4. **admission** — a strict gateway (tight rate limit, small body
//!    bound, queue capacity 1) probed for deterministic 429 / 413 and an
//!    overload burst that must surface 503 backpressure;
//! 5. **drain** — a shutdown mid-burst that must answer every accepted
//!    request.
//!
//! Results land in `BENCH_gateway.json`; the contract checks run last
//! and exit non-zero on violation. `--serve` instead parks a gateway on
//! a fixed port for manual curl exploration (see docs/SERVING.md).

use astro_bench::{instrumented_run, JsonObject};
use astro_gateway::{client, Gateway, GatewayConfig, GatewayState};
use astro_telemetry::event::write_json_string;
use astro_telemetry::{info, metrics, trace};
use astromlab::eval::json::Json;
use astromlab::eval::{token_method_predict, EvalModel, InstructEvalConfig, TokenEvalConfig};
use astromlab::mcq::Mcq;
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::serve::EngineConfig;
use astromlab::{Study, StudyConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);
const CLIENTS: usize = 8;

fn state_for(study: &Study, params: &Arc<Params>) -> GatewayState {
    GatewayState {
        params: Arc::clone(params),
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(study.mcq.exemplars.clone()),
        token_config: TokenEvalConfig::default(),
        instruct_config: InstructEvalConfig::default(),
    }
}

fn score_request_body(q: &Mcq, client_id: &str) -> String {
    let mut out = String::from("{\"question\":");
    write_json_string(&mut out, &q.question);
    out.push_str(",\"options\":[");
    for (i, opt) in q.options.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, opt);
    }
    out.push_str(&format!("],\"group\":{},\"client\":", q.article));
    write_json_string(&mut out, client_id);
    out.push('}');
    out
}

/// Extract the `score_bits` array from a 200 response body.
fn response_bits(body: &str) -> Result<Vec<u32>, String> {
    let v = Json::parse(body).map_err(|e| format!("unparseable body: {e}"))?;
    let Some(Json::Array(items)) = v.get("score_bits") else {
        return Err(format!("no score_bits in {body}"));
    };
    items
        .iter()
        .map(|i| match i {
            Json::Number(n) => Ok(*n as u32),
            other => Err(format!("non-numeric bit {other:?}")),
        })
        .collect()
}

/// Send every question once, sequentially, asserting 200 + parity.
/// Returns the first parity failure, if any.
fn drive_serial(
    addr: std::net::SocketAddr,
    questions: &[Mcq],
    refs: &[Vec<u32>],
    client_id: &str,
) -> Option<String> {
    for (i, q) in questions.iter().enumerate() {
        let body = score_request_body(q, client_id);
        let resp = match client::post_json(addr, "/v1/score", &body, TIMEOUT) {
            Ok(r) => r,
            Err(e) => return Some(format!("q{i}: transport: {e}")),
        };
        if resp.status != 200 {
            return Some(format!("q{i}: status {}: {}", resp.status, resp.body));
        }
        match response_bits(&resp.body) {
            Ok(bits) if bits == refs[i] => {}
            Ok(bits) => return Some(format!("q{i}: bits {bits:?} != {:?}", refs[i])),
            Err(e) => return Some(format!("q{i}: {e}")),
        }
    }
    None
}

fn generate_request_body(q: &Mcq, client_id: &str, seed: u64) -> String {
    let mut out = score_request_body(q, client_id);
    out.pop();
    out.push_str(&format!(",\"seed\":{seed}}}"));
    out
}

fn hist_summary(name: &str) -> Option<astro_telemetry::metrics::HistSummary> {
    metrics::snapshot()
        .histograms
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
}

/// Per-endpoint `[score p50, score p95, generate p50, generate p95]` in
/// µs, from the gateway's per-endpoint latency histograms.
fn endpoint_percentiles() -> [f64; 4] {
    let score = hist_summary("gateway.endpoint./v1/score.us");
    let generate = hist_summary("gateway.endpoint./v1/generate.us");
    [
        score.as_ref().map(|h| h.p50).unwrap_or(f64::NAN),
        score.as_ref().map(|h| h.p95).unwrap_or(f64::NAN),
        generate.as_ref().map(|h| h.p50).unwrap_or(f64::NAN),
        generate.as_ref().map(|h| h.p95).unwrap_or(f64::NAN),
    ]
}

fn serve_forever(port: u16) -> ! {
    let study = Study::prepare(StudyConfig::smoke(11)).expect("prepare");
    let params = Arc::new(Params::init(
        study.model_config(Tier::S7b),
        &mut Rng::seed_from(11),
    ));
    let config = GatewayConfig {
        bind: format!("127.0.0.1:{port}"),
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, state_for(&study, &params)).expect("spawn gateway");
    info!("gateway_load --serve: listening on {}", gw.addr());
    info!("try: curl -s http://{}/healthz", gw.addr());
    info!(
        "try: curl -s -X POST http://{}/v1/score -d '{}'",
        gw.addr(),
        score_request_body(&study.mcq.exemplars[0], "curl")
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--serve") {
        let port = args
            .iter()
            .skip_while(|a| *a != "--serve")
            .nth(1)
            .and_then(|p| p.parse().ok())
            .unwrap_or(8080);
        serve_forever(port);
    }

    let (config, mut run) = instrumented_run("gateway_load");
    let study = Study::prepare(config).expect("prepare");
    let params = Arc::new(Params::init(
        study.model_config(Tier::S7b),
        &mut Rng::seed_from(study.config.seed),
    ));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let questions: Vec<Mcq> = study.eval_questions().into_iter().cloned().collect();
    let n = questions.len();
    info!("gateway_load: {n} questions, {CLIENTS} concurrent clients, S7b untrained");

    // In-process serial reference: the bitwise ground truth.
    let token_config = TokenEvalConfig::default();
    let refs: Vec<Vec<u32>> = questions
        .iter()
        .map(|q| {
            let (_pred, scores) =
                token_method_predict(&model, q, &study.mcq.exemplars, &token_config);
            scores.iter().map(|s| s.to_bits()).collect()
        })
        .collect();

    // Phase 1: serial gateway, one sequential client. No cache, no
    // batching — each request pays the full encode.
    let serial_config = GatewayConfig {
        engine: EngineConfig::serial(),
        max_batch: 1,
        batch_window: Duration::from_millis(0),
        rate_per_sec: 10_000.0,
        burst: 10_000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(serial_config, state_for(&study, &params)).expect("serial gateway");
    let t = Instant::now();
    let serial_parity = drive_serial(gw.addr(), &questions, &refs, "serial-client");
    let serial_wall = t.elapsed().as_secs_f64();
    let serial_stats = gw.shutdown();
    let serial_rps = n as f64 / serial_wall;
    info!("serial-over-socket: {serial_wall:.2}s ({serial_rps:.2} req/sec)");

    // Phase 2: batched gateway, 8 concurrent clients each sending the
    // full question set. The micro-batch window coalesces their requests
    // so the prefix cache deduplicates the shared few-shot preamble.
    // Trace state resets with the metrics so the attribution section
    // below sees only batched-phase traces.
    metrics::reset();
    trace::reset();
    let batched_config = GatewayConfig {
        engine: EngineConfig::pooled(),
        max_batch: 16,
        batch_window: Duration::from_millis(10),
        rate_per_sec: 10_000.0,
        burst: 10_000.0,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(batched_config, state_for(&study, &params)).expect("batched gateway");
    let addr = gw.addr();
    let t = Instant::now();
    let batched_parity: Option<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let questions = &questions;
                let refs = &refs;
                scope.spawn(move || {
                    drive_serial(addr, questions, refs, &format!("load-client-{c}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap_or_else(|_| Some("client panicked".into())))
            .next()
    });
    let batched_wall = t.elapsed().as_secs_f64();
    let batched_stats = gw.shutdown();
    let total = (CLIENTS * n) as f64;
    let batched_rps = total / batched_wall;
    let speedup = batched_rps / serial_rps;
    let occupancy = hist_summary("gateway.batch_occupancy");
    let latency = hist_summary("gateway.request_us");
    let occupancy_mean = occupancy.as_ref().map(|h| h.mean).unwrap_or(0.0);
    info!(
        "batched-over-socket: {batched_wall:.2}s ({batched_rps:.2} req/sec, \
         {speedup:.2}x serial, mean batch occupancy {occupancy_mean:.2})"
    );

    // --- Trace attribution over the batched phase: per-phase latency
    // percentiles, the phases-tile-the-request invariant, the analyzer
    // round-trip (JSONL → astro-trace → Chrome Trace Event JSON), and
    // the tracing-overhead budget. Snapshots run before phases 3/4 add
    // their rejection traces. ---
    let mut trace_failures: Vec<String> = Vec::new();
    let traces_recorded = trace::stats().ring_len;
    let jsonl_path = std::path::Path::new("traces.jsonl");
    let written = trace::write_ring_jsonl(jsonl_path).unwrap_or(0);
    let report =
        astro_trace::parse_jsonl(&std::fs::read_to_string(jsonl_path).unwrap_or_default());
    if report.traces.len() != written || !report.malformed.is_empty() {
        trace_failures.push(format!(
            "trace JSONL round-trip: wrote {written}, parsed {} ({} malformed)",
            report.traces.len(),
            report.malformed.len()
        ));
    }

    // Tiling invariant: each successful request's phase durations must
    // sum (within slack) to its end-to-end latency — no unattributed
    // time hiding between phases.
    let mut ratio_min = f64::INFINITY;
    let mut ratio_max = f64::NEG_INFINITY;
    let mut tiling_violations = 0usize;
    let mut tiled_count = 0usize;
    for t in report
        .traces
        .iter()
        .filter(|t| t.status == 200 && t.name == "gateway./v1/score")
    {
        let e2e = t.duration_us().max(1) as f64;
        let attributed = t.phase_total_us() as f64;
        let ratio = attributed / e2e;
        ratio_min = ratio_min.min(ratio);
        ratio_max = ratio_max.max(ratio);
        tiled_count += 1;
        // 5% relative slack with a 500µs absolute floor: scheduler-side
        // timestamps quantise to whole microseconds and the final ring
        // stamp lands a hair after the `write` phase closes.
        if (e2e - attributed).abs() > (e2e * 0.05).max(500.0) {
            tiling_violations += 1;
        }
    }
    if tiled_count == 0 {
        ratio_min = 0.0;
        ratio_max = 0.0;
        trace_failures.push("no 200-status score traces reached the ring".to_string());
    }
    if tiling_violations > 0 {
        trace_failures.push(format!(
            "{tiling_violations}/{tiled_count} traces' phases do not sum to their \
             end-to-end latency (attributed/e2e range {ratio_min:.3}..{ratio_max:.3})"
        ));
    }
    info!(
        "trace attribution: {tiled_count} scored traces, attributed/e2e \
         {ratio_min:.3}..{ratio_max:.3}"
    );
    for line in astro_trace::render_phase_table(&report.traces).lines() {
        info!("gateway_load: {line}");
    }

    // Chrome Trace Event export must survive its own validation.
    let chrome = astro_trace::chrome_trace_json(&report.traces);
    let chrome_events = match astro_trace::validate_chrome_json(&chrome, &report.traces) {
        Ok(n) => {
            if let Err(e) = std::fs::write("trace_chrome.json", &chrome) {
                info!("trace_chrome.json not written: {e}");
            }
            n
        }
        Err(e) => {
            trace_failures.push(format!("chrome export: {e}"));
            0
        }
    };

    // Tracing overhead: the cost of one full trace lifecycle (mint,
    // start, every phase, finish → sampling/ring/sink) measured alone,
    // as a fraction of the mean request latency it rides on.
    const LIFECYCLE_PHASES: [&str; 10] = [
        "recv", "build", "queue_wait", "batch_form", "cache_lookup", "prefill", "decode", "sync",
        "extract", "write",
    ];
    let lifecycle_runs = 2000u32;
    let t_overhead = Instant::now();
    for _ in 0..lifecycle_runs {
        let id = trace::mint();
        trace::start(id, "bench.overhead", None, astro_telemetry::elapsed_us());
        for name in LIFECYCLE_PHASES {
            trace::phase_since_last(id, name);
        }
        trace::finish(id, 200);
    }
    let trace_lifecycle_us =
        t_overhead.elapsed().as_secs_f64() * 1e6 / f64::from(lifecycle_runs);
    let mean_latency_us = latency.as_ref().map(|h| h.mean).unwrap_or(f64::NAN);
    let trace_overhead_pct = 100.0 * trace_lifecycle_us / mean_latency_us;
    info!(
        "tracing overhead: {trace_lifecycle_us:.2}µs per request lifecycle = \
         {trace_overhead_pct:.3}% of mean request latency ({mean_latency_us:.0}µs)"
    );
    // NaN must fail too, hence not a plain `>= 2.0`.
    if trace_overhead_pct >= 2.0 || trace_overhead_pct.is_nan() {
        trace_failures.push(format!(
            "tracing overhead {trace_overhead_pct:.3}% exceeds the 2% budget"
        ));
    }

    let phase_stats = astro_trace::phase_stats(&report.traces);
    let mut phases_json = String::from("{");
    for (i, s) in phase_stats.iter().enumerate() {
        if i > 0 {
            phases_json.push(',');
        }
        phases_json.push_str(&format!(
            "\"{}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"total_us\":{}}}",
            s.name, s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us, s.total_us
        ));
    }
    phases_json.push('}');

    // Phase 2b: mixed score/generate load — the head-of-line blocking
    // scenario that motivated the iteration scheduler. One client streams
    // full-instruct generates while the other seven hammer cheap scores.
    // The coalescing scheduler holds every score in a batch hostage to
    // the longest generate in its window; the iteration scheduler retires
    // scores while the generates are still decoding. The same workload
    // runs against both gateways, and the per-endpoint latency histograms
    // give the score/generate p50/p95 split.
    let mixed_total = (CLIENTS * n) as f64;
    let run_mixed = |engine: EngineConfig,
                         label: &str|
     -> (Option<String>, f64, [f64; 4], bool) {
        metrics::reset();
        trace::reset();
        let config = GatewayConfig {
            engine,
            max_batch: 16,
            batch_window: Duration::from_millis(10),
            rate_per_sec: 10_000.0,
            burst: 10_000.0,
            ..GatewayConfig::default()
        };
        let gw = Gateway::spawn(config, state_for(&study, &params)).expect("mixed gateway");
        let addr = gw.addr();
        let t = Instant::now();
        let parity = std::thread::scope(|scope| {
            let gen_handle = {
                let questions = &questions;
                scope.spawn(move || {
                    for (i, q) in questions.iter().enumerate() {
                        let body = generate_request_body(q, "mixed-gen", 300 + i as u64);
                        match client::post_json(addr, "/v1/generate", &body, TIMEOUT) {
                            Ok(r) if r.status == 200 => {}
                            Ok(r) => {
                                return Some(format!(
                                    "generate q{i}: status {}: {}",
                                    r.status, r.body
                                ))
                            }
                            Err(e) => return Some(format!("generate q{i}: transport: {e}")),
                        }
                    }
                    None
                })
            };
            let score_handles: Vec<_> = (1..CLIENTS)
                .map(|c| {
                    let questions = &questions;
                    let refs = &refs;
                    scope.spawn(move || {
                        drive_serial(addr, questions, refs, &format!("mixed-score-{c}"))
                    })
                })
                .collect();
            let mut failure = gen_handle
                .join()
                .unwrap_or_else(|_| Some("generate client panicked".into()));
            for h in score_handles {
                failure = failure
                    .or(h.join().unwrap_or_else(|_| Some("score client panicked".into())));
            }
            failure
        });
        let wall = t.elapsed().as_secs_f64();
        let pcts = endpoint_percentiles();
        let stats = gw.shutdown();
        let rps = mixed_total / wall;
        info!(
            "mixed {label}: {wall:.2}s ({rps:.2} req/sec), score p50/p95 \
             {:.0}/{:.0}µs, generate p50/p95 {:.0}/{:.0}µs",
            pcts[0], pcts[1], pcts[2], pcts[3]
        );
        (parity, rps, pcts, stats.drained_clean)
    };
    let (coal_parity, coal_rps, coal_pcts, coal_clean) =
        run_mixed(EngineConfig::pooled(), "coalesced");
    let (iter_parity, iter_rps, iter_pcts, iter_clean) =
        run_mixed(EngineConfig::iteration(), "iteration");
    let mixed_parity = coal_parity.or(iter_parity);
    let mixed_score_p95_improvement = coal_pcts[1] / iter_pcts[1].max(1.0);
    let mixed_throughput_ratio = iter_rps / coal_rps;
    info!(
        "mixed-load headline: score p95 {:.0}µs coalesced -> {:.0}µs iteration \
         ({mixed_score_p95_improvement:.2}x better), throughput ratio \
         {mixed_throughput_ratio:.2}",
        coal_pcts[1], iter_pcts[1]
    );

    // Phase 3: admission control on a deliberately strict gateway.
    let strict_config = GatewayConfig {
        engine: EngineConfig::pooled(),
        max_batch: 1,
        batch_window: Duration::from_millis(0),
        queue_capacity: 1,
        rate_per_sec: 0.5,
        burst: 2.0,
        max_body_bytes: 1024,
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(strict_config, state_for(&study, &params)).expect("strict gateway");
    let addr = gw.addr();

    // Deterministic 429: burst of 2 for one client, third refused.
    let mut rate_limited_429 = 0u64;
    let body = score_request_body(&questions[0], "greedy");
    for _ in 0..2 {
        match client::post_json(addr, "/v1/score", &body, TIMEOUT) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => info!("gateway_load: burst request got {}", r.status),
            Err(e) => info!("gateway_load: burst request failed: {e}"),
        }
    }
    if let Ok(r) = client::post_json(addr, "/v1/score", &body, TIMEOUT) {
        if r.status == 429 && r.header("Retry-After").is_some() {
            rate_limited_429 = 1;
        } else {
            info!("gateway_load: expected 429, got {}: {}", r.status, r.body);
        }
    }

    // Deterministic 413: body over the 1 KiB bound.
    let mut oversized_413 = 0u64;
    let huge = format!(
        "{{\"question\":\"{}\",\"options\":[\"a\",\"b\",\"c\",\"d\"]}}",
        "x".repeat(4096)
    );
    if let Ok(r) = client::post_json(addr, "/v1/score", &huge, TIMEOUT) {
        if r.status == 413 {
            oversized_413 = 1;
        } else {
            info!("gateway_load: expected 413, got {}: {}", r.status, r.body);
        }
    }

    // Overload burst against queue capacity 1: with 8 clients firing at
    // once on one scheduler, at least one push must see a full queue.
    let burst_503 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let questions = &questions;
                scope.spawn(move || {
                    let mut seen = 0u64;
                    for (i, q) in questions.iter().enumerate().take(4) {
                        let body =
                            score_request_body(q, &format!("burst-{c}-{i}"));
                        if let Ok(r) = client::post_json(addr, "/v1/score", &body, TIMEOUT) {
                            if r.status == 503 {
                                // Backpressure must carry a deterministic
                                // retry hint — the router and well-behaved
                                // clients key their backoff off it.
                                assert!(
                                    r.header("Retry-After").is_some(),
                                    "503 without Retry-After: {}",
                                    r.body
                                );
                                seen += 1;
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum::<u64>()
    });
    let strict_stats = gw.shutdown();
    info!(
        "admission: 429={rate_limited_429} 413={oversized_413} burst 503s={burst_503} \
         (strict drain clean={})",
        strict_stats.drained_clean
    );

    // Phase 4: drain mid-burst — every accepted request answered.
    let gw = Gateway::spawn(GatewayConfig::default(), state_for(&study, &params))
        .expect("drain gateway");
    let addr = gw.addr();
    let drain_stats = std::thread::scope(|scope| {
        for c in 0..4 {
            let questions = &questions;
            scope.spawn(move || {
                for (i, q) in questions.iter().enumerate().take(3) {
                    let body = score_request_body(q, &format!("drain-{c}-{i}"));
                    let _ = client::post_json(addr, "/v1/score", &body, TIMEOUT);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(15));
        gw.shutdown()
    });
    info!(
        "drain mid-burst: accepted={} completed={} clean={}",
        drain_stats.accepted, drain_stats.completed, drain_stats.drained_clean
    );

    let parity = serial_parity.or(batched_parity).or(mixed_parity);
    let drain_clean = serial_stats.drained_clean
        && batched_stats.drained_clean
        && coal_clean
        && iter_clean
        && strict_stats.drained_clean
        && drain_stats.drained_clean;

    let mut obj = JsonObject::new();
    obj.str("bench", "gateway_load")
        .str(
            "preset",
            &std::env::args().nth(1).unwrap_or_else(|| "fast".into()),
        )
        .num("seed", study.config.seed as f64)
        .num("n_questions", n as f64)
        .num("clients", CLIENTS as f64)
        .num("serial_wall_secs", serial_wall)
        .num("serial_requests_per_sec", serial_rps)
        .num("batched_wall_secs", batched_wall)
        .num("batched_requests_per_sec", batched_rps)
        .num("batched_total_requests", total)
        .num("speedup", speedup)
        .num("batch_occupancy_mean", occupancy_mean)
        .num(
            "latency_p50_us",
            latency.as_ref().map(|h| h.p50).unwrap_or(f64::NAN),
        )
        .num(
            "latency_p95_us",
            latency.as_ref().map(|h| h.p95).unwrap_or(f64::NAN),
        )
        .num(
            "latency_p99_us",
            latency.as_ref().map(|h| h.p99).unwrap_or(f64::NAN),
        )
        .num("traces_recorded", traces_recorded as f64)
        .num("trace_jsonl_written", written as f64)
        .num("chrome_events", chrome_events as f64)
        .num("phase_sum_ratio_min", ratio_min)
        .num("phase_sum_ratio_max", ratio_max)
        .num("trace_lifecycle_us", trace_lifecycle_us)
        .num("trace_overhead_pct", trace_overhead_pct)
        .raw("phases", &phases_json)
        .num("mixed_total_requests", mixed_total)
        .num("mixed_coalesced_requests_per_sec", coal_rps)
        .num("mixed_iter_requests_per_sec", iter_rps)
        .num("mixed_coalesced_score_p50_us", coal_pcts[0])
        .num("mixed_coalesced_score_p95_us", coal_pcts[1])
        .num("mixed_coalesced_generate_p50_us", coal_pcts[2])
        .num("mixed_coalesced_generate_p95_us", coal_pcts[3])
        .num("mixed_iter_score_p50_us", iter_pcts[0])
        .num("mixed_iter_score_p95_us", iter_pcts[1])
        .num("mixed_iter_generate_p50_us", iter_pcts[2])
        .num("mixed_iter_generate_p95_us", iter_pcts[3])
        .num("mixed_score_p95_improvement", mixed_score_p95_improvement)
        .num("mixed_throughput_ratio", mixed_throughput_ratio)
        .num("rate_limited_429", rate_limited_429 as f64)
        .num("oversized_413", oversized_413 as f64)
        .num("backpressure_503", burst_503 as f64)
        .num("drain_accepted", drain_stats.accepted as f64)
        .num("drain_completed", drain_stats.completed as f64)
        .raw("drain_clean", if drain_clean { "true" } else { "false" })
        .str("parity", if parity.is_none() { "bitwise" } else { "FAILED" });
    let json = obj.finish();
    if let Err(e) = Json::parse(&json) {
        info!("gateway_load: emitted invalid JSON ({e:?})");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_gateway.json", &json) {
        Ok(()) => run.add("bench_json", "BENCH_gateway.json"),
        Err(e) => info!("BENCH_gateway.json not written: {e}"),
    }
    run.add("speedup", &format!("{speedup:.2}"));
    run.add("traces_jsonl", "traces.jsonl");
    run.add("trace_chrome", "trace_chrome.json");
    run.finish();

    // Contract checks last, so the JSON and manifest always land for
    // diagnosis even when a check fails the run.
    let mut failures = Vec::new();
    if let Some(msg) = parity {
        failures.push(format!("parity violated: {msg}"));
    }
    // What prefix-cache reuse under coalescing saves over re-prefilling
    // every prompt, against the batch window's fixed 10 ms — so the ratio
    // shrinks when prefill gets cheaper. The floor was 2.0 until
    // row-blocked prefill (PR 14) took micro on 2 cores from 2.4-4.1x to
    // 1.97-3.3x (20 runs) with both rates up (serial 52 -> 92-150 req/s,
    // batched 126 -> 213-320); it sits just under that.
    if speedup < 1.8 {
        failures.push(format!(
            "batched-over-socket must be >= 1.8x serial, got {speedup:.2}x"
        ));
    }
    // The iteration scheduler's whole point: under mixed load, score tail
    // latency must beat the coalescing scheduler's (which holds scores
    // hostage to batchmate generates), without collapsing throughput.
    // Both are same-machine same-run ratios, so the gate is portable.
    // NaN must fail both gates, hence not `<=` comparisons.
    if mixed_score_p95_improvement.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
        failures.push(format!(
            "iteration scheduler did not improve mixed-load score p95: \
             {mixed_score_p95_improvement:.3}x (coalesced {:.0}µs vs iteration {:.0}µs)",
            coal_pcts[1], iter_pcts[1]
        ));
    }
    if mixed_throughput_ratio.partial_cmp(&0.5) != Some(std::cmp::Ordering::Greater) {
        failures.push(format!(
            "iteration scheduler throughput collapsed under mixed load: \
             {mixed_throughput_ratio:.3}x of coalesced"
        ));
    }
    if rate_limited_429 == 0 {
        failures.push("rate-limit probe never saw a 429".to_string());
    }
    if oversized_413 == 0 {
        failures.push("payload probe never saw a 413".to_string());
    }
    if burst_503 == 0 {
        failures.push("overload burst never saw a 503".to_string());
    }
    if !drain_clean {
        failures.push(format!(
            "drain lost requests: serial={serial_stats:?} batched={batched_stats:?} \
             strict={strict_stats:?} midburst={drain_stats:?}"
        ));
    }
    failures.extend(trace_failures);
    if !failures.is_empty() {
        for f in &failures {
            info!("gateway_load: FAIL: {f}");
        }
        std::process::exit(1);
    }
    info!("gateway_load: OK ({speedup:.2}x over socket, parity bitwise, drain clean)");
}
