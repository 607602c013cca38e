//! Cluster-mode load bench: N gateway replicas behind the
//! prefix-affinity router, on one core.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin cluster_load -- [micro|smoke|fast|full] [seed]
//! cargo run --release -p astro-bench --bin cluster_load -- --serve-replica <port> <preset> <seed> <name>
//! ```
//!
//! ## What "scaling" means on a single core
//!
//! The machine has one core, so replicas cannot compute in parallel —
//! throughput gains must come from *cache locality*, which is exactly
//! what the router's prefix-affinity ring provides. The workload is G
//! question groups, each sharing a long prompt stem, accessed round-
//! robin (g0 q_i, g1 q_i, … g0 q_{i+1}, …). Every replica's prefix
//! cache is budgeted to hold G-1 group snapshots:
//!
//! * 1 replica sees all G groups; cyclic access over a working set one
//!   larger than the LRU budget evicts every snapshot just before its
//!   next use — steady-state misses, every request pays the full stem
//!   prefill;
//! * N ≥ 2 replicas each own their hash share of the groups (almost
//!   surely ≤ G-1 of them), so every group's stem snapshot stays
//!   resident — steady-state hits, each request pays only its short
//!   tail.
//!
//! The headline metrics are the steady-state throughput ratios
//! `scaling_2x`/`scaling_4x` (gated here and in `bench_regression`),
//! with `tokens_encoded_*` reported as mechanism evidence: the miss →
//! hit transition shows up as an order-of-magnitude drop in encoded
//! prompt tokens. 2 → 4 replicas is expectedly flat on one core — both
//! configurations are fully resident; the gain is cache affinity, not
//! parallelism.
//!
//! ## Chaos phase
//!
//! With 2 replicas under two-threaded load, one replica is hard-killed
//! mid-run. Every request must still answer 200 with bitwise parity to
//! the in-process serial path, the router must report zero lost
//! requests, and the surviving replica must complete everything it
//! accepted — the cluster-wide zero-loss contract under real failover.
//!
//! ## Child-process phase
//!
//! The same contract with real OS processes: replicas are spawned as
//! `cluster_load --serve-replica` children over localhost TCP, one is
//! SIGKILLed mid-load, and the router fails the traffic over with zero
//! loss and bitwise parity intact.
//!
//! Results land in `BENCH_cluster.json`; contract checks run last and
//! exit non-zero on violation.

use astro_bench::{instrumented_run, JsonObject};
use astro_gateway::{client, Gateway, GatewayConfig, GatewayState};
use astro_router::{Cluster, ClusterConfig, ReplicaSpec, Router, RouterConfig};
use astro_telemetry::event::write_json_string;
use astro_telemetry::{info, metrics};
use astromlab::eval::json::Json;
use astromlab::eval::{token_method_predict, EvalModel, InstructEvalConfig, TokenEvalConfig};
use astromlab::mcq::prompts::token_method_prompt;
use astromlab::mcq::Mcq;
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::serve::EngineConfig;
use astromlab::{Study, StudyConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);
/// Question groups, each with a shared prompt stem.
const GROUPS: usize = 8;
/// Unmeasured warmup rounds (anchor learning + first snapshots).
const WARM_ROUNDS: usize = 2;
/// Measured steady-state rounds.
const MEASURE_ROUNDS: usize = 6;
/// Per-replica cache budget in group snapshots: one less than the
/// working set, so a lone replica thrashes under LRU + cyclic access
/// while any hash share of the groups stays fully resident.
const RESIDENT_SESSIONS: usize = GROUPS - 1;
/// Target shared-stem prompt length in tokens (model budget is
/// `max_seq = 288`; leave room for the per-question tail and options).
const STEM_TOKEN_TARGET: usize = 230;

fn token_config() -> TokenEvalConfig {
    // Zero-shot: the group stem should dominate the prompt, not a
    // few-shot preamble every group would share.
    TokenEvalConfig { shots: 0, ..TokenEvalConfig::default() }
}

fn state_for(study: &Study, params: &Arc<Params>) -> GatewayState {
    GatewayState {
        params: Arc::clone(params),
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(Vec::new()),
        token_config: token_config(),
        instruct_config: InstructEvalConfig::default(),
    }
}

fn replica_gateway_config(study: &Study) -> GatewayConfig {
    let model_cfg = study.model_config(Tier::S70b);
    let engine = EngineConfig {
        max_cache_bytes: RESIDENT_SESSIONS * model_cfg.session_bytes(),
        ..EngineConfig::iteration()
    };
    GatewayConfig {
        engine,
        // One sequential client: a batching window would only add dead
        // time per request; the default per-client rate limit would
        // throttle the loop.
        batch_window: Duration::from_millis(0),
        rate_per_sec: 100_000.0,
        burst: 100_000.0,
        deadline: Duration::from_secs(60),
        ..GatewayConfig::default()
    }
}

/// Build G groups of questions sharing a long per-group stem. Stems are
/// assembled from the study's own question text (guaranteed to tokenize
/// compactly), sized to [`STEM_TOKEN_TARGET`] prompt tokens, with a
/// short per-question variant suffix — so a prefix-cache hit encodes
/// only the tail while a miss pays the whole stem.
fn synth_groups(study: &Study) -> Vec<Vec<Mcq>> {
    let material: Vec<&Mcq> = study.eval_questions();
    assert!(!material.is_empty(), "study has no eval questions");
    let options = material[0].options.clone();
    let per_group = WARM_ROUNDS + MEASURE_ROUNDS;
    let mut groups = Vec::with_capacity(GROUPS);
    for g in 0..GROUPS {
        let mut stem = format!("Survey section {}.", g + 1);
        let mut i = 0usize;
        loop {
            let probe = Mcq {
                question: format!("{stem} Item 1."),
                options: options.clone(),
                ..material[0].clone()
            };
            let prompt = token_method_prompt(&probe, &[], 0);
            if study.tokenizer.encode(&prompt).len() >= STEM_TOKEN_TARGET {
                break;
            }
            // Offset the source material per group so stems diverge in
            // their first sentence, not just the section header.
            let src = &material[(g * 3 + i) % material.len()].question;
            stem.push(' ');
            stem.push_str(src);
            i += 1;
        }
        let questions: Vec<Mcq> = (0..per_group)
            .map(|q| Mcq {
                article: g + 1, // group 0 is the router's "ungrouped" marker
                question: format!("{stem} Item {}.", q + 1),
                options: options.clone(),
                ..material[0].clone()
            })
            .collect();
        groups.push(questions);
    }
    groups
}

fn score_body(q: &Mcq) -> String {
    let mut out = String::from("{\"question\":");
    write_json_string(&mut out, &q.question);
    out.push_str(",\"options\":[");
    for (i, opt) in q.options.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, opt);
    }
    out.push_str(&format!("],\"group\":{}}}", q.article));
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

struct PhaseResult {
    requests: usize,
    wall_secs: f64,
    rps: f64,
    tokens_encoded: u64,
    parity_failures: usize,
}

fn counter_value(name: &str) -> u64 {
    metrics::snapshot()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Drive all groups round-robin through `addr` with one sequential
/// client: warmup rounds first (anchor learning + first snapshots),
/// then the measured steady-state rounds with per-response parity
/// checks against the serial reference.
fn drive_phase(
    addr: SocketAddr,
    groups: &[Vec<Mcq>],
    refs: &[Vec<Vec<u32>>],
    tag: &str,
) -> PhaseResult {
    for q in 0..WARM_ROUNDS {
        for (g, group) in groups.iter().enumerate() {
            let resp = client::post_json(addr, "/v1/score", &score_body(&group[q]), TIMEOUT)
                .unwrap_or_else(|e| panic!("{tag}: warm g{g} q{q}: {e}"));
            assert_eq!(resp.status, 200, "{tag}: warm g{g} q{q}: {}", resp.body);
        }
    }
    let encoded_before = counter_value("serve.tokens.encoded");
    let t = Instant::now();
    let mut requests = 0usize;
    let mut parity_failures = 0usize;
    for q in WARM_ROUNDS..WARM_ROUNDS + MEASURE_ROUNDS {
        for (g, group) in groups.iter().enumerate() {
            let resp = client::post_json(addr, "/v1/score", &score_body(&group[q]), TIMEOUT)
                .unwrap_or_else(|e| panic!("{tag}: g{g} q{q}: {e}"));
            assert_eq!(resp.status, 200, "{tag}: g{g} q{q}: {}", resp.body);
            match response_bits(&resp.body) {
                Ok(bits) if bits == refs[g][q] => {}
                Ok(_) | Err(_) => parity_failures += 1,
            }
            requests += 1;
        }
    }
    let wall_secs = t.elapsed().as_secs_f64();
    let tokens_encoded = counter_value("serve.tokens.encoded") - encoded_before;
    let rps = requests as f64 / wall_secs;
    info!(
        "{tag}: {requests} requests in {wall_secs:.2}s ({rps:.2} req/s, \
         {tokens_encoded} prompt tokens encoded, {parity_failures} parity failures)"
    );
    PhaseResult { requests, wall_secs, rps, tokens_encoded, parity_failures }
}

fn spawn_cluster(study: &Study, state: &GatewayState, replicas: usize) -> Cluster {
    let mut router = RouterConfig::default();
    router.probe.interval = Duration::from_millis(50);
    let config = ClusterConfig { replicas, gateway: replica_gateway_config(study), router };
    Cluster::spawn(config, state.clone()).expect("cluster spawn")
}

/// Two-threaded load against a 2-replica cluster with one replica
/// hard-killed mid-run. Returns `(requests, parity_failures, lost,
/// survivors_clean)`.
fn chaos_phase(
    study: &Study,
    state: &GatewayState,
    groups: &[Vec<Mcq>],
    refs: &[Vec<Vec<u32>>],
) -> (usize, usize, u64, bool) {
    let cluster = spawn_cluster(study, state, 2);
    let addr = cluster.router_addr();
    let threads = 2usize;
    let barrier = Barrier::new(threads + 1);
    let parity_failures = AtomicU64::new(0);
    let requests = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let parity_failures = &parity_failures;
            let requests = &requests;
            scope.spawn(move || {
                let rounds = WARM_ROUNDS + MEASURE_ROUNDS;
                for q in 0..rounds {
                    if q == rounds / 2 {
                        barrier.wait();
                    }
                    for g in (t..GROUPS).step_by(threads) {
                        let resp = client::post_json(
                            addr,
                            "/v1/score",
                            &score_body(&groups[g][q]),
                            TIMEOUT,
                        )
                        .unwrap_or_else(|e| panic!("chaos t{t} g{g} q{q}: {e}"));
                        assert_eq!(resp.status, 200, "chaos t{t} g{g} q{q}: {}", resp.body);
                        requests.fetch_add(1, Ordering::SeqCst);
                        match response_bits(&resp.body) {
                            Ok(bits) if bits == refs[g][q] => {}
                            Ok(_) | Err(_) => {
                                parity_failures.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                }
            });
        }
        // Loader threads race the kill: some requests hit the dead
        // replica and must fail over on connection-refused.
        barrier.wait();
        cluster.kill_replica(0);
        info!("chaos: replica 0 hard-killed mid-load");
    });

    let stats = cluster.shutdown();
    let survivors_clean =
        stats.replicas.iter().flatten().all(|d| d.accepted == d.completed);
    info!(
        "chaos: {} requests, {} failovers, {} redispatches, {} lost, survivors clean: {}",
        requests.load(Ordering::SeqCst),
        stats.router.failovers,
        stats.router.redispatches,
        stats.router.lost,
        survivors_clean
    );
    (
        requests.load(Ordering::SeqCst) as usize,
        parity_failures.load(Ordering::SeqCst) as usize,
        stats.router.lost,
        survivors_clean,
    )
}

/// Child-process phase: replicas as real OS processes, one SIGKILLed
/// mid-load. Returns `(requests, parity_failures, lost)` or an error
/// string when a child cannot be spawned or fails.
fn child_process_phase(
    preset: &str,
    seed: u64,
    groups: &[Vec<Mcq>],
    refs: &[Vec<Vec<u32>>],
) -> Result<(usize, usize, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let base_port = 39200u16 + (seed % 100) as u16 * 2;
    let mut children = Vec::new();
    let mut specs = Vec::new();
    for i in 0..2u16 {
        let port = base_port + i;
        let child = std::process::Command::new(&exe)
            .args([
                "--serve-replica",
                &port.to_string(),
                preset,
                &seed.to_string(),
                &format!("replica-{i}"),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn child {i}: {e}"))?;
        children.push(child);
        specs.push(ReplicaSpec {
            name: format!("replica-{i}"),
            addr: format!("127.0.0.1:{port}")
                .parse()
                .map_err(|e| format!("addr: {e}"))?,
        });
    }
    // Wait for both children to answer health probes (each re-prepares
    // the study from the same preset + seed, which takes a moment).
    let deadline = Instant::now() + Duration::from_secs(120);
    for spec in &specs {
        loop {
            if client::get(spec.addr, "/healthz", Duration::from_millis(500))
                .map(|r| r.status == 200)
                .unwrap_or(false)
            {
                break;
            }
            if Instant::now() > deadline {
                for c in &mut children {
                    let _ = c.kill();
                }
                return Err(format!("child {} never became healthy", spec.name));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    let mut router_cfg = RouterConfig::default();
    router_cfg.probe.interval = Duration::from_millis(50);
    let router = Router::spawn(router_cfg, specs).map_err(|e| format!("{e:?}"))?;
    let addr = router.addr();

    let mut requests = 0usize;
    let mut parity_failures = 0usize;
    let rounds = WARM_ROUNDS + MEASURE_ROUNDS;
    for q in 0..rounds {
        if q == rounds / 2 {
            // Real SIGKILL mid-load: the process is gone; the router
            // fails its traffic over on connection-refused.
            let _ = children[0].kill();
            let _ = children[0].wait();
            info!("procs: replica-0 SIGKILLed mid-load");
        }
        for (g, group) in groups.iter().enumerate() {
            let resp = client::post_json(addr, "/v1/score", &score_body(&group[q]), TIMEOUT)
                .map_err(|e| format!("procs g{g} q{q}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("procs g{g} q{q}: status {} {}", resp.status, resp.body));
            }
            requests += 1;
            match response_bits(&resp.body) {
                Ok(bits) if bits == refs[g][q] => {}
                Ok(_) | Err(_) => parity_failures += 1,
            }
        }
    }

    let stats = router.shutdown();
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    info!(
        "procs: {requests} requests, {} failovers, {} redispatches, {} lost",
        stats.failovers, stats.redispatches, stats.lost
    );
    Ok((requests, parity_failures, stats.lost))
}

fn study_for(preset: &str, seed: u64) -> StudyConfig {
    match preset {
        "micro" => StudyConfig::micro(seed),
        "smoke" => StudyConfig::smoke(seed),
        "fast" => StudyConfig::fast(seed),
        _ => StudyConfig::full(seed),
    }
}

/// `--serve-replica <port> <preset> <seed> <name>`: run one gateway
/// replica on a fixed port until killed — the child half of the
/// process phase. Preset + seed match the parent so tokenizer and
/// params are bit-identical across processes.
fn serve_replica(port: u16, preset: &str, seed: u64, name: &str) -> ! {
    let study = Study::prepare(study_for(preset, seed)).expect("child study prepare");
    let params = Arc::new(Params::init(
        study.model_config(Tier::S70b),
        &mut Rng::seed_from(seed + 7),
    ));
    let mut config = replica_gateway_config(&study);
    config.bind = format!("127.0.0.1:{port}");
    config.replica_name = name.to_string();
    let state = state_for(&study, &params);
    let _gw = Gateway::spawn(config, state).expect("child gateway");
    info!("serve-replica {name}: listening on 127.0.0.1:{port}");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--serve-replica") {
        let port: u16 = args.get(i + 1).and_then(|p| p.parse().ok()).unwrap_or(8090);
        let preset = args.get(i + 2).cloned().unwrap_or_else(|| "micro".to_string());
        let seed: u64 = args.get(i + 3).and_then(|s| s.parse().ok()).unwrap_or(17);
        let name = args.get(i + 4).cloned().unwrap_or_else(|| "replica-0".to_string());
        serve_replica(port, &preset, seed, &name);
    }

    let (config, mut run) = instrumented_run("cluster_load");
    let preset = std::env::args().nth(1).unwrap_or_else(|| "fast".into());
    let seed = config.seed;
    // The serving path is independent of training state, so the study is
    // only world/tokenizer/question prep; the S70b tier keeps per-token
    // compute high enough that prefill dominates HTTP overhead.
    let study = Study::prepare(config).expect("prepare");
    let params = Arc::new(Params::init(
        study.model_config(Tier::S70b),
        &mut Rng::seed_from(seed + 7),
    ));
    let state = state_for(&study, &params);
    let model = EvalModel { params: &params, tokenizer: &study.tokenizer };

    let groups = synth_groups(&study);
    let prompt_tokens =
        study.tokenizer.encode(&token_method_prompt(&groups[0][0], &[], 0)).len();
    info!(
        "cluster_load: {GROUPS} groups x {} questions, ~{prompt_tokens} prompt tokens, \
         cache budget {RESIDENT_SESSIONS} sessions/replica",
        WARM_ROUNDS + MEASURE_ROUNDS
    );

    // In-process serial reference: the bitwise ground truth every phase
    // checks against.
    let cfg = token_config();
    let refs: Vec<Vec<Vec<u32>>> = groups
        .iter()
        .map(|qs| {
            qs.iter()
                .map(|q| {
                    let (_pred, scores) = token_method_predict(&model, q, &[], &cfg);
                    scores.iter().map(|s| s.to_bits()).collect()
                })
                .collect()
        })
        .collect();

    // Scaling phases: identical round-robin load at 1, 2, 4 replicas.
    let mut phases: Vec<(usize, PhaseResult)> = Vec::new();
    for replicas in [1usize, 2, 4] {
        metrics::reset();
        let cluster = spawn_cluster(&study, &state, replicas);
        let result =
            drive_phase(cluster.router_addr(), &groups, &refs, &format!("replicas-{replicas}"));
        let stats = cluster.shutdown();
        assert_eq!(stats.router.lost, 0, "no faults injected, nothing may be lost");
        phases.push((replicas, result));
    }
    let rps_of = |n: usize| {
        phases.iter().find(|(r, _)| *r == n).map(|(_, p)| p.rps).unwrap_or(f64::NAN)
    };
    let scaling_2x = rps_of(2) / rps_of(1);
    let scaling_4x = rps_of(4) / rps_of(1);
    info!("scaling: 2 replicas {scaling_2x:.2}x, 4 replicas {scaling_4x:.2}x vs 1 replica");

    // Chaos phase: kill a replica mid-load, prove zero loss + parity.
    metrics::reset();
    let (chaos_requests, chaos_parity_failures, chaos_lost, chaos_survivors_clean) =
        chaos_phase(&study, &state, &groups, &refs);

    // Child-process phase: the same contract with real OS processes.
    let procs = child_process_phase(&preset, seed, &groups, &refs);
    let (procs_requests, procs_parity_failures, procs_lost, procs_ok) = match &procs {
        Ok((r, p, l)) => (*r, *p, *l, true),
        Err(e) => {
            info!("procs phase failed: {e}");
            (0, 0, 0, false)
        }
    };

    let scaling_parity_failures: usize = phases.iter().map(|(_, p)| p.parity_failures).sum();
    let parity_ok = scaling_parity_failures == 0
        && chaos_parity_failures == 0
        && procs_parity_failures == 0;

    let mut obj = JsonObject::new();
    obj.str("bench", "cluster_load")
        .str("preset", &preset)
        .num("seed", seed as f64)
        .num("groups", GROUPS as f64)
        .num("prompt_tokens", prompt_tokens as f64)
        .num("resident_sessions", RESIDENT_SESSIONS as f64);
    for (replicas, p) in &phases {
        obj.num(&format!("requests_{replicas}"), p.requests as f64)
            .num(&format!("rps_{replicas}"), p.rps)
            .num(&format!("wall_secs_{replicas}"), p.wall_secs)
            .num(&format!("tokens_encoded_{replicas}"), p.tokens_encoded as f64);
    }
    obj.num("scaling_2x", scaling_2x)
        .num("scaling_4x", scaling_4x)
        .num("chaos_requests", chaos_requests as f64)
        .num("chaos_lost", chaos_lost as f64)
        .raw("chaos_survivors_clean", if chaos_survivors_clean { "true" } else { "false" })
        .num("procs_requests", procs_requests as f64)
        .num("procs_lost", procs_lost as f64)
        .raw("procs_ok", if procs_ok { "true" } else { "false" })
        .str("parity", if parity_ok { "bitwise" } else { "FAILED" });
    let json = obj.finish();
    if let Err(e) = Json::parse(&json) {
        info!("cluster_load: emitted invalid JSON ({e:?})");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_cluster.json", &json) {
        Ok(()) => run.add("bench_json", "BENCH_cluster.json"),
        Err(e) => info!("BENCH_cluster.json not written: {e}"),
    }
    run.add("scaling_2x", &format!("{scaling_2x:.2}"));
    run.add("scaling_4x", &format!("{scaling_4x:.2}"));
    run.finish();

    // Contract checks last, so the JSON and manifest always land for
    // diagnosis even when a check fails the run.
    let mut violations = Vec::new();
    if !parity_ok {
        violations.push(format!(
            "parity: {scaling_parity_failures} scaling + {chaos_parity_failures} chaos + \
             {procs_parity_failures} procs responses diverged from the serial path"
        ));
    }
    // NaN must fail the gates too, hence partial_cmp rather than `>=`.
    // The ratios are what a resident stem saves over re-prefilling it, so
    // they shrink when prefill gets cheaper: 4x was floored at 3.0 until
    // row-blocked prefill (PR 14) cut a miss to a third. The floor sits
    // just under what 15 micro runs on 2 cores measured since (2.55-3.12,
    // every absolute rate ~3x up).
    use std::cmp::Ordering as Ord_;
    if !matches!(scaling_2x.partial_cmp(&1.7), Some(Ord_::Greater | Ord_::Equal)) {
        violations.push(format!("scaling_2x {scaling_2x:.2} < 1.7"));
    }
    if !matches!(scaling_4x.partial_cmp(&2.5), Some(Ord_::Greater | Ord_::Equal)) {
        violations.push(format!("scaling_4x {scaling_4x:.2} < 2.5"));
    }
    if chaos_lost != 0 {
        violations.push(format!("chaos_lost {chaos_lost} != 0"));
    }
    if !chaos_survivors_clean {
        violations.push("chaos: a surviving replica completed fewer than it accepted".into());
    }
    match &procs {
        Ok((_, _, lost)) if *lost != 0 => {
            violations.push(format!("procs_lost {lost} != 0"));
        }
        Ok(_) => {}
        Err(e) => violations.push(format!("procs phase failed: {e}")),
    }
    if violations.is_empty() {
        info!("cluster_load: all contracts held");
    } else {
        for v in &violations {
            info!("cluster_load: CONTRACT VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
