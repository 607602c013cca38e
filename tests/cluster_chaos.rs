//! Cluster-mode chaos tests: kill/drain/hang a replica under load and
//! prove the router's zero-loss contract — every accepted request is
//! answered, answers stay bitwise identical to the single-gateway serial
//! path, and accepted == completed holds across surviving replicas.
//!
//! The fault and metrics registries are process-global, so every test
//! takes `GATE` (same pattern as `tests/resilience_chaos.rs`). Probing
//! is driven synchronously via `Cluster::probe_now` with a long prober
//! interval, so membership transitions happen at deterministic points.

use astro_gateway::client;
use astro_gateway::GatewayConfig;
use astro_resilience::fault::{self, FaultPlan};
use astro_router::{
    Cluster, ClusterConfig, ReplicaHealth, ReplicaSpec, Router, RouterConfig,
};
use astro_telemetry::event::write_json_string;
use astro_telemetry::lockcheck;
use astro_telemetry::metrics;
use astro_telemetry::trace::{self, TraceId};
use astromlab::eval::json::Json;
use astromlab::eval::{
    instruct_method_answer, token_method_predict, EvalModel, InstructEvalConfig, TokenEvalConfig,
};
use astromlab::mcq::Mcq;
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::{Study, StudyConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

const TIMEOUT: Duration = Duration::from_secs(30);

struct Ctx {
    study: Study,
    params: Arc<Params>,
    state: astro_gateway::GatewayState,
}

fn setup(seed: u64) -> Ctx {
    setup_with(seed, Tier::S7b, seed + 1)
}

fn setup_with(seed: u64, tier: Tier, weight_seed: u64) -> Ctx {
    let study = Study::prepare(StudyConfig::micro(seed)).expect("prepare");
    let params = Arc::new(Params::init(
        study.model_config(tier),
        &mut Rng::seed_from(weight_seed),
    ));
    let state = astro_gateway::GatewayState {
        params: Arc::clone(&params),
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(study.mcq.exemplars.clone()),
        token_config: TokenEvalConfig::default(),
        instruct_config: InstructEvalConfig::default(),
    };
    Ctx { study, params, state }
}

/// A 2-replica cluster whose prober only runs when `probe_now` is
/// called (60s interval), so tests control membership deterministically.
fn spawn_cluster(ctx: &Ctx, replicas: usize) -> Cluster {
    let mut router = RouterConfig::default();
    router.probe.interval = Duration::from_secs(60);
    let config = ClusterConfig { replicas, gateway: GatewayConfig::default(), router };
    Cluster::spawn(config, ctx.state.clone()).expect("cluster spawn")
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

fn generate_body(q: &Mcq, seed: u64) -> String {
    let mut out = score_body(q);
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

/// Score `q` through the router and assert bitwise parity with the
/// serial in-process reference. Returns the serving replica's name.
fn score_and_check(addr: std::net::SocketAddr, ctx: &Ctx, q: &Mcq, tag: &str) -> String {
    let model = EvalModel { params: &ctx.params, tokenizer: &ctx.state.tokenizer };
    let resp = client::post_json(addr, "/v1/score", &score_body(q), TIMEOUT)
        .unwrap_or_else(|e| panic!("{tag}: score request failed: {e}"));
    assert_eq!(resp.status, 200, "{tag}: {}", resp.body);
    let v = Json::parse(&resp.body).expect("score body parses");
    let got = json_u32s(&v, "score_bits");
    let (_, ref_scores) =
        token_method_predict(&model, q, &ctx.study.mcq.exemplars, &ctx.state.token_config);
    let want: Vec<u32> = ref_scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(got, want, "{tag}: score bits diverged from the serial path");
    assert!(
        resp.header("x-idempotency-key").is_some(),
        "{tag}: replica must echo the idempotency key"
    );
    resp.header("x-astro-replica").unwrap_or("").to_string()
}

#[test]
fn mixed_load_through_router_is_bitwise_identical_to_serial_path() {
    let _gate = gate();
    fault::clear();
    trace::reset();
    let ctx = setup(71);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let model = EvalModel { params: &ctx.params, tokenizer: &ctx.state.tokenizer };
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();
    let spans_before = astro_telemetry::span::snapshot().len();

    let mut replicas_seen = std::collections::BTreeSet::new();
    for (i, q) in questions.iter().take(3).enumerate() {
        replicas_seen.insert(score_and_check(addr, &ctx, q, &format!("q{i}")));

        let seed = 500 + i as u64;
        let resp = client::post_json(addr, "/v1/generate", &generate_body(q, seed), TIMEOUT)
            .expect("generate through router");
        assert_eq!(resp.status, 200, "q{i}: {}", resp.body);
        let v = Json::parse(&resp.body).expect("generate body parses");
        let mut rng = Rng::seed_from(seed);
        let reference = instruct_method_answer(&model, q, &ctx.state.instruct_config, &mut rng);
        assert_eq!(
            v.get("raw").and_then(Json::as_str),
            Some(reference.raw.as_str()),
            "q{i}: raw generation diverged through the router"
        );
    }
    assert!(replicas_seen.iter().all(|r| r.starts_with("replica-")), "{replicas_seen:?}");

    // A body nested far past the JSON parser's bound is a 400 from the
    // router (it parses for the affinity key) — not a stack overflow that
    // takes the router down, which the health check below would miss.
    let deep = "[".repeat(60_000);
    let resp = client::post_json(addr, "/v1/score", &deep, TIMEOUT).expect("deep body");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Router health reflects a full ring and no stuck inflight entries.
    let health = client::get(addr, "/healthz", TIMEOUT).expect("router healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ring_members\":2"), "{}", health.body);
    assert!(health.body.contains("\"inflight\":0"), "{}", health.body);

    // The router honours a client's `traceparent` as a gateway does: the
    // id is adopted and answered, and the replica's record names the
    // router's hop as its parent (its own id is re-minted only because an
    // in-process cluster shares one in-flight table).
    let (sent_id, sent_parent) = (TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c), 0xb7ad_6b71_6920_3331);
    let sent = trace::format_traceparent(sent_id, sent_parent);
    let resp = client::post_json_with_headers(
        addr,
        "/v1/score",
        &score_body(&questions[0]),
        &[("traceparent", &sent)],
        TIMEOUT,
    )
    .expect("traced score");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let answered = resp.header("traceparent").and_then(trace::parse_traceparent);
    let ring = trace::ring_snapshot();
    let hop = ring.iter().find(|r| r.parent_span == Some(sent_parent)).expect("the router's record");
    assert_eq!((hop.id, hop.name.as_str()), (sent_id, "router./v1/score"));
    assert_eq!(answered, Some((sent_id, hop.span)));
    let served: Vec<&str> =
        ring.iter().filter(|r| r.parent_span == Some(hop.span)).map(|r| r.name.as_str()).collect();
    assert_eq!(served, ["gateway./v1/score"], "the replica's record joins on the router's hop id");
    assert_eq!(
        astro_telemetry::span::snapshot().len(),
        spans_before,
        "a request through the router opened a span"
    );

    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
    let (accepted, completed) = stats
        .replicas
        .iter()
        .flatten()
        .fold((0, 0), |(a, c), d| (a + d.accepted, c + d.completed));
    assert_eq!(accepted, completed, "cluster-wide accepted == completed");
    assert_eq!(accepted, 7, "four scores + three generates");
}

/// One raw exchange: write `request` as is, then read the answer to the
/// end of the stream.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> Result<client::HttpResponse, String> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    client::read_response(&mut stream)
}

/// The finished traces of trace `id` as `(name, status)`. A handler
/// closes its trace only after the client has read the answer and hung
/// up, so wait a little for it.
fn finished_traces(id: TraceId) -> Vec<(String, u16)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found: Vec<(String, u16)> = trace::ring_snapshot()
            .into_iter()
            .filter(|r| r.id.0 == id.0)
            .map(|r| (r.name, r.status))
            .collect();
        if !found.is_empty() || Instant::now() > deadline {
            return found;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Both fronts answer a request they cannot read through the one shared
/// reject path, and the answer reaches the client whole: a garbage request
/// line is a 400, a head that stalls past `read_timeout` a 408, and a too
/// large `Content-Length` a 413 — answered before the body is read, so the
/// front half-closes and drains the body first (closing with those bytes
/// unread would make the kernel send an RST that destroys the queued
/// answer). Every answer carries `traceparent` and leaves exactly one
/// finished `{front}.reject` trace with its status.
#[test]
fn both_fronts_answer_unreadable_requests_whole_with_one_reject_trace() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(103);
    let read_timeout = Duration::from_millis(150);
    let gateway = GatewayConfig { read_timeout, ..GatewayConfig::default() };
    let mut router = RouterConfig { read_timeout, ..RouterConfig::default() };
    router.probe.interval = Duration::from_secs(60);
    let body = "x".repeat(2 * gateway.max_body_bytes.max(router.max_body_bytes));
    let config = ClusterConfig { replicas: 1, gateway, router };
    let cluster = Cluster::spawn(config, ctx.state.clone()).expect("cluster spawn");
    let oversized = format!(
        "POST /v1/score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let cases: [(&[u8], u16); 3] = [
        (b"GARBAGE\r\n\r\n", 400),
        // The blank line that ends a head never comes.
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", 408),
        (oversized.as_bytes(), 413),
    ];
    let fronts = [("gateway", cluster.replica_addr(0)), ("router", cluster.router_addr())];
    for (front, addr) in fronts {
        for &(request, status) in &cases {
            for round in 0..8 {
                let tag = format!("{front} {status} round {round}");
                let resp = raw_exchange(addr, request)
                    .unwrap_or_else(|e| panic!("{tag}: the answer was lost: {e}"));
                assert_eq!(resp.status, status, "{tag}: {}", resp.body);
                let (id, _) = resp
                    .header("traceparent")
                    .and_then(trace::parse_traceparent)
                    .unwrap_or_else(|| panic!("{tag}: no traceparent"));
                assert_eq!(finished_traces(id), [(format!("{front}.reject"), status)], "{tag}");
            }
        }
    }
    cluster.shutdown();
}

/// The prober takes each replica's queue depth from that replica's own
/// `/healthz`. The `gateway.queue_depth` gauge is process-global: in an
/// in-process cluster it holds whichever replica pushed last, so reading
/// it would report another replica's depth.
#[test]
fn probe_reports_each_replicas_own_queue_depth() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(107);
    let cluster = spawn_cluster(&ctx, 2);
    metrics::gauge("gateway.queue_depth").set(7);
    cluster.probe_now();
    for (i, status) in cluster.router().replica_status().iter().enumerate() {
        assert_eq!(status.queue_depth, 0, "idle replica {i}: {status:?}");
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
}

#[test]
fn killing_a_replica_mid_load_loses_nothing_and_keeps_parity() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(73);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();
    let threads = 2;
    let per_phase = 3usize;
    let barrier = Barrier::new(threads + 1);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let ctx = &ctx;
            let questions = &questions;
            let barrier = &barrier;
            scope.spawn(move || {
                for i in 0..per_phase {
                    let q = &questions[(t + i) % questions.len()];
                    score_and_check(addr, ctx, q, &format!("pre-kill t{t} i{i}"));
                }
                barrier.wait();
                // The kill happens here, between the phases — but loader
                // threads race it, so some post-phase requests hit the
                // dead replica and must fail over.
                for i in 0..per_phase {
                    let q = &questions[(t + i + 1) % questions.len()];
                    score_and_check(addr, ctx, q, &format!("post-kill t{t} i{i}"));
                }
            });
        }
        barrier.wait();
        cluster.kill_replica(0);
    });

    // The prober converges on the surviving membership.
    cluster.probe_now();
    assert_eq!(cluster.router().ring_members(), vec![1], "dead replica must leave the ring");
    assert_eq!(cluster.router().replica_status()[0].health, ReplicaHealth::Dead);

    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0, "zero-loss contract: {:?}", stats.router);
    assert!(stats.replicas[0].is_none(), "killed replica reports no drain stats");
    let survivor = stats.replicas[1].as_ref().expect("survivor drained");
    assert_eq!(survivor.accepted, survivor.completed, "{survivor:?}");
}

/// Replica child processes, killed and reaped on every exit path — a
/// failed assertion included — so no test run leaves a gateway behind.
struct Children(Vec<std::process::Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The same contract with replicas as real OS processes: two
/// `astro-gateway` children on ephemeral ports behind `Router::spawn`,
/// one SIGKILLed mid-load. Preset + seed make the children's tokenizer
/// and weights bit-identical to this process's serial reference.
#[test]
fn sigkilling_a_replica_process_mid_load_loses_nothing_and_keeps_parity() {
    use std::io::BufRead;
    let _gate = gate();
    fault::clear();
    let seed = 101u64;
    let ctx = setup_with(seed, Tier::S70b, seed);

    let mut children = Children(Vec::new());
    let mut specs = Vec::new();
    for i in 0..2 {
        let name = format!("replica-{i}");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_astro-gateway"))
            .args(["0", &name, "micro", &seed.to_string()])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn astro-gateway");
        let stdout = child.stdout.take().expect("piped stdout");
        children.0.push(child);
        // The bound address is the child's first stdout line, printed
        // once it is listening.
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("read bound address");
        let addr = line.trim().parse().unwrap_or_else(|e| panic!("{name} printed {line:?}: {e}"));
        specs.push(ReplicaSpec { name, addr });
    }
    let mut config = RouterConfig::default();
    config.probe.interval = Duration::from_secs(60);
    let router = Router::spawn(config, specs).expect("router spawn");
    let addr = router.addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    // One pass settles every group's affinity anchor; the process that
    // then owns the first question's key is the victim, and both loaders
    // send that question after the kill, so it must fail over on
    // connection-refused (the prober never runs).
    for (i, q) in questions.iter().enumerate() {
        score_and_check(addr, &ctx, q, &format!("warm q{i}"));
    }
    let victim = score_and_check(addr, &ctx, &questions[0], "pick-victim");
    let victim: usize = victim.strip_prefix("replica-").and_then(|n| n.parse().ok()).expect("name");
    let threads = 2;
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (ctx, questions, barrier) = (&ctx, &questions, &barrier);
            scope.spawn(move || {
                for (i, q) in questions.iter().enumerate().rev() {
                    if i + 1 == questions.len() / 2 {
                        barrier.wait();
                    }
                    score_and_check(addr, ctx, q, &format!("procs t{t} q{i}"));
                }
            });
        }
        barrier.wait();
        children.0[victim].kill().expect("SIGKILL");
        children.0[victim].wait().expect("reap");
    });

    let stats = router.shutdown();
    assert_eq!(stats.lost, 0, "zero-loss contract: {stats:?}");
    assert!(stats.failovers >= 1, "nothing was routed to the dead process: {stats:?}");
}

#[test]
fn injected_crash_fails_over_and_revived_replica_rejoins() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(79);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    // The first forward trips `replica.crash`: the crash hook aborts the
    // target replica, the connect is refused, and the request fails over
    // to the survivor.
    fault::install(FaultPlan::single("replica.crash", 1));
    score_and_check(addr, &ctx, &questions[0], "crash-failover");
    assert!(fault::fired("replica.crash"), "the crash site must have fired");
    fault::clear();
    let stats = cluster.router().stats();
    assert!(stats.failovers >= 1, "{stats:?}");
    assert_eq!(stats.lost, 0);

    // Exactly one replica is now dead; find it, restart it, and watch
    // hysteresis readmit it after two clean probe rounds.
    cluster.probe_now();
    let members = cluster.router().ring_members();
    assert_eq!(members.len(), 1, "one replica should have been crashed: {members:?}");
    let dead = 1 - members[0] as usize;
    cluster.restart_replica(dead).expect("restart");
    cluster.probe_now();
    assert_eq!(
        cluster.router().ring_members().len(),
        1,
        "one clean probe is not enough to revive (flap protection)"
    );
    cluster.probe_now();
    assert_eq!(cluster.router().ring_members().len(), 2, "revived replica rejoins the ring");

    score_and_check(addr, &ctx, &questions[1], "after-revival");
    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
}

#[test]
fn kills_and_restarts_touch_a_gateway_with_no_router_lock_held() {
    // Aborting or shutting down a gateway closes its queue
    // (`gateway.queue`, rank 6) and joins its threads; doing that under
    // `router.cluster` (9) or `router.crash_hook` (8) is a lock-order
    // violation that debug-build lockcheck turns into a panic.
    let _gate = gate();
    fault::clear();
    let ctx = setup(80);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    // The router invokes whatever hook is installed with nothing held.
    let held_in_hook = Arc::new(AtomicUsize::new(usize::MAX));
    let seen = Arc::clone(&held_in_hook);
    cluster.router().set_crash_hook(Arc::new(move |_id| {
        seen.store(lockcheck::held_count(), Ordering::SeqCst);
    }));
    fault::install(FaultPlan::single("replica.crash", 1));
    score_and_check(addr, &ctx, &questions[0], "probe-hook");
    assert!(fault::fired("replica.crash"));
    fault::clear();
    assert_eq!(held_in_hook.load(Ordering::SeqCst), 0, "crash hook ran under a ranked lock");
    drop(cluster.shutdown());

    // The cluster's own hook, `kill_replica`, and `restart_replica` over
    // both a dead and a live slot.
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    fault::install(FaultPlan::single("replica.crash", 1));
    score_and_check(addr, &ctx, &questions[1], "crash-hook");
    fault::clear();
    cluster.kill_replica(0);
    cluster.kill_replica(1);
    cluster.kill_replica(1);
    cluster.restart_replica(0).expect("restart a dead replica");
    cluster.restart_replica(1).expect("restart a dead replica");
    cluster.restart_replica(1).expect("restart a live replica");
    cluster.probe_now();
    cluster.probe_now();
    score_and_check(addr, &ctx, &questions[2], "after-restarts");
    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
    assert_eq!(stats.replicas.iter().flatten().count(), 2, "both replicas were live at shutdown");
}

#[test]
fn lost_response_redispatches_exactly_once_under_same_key() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(83);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    // `router.forward_reset`: the replica executes the request but the
    // response is lost. The router must re-dispatch exactly once under
    // the same idempotency key and still answer bitwise-correctly.
    fault::install(FaultPlan::single("router.forward_reset", 1));
    score_and_check(addr, &ctx, &questions[0], "forward-reset");
    fault::clear();
    let stats = cluster.router().stats();
    assert_eq!(stats.redispatches, 1, "{stats:?}");
    assert_eq!(stats.lost, 0);

    // `replica.hang`: the forward never completes; same re-dispatch
    // path, no duplicate execution observed by the client.
    fault::install(FaultPlan::single("replica.hang", 1));
    score_and_check(addr, &ctx, &questions[1], "replica-hang");
    fault::clear();
    let stats = cluster.router().stats();
    assert_eq!(stats.redispatches, 2, "{stats:?}");
    assert_eq!(stats.lost, 0);
    // A maybe-accepted failure leaves membership to probe hysteresis.
    assert_eq!(cluster.router().ring_members(), vec![0, 1]);

    let stats = cluster.shutdown();
    // Both replicas drained cleanly: accepted == completed everywhere
    // even though one response was dropped on the floor in transit.
    for (i, d) in stats.replicas.iter().enumerate() {
        let d = d.as_ref().expect("replica drained");
        assert_eq!(d.accepted, d.completed, "replica {i}: {d:?}");
    }
}

#[test]
fn drain_rebalances_routing_without_losing_queued_work() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(89);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    score_and_check(addr, &ctx, &questions[0], "pre-drain");

    // SIGTERM stand-in: replica 0 refuses new work but keeps answering
    // health probes and finishes what it accepted.
    cluster.drain_replica(0, TIMEOUT).expect("drain");

    // Direct request to the draining replica: deterministic 503 with a
    // Retry-After hint.
    let direct = client::post_json(
        cluster.replica_addr(0),
        "/v1/score",
        &score_body(&questions[0]),
        TIMEOUT,
    )
    .expect("direct request");
    assert_eq!(direct.status, 503, "{}", direct.body);
    assert_eq!(direct.header("Retry-After"), Some("1"), "draining 503 must carry Retry-After");

    // One probe round moves it out of the ring; all traffic lands on
    // the survivor with minimal key movement (consistent hashing).
    cluster.probe_now();
    assert_eq!(cluster.router().ring_members(), vec![1]);
    assert_eq!(cluster.router().replica_status()[0].health, ReplicaHealth::Draining);
    for (i, q) in questions.iter().take(3).enumerate() {
        let replica = score_and_check(addr, &ctx, q, &format!("post-drain q{i}"));
        assert_eq!(replica, "replica-1", "drained replica must receive no new work");
    }

    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
    let drained = stats.replicas[0].as_ref().expect("drained replica shut down");
    assert_eq!(drained.accepted, drained.completed, "{drained:?}");
}

#[test]
fn probe_timeout_degrades_without_evicting_then_recovers() {
    let _gate = gate();
    fault::clear();
    let ctx = setup(97);
    let cluster = spawn_cluster(&ctx, 2);
    let addr = cluster.router_addr();
    let questions: Vec<Mcq> = ctx.study.eval_questions().into_iter().cloned().collect();

    // One probe round times out for replica 0: hysteresis marks it
    // Degraded but keeps it routable — a single blip must not move every
    // key and cold-start the survivor's cache.
    fault::install(FaultPlan::single("router.probe_timeout", 1));
    cluster.probe_now();
    fault::clear();
    assert_eq!(cluster.router().replica_status()[0].health, ReplicaHealth::Degraded);
    assert_eq!(cluster.router().ring_members(), vec![0, 1], "degraded stays in the ring");
    score_and_check(addr, &ctx, &questions[0], "degraded-serving");

    // Two clean rounds restore Healthy.
    cluster.probe_now();
    cluster.probe_now();
    assert_eq!(cluster.router().replica_status()[0].health, ReplicaHealth::Healthy);

    let stats = cluster.shutdown();
    assert_eq!(stats.router.lost, 0);
}
