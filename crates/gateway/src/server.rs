//! The gateway server: acceptor, connection handlers, admission control,
//! and graceful drain.
//!
//! Lifecycle: [`Gateway::spawn`] validates every config layer, binds the
//! socket, and starts the long-lived threads — the acceptor (one handler
//! thread per connection) and one serving loop
//! ([`crate::scheduler::run_iter_scheduler`]) per core, at most one per
//! `max_batch` slot, each owning its share of the slots and all popping
//! the one queue over the one engine and prefix cache. Admission
//! happens in the handler *before* anything reaches the queue: drain
//! state (503), body bounds (413), JSON schema (400), per-client rate
//! limit (429 + `Retry-After`), bounded-queue backpressure (503).
//! [`Gateway::shutdown`] stops accepting, waits for in-flight
//! connections, then closes the queue so every loop flushes the accepted
//! requests it holds — zero loss on a clean drain.
//!
//! A handler builds the engine job before the queue push and the response
//! after a loop hands the engine's result back (token decode, extraction
//! cascade, argmax, JSON), so the threads that step batches do no
//! per-request text work.

use crate::api;
use crate::config::GatewayConfig;
use crate::http::{self, HttpError, Request};
use crate::limiter::{Admission, RateLimiter};
use crate::queue::{BoundedQueue, PushError};
use crate::scheduler::{run_iter_scheduler, Pending, Reply, Work};
use astro_eval::{
    extract_answer, generate_job, score_job, EvalModel, InstructEvalConfig, TokenEvalConfig,
};
use astro_mcq::Mcq;
use astro_model::Params;
use astro_prng::Rng;
use astro_resilience::fault;
use astro_serve::{EngineConfig, EvalEngine, SeqOutcome};
use astro_telemetry::trace::{self, TraceId};
use astro_telemetry::{metrics, span};
use astro_tokenizer::Tokenizer;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Everything the endpoints need to build jobs: the model, the shared
/// tokenizer, few-shot exemplars, and the two method configs. The
/// `engine` fields inside the method configs are ignored — the gateway's
/// scheduler owns batching.
#[derive(Clone)]
pub struct GatewayState {
    /// Model weights served by both endpoints.
    pub params: Arc<Params>,
    /// Inert placeholder, always `None` and read by nothing: it only keeps
    /// the `draft: None` literal at `bench/src/serving.rs:167` compiling
    /// until a `[benchmark]` PR may drop that line, and this field with it.
    pub draft: Option<std::convert::Infallible>,
    /// Tokenizer shared with the training run that produced `params`.
    pub tokenizer: Arc<Tokenizer>,
    /// Few-shot exemplars for the token method prompt.
    pub exemplars: Arc<Vec<Mcq>>,
    /// Token-method settings (`/v1/score`).
    pub token_config: TokenEvalConfig,
    /// Full-instruct settings (`/v1/generate`).
    pub instruct_config: InstructEvalConfig,
}

/// Why the gateway could not start.
#[derive(Clone, Debug)]
pub enum GatewayError {
    /// A config layer failed validation (gateway, engine, or method).
    Config(String),
    /// The listener could not bind the requested address.
    Bind(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Config(m) => write!(f, "invalid config: {m}"),
            GatewayError::Bind(m) => write!(f, "bind failed: {m}"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// What a graceful shutdown observed.
#[derive(Clone, Copy, Debug)]
pub struct DrainStats {
    /// Requests admitted past every admission check.
    pub accepted: u64,
    /// Admitted requests that received a scheduler reply.
    pub completed: u64,
    /// True when every connection finished within `drain_timeout` and
    /// every accepted request was answered.
    pub drained_clean: bool,
}

struct Shared {
    config: GatewayConfig,
    state: GatewayState,
    queue: Arc<BoundedQueue<Pending>>,
    limiter: RateLimiter,
    draining: AtomicBool,
    /// Set only by `shutdown`/`abort`/`Drop`: the acceptor exits. Kept
    /// separate from `draining` so `/admin/drain` can refuse new work
    /// while `/healthz` keeps answering probes (the router needs to see
    /// `"draining"` to rebalance before the process goes away).
    stopping: AtomicBool,
    open_conns: AtomicUsize,
    accepted: AtomicU64,
    completed: AtomicU64,
}

/// A running gateway. Dropping it without calling [`Gateway::shutdown`]
/// aborts: the listener stops, the queue closes, buffered requests are
/// still flushed, but in-flight connections are not waited for.
pub struct Gateway {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    schedulers: Vec<std::thread::JoinHandle<()>>,
}

impl Gateway {
    /// Validate every config layer, bind, and start serving.
    pub fn spawn(config: GatewayConfig, state: GatewayState) -> Result<Gateway, GatewayError> {
        config.validate().map_err(GatewayError::Config)?;
        state
            .token_config
            .validate()
            .map_err(|e| GatewayError::Config(format!("token_config: {e}")))?;
        state
            .instruct_config
            .validate()
            .map_err(|e| GatewayError::Config(format!("instruct_config: {e}")))?;

        let listener =
            TcpListener::bind(&config.bind).map_err(|e| GatewayError::Bind(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GatewayError::Bind(e.to_string()))?;

        let engine = Arc::new(EvalEngine::new(config.engine, &state.params));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let shared = Arc::new(Shared {
            limiter: RateLimiter::new(config.rate_per_sec, config.burst),
            queue: Arc::clone(&queue),
            state,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            config,
        });

        let max_batch = shared.config.max_batch;
        // One serving loop per core — the offline engine's auto shard rule —
        // but never more loops than slots, so a one-core machine or
        // `max_batch: 1` keeps a single loop. `max_batch` is split so it
        // stays the bound on active sequences over all of them.
        let loops = EngineConfig::pooled().resolved_parallelism().min(max_batch);
        let schedulers = (0..loops)
            .map(|i| {
                let slots = max_batch / loops + usize::from(i < max_batch % loops);
                let (queue, engine) = (Arc::clone(&queue), Arc::clone(&engine));
                std::thread::spawn(move || run_iter_scheduler(queue, engine, slots))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        astro_telemetry::info!("gateway: listening on {addr} (serving loops: {loops})");
        Ok(Gateway {
            shared,
            addr,
            acceptor: Some(acceptor),
            schedulers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wait up to `drain_timeout` for in-flight
    /// connections, flush the queue, and stop the serving loops. Every
    /// request accepted before the drain began is answered.
    pub fn shutdown(mut self) -> DrainStats {
        let _span = span!("gateway.drain");
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.wake_and_join_acceptor();

        // Handlers still hold connections; the serving loops are still
        // running, so their queued work completes. Wait for them.
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let conns_done = self.shared.open_conns.load(Ordering::SeqCst) == 0;

        self.shared.queue.close();
        self.join_schedulers();
        let accepted = self.shared.accepted.load(Ordering::SeqCst);
        let completed = self.shared.completed.load(Ordering::SeqCst);
        let stats = DrainStats {
            accepted,
            completed,
            drained_clean: conns_done && accepted == completed,
        };
        astro_telemetry::info!(
            "gateway: drained accepted={} completed={} clean={}",
            stats.accepted,
            stats.completed,
            stats.drained_clean
        );
        stats
    }

    /// Hard stop: close the queue immediately and do not wait for
    /// in-flight connections. Buffered requests are still flushed by the
    /// serving loops on their way out; rejected pushes after this point see
    /// typed `Closed` errors, never a panic.
    pub fn abort(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.wake_and_join_acceptor();
        self.join_schedulers();
    }

    /// Join every serving loop. Call after `queue.close()`, whose
    /// `notify_all` wakes each loop blocked in `pop`; each flushes what it
    /// holds and exits.
    fn join_schedulers(&mut self) {
        for h in self.schedulers.drain(..) {
            let _ = h.join();
        }
    }

    fn wake_and_join_acceptor(&mut self) {
        // `accept` blocks; poke it with a throwaway connection so the
        // loop re-checks the drain flag.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if self.acceptor.is_none() && self.schedulers.is_empty() {
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.wake_and_join_acceptor();
        self.join_schedulers();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if fault::should_fault("gateway.accept_fail") {
            // Injected accept failure: the connection is dropped before a
            // handler exists. The client sees a reset and may retry; the
            // server keeps serving. The dropped connection still leaves a
            // fault-marked trace (status 0) so the fault is attributable.
            metrics::counter("gateway.accept_fail").add(1);
            let tid = trace::open("gateway.reject", None, astro_telemetry::elapsed_us());
            trace::mark_fault(tid, "gateway.accept_fail");
            trace::finish(tid, 0);
            drop(stream);
            continue;
        }
        shared.open_conns.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_connection(&conn_shared, stream);
            }));
            if result.is_err() {
                metrics::counter("gateway.handler_panics").add(1);
            }
            conn_shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

const CT_JSON: &str = "application/json";
/// Prometheus text exposition content type (satellite of `/metricsz`).
const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

struct HttpReply {
    status: u16,
    retry_after: Option<u64>,
    content_type: &'static str,
    body: String,
}

impl HttpReply {
    fn ok(body: String) -> HttpReply {
        HttpReply {
            status: 200,
            retry_after: None,
            content_type: CT_JSON,
            body,
        }
    }

    fn ok_prometheus(body: String) -> HttpReply {
        HttpReply {
            status: 200,
            retry_after: None,
            content_type: CT_PROMETHEUS,
            body,
        }
    }

    fn error(status: u16, message: &str) -> HttpReply {
        HttpReply {
            status,
            retry_after: None,
            content_type: CT_JSON,
            body: api::error_body(message),
        }
    }

    fn retry(status: u16, after: u64, message: &str) -> HttpReply {
        HttpReply {
            status,
            retry_after: Some(after),
            content_type: CT_JSON,
            body: api::error_body(message),
        }
    }
}

/// The fixed endpoint set that gets per-endpoint latency histograms —
/// arbitrary 404 paths must not mint unbounded metric names.
fn endpoint_histogram_name(path: &str) -> Option<&'static str> {
    match path {
        "/healthz" => Some("gateway.endpoint./healthz.us"),
        "/metricsz" => Some("gateway.endpoint./metricsz.us"),
        "/v1/score" => Some("gateway.endpoint./v1/score.us"),
        "/v1/generate" => Some("gateway.endpoint./v1/generate.us"),
        _ => None,
    }
}

/// Handle one connection: parse, route, answer, close. Every request
/// that reaches this handler leaves exactly one finished trace: its
/// `recv` phase anchors at connection accept, the trace closes after the
/// response bytes are written (`write` phase), and the final HTTP status
/// becomes the trace status.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let t_conn = astro_telemetry::elapsed_us();
    let t0 = Instant::now();
    // The trace of a request that never parsed: minted id, no remote parent.
    let reject_trace = || trace::open("gateway.reject", None, t_conn);
    metrics::counter("gateway.connections").add(1);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    if fault::should_fault("gateway.slow_client") {
        // Injected slow client: treat the connection as having stalled
        // mid-request and answer exactly like a real read timeout.
        metrics::counter("gateway.slow_client").add(1);
        let tid = reject_trace();
        trace::mark_fault(tid, "gateway.slow_client");
        let reply = HttpReply::error(408, "request read timed out");
        write_reply(&mut stream, &reply, true, tid, &shared.config.replica_name, None);
        return;
    }
    let peer = match stream.peer_addr() {
        Ok(a) => a.ip().to_string(),
        Err(_) => "unknown".to_string(),
    };
    let mut idempotency_key: Option<String> = None;
    let (mut reply, request_fully_read, tid) =
        match http::read_request(&mut stream, shared.config.max_body_bytes) {
            Ok(req) => {
                let name = format!("gateway.{}", req.path);
                let tid = trace::open(&name, req.header("traceparent"), t_conn);
                // Echo the router's idempotency key so a re-dispatched
                // request's response is attributable to its original.
                idempotency_key = req.header("x-idempotency-key").map(str::to_string);
                let reply = route(shared, &req, &peer, tid);
                if let Some(name) = endpoint_histogram_name(&req.path) {
                    metrics::histogram(name).observe(t0.elapsed().as_micros() as f64);
                }
                (reply, true, tid)
            }
            Err(HttpError::BadRequest(m)) => (HttpReply::error(400, &m), false, reject_trace()),
            Err(HttpError::PayloadTooLarge { declared, limit }) => {
                metrics::counter("gateway.oversized").add(1);
                (
                    HttpReply::error(413, &format!("body of {declared} bytes exceeds {limit}")),
                    false,
                    reject_trace(),
                )
            }
            Err(HttpError::Timeout) => {
                (HttpReply::error(408, "request read timed out"), false, reject_trace())
            }
            // Peer vanished before sending a request; nothing to answer.
            Err(HttpError::ConnectionClosed) | Err(HttpError::Io(_)) => return,
        };
    // Successful JSON responses carry their own phase breakdown (the
    // snapshot runs before the `write` phase, so `write` appears only in
    // the sink/ring record, never the body).
    if reply.status == 200 && reply.content_type == CT_JSON {
        if let Some(rec) = trace::inflight_snapshot(tid) {
            reply.body = api::body_with_trace(&reply.body, &rec);
        }
    }
    metrics::histogram("gateway.request_us").observe(t0.elapsed().as_micros() as f64);
    write_reply(
        &mut stream,
        &reply,
        !request_fully_read,
        tid,
        &shared.config.replica_name,
        idempotency_key.as_deref(),
    );
}

/// Write a response carrying the trace's `traceparent` (trace id + this
/// hop's id) and close the trace: `write` phase, final status. When the
/// request was *not* fully consumed (early rejection), the leftover bytes
/// are drained before the socket closes ([`http::drain_unread`]).
fn write_reply(
    stream: &mut TcpStream,
    reply: &HttpReply,
    drain_unread: bool,
    tid: TraceId,
    replica: &str,
    idempotency_key: Option<&str>,
) {
    let retry_value;
    let traceparent = trace::traceparent(tid);
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(after) = reply.retry_after {
        retry_value = after.to_string();
        headers.push(("Retry-After", &retry_value));
    }
    if let Some(tp) = &traceparent {
        headers.push(("traceparent", tp));
    }
    if !replica.is_empty() {
        headers.push(("x-astro-replica", replica));
    }
    if let Some(key) = idempotency_key {
        headers.push(("x-idempotency-key", key));
    }
    let written =
        http::write_response(stream, reply.status, reply.content_type, &headers, &reply.body);
    if written.is_ok() && drain_unread {
        http::drain_unread(stream);
    }
    trace::phase_since_last(tid, "write");
    trace::finish(tid, reply.status);
}

fn route(shared: &Shared, req: &Request, peer: &str, tid: TraceId) -> HttpReply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => HttpReply::ok(health_reply(shared)),
        ("GET", "/metricsz") => {
            if req.query_param_is("format", "prometheus") {
                HttpReply::ok_prometheus(api::prometheus_body(&metrics::snapshot()))
            } else {
                HttpReply::ok(api::metrics_body(&metrics::snapshot()))
            }
        }
        ("POST", "/v1/score") => handle_score(shared, req, peer, tid),
        ("POST", "/v1/generate") => handle_generate(shared, req, peer, tid),
        // Portable stand-in for SIGTERM (the workspace is std-only, so
        // there is no signal handler to install): flip the drain flag.
        // New work gets 503 + Retry-After from here on; queued work
        // still completes and `/healthz` reports `"draining"` so a
        // router takes this replica out of its ring before `shutdown`.
        ("POST", "/admin/drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            metrics::counter("gateway.drain_requests").add(1);
            HttpReply::ok(health_reply(shared))
        }
        (_, "/healthz" | "/metricsz" | "/v1/score" | "/v1/generate" | "/admin/drain") => {
            HttpReply::error(405, &format!("method {} not allowed here", req.method))
        }
        (_, path) => HttpReply::error(404, &format!("no route for {path}")),
    }
}

/// Build the enriched `/healthz` body: drain state, admit-queue depth,
/// scheduler occupancy (mean step fill so far, over every loop's steps)
/// and active sequences (summed over every loop). Both are process-global,
/// so several in-process gateways — only test harnesses run those — see
/// each other's.
fn health_reply(shared: &Shared) -> String {
    let steps = metrics::histogram("serve.step.occupancy");
    let occupancy = if steps.count() > 0 { steps.mean() } else { 0.0 };
    api::health_body(
        shared.draining.load(Ordering::SeqCst),
        shared.queue.depth(),
        occupancy,
        metrics::gauge("serve.sched.active").get(),
        &shared.config.replica_name,
    )
}

fn body_utf8(req: &Request) -> Result<&str, HttpReply> {
    std::str::from_utf8(&req.body)
        .map_err(|_| HttpReply::error(400, "request body is not UTF-8"))
}

fn handle_score(shared: &Shared, req: &Request, peer: &str, tid: TraceId) -> HttpReply {
    let body = match body_utf8(req) {
        Ok(b) => b,
        Err(reply) => return reply,
    };
    let parsed = match api::ScoreRequest::parse(body) {
        Ok(p) => p,
        Err(m) => return HttpReply::error(400, &m),
    };
    let model = EvalModel {
        params: &shared.state.params,
        tokenizer: &shared.state.tokenizer,
    };
    let mcq = api::mcq_from_request(&parsed.question, &parsed.options, parsed.group);
    let job = score_job(&model, &mcq, &shared.state.exemplars, &shared.state.token_config);
    let client = parsed.client.as_deref().unwrap_or(peer).to_string();
    admit_and_run(shared, Work::Score(job), &client, tid, |outcome| match outcome {
        SeqOutcome::Scores(s) => {
            let mut scores = [f32::NEG_INFINITY; 4];
            for (dst, src) in scores.iter_mut().zip(s.iter()) {
                *dst = *src;
            }
            // Ties resolve to the lowest index, matching
            // `token_method_outcomes`.
            let mut best = 0;
            for i in 1..4 {
                if scores[i] > scores[best] {
                    best = i;
                }
            }
            HttpReply::ok(api::score_body(&scores, best))
        }
        // A score job cannot retire with tokens; degrade per-request.
        SeqOutcome::Tokens(_) => HttpReply::error(500, "engine returned tokens for a score job"),
    })
}

fn handle_generate(shared: &Shared, req: &Request, peer: &str, tid: TraceId) -> HttpReply {
    let body = match body_utf8(req) {
        Ok(b) => b,
        Err(reply) => return reply,
    };
    let parsed = match api::GenerateRequest::parse(body) {
        Ok(p) => p,
        Err(m) => return HttpReply::error(400, &m),
    };
    let model = EvalModel {
        params: &shared.state.params,
        tokenizer: &shared.state.tokenizer,
    };
    let mcq = api::mcq_from_request(&parsed.question, &parsed.options, parsed.group);
    let job = generate_job(
        &model,
        &mcq,
        &shared.state.instruct_config,
        Rng::seed_from(parsed.seed),
    );
    let client = parsed.client.as_deref().unwrap_or(peer).to_string();
    admit_and_run(shared, Work::Generate(job), &client, tid, |outcome| match outcome {
        SeqOutcome::Tokens(tokens) => {
            let raw = shared.state.tokenizer.decode(&tokens);
            let (prediction, stage) = extract_answer(&raw, &parsed.options);
            HttpReply::ok(api::generate_body(prediction, stage, &raw))
        }
        SeqOutcome::Scores(_) => HttpReply::error(500, "engine returned scores for a generate job"),
    })
}

/// Admission gauntlet, queue push, the wait for the scheduler's reply, and
/// `render`ing the engine's outcome into the response. The `build` phase
/// (body parse + prompt/tokenizer work in the handler) closes here, just
/// before the queue push, so `queue_wait` starts at the enqueue instant;
/// `sync` is the hand-back from the serving loop's thread and `extract` the
/// response build.
fn admit_and_run(
    shared: &Shared,
    work: Work,
    client: &str,
    tid: TraceId,
    render: impl FnOnce(SeqOutcome) -> HttpReply,
) -> HttpReply {
    trace::phase_since_last(tid, "build");
    if shared.draining.load(Ordering::SeqCst) {
        return HttpReply::retry(503, 1, "server is draining");
    }
    if let Admission::RetryAfter(secs) = shared.limiter.admit(client) {
        metrics::counter("gateway.rate_limited").add(1);
        return HttpReply::retry(429, secs, &format!("rate limit exceeded for {client:?}"));
    }
    let (tx, rx) = mpsc::channel();
    let now = Instant::now();
    let pending = Pending {
        work,
        reply: tx,
        deadline: now + shared.config.deadline,
        enqueued: now,
        trace: tid,
    };
    match shared.queue.try_push(pending) {
        Ok(depth) => metrics::gauge("gateway.queue_depth").set(depth as i64),
        Err(PushError::Full(_)) => {
            metrics::counter("gateway.backpressure").add(1);
            return HttpReply::retry(503, 1, "request queue is full");
        }
        Err(PushError::Closed(_)) => return HttpReply::retry(503, 1, "server is draining"),
    }
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    match rx.recv_timeout(shared.config.deadline) {
        Ok(reply) => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
            trace::phase_since_last(tid, "sync");
            let reply = match reply {
                Reply::Done(Ok(outcome)) => render(outcome),
                Reply::Done(Err(e)) => HttpReply::error(500, &e.to_string()),
                Reply::Expired => HttpReply::error(504, "deadline expired before execution"),
            };
            trace::phase_since_last(tid, "extract");
            reply
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            metrics::counter("gateway.deadline_timeouts").add(1);
            trace::mark_deadline(tid);
            HttpReply::error(504, "deadline expired waiting for the scheduler")
        }
        // A serving loop only stops when the gateway is draining; tell
        // the client when to come back like every other drain 503.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            HttpReply::retry(503, 1, "scheduler stopped before answering")
        }
    }
}
