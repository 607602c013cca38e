//! The gateway: admission control, the endpoints, and graceful drain,
//! served through the shared front door ([`crate::http`]).
//!
//! Lifecycle: [`Gateway::spawn`] validates every config layer, binds an
//! [`http::Listener`] (one handler thread per connection) and starts one
//! serving loop ([`crate::scheduler::run_iter_scheduler`]) per core, at
//! most one per `max_batch` slot, each owning its share of the slots and
//! all popping the one queue over the one engine and prefix cache.
//! Admission happens in the handler *before* anything reaches the queue:
//! drain state (503), body bounds (413), JSON schema (400), per-client
//! rate limit (429 + `Retry-After`), bounded-queue backpressure (503).
//! [`Gateway::shutdown`] stops accepting, waits for in-flight
//! connections, then closes the queue so every loop flushes the accepted
//! requests it holds — zero loss on a clean drain.
//!
//! What the gateway adds to the shared connection lifecycle is its
//! [`Front`] implementation: the routes, the `gateway.accept_fail` and
//! `gateway.slow_client` faults, per-endpoint latency histograms, the
//! trace splice into 200 JSON bodies, and the `x-astro-replica` /
//! `x-idempotency-key` headers.
//!
//! A handler builds the engine job before the queue push and the response
//! after a loop hands the engine's result back (token decode, extraction
//! cascade, argmax, JSON), so the threads that step batches do no
//! per-request text work.

use crate::api;
use crate::config::GatewayConfig;
use crate::http::{self, Front, Injected, Request, Response, CT_JSON};
use crate::limiter::{Admission, RateLimiter};
use crate::queue::{BoundedQueue, PushError};
use crate::scheduler::{run_iter_scheduler, Pending, Reply, Work};
use astro_eval::{
    extract_answer, generate_job, pick_option, score_job, EvalModel, InstructEvalConfig,
    TokenEvalConfig,
};
use astro_mcq::Mcq;
use astro_model::Params;
use astro_prng::Rng;
use astro_resilience::fault;
use astro_serve::{EvalEngine, SeqOutcome};
use astro_telemetry::trace::{self, TraceId};
use astro_telemetry::{metrics, span};
use astro_tokenizer::Tokenizer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Refuse new work. `/admin/drain` sets it while the listener keeps
    /// accepting, so `/healthz` goes on answering probes (the router needs
    /// to see `"draining"` to rebalance before the process goes away).
    draining: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
}

/// A running gateway. Dropping it without calling [`Gateway::shutdown`]
/// aborts: the listener stops, the queue closes, buffered requests are
/// still flushed, but in-flight connections are not waited for.
pub struct Gateway {
    shared: Arc<Shared>,
    listener: http::Listener,
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

        let engine = Arc::new(EvalEngine::new(config.engine, &state.params));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let shared = Arc::new(Shared {
            limiter: RateLimiter::new(config.rate_per_sec, config.burst),
            queue: Arc::clone(&queue),
            state,
            draining: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            config,
        });
        let listener = http::Listener::bind(&shared.config.bind, Arc::clone(&shared))
            .map_err(|e| GatewayError::Bind(e.to_string()))?;

        let max_batch = shared.config.max_batch;
        // One serving loop per core of the process's one sizing rule, but
        // never more loops than slots, so a one-core machine or
        // `max_batch: 1` keeps a single loop. `max_batch` is split so it
        // stays the bound on active sequences over all of them.
        let loops = astro_telemetry::cores::available().min(max_batch);
        let schedulers = (0..loops)
            .map(|i| {
                let slots = max_batch / loops + usize::from(i < max_batch % loops);
                let (queue, engine) = (Arc::clone(&queue), Arc::clone(&engine));
                std::thread::spawn(move || run_iter_scheduler(queue, engine, slots))
            })
            .collect();

        astro_telemetry::info!(
            "gateway: listening on {} (serving loops: {loops})",
            listener.addr()
        );
        Ok(Gateway { shared, listener, schedulers })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stop accepting, wait up to `drain_timeout` for in-flight
    /// connections, flush the queue, and stop the serving loops. Every
    /// request accepted before the drain began is answered.
    pub fn shutdown(mut self) -> DrainStats {
        let _span = span!("gateway.drain");
        self.shared.draining.store(true, Ordering::SeqCst);
        self.listener.stop();
        // Handlers still hold connections; the serving loops are still
        // running, so their queued work completes. Wait for them.
        let conns_done = self.listener.wait_idle(self.shared.config.drain_timeout);
        self.stop();
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
    /// typed `Closed` errors, never a panic. Dropping the gateway does the
    /// same.
    pub fn abort(self) {
        drop(self);
    }

    /// Refuse new work, close the queue and the listener, and join every
    /// serving loop (idempotent): `queue.close()`'s `notify_all` wakes each
    /// loop blocked in `pop`; each flushes what it holds and exits.
    fn stop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.listener.stop();
        for h in self.schedulers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Prometheus text exposition content type (satellite of `/metricsz`).
const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

impl Front for Shared {
    const NAME: &'static str = "gateway";

    fn read_timeout(&self) -> Duration {
        self.config.read_timeout
    }

    fn max_body_bytes(&self) -> usize {
        self.config.max_body_bytes
    }

    /// An accept failure drops the connection before it is read (the client
    /// sees a reset and may retry); a slow client stalls mid-request.
    fn injected_fault(&self) -> Option<Injected> {
        if fault::should_fault("gateway.accept_fail") {
            Some(Injected::Drop("gateway.accept_fail"))
        } else if fault::should_fault("gateway.slow_client") {
            Some(Injected::Stall("gateway.slow_client"))
        } else {
            None
        }
    }

    fn route(&self, req: &Request, peer: &str, tid: TraceId) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::ok(health_reply(self)),
            ("GET", "/metricsz") if req.query_param_is("format", "prometheus") => Response {
                content_type: CT_PROMETHEUS,
                ..Response::ok(api::prometheus_body(&metrics::snapshot()))
            },
            ("GET", "/metricsz") => Response::ok(api::metrics_body(&metrics::snapshot())),
            ("POST", "/v1/score") => handle_score(self, req, peer, tid),
            ("POST", "/v1/generate") => handle_generate(self, req, peer, tid),
            // Portable stand-in for SIGTERM (the workspace is std-only, so
            // there is no signal handler to install): flip the drain flag.
            // New work gets 503 + Retry-After from here on; queued work
            // still completes and `/healthz` reports `"draining"` so a
            // router takes this replica out of its ring before `shutdown`.
            ("POST", "/admin/drain") => {
                self.draining.store(true, Ordering::SeqCst);
                metrics::counter("gateway.drain_requests").add(1);
                Response::ok(health_reply(self))
            }
            (_, "/healthz" | "/metricsz" | "/v1/score" | "/v1/generate" | "/admin/drain") => {
                Response::error(405, &format!("method {} not allowed here", req.method))
            }
            (_, path) => Response::error(404, &format!("no route for {path}")),
        }
    }

    fn answering(
        &self,
        req: Option<&Request>,
        tid: TraceId,
        resp: &mut Response,
        elapsed: Duration,
    ) {
        let us = elapsed.as_micros() as f64;
        match req {
            Some(req) => {
                // The fixed endpoint set: arbitrary 404 paths must not mint
                // unbounded metric names.
                let path = req.path.as_str();
                if matches!(path, "/healthz" | "/metricsz" | "/v1/score" | "/v1/generate") {
                    metrics::histogram(&format!("gateway.endpoint.{path}.us")).observe(us);
                }
                // Echo the router's idempotency key so a re-dispatched
                // request's response is attributable to its original.
                if let Some(key) = req.header("x-idempotency-key") {
                    resp.headers.push(("x-idempotency-key", key.to_string()));
                }
            }
            // No route answers 413: this is the parser's bound.
            None if resp.status == 413 => metrics::counter("gateway.oversized").add(1),
            None => {}
        }
        // Successful JSON responses carry their own phase breakdown (the
        // snapshot runs before the `write` phase, so `write` appears only in
        // the sink/ring record, never the body).
        if resp.status == 200 && resp.content_type == CT_JSON {
            if let Some(rec) = trace::inflight_snapshot(tid) {
                resp.body = api::body_with_trace(&resp.body, &rec);
            }
        }
        metrics::histogram("gateway.request_us").observe(us);
        if !self.config.replica_name.is_empty() {
            resp.headers.push(("x-astro-replica", self.config.replica_name.clone()));
        }
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

/// The body, as UTF-8, through `parse`; a 400 when either fails.
fn parse_body<T>(req: &Request, parse: fn(&str) -> Result<T, String>) -> Result<T, Response> {
    std::str::from_utf8(&req.body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(parse)
        .map_err(|m| Response::error(400, &m))
}

fn handle_score(shared: &Shared, req: &Request, peer: &str, tid: TraceId) -> Response {
    let parsed = match parse_body(req, api::ScoreRequest::parse) {
        Ok(p) => p,
        Err(resp) => return resp,
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
            let (best, scores) = pick_option(&s);
            Response::ok(api::score_body(&scores, best))
        }
        // A score job cannot retire with tokens; degrade per-request.
        SeqOutcome::Tokens(_) => Response::error(500, "engine returned tokens for a score job"),
    })
}

fn handle_generate(shared: &Shared, req: &Request, peer: &str, tid: TraceId) -> Response {
    let parsed = match parse_body(req, api::GenerateRequest::parse) {
        Ok(p) => p,
        Err(resp) => return resp,
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
            Response::ok(api::generate_body(prediction, stage, &raw))
        }
        SeqOutcome::Scores(_) => Response::error(500, "engine returned scores for a generate job"),
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
    render: impl FnOnce(SeqOutcome) -> Response,
) -> Response {
    trace::phase_since_last(tid, "build");
    if shared.draining.load(Ordering::SeqCst) {
        return Response::retry(503, 1, "server is draining");
    }
    if let Admission::RetryAfter(secs) = shared.limiter.admit(client) {
        metrics::counter("gateway.rate_limited").add(1);
        return Response::retry(429, secs, &format!("rate limit exceeded for {client:?}"));
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
            return Response::retry(503, 1, "request queue is full");
        }
        Err(PushError::Closed(_)) => return Response::retry(503, 1, "server is draining"),
    }
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    match rx.recv_timeout(shared.config.deadline) {
        Ok(reply) => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
            trace::phase_since_last(tid, "sync");
            let reply = match reply {
                Reply::Done(Ok(outcome)) => render(outcome),
                Reply::Done(Err(e)) => Response::error(500, &e.to_string()),
                Reply::Expired => Response::error(504, "deadline expired before execution"),
            };
            trace::phase_since_last(tid, "extract");
            reply
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            metrics::counter("gateway.deadline_timeouts").add(1);
            trace::mark_deadline(tid);
            Response::error(504, "deadline expired waiting for the scheduler")
        }
        // A serving loop only stops when the gateway is draining; tell
        // the client when to come back like every other drain 503.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Response::retry(503, 1, "scheduler stopped before answering")
        }
    }
}
