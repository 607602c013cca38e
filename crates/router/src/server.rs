//! The router front-end: derives a prefix-affinity ring key per request,
//! forwards to the owning replica, and fails over with bounded jittered
//! retries when a replica dies, hangs, drains, or resets mid-exchange.
//! Client connections come through the same front door as the gateway's
//! ([`astro_gateway::http`]): the router's [`Front`] implementation is its
//! routes and the `completed` count of final answers.
//!
//! ## Zero-loss contract
//!
//! Every request the router accepts gets exactly one final response.
//! A forward that fails *before* the replica could have accepted it
//! (connection refused / connect timeout / replica 503) is retried on
//! the next replica in ring order — plain failover. A forward that
//! fails *after* the request may have been accepted (write/read error
//! mid-exchange, injected `router.forward_reset`, injected
//! `replica.hang`) is re-dispatched **exactly once** under the same
//! `x-idempotency-key`; scoring is deterministic, so a duplicate
//! execution is observationally identical and the key makes the
//! re-dispatch attributable end to end. A second maybe-accepted failure
//! surfaces as 502 — never a silent loss — and is counted in
//! [`RouterStats::lost`].
//!
//! Fault sites wired here: `replica.crash` (kill the target replica
//! before the forward — exercises crash failover), `replica.hang`
//! (forward never answers), `router.forward_reset` (response lost after
//! the exchange — exercises the idempotent re-dispatch), and
//! `router.probe_timeout` (a probe round times out — exercises prober
//! hysteresis) in [`probe_once`].

use crate::affinity::AffinityKeyer;
use crate::probe::{parse_health, ProbeConfig, ReplicaStatus};
use crate::ring::Ring;
use astro_gateway::api::{self, GenerateRequest, ScoreRequest};
use astro_gateway::client::{self, HttpResponse};
use astro_gateway::http::{self, Front, Request, Response, CT_JSON};
use astro_resilience::{fault, RetryPolicy};
use astro_telemetry::event::write_json_string;
use astro_telemetry::sync::{self, Mutex};
use astro_telemetry::trace::{self, TraceId};
use astro_telemetry::metrics;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// One replica the router fronts.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Identity; should match the replica's `GatewayConfig::replica_name`.
    pub name: String,
    /// Address the replica's gateway listens on.
    pub addr: SocketAddr,
}

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address for the router's own listener (port 0 = ephemeral).
    pub bind: String,
    /// Virtual nodes per replica on the consistent-hash ring.
    pub vnodes: u32,
    /// Per-forward connect+exchange deadline.
    pub forward_timeout: Duration,
    /// Retry budget for failed forwards (backoff + deterministic
    /// jitter); see [`RetryPolicy::forwards`].
    pub retry: RetryPolicy,
    /// Health prober settings.
    pub probe: ProbeConfig,
    /// Socket read timeout for parsing client requests.
    pub read_timeout: Duration,
    /// Maximum client request body (mirrors the gateway's 413 bound).
    pub max_body_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            vnodes: 64,
            forward_timeout: Duration::from_secs(10),
            retry: RetryPolicy::forwards(),
            probe: ProbeConfig::default(),
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 64 * 1024,
        }
    }
}

impl RouterConfig {
    /// Structural validation, called by [`Router::spawn`] before binding.
    pub fn validate(&self) -> Result<(), String> {
        if self.bind.is_empty() {
            return Err("bind address must be nonempty".to_string());
        }
        if self.vnodes == 0 || self.vnodes > 4096 {
            return Err(format!("vnodes {} outside 1..=4096", self.vnodes));
        }
        if self.forward_timeout.is_zero() {
            return Err("forward_timeout must be nonzero".to_string());
        }
        if self.retry.max_attempts == 0 {
            return Err("retry.max_attempts must be >= 1".to_string());
        }
        if self.read_timeout.is_zero() {
            return Err("read_timeout must be nonzero".to_string());
        }
        if self.max_body_bytes == 0 {
            return Err("max_body_bytes must be nonzero".to_string());
        }
        self.probe.validate().map_err(|e| format!("probe: {e}"))
    }
}

/// Why the router could not start.
#[derive(Clone, Debug)]
pub enum RouterError {
    /// Configuration failed validation.
    Config(String),
    /// The listener could not bind.
    Bind(String),
    /// An empty replica set can route nothing.
    NoReplicas,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(m) => write!(f, "invalid router config: {m}"),
            RouterError::Bind(m) => write!(f, "router bind failed: {m}"),
            RouterError::NoReplicas => write!(f, "router needs at least one replica"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Counters observed over a router's lifetime, returned by
/// [`Router::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Forward attempts that produced a replica response.
    pub forwarded: u64,
    /// Client requests answered with a final response.
    pub completed: u64,
    /// Plain failovers: forwards refused before acceptance, retried on
    /// the next ring replica.
    pub failovers: u64,
    /// Maybe-accepted forwards re-dispatched under their idempotency
    /// key (each key at most once).
    pub redispatches: u64,
    /// Requests that exhausted the re-dispatch budget (answered 502 —
    /// loud, never silent). Zero in every chaos sweep.
    pub lost: u64,
}

/// A callback that hard-kills replica `id` — the `replica.crash` fault
/// site's trigger, wired up by the in-process cluster harness.
///
/// Shared (`Arc`) so the forward path can clone it out of its slot and
/// invoke it with no router lock held: the kill closes the replica's
/// queue and joins its threads.
pub type CrashHook = Arc<dyn Fn(u32) + Send + Sync>;

struct RingState {
    ring: Ring,
    keyer: AffinityKeyer,
    status: Vec<ReplicaStatus>,
}

struct Core {
    config: RouterConfig,
    replicas: Vec<ReplicaSpec>,
    ring_state: Mutex<RingState>,
    /// Requests between parse and final reply.
    inflight: AtomicUsize,
    crash_hook: Mutex<Option<CrashHook>>,
    next_request: AtomicU64,
    forwarded: AtomicU64,
    completed: AtomicU64,
    failovers: AtomicU64,
    redispatches: AtomicU64,
    lost: AtomicU64,
}

/// A running router. [`Router::shutdown`] stops the listener and the
/// prober; dropping without shutdown aborts both without waiting for
/// in-flight connections.
pub struct Router {
    core: Arc<Core>,
    listener: http::Listener,
    prober: Option<std::thread::JoinHandle<()>>,
    /// Dropping it disconnects the prober's channel, which ends its
    /// interval sleep at once.
    stop: Option<mpsc::Sender<()>>,
}

impl Router {
    /// Validate, bind, and start the listener + prober threads. All
    /// replicas start as ring members; the prober adjusts membership
    /// from its first round.
    pub fn spawn(config: RouterConfig, replicas: Vec<ReplicaSpec>) -> Result<Router, RouterError> {
        config.validate().map_err(RouterError::Config)?;
        if replicas.is_empty() {
            return Err(RouterError::NoReplicas);
        }
        let mut ring = Ring::new(config.vnodes);
        for id in 0..replicas.len() {
            ring.insert(id as u32);
        }
        let status = vec![ReplicaStatus::default(); replicas.len()];
        let core = Arc::new(Core {
            config,
            replicas,
            ring_state: Mutex::new(RingState { ring, keyer: AffinityKeyer::new(), status }),
            inflight: AtomicUsize::new(0),
            crash_hook: Mutex::new(None),
            next_request: AtomicU64::new(1),
            forwarded: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        });

        let listener = http::Listener::bind(&core.config.bind, Arc::clone(&core))
            .map_err(|e| RouterError::Bind(e.to_string()))?;
        let probe_core = Arc::clone(&core);
        let (stop, stopped) = mpsc::channel::<()>();
        let prober = std::thread::spawn(move || {
            let interval = probe_core.config.probe.interval;
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                probe_once(&probe_core);
            }
        });

        astro_telemetry::info!("router: listening on {}", listener.addr());
        Ok(Router { core, listener, prober: Some(prober), stop: Some(stop) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Install the `replica.crash` trigger: called with the replica id
    /// about to be forwarded to when the fault fires.
    pub fn set_crash_hook(&self, hook: CrashHook) {
        let (_order, mut slot) = sync::lock_ranked("router.crash_hook", &self.core.crash_hook);
        *slot = Some(hook);
    }

    /// Run one probe round synchronously (tests drive membership
    /// deterministically instead of sleeping for prober ticks).
    pub fn probe_now(&self) {
        probe_once(&self.core);
    }

    /// Current ring members (replica ids).
    pub fn ring_members(&self) -> Vec<u32> {
        let (_order, state) = sync::lock_ranked("router.ring", &self.core.ring_state);
        state.ring.members().to_vec()
    }

    /// Snapshot of per-replica probe state, index-aligned with the
    /// replica specs passed to [`Router::spawn`].
    pub fn replica_status(&self) -> Vec<ReplicaStatus> {
        let (_order, state) = sync::lock_ranked("router.ring", &self.core.ring_state);
        state.status.clone()
    }

    /// Stop the prober and the listener, wait for in-flight connections
    /// (bounded by the forward timeout), and report lifetime counters.
    pub fn shutdown(mut self) -> RouterStats {
        self.stop_threads();
        self.listener.wait_idle(self.core.config.forward_timeout);
        let stats = self.stats();
        astro_telemetry::info!(
            "router: shutdown forwarded={} completed={} failovers={} redispatches={} lost={}",
            stats.forwarded,
            stats.completed,
            stats.failovers,
            stats.redispatches,
            stats.lost
        );
        stats
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            forwarded: self.core.forwarded.load(Ordering::SeqCst),
            completed: self.core.completed.load(Ordering::SeqCst),
            failovers: self.core.failovers.load(Ordering::SeqCst),
            redispatches: self.core.redispatches.load(Ordering::SeqCst),
            lost: self.core.lost.load(Ordering::SeqCst),
        }
    }

    /// Stop the listener and the prober, and join the prober (idempotent).
    fn stop_threads(&mut self) {
        self.stop = None;
        self.listener.stop();
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl Front for Core {
    const NAME: &'static str = "router";

    fn read_timeout(&self) -> Duration {
        self.config.read_timeout
    }

    fn max_body_bytes(&self) -> usize {
        self.config.max_body_bytes
    }

    fn route(&self, req: &Request, _peer: &str, tid: TraceId) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::ok(status_body(self)),
            ("GET", "/metricsz") => Response::ok(api::metrics_body(&metrics::snapshot())),
            ("POST", "/v1/score") => forward_request(self, req, "/v1/score", tid),
            ("POST", "/v1/generate") => forward_request(self, req, "/v1/generate", tid),
            (_, "/healthz" | "/metricsz" | "/v1/score" | "/v1/generate") => {
                Response::error(405, &format!("method {} not allowed here", req.method))
            }
            (_, path) => Response::error(404, &format!("no route for {path}")),
        }
    }

    /// Count every final answer: all but a 5xx the router gave up with
    /// (503 is a typed "come back later", and counts).
    fn answering(
        &self,
        _req: Option<&Request>,
        _tid: TraceId,
        resp: &mut Response,
        _elapsed: Duration,
    ) {
        if resp.status < 500 || resp.status == 503 {
            self.completed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Extract the affinity inputs from the request body. Group 0 is the
/// parser's "no group" default, so it keys on the whole question rather
/// than lumping every ungrouped client onto one replica.
fn affinity_inputs(path: &str, body: &str) -> Result<(Option<u64>, String), String> {
    if path == "/v1/score" {
        let parsed = ScoreRequest::parse(body)?;
        let group = (parsed.group != 0).then_some(parsed.group);
        Ok((group, parsed.question))
    } else {
        let parsed = GenerateRequest::parse(body)?;
        let group = (parsed.group != 0).then_some(parsed.group);
        Ok((group, parsed.question))
    }
}

/// How one forward attempt failed.
enum ForwardFailure {
    /// The replica never accepted the request (connect refused/timeout,
    /// or it answered 503): safe to retry elsewhere, no idempotency
    /// concern.
    NotAccepted(String),
    /// The exchange broke after the request may have been accepted:
    /// re-dispatch exactly once under the same idempotency key.
    MaybeAccepted(String),
}

fn forward_request(core: &Core, req: &Request, path: &str, tid: TraceId) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let (group, question) = match affinity_inputs(path, body) {
        Ok(v) => v,
        Err(m) => return Response::error(400, &m),
    };

    // Ring key + initial preference list under one lock hold.
    let key = {
        let (_order, mut state) = sync::lock_ranked("router.ring", &core.ring_state);
        state.keyer.key(group, &question)
    };
    trace::phase_since_last(tid, "route");

    let idem_key = format!("r{:08x}", core.next_request.fetch_add(1, Ordering::SeqCst));
    core.inflight.fetch_add(1, Ordering::SeqCst);
    let reply = forward_with_retries(core, path, body, key, &idem_key, tid);
    core.inflight.fetch_sub(1, Ordering::SeqCst);
    reply
}

fn forward_with_retries(
    core: &Core,
    path: &str,
    body: &str,
    key: u64,
    idem_key: &str,
    tid: TraceId,
) -> Response {
    let attempts = core.config.retry.max_attempts.max(1);
    let mut tried: Vec<u32> = Vec::new();
    let mut redispatched = false;
    let mut last_error = String::from("no routable replicas");
    for attempt in 1..=attempts {
        // Re-read the preference list each attempt: failovers and the
        // prober may have changed membership since the last one.
        let pref = {
            let (_order, state) = sync::lock_ranked("router.ring", &core.ring_state);
            state.ring.preference(key)
        };
        if pref.is_empty() {
            break;
        }
        // First untried replica in ring order; once all have been
        // tried, cycle (a replica may have recovered).
        let id = *pref
            .iter()
            .find(|r| !tried.contains(r))
            .unwrap_or(&pref[(attempt as usize - 1) % pref.len()]);
        if !tried.contains(&id) {
            tried.push(id);
        }
        let spec = &core.replicas[id as usize];
        trace::annotate(tid, "replica", &spec.name);

        if fault::should_fault("replica.crash") {
            // Kill the target before the forward reaches it: the
            // connect below fails and the request fails over.
            trace::mark_fault(tid, "replica.crash");
            metrics::counter("router.fault.replica_crash").add(1);
            let hook = {
                let (_order, slot) = sync::lock_ranked("router.crash_hook", &core.crash_hook);
                slot.clone()
            };
            if let Some(h) = hook {
                h(id);
            }
        }

        let outcome = attempt_forward(core, spec.addr, path, body, idem_key, tid);
        match outcome {
            Ok(resp) => {
                core.forwarded.fetch_add(1, Ordering::SeqCst);
                if resp.status == 503 {
                    // Draining or backpressured: the replica refused the
                    // request, so it is safe (and right) to fail over.
                    // A refusal is not a probe failure — the replica
                    // answered. The prober observes `draining` on its
                    // next round and moves it out of the ring.
                    metrics::counter("router.replica_refusals").add(1);
                    last_error = format!("{} answered 503", spec.name);
                    core.failovers.fetch_add(1, Ordering::SeqCst);
                    metrics::counter("router.failovers").add(1);
                } else {
                    return passthrough(resp);
                }
            }
            Err(ForwardFailure::NotAccepted(e)) => {
                evict_refused(core, id);
                last_error = format!("{}: {e}", spec.name);
                core.failovers.fetch_add(1, Ordering::SeqCst);
                metrics::counter("router.failovers").add(1);
            }
            Err(ForwardFailure::MaybeAccepted(e)) => {
                last_error = format!("{}: {e}", spec.name);
                if redispatched {
                    // The re-dispatch budget is one; give up loudly.
                    core.lost.fetch_add(1, Ordering::SeqCst);
                    metrics::counter("router.lost").add(1);
                    return Response::error(
                        502,
                        &format!("request lost after one re-dispatch: {last_error}"),
                    );
                }
                redispatched = true;
                core.redispatches.fetch_add(1, Ordering::SeqCst);
                metrics::counter("router.redispatches").add(1);
            }
        }
        if attempt < attempts {
            let label = format!("forward:{}", core.replicas[id as usize].name);
            std::thread::sleep(Duration::from_millis(
                core.config.retry.jittered_delay_ms(&label, attempt),
            ));
        }
    }
    Response::retry(503, 1, &format!("no replica could serve the request: {last_error}"))
}

/// One forward attempt with the hang/reset fault hooks applied.
fn attempt_forward(
    core: &Core,
    addr: SocketAddr,
    path: &str,
    body: &str,
    idem_key: &str,
    tid: TraceId,
) -> Result<HttpResponse, ForwardFailure> {
    if fault::should_fault("replica.hang") {
        // The replica accepted the connection and went silent; the
        // request may sit in its queue, so this is maybe-accepted.
        trace::mark_fault(tid, "replica.hang");
        metrics::counter("router.fault.replica_hang").add(1);
        return Err(ForwardFailure::MaybeAccepted("injected replica hang".to_string()));
    }
    // The trace is in flight for as long as its connection is served.
    let traceparent = trace::traceparent(tid).unwrap_or_default();
    let headers = [("x-idempotency-key", idem_key), ("traceparent", traceparent.as_str())];
    let result =
        client::post_json_with_headers(addr, path, body, &headers, core.config.forward_timeout);
    trace::phase_since_last(tid, "forward");
    match result {
        Ok(resp) => {
            if fault::should_fault("router.forward_reset") {
                // The replica executed the request but the response was
                // lost on the wire — the canonical maybe-accepted case.
                trace::mark_fault(tid, "router.forward_reset");
                metrics::counter("router.fault.forward_reset").add(1);
                return Err(ForwardFailure::MaybeAccepted(
                    "injected forward reset".to_string(),
                ));
            }
            Ok(resp)
        }
        // The client prefixes connect-phase failures with "connect";
        // those never reached the replica. Write/read failures happen
        // after the request hit the socket, so they are maybe-accepted.
        Err(e) if e.starts_with("connect") => Err(ForwardFailure::NotAccepted(e)),
        Err(e) => Err(ForwardFailure::MaybeAccepted(e)),
    }
}

/// A forward the replica never accepted (connect refused or timed out):
/// the replica leaves the ring at once, since the process is gone *now*.
/// Maybe-accepted failures leave membership to prober hysteresis.
fn evict_refused(core: &Core, id: u32) {
    let (_order, mut state) = sync::lock_ranked("router.ring", &core.ring_state);
    let health = state.status[id as usize].note_connection_refused();
    if !health.routable() {
        state.ring.remove(id);
        metrics::gauge("router.ring_size").set(state.ring.len() as i64);
    }
}

/// Run one probe round: `/healthz` per replica with the probe deadline
/// (the body carries that replica's own queue depth and occupancy), fold
/// outcomes into the hysteresis state machines, and sync ring membership.
fn probe_once(core: &Core) {
    let cfg = &core.config.probe;
    for (i, spec) in core.replicas.iter().enumerate() {
        let probed = if fault::should_fault("router.probe_timeout") {
            metrics::counter("router.fault.probe_timeout").add(1);
            Err("injected probe timeout".to_string())
        } else {
            client::get(spec.addr, "/healthz", cfg.timeout).and_then(|resp| {
                if resp.status == 200 {
                    Ok(parse_health(&resp.body))
                } else {
                    Err(format!("healthz answered {}", resp.status))
                }
            })
        };

        let (_order, mut state) = sync::lock_ranked("router.ring", &core.ring_state);
        let id = i as u32;
        let health = match probed {
            Ok(probe) => state.status[i].note_success(cfg, probe),
            Err(_) => state.status[i].note_failure(cfg),
        };
        let in_ring = state.ring.contains(id);
        if health.routable() && !in_ring {
            state.ring.insert(id);
            metrics::counter("router.ring_joins").add(1);
        } else if !health.routable() && in_ring {
            state.ring.remove(id);
            metrics::counter("router.ring_leaves").add(1);
        }
        metrics::gauge("router.ring_size").set(state.ring.len() as i64);
    }
    metrics::counter("router.probe_rounds").add(1);
}

/// Pass a replica response through, keeping the headers a client (or a
/// chaos test) needs to attribute it.
fn passthrough(resp: HttpResponse) -> Response {
    let mut headers = Vec::new();
    for name in ["Retry-After", "x-astro-replica", "x-idempotency-key"] {
        if let Some(v) = resp.header(name) {
            headers.push((name, v.to_string()));
        }
    }
    Response { status: resp.status, content_type: CT_JSON, headers, body: resp.body }
}

/// The router's own `/healthz`: ring membership, per-replica probe
/// state, and lifetime counters.
fn status_body(core: &Core) -> String {
    let inflight = core.inflight.load(Ordering::SeqCst);
    let (_order, state) = sync::lock_ranked("router.ring", &core.ring_state);
    let mut out = String::with_capacity(256);
    out.push_str("{\"status\":\"ok\",\"ring_members\":");
    out.push_str(&state.ring.len().to_string());
    out.push_str(",\"inflight\":");
    out.push_str(&inflight.to_string());
    out.push_str(",\"forwarded\":");
    out.push_str(&core.forwarded.load(Ordering::SeqCst).to_string());
    out.push_str(",\"failovers\":");
    out.push_str(&core.failovers.load(Ordering::SeqCst).to_string());
    out.push_str(",\"redispatches\":");
    out.push_str(&core.redispatches.load(Ordering::SeqCst).to_string());
    out.push_str(",\"lost\":");
    out.push_str(&core.lost.load(Ordering::SeqCst).to_string());
    out.push_str(",\"replicas\":[");
    for (i, (spec, status)) in core.replicas.iter().zip(&state.status).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, &spec.name);
        out.push_str(",\"addr\":");
        write_json_string(&mut out, &spec.addr.to_string());
        out.push_str(",\"health\":\"");
        out.push_str(status.health.name());
        out.push_str("\",\"in_ring\":");
        out.push_str(if state.ring.contains(i as u32) { "true" } else { "false" });
        out.push_str(",\"queue_depth\":");
        out.push_str(&status.queue_depth.to_string());
        out.push_str(&format!(",\"occupancy\":{:.4}}}", status.occupancy));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_interrupts_the_probe_interval() {
        let mut config = RouterConfig::default();
        config.probe.interval = Duration::from_secs(60);
        let replica =
            ReplicaSpec { name: "replica-0".to_string(), addr: "127.0.0.1:9".parse().unwrap() };
        let router = Router::spawn(config, vec![replica]).unwrap();
        // Shut down on a helper thread, so a prober that sleeps through
        // the stop fails this test instead of hanging it.
        let (done, finished) = mpsc::channel();
        let stopper = std::thread::spawn(move || done.send(router.shutdown()));
        assert!(
            finished.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown waited out the probe interval"
        );
        stopper.join().unwrap().unwrap();
    }
}
