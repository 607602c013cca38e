//! End-to-end request tracing with cross-thread causality.
//!
//! A **trace** follows one request through every thread it touches: the
//! gateway handler that accepts it, the serving loop that runs it,
//! and back. It is the only description of a request — stage spans nest
//! per thread and summarise an offline run; none is opened per request —
//! so a trace is keyed by a process-unique 128-bit [`TraceId`] minted at
//! the edge (or adopted from an inbound W3C `traceparent` header, see
//! [`open`]) and carried by value across thread boundaries. Each process a
//! request passes through is one **hop**: [`start`] mints the hop's
//! non-zero 64-bit id, the record keeps it ([`TraceRecord::span`]), and
//! [`traceparent`] names it as the parent-id sent to the next hop.
//!
//! The unit of attribution is the **phase**: a named `[start_us, end_us]`
//! interval ([`Phase`]) recorded against the trace from whichever thread
//! is doing the work (`queue_wait`, `admit`, `cache_lookup`,
//! `prefill`, `decode`, `extract`, `write`, …). Phases recorded with
//! [`phase_since_last`] tile the request's wall time exactly, so the sum
//! of phase durations accounts for the end-to-end latency — the property
//! `tests/trace_completeness.rs` asserts on a concurrent burst.
//!
//! Finished traces flow into a **bounded ring buffer** with tail-based
//! sampling: error, deadline-missed, fault-marked and slowest-p1% traces
//! are always kept, the rest are sampled 1-in-N ([`TraceConfig`]). Kept
//! traces are also emitted to the JSONL sink as single-line `trace`
//! events that the `astro-bench trace` analyzer reads back. Memory is bounded
//! no matter how long the server runs: the ring evicts oldest-first, and
//! the in-flight table holds one record per open connection.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A 128-bit trace identifier (non-zero, per the W3C trace-context rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Render as 32 lowercase hex digits (the `traceparent` wire form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse 32 lowercase hex digits; rejects the all-zero id.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mint a process-unique trace id: a counter (uniqueness) mixed with the
/// wall clock and pid (cross-process dispersion).
pub fn mint() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let salt = crate::unix_time_secs() ^ u64::from(std::process::id()).rotate_left(32);
    let hi = splitmix64(n ^ salt);
    let lo = splitmix64(n.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt.rotate_left(17));
    let id = (u128::from(hi) << 64) | u128::from(lo);
    TraceId(if id == 0 { 1 } else { id })
}

/// Mint a hop id: non-zero, process-unique (`splitmix64` is a bijection of
/// the counter) and salted with the pid so two processes' hops of one
/// trace differ.
fn mint_hop() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(n ^ u64::from(std::process::id()).rotate_left(32));
        if id != 0 {
            return id;
        }
    }
}

/// Parse a W3C `traceparent` header value
/// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`). Returns the
/// trace id and the remote parent span id. Rejects version `ff`, zero
/// ids, and malformed fields.
pub fn parse_traceparent(header: &str) -> Option<(TraceId, u64)> {
    let mut parts = header.trim().split('-');
    let (ver, trace, parent, flags) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() && ver == "00" {
        return None; // version 00 has exactly four fields
    }
    if ver.len() != 2 || ver == "ff" || !ver.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let trace = TraceId::from_hex(trace)?;
    if parent.len() != 16 || !parent.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    match u64::from_str_radix(parent, 16) {
        Ok(0) | Err(_) => None,
        Ok(p) => Some((trace, p)),
    }
}

/// Render a `traceparent` header value for a trace and a (non-zero) hop
/// id, with the sampled flag set.
pub fn format_traceparent(trace: TraceId, span: u64) -> String {
    format!("00-{:032x}-{span:016x}-01", trace.0)
}

/// One attributed interval of a request's lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`queue_wait`, `prefill`, …).
    pub name: &'static str,
    /// Start, microseconds since process epoch.
    pub start_us: u64,
    /// End, microseconds since process epoch.
    pub end_us: u64,
}

impl Phase {
    /// Phase duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Why a finished trace escaped sampling (tail-based keep reasons).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFlags {
    /// Request failed (5xx status or aborted before a response).
    pub error: bool,
    /// Request missed its deadline (504).
    pub deadline: bool,
    /// An injected fault fired on this request's path.
    pub fault: bool,
    /// End-to-end latency at or above the running p99.
    pub slow: bool,
}

/// One complete (or in-flight) request trace.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// The trace id.
    pub id: TraceId,
    /// Root operation name, e.g. `gateway./v1/score`.
    pub name: String,
    /// This hop's id, minted by [`start`]: the parent-id of every
    /// `traceparent` the hop sends, so the next hop's `parent_span` is it.
    pub span: u64,
    /// The previous hop's id from an inbound `traceparent`, if any.
    pub parent_span: Option<u64>,
    /// Start, microseconds since process epoch.
    pub start_us: u64,
    /// End, microseconds since process epoch (0 while in flight).
    pub end_us: u64,
    /// HTTP status of the response (0 = dropped before a response).
    pub status: u16,
    /// Tail-sampling classification.
    pub flags: TraceFlags,
    /// Why the trace was kept (`""` = sampled out or still in flight).
    pub keep: &'static str,
    /// String annotations (`cache = "hit"`, `fault = "serve.cache_full"`).
    pub attrs: Vec<(&'static str, String)>,
    /// Numeric annotations (`cached_tokens`, `prompt_tokens`, …).
    pub nums: Vec<(&'static str, f64)>,
    /// Attributed phases in recording order.
    pub phases: Vec<Phase>,
}

impl TraceRecord {
    /// End-to-end duration in microseconds (up to now while in flight).
    pub fn duration_us(&self) -> u64 {
        let end = if self.end_us == 0 { crate::elapsed_us() } else { self.end_us };
        end.saturating_sub(self.start_us)
    }

    /// Look up a phase by name (first match).
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of all phase durations in microseconds.
    pub fn phase_total_us(&self) -> u64 {
        self.phases.iter().map(Phase::duration_us).sum()
    }

    /// Serialise as a single-line `trace` JSON event in the sink's JSON
    /// subset (round-trips through `astro_eval::json`).
    pub fn to_json_line(&self) -> String {
        use crate::event::write_json_string;
        let mut out = String::with_capacity(256 + 48 * self.phases.len());
        out.push_str("{\"event\":\"trace\",\"trace\":");
        write_json_string(&mut out, &self.id.to_hex());
        out.push_str(",\"name\":");
        write_json_string(&mut out, &self.name);
        out.push_str(&format!(",\"span\":\"{:016x}\"", self.span));
        if let Some(p) = self.parent_span {
            out.push_str(&format!(",\"parent_span\":\"{p:016x}\""));
        }
        out.push_str(&format!(
            ",\"status\":{},\"start_us\":{},\"end_us\":{},\"dur_us\":{}",
            self.status,
            self.start_us,
            self.end_us,
            self.duration_us()
        ));
        out.push_str(",\"keep\":");
        write_json_string(&mut out, self.keep);
        out.push_str(",\"flags\":[");
        let mut first = true;
        for (set, label) in [
            (self.flags.error, "error"),
            (self.flags.deadline, "deadline"),
            (self.flags.fault, "fault"),
            (self.flags.slow, "slow"),
        ] {
            if set {
                if !first {
                    out.push(',');
                }
                write_json_string(&mut out, label);
                first = false;
            }
        }
        out.push(']');
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, k);
                out.push(':');
                write_json_string(&mut out, v);
            }
            out.push('}');
        }
        if !self.nums.is_empty() {
            out.push_str(",\"nums\":{");
            for (i, (k, v)) in self.nums.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, k);
                out.push(':');
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            out.push('}');
        }
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&mut out, p.name);
            out.push_str(&format!(",\"start_us\":{},\"end_us\":{}}}", p.start_us, p.end_us));
        }
        out.push_str("]}");
        out
    }
}

/// Tail-sampling and capacity knobs for the trace subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum finished traces retained in the ring (oldest evicted).
    pub ring_capacity: usize,
    /// Keep 1 in N unflagged traces (1 = keep everything).
    pub sample_one_in: u64,
    /// Minimum finished-trace count before the slowest-p1% keep rule
    /// activates (the p99 estimate needs data to be meaningful).
    pub slow_keep_min_count: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: 2048, sample_one_in: 1, slow_keep_min_count: 128 }
    }
}

fn inflight() -> &'static Mutex<HashMap<u128, TraceRecord>> {
    static S: OnceLock<Mutex<HashMap<u128, TraceRecord>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The bounded tail-sampling ring of kept traces, with its sampling
/// counters.
///
/// The process-global instance lives behind a
/// [`crate::sync::Mutex`] (std normally, the model-checker shim under
/// `--cfg astro_check`); it is a public type so the concurrency harness
/// (`tests/check_ring.rs`) can exhaustively explore concurrent
/// admit/evict/drain against a private instance. Every method keeps the
/// structural invariants `traces.len() <= ring_capacity` and
/// `kept == evicted + traces.len()` (over a ring that is never drained
/// mid-count); callers need no cross-call protocol beyond holding the
/// lock.
pub struct TraceRing {
    cfg: TraceConfig,
    traces: VecDeque<TraceRecord>,
    finished: u64,
    kept: u64,
    evicted: u64,
}

impl TraceRing {
    /// An empty ring with `cfg` (capacity and rate clamped to at least 1).
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRing {
            cfg: TraceConfig {
                ring_capacity: cfg.ring_capacity.max(1),
                sample_one_in: cfg.sample_one_in.max(1),
                ..cfg
            },
            traces: VecDeque::new(),
            finished: 0,
            kept: 0,
            evicted: 0,
        }
    }

    /// The ring's [`TraceConfig`].
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Classify a finished record for tail sampling and retain a copy if
    /// kept (evicting oldest-first past capacity). `slow` is the caller's
    /// latency verdict (ring state cannot compute percentiles). Returns
    /// the keep reason, `""` when sampled out; `rec.keep` and
    /// `rec.flags.slow` are stamped on the way in.
    pub fn admit(&mut self, rec: &mut TraceRecord, slow: bool) -> &'static str {
        self.finished += 1;
        let cfg = self.cfg;
        let keep = if rec.flags.deadline {
            "deadline"
        } else if rec.flags.error {
            "error"
        } else if rec.flags.fault {
            "fault"
        } else if slow {
            rec.flags.slow = true;
            "slow"
        } else if self.finished.is_multiple_of(cfg.sample_one_in) {
            "sampled"
        } else {
            ""
        };
        if !keep.is_empty() {
            rec.keep = keep;
            self.kept += 1;
            self.traces.push_back(rec.clone());
            while self.traces.len() > cfg.ring_capacity {
                self.traces.pop_front();
                self.evicted += 1;
            }
        }
        keep
    }

    /// Kept traces, oldest first (cloned).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.traces.iter().cloned().collect()
    }

    /// Remove and return every kept trace, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.traces.drain(..).collect()
    }

    /// Kept traces currently resident.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no kept trace is resident.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// `(finished, kept, evicted)` counters since construction/clear.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.finished, self.kept, self.evicted)
    }

    /// Clear traces and counters; the config is kept.
    pub fn clear(&mut self) {
        self.traces.clear();
        self.finished = 0;
        self.kept = 0;
        self.evicted = 0;
    }
}

fn ring() -> &'static crate::sync::Mutex<TraceRing> {
    static S: OnceLock<crate::sync::Mutex<TraceRing>> = OnceLock::new();
    S.get_or_init(|| crate::sync::Mutex::new(TraceRing::new(TraceConfig::default())))
}

/// Open a trace and mint its hop id. `start_us` anchors the trace at the
/// moment the request actually arrived (phases recorded later tile
/// `[start_us, end]`). Returns `false` if the id is already in flight
/// (caller should mint a fresh id — duplicate inbound `traceparent`s must
/// not merge records).
pub fn start(id: TraceId, name: &str, parent_span: Option<u64>, start_us: u64) -> bool {
    let rec = TraceRecord {
        id,
        name: name.to_string(),
        span: mint_hop(),
        parent_span,
        start_us,
        end_us: 0,
        status: 0,
        flags: TraceFlags::default(),
        keep: "",
        attrs: Vec::new(),
        nums: Vec::new(),
        phases: Vec::new(),
    };
    let (_order, mut map) = crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
    if map.contains_key(&id.0) {
        return false;
    }
    map.insert(id.0, rec);
    true
}

/// Open the trace of a request read from a connection accepted at
/// `t_conn`, the one way a server starts one: adopt the trace id and the
/// remote parent of its `traceparent` header when that parses, mint an id
/// otherwise — and also when the adopted one is already in flight here
/// (ids are one-shot: a replayed header must not merge two records) — and
/// record the `recv` phase from accept to now.
pub fn open(name: &str, traceparent: Option<&str>, t_conn: u64) -> TraceId {
    let (mut id, parent_span) = match traceparent.and_then(parse_traceparent) {
        Some((id, parent)) => (id, Some(parent)),
        None => (mint(), None),
    };
    while !start(id, name, parent_span, t_conn) {
        id = mint();
    }
    phase(id, "recv", t_conn, crate::elapsed_us());
    id
}

/// The `traceparent` value that names this hop of `id` as the parent —
/// what it sends to the next hop and back to its client. `None` once the
/// trace has finished.
pub fn traceparent(id: TraceId) -> Option<String> {
    let (_order, map) = crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
    map.get(&id.0).map(|rec| format_traceparent(id, rec.span))
}

fn with_inflight(id: TraceId, f: impl FnOnce(&mut TraceRecord)) {
    let (_order, mut map) = crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
    if let Some(rec) = map.get_mut(&id.0) {
        f(rec);
    }
}

/// Record a phase with explicit bounds. Silently a no-op if the trace is
/// unknown or already finished — late recorders (a scheduler stamping a
/// request whose handler already timed out) must never resurrect a trace.
pub fn phase(id: TraceId, name: &'static str, start_us: u64, end_us: u64) {
    with_inflight(id, |rec| {
        rec.phases.push(Phase { name, start_us, end_us: end_us.max(start_us) });
    });
}

/// Record a phase spanning from the previous phase's end (or the trace
/// start) to now, and return the phase's end timestamp. This is how
/// consecutive phases are guaranteed to tile the request's wall time with
/// no gaps. Returns `None` if the trace is unknown or finished.
pub fn phase_since_last(id: TraceId, name: &'static str) -> Option<u64> {
    let now = crate::elapsed_us();
    let mut recorded = None;
    with_inflight(id, |rec| {
        let start = rec.phases.last().map_or(rec.start_us, |p| p.end_us);
        rec.phases.push(Phase { name, start_us: start, end_us: now.max(start) });
        recorded = Some(now.max(start));
    });
    recorded
}

/// Attach or overwrite a string annotation.
pub fn annotate(id: TraceId, key: &'static str, value: &str) {
    with_inflight(id, |rec| match rec.attrs.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value.to_string(),
        None => rec.attrs.push((key, value.to_string())),
    });
}

/// Attach or overwrite a numeric annotation.
pub fn record_num(id: TraceId, key: &'static str, v: f64) {
    with_inflight(id, |rec| match rec.nums.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = v,
        None => rec.nums.push((key, v)),
    });
}

/// Mark the trace as having hit an injected fault at `site`; fault-marked
/// traces always survive tail sampling.
pub fn mark_fault(id: TraceId, site: &str) {
    with_inflight(id, |rec| {
        rec.flags.fault = true;
        match rec.attrs.iter_mut().find(|(k, _)| *k == "fault") {
            Some(slot) => {
                if !slot.1.split(',').any(|s| s == site) {
                    slot.1.push(',');
                    slot.1.push_str(site);
                }
            }
            None => rec.attrs.push(("fault", site.to_string())),
        }
    });
}

/// Mark the trace as having missed its deadline (kept unconditionally).
pub fn mark_deadline(id: TraceId) {
    with_inflight(id, |rec| rec.flags.deadline = true);
}

/// Clone the in-flight record (for rendering a phase breakdown into the
/// response body before the trace finishes). `None` once finished.
pub fn inflight_snapshot(id: TraceId) -> Option<TraceRecord> {
    let (_order, map) = crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
    map.get(&id.0).cloned()
}

/// Close the trace: stamp the end time and status, classify it for tail
/// sampling, feed the latency histograms, retain it in the ring if kept
/// (also emitting a `trace` JSONL event), and return the finished record.
/// One-shot: a second finish for the same id returns `None`.
pub fn finish(id: TraceId, status: u16) -> Option<TraceRecord> {
    let mut rec = {
        let (_order, mut map) =
            crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
        map.remove(&id.0)?
    };
    rec.end_us = crate::elapsed_us();
    rec.status = status;
    if status == 0 || status >= 500 {
        rec.flags.error = true;
    }
    if status == 504 {
        rec.flags.deadline = true;
    }
    let e2e = rec.duration_us() as f64;
    let hist = crate::metrics::histogram("trace.e2e_us");
    let (prior_count, p99) = (hist.count(), hist.quantile(0.99));
    hist.observe_with_exemplar(e2e, rec.id.0);
    for p in &rec.phases {
        crate::metrics::histogram(&format!("trace.phase.{}_us", p.name))
            .observe(p.duration_us() as f64);
    }
    let keep = {
        let (_order, mut ring) = crate::sync::lock_ranked("telemetry.trace.ring", ring());
        let slow = prior_count >= ring.config().slow_keep_min_count && e2e >= p99;
        ring.admit(&mut rec, slow)
    };
    crate::metrics::counter("trace.finished").inc();
    if keep.is_empty() {
        crate::metrics::counter("trace.sampled_out").inc();
    } else {
        crate::metrics::counter("trace.kept").inc();
        if crate::sink::is_active() {
            crate::sink::emit_line(&rec.to_json_line());
        }
    }
    Some(rec)
}

/// Snapshot the kept-trace ring, oldest first.
pub fn ring_snapshot() -> Vec<TraceRecord> {
    let (_order, ring) = crate::sync::lock_ranked("telemetry.trace.ring", ring());
    ring.snapshot()
}

/// Drain the kept-trace ring, oldest first.
pub fn drain_ring() -> Vec<TraceRecord> {
    let (_order, mut ring) = crate::sync::lock_ranked("telemetry.trace.ring", ring());
    ring.drain()
}

/// Write every kept trace in the ring to `path` as JSONL; returns the
/// number of lines written.
pub fn write_ring_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    let traces = ring_snapshot();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in &traces {
        writeln!(w, "{}", t.to_json_line())?;
    }
    w.flush()?;
    Ok(traces.len())
}

/// Point-in-time counters for the trace subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces currently open.
    pub inflight: usize,
    /// Traces finished since start/reset.
    pub finished: u64,
    /// Finished traces that survived tail sampling.
    pub kept: u64,
    /// Kept traces evicted from the ring by capacity.
    pub evicted: u64,
    /// Kept traces currently in the ring.
    pub ring_len: usize,
}

/// Read the trace subsystem's counters.
pub fn stats() -> TraceStats {
    let inflight_n = {
        let (_order, map) = crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
        map.len()
    };
    let (_order, ring) = crate::sync::lock_ranked("telemetry.trace.ring", ring());
    let (finished, kept, evicted) = ring.counters();
    TraceStats { inflight: inflight_n, finished, kept, evicted, ring_len: ring.len() }
}

/// Clear all trace state — in-flight table, ring and counters (tests and
/// multi-run binaries).
pub fn reset() {
    {
        let (_order, mut map) =
            crate::lockcheck::lock_ranked("telemetry.trace.inflight", inflight());
        map.clear();
    }
    let (_order, mut ring) = crate::sync::lock_ranked("telemetry.trace.ring", ring());
    ring.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Trace state (the in-flight table and the ring) is process-global;
    /// tests that mutate it serialise on this gate.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> (crate::lockcheck::LockToken, std::sync::MutexGuard<'static, ()>) {
        crate::lockcheck::lock_ranked("test.trace_gate", &GATE)
    }

    #[test]
    fn trace_id_hex_round_trip() {
        let id = TraceId(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(id.to_hex().len(), 32);
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex("0"), None);
        assert_eq!(TraceId::from_hex(&"0".repeat(32)), None, "zero id rejected");
        assert_eq!(TraceId::from_hex(&"G".repeat(32)), None);
        assert_eq!(TraceId::from_hex(&"A".repeat(32)), None, "uppercase rejected");
    }

    #[test]
    fn mint_is_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = mint();
            assert_ne!(id.0, 0);
            assert!(seen.insert(id.0), "duplicate minted id {id}");
        }
    }

    #[test]
    fn traceparent_round_trip_and_rejects() {
        let id = mint();
        let header = format_traceparent(id, 0xdead_beef);
        let (t, p) = parse_traceparent(&header).expect("own header parses");
        assert_eq!(t, id);
        assert_eq!(p, 0xdead_beef);
        // W3C examples.
        let (t, p) = parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        )
        .unwrap();
        assert_eq!(t.to_hex(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(p, 0x00f0_67aa_0ba9_02b7);
        for bad in [
            "",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-4bf92f3577b34da6-00f067aa0ba902b7-01",                 // short trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-xx", // extra field
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn lifecycle_phases_tile_and_finish_is_one_shot() {
        let _g = gate();
        reset();
        let id = mint();
        let t0 = crate::elapsed_us();
        assert!(start(id, "gateway./v1/score", Some(7), t0));
        assert!(!start(id, "dup", None, t0), "duplicate id rejected");
        let e1 = phase_since_last(id, "recv").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let e2 = phase_since_last(id, "queue_wait").unwrap();
        phase(id, "decode", e2, e2 + 10);
        annotate(id, "cache", "hit");
        record_num(id, "cached_tokens", 12.0);
        let snap = inflight_snapshot(id).unwrap();
        assert_eq!(snap.phases.len(), 3);
        assert_eq!(snap.phases[0].start_us, t0, "first phase starts at trace start");
        assert_eq!(snap.phases[0].end_us, e1);
        assert_eq!(snap.phases[1].start_us, e1, "phases tile with no gaps");

        let rec = finish(id, 200).expect("finish returns the record");
        assert!(inflight_snapshot(id).is_none());
        assert_eq!(rec.status, 200);
        assert_eq!(rec.keep, "sampled", "default config keeps everything");
        assert!(rec.end_us >= rec.start_us);
        assert_eq!(rec.phase("decode").unwrap().duration_us(), 10);
        assert!(finish(id, 200).is_none(), "finish is one-shot");
        // Late recorders on a finished trace are silent no-ops.
        phase(id, "late", 0, 1);
        assert!(phase_since_last(id, "late").is_none());
        assert_eq!(ring_snapshot().len(), 1);
        reset();
    }

    /// A finished record with `flags`, for driving a private ring.
    fn finished_record(flags: TraceFlags) -> TraceRecord {
        TraceRecord {
            id: mint(),
            name: "r".to_string(),
            span: 1,
            parent_span: None,
            start_us: 0,
            end_us: 1,
            status: 200,
            flags,
            keep: "",
            attrs: Vec::new(),
            nums: Vec::new(),
            phases: Vec::new(),
        }
    }

    #[test]
    fn tail_sampling_keeps_flagged_and_samples_rest() {
        // Sampling on a private ring: 10 clean traces → 2 sampled;
        // 1 error + 1 deadline + 1 fault → all kept.
        let mut ring = TraceRing::new(TraceConfig {
            sample_one_in: 5,
            slow_keep_min_count: u64::MAX,
            ..TraceConfig::default()
        });
        for _ in 0..10 {
            let keep = ring.admit(&mut finished_record(TraceFlags::default()), false);
            assert!(keep.is_empty() || keep == "sampled");
        }
        for (flags, reason) in [
            (TraceFlags { error: true, ..TraceFlags::default() }, "error"),
            (TraceFlags { deadline: true, ..TraceFlags::default() }, "deadline"),
            (TraceFlags { fault: true, ..TraceFlags::default() }, "fault"),
        ] {
            assert_eq!(ring.admit(&mut finished_record(flags), false), reason);
        }
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 2 + 3, "2 sampled of 10, plus 3 flagged: {kept:#?}");
        let (finished, kept, _) = ring.counters();
        assert_eq!(finished, 13);
        assert_eq!(kept, 5);

        // The global `finish` path flags by status and fault marks, at the
        // default config.
        let _g = gate();
        reset();
        let t0 = crate::elapsed_us();
        let err = mint();
        assert!(start(err, "err", None, t0));
        assert_eq!(finish(err, 500).unwrap().keep, "error");
        let dl = mint();
        assert!(start(dl, "dl", None, t0));
        let rec = finish(dl, 504).unwrap();
        assert_eq!(rec.keep, "deadline");
        assert!(rec.flags.deadline);
        let flt = mint();
        assert!(start(flt, "flt", None, t0));
        mark_fault(flt, "serve.cache_full");
        mark_fault(flt, "serve.cache_full"); // idempotent
        let rec = finish(flt, 200).unwrap();
        assert_eq!(rec.keep, "fault");
        assert_eq!(rec.attrs, vec![("fault", "serve.cache_full".to_string())]);
        reset();
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut ring = TraceRing::new(TraceConfig {
            ring_capacity: 4,
            slow_keep_min_count: u64::MAX,
            ..TraceConfig::default()
        });
        let mut ids = Vec::new();
        for _ in 0..10 {
            let mut rec = finished_record(TraceFlags::default());
            ids.push(rec.id);
            ring.admit(&mut rec, false);
        }
        assert_eq!(ring.len(), 4);
        let kept: Vec<TraceId> = ring.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(kept, ids[6..].to_vec(), "oldest evicted first");
        assert_eq!(ring.counters().2, 6);
        assert_eq!(ring.drain().len(), 4);
        assert!(ring.snapshot().is_empty());
    }

    /// The parent-id a hop sends is the id the trace minted for it: valid
    /// W3C (non-zero) from the first request of a process on, whatever
    /// else the process has or has not opened.
    #[test]
    fn hop_id_round_trips_through_traceparent_and_open_adopts_or_mints() {
        let _g = gate();
        reset();
        let t0 = crate::elapsed_us();
        let id = mint();
        assert!(start(id, "router./v1/score", None, t0));
        let hop = inflight_snapshot(id).unwrap().span;
        let header = traceparent(id).expect("in flight");
        assert_eq!(parse_traceparent(&header), Some((id, hop)), "{header}");

        // The next hop adopts id and parent — unless the id is in flight in
        // this process, where it re-mints and keeps the parent.
        let dup = open("gateway./v1/score", Some(&header), t0);
        assert_ne!(dup, id);
        finish(id, 200);
        assert_eq!(traceparent(id), None, "finished");
        let next = open("gateway./v1/score", Some(&header), t0);
        assert_eq!(next, id);
        let minted = open("gateway.reject", Some("garbage"), t0);
        let hops: Vec<(u64, Option<u64>)> = [dup, next, minted]
            .iter()
            .map(|&t| finish(t, 200).map(|r| (r.span, r.parent_span)).unwrap())
            .collect();
        assert_eq!(hops.iter().map(|h| h.1).collect::<Vec<_>>(), [Some(hop), Some(hop), None]);
        let mut ids = vec![hop, hops[0].0, hops[1].0, hops[2].0];
        assert!(!ids.contains(&0));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "hop ids are process-unique");
        assert_eq!(ring_snapshot().last().unwrap().phase("recv").unwrap().start_us, t0);
        reset();
    }

    #[test]
    fn json_line_shape() {
        let _g = gate();
        reset();
        let id = mint();
        let t0 = crate::elapsed_us();
        assert!(start(id, "gateway./v1/score", Some(0xabc), t0));
        phase(id, "recv", t0, t0 + 5);
        annotate(id, "cache", "miss");
        record_num(id, "prompt_tokens", 17.0);
        mark_fault(id, "gateway.accept_fail");
        let rec = finish(id, 503).unwrap();
        let line = rec.to_json_line();
        assert!(line.starts_with("{\"event\":\"trace\""), "{line}");
        assert!(line.contains(&format!("\"span\":\"{:016x}\"", rec.span)), "{line}");
        assert!(line.contains(&format!("\"trace\":\"{}\"", id.to_hex())), "{line}");
        assert!(line.contains("\"parent_span\":\"0000000000000abc\""), "{line}");
        assert!(line.contains("\"status\":503"), "{line}");
        assert!(line.contains("\"error\""), "{line}");
        assert!(line.contains("\"fault\""), "{line}");
        assert!(line.contains("\"attrs\":{"), "{line}");
        assert!(line.contains("\"nums\":{\"prompt_tokens\":17}"), "{line}");
        assert!(line.contains("\"phases\":[{\"name\":\"recv\""), "{line}");
        assert!(!line.contains('\n'));
        reset();
    }
}
