//! The HTTP front door both fronts share — the gateway (one per replica)
//! and the router in front of the replicas.
//!
//! * **Wire format.** Minimal HTTP/1.1 request parsing and response
//!   writing over raw streams: one request per connection
//!   (`Connection: close`), `Content-Length` bodies only (any
//!   `Transfer-Encoding`, a second `Content-Length` or a non-digit length
//!   is a 400, so no two parsers can frame one stream differently), ASCII
//!   header names. Nothing that would require a dependency.
//! * **One listener.** [`Listener`] binds, accepts with one thread per
//!   connection (a panicking handler is caught and counted), stops
//!   idempotently and waits for open connections to finish.
//! * **One connection lifecycle.** Each connection's handler reads the
//!   request under the front's bounds, maps a parse error to its 400 /
//!   408 / 413 under a `{front}.reject` trace or routes the request under
//!   a `{front}.{path}` trace, writes the [`Response`] with
//!   `traceparent`, drains what an early answer left unread, and closes
//!   the trace. What differs between the fronts is their [`Front`]
//!   implementation.

use crate::api;
use astro_telemetry::metrics;
use astro_telemetry::trace::{self, TraceId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on the request head (request line + headers) so a hostile client
/// cannot grow memory by never sending `\r\n\r\n`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target path, e.g. `/v1/score` (query string split off).
    pub path: String,
    /// Raw query string after `?`, empty when absent.
    pub query: String,
    /// Header name/value pairs in arrival order; names not normalised.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` long; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when the query string contains `key=value` as one exact
    /// `&`-separated pair (no percent-decoding — the gateway's query
    /// vocabulary is fixed tokens like `format=prometheus`).
    pub fn query_param_is(&self, key: &str, value: &str) -> bool {
        self.query
            .split('&')
            .any(|pair| pair.split_once('=') == Some((key, value)))
    }
}

/// Why a request could not be read. Each variant maps onto one HTTP
/// status (or a silent close) in the connection handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or head too large → 400.
    BadRequest(String),
    /// Declared body exceeds the configured bound → 413.
    PayloadTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// The socket read timed out mid-request → 408.
    Timeout,
    /// The peer closed before a full request arrived → close silently.
    ConnectionClosed,
    /// Any other I/O failure → close silently.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "payload too large: {declared} > {limit}")
            }
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn classify_io(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => HttpError::ConnectionClosed,
        _ => HttpError::Io(e.to_string()),
    }
}

/// Read and parse one request from `stream`. `max_body` bounds the
/// accepted `Content-Length`; the head is bounded by [`MAX_HEAD_BYTES`].
/// The caller is expected to have set a read timeout on the stream.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    // Accumulate until the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        // The bound is on the head, not on what the reads so far happened
        // to buffer: the same stream gets the same answer however TCP
        // segmented it.
        match find_head_end(&buf) {
            Some(pos) if pos <= MAX_HEAD_BYTES => break pos,
            None if buf.len() < MAX_HEAD_BYTES + 4 => {}
            _ => {
                return Err(HttpError::BadRequest(format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes"
                )))
            }
        }
        let n = stream.read(&mut chunk).map_err(classify_io)?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty head".to_string()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        body: Vec::new(),
    };
    // Framing must be unambiguous: a body this parser frames one way and
    // an intermediary another is a smuggled second request.
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "Transfer-Encoding is not supported; send a Content-Length body".to_string(),
        ));
    }
    let mut lengths = req
        .headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.as_str());
    let declared = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::BadRequest("more than one Content-Length".to_string()))
        }
        // Digits only: `usize::from_str` alone would also take "+4".
        (Some(v), None) => v
            .parse::<usize>()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?,
    };
    if declared > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared,
            limit: max_body,
        });
    }

    // Body bytes already buffered past the head, then read the rest.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < declared {
        let n = stream.read(&mut chunk).map_err(classify_io)?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(declared);
    Ok(Request { body, ..req })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Canonical reason phrase for the status codes the fronts emit.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one complete response (`Connection: close`) and flush.
/// `extra_headers` are appended verbatim (e.g. `("Retry-After", "2")`).
/// `content_type` is usually `application/json`; the Prometheus
/// exposition endpoint uses `text/plain; version=0.0.4`.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(128 + body.len());
    out.push_str(&format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len()
    ));
    for (k, v) in extra_headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Finish an early rejection — a response written before the request was
/// fully read. Closing a socket with unread data makes the kernel send
/// RST, which would destroy the response just queued: half-close, then
/// drain what the peer still sends, bounded by the stream's read timeout
/// and a byte budget.
pub fn drain_unread(stream: &mut std::net::TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    let mut budget = 256 * 1024usize;
    while budget > 0 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// `Content-Type` of every JSON answer.
pub const CT_JSON: &str = "application/json";

/// One response, before the connection handler adds `traceparent`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value: [`CT_JSON`] unless a route says otherwise.
    pub content_type: &'static str,
    /// Extra headers, written in order (`Retry-After`, `x-astro-replica`, …).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, content_type: CT_JSON, headers: Vec::new(), body }
    }

    /// `status` with the JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response { status, ..Response::ok(api::error_body(message)) }
    }

    /// [`Response::error`] that tells the client when to come back
    /// (`Retry-After`, in seconds).
    pub fn retry(status: u16, after: u64, message: &str) -> Response {
        let mut resp = Response::error(status, message);
        resp.headers.push(("Retry-After", after.to_string()));
        resp
    }
}

/// A fault a front injects on a fresh connection, before its request is
/// read ([`Front::injected_fault`]). The payload is the fault site, which
/// also names the counter of its injections.
#[derive(Clone, Copy, Debug)]
pub enum Injected {
    /// Drop the connection unanswered; a status-0 `{front}.reject` trace
    /// marked with the site records the drop.
    Drop(&'static str),
    /// Answer exactly like a request read that timed out (408), under a
    /// `{front}.reject` trace marked with the site.
    Stall(&'static str),
}

/// What one HTTP front adds to the shared connection lifecycle: its name,
/// its read bounds, its routes, and what it does to every answer.
pub trait Front: Send + Sync + 'static {
    /// Prefix of the front's metric and trace names: `gateway`, `router`.
    const NAME: &'static str;

    /// Socket read timeout while a request is read (the slow-client bound).
    fn read_timeout(&self) -> Duration;

    /// Largest request body accepted; a larger declared one is a 413.
    fn max_body_bytes(&self) -> usize;

    /// A fault to inject on this connection; none by default.
    fn injected_fault(&self) -> Option<Injected> {
        None
    }

    /// Answer a parsed request. Its trace `tid` is open as
    /// `{NAME}.{path}`; `peer` is the client's IP address.
    fn route(&self, req: &Request, peer: &str, tid: TraceId) -> Response;

    /// Every answer, routed (`req` is `Some`) or rejected, passes here just
    /// before it is written, `elapsed` after its connection was accepted.
    fn answering(
        &self,
        _req: Option<&Request>,
        _tid: TraceId,
        _resp: &mut Response,
        _elapsed: Duration,
    ) {
    }
}

/// Serve one connection of `front`: read one request, answer it, close.
/// A request that cannot be read is answered 400 / 408 / 413 under a
/// `{front}.reject` trace (a peer that vanished gets no answer); one that
/// can is traced as `{front}.{path}` and routed. The response carries the
/// trace's `traceparent` (trace id + this hop's id), an early answer drains
/// what the client still sends, and the trace closes with a `write` phase
/// and the final status: exactly one finished trace per answer.
fn serve_connection<F: Front>(front: &F, mut stream: TcpStream) {
    let t_conn = astro_telemetry::elapsed_us();
    let t0 = Instant::now();
    // The trace of a request that never parsed: minted id, no remote parent.
    let reject_trace = || trace::open(&format!("{}.reject", F::NAME), None, t_conn);
    // An injected fault is counted under its site's name.
    let stalled = match front.injected_fault() {
        Some(Injected::Drop(site)) => {
            metrics::counter(site).add(1);
            let tid = reject_trace();
            trace::mark_fault(tid, site);
            trace::finish(tid, 0);
            return;
        }
        Some(Injected::Stall(site)) => {
            metrics::counter(site).add(1);
            Some(site)
        }
        None => None,
    };
    metrics::counter(&format!("{}.connections", F::NAME)).add(1);
    let _ = stream.set_read_timeout(Some(front.read_timeout()));
    let read = match stalled {
        Some(_) => Err(HttpError::Timeout),
        None => read_request(&mut stream, front.max_body_bytes()),
    };
    let (mut resp, tid, req) = match read {
        Ok(req) => {
            let name = format!("{}.{}", F::NAME, req.path);
            let tid = trace::open(&name, req.header("traceparent"), t_conn);
            let peer = stream
                .peer_addr()
                .map_or_else(|_| "unknown".to_string(), |a| a.ip().to_string());
            (front.route(&req, &peer, tid), tid, Some(req))
        }
        Err(e) => {
            let (status, message) = match e {
                HttpError::BadRequest(m) => (400, m),
                HttpError::PayloadTooLarge { declared, limit } => {
                    (413, format!("body of {declared} bytes exceeds {limit}"))
                }
                HttpError::Timeout => (408, "request read timed out".to_string()),
                // Peer vanished before sending a request; nothing to answer.
                HttpError::ConnectionClosed | HttpError::Io(_) => return,
            };
            let tid = reject_trace();
            if let Some(site) = stalled {
                trace::mark_fault(tid, site);
            }
            (Response::error(status, &message), tid, None)
        }
    };
    front.answering(req.as_ref(), tid, &mut resp, t0.elapsed());
    if let Some(tp) = trace::traceparent(tid) {
        resp.headers.push(("traceparent", tp));
    }
    let headers: Vec<(&str, &str)> = resp.headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let written = write_response(&mut stream, resp.status, resp.content_type, &headers, &resp.body);
    if written.is_ok() && req.is_none() {
        drain_unread(&mut stream);
    }
    trace::phase_since_last(tid, "write");
    trace::finish(tid, resp.status);
}

/// A bound socket whose accept loop serves each connection of one
/// [`Front`] on a thread of its own. A handler that
/// panics is caught and counted (`{front}.handler_panics`); the loop keeps
/// accepting until [`Listener::stop`], which dropping also does.
pub struct Listener {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    open_conns: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `bind` (port 0 = ephemeral) and start accepting for `front`.
    pub fn bind<F: Front>(bind: &str, front: Arc<F>) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let open_conns = Arc::new(AtomicUsize::new(0));
        let (stop, open) = (Arc::clone(&stopping), Arc::clone(&open_conns));
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                open.fetch_add(1, Ordering::SeqCst);
                let (front, open) = (Arc::clone(&front), Arc::clone(&open));
                std::thread::spawn(move || {
                    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        serve_connection(&*front, stream);
                    }));
                    if served.is_err() {
                        metrics::counter(&format!("{}.handler_panics", F::NAME)).add(1);
                    }
                    open.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        Ok(Listener { addr, stopping, open_conns, acceptor: Some(acceptor) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop; idempotent. Connections
    /// already accepted are still served.
    pub fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // `accept` blocks; poke it with a throwaway connection so the
            // loop re-checks the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
    }

    /// Wait up to `timeout` for every accepted connection to finish; true
    /// when none is left open.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.open_conns.load(Ordering::SeqCst) == 0
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        read_request(&mut cursor, 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/score HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/score");
        assert_eq!(req.header("Content-Length"), Some("4"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn splits_query_string_off_the_path() {
        let req = parse(b"GET /metricsz?format=prometheus&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metricsz");
        assert_eq!(req.query, "format=prometheus&x=1");
        assert!(req.query_param_is("format", "prometheus"));
        assert!(req.query_param_is("x", "1"));
        assert!(!req.query_param_is("format", "json"));
        assert!(!req.query_param_is("missing", "1"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = parse(b"GET / HTTP/1.1\r\nX-Client: abc\r\n\r\n").unwrap();
        assert_eq!(req.header("x-client"), Some("abc"));
        assert_eq!(req.header("X-CLIENT"), Some("abc"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn rejects_malformed_request_line() {
        for raw in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET noslash HTTP/1.1\r\n\r\n".to_vec(),
            b"GET / SPDY/3\r\n\r\n".to_vec(),
        ] {
            assert!(
                matches!(parse(&raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_body_before_reading_it() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        match parse(raw) {
            Err(HttpError::PayloadTooLarge { declared, limit }) => {
                assert_eq!(declared, 9999);
                assert_eq!(limit, 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_content_length() {
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: \r\n\r\n",
            // Two lengths, equal or not: which one frames the body?
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 9\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_transfer_encoding() {
        for raw in [
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\ntransfer-encoding: chunked\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn truncated_request_is_connection_closed() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::ConnectionClosed)
        );
        assert_eq!(parse(b""), Err(HttpError::ConnectionClosed));
    }

    #[test]
    fn response_has_content_length_and_close() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "2")],
            "{\"e\":1}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"e\":1}"));
    }
}
