//! Seeded fuzz of the three parsers that read bytes from outside the
//! process: [`http::read_request`] (every connection), [`Json::parse`]
//! (every request body, and every model answer the extraction cascade
//! looks at) and [`client::read_response`] (every replica answer the
//! router passes on, every probe).
//!
//! Deterministic randomized trials (seeded `astro_prng::Rng`) over
//! *mutated valid inputs*: a well-formed request or document is drawn,
//! then damaged the ways real peers and real bugs damage them. The
//! contract under test is totality — every input parses or returns a
//! typed error; never a panic, never a read loop that outlives its input
//! (the socket's `read_timeout` bounds only a peer that stops sending),
//! never recursion deeper than the parser's own bound — plus one
//! differential each:
//!
//! * **HTTP** — the verdict is a function of the byte stream, not of how
//!   TCP happened to segment it: one whole-buffer read and a dribble of
//!   short reads give the same `Result`, and a peer that stalls instead
//!   of closing turns `ConnectionClosed` into `Timeout` and changes
//!   nothing else.
//! * **JSON** — a drawn value rendered with arbitrary whitespace parses
//!   back to itself, and padding any input with whitespace changes
//!   neither the verdict nor the value.
//! * **Response** — the verdict is blind to segmentation too, and a
//!   response is a success only whole: cut at any byte offset, or with a
//!   body that is not its declared length, it is an error — the router
//!   re-dispatches instead of passing half an answer on.
//!
//! The framing bugs PR 15 found by inspection, and the truncated `200`
//! the client used to accept, are the fixed seeds every run starts from. Each fuzz runs on a spawned thread — the default
//! stack a gateway handler gets — under a watchdog, so unbounded
//! recursion or a hang fails the test instead of the suite.

use astro_eval::json::Json;
use astro_gateway::client::{self, HttpResponse};
use astro_gateway::http::{self, HttpError, Request, MAX_HEAD_BYTES};
use astro_prng::Rng;
use std::io::Read;
use std::time::Duration;

/// The gateway's default body bound.
const MAX_BODY: usize = 64 * 1024;

/// Run `f` on a default-stack thread and fail if it panics, overflows
/// that stack or does not finish.
fn on_a_handler_thread(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => handle.join().expect("fuzz thread"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{what} panicked: {:?}", handle.join().err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
    }
}

/// A reader over `data` that hands out at most `max_chunk` bytes per
/// call (sizes drawn from `seed`; a parser asks for less), then either reports end-of-stream or —
/// a peer that stalls — `WouldBlock`, which is what a socket read returns
/// once `read_timeout` passes. Panics if it is polled again after that:
/// a parser that keeps reading a finished stream would spin on a socket.
struct Peer<'a> {
    data: &'a [u8],
    rng: Rng,
    max_chunk: usize,
    stalls: bool,
    finished: bool,
}

impl<'a> Peer<'a> {
    fn new(data: &'a [u8], seed: u64, max_chunk: usize, stalls: bool) -> Self {
        Peer { data, rng: Rng::seed_from(seed), max_chunk, stalls, finished: false }
    }
}

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            assert!(!self.finished, "read again after the stream ended");
            self.finished = true;
            return if self.stalls { Err(std::io::ErrorKind::WouldBlock.into()) } else { Ok(0) };
        }
        let n = self.rng.range(1, self.max_chunk + 1).min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Parse `raw` three ways and check they agree; returns the verdict.
fn read_every_way(raw: &[u8], seed: u64) -> Result<Request, HttpError> {
    let whole = http::read_request(&mut Peer::new(raw, seed, 1 << 20, false), MAX_BODY);
    // At least 64 reads, and short ones for the small streams where every
    // boundary falls inside the head.
    let dribble = 7.max(raw.len() / 64);
    let dribbled = http::read_request(&mut Peer::new(raw, seed, dribble, false), MAX_BODY);
    assert!(whole == dribbled, "segmentation changed the verdict for {:?}", lossy(raw));
    let stalled = http::read_request(&mut Peer::new(raw, seed, dribble, true), MAX_BODY);
    let expected = match &whole {
        Err(HttpError::ConnectionClosed) => Err(HttpError::Timeout),
        other => other.clone(),
    };
    assert!(stalled == expected, "a stalling peer changed the verdict for {:?}", lossy(raw));
    if let Ok(req) = &whole {
        assert!(req.body.len() <= MAX_BODY && req.path.starts_with('/'), "{req:?}");
    }
    whole
}

fn lossy(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    match text.char_indices().nth(400) {
        Some((cut, _)) => format!("{}… ({} bytes)", &text[..cut], raw.len()),
        None => text.into_owned(),
    }
}

/// A well-formed request: its head lines (request line first) and body.
fn draw_request(rng: &mut Rng) -> (Vec<String>, Vec<u8>) {
    let (method, path) = *rng.choose(&[
        ("GET", "/healthz"),
        ("GET", "/metricsz?format=prometheus"),
        ("POST", "/v1/score"),
        ("POST", "/v1/generate"),
        ("POST", "/admin/drain"),
    ]);
    let body = if method == "POST" { render(&draw_json(rng, 3), rng).into_bytes() } else { Vec::new() };
    let mut head = vec![format!("{method} {path} HTTP/1.1"), "Host: fuzz".to_string()];
    if rng.chance(0.5) {
        head.push(format!("traceparent: 00-{:032x}-{:016x}-01", rng.next_u64(), rng.next_u64()));
    }
    if method == "POST" || rng.chance(0.3) {
        let name = *rng.choose(&["Content-Length", "content-length", "CONTENT-LENGTH"]);
        head.insert(rng.range(1, head.len() + 1), format!("{name}: {}", body.len()));
    }
    (head, body)
}

fn assemble(head: &[String], eol: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = head.join(eol).into_bytes();
    raw.extend_from_slice(eol.as_bytes());
    raw.extend_from_slice(eol.as_bytes());
    raw.extend_from_slice(body);
    raw
}

/// What a damaged request must come to. `Any` is totality and the
/// differentials of [`read_every_way`] alone.
enum Expect {
    Body(Vec<u8>),
    Closed,
    BadRequest,
    TooLarge(usize),
    Any,
}

fn check(what: &str, verdict: &Result<Request, HttpError>, expect: &Expect) {
    let met = match expect {
        Expect::Body(body) => verdict.as_ref().map(|r| &r.body) == Ok(body),
        Expect::Closed => *verdict == Err(HttpError::ConnectionClosed),
        Expect::BadRequest => matches!(verdict, Err(HttpError::BadRequest(_))),
        Expect::TooLarge(declared) => {
            *verdict == Err(HttpError::PayloadTooLarge { declared: *declared, limit: MAX_BODY })
        }
        Expect::Any => true,
    };
    assert!(met, "{what}: {:?}", verdict.as_ref().map(|r| r.body.len()));
}

#[test]
fn read_request_is_total_and_blind_to_segmentation() {
    on_a_handler_thread("read_request fuzz", || {
        // PR 15's framing bugs, and the request that found its fourth (a
        // body the JSON parser recursed on once per byte) as the body.
        let deep = "[".repeat(60_000);
        let fixed: [(&[u8], &[u8], Expect); 5] = [
            (b"POST /v1/score HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n", b"abcd", Expect::BadRequest),
            (b"POST /v1/score HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 9\r\n\r\n", b"abcd", Expect::BadRequest),
            (b"POST /v1/score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", b"4\r\nabcd\r\n0\r\n\r\n", Expect::BadRequest),
            (b"POST /v1/score HTTP/1.1\r\nContent-Length: +4\r\n\r\n", b"abcd", Expect::BadRequest),
            (b"POST /v1/score HTTP/1.1\r\nContent-Length: 60000\r\n\r\n", deep.as_bytes(), Expect::Body(deep.clone().into_bytes())),
        ];
        for (i, (head, body, expect)) in fixed.iter().enumerate() {
            let verdict = read_every_way(&[*head, *body].concat(), i as u64);
            check(&format!("fixed seed {i}"), &verdict, expect);
        }

        let mut rng = Rng::seed_from(0x4177_f022);
        for trial in 0..3_000u64 {
            let (mut head, body) = draw_request(&mut rng);
            let length_at = head.iter().position(|l| l.to_ascii_lowercase().starts_with("content-length"));
            let (raw, expect) = match (rng.index(10), length_at) {
                // Unharmed: parses, and frames exactly the body sent.
                (0, _) => (assemble(&head, "\r\n", &body), Expect::Body(body)),
                // Cut anywhere short of the end: the peer went away.
                (1, _) => {
                    let mut raw = assemble(&head, "\r\n", &body);
                    raw.truncate(rng.index(raw.len()));
                    (raw, Expect::Closed)
                }
                // A second Content-Length, agreeing or not.
                (2, Some(_)) => {
                    let value = if rng.chance(0.5) { body.len() } else { rng.index(100) };
                    head.insert(rng.range(1, head.len() + 1), format!("Content-Length: {value}"));
                    (assemble(&head, "\r\n", &body), Expect::BadRequest)
                }
                // A length that is not a plain decimal that fits.
                (3, Some(at)) => {
                    let n = body.len();
                    let junk = [
                        format!("+{n}"),
                        format!("-{n}"),
                        format!("{n} {n}"),
                        format!("{n},{n}"),
                        format!("0x{n:x}"),
                        format!("{n}.0"),
                        "nope".to_string(),
                        String::new(),
                        "9".repeat(40),
                    ];
                    head[at] = format!("Content-Length: {}", rng.choose(&junk));
                    (assemble(&head, "\r\n", &body), Expect::BadRequest)
                }
                // A length over the bound is refused before any body read.
                (4, Some(at)) => {
                    let declared = MAX_BODY + 1 + rng.index(1 << 30);
                    head[at] = format!("Content-Length: {declared}");
                    (assemble(&head, "\r\n", &body), Expect::TooLarge(declared))
                }
                // Any Transfer-Encoding, with or without a length.
                (5, _) => {
                    let coding = *rng.choose(&["chunked", "identity", "gzip, chunked", ""]);
                    head.insert(rng.range(1, head.len() + 1), format!("Transfer-Encoding: {coding}"));
                    (assemble(&head, "\r\n", &body), Expect::BadRequest)
                }
                // Bare LF line ends: the head never terminates, so the
                // whole stream is head and the peer closed inside it.
                (6, _) => (assemble(&head, "\n", b""), Expect::Closed),
                // A head around the size bound, terminated or not: the
                // bound is on the head, wherever the reads fell.
                (7, _) => {
                    let pad = MAX_HEAD_BYTES - 1100 + rng.index(2200);
                    head.push(format!("X-Pad: {}", "p".repeat(pad)));
                    let mut raw = assemble(&head, "\r\n", &body);
                    if rng.chance(0.3) {
                        raw.truncate(raw.len() - body.len() - 2);
                    }
                    (raw, Expect::Any)
                }
                // Havoc: flip, drop, insert and repeat bytes anywhere.
                _ => {
                    let mut raw = assemble(&head, "\r\n", &body);
                    for _ in 0..rng.range(1, 9) {
                        if raw.is_empty() {
                            break;
                        }
                        let at = rng.index(raw.len());
                        match rng.index(4) {
                            0 => raw[at] ^= 1 << rng.index(8),
                            1 => drop(raw.remove(at)),
                            2 => raw.insert(at, *rng.choose(b"\r\n: \0\xff[{\"09-+")),
                            _ => {
                                let end = (at + rng.range(1, 40)).min(raw.len());
                                let piece = raw[at..end].to_vec();
                                raw.splice(at..at, piece);
                            }
                        }
                    }
                    (raw, Expect::Any)
                }
            };
            let verdict = read_every_way(&raw, trial);
            check(&format!("trial {trial}: {:?}", lossy(&raw)), &verdict, &expect);
            // What the gateway does next with a request it accepted.
            if let Ok(req) = verdict {
                if let Ok(text) = std::str::from_utf8(&req.body) {
                    let _ = Json::parse(text);
                }
            }
        }
    });
}

/// Read `raw` as one response three ways and check they agree: the
/// verdict does not depend on how the reads fell, and a peer that stalls
/// instead of closing is always an error (nothing marks a response
/// finished but the close).
fn respond_every_way(raw: &[u8], seed: u64) -> Result<HttpResponse, String> {
    let fields = |r: Result<HttpResponse, String>| r.map(|r| (r.status, r.headers, r.body));
    let whole = client::read_response(&mut Peer::new(raw, seed, 1 << 20, false));
    let dribble = 7.max(raw.len() / 64);
    let dribbled = client::read_response(&mut Peer::new(raw, seed, dribble, false));
    assert!(
        fields(whole.clone()) == fields(dribbled),
        "segmentation changed the verdict for {:?}",
        lossy(raw)
    );
    let stalled = client::read_response(&mut Peer::new(raw, seed, dribble, true));
    assert!(stalled.is_err(), "a stalled response was accepted: {:?}", lossy(raw));
    whole
}

#[test]
fn read_response_is_total_and_a_success_only_whole() {
    on_a_handler_thread("read_response fuzz", || {
        // A replica killed after the head and half the body left the router
        // a prefix of this; it used to pass that on as a 200.
        let body = "{\"prediction\":2,\"score_bits\":[1,2,3,4]}";
        let answer = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: close\r\nx-astro-replica: replica-0\r\n\r\n{body}",
            body.len()
        );
        let whole = respond_every_way(answer.as_bytes(), 0).expect("the whole answer");
        assert_eq!((whole.status, whole.body.as_str()), (200, body));
        for cut in 0..answer.len() {
            let verdict = respond_every_way(&answer.as_bytes()[..cut], cut as u64);
            assert!(verdict.is_err(), "cut at {cut} of {}: {verdict:?}", answer.len());
        }

        let mut rng = Rng::seed_from(0x2e5b_0d1e);
        for trial in 0..3_000u64 {
            let status = *rng.choose(&[200u16, 400, 404, 413, 429, 500, 503, 504]);
            let body = render(&draw_json(&mut rng, 3), &mut rng).into_bytes();
            let mut head = vec![format!("HTTP/1.1 {status} {}", http::status_reason(status))];
            if rng.chance(0.5) {
                head.push(format!("traceparent: 00-{:032x}-{:016x}-01", rng.next_u64(), rng.next_u64()));
            }
            if rng.chance(0.3) {
                head.push("Retry-After: 1".to_string());
            }
            let name = *rng.choose(&["Content-Length", "content-length", "CONTENT-LENGTH"]);
            let length_at = rng.range(1, head.len() + 1);
            head.insert(length_at, format!("{name}: {}", body.len()));
            let (raw, accepted) = match rng.index(6) {
                // Unharmed: status, headers and exactly the body sent.
                0 => (assemble(&head, "\r\n", &body), true),
                // Cut anywhere short of the end.
                1 => {
                    let mut raw = assemble(&head, "\r\n", &body);
                    raw.truncate(rng.index(raw.len()));
                    (raw, false)
                }
                // No length, or one longer than the body.
                2 => {
                    head.remove(length_at);
                    (assemble(&head, "\r\n", &body), false)
                }
                3 => {
                    let longer = [body.len() + 1 + rng.index(9), 1 << 40];
                    let wrong = *rng.choose(&longer);
                    head[length_at] = format!("{name}: {wrong}");
                    (assemble(&head, "\r\n", &body), false)
                }
                // More bytes than declared.
                4 => {
                    let mut raw = assemble(&head, "\r\n", &body);
                    raw.extend_from_slice(&b"{}garbage"[..rng.range(1, 9)]);
                    (raw, false)
                }
                // Havoc: totality and the differentials alone.
                _ => {
                    let mut raw = assemble(&head, "\r\n", &body);
                    for _ in 0..rng.range(1, 9) {
                        let at = rng.index(raw.len());
                        match rng.index(3) {
                            0 => raw[at] ^= 1 << rng.index(8),
                            1 => drop(raw.remove(at)),
                            _ => raw.insert(at, *rng.choose(b"\r\n: \0\xff09-+")),
                        }
                    }
                    let _ = respond_every_way(&raw, trial);
                    continue;
                }
            };
            let verdict = respond_every_way(&raw, trial);
            match (&verdict, accepted) {
                (Ok(r), true) => assert!(
                    r.status == status && r.body.as_bytes() == body,
                    "trial {trial}: {r:?} for {:?}",
                    lossy(&raw)
                ),
                (Err(_), false) => {}
                _ => panic!("trial {trial}: {verdict:?} for {:?}", lossy(&raw)),
            }
        }
    });
}

/// A value inside the parser's subset: finite numbers, strings of any
/// scalar values, escapes limited to the ones it reads.
fn draw_json(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.chance(0.4);
    match (leaf, rng.index(6)) {
        (true, 0) => Json::Null,
        (true, 1) => Json::Bool(rng.chance(0.5)),
        (true, 2) => Json::Number(rng.range_u64(0, 1 << 40) as f64 - (1u64 << 39) as f64),
        (true, 3) => Json::Number(rng.gauss() * 10f64.powi(rng.range(0, 40) as i32 - 20)),
        (true, _) => Json::String(draw_string(rng)),
        (false, n) if n < 3 => Json::Array((0..rng.index(5)).map(|_| draw_json(rng, depth - 1)).collect()),
        (false, _) => Json::Object(
            (0..rng.index(5)).map(|_| (draw_string(rng), draw_json(rng, depth - 1))).collect(),
        ),
    }
}

fn draw_string(rng: &mut Rng) -> String {
    (0..rng.index(12))
        .map(|_| *rng.choose(&['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '{', ']', ':', 'é', '星', '🔭']))
        .collect()
}

/// Render with whitespace wherever the grammar allows it.
fn render(v: &Json, rng: &mut Rng) -> String {
    let mut out = String::new();
    render_into(v, rng, &mut out);
    out
}

fn whitespace(rng: &mut Rng, out: &mut String) {
    for _ in 0..rng.index(3) {
        out.push(*rng.choose(&[' ', '\n', '\t', '\r']));
    }
}

fn render_into(v: &Json, rng: &mut Rng, out: &mut String) {
    whitespace(rng, out);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        // The parser takes any decimal `f64::from_str` takes, so one too
        // large for an `f64` is an infinity; this is its way back.
        Json::Number(n) if n.is_infinite() => out.push_str(if *n > 0.0 { "1e999" } else { "-1e999" }),
        Json::Number(n) => out.push_str(&format!("{n:?}")),
        Json::String(s) => render_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, rng, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                render_string(k, out);
                whitespace(rng, out);
                out.push(':');
                render_into(item, rng, out);
            }
            out.push('}');
        }
    }
    whitespace(rng, out);
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse `text` bare and padded; the verdicts must agree. An error's
/// offset points into the input.
fn parse_every_way(text: &str) -> Option<Json> {
    let bare = Json::parse(text);
    let padded = Json::parse(&format!(" \n{text}\t "));
    match (&bare, &padded) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "padding changed the value of {text:?}"),
        (Err(a), Err(b)) => {
            assert!(a.at <= text.len(), "{a} past the end of {} bytes", text.len());
            assert!(b.at >= a.at, "{a} / {b} for {text:?}");
        }
        _ => panic!("padding changed the verdict: {bare:?} / {padded:?} for {text:?}"),
    }
    // The extraction cascade's entry point sees the same text.
    let _ = Json::parse_embedded(text);
    bare.ok()
}

#[test]
fn json_parse_is_total_and_round_trips_what_it_accepts() {
    on_a_handler_thread("Json::parse fuzz", || {
        // PR 15's stack overflow and its relatives: nesting far past the
        // bound, in every bracket mix, closed or not.
        for text in [
            "[".repeat(60_000),
            "{\"k\":".repeat(12_000),
            "[{\"k\":".repeat(10_000),
            format!("{}1{}", "[".repeat(5_000), "]".repeat(5_000)),
            "]".repeat(60_000),
            "\"".repeat(60_001),
            "-".repeat(60_000),
            "{\"a\":1,".repeat(10_000),
        ] {
            assert_eq!(parse_every_way(&text), None, "{} bytes accepted", text.len());
        }

        let mut rng = Rng::seed_from(0x0715_0a11);
        for trial in 0..3_000 {
            let value = draw_json(&mut rng, 5);
            let text = render(&value, &mut rng);
            assert_eq!(parse_every_way(&text), Some(value), "trial {trial}: {text:?}");

            // Cut it short, then damage it bytewise (a cut or a flip may
            // land inside a scalar: the parser sees what a lossy decode of
            // a network buffer would hand it).
            let mut raw = text.into_bytes();
            if rng.chance(0.3) {
                raw.truncate(rng.index(raw.len() + 1));
            }
            for _ in 0..rng.index(6) {
                if raw.is_empty() {
                    break;
                }
                let at = rng.index(raw.len());
                match rng.index(3) {
                    0 => raw[at] ^= 1 << rng.index(8),
                    1 => drop(raw.remove(at)),
                    _ => raw.insert(at, *rng.choose(b"[]{}\":,\\-.eE0 \xc3\xf0tn")),
                }
            }
            let damaged = String::from_utf8_lossy(&raw);
            if let Some(reparsed) = parse_every_way(&damaged) {
                // Whatever it accepted is a value: rendering and parsing
                // it again is a fixed point.
                let again = render(&reparsed, &mut rng);
                assert_eq!(Json::parse(&again).ok(), Some(reparsed), "trial {trial}: {damaged:?}");
            }
        }
    });
}
