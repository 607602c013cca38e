//! A minimal blocking HTTP client: the router's forwarding and probing
//! path, the gateway's own tests and the load bench. Speaks exactly the
//! dialect the server emits: one request per connection, `Connection:
//! close`, `Content-Length` bodies — and holds a response to its declared
//! length, so a replica that dies mid-body yields an error, never a
//! truncated success.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body decoded as UTF-8.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn round_trip(
    addr: SocketAddr,
    request: &str,
    timeout: Duration,
) -> Result<HttpResponse, String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut stream = stream;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream)
}

/// Cap on one response, head and body: what a peer that never closes can
/// make the reader buffer.
const MAX_RESPONSE_BYTES: u64 = 4 << 20;

/// Read one response to end-of-stream (the server closes after each) and
/// parse it. A body that is not exactly its `Content-Length` long — the
/// peer died mid-response, or the cap cut it — is an error.
pub fn read_response(stream: &mut impl Read) -> Result<HttpResponse, String> {
    let mut raw = Vec::new();
    stream
        .take(MAX_RESPONSE_BYTES)
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "no header terminator in response".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|e| format!("head utf8: {e}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| "empty response".to_string())?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let resp = HttpResponse { status, headers, body: String::new() };
    let body = &raw[head_end + 4..];
    let declared = resp
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| "response has no valid Content-Length".to_string())?;
    if body.len() != declared {
        return Err(format!("response body is {} of {declared} declared bytes", body.len()));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|e| format!("body utf8: {e}"))?;
    Ok(HttpResponse { body, ..resp })
}

/// POST a JSON body and return the parsed response.
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<HttpResponse, String> {
    post_json_with_headers(addr, path, body, &[], timeout)
}

/// POST a JSON body with extra request headers (the cluster router's
/// forwarding path: `x-idempotency-key`, `traceparent`).
pub fn post_json_with_headers(
    addr: SocketAddr,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<HttpResponse, String> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        request.push_str(k);
        request.push_str(": ");
        request.push_str(v);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    request.push_str(body);
    round_trip(addr, &request, timeout)
}

/// GET a path and return the parsed response.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<HttpResponse, String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    round_trip(addr, &request, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_headers_and_body() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nhi";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body, "hi");
    }

    #[test]
    fn rejects_garbage_and_truncated_bodies() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n{}").is_err(), "no length");
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"a\":").is_err());
    }
}
