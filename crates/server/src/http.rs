//! Minimal hand-rolled HTTP/1.1 — just enough for the daemon and its
//! client, with no external dependencies.
//!
//! Two parsing surfaces share the same grammar:
//!
//! * [`try_parse`] — the **incremental** parser the epoll event loop feeds
//!   from a per-connection read buffer.  It never blocks: a prefix of a
//!   request yields [`Parsed::Partial`], a complete request yields the
//!   parsed [`HttpRequest`] plus how many bytes to drain (pipelined
//!   requests simply leave the next one in the buffer), and a framing
//!   violation yields a terminal [`Parsed::Error`] with the status to send
//!   before closing.
//! * [`read_request`] — the historical blocking reader, kept for tests and
//!   simple tools.
//!
//! Responses are either `Content-Length` framed ([`encode_response`], with
//! keep-alive or close) or chunked ([`encode_stream_head`] +
//! [`encode_chunk`]) for the `POST /run?stream=1` progress stream.  The
//! client side offers one-shot helpers ([`roundtrip`], [`get`],
//! [`post_json`] — all `Connection: close`) and [`ClientConn`], a
//! keep-alive connection that sends one request at a time over one TCP
//! stream, reconnects transparently when the server closed it, and
//! decodes a chunked progress stream.
//!
//! Hard limits keep a misbehaving peer from ballooning memory: 64 KiB of
//! headers, 16 MiB of body (a chunked body's chunks together included).

use guardspec_harness::{json, Json};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Longest accepted request head (request line + headers).
pub const MAX_HEAD: usize = 64 * 1024;
/// Longest accepted body.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed inbound request.
#[derive(Debug)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Raw query string (text after `?`, undecoded); empty if absent.
    pub query: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// `true` for `HTTP/1.0` requests (keep-alive must be opted into).
    http10: bool,
}

impl HttpRequest {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 defaults to yes unless `Connection: close`; HTTP/1.0
    /// defaults to no unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => !self.http10,
        }
    }

    /// Whether the query string carries `name` or `name=1`/`name=true`.
    pub fn query_flag(&self, name: &str) -> bool {
        self.query.split('&').any(|kv| {
            kv == name
                || kv
                    .split_once('=')
                    .is_some_and(|(k, v)| k == name && (v == "1" || v == "true"))
        })
    }
}

/// A parsed inbound response (client side).
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

// --- incremental request parsing -----------------------------------------

/// One [`try_parse`] step over a connection's read buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request; drain `consumed` bytes from the buffer (any
    /// remainder is the start of the next pipelined request).
    Complete { req: HttpRequest, consumed: usize },
    /// The buffer holds only a prefix; read more.
    Partial,
    /// Unrecoverable framing violation: send `status`, then close.
    Error { status: u16, msg: &'static str },
}

/// Parse the longest complete request at the start of `buf` without
/// consuming it.  Never blocks, never reads.
pub fn try_parse(buf: &[u8]) -> Parsed {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Parsed::Error {
                status: 413,
                msg: "request head too large",
            };
        }
        return Parsed::Partial;
    };
    if head_end > MAX_HEAD {
        return Parsed::Error {
            status: 413,
            msg: "request head too large",
        };
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Parsed::Error {
            status: 400,
            msg: "non-UTF8 head",
        };
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || target.is_empty() {
        return Parsed::Error {
            status: 400,
            msg: "malformed request line",
        };
    }
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let mut content_length = 0usize;
    for (k, v) in &headers {
        if k.eq_ignore_ascii_case("content-length") {
            match v.parse() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return Parsed::Error {
                        status: 400,
                        msg: "bad Content-Length",
                    }
                }
            }
        }
    }
    if content_length > MAX_BODY {
        return Parsed::Error {
            status: 413,
            msg: "body too large",
        };
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Parsed::Partial;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Parsed::Complete {
        req: HttpRequest {
            method: method.to_string(),
            path,
            query,
            headers,
            body: buf[head_end + 4..total].to_vec(),
            http10: version == "HTTP/1.0",
        },
        consumed: total,
    }
}

// --- response encoding ---------------------------------------------------

/// Encode a full `Content-Length`-framed response.  `extra_headers` lets a
/// 429 carry `Retry-After`; `keep_alive` selects the `Connection` header.
/// The default `Content-Type: application/json` yields to a caller-supplied
/// `Content-Type` in `extra_headers` (the Prometheus `/metrics` body is
/// plain text).
pub fn encode_response(
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let custom_type = extra_headers
        .iter()
        .any(|(k, _)| k.eq_ignore_ascii_case("content-type"));
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if !custom_type {
        head.push_str("Content-Type: application/json\r\n");
    }
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Head of a chunked progress stream.  The HTTP status is always 200; the
/// request's real outcome status rides in the `{"event":"result",...}`
/// delimiter line, because stage events are already on the wire before the
/// outcome is known.
pub fn encode_stream_head(keep_alive: bool) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// One chunk of a chunked body.  The server writes one chunk per event
/// line (so client-side chunk boundaries recover the line framing) and one
/// for the final artifact.
pub fn encode_chunk(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The zero-length terminator chunk.
pub fn encode_last_chunk() -> &'static [u8] {
    b"0\r\n\r\n"
}

// --- blocking server-side reader (tests and simple tools) ----------------

/// Read one request from the stream.  `Err` means the connection is
/// unusable (peer vanished, malformed head, limits exceeded) — the caller
/// just drops it.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<HttpRequest> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        match try_parse(&buf) {
            Parsed::Complete { req, .. } => return Ok(req),
            Parsed::Error { msg, .. } => return Err(bad(msg)),
            Parsed::Partial => {}
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Write a `Connection: close` response and flush.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    stream.write_all(&encode_response(status, extra_headers, body, false))?;
    stream.flush()
}

// --- one-shot client helpers (Connection: close) --------------------------

/// Issue one request against `addr` and read the full response.
pub fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    roundtrip_with(addr, method, path, &[], body)
}

/// [`roundtrip`] with extra request headers (e.g. `Accept`, `X-Trace-Id`).
pub fn roundtrip_with(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    write_request_head(
        &mut stream,
        addr,
        method,
        path,
        extra_headers,
        body.len(),
        false,
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(&mut stream).map(|(resp, _)| resp)
}

/// Convenience: GET `path` and return `(status, body as String)`.
pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let r = roundtrip(addr, "GET", path, b"")?;
    Ok((r.status, String::from_utf8_lossy(&r.body).into_owned()))
}

/// GET `path` asking for the JSON representation (`Accept:
/// application/json`) — the `/metrics` endpoint defaults to Prometheus
/// text without it.
pub fn get_json(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let r = roundtrip_with(addr, "GET", path, &[("Accept", "application/json")], b"")?;
    Ok((r.status, String::from_utf8_lossy(&r.body).into_owned()))
}

/// Convenience: POST a JSON body to `path`.
pub fn post_json(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let r = roundtrip(addr, "POST", path, body.as_bytes())?;
    Ok((r.status, String::from_utf8_lossy(&r.body).into_owned()))
}

// --- keep-alive client connection ----------------------------------------

/// A client-side keep-alive connection: one TCP stream reused across
/// requests, reconnecting transparently when the server closed it (idle
/// reaping, max-requests cap, or a plain restart between requests).
#[derive(Debug)]
pub struct ClientConn {
    addr: String,
    stream: Option<TcpStream>,
    opened: u64,
    timeout: Option<std::time::Duration>,
}

impl ClientConn {
    pub fn new(addr: &str) -> ClientConn {
        ClientConn {
            addr: addr.to_string(),
            stream: None,
            opened: 0,
            timeout: None,
        }
    }

    /// Like [`ClientConn::new`] but with a hard bound on connect, read and
    /// write.  Used for peer fetches, where a down peer must cost at most
    /// one timeout — never a worker wedged on a dead socket.
    pub fn with_timeout(addr: &str, timeout: std::time::Duration) -> ClientConn {
        ClientConn {
            addr: addr.to_string(),
            stream: None,
            opened: 0,
            timeout: Some(timeout),
        }
    }

    /// TCP connections this handle has opened so far (1 on a healthy
    /// keep-alive session, however many requests it carried).
    pub fn connections_opened(&self) -> u64 {
        self.opened
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = match self.timeout {
                None => TcpStream::connect(&self.addr)?,
                Some(t) => {
                    use std::net::ToSocketAddrs;
                    let sa = self
                        .addr
                        .to_socket_addrs()?
                        .next()
                        .ok_or_else(|| bad("address resolved to nothing"))?;
                    let s = TcpStream::connect_timeout(&sa, t)?;
                    s.set_read_timeout(Some(t))?;
                    s.set_write_timeout(Some(t))?;
                    s
                }
            };
            // Requests go out as head + body writes; without TCP_NODELAY
            // the second small write can stall behind Nagle + the peer's
            // delayed ACK (~40ms) once the connection leaves quickack.
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.opened += 1;
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// One request and its response, plus whether bytes past the response
    /// arrived with it (see [`read_response`]).
    fn send_recv(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<(HttpResponse, bool)> {
        let addr = self.addr.clone();
        let stream = self.connect()?;
        write_request_head(stream, &addr, method, path, extra_headers, body.len(), true)?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(stream)
    }

    /// Issue one request, reusing the live connection when possible.  If
    /// the server closed a **reused** stream (it may have reaped it between
    /// requests), the request is retried once on a fresh connection.  Any
    /// other failure, a timeout included, is the caller's problem: a hung
    /// server costs one timeout, not two.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        self.request_with(method, path, &[], body)
    }

    /// [`ClientConn::request`] with extra request headers (e.g. the
    /// `X-Trace-Id` a daemon forwards on peer pulls, or `Accept`).
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let reused = self.stream.is_some();
        let mut sent = self.send_recv(method, path, extra_headers, body);
        if reused && sent.as_ref().is_err_and(server_closed) {
            self.stream = None;
            sent = self.send_recv(method, path, extra_headers, body);
        }
        match sent {
            Ok((resp, surplus)) => {
                if resp.wants_close() || surplus {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// POST to a streaming endpoint and decode the chunked NDJSON reply:
    /// `on_event` fires once per stage-event line; the return value is the
    /// real outcome status (from the `{"event":"result",...}` delimiter)
    /// and the final artifact bytes.  A non-chunked response (error paths,
    /// old servers) degrades to a plain request.
    pub fn post_stream(
        &mut self,
        path: &str,
        body: &[u8],
        on_event: impl FnMut(&str),
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.post_stream_with(path, &[], body, on_event)
    }

    /// [`ClientConn::post_stream`] with extra request headers.
    pub fn post_stream_with(
        &mut self,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        mut on_event: impl FnMut(&str),
    ) -> std::io::Result<(u16, Vec<u8>)> {
        enum StreamEnd {
            Plain(u16, Vec<u8>),
            Chunked(Option<u16>, Vec<u8>, bool),
        }
        let addr = self.addr.clone();
        let mut run = |stream: &mut TcpStream| -> std::io::Result<StreamEnd> {
            write_request_head(stream, &addr, "POST", path, extra_headers, body.len(), true)?;
            stream.write_all(body)?;
            stream.flush()?;
            let (head, mut rest) = read_head(stream)?;
            let (status, headers) = parse_status_head(&head)?;
            let chunked = headers.iter().any(|(k, v)| {
                k.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
            });
            if !chunked {
                let content_length = content_length_of(&headers)?;
                read_exact_body(stream, &mut rest, content_length)?;
                return Ok(StreamEnd::Plain(status, rest));
            }
            let mut result_status: Option<u16> = None;
            let mut artifact = Vec::new();
            read_chunked(stream, &mut rest, |chunk| {
                if result_status.is_some() {
                    artifact.extend_from_slice(chunk);
                    return;
                }
                let line = String::from_utf8_lossy(chunk);
                let line = line.trim_end();
                if line.starts_with("{\"event\":\"result\"") {
                    result_status = json::parse(line)
                        .ok()
                        .and_then(|j| j.get("status").and_then(Json::as_u64))
                        .map(|s| s as u16);
                } else {
                    on_event(line);
                }
            })?;
            // Bytes past the last chunk make the stream untrustworthy.
            let close = !rest.is_empty()
                || headers.iter().any(|(k, v)| {
                    k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close")
                });
            Ok(StreamEnd::Chunked(result_status, artifact, close))
        };
        match run(self.connect()?) {
            Ok(StreamEnd::Plain(status, body)) => {
                // Non-chunked replies come from error paths or old servers;
                // don't trust the connection for reuse.
                self.stream = None;
                Ok((status, body))
            }
            Ok(StreamEnd::Chunked(result_status, artifact, close)) => {
                if close {
                    self.stream = None;
                }
                match result_status {
                    Some(s) => Ok((s, artifact)),
                    None => {
                        self.stream = None;
                        Err(bad("stream ended without a result event"))
                    }
                }
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn write_request_head(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    content_length: usize,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {content_length}\r\nConnection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// Read one complete response (status line, headers, `Content-Length` or
/// chunked body) off the stream.  Also returns whether bytes past the
/// response's end were read (and dropped): a well-behaved server sends
/// nothing before the next request, so such a stream must not be reused —
/// its next bytes could be a stale answer.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(HttpResponse, bool)> {
    let (head, mut rest) = read_head(stream)?;
    let (status, headers) = parse_status_head(&head)?;
    let chunked = headers.iter().any(|(k, v)| {
        k.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
    });
    let (body, surplus) = if chunked {
        let mut body = Vec::new();
        read_chunked(stream, &mut rest, |c| body.extend_from_slice(c))?;
        (body, !rest.is_empty())
    } else {
        let content_length = content_length_of(&headers)?;
        let surplus = read_exact_body(stream, &mut rest, content_length)?;
        (rest, surplus)
    };
    let resp = HttpResponse {
        status,
        headers,
        body,
    };
    Ok((resp, surplus))
}

fn parse_status_head(head: &str) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

fn content_length_of(headers: &[(String, String)]) -> std::io::Result<usize> {
    let mut len = 0usize;
    for (k, v) in headers {
        if k.eq_ignore_ascii_case("content-length") {
            len = v.parse().map_err(|_| bad("bad Content-Length"))?;
        }
    }
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    Ok(len)
}

/// Read until the blank line; returns (head text, any body bytes already
/// pulled off the socket past the head).
fn read_head(stream: &mut TcpStream) -> std::io::Result<(String, Vec<u8>)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = find_head_end(&buf) {
            let head = String::from_utf8(buf[..end].to_vec()).map_err(|_| bad("non-UTF8 head"))?;
            let rest = buf[end + 4..].to_vec();
            return Ok((head, rest));
        }
        if buf.len() > MAX_HEAD {
            return Err(bad("head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(closed("connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Complete a `Content-Length` body; `body` holds the bytes already read
/// past the head.  Returns whether it held bytes past the body's end,
/// which are dropped.
fn read_exact_body(
    stream: &mut TcpStream,
    body: &mut Vec<u8>,
    content_length: usize,
) -> std::io::Result<bool> {
    if body.len() >= content_length {
        let surplus = body.len() > content_length;
        body.truncate(content_length);
        return Ok(surplus);
    }
    let mut remaining = content_length - body.len();
    let mut chunk = [0u8; 8192];
    while remaining > 0 {
        let n = stream.read(&mut chunk[..remaining.min(8192)])?;
        if n == 0 {
            return Err(closed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(false)
}

/// Decode a chunked body, invoking `on_chunk` once per data chunk (the
/// server's chunk boundaries are the event-line boundaries).  `pending`
/// holds bytes already read past the head, and on return any read past
/// the last chunk.  The chunks together may total at most [`MAX_BODY`].
fn read_chunked(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    mut on_chunk: impl FnMut(&[u8]),
) -> std::io::Result<()> {
    let mut chunk = [0u8; 8192];
    let mut total = 0usize;
    loop {
        // Find the "<hex>\r\n" size line.
        let line_end = loop {
            if let Some(p) = pending.windows(2).position(|w| w == b"\r\n") {
                break p;
            }
            if pending.len() > 32 {
                return Err(bad("bad chunk size line"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(closed("connection closed mid-chunk"));
            }
            pending.extend_from_slice(&chunk[..n]);
        };
        let size_str =
            std::str::from_utf8(&pending[..line_end]).map_err(|_| bad("bad chunk size"))?;
        let size = usize::from_str_radix(size_str.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        if size > MAX_BODY - total {
            return Err(bad("body too large"));
        }
        total += size;
        let need = line_end + 2 + size + 2; // size line + data + trailing CRLF
        while pending.len() < need {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(closed("connection closed mid-chunk"));
            }
            pending.extend_from_slice(&chunk[..n]);
        }
        if size > 0 {
            on_chunk(&pending[line_end + 2..line_end + 2 + size]);
        }
        pending.drain(..need);
        if size == 0 {
            return Ok(());
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// The server closed the stream before a whole response arrived.
fn closed(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg.to_string())
}

/// Whether `e` means the server closed the stream (EOF, reset or broken
/// pipe), the one failure a fresh connection can cure.
fn server_closed(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_roundtrip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/run");
            assert_eq!(req.body, b"{\"x\":1}");
            write_response(
                &mut s,
                429,
                &[("Retry-After", "2".to_string())],
                b"{\"error\":\"queue full\"}",
            )
            .unwrap();
        });
        let resp = roundtrip(&addr, "POST", "/run", b"{\"x\":1}").unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, b"{\"error\":\"queue full\"}");
        assert_eq!(resp.header("retry-after"), Some("2"));
        server.join().unwrap();
    }

    #[test]
    fn get_with_empty_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "GET");
            assert!(req.body.is_empty());
            write_response(&mut s, 200, &[], b"ok").unwrap();
        });
        let (status, body) = get(&addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
        server.join().unwrap();
    }

    #[test]
    fn try_parse_walks_a_pipelined_buffer() {
        let wire = b"POST /run?stream=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\n\r\n";
        let Parsed::Complete { req, consumed } = try_parse(wire) else {
            panic!("first request must parse");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.query, "stream=1");
        assert!(req.query_flag("stream"));
        assert_eq!(req.body, b"abc");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        let Parsed::Complete { req, consumed: c2 } = try_parse(&wire[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(consumed + c2, wire.len());
    }

    #[test]
    fn try_parse_partial_and_errors() {
        assert!(matches!(try_parse(b"POST /run HT"), Parsed::Partial));
        assert!(matches!(
            try_parse(b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Parsed::Partial
        ));
        let Parsed::Error { status, .. } = try_parse(
            format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
        ) else {
            panic!("oversized body must be an error");
        };
        assert_eq!(status, 413);
        let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
        huge.extend(vec![b'x'; MAX_HEAD + 16]);
        let Parsed::Error { status, .. } = try_parse(&huge) else {
            panic!("oversized head must be an error");
        };
        assert_eq!(status, 413);
        assert!(matches!(
            try_parse(b"\r\n\r\n"),
            Parsed::Error { status: 400, .. }
        ));
    }

    #[test]
    fn connection_header_and_version_drive_keep_alive() {
        let parse_ok = |wire: &[u8]| match try_parse(wire) {
            Parsed::Complete { req, .. } => req,
            other => panic!("expected complete, got {other:?}"),
        };
        assert!(!parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(!parse_ok(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
        assert!(parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn chunked_stream_decodes_events_then_artifact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _req = read_request(&mut s).unwrap();
            let mut out = encode_stream_head(true);
            out.extend(encode_chunk(
                b"{\"event\":\"stage\",\"stage\":\"profile\"}\n",
            ));
            out.extend(encode_chunk(b"{\"event\":\"result\",\"status\":200}\n"));
            out.extend(encode_chunk(b"{\n  \"answer\": 42\n}"));
            out.extend(encode_last_chunk());
            s.write_all(&out).unwrap();
            // Same connection serves a follow-up plain request.
            let _req = read_request(&mut s).unwrap();
            write_response(&mut s, 200, &[], b"after").unwrap();
        });
        let mut conn = ClientConn::new(&addr);
        let mut events = Vec::new();
        let (status, body) = conn
            .post_stream("/run?stream=1", b"{}", |e| events.push(e.to_string()))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\n  \"answer\": 42\n}");
        assert_eq!(events, ["{\"event\":\"stage\",\"stage\":\"profile\"}"]);
        // Keep-alive survived the stream: next request reuses the socket.
        let resp = conn.request("GET", "/x", b"").unwrap();
        assert_eq!(resp.body, b"after");
        assert_eq!(conn.connections_opened(), 1);
        server.join().unwrap();
    }

    #[test]
    fn extra_request_headers_reach_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.header("x-trace-id"), Some("ab12cd34-c0"));
            assert_eq!(req.header("accept"), Some("application/json"));
            write_response(&mut s, 200, &[], b"ok").unwrap();
        });
        let mut conn = ClientConn::new(&addr);
        let resp = conn
            .request_with(
                "GET",
                "/metrics",
                &[
                    ("X-Trace-Id", "ab12cd34-c0"),
                    ("Accept", "application/json"),
                ],
                b"",
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        server.join().unwrap();
    }

    #[test]
    fn encode_response_honours_a_custom_content_type() {
        let wire = encode_response(
            200,
            &[("Content-Type", "text/plain; version=0.0.4".to_string())],
            b"m 1\n",
            true,
        );
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(
            !text.contains("application/json"),
            "default type must yield: {text}"
        );
        let default = String::from_utf8(encode_response(200, &[], b"{}", true)).unwrap();
        assert!(default.contains("Content-Type: application/json\r\n"));
    }

    #[test]
    fn client_conn_reconnects_after_server_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: answer once with Connection: close semantics
            // by just dropping the socket afterwards.
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_request(&mut s).unwrap();
            s.write_all(&encode_response(200, &[], b"one", true))
                .unwrap();
            drop(s);
            // The client's retry shows up as a second connection.
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_request(&mut s).unwrap();
            s.write_all(&encode_response(200, &[], b"two", true))
                .unwrap();
        });
        let mut conn = ClientConn::new(&addr);
        assert_eq!(conn.request("GET", "/a", b"").unwrap().body, b"one");
        // Server dropped the socket; the reused-stream failure retries.
        assert_eq!(conn.request("GET", "/b", b"").unwrap().body, b"two");
        assert_eq!(conn.connections_opened(), 2);
        server.join().unwrap();
    }

    #[test]
    fn a_timed_out_request_is_not_retried_on_a_fresh_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The test keeps the listener open, so a retry would connect.
        let accept = listener.try_clone().unwrap();
        let server = std::thread::spawn(move || {
            // Answer once, then take the second request and hang until the
            // client gives up and closes.
            let (mut s, _) = accept.accept().unwrap();
            let _ = read_request(&mut s).unwrap();
            s.write_all(&encode_response(200, &[], b"one", true))
                .unwrap();
            let _ = read_request(&mut s).unwrap();
            let _ = s.read(&mut [0u8; 1]);
        });
        let mut conn = ClientConn::with_timeout(&addr, std::time::Duration::from_millis(300));
        assert_eq!(conn.request("GET", "/a", b"").unwrap().body, b"one");
        let err = conn.request("GET", "/b", b"").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        assert_eq!(conn.connections_opened(), 1, "a timeout must not reconnect");
        server.join().unwrap();
    }

    #[test]
    fn bytes_past_a_response_poison_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // A junk response rides behind the real one; reusing this
            // stream would answer the next request with it.
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_request(&mut s).unwrap();
            let mut out = encode_response(200, &[], b"one", true);
            out.extend(encode_response(200, &[], b"junk", true));
            s.write_all(&out).unwrap();
            let (mut s2, _) = listener.accept().unwrap();
            let _ = read_request(&mut s2).unwrap();
            s2.write_all(&encode_response(200, &[], b"two", true))
                .unwrap();
        });
        // A reused stream would wait for an answer that never comes.
        let mut conn = ClientConn::with_timeout(&addr, std::time::Duration::from_secs(5));
        assert_eq!(conn.request("GET", "/a", b"").unwrap().body, b"one");
        assert_eq!(conn.request("GET", "/b", b"").unwrap().body, b"two");
        assert_eq!(conn.connections_opened(), 2);
        server.join().unwrap();
    }

    #[test]
    fn chunked_bodies_are_capped_in_total_not_just_per_chunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // 17 chunks of 1 MiB: each under the cap, together over it.
            // The client hangs up mid-body, so later writes may fail.
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_request(&mut s).unwrap();
            let mib = vec![b'x'; 1 << 20];
            let _ = s.write_all(&encode_stream_head(true));
            for _ in 0..17 {
                if s.write_all(&encode_chunk(&mib)).is_err() {
                    return;
                }
            }
            let _ = s.write_all(encode_last_chunk());
        });
        let mut conn = ClientConn::new(&addr);
        let err = conn.request_with("GET", "/cache/k", &[], b"").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err:?}");
        assert!(err.to_string().contains("body too large"), "{err}");
        drop(conn);
        server.join().unwrap();
    }
}
