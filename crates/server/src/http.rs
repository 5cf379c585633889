//! Minimal hand-rolled HTTP/1.1: one codec for the daemon and its one
//! client, with no external dependencies.
//!
//! Requests and responses share one head grammar: a private parser splits
//! a head into its start line, its headers and its body framing
//! (`Content-Length` or chunked) under one set of caps.  Two readers sit
//! on it:
//!
//! * [`try_parse`] — the **incremental** request parser the epoll event
//!   loop feeds from a per-connection read buffer.  It never blocks: a
//!   prefix yields [`Parsed::Partial`], a complete request yields the
//!   [`HttpRequest`] plus how many bytes to drain, and a framing violation
//!   (a `Transfer-Encoding` among them: 501; two differing
//!   `Content-Length` values: 400) yields a terminal [`Parsed::Error`]
//!   with the status to send before closing.
//! * [`read_response`] — the one response reader, over any `io::Read`.  A
//!   chunked body (the `POST /run?stream=1` progress stream, built by
//!   [`encode_stream_head`] and [`encode_chunk`]) goes to a callback one
//!   chunk at a time.
//!
//! [`ClientConn`] is the one client: a keep-alive connection that sends one
//! request at a time, reconnects when the server closed it between
//! requests, and splits a progress stream into its events and artifact.
//! Hard limits keep a misbehaving peer from ballooning memory: 64 KiB of
//! headers, 16 MiB of body (a chunked body's chunks together included).

use guardspec_harness::{json, Json};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted head (start line + headers).
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
        find_header(&self.headers, name)
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
        find_header(&self.headers, name)
    }

    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

// --- the head grammar -----------------------------------------------------

/// A framing violation: the status a server answers it with, and why.
type Reject = (u16, &'static str);

/// How a message's body is delimited.
enum Framing {
    Length(usize),
    Chunked,
}

/// A message head split into its start line, its headers and its body
/// framing.  The framing is kept as a result so a request's start line is
/// judged before its body is.
struct Head<'a> {
    start: &'a str,
    headers: Vec<(String, String)>,
    framing: Result<Framing, Reject>,
    /// Bytes up to and including the blank line.
    len: usize,
}

/// Parse the head at the start of `buf`: `None` while it is incomplete.
fn parse_head(buf: &[u8]) -> Result<Option<Head<'_>>, Reject> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > MAX_HEAD {
            return Err((413, "head too large"));
        }
        return Ok(None);
    };
    if end > MAX_HEAD {
        return Err((413, "head too large"));
    }
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| (400, "non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let framing = framing(&headers);
    Ok(Some(Head {
        start,
        headers,
        framing,
        len: end + 4,
    }))
}

/// The body framing `headers` declare.  A transfer coding wins over
/// `Content-Length`, and chunked is the only one understood.  Repeated
/// `Content-Length` headers must agree: with two lengths the body's end is
/// ambiguous (RFC 9112 §6.3), and either reading would let a body's tail
/// parse as the next message.
fn framing(headers: &[(String, String)]) -> Result<Framing, Reject> {
    if let Some(coding) = find_header(headers, "transfer-encoding") {
        if coding.eq_ignore_ascii_case("chunked") {
            return Ok(Framing::Chunked);
        }
        return Err((501, "unsupported Transfer-Encoding"));
    }
    let mut len: Option<usize> = None;
    for (k, v) in headers {
        if k.eq_ignore_ascii_case("content-length") {
            let n = v.parse().map_err(|_| (400, "bad Content-Length"))?;
            if len.is_some_and(|len| len != n) {
                return Err((400, "conflicting Content-Length"));
            }
            len = Some(n);
        }
    }
    let len = len.unwrap_or(0);
    if len > MAX_BODY {
        return Err((413, "body too large"));
    }
    Ok(Framing::Length(len))
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
    match parse_request(buf) {
        Ok(Some((req, consumed))) => Parsed::Complete { req, consumed },
        Ok(None) => Parsed::Partial,
        Err((status, msg)) => Parsed::Error { status, msg },
    }
}

fn parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, Reject> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let mut parts = head.start.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err((400, "malformed request line"));
    }
    // Read as a 0-byte body, chunk bytes left in the buffer would parse as
    // a second request, and one request would get two answers.
    let Framing::Length(len) = head.framing? else {
        return Err((501, "unsupported Transfer-Encoding"));
    };
    let total = head.len + len;
    if buf.len() < total {
        return Ok(None);
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: head.headers,
        body: buf[head.len..total].to_vec(),
        http10: parts.next() == Some("HTTP/1.0"),
    };
    Ok(Some((req, total)))
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

// --- response reading ----------------------------------------------------

/// Read one response off `r`.  A `Content-Length` body comes back in the
/// response; a chunked body goes to `on_chunk` one chunk at a time (the
/// server's chunks are its event lines), at most [`MAX_BODY`] bytes in
/// all, and the returned body is empty.  Also returns whether bytes past
/// the response's end were read (and dropped): a well-behaved server sends
/// nothing before the next request, so such a stream must not be reused,
/// as its next bytes could be a stale answer.
pub fn read_response(
    r: &mut impl Read,
    mut on_chunk: impl FnMut(&[u8]),
) -> io::Result<(HttpResponse, bool)> {
    let mut buf = Vec::with_capacity(4096);
    // `at` is where the unread bytes of `buf` start.
    let mut at = 0;
    let (status, headers, framing) = loop {
        if let Some(head) = parse_head(&buf).map_err(|(_, msg)| bad(msg))? {
            let status = head
                .start
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let framing = head.framing.map_err(|(_, msg)| bad(msg))?;
            at = head.len;
            break (status, head.headers, framing);
        }
        fill(r, &mut buf, &mut at)?;
    };
    let (body, surplus) = match framing {
        Framing::Length(len) => {
            while buf.len() - at < len {
                fill(r, &mut buf, &mut at)?;
            }
            let surplus = buf.len() - at > len;
            buf.truncate(at + len);
            buf.drain(..at);
            (buf, surplus)
        }
        Framing::Chunked => {
            let mut total = 0usize;
            loop {
                // A "<hex>\r\n" size line, the data, and its CRLF.
                let line = loop {
                    if let Some(p) = buf[at..].windows(2).position(|w| w == b"\r\n") {
                        break p;
                    }
                    if buf.len() - at > 32 {
                        return Err(bad("bad chunk size line"));
                    }
                    fill(r, &mut buf, &mut at)?;
                };
                let size = std::str::from_utf8(&buf[at..at + line])
                    .ok()
                    .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                    .ok_or_else(|| bad("bad chunk size"))?;
                if size > MAX_BODY - total {
                    return Err(bad("body too large"));
                }
                total += size;
                let need = line + 2 + size + 2;
                while buf.len() - at < need {
                    fill(r, &mut buf, &mut at)?;
                }
                let data = at + line + 2;
                at += need;
                if size == 0 {
                    break (Vec::new(), buf.len() > at);
                }
                on_chunk(&buf[data..data + size]);
            }
        }
    };
    let resp = HttpResponse {
        status,
        headers,
        body,
    };
    Ok((resp, surplus))
}

/// Drop the `at` bytes of `buf` already consumed, then append one read of
/// `r`.  A stream that ends here was cut short.
fn fill(r: &mut impl Read, buf: &mut Vec<u8>, at: &mut usize) -> io::Result<()> {
    buf.drain(..std::mem::take(at));
    let mut chunk = [0u8; 8192];
    match r.read(&mut chunk)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )),
        n => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

// --- the client ----------------------------------------------------------

/// A client-side keep-alive connection: one TCP stream reused across
/// requests, reconnecting when the server closed it (idle reaping,
/// max-requests cap, or a plain restart between requests).  A one-shot
/// caller makes one, sends one request and drops it.
#[derive(Debug)]
pub struct ClientConn {
    addr: String,
    stream: Option<TcpStream>,
    opened: u64,
    timeout: Option<Duration>,
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
    pub fn with_timeout(addr: &str, timeout: Duration) -> ClientConn {
        ClientConn {
            timeout: Some(timeout),
            ..ClientConn::new(addr)
        }
    }

    /// TCP connections this handle has opened so far (1 on a healthy
    /// keep-alive session, however many requests it carried).
    pub fn connections_opened(&self) -> u64 {
        self.opened
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
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
            // Without TCP_NODELAY a request's last partial segment can
            // stall behind Nagle + the peer's delayed ACK (~40ms).
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.opened += 1;
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// Write one request on the live connection, opening one if needed.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<&mut TcpStream> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
            self.addr,
            body.len(),
        );
        for (k, v) in extra_headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        let stream = self.connect()?;
        stream.write_all(&wire)?;
        Ok(stream)
    }

    /// Send one request and read its response, reusing the live connection
    /// when there is one.  A reused stream that the server closed before
    /// any response byte arrived (it may reap an idle connection between
    /// requests) is retried once on a fresh connection.  Any other failure
    /// is the caller's: a response cut after its first byte may already
    /// have delivered chunks, and a hung server costs one timeout, not two.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        on_chunk: &mut dyn FnMut(&[u8]),
    ) -> io::Result<HttpResponse> {
        loop {
            let reused = self.stream.is_some();
            let mut heard = false;
            let got = self
                .send(method, path, extra_headers, body)
                .and_then(|stream| {
                    let mut r = Heard {
                        inner: stream,
                        any: &mut heard,
                    };
                    read_response(&mut r, &mut *on_chunk)
                });
            match got {
                Ok((resp, surplus)) => {
                    if surplus || resp.wants_close() {
                        self.stream = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.stream = None;
                    if !(reused && !heard && server_closed(&e)) {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Issue one request, reusing the live connection when possible, under
    /// [`ClientConn`]'s one retry rule.  A chunked body is collected.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
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
    ) -> io::Result<HttpResponse> {
        let mut chunks = Vec::new();
        let mut resp = self.exchange(method, path, extra_headers, body, &mut |c| {
            chunks.extend_from_slice(c)
        })?;
        if resp.body.is_empty() {
            resp.body = chunks;
        }
        Ok(resp)
    }

    /// POST to a streaming endpoint and decode the chunked NDJSON reply:
    /// `on_event` fires once per stage-event line; the return value is the
    /// real outcome status (from the `{"event":"result",...}` delimiter)
    /// and the final artifact bytes.  A plain response (an error path)
    /// returns its own status and body.
    pub fn post_stream_with(
        &mut self,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        mut on_event: impl FnMut(&str),
    ) -> io::Result<(u16, Vec<u8>)> {
        let mut result: Option<u16> = None;
        let mut artifact = Vec::new();
        let resp = self.exchange("POST", path, extra_headers, body, &mut |chunk| {
            if result.is_some() {
                artifact.extend_from_slice(chunk);
                return;
            }
            let line = String::from_utf8_lossy(chunk);
            let line = line.trim_end();
            if line.starts_with("{\"event\":\"result\"") {
                result = json::parse(line)
                    .ok()
                    .and_then(|j| j.get("status").and_then(Json::as_u64))
                    .map(|s| s as u16);
            } else {
                on_event(line);
            }
        })?;
        match result {
            Some(status) => Ok((status, artifact)),
            None if resp.header("transfer-encoding").is_none() => Ok((resp.status, resp.body)),
            None => Err(bad("stream ended without a result event")),
        }
    }
}

/// A reader that notes whether any byte came through it.
struct Heard<'a, R> {
    inner: &'a mut R,
    any: &'a mut bool,
}

impl<R: Read> Read for Heard<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        *self.any |= n > 0;
        Ok(n)
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
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Whether `e` means the server closed the stream (EOF, reset or broken
/// pipe), the one failure a fresh connection can cure.
fn server_closed(e: &io::Error) -> bool {
    use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

/// Test fakes' server half: read one request off `s` with [`try_parse`],
/// write `reply` (an [`encode_response`] or a hand-built stream), and
/// return the request.
#[cfg(test)]
pub(crate) fn serve_one(s: &mut TcpStream, reply: &[u8]) -> HttpRequest {
    let mut buf = Vec::new();
    loop {
        match try_parse(&buf) {
            Parsed::Complete { req, .. } => {
                s.write_all(reply).unwrap();
                return req;
            }
            Parsed::Partial => {}
            Parsed::Error { msg, .. } => panic!("fake server got a bad request: {msg}"),
        }
        let mut chunk = [0u8; 4096];
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "the client hung up mid-request");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn ok(body: &[u8]) -> Vec<u8> {
        encode_response(200, &[], body, true)
    }

    #[test]
    fn request_response_roundtrip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let reply = encode_response(
                429,
                &[("Retry-After", "2".to_string())],
                b"{\"error\":\"queue full\"}",
                true,
            );
            let req = serve_one(&mut s, &reply);
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/run");
            assert_eq!(req.body, b"{\"x\":1}");
            assert!(req.keep_alive(), "every request asks for keep-alive");
        });
        let mut conn = ClientConn::new(&addr);
        let resp = conn.request("POST", "/run", b"{\"x\":1}").unwrap();
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
            let req = serve_one(&mut s, &ok(b"ok"));
            assert_eq!(req.method, "GET");
            assert!(req.body.is_empty());
        });
        let resp = ClientConn::new(&addr)
            .request("GET", "/healthz", b"")
            .unwrap();
        assert_eq!((resp.status, resp.body.as_slice()), (200, b"ok".as_slice()));
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
    fn try_parse_answers_a_transfer_encoding_with_501() {
        let wire = b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        assert!(matches!(try_parse(wire), Parsed::Error { status: 501, .. }));
        // The request line is judged first, as before.
        assert!(matches!(
            try_parse(b"POST\r\nTransfer-Encoding: gzip\r\n\r\n"),
            Parsed::Error { status: 400, .. }
        ));
        assert_eq!(reason(501), "Not Implemented");
    }

    #[test]
    fn try_parse_answers_conflicting_lengths_with_400() {
        let wire = b"POST /run HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nabcde";
        assert!(matches!(try_parse(wire), Parsed::Error { status: 400, .. }));
        // Repeating one length is not a conflict.
        let wire = b"POST /run HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc";
        let Parsed::Complete { req, consumed } = try_parse(wire) else {
            panic!("agreeing lengths must parse");
        };
        assert_eq!(
            (req.body.as_slice(), consumed),
            (b"abc".as_slice(), wire.len())
        );
    }

    #[test]
    fn read_response_rejects_conflicting_lengths() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}";
        let err = read_response(&mut wire.as_slice(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
    fn read_response_frames_plain_and_chunked_bodies_from_a_slice() {
        let mut wire = encode_response(200, &[], b"{}", true);
        wire.extend_from_slice(b"junk");
        let (resp, surplus) =
            read_response(&mut wire.as_slice(), |_| panic!("not chunked")).unwrap();
        assert_eq!(
            (resp.status, resp.body.as_slice(), surplus),
            (200, b"{}".as_slice(), true)
        );

        let mut wire = encode_stream_head(true);
        wire.extend(encode_chunk(b"a"));
        wire.extend(encode_chunk(b"bc"));
        wire.extend(encode_last_chunk());
        let mut chunks = Vec::new();
        let (resp, surplus) =
            read_response(&mut wire.as_slice(), |c| chunks.push(c.to_vec())).unwrap();
        assert_eq!(chunks, [b"a".to_vec(), b"bc".to_vec()]);
        assert!(resp.body.is_empty() && !surplus);

        let bad_length = b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n";
        let err = read_response(&mut bad_length.as_slice(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let whole = encode_response(200, &[], b"{}", true);
        let err = read_response(&mut &whole[..whole.len() - 1], |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn chunked_stream_decodes_events_then_artifact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut out = encode_stream_head(true);
            out.extend(encode_chunk(
                b"{\"event\":\"stage\",\"stage\":\"profile\"}\n",
            ));
            out.extend(encode_chunk(b"{\"event\":\"result\",\"status\":200}\n"));
            out.extend(encode_chunk(b"{\n  \"answer\": 42\n}"));
            out.extend(encode_last_chunk());
            serve_one(&mut s, &out);
            // Same connection serves a follow-up plain request.
            serve_one(&mut s, &ok(b"after"));
        });
        let mut conn = ClientConn::new(&addr);
        let mut events = Vec::new();
        let (status, body) = conn
            .post_stream_with("/run?stream=1", &[], b"{}", |e| events.push(e.to_string()))
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
    fn a_stream_cut_after_its_first_event_is_an_error_not_a_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The test keeps the listener open, so a retry would connect.
        let accept = listener.try_clone().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = accept.accept().unwrap();
            serve_one(&mut s, &ok(b"one"));
            // On the reused stream: one event, then the server hangs up.
            let mut out = encode_stream_head(true);
            out.extend(encode_chunk(b"{\"event\":\"stage_start\"}\n"));
            serve_one(&mut s, &out);
        });
        let mut conn = ClientConn::with_timeout(&addr, Duration::from_secs(5));
        assert_eq!(conn.request("GET", "/a", b"").unwrap().body, b"one");
        let mut events = Vec::new();
        let err = conn
            .post_stream_with("/run?stream=1", &[], b"{}", |e| events.push(e.to_string()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(events, ["{\"event\":\"stage_start\"}"], "delivered once");
        assert_eq!(conn.connections_opened(), 1, "a cut stream is not retried");
        server.join().unwrap();
    }

    #[test]
    fn extra_request_headers_reach_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = serve_one(&mut s, &ok(b"ok"));
            assert_eq!(req.header("x-trace-id"), Some("ab12cd34-c0"));
            assert_eq!(req.header("accept"), Some("application/json"));
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
            serve_one(&mut s, &ok(b"one"));
            drop(s);
            // The client's retry shows up as a second connection.
            let (mut s, _) = listener.accept().unwrap();
            serve_one(&mut s, &ok(b"two"));
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
            serve_one(&mut s, &ok(b"one"));
            serve_one(&mut s, b"");
            let _ = s.read(&mut [0u8; 1]);
        });
        let mut conn = ClientConn::with_timeout(&addr, Duration::from_millis(300));
        assert_eq!(conn.request("GET", "/a", b"").unwrap().body, b"one");
        let err = conn.request("GET", "/b", b"").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
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
            let mut out = ok(b"one");
            out.extend(ok(b"junk"));
            serve_one(&mut s, &out);
            let (mut s2, _) = listener.accept().unwrap();
            serve_one(&mut s2, &ok(b"two"));
        });
        // A reused stream would wait for an answer that never comes.
        let mut conn = ClientConn::with_timeout(&addr, Duration::from_secs(5));
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
            serve_one(&mut s, &encode_stream_head(true));
            let mib = vec![b'x'; 1 << 20];
            for _ in 0..17 {
                if s.write_all(&encode_chunk(&mib)).is_err() {
                    return;
                }
            }
            let _ = s.write_all(encode_last_chunk());
        });
        let mut conn = ClientConn::new(&addr);
        let err = conn.request_with("GET", "/cache/k", &[], b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err:?}");
        assert!(err.to_string().contains("body too large"), "{err}");
        drop(conn);
        server.join().unwrap();
    }
}
