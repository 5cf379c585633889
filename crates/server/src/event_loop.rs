//! Single-threaded epoll event loop: the connection plane of `gsd`.
//!
//! The previous service layer spent a thread per connection and paid a
//! full TCP handshake per request.  This module replaces it with one
//! event-loop thread multiplexing every connection over `epoll` (raw
//! syscalls via the same thin-FFI style as `gsd`'s `signal()` drain —
//! no async runtime, no crates), plus the existing worker pool for the
//! actual simulation jobs.
//!
//! Division of labour:
//!
//! * **This thread** accepts, reads, parses (incrementally, via
//!   [`http::try_parse`]), dispatches to the [`Service`], and writes
//!   responses.  It never blocks on a socket and never computes.
//! * **Workers** run jobs and *complete* requests by pushing a
//!   [`Completion`] through the [`Wakeup`] (a mutexed vector plus an
//!   `eventfd` poke).  A [`Responder`] is the cloneable capability to do
//!   so for one specific request.
//!
//! Per-connection state machine (one request in flight at a time):
//!
//! ```text
//!   read → rbuf
//!   pump:     the open slot, once done → wbuf (slot closes); flush wbuf
//!   dispatch: no slot open → try_parse(rbuf) ─┬─ Partial  → wait for bytes
//!                                             ├─ Complete → open slot(seq)
//!                                             └─ Error    → error slot, close
//!   repeat pump → dispatch until neither makes progress
//!   completions → the open slot, if their seq is its seq
//! ```
//!
//! A pipelining client is answered in request order because the next
//! request is parsed only after its predecessor's response has been
//! queued for write.  Bytes already in `rbuf` raise no new `EPOLLIN`, so
//! the loop dispatches such a request in the same iteration that writes
//! its predecessor's response.  While a slot is open the connection's
//! `EPOLLIN` interest is dropped, so a flooding client is back-pressured
//! by TCP instead of ballooning `rbuf`.
//!
//! Keep-alive is the default (HTTP/1.1 semantics, see
//! [`HttpRequest::keep_alive`]); a connection closes when the client
//! asks, after `max_conn_requests`, on a parse error, while draining, or
//! after `idle_timeout_ms` with nothing in flight.  A client that
//! half-closes is still answered: every complete request that arrived
//! before its EOF is dispatched in turn, and the connection closes once
//! none is left (a partial request at EOF can never complete).
//!
//! Streaming responses (`POST /run?stream=1`) hold their slot open:
//! `Responder::event` lines are flushed as chunked NDJSON the moment
//! they arrive, and the final [`Completion::Reply`] becomes a
//! `{"event":"result",...}` delimiter chunk followed by the artifact
//! body.  The HTTP status is always 200 on a stream; the real status
//! rides in the result event.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::http::{self, HttpRequest, Parsed};

mod ffi {
    use std::os::raw::c_int;

    // x86-64 is the one ABI where the kernel's epoll_event is packed.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }
}

/// Connection limits, taken from the server's configuration.
#[derive(Clone, Copy, Debug)]
pub struct EventLoopConfig {
    /// Close keep-alive connections idle (no request in flight) this long.
    pub idle_timeout_ms: u64,
    /// Close a connection after serving this many requests.
    pub max_conn_requests: u64,
}

/// What the application hands back to the loop for one request.
pub enum Completion {
    /// The final response.  For streaming slots this closes the stream
    /// with a result-event chunk + body chunks; `headers` are ignored
    /// there (chunked framing owns the wire format).
    Reply {
        token: u64,
        seq: u64,
        status: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    },
    /// One NDJSON progress line for a streaming slot (ignored on
    /// non-streaming slots and on connections that already died).
    Event { token: u64, seq: u64, line: String },
}

/// Completion queue + `eventfd` doorbell.  Workers push from any thread;
/// the loop drains on wake-up.  `notify()` alone (no completion) is how
/// `begin_shutdown` kicks the loop into re-checking its drain condition.
pub struct Wakeup {
    queue: Mutex<Vec<Completion>>,
    efd: c_int,
}

impl Wakeup {
    pub fn new() -> io::Result<Wakeup> {
        let efd = unsafe { ffi::eventfd(0, ffi::EFD_NONBLOCK | ffi::EFD_CLOEXEC) };
        if efd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Wakeup {
            queue: Mutex::new(Vec::new()),
            efd,
        })
    }

    fn push(&self, c: Completion) {
        self.queue.lock().unwrap().push(c);
        self.notify();
    }

    /// Poke the loop without enqueuing anything.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe { ffi::write(self.efd, &one as *const u64 as *const u8, 8) };
    }

    fn drain(&self) -> Vec<Completion> {
        let mut buf = [0u8; 8];
        // Nonblocking: read until the counter is clear.
        while unsafe { ffi::read(self.efd, buf.as_mut_ptr(), 8) } == 8 {}
        std::mem::take(&mut *self.queue.lock().unwrap())
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        unsafe { ffi::close(self.efd) };
    }
}

/// The capability to answer one specific request.  Cloneable so the
/// application can stash it in a progress hook *and* a flight waiter.
#[derive(Clone)]
pub struct Responder {
    wake: Arc<Wakeup>,
    token: u64,
    seq: u64,
}

impl Responder {
    pub fn reply(&self, status: u16, headers: Vec<(String, String)>, body: Vec<u8>) {
        self.wake.push(Completion::Reply {
            token: self.token,
            seq: self.seq,
            status,
            headers,
            body,
        });
    }

    pub fn event(&self, line: &str) {
        self.wake.push(Completion::Event {
            token: self.token,
            seq: self.seq,
            line: line.to_string(),
        });
    }
}

/// What the loop needs from the application.  Implemented by the
/// server's `Shared`.
pub trait Service: Send + Sync + 'static {
    /// Handle one parsed request.  Must eventually cause exactly one
    /// `responder.reply(..)` (synchronously or from a worker); streaming
    /// requests may interleave `responder.event(..)` before it.
    fn handle(&self, req: HttpRequest, peer: SocketAddr, responder: Responder);
    /// True once shutdown began: new connections stop keeping alive.
    fn draining(&self) -> bool;
    /// True once the application side has no queued/executing work left.
    fn drained(&self) -> bool;
    fn metric_incr(&self, name: &str);
    /// Record a duration sample (nanoseconds) into a latency histogram.
    fn metric_time(&self, name: &str, ns: u64);
}

/// A finished response: status, extra headers, body.
type Reply = (u16, Vec<(String, String)>, Vec<u8>);

/// The one request a connection has in flight.
struct Slot {
    /// The request's number on its connection; completions carrying
    /// another `seq` are dropped.
    seq: u64,
    stream: bool,
    close_after: bool,
    /// Stream head bytes already emitted.
    started: bool,
    events: Vec<String>,
    done: Option<Reply>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The dispatched request whose response is not yet queued for write.
    slot: Option<Slot>,
    /// Requests dispatched over the connection's lifetime; the latest
    /// one's `seq`.
    dispatched: u64,
    last_activity: Instant,
    /// No more dispatches; close once the slot and `wbuf` have flushed.
    closing: bool,
    /// The peer half-closed: nothing more will arrive, but the complete
    /// requests already in `rbuf` are still answered, one at a time.
    eof: bool,
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            slot: None,
            dispatched: 0,
            last_activity: Instant::now(),
            closing: false,
            eof: false,
            interest: ffi::EPOLLIN,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn quiescent(&self) -> bool {
        self.slot.is_none() && self.flushed()
    }

    /// The open slot, if `seq` names it.
    fn slot_for(&mut self, seq: u64) -> Option<&mut Slot> {
        self.slot.as_mut().filter(|s| s.seq == seq)
    }
}

fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
    let mut ev = ffi::EpollEvent { events, data };
    let rc = unsafe { ffi::epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Run the loop until the service reports itself drained.  Owns the
/// listener; every connection socket lives and dies on this thread.
pub fn run_event_loop(
    listener: TcpListener,
    service: Arc<dyn Service>,
    wake: Arc<Wakeup>,
    cfg: EventLoopConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Ensure the fd is released on every exit path below.
    struct EpollFd(c_int);
    impl Drop for EpollFd {
        fn drop(&mut self) {
            unsafe { ffi::close(self.0) };
        }
    }
    let epfd = EpollFd(epfd);

    epoll_ctl(
        epfd.0,
        ffi::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        ffi::EPOLLIN,
        TOKEN_LISTENER,
    )?;
    epoll_ctl(
        epfd.0,
        ffi::EPOLL_CTL_ADD,
        wake.efd,
        ffi::EPOLLIN,
        TOKEN_WAKEUP,
    )?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![ffi::EpollEvent { events: 0, data: 0 }; 64];

    loop {
        let n = unsafe { ffi::epoll_wait(epfd.0, events.as_mut_ptr(), events.len() as c_int, 100) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        // Wake-to-dispatch latency is measured from here: how long a
        // parsed request sits behind this iteration's other work.
        let t_wake = Instant::now();

        for ev in events.iter().take(n as usize) {
            let token = ev.data; // copy out: the struct may be packed
            match token {
                TOKEN_LISTENER => {
                    accept_all(&listener, epfd.0, &mut conns, &mut next_token, &*service)
                }
                TOKEN_WAKEUP => {} // drained below, every iteration
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        let bits = ev.events;
                        if bits & (ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP) != 0 {
                            read_conn(conn);
                        }
                        if bits & ffi::EPOLLOUT != 0 {
                            conn.last_activity = Instant::now();
                        }
                    }
                }
            }
        }

        for done in wake.drain() {
            match done {
                Completion::Reply {
                    token,
                    seq,
                    status,
                    headers,
                    body,
                } => {
                    if let Some(slot) = conns.get_mut(&token).and_then(|c| c.slot_for(seq)) {
                        slot.done = Some((status, headers, body));
                    }
                }
                Completion::Event { token, seq, line } => {
                    if let Some(slot) = conns.get_mut(&token).and_then(|c| c.slot_for(seq)) {
                        if slot.stream && slot.done.is_none() {
                            slot.events.push(line);
                        }
                    }
                }
            }
        }

        let now = Instant::now();
        let mut dead = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            // Pump first: a finished slot must close before the next
            // request in `rbuf` can dispatch.  Repeat, because a dispatch
            // may open an error slot that is already answered.
            let alive = loop {
                let (alive, flush_ns) = pump(conn);
                if flush_ns > 0 {
                    service.metric_time("conn.flush", flush_ns);
                }
                if !alive || !dispatch(conn, token, &*service, &wake, &cfg, t_wake) {
                    break alive;
                }
            };
            // Quiescent after the dispatch loop means no complete request
            // is left in `rbuf`: after a half-close, what remains is a
            // partial request that can never complete.
            if !alive || ((conn.closing || conn.eof) && conn.quiescent()) {
                dead.push(token);
                continue;
            }
            // Reap idle keep-alive connections.
            if conn.quiescent()
                && !conn.closing
                && now.duration_since(conn.last_activity).as_millis() as u64 >= cfg.idle_timeout_ms
            {
                service.metric_incr("connections.reaped");
                dead.push(token);
                continue;
            }
            let mut want = 0u32;
            if !conn.closing && !conn.eof && conn.slot.is_none() {
                want |= ffi::EPOLLIN;
            }
            if !conn.flushed() {
                want |= ffi::EPOLLOUT;
            }
            if want != conn.interest {
                let _ = epoll_ctl(
                    epfd.0,
                    ffi::EPOLL_CTL_MOD,
                    conn.stream.as_raw_fd(),
                    want,
                    token,
                );
                conn.interest = want;
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = epoll_ctl(epfd.0, ffi::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            }
        }

        if service.draining() && service.drained() && conns.values().all(|c| c.quiescent()) {
            // Remaining connections are idle keep-alives; dropping the map
            // closes them.
            return Ok(());
        }
    }
}

fn accept_all(
    listener: &TcpListener,
    epfd: c_int,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    service: &dyn Service,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if epoll_ctl(
                    epfd,
                    ffi::EPOLL_CTL_ADD,
                    stream.as_raw_fd(),
                    ffi::EPOLLIN,
                    token,
                )
                .is_err()
                {
                    continue;
                }
                conns.insert(token, Conn::new(stream));
                service.metric_incr("connections.opened");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Pull everything the socket has; never blocks.
fn read_conn(conn: &mut Conn) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closing = true;
                break;
            }
        }
    }
}

/// Dispatch the next complete request in `rbuf` unless a request is
/// already in flight.  Returns whether a slot opened.
fn dispatch(
    conn: &mut Conn,
    token: u64,
    service: &dyn Service,
    wake: &Arc<Wakeup>,
    cfg: &EventLoopConfig,
    t_wake: Instant,
) -> bool {
    if conn.closing || conn.slot.is_some() {
        return false;
    }
    match http::try_parse(&conn.rbuf) {
        Parsed::Partial => false,
        Parsed::Complete { req, consumed } => {
            conn.rbuf.drain(..consumed);
            conn.dispatched += 1;
            let seq = conn.dispatched;
            if seq > 1 {
                service.metric_incr("connections.reused");
            }
            let stream = req.method == "POST" && req.path == "/run" && req.query_flag("stream");
            let keep = req.keep_alive() && seq < cfg.max_conn_requests && !service.draining();
            conn.slot = Some(Slot {
                seq,
                stream,
                close_after: !keep,
                started: false,
                events: Vec::new(),
                done: None,
            });
            if !keep {
                conn.closing = true;
            }
            let peer = conn
                .stream
                .peer_addr()
                .unwrap_or_else(|_| "0.0.0.0:0".parse().unwrap());
            service.metric_time("loop.dispatch", t_wake.elapsed().as_nanos() as u64);
            service.handle(
                req,
                peer,
                Responder {
                    wake: wake.clone(),
                    token,
                    seq,
                },
            );
            true
        }
        Parsed::Error { status, msg } => {
            // Answer what we can make sense of, then hang up: bytes
            // after a framing error are garbage.  The loop answers this
            // slot itself, so its seq (0) matches no responder.
            let body = format!("{{\"error\":\"{msg}\"}}\n").into_bytes();
            conn.slot = Some(Slot {
                seq: 0,
                stream: false,
                close_after: true,
                started: false,
                events: Vec::new(),
                done: Some((
                    status,
                    vec![("Content-Type".to_string(), "application/json".to_string())],
                    body,
                )),
            });
            conn.closing = true;
            conn.rbuf.clear();
            true
        }
    }
}

/// Encode the open slot into `wbuf` (a stream's head and event lines as
/// they arrive), closing the slot once its reply is encoded, then flush as
/// much as the socket accepts.  Returns `(alive, flush_ns)`: `alive` is
/// false if the peer died; `flush_ns` is the time spent in the write loop
/// when any bytes actually moved (0 otherwise), so the loop can histogram
/// its per-connection flush cost.
fn pump(conn: &mut Conn) -> (bool, u64) {
    if let Some(slot) = &mut conn.slot {
        if slot.stream {
            if !slot.started && (!slot.events.is_empty() || slot.done.is_some()) {
                conn.wbuf
                    .extend_from_slice(&http::encode_stream_head(!slot.close_after));
                slot.started = true;
            }
            for line in slot.events.drain(..) {
                let mut framed = line.into_bytes();
                framed.push(b'\n');
                conn.wbuf.extend_from_slice(&http::encode_chunk(&framed));
            }
            if let Some((status, _headers, body)) = slot.done.take() {
                let result = format!("{{\"event\":\"result\",\"status\":{status}}}\n");
                conn.wbuf
                    .extend_from_slice(&http::encode_chunk(result.as_bytes()));
                if !body.is_empty() {
                    conn.wbuf.extend_from_slice(&http::encode_chunk(&body));
                }
                conn.wbuf.extend_from_slice(http::encode_last_chunk());
                conn.slot = None;
            }
        } else if let Some((status, headers, body)) = slot.done.take() {
            let hdrs: Vec<(&str, String)> = headers
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            let keep = !slot.close_after;
            conn.wbuf
                .extend_from_slice(&http::encode_response(status, &hdrs, &body, keep));
            conn.slot = None;
        }
    }

    let t_flush = Instant::now();
    let wpos_before = conn.wpos;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return (false, 0),
            Ok(n) => {
                conn.wpos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (false, 0),
        }
    }
    let flush_ns = if conn.wpos > wpos_before {
        t_flush.elapsed().as_nanos() as u64
    } else {
        0
    };
    if conn.flushed() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    (true, flush_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_queues_and_drains() {
        let wake = Wakeup::new().unwrap();
        wake.push(Completion::Event {
            token: 7,
            seq: 0,
            line: "a".to_string(),
        });
        wake.push(Completion::Reply {
            token: 7,
            seq: 0,
            status: 200,
            headers: Vec::new(),
            body: b"ok".to_vec(),
        });
        let drained = wake.drain();
        assert_eq!(drained.len(), 2);
        assert!(matches!(&drained[0], Completion::Event { line, .. } if line == "a"));
        assert!(matches!(&drained[1], Completion::Reply { status: 200, .. }));
        assert!(wake.drain().is_empty());
    }
}
