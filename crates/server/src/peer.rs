//! Cross-shard cache peering: before simulating a cold request, ask the
//! other shards whether one of them already holds the finished artifact.
//!
//! Each `gsd` exposes `GET /cache/<key>`, a counter-free read of its
//! local disk cache (see `DiskCache::peek`).  A daemon started with
//! `--peers host:port,host:port` consults them — **from a worker
//! thread, never the event loop** — on a local response-cache miss,
//! after the in-flight dedup made this worker the flight owner, so a
//! peered fetch and a local compute can never race on the same key.
//!
//! Failure is soft by design: any connect/read error or non-200 just
//! means "that peer doesn't have it", and the worker falls back to the
//! next peer or to local compute.  Timeouts
//! (`ServerConfig::peer_timeout_ms`) bound the worst case — a down or
//! hung peer costs one short timeout per fetch, not a wedged worker — and
//! are counted separately (`cache.peer_timeouts`) from plain misses so a
//! sick topology is visible in `/metrics`.
//! Connections are keep-alive ([`ClientConn`]): each peer keeps one idle
//! connection, so a warm peering pair costs one TCP handshake, not one per
//! fetch.  A worker holds the peer's lock only to take that connection or
//! to put one back; a worker that finds it taken opens its own, with the
//! same timeout, so concurrent fetches from one slow peer wait side by
//! side rather than in turn.  A returned connection is kept only if the
//! slot is still empty.
//!
//! Observability: every probe's round-trip lands in the `peer.rtt`
//! histogram, and a traced request's id rides the outbound probe as
//! `X-Trace-Id`, so the serving peer's `GET /trace` timeline can be
//! joined to the requesting daemon's.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use guardspec_harness::MetricsRegistry;

use crate::http::ClientConn;

pub struct PeerSet {
    /// Each peer's address and its idle connection, if one is parked.
    peers: Vec<(String, Mutex<Option<ClientConn>>)>,
    timeout: Duration,
}

impl PeerSet {
    /// `addrs` as given on the command line; empty means peering is off.
    /// `timeout` bounds connect + read + write per probe
    /// (`ServerConfig::peer_timeout_ms`, default 2000).
    pub fn new(addrs: &[String], timeout: Duration) -> PeerSet {
        PeerSet {
            peers: addrs
                .iter()
                .map(|a| (a.clone(), Mutex::new(None)))
                .collect(),
            timeout,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Ask each peer in turn for `key`; first 200 wins.  `None` means no
    /// peer has it (or none is reachable) — compute locally.  A traced
    /// request forwards its id so the peer's timeline links to ours.
    pub fn fetch(
        &self,
        key: &str,
        trace_id: Option<&str>,
        metrics: &MetricsRegistry,
    ) -> Option<Vec<u8>> {
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(id) = trace_id {
            headers.push(("X-Trace-Id", id));
        }
        for (addr, idle) in &self.peers {
            let parked = idle.lock().expect("no fetch panics holding a slot").take();
            let mut conn = parked.unwrap_or_else(|| ClientConn::with_timeout(addr, self.timeout));
            let t0 = Instant::now();
            let outcome = conn.request_with("GET", &format!("/cache/{key}"), &headers, b"");
            metrics.time_ns("peer.rtt", t0.elapsed().as_nanos() as u64);
            // A failed request already dropped its socket, so parking the
            // handle never hands a stale stream to the next fetch.
            idle.lock()
                .expect("no fetch panics holding a slot")
                .get_or_insert(conn);
            match outcome {
                Ok(resp) if resp.status == 200 => return Some(resp.body),
                Ok(_) => {} // 404: this peer ran cold too
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    // A slow peer is a different disease than a cold one.
                    metrics.incr("cache.peer_timeouts");
                }
                Err(_) => {} // down peer: soft-fail to the next one
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{encode_response, serve_one};
    use std::net::TcpListener;

    const FAST: Duration = Duration::from_millis(2_000);

    #[test]
    fn empty_peer_set_is_a_cheap_no_op() {
        let metrics = MetricsRegistry::new();
        let peers = PeerSet::new(&[], FAST);
        assert!(peers.is_empty());
        assert!(peers.fetch("resp-00", None, &metrics).is_none());
    }

    #[test]
    fn unreachable_peer_degrades_to_none() {
        // A closed port answers with a fast RST; the fetch must soft-fail.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        let metrics = MetricsRegistry::new();
        let peers = PeerSet::new(&[addr], FAST);
        assert!(peers.fetch("resp-00", None, &metrics).is_none());
        assert_eq!(
            metrics.get("cache.peer_timeouts"),
            0,
            "RST is not a timeout"
        );
    }

    #[test]
    fn silent_peer_counts_as_a_timeout_not_a_miss() {
        // Accept the connection, never answer: the short timeout trips
        // and is counted, distinct from a 404 miss.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            drop(s);
        });
        let metrics = MetricsRegistry::new();
        let peers = PeerSet::new(&[addr], Duration::from_millis(50));
        assert!(peers.fetch("resp-00", None, &metrics).is_none());
        assert_eq!(metrics.get("cache.peer_timeouts"), 1);
        let rtt = metrics.histogram("peer.rtt");
        assert!(rtt.count() >= 1, "every probe records an RTT sample");
        hold.join().unwrap();
    }

    #[test]
    fn concurrent_fetches_from_a_silent_peer_time_out_side_by_side() {
        // Accept both connections and never answer until both fetches are
        // over.  Started together, each fetch must cost one timeout, not
        // wait out the other's first.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let (done, fetched) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            let held: Vec<_> = (0..2).map(|_| l.accept().unwrap().0).collect();
            let _ = fetched.recv();
            drop(held);
        });
        let metrics = MetricsRegistry::new();
        let peers = PeerSet::new(&[addr], Duration::from_millis(300));
        let start = std::sync::Barrier::new(2);
        let elapsed: Vec<Duration> = std::thread::scope(|s| {
            let fetches = ["resp-00", "resp-01"].map(|key| {
                let (peers, metrics, start) = (&peers, &metrics, &start);
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    assert!(peers.fetch(key, None, metrics).is_none());
                    t0.elapsed()
                })
            });
            fetches.map(|f| f.join().unwrap()).to_vec()
        });
        drop(done);
        for e in &elapsed {
            assert!(*e < Duration::from_millis(450), "fetch took {e:?}");
        }
        assert_eq!(metrics.get("cache.peer_timeouts"), 2);
        hold.join().unwrap();
    }

    #[test]
    fn trace_id_rides_the_probe_as_a_header() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let req = serve_one(&mut s, &encode_response(200, &[], b"artifact", false));
            req.header("x-trace-id").map(str::to_string)
        });
        let metrics = MetricsRegistry::new();
        let peers = PeerSet::new(&[addr], FAST);
        let got = peers.fetch("resp-00", Some("ab12cd34-s3"), &metrics);
        assert_eq!(got.as_deref(), Some(b"artifact".as_slice()));
        assert_eq!(server.join().unwrap().as_deref(), Some("ab12cd34-s3"));
    }
}
