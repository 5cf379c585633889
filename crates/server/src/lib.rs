//! guardspec-as-a-service: a persistent simulation daemon (`gsd`) and its
//! fan-out client (`gsc`).
//!
//! The daemon multiplexes every connection over one epoll event loop
//! ([`event_loop`]) with HTTP/1.1 keep-alive and one request in flight
//! per connection, keeps one warm content-addressed
//! [`guardspec_harness::DiskCache`] across requests, speaks a minimal
//! hand-rolled HTTP/1.1 ([`http`]) with the workspace's no-dependency
//! JSON, dedups identical in-flight requests ([`dedup`]), applies bounded
//! fair admission control ([`queue`]), can split sweeps across several
//! daemons by cache-key range ([`shard`]), and lets sibling daemons serve
//! each other finished artifacts ([`peer`]).
//! Responses are the **stable artifact JSON** — byte-identical to what the
//! offline bench binaries write with `--stable-json`, at any worker count,
//! shard count or cache temperature; `POST /run?stream=1` prefixes those
//! bytes with NDJSON stage-progress events.

pub mod client;
pub mod dedup;
pub mod event_loop;
pub mod http;
pub mod peer;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;
pub mod trace;

pub use client::{run_fanout_stats, ClientStats};
pub use protocol::{request_from_json, request_to_json, RunRequest};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::ShardSpec;
