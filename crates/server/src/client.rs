//! Client-side fan-out and merge (the `gsc` binary's engine).
//!
//! Given `M` servers, each cell of a sweep is routed to shard
//! `cell_shard_hash % M` — the same pure function the daemons enforce —
//! and the `M` partial stable artifacts are reassembled into one artifact
//! **byte-identical** to what a single offline run of the full sweep
//! emits.  The merge is possible because every sub-request carries the
//! full workload list (profiles are cheap and cached), so all shards agree
//! on the `workloads` array and only the `cells` arrays differ.

use crate::http::ClientConn;
use crate::protocol::{request_to_json, RunRequest};
use crate::shard::split_request;
use guardspec_harness::hash::StableHasher;
use guardspec_harness::{json, Json};
use std::time::Duration;

/// How many 429s a single sub-request tolerates before giving up.
const MAX_RETRIES: u32 = 20;

/// What a fan-out cost beyond the artifact itself: ammunition for the
/// `gsc` stderr summary and the loadgen benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// 429-triggered retries across all shards.
    pub retries: u64,
    /// TCP connections opened across all shards (1 per shard on a healthy
    /// keep-alive run, regardless of retries).
    pub connections_opened: u64,
}

/// The server's `retry_after_ms` hint, plus deterministic jitter (up to
/// +25%, from a stable hash of the attempt and address) so a herd of
/// rejected clients doesn't re-arrive in lockstep and bounce again.
fn backoff_ms(hint_ms: u64, attempt: u32, addr: &str) -> u64 {
    let base = hint_ms.clamp(10, 5_000);
    let mut h = StableHasher::new();
    h.write_str("retry-jitter");
    h.write_str(addr);
    h.write_u64(attempt as u64);
    let jitter = u64::from_str_radix(&h.finish_hex()[..8], 16).unwrap_or(0) % (base / 4 + 1);
    base + jitter
}

/// POST `req` to the server behind `conn` (reusing its keep-alive
/// connection), honouring 429 `retry_after_ms` hints with jitter.
/// Returns the response body (the stable artifact JSON) on 200 and
/// accumulates 429 retries into `retries`.
pub fn post_run_on(
    conn: &mut ClientConn,
    addr: &str,
    req: &RunRequest,
    retries: &mut u64,
) -> Result<String, String> {
    let body = request_to_json(req).to_compact();
    for attempt in 0..MAX_RETRIES {
        let resp = conn
            .request("POST", "/run", body.as_bytes())
            .map_err(|e| format!("POST {addr}/run failed: {e}"))?;
        let text = String::from_utf8_lossy(&resp.body).to_string();
        match resp.status {
            200 => return Ok(text),
            429 => {
                *retries += 1;
                let hint = json::parse(&text)
                    .ok()
                    .and_then(|j| j.get("retry_after_ms").and_then(Json::as_u64))
                    .unwrap_or(250);
                std::thread::sleep(Duration::from_millis(backoff_ms(hint, attempt, addr)));
            }
            status => return Err(format!("{addr}/run returned {status}: {text}")),
        }
    }
    Err(format!(
        "{addr}/run still refusing after {MAX_RETRIES} retries"
    ))
}

/// Fan `req` across `servers` (shard `k` of `servers.len()` goes to
/// `servers[k]`) and merge the partial artifacts back into one stable
/// artifact, byte-identical to an offline run of the full sweep, with the
/// [`ClientStats`] it cost.  Each shard gets one keep-alive connection for
/// its whole request/retry conversation.
pub fn run_fanout_stats(
    servers: &[String],
    req: &RunRequest,
) -> Result<(String, ClientStats), String> {
    if servers.is_empty() {
        return Err("no servers given".to_string());
    }
    let one_shard = |addr: &str, part: &RunRequest| -> Result<(String, ClientStats), String> {
        let mut conn = ClientConn::new(addr);
        let mut retries = 0u64;
        let body = post_run_on(&mut conn, addr, part, &mut retries)?;
        Ok((
            body,
            ClientStats {
                retries,
                connections_opened: conn.connections_opened(),
            },
        ))
    };
    if servers.len() == 1 {
        return one_shard(&servers[0], req);
    }
    let (parts, indices) = split_request(req, servers.len() as u64);
    let handles: Vec<_> = parts
        .into_iter()
        .zip(servers.iter().cloned())
        .map(|(part, addr)| std::thread::spawn(move || one_shard(&addr, &part)))
        .collect();
    let mut bodies = Vec::with_capacity(handles.len());
    let mut stats = ClientStats::default();
    for h in handles {
        let (body, s) = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        stats.retries += s.retries;
        stats.connections_opened += s.connections_opened;
        bodies.push(body);
    }
    Ok((merge_shard_bodies(&bodies, &indices)?, stats))
}

/// Reassemble `M` partial stable artifacts into the full one.  `indices[k]`
/// maps shard `k`'s cells back to their positions in the original sweep.
pub fn merge_shard_bodies(bodies: &[String], indices: &[Vec<usize>]) -> Result<String, String> {
    assert_eq!(bodies.len(), indices.len());
    let parsed: Vec<Json> = bodies
        .iter()
        .map(|b| json::parse(b))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("unparseable shard response: {e}"))?;
    let field = |j: &Json, name: &str| -> Result<Json, String> {
        j.get(name)
            .cloned()
            .ok_or_else(|| format!("shard response lacks {name:?}"))
    };
    let first = &parsed[0];
    let (experiment, scale) = (field(first, "experiment")?, field(first, "scale")?);
    let workloads = field(first, "workloads")?;
    for (k, j) in parsed.iter().enumerate().skip(1) {
        for name in ["experiment", "scale", "workloads"] {
            if field(j, name)?.to_compact() != field(first, name)?.to_compact() {
                return Err(format!("shard {k} disagrees on {name:?}"));
            }
        }
    }
    let total: usize = indices.iter().map(Vec::len).sum();
    let mut cells: Vec<Option<Json>> = vec![None; total];
    for (k, (j, idx)) in parsed.iter().zip(indices).enumerate() {
        let got = field(j, "cells")?;
        let got = got
            .as_arr()
            .ok_or_else(|| format!("shard {k} cells is not an array"))?;
        if got.len() != idx.len() {
            return Err(format!(
                "shard {k} returned {} cells, expected {}",
                got.len(),
                idx.len()
            ));
        }
        for (cell, &orig) in got.iter().zip(idx) {
            cells[orig] = Some(cell.clone());
        }
    }
    let cells: Vec<Json> = cells
        .into_iter()
        .map(|c| c.ok_or_else(|| "merge left a cell unfilled".to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Json::obj(vec![
        ("experiment", experiment),
        ("scale", scale),
        ("workloads", workloads),
        ("cells", Json::Arr(cells)),
    ])
    .to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_body(cells: &[(&str, u64)]) -> String {
        Json::obj(vec![
            ("experiment", Json::str("t")),
            ("scale", Json::str("test")),
            ("workloads", Json::Arr(vec![Json::str("w")])),
            (
                "cells",
                Json::Arr(
                    cells
                        .iter()
                        .map(|(l, v)| {
                            Json::obj(vec![("label", Json::str(*l)), ("v", Json::U64(*v))])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    #[test]
    fn merge_restores_original_cell_order() {
        // Original order: a(0) b(1) c(2) d(3); shard 0 owns {b, d},
        // shard 1 owns {c, a}.
        let b0 = shard_body(&[("b", 1), ("d", 3)]);
        let b1 = shard_body(&[("c", 2), ("a", 0)]);
        let merged = merge_shard_bodies(&[b0, b1], &[vec![1, 3], vec![2, 0]]).unwrap();
        let j = json::parse(&merged).unwrap();
        let labels: Vec<&str> = j
            .get("cells")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|c| c.get("label").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(labels, ["a", "b", "c", "d"]);
    }

    #[test]
    fn merge_rejects_disagreeing_shards() {
        let b0 = shard_body(&[("a", 0)]);
        let mut b1 = shard_body(&[("b", 1)]);
        b1 = b1.replace("\"test\"", "\"small\"");
        let err = merge_shard_bodies(&[b0, b1], &[vec![0], vec![1]]).unwrap_err();
        assert!(err.contains("disagrees on \"scale\""), "{err}");
    }

    #[test]
    fn backoff_honours_the_hint_with_bounded_jitter() {
        // Deterministic (same inputs, same wait), within [hint, hint*1.25],
        // and clamped away from silly hints.
        assert_eq!(
            backoff_ms(1000, 3, "127.0.0.1:80"),
            backoff_ms(1000, 3, "127.0.0.1:80")
        );
        for attempt in 0..10 {
            let w = backoff_ms(1000, attempt, "a:1");
            assert!((1000..=1250).contains(&w), "{w}");
        }
        assert!(backoff_ms(0, 0, "a:1") >= 10);
        assert!(backoff_ms(u64::MAX, 0, "a:1") <= 6_250);
        // Different attempts/addresses de-synchronise the herd.
        let spread: std::collections::HashSet<u64> =
            (0..10).map(|a| backoff_ms(1000, a, "a:1")).collect();
        assert!(spread.len() > 1, "jitter must actually vary");
    }

    #[test]
    fn merge_rejects_wrong_cell_count() {
        let b0 = shard_body(&[("a", 0), ("b", 1)]);
        let err = merge_shard_bodies(&[b0], &[vec![0]]).unwrap_err();
        assert!(err.contains("returned 2 cells, expected 1"), "{err}");
    }
}
