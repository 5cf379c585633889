//! Admission control: a bounded, per-client round-robin fair queue.
//!
//! One tenant posting a 10k-cell sweep must not starve another tenant's
//! single request.  Jobs are therefore queued per client identity, and the
//! worker pops clients in round-robin order — with `k` active clients each
//! gets every `k`-th execution slot regardless of backlog skew.
//!
//! The *total* queued count is capped.  A push over the cap is refused
//! immediately ([`PushError::Full`] carries a retry hint derived from the
//! backlog) — the caller turns this into a structured 429, never a silent
//! drop.  After [`FairQueue::close`], pushes are refused as draining and
//! pops drain whatever is left, then return `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity; retry after roughly this many milliseconds.
    Full { retry_after_ms: u64 },
    /// The server is shutting down and admits no new work.
    Draining,
}

struct Inner<T> {
    /// One non-empty backlog per client with queued work, in arrival
    /// order; a lane goes as soon as it empties.
    lanes: VecDeque<(String, VecDeque<T>)>,
    /// Next lane to serve (round-robin cursor).
    cursor: usize,
    queued: usize,
    closed: bool,
}

/// Bounded multi-tenant FIFO with round-robin service between tenants.
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
    /// Rough per-job service-time estimate backing the retry hint.
    est_job_ms: u64,
}

impl<T> FairQueue<T> {
    pub fn new(cap: usize, est_job_ms: u64) -> FairQueue<T> {
        FairQueue {
            inner: Mutex::new(Inner {
                lanes: VecDeque::new(),
                cursor: 0,
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            est_job_ms: est_job_ms.max(1),
        }
    }

    /// Enqueue for `client`; refuses when full or draining.
    pub fn push(&self, client: &str, item: T) -> Result<(), PushError> {
        let mut q = self.inner.lock().unwrap();
        if q.closed {
            return Err(PushError::Draining);
        }
        if q.queued >= self.cap {
            // The backlog clears at ~one job per est_job_ms; tell the
            // client when a slot should plausibly be free.
            return Err(PushError::Full {
                retry_after_ms: self.est_job_ms * (q.queued as u64),
            });
        }
        match q.lanes.iter_mut().find(|(c, _)| c == client) {
            Some((_, lane)) => lane.push_back(item),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(item);
                q.lanes.push_back((client.to_string(), lane));
            }
        }
        q.queued += 1;
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop in round-robin client order.  `None` means closed and
    /// fully drained — the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if q.queued > 0 {
                let i = q.cursor % q.lanes.len();
                let item = q.lanes[i].1.pop_front().expect("lanes are never empty");
                if q.lanes[i].1.is_empty() {
                    // The next lane slides into slot `i`.
                    q.lanes.remove(i);
                    q.cursor = i;
                } else {
                    q.cursor = i + 1;
                }
                q.queued -= 1;
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Jobs currently queued (not yet popped).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queued
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuse new pushes; queued work still drains through `pop`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_robin_interleaves_clients() {
        let q = FairQueue::new(16, 100);
        // Tenant "bulk" floods first; "solo" arrives after with one job.
        for i in 0..5 {
            q.push("bulk", format!("bulk-{i}")).unwrap();
        }
        q.push("solo", "solo-0".to_string()).unwrap();
        let order: Vec<String> =
            std::iter::from_fn(|| if q.is_empty() { None } else { q.pop() }).collect();
        // solo's single job is served second, not sixth.
        assert_eq!(order[0], "bulk-0");
        assert_eq!(order[1], "solo-0");
        assert_eq!(order[2..], ["bulk-1", "bulk-2", "bulk-3", "bulk-4"]);
    }

    #[test]
    fn empty_lanes_go_and_round_robin_holds() {
        let q = FairQueue::new(20_000, 1);
        for i in 0..10_000 {
            q.push(&format!("client-{i}"), i).unwrap();
        }
        assert_eq!(q.inner.lock().unwrap().lanes.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.inner.lock().unwrap().lanes.is_empty(), "no lane left");

        // Three clients, one of which drains early: the others keep
        // alternating, and a returning client queues at the back.
        for (client, item) in [
            ("a", 1),
            ("a", 2),
            ("a", 3),
            ("b", 10),
            ("c", 20),
            ("c", 21),
        ] {
            q.push(client, item).unwrap();
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(10)); // b empties and goes
        q.push("b", 11).unwrap();
        let order: Vec<i32> =
            std::iter::from_fn(|| if q.is_empty() { None } else { q.pop() }).collect();
        assert_eq!(order, [20, 11, 2, 21, 3]);
        assert!(q.inner.lock().unwrap().lanes.is_empty());
    }

    #[test]
    fn cap_refuses_with_retry_hint() {
        let q = FairQueue::new(2, 250);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        match q.push("c", 3) {
            Err(PushError::Full { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 500, "2 queued x 250ms estimate");
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // Popping frees a slot.
        q.pop().unwrap();
        q.push("c", 3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(FairQueue::new(8, 1));
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        q.close();
        assert_eq!(q.push("a", 3), Err(PushError::Draining));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        // A blocked popper on an empty closed queue wakes with None.
        let q2 = Arc::new(FairQueue::<u32>::new(8, 1));
        let popper = {
            let q2 = q2.clone();
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        q2.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
