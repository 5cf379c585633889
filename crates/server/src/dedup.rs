//! In-flight request dedup: concurrent clients asking the same question
//! join one job and all receive its published outcome.
//!
//! The map is keyed by [`crate::protocol::request_key`].  The first
//! arrival becomes the **owner** (it schedules the job and must eventually
//! [`FlightMap::publish`]); later arrivals while the flight is open become
//! **joiners**.  Every arrival joins through [`FlightMap::enter_async`],
//! which registers a callback rather than blocking, because the event
//! loop thread that calls it may never block.  Callbacks run on the
//! publisher's thread, so they must be cheap (the server's push a
//! completion and poke an eventfd).
//!
//! Publishing removes the entry — a request arriving *after* publication
//! starts a fresh flight, which is correct (it will hit the disk cache)
//! and keeps outcomes from pinning memory forever.
//!
//! The owner publishes *whatever happened*, including rejection: if the
//! owner's enqueue bounced off a full queue, joiners get the same 429 —
//! never a hang.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a flight resolved to.  Cheap to clone — the payload is shared.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The stable artifact JSON (pretty, exactly the response body).
    Done(Arc<String>),
    /// Admission control refused the job.
    Rejected { retry_after_ms: u64 },
    /// The job panicked or failed; message for the client.
    Failed(String),
    /// The server began draining before the job could be queued.
    Draining,
}

/// A callback fired exactly once with the flight's outcome.
pub type Waiter = Box<dyn FnOnce(Outcome) + Send>;

struct FlightState {
    outcome: Option<Outcome>,
    waiters: Vec<Waiter>,
    /// The owner's trace id, when the owning request is traced — joiners
    /// read it to link their `dedup.join` span to the owner's timeline.
    trace_id: Option<String>,
}

type Flight = Mutex<FlightState>;

#[derive(Default)]
pub struct FlightMap {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl FlightMap {
    pub fn new() -> FlightMap {
        FlightMap::default()
    }

    fn enter_flight(&self, key: &str) -> (Arc<Flight>, bool) {
        let mut map = self.flights.lock().unwrap();
        match map.get(key) {
            Some(f) => (f.clone(), false),
            None => {
                let flight = Arc::new(Mutex::new(FlightState {
                    outcome: None,
                    waiters: Vec::new(),
                    trace_id: None,
                }));
                map.insert(key.to_string(), flight.clone());
                (flight, true)
            }
        }
    }

    /// Non-blocking entry: `waiter` fires with the outcome whenever it
    /// publishes (immediately, on this thread, if it already has — the
    /// flight may have published between map lookup and registration).
    /// Returns whether this arrival owns the flight and must schedule the
    /// job that eventually publishes.
    pub fn enter_async(&self, key: &str, waiter: Waiter) -> bool {
        let (flight, owner) = self.enter_flight(key);
        let fire_now = {
            let mut st = flight.lock().unwrap();
            match st.outcome.clone() {
                Some(o) => Some((waiter, o)),
                None => {
                    st.waiters.push(waiter);
                    None
                }
            }
        };
        if let Some((w, o)) = fire_now {
            w(o);
        }
        owner
    }

    /// Publish the owner's outcome: fire every registered callback (on
    /// this thread, outside the locks).  The entry is removed first, so
    /// arrivals from this instant on start a new flight.
    pub fn publish(&self, key: &str, outcome: Outcome) {
        let flight = self
            .flights
            .lock()
            .unwrap()
            .remove(key)
            .expect("publish without an open flight");
        let waiters = {
            let mut st = flight.lock().unwrap();
            st.outcome = Some(outcome.clone());
            std::mem::take(&mut st.waiters)
        };
        for w in waiters {
            w(outcome.clone());
        }
    }

    /// Flights currently open (owned, not yet published).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().unwrap().len()
    }

    /// Tag the open flight for `key` with its owner's trace id (no-op if
    /// the flight already published).
    pub fn set_trace(&self, key: &str, trace_id: &str) {
        if let Some(f) = self.flights.lock().unwrap().get(key) {
            f.lock().unwrap().trace_id = Some(trace_id.to_string());
        }
    }

    /// The owner's trace id for the open flight on `key`, if any.
    pub fn trace_of(&self, key: &str) -> Option<String> {
        let f = self.flights.lock().unwrap().get(key)?.clone();
        let st = f.lock().unwrap();
        st.trace_id.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joiners_receive_the_owners_outcome() {
        let map = Arc::new(FlightMap::new());
        let (tx, rx) = std::sync::mpsc::channel();
        // All eight arrive before anyone publishes, so one owns the flight
        // and the other seven join it.
        let entered = Arc::new(std::sync::Barrier::new(9));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (map, tx, entered) = (map.clone(), tx.clone(), entered.clone());
                std::thread::spawn(move || {
                    let waiter: Waiter = Box::new(move |o| tx.send(o).unwrap());
                    let owner = map.enter_async("k", waiter);
                    entered.wait();
                    owner
                })
            })
            .collect();
        entered.wait();
        assert_eq!(map.in_flight(), 1);
        map.publish("k", Outcome::Done(Arc::new("payload".to_string())));
        let owners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&owner| owner)
            .count();
        assert_eq!(owners, 1, "exactly one arrival owns the flight");
        drop(tx);
        let outcomes: Vec<Outcome> = rx.iter().collect();
        assert_eq!(outcomes.len(), 8, "every arrival's waiter fires once");
        for o in outcomes {
            assert!(
                matches!(&o, Outcome::Done(s) if s.as_str() == "payload"),
                "{o:?}"
            );
        }
        assert_eq!(map.in_flight(), 0);
    }

    #[test]
    fn publication_closes_the_flight() {
        let map = FlightMap::new();
        assert!(map.enter_async("k", Box::new(|_| {})));
        assert_eq!(map.in_flight(), 1);
        map.publish("k", Outcome::Rejected { retry_after_ms: 9 });
        assert_eq!(map.in_flight(), 0);
        // The next arrival is a fresh owner, not a joiner of stale state.
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(map.enter_async("k", Box::new(move |o| tx.send(o).unwrap())));
        assert!(rx.try_recv().is_err(), "a fresh flight has no outcome yet");
        map.publish("k", Outcome::Draining);
        assert!(matches!(rx.try_recv(), Ok(Outcome::Draining)));
    }

    #[test]
    fn async_waiters_fire_on_publish_in_registration_order() {
        let map = FlightMap::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |tag: &'static str| {
            let log = log.clone();
            Box::new(move |o: Outcome| {
                log.lock()
                    .unwrap()
                    .push((tag, matches!(o, Outcome::Done(_))));
            }) as Waiter
        };
        assert!(map.enter_async("k", push("owner")));
        assert!(!map.enter_async("k", push("join1")));
        assert!(!map.enter_async("k", push("join2")));
        assert!(
            log.lock().unwrap().is_empty(),
            "nothing fires before publish"
        );
        map.publish("k", Outcome::Done(Arc::new("x".to_string())));
        assert_eq!(
            log.lock().unwrap().as_slice(),
            [("owner", true), ("join1", true), ("join2", true)]
        );
        assert_eq!(map.in_flight(), 0);
    }

    #[test]
    fn flight_trace_ids_live_and_die_with_the_flight() {
        let map = FlightMap::new();
        assert!(map.enter_async("k", Box::new(|_| {})));
        assert_eq!(map.trace_of("k"), None);
        map.set_trace("k", "ab12cd34-s0");
        assert_eq!(map.trace_of("k"), Some("ab12cd34-s0".to_string()));
        map.publish("k", Outcome::Draining);
        assert_eq!(map.trace_of("k"), None);
        // Tagging a published (absent) flight is a no-op, not a panic.
        map.set_trace("k", "zz");
        assert_eq!(map.trace_of("k"), None);
    }
}
