//! Single-flight: at most one computation in flight per key.
//!
//! The first asker for a key becomes the *leader* and computes; every
//! concurrent asker for the same key is a *follower* that parks on the
//! leader's flight and receives a clone of the same result (or the same
//! error) when it lands. The plan path keys flights by fingerprint, the
//! execute path by (fingerprint, input key).

use crate::ServeError;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One in-flight computation: followers park on the condvar until the
/// leader publishes.
pub(crate) struct Flight<T> {
    result: Mutex<Option<Result<T, ServeError>>>,
    done: Condvar,
}

/// The flights currently in the air, by key.
pub(crate) struct SingleFlight<K, T> {
    inflight: Mutex<HashMap<K, Arc<Flight<T>>>>,
}

/// What [`SingleFlight::join`] made of the caller.
pub(crate) enum Joined<'a, K: Hash + Eq, T> {
    /// Nobody was computing this key: the caller must, then
    /// [`Leader::publish`].
    Leader(Leader<'a, K, T>),
    /// Someone already is: [`Flight::wait`] for their result.
    Follower(Arc<Flight<T>>),
}

/// The obligation to compute a key's result and publish it.
pub(crate) struct Leader<'a, K: Hash + Eq, T> {
    flights: &'a SingleFlight<K, T>,
    key: K,
    flight: Arc<Flight<T>>,
    /// Flights in the air once this one took off.
    pub depth: usize,
}

impl<K: Hash + Eq + Clone, T: Clone> SingleFlight<K, T> {
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`, or starts one. `admit` sees the
    /// number of flights already in the air before a new one is
    /// created, under the same lock, and can refuse it.
    pub fn join(
        &self,
        key: K,
        admit: impl FnOnce(usize) -> Result<(), ServeError>,
    ) -> Result<Joined<'_, K, T>, ServeError> {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        if let Some(flight) = inflight.get(&key) {
            return Ok(Joined::Follower(Arc::clone(flight)));
        }
        admit(inflight.len())?;
        let flight = Arc::new(Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        inflight.insert(key.clone(), Arc::clone(&flight));
        Ok(Joined::Leader(Leader {
            flights: self,
            key,
            flight,
            depth: inflight.len(),
        }))
    }
}

impl<K: Hash + Eq, T> Leader<'_, K, T> {
    /// Publishes the result, wakes the followers, and only then retires
    /// the flight: a requester that finds the flight gone sees what the
    /// leader stored before publishing (the plan cache entry) instead —
    /// publish-then-remove keeps the window closed. Returns the number
    /// of flights still in the air.
    pub fn publish(self, result: Result<T, ServeError>) -> usize {
        *self.flight.result.lock().expect("flight lock") = Some(result);
        self.flight.done.notify_all();
        let mut inflight = self.flights.inflight.lock().expect("inflight lock");
        inflight.remove(&self.key);
        inflight.len()
    }
}

impl<T: Clone> Flight<T> {
    /// Parks until the leader publishes or `deadline` passes. An
    /// expired follower returns [`ServeError::DeadlineExceeded`]
    /// without cancelling the leader.
    pub fn wait(&self, deadline: Option<Instant>) -> Result<T, ServeError> {
        let mut slot = self.result.lock().expect("flight lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            match deadline {
                None => slot = self.done.wait(slot).expect("flight lock"),
                Some(at) => {
                    let Some(remaining) = at.checked_duration_since(Instant::now()) else {
                        return Err(ServeError::DeadlineExceeded);
                    };
                    let (guard, _timeout) = self
                        .done
                        .wait_timeout(slot, remaining)
                        .expect("flight lock");
                    slot = guard;
                }
            }
        }
    }
}
