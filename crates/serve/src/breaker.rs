//! Circuit breaker for the multi-tenant front door.
//!
//! The breaker watches *storm* signals — fault recoveries from the
//! fault-tolerant executor (the serve-side view of the
//! `Subsystem::Faults` counters), outright execution failures, and
//! worker-process deaths reported by an attached fleet — and, when too
//! many land inside a sliding window, stops trusting the fleet and
//! the concurrency those signals came from.
//!
//! # State machine
//!
//! ```text
//!            storm (>= trip_threshold events in window)
//!   Closed ────────────────────────────────────────────▶ Open
//!     ▲                                                   │
//!     │ probe_successes consecutive                       │ cooldown
//!     │ successful probes                                 ▼
//!     └───────────────────────────────────────────── HalfOpen
//!                       failed probe ──▶ Open (again; a *reopen*,
//!                                        not a new trip)
//! ```
//!
//! * **Closed** — normal service. Every storm event is timestamped;
//!   when `trip_threshold` of them fall inside `window`, the breaker
//!   trips to Open (`trips` increments — the bench asserts this
//!   happens *exactly once* under a seeded storm).
//! * **Open** — the front door degrades: each request runs
//!   in-process, one at a time and unbatched, on the same cached plan,
//!   slot and memory budget as any other (see `front.rs`). Degraded
//!   requests still get correct answers; nothing is dropped. After
//!   `cooldown` the next request becomes a probe.
//! * **HalfOpen** — one probe at a time runs the normal path; other
//!   requests stay degraded. `probe_successes` consecutive successes
//!   close the breaker and clear the event window; one failure reopens
//!   it (counted in `reopens`, so trip-exactly-once stays assertable).
//!
//! All transitions happen under one mutex; the per-request cost when
//! Closed with no events is a lock + two branch checks.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Storm events inside [`BreakerConfig::window`] that trip Closed
    /// → Open.
    pub trip_threshold: u32,
    /// Sliding window storm events are counted over.
    pub window: Duration,
    /// Time Open before the next request probes the normal path.
    pub cooldown: Duration,
    /// Consecutive successful probes required to close again.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_threshold: 8,
            window: Duration::from_secs(5),
            cooldown: Duration::from_millis(500),
            probe_successes: 3,
        }
    }
}

/// Where the breaker currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service.
    Closed,
    /// Storm detected: every request degrades.
    Open,
    /// Cooling down: probes trickle through the normal path.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (metrics, JSON reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the front door should do with the request that just arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Full fast path: batching, the attached fleet, concurrent runs.
    Normal,
    /// In-process, unbatched, one run at a time.
    Degraded,
    /// Normal path, but report the outcome via
    /// [`CircuitBreaker::probe_result`].
    Probe,
}

/// Counter snapshot from [`CircuitBreaker::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed → Open transitions.
    pub trips: u64,
    /// HalfOpen → Open transitions (failed probes).
    pub reopens: u64,
    /// Storm events recorded (fault recoveries + execution failures +
    /// worker deaths).
    pub storm_events: u64,
    /// Requests served degraded.
    pub degraded: u64,
    /// Probes run.
    pub probes: u64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    events: VecDeque<Instant>,
    opened_at: Option<Instant>,
    probes_ok: u32,
    probe_inflight: bool,
    trips: u64,
    reopens: u64,
    storm_events: u64,
    degraded: u64,
    probes: u64,
}

/// The sliding-window circuit breaker. Thread-safe; every method is a
/// short mutex hold.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A breaker with the given tuning, starting Closed.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                events: VecDeque::new(),
                opened_at: None,
                probes_ok: 0,
                probe_inflight: false,
                trips: 0,
                reopens: 0,
                storm_events: 0,
                degraded: 0,
                probes: 0,
            }),
        }
    }

    /// The breaker's tuning.
    #[must_use]
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Records one storm event (a fault recovery, an execution failure,
    /// or a worker death) and returns `true` the moment this event
    /// trips the breaker Closed → Open.
    pub fn record_storm_event(&self) -> bool {
        let now = Instant::now();
        let mut b = self.inner.lock().expect("breaker lock");
        b.storm_events += 1;
        if b.state != BreakerState::Closed {
            return false;
        }
        b.events.push_back(now);
        while let Some(front) = b.events.front() {
            if now.duration_since(*front) > self.config.window {
                b.events.pop_front();
            } else {
                break;
            }
        }
        if b.events.len() as u32 >= self.config.trip_threshold {
            b.state = BreakerState::Open;
            b.opened_at = Some(now);
            b.trips += 1;
            b.events.clear();
            return true;
        }
        false
    }

    /// Routes the request that just arrived: Normal when Closed,
    /// Degraded when Open (flipping to a probe once the cooldown
    /// elapses), one probe at a time when HalfOpen.
    pub fn decision(&self) -> BreakerDecision {
        let mut b = self.inner.lock().expect("breaker lock");
        match b.state {
            BreakerState::Closed => BreakerDecision::Normal,
            BreakerState::Open => {
                let cooled = b
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.config.cooldown);
                if cooled {
                    b.state = BreakerState::HalfOpen;
                    b.probes_ok = 0;
                    b.probe_inflight = true;
                    b.probes += 1;
                    BreakerDecision::Probe
                } else {
                    b.degraded += 1;
                    BreakerDecision::Degraded
                }
            }
            BreakerState::HalfOpen => {
                if b.probe_inflight {
                    b.degraded += 1;
                    BreakerDecision::Degraded
                } else {
                    b.probe_inflight = true;
                    b.probes += 1;
                    BreakerDecision::Probe
                }
            }
        }
    }

    /// Reports a probe's outcome. Enough consecutive successes close
    /// the breaker (clearing the storm window); any failure reopens it.
    pub fn probe_result(&self, ok: bool) {
        let mut b = self.inner.lock().expect("breaker lock");
        b.probe_inflight = false;
        if b.state != BreakerState::HalfOpen {
            return;
        }
        if ok {
            b.probes_ok += 1;
            if b.probes_ok >= self.config.probe_successes {
                b.state = BreakerState::Closed;
                b.opened_at = None;
                b.events.clear();
            }
        } else {
            b.state = BreakerState::Open;
            b.opened_at = Some(Instant::now());
            b.probes_ok = 0;
            b.reopens += 1;
        }
    }

    /// The current state (no time-based transition is applied here;
    /// Open flips to HalfOpen on the next [`CircuitBreaker::decision`]).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock").state
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        let b = self.inner.lock().expect("breaker lock");
        BreakerStats {
            trips: b.trips,
            reopens: b.reopens,
            storm_events: b.storm_events,
            degraded: b.degraded,
            probes: b.probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BreakerConfig {
        BreakerConfig {
            trip_threshold: 3,
            window: Duration::from_secs(10),
            cooldown: Duration::from_millis(10),
            probe_successes: 2,
        }
    }

    #[test]
    fn trips_once_per_storm_and_recovers_via_probes() {
        let b = CircuitBreaker::new(quick());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_storm_event());
        assert!(!b.record_storm_event());
        assert!(b.record_storm_event(), "third event in window trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Further storm events while open do not re-trip.
        assert!(!b.record_storm_event());
        assert_eq!(b.stats().trips, 1);

        // Before cooldown: degraded. After: a probe.
        assert_eq!(b.decision(), BreakerDecision::Degraded);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.decision(), BreakerDecision::Probe);
        // One probe at a time.
        assert_eq!(b.decision(), BreakerDecision::Degraded);
        b.probe_result(true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.decision(), BreakerDecision::Probe);
        b.probe_result(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.decision(), BreakerDecision::Normal);
        assert_eq!(b.stats().trips, 1, "recovery never counted as a trip");
    }

    #[test]
    fn failed_probe_reopens_without_counting_a_trip() {
        let b = CircuitBreaker::new(quick());
        for _ in 0..3 {
            b.record_storm_event();
        }
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.decision(), BreakerDecision::Probe);
        b.probe_result(false);
        assert_eq!(b.state(), BreakerState::Open);
        let s = b.stats();
        assert_eq!((s.trips, s.reopens), (1, 1));
    }

    #[test]
    fn slow_drip_below_threshold_never_trips() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: Duration::from_millis(5),
            ..quick()
        });
        for _ in 0..10 {
            assert!(!b.record_storm_event());
            std::thread::sleep(Duration::from_millis(4));
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
