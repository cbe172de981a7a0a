//! # matopt-obs
//!
//! A lightweight structured-event layer shared by the optimizer, the
//! analytic simulator, and the real executor. The design goals, in
//! order:
//!
//! 1. **Zero cost when disabled.** An [`Obs`] handle is a single
//!    `Option<Arc<..>>`; every instrumentation call checks it once and
//!    returns before formatting names, building attributes, or taking
//!    any lock. The attribute builders are closures that are never
//!    invoked on the disabled path.
//! 2. **Structured, not stringly.** Events carry a [`Subsystem`], an
//!    [`EventKind`], a microsecond timestamp relative to the handle's
//!    epoch, a stable per-thread id, and typed key/value attributes.
//! 3. **Pluggable sinks.** Anything implementing [`Sink`] can receive
//!    events; [`MemorySink`] buffers them for the exporters in
//!    [`export`] (Chrome trace-event JSON and JSONL).
//!
//! The paper's prototype logs optimizer statistics ad hoc; this crate
//! replaces that with one event model so `EXPLAIN ANALYZE` and the
//! `--trace-out` CLI flag can join optimizer, simulator, and executor
//! activity on a single timeline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Plan optimizers (`matopt-opt`): brute force, tree DP, frontier DP.
    Optimizer,
    /// The analytic cluster simulator (`simulate_plan`).
    Simulator,
    /// The real chunked executor (`execute_plan`).
    Executor,
    /// Cost-model predictions and residuals (`matopt-cost`).
    CostModel,
    /// Cost-model calibration runs (`collect_samples`).
    Calibration,
    /// The `matopt` command-line driver.
    Cli,
    /// Fault injection and recovery (`execute_fault_tolerant`).
    Faults,
    /// The pipelined DAG scheduler and its work-stealing pool.
    Sched,
    /// The concurrent plan service and its fingerprint cache
    /// (`matopt-serve`).
    Serve,
    /// The supervised multi-process worker fleet (`matopt-worker`):
    /// spawn/heartbeat/restart lifecycle, dispatches, redispatches,
    /// torn-frame detections.
    Fleet,
}

impl Subsystem {
    /// Stable lowercase name used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Optimizer => "optimizer",
            Subsystem::Simulator => "simulator",
            Subsystem::Executor => "executor",
            Subsystem::CostModel => "cost_model",
            Subsystem::Calibration => "calibration",
            Subsystem::Cli => "cli",
            Subsystem::Faults => "faults",
            Subsystem::Sched => "sched",
            Subsystem::Serve => "serve",
            Subsystem::Fleet => "fleet",
        }
    }
}

/// A typed attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Attribute list: ordered key/value pairs (order is preserved in the
/// exported JSON so traces diff cleanly).
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A hierarchical span opened (Chrome `ph: "B"`).
    SpanBegin,
    /// The most recently opened span with this name on this thread
    /// closed (Chrome `ph: "E"`).
    SpanEnd,
    /// A monotonically accumulated value (Chrome `ph: "C"`).
    Counter {
        /// Amount added at this instant.
        value: f64,
    },
    /// A sampled instantaneous value (also exported as Chrome `ph: "C"`).
    Gauge {
        /// The sampled value.
        value: f64,
    },
    /// A structured instant record (Chrome `ph: "i"`), e.g. a
    /// predicted-vs-observed cost residual.
    Record,
}

/// One structured event.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Which layer emitted it.
    pub subsystem: Subsystem,
    /// Event name; span begin/end pairs share the same name.
    pub name: String,
    /// Microseconds since the [`Obs`] handle's epoch.
    pub t_us: u64,
    /// Stable small integer identifying the emitting thread.
    pub thread: u64,
    /// Typed key/value payload.
    pub attrs: Attrs,
}

/// Receives events. Implementations must be thread-safe: the executor
/// emits from scoped worker threads.
pub trait Sink: Send + Sync {
    /// Accepts one event. Called with spans already timestamped.
    fn record(&self, event: Event);
}

/// A [`Sink`] that buffers events in memory for later export.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns every buffered event, in arrival order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }

    /// Copies the buffered events without draining them.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        self.events.lock().expect("sink poisoned").push(event);
    }
}

impl Sink for Arc<MemorySink> {
    fn record(&self, event: Event) {
        self.as_ref().record(event);
    }
}

/// A bounded [`Sink`] for long-lived processes: keeps the newest
/// `capacity` events and counts what it dropped, so `matopt serve` can
/// run for days without the unbounded growth of a [`MemorySink`].
///
/// Dropping oldest-first keeps the tail of the stream — the events
/// closest to "now", which is what an operator inspecting a live
/// process wants.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// Creates a sink that retains at most `capacity` events
    /// (`capacity` 0 drops everything, counting as it goes).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retention limit this sink was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (or rejected, for a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns the buffered events, oldest first.
    pub fn take(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("sink poisoned")
            .drain(..)
            .collect()
    }

    /// Copies the buffered events without draining them.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingSink {
    fn record(&self, event: Event) {
        let mut events = self.events.lock().expect("sink poisoned");
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

impl Sink for Arc<RingSink> {
    fn record(&self, event: Event) {
        self.as_ref().record(event);
    }
}

struct ObsInner {
    epoch: Instant,
    sink: Box<dyn Sink>,
    metrics: Option<Arc<MetricsRegistry>>,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// A cheap, clonable handle to the event pipeline.
///
/// Disabled handles ([`Obs::disabled`], also [`Default`]) carry no
/// allocation; every method on them is a branch on `Option::is_some`
/// and an immediate return.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// A handle that drops every event without looking at it.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A handle that forwards events to `sink`, with the epoch set to
    /// now.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                epoch: Instant::now(),
                sink: Box::new(sink),
                metrics: None,
            })),
        }
    }

    /// Like [`Obs::new`], but also carries a [`MetricsRegistry`]:
    /// instrumentation points that aggregate (counters, latency
    /// histograms) reach the registry through [`Obs::metrics`], while
    /// the event stream still flows to `sink`.
    pub fn with_metrics(sink: impl Sink + 'static, metrics: Arc<MetricsRegistry>) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                epoch: Instant::now(),
                sink: Box::new(sink),
                metrics: Some(metrics),
            })),
        }
    }

    /// The attached metrics registry, when this handle carries one.
    /// On a disabled handle (and on plain [`Obs::new`] handles) this is
    /// `None`, so `if let Some(m) = obs.metrics()` is the whole
    /// disabled-path cost of a metrics instrumentation point.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.as_ref().and_then(|i| i.metrics.as_ref())
    }

    /// True when events reach a sink. Use to skip expensive
    /// trace-only computation.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(
        &self,
        inner: &Arc<ObsInner>,
        kind: EventKind,
        subsystem: Subsystem,
        name: String,
        attrs: Attrs,
    ) {
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        inner.sink.record(Event {
            kind,
            subsystem,
            name,
            t_us,
            thread: thread_id(),
            attrs,
        });
    }

    /// Opens a span; it closes when the returned guard drops. The
    /// name is only copied when the handle is enabled.
    pub fn span(&self, subsystem: Subsystem, name: &str) -> Span {
        self.span_with(subsystem, name, Vec::new)
    }

    /// Opens a span with attributes; `attrs` is only invoked when the
    /// handle is enabled.
    pub fn span_with(
        &self,
        subsystem: Subsystem,
        name: &str,
        attrs: impl FnOnce() -> Attrs,
    ) -> Span {
        match &self.inner {
            None => Span { live: None },
            Some(inner) => {
                let name = name.to_string();
                self.emit(
                    inner,
                    EventKind::SpanBegin,
                    subsystem,
                    name.clone(),
                    attrs(),
                );
                Span {
                    live: Some(LiveSpan {
                        inner: Arc::clone(inner),
                        subsystem,
                        name,
                    }),
                }
            }
        }
    }

    /// Emits a counter increment.
    pub fn counter(&self, subsystem: Subsystem, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            self.emit(
                inner,
                EventKind::Counter { value },
                subsystem,
                name.to_string(),
                Vec::new(),
            );
        }
    }

    /// Emits a sampled gauge value.
    pub fn gauge(&self, subsystem: Subsystem, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            self.emit(
                inner,
                EventKind::Gauge { value },
                subsystem,
                name.to_string(),
                Vec::new(),
            );
        }
    }

    /// Emits a structured instant record; `attrs` is only invoked when
    /// the handle is enabled.
    pub fn record(&self, subsystem: Subsystem, name: &str, attrs: impl FnOnce() -> Attrs) {
        if let Some(inner) = &self.inner {
            self.emit(
                inner,
                EventKind::Record,
                subsystem,
                name.to_string(),
                attrs(),
            );
        }
    }
}

struct LiveSpan {
    inner: Arc<ObsInner>,
    subsystem: Subsystem,
    name: String,
}

/// Drop guard for an open span. Dropping emits the matching
/// [`EventKind::SpanEnd`]; an inert guard (from a disabled handle)
/// does nothing.
pub struct Span {
    live: Option<LiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let t_us = live.inner.epoch.elapsed().as_micros() as u64;
            live.inner.sink.record(Event {
                kind: EventKind::SpanEnd,
                subsystem: live.subsystem,
                name: live.name,
                t_us,
                thread: thread_id(),
                attrs: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_emits_nothing_and_skips_attr_closures() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let mut called = false;
        {
            let _s = obs.span_with(Subsystem::Optimizer, "phase", || {
                called = true;
                vec![]
            });
        }
        obs.counter(Subsystem::Executor, "n", 1.0);
        assert!(!called, "attr closure must not run when disabled");
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Arc::clone(&sink));
        {
            let _outer = obs.span(Subsystem::Optimizer, "outer");
            let _inner = obs.span_with(Subsystem::Optimizer, "inner", || {
                vec![("k", AttrValue::Int(3))]
            });
        }
        let events = sink.take();
        let kinds: Vec<(&EventKind, &str)> =
            events.iter().map(|e| (&e.kind, e.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (&EventKind::SpanBegin, "outer"),
                (&EventKind::SpanBegin, "inner"),
                (&EventKind::SpanEnd, "inner"),
                (&EventKind::SpanEnd, "outer"),
            ]
        );
        assert_eq!(events[1].attrs, vec![("k", AttrValue::Int(3))]);
        // Timestamps are monotone within the thread.
        for w in events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn counters_gauges_and_records_flow_through() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Arc::clone(&sink));
        obs.counter(Subsystem::Optimizer, "beam_truncated", 2.0);
        obs.gauge(Subsystem::Simulator, "frontier_size", 17.0);
        obs.record(Subsystem::CostModel, "residual", || {
            vec![("predicted", 1.0.into()), ("observed", 2.0.into())]
        });
        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Counter { value: 2.0 });
        assert_eq!(events[1].kind, EventKind::Gauge { value: 17.0 });
        assert_eq!(events[2].kind, EventKind::Record);
        assert_eq!(events[2].attrs.len(), 2);
    }

    #[test]
    fn clones_share_the_sink_and_epoch() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Arc::clone(&sink));
        let obs2 = obs.clone();
        obs.counter(Subsystem::Cli, "a", 1.0);
        obs2.counter(Subsystem::Cli, "b", 1.0);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn ring_sink_bounds_growth_and_counts_drops() {
        let sink = Arc::new(RingSink::new(3));
        let obs = Obs::new(Arc::clone(&sink));
        for i in 0..5 {
            obs.counter(Subsystem::Serve, &format!("c{i}"), 1.0);
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        // The newest events survive, oldest are evicted.
        let names: Vec<String> = sink.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["c2", "c3", "c4"]);
        assert_eq!(sink.take().len(), 3);
        assert!(sink.is_empty());

        // A zero-capacity ring rejects everything but still counts.
        let zero = Arc::new(RingSink::new(0));
        let obs = Obs::new(Arc::clone(&zero));
        obs.counter(Subsystem::Serve, "x", 1.0);
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }

    #[test]
    fn metrics_registry_rides_the_obs_handle() {
        assert!(Obs::disabled().metrics().is_none());
        let plain = Obs::new(MemorySink::new());
        assert!(plain.metrics().is_none());

        let registry = MetricsRegistry::new();
        let obs = Obs::with_metrics(MemorySink::new(), Arc::clone(&registry));
        obs.metrics()
            .expect("registry attached")
            .counter(Subsystem::Serve, "hits")
            .inc();
        assert_eq!(
            registry.snapshot().counter(Subsystem::Serve, "hits"),
            Some(1)
        );
        // Clones share the registry.
        assert!(obs.clone().metrics().is_some());
    }

    #[test]
    fn threads_get_distinct_stable_ids() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(Arc::clone(&sink));
        obs.counter(Subsystem::Executor, "main", 0.0);
        let obs2 = obs.clone();
        std::thread::spawn(move || {
            obs2.counter(Subsystem::Executor, "worker", 0.0);
            obs2.counter(Subsystem::Executor, "worker", 1.0);
        })
        .join()
        .unwrap();
        let events = sink.take();
        assert_ne!(events[0].thread, events[1].thread);
        assert_eq!(events[1].thread, events[2].thread);
    }
}
