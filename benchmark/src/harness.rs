//! The measuring loop shared by the five workloads: whole rounds until
//! the window is full, the oracle between rounds (outside the timed
//! interval), process CPU and peak RSS from `/proc`.

use crate::stats::median;
use crate::trace::Tracer;
use matopt_obs::{MemorySink, MetricsRegistry, Obs};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark op as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Index into the workload's [`Workload::limits_ms`].
    pub kind: u8,
    /// Client-side latency of the op.
    pub ms: f64,
    /// Cleared by the oracle, or by the op itself on an error.
    pub ok: bool,
}

/// What a set-up produced besides the instance itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupInfo {
    /// Milliseconds of the set-up spent building compute graphs.
    pub graph_build_ms: f64,
}

/// A closed-loop workload instance, set up and warm.
pub trait Workload {
    /// Runs one whole round of ops, appending one record per op, and
    /// returns the seconds the round measured (the sum of its timed
    /// sections; oracle work and request generation are outside).
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64;

    /// Checks everything the last round produced against its reference
    /// and clears `ok` on the records that fail. Runs between rounds,
    /// outside the timed interval. `first` is the index in `ops` of the
    /// round's first record.
    fn verify(&mut self, tr: &mut Tracer, ops: &mut [OpRecord], first: usize);

    /// Latency limit per op kind, milliseconds: 2.5 × the baseline p50
    /// measured when the benchmark was defined (README, "SLO limits").
    fn limits_ms(&self) -> &'static [f64];

    /// Sum of `Optimized.cost` (model seconds) over the workload's
    /// fixed plan list: for `plan_miss` the first round's five
    /// requests, elsewhere the plans made in set-up.
    fn plan_cost_s(&self) -> f64;

    /// False when kernels overlap on the pool, so span self times do
    /// not add up to the op wall.
    fn serial(&self) -> bool;

    /// Stops what the instance started (worker processes, scratch
    /// files).
    fn teardown(&mut self) {}
}

/// The product's `Obs` for one instance: off or ring-buffered as the
/// product runs it in the untraced pass, `MemorySink` +
/// `MetricsRegistry` through the public constructors in the traced
/// pass.
#[derive(Clone)]
pub struct ObsConfig {
    sink: Option<Arc<MemorySink>>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl ObsConfig {
    pub fn new(traced: bool) -> Self {
        ObsConfig {
            sink: traced.then(|| Arc::new(MemorySink::new())),
            registry: traced.then(MetricsRegistry::new),
        }
    }

    /// The handle to pass into product calls: enabled in the traced
    /// pass, otherwise `untraced` (what the product's own entry point
    /// would pass).
    pub fn obs_or(&self, untraced: Obs) -> Obs {
        match (&self.sink, &self.registry) {
            (Some(sink), Some(reg)) => Obs::with_metrics(Arc::clone(sink), Arc::clone(reg)),
            _ => untraced,
        }
    }

    pub fn registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.registry.clone()
    }

    /// Drops buffered product events (between rounds, so a traced
    /// window's memory stays bounded). Returns how many there were.
    pub fn drain(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.take().len())
    }
}

/// What one measured window saw.
pub struct Window {
    pub ops: Vec<OpRecord>,
    /// Sum of the rounds' measured seconds.
    pub measured_s: f64,
    /// User + system CPU seconds of this process and its reaped
    /// children across the rounds.
    pub cpu_s: f64,
    pub rounds: u64,
    /// Product `Obs` events seen (traced pass only).
    pub obs_events: u64,
}

impl Window {
    fn empty() -> Self {
        Window {
            // Room for the busiest window up front: growing by doubling
            // would make peak RSS jump with the op count.
            ops: Vec::with_capacity(1 << 21),
            measured_s: 0.0,
            cpu_s: 0.0,
            rounds: 0,
            obs_events: 0,
        }
    }

    /// The windows of several segments as one.
    pub fn merged<'a>(parts: impl Iterator<Item = &'a Window>) -> Self {
        let mut all = Window::empty();
        for w in parts {
            all.ops.extend_from_slice(&w.ops);
            all.measured_s += w.measured_s;
            all.cpu_s += w.cpu_s;
            all.rounds += w.rounds;
            all.obs_events += w.obs_events;
        }
        all
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.measured_s
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies())
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.ms).collect()
    }

    pub fn cpu_s_per_op(&self) -> f64 {
        self.cpu_s / self.attempted() as f64
    }

    /// Ops that succeeded and finished within their kind's limit.
    pub fn slo_share(&self, limits_ms: &[f64]) -> f64 {
        let met = self
            .ops
            .iter()
            .filter(|o| o.ok && o.ms <= limits_ms[o.kind as usize])
            .count();
        met as f64 / self.attempted() as f64
    }

    /// Sum of client-side op latencies, milliseconds.
    pub fn op_wall_ms(&self) -> f64 {
        self.ops.iter().map(|o| o.ms).sum()
    }
}

/// Runs whole rounds until they have measured `seconds`.
pub fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    obs: &ObsConfig,
    seconds: f64,
    first_op: u64,
) -> Window {
    let mut win = Window::empty();
    tr.set_op(first_op);
    while win.measured_s < seconds {
        let first = win.ops.len();
        let cpu0 = cpu_seconds();
        win.measured_s += w.round(tr, &mut win.ops);
        win.cpu_s += cpu_seconds() - cpu0;
        win.rounds += 1;
        w.verify(tr, &mut win.ops, first);
        win.obs_events += obs.drain() as u64;
    }
    win
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Milliseconds of each of `reps` timed calls of `f`.
pub fn sample_ms(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// User + system CPU seconds of this process and the children it has
/// waited for, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime, stime,
    // cutime, cstime are fields 14-17 of the line, i.e. 11-14 here.
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
