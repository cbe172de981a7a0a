//! The pipelined DAG scheduler: ready-queue execution of an annotated
//! plan on the shared work-stealing pool, with an optional resource
//! governor (memory budget + spill-to-disk backpressure) and hedged
//! straggler re-execution.
//!
//! This is the pooled driver of the vertex step in [`crate::step`]. The
//! inline walk runs vertices in id order, so independent branches of a
//! plan (the two weight updates of the FFNN graph, the four quadrants
//! of the blocked inverse) serialize even though nothing orders them;
//! this driver schedules by indegree counter instead:
//!
//! * every vertex carries a `pending` counter of unfinished inputs;
//!   when a vertex finishes it decrements each consumer's counter and
//!   schedules any consumer that reaches zero — vertices run as soon as
//!   their inputs exist, not when an id-order walk would reach them;
//! * a refcount per vertex counts un-executed consumer edges; when the
//!   last consumer finishes, the vertex's buffer is retired (dropped)
//!   unless the caller asked to retain all values — peak resident bytes
//!   are tracked either way.
//!
//! # Resource governor
//!
//! With [`ExecOptions::mem_budget`] set, ready vertices queue in the
//! governor instead of spawning immediately. An admission *pump* runs
//! whenever the ready set or residency changes:
//!
//! * a vertex is admissible when `resident + reserved + need(v)` fits
//!   the budget, where `need(v)` is its estimated output bytes (from
//!   the annotation's output format — exact for dense formats) plus the
//!   reload cost of any spilled inputs, and `reserved` covers outputs
//!   of admitted-but-unfinished vertices so concurrent admissions can't
//!   double-book the budget;
//! * among admissible vertices the pump prefers the one that retires
//!   the most consumer refcounts, weighted by the resident bytes those
//!   refcounts release (then smallest footprint, then lowest id — all
//!   deterministic);
//! * when nothing fits, cold buffers are spilled to scratch — lowest
//!   pending-consumer count first, largest bytes first — excluding the
//!   pinned inputs of in-flight vertices (see [`crate::spill`] for the
//!   checksummed format);
//! * deadlock guard: if nothing is in flight and even the
//!   minimal-footprint vertex still doesn't fit after spilling
//!   everything spillable, it is force-admitted anyway when its true
//!   footprint (inputs + output) fits the budget alone, and otherwise
//!   the run fails with the structured
//!   [`ExecError::MemBudgetInfeasible`];
//! * spilled buffers are reloaded (checksums verified; corruption is
//!   [`ExecError::SpillCorrupted`], never silent) when a consumer is
//!   admitted, and any retained buffers still on scratch are rehydrated
//!   after the last vertex completes, fanned out over the pool — so
//!   callers see exactly the values an ungoverned run returns.
//!   Peak-resident accounting covers the governed pipeline phase;
//!   end-of-run rehydration happens after it, as the values are handed
//!   back to the caller.
//!
//! Spills and consumer-admission reloads run under the governor lock:
//! the pump's next decision needs the bytes they move, so taking them
//! off the lock would need a second kind of reservation ("bytes being
//! released") and with it a second admission path. At memory speed a
//! spill is a fraction of a millisecond per megabyte; the lock is held
//! for that long.
//!
//! # Hedged straggler re-execution
//!
//! With [`ExecOptions::hedge`] set, a monitor thread arms a per-vertex
//! deadline of `factor ×` the predicted runtime (cost-model per-step
//! estimates, or the running mean of completed vertices as a fallback).
//! A primary that overruns gets a duplicate spawned on the pool via the
//! same [`TaskGroup`]; whichever copy finishes first wins a per-vertex
//! CAS and stores the output, and the loser's result (or error — it may
//! observe already-retired inputs) is discarded. Kernels are
//! bit-deterministic, so the race cannot change results; the chaos
//! harness pins this over seeded straggler schedules.
//!
//! Determinism: every vertex reads fully-materialized inputs, every
//! chunk batch preserves item order, and spills round-trip bit-exactly,
//! so the pipelined executor is bit-identical to the inline walk
//! regardless of completion order, budget, or hedging (the
//! `pipeline.rs` and `governor.rs` tests pin this).

use crate::exec::{
    compute_vertices, missing_choice, vertex_label, ExecOptions, ExecOutcome, GovernorStats,
    HedgeMark,
};
use crate::impl_exec::ExecError;
use crate::spill::{SpillError, SpillManager, SpillTicket};
use crate::step::{epilogue, prologue, run_step, StepEnv, StepOutput};
use crate::value::DistRelation;
use matopt_core::{Annotation, ComputeGraph, ImplRegistry, NodeId, NodeKind};
use matopt_obs::{Obs, Subsystem};
use matopt_pool::{Pool, TaskGroup};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-vertex measurements, written once by the job that ran the
/// vertex.
#[derive(Default)]
struct VertexMeta {
    seconds: f64,
    transform_seconds: Vec<f64>,
    chunks: usize,
    bytes: u64,
}

/// Admission/spill bookkeeping, all under one lock so admission
/// decisions are serialized (the work they gate runs on the pool).
struct GovInner {
    /// Ready-but-not-admitted compute vertices.
    ready: Vec<NodeId>,
    /// Admitted vertices that have not stored their output yet.
    inflight: usize,
    /// Estimated output bytes of in-flight vertices — charged at
    /// admission, released when the actual bytes land in `resident`.
    reserved: u64,
    /// Spill pins: inputs of in-flight vertices cannot be spilled.
    pinned: Vec<u32>,
    /// Receipt per spilled vertex, `None` while resident.
    tickets: Vec<Option<SpillTicket>>,
    /// Actual bytes each stored vertex occupies (0 before it stores).
    stored_bytes: Vec<u64>,
    /// Estimated output bytes per compute vertex (format × type).
    est_out: Vec<u64>,
    vertex_spills: Vec<u32>,
    spills: u64,
    spilled_bytes: u64,
    reloads: u64,
    reloaded_bytes: u64,
    admission_waits: u64,
}

struct Governor {
    budget: u64,
    spill: SpillManager,
    inner: Mutex<GovInner>,
}

/// Live accounting of a [`SharedGovernor`] pool.
#[derive(Debug, Default)]
struct SharedPool {
    /// Bytes currently leased to running executions.
    leased: u64,
    /// Executions currently holding a lease.
    runs: usize,
    /// Leases granted over the governor's lifetime.
    leases_granted: u64,
    /// Acquisitions that had to wait for another run to release bytes.
    admission_waits: u64,
    /// High-water mark of `leased`.
    peak_leased: u64,
    /// High-water mark of `runs`.
    peak_runs: usize,
}

/// Counter snapshot from [`SharedGovernor::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedGovernorStats {
    /// The pool's total byte budget.
    pub budget: u64,
    /// Bytes currently leased out.
    pub leased: u64,
    /// Executions currently holding a lease.
    pub runs: usize,
    /// Leases granted since construction.
    pub leases_granted: u64,
    /// Acquisitions that blocked waiting for pool headroom.
    pub admission_waits: u64,
    /// High-water mark of leased bytes.
    pub peak_leased: u64,
    /// High-water mark of concurrent leaseholders.
    pub peak_runs: usize,
}

/// A process-wide admission/memory pool shared by concurrent
/// executions: the shareable form of the per-run resource governor.
///
/// A `run_pipelined` call with [`ExecOptions::shared_governor`] set
/// leases a memory carve-out from this pool before any vertex is
/// admitted, then enforces the carve-out with the existing per-run
/// governor machinery (admission scoring, spill-to-disk, deadlock
/// guard). The lease is released when the run finishes, waking
/// executions blocked on [`SharedGovernor::acquire`] — so concurrent
/// executions draw from *one* budget instead of each assuming it owns
/// the machine.
///
/// A run whose minimal standalone footprint exceeds the pool is granted
/// the whole pool rather than rejected: the per-run spill path and the
/// structured [`ExecError::MemBudgetInfeasible`] error already handle
/// too-big-for-budget graphs deterministically.
#[derive(Debug)]
pub struct SharedGovernor {
    budget: u64,
    pool: Mutex<SharedPool>,
    freed: Condvar,
}

impl SharedGovernor {
    /// A pool with `budget` total bytes (minimum 1).
    #[must_use]
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(SharedGovernor {
            budget: budget.max(1),
            pool: Mutex::new(SharedPool::default()),
            freed: Condvar::new(),
        })
    }

    /// The pool's total byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently leased to running executions.
    #[must_use]
    pub fn leased(&self) -> u64 {
        self.pool.lock().expect("shared governor pool").leased
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SharedGovernorStats {
        let p = self.pool.lock().expect("shared governor pool");
        SharedGovernorStats {
            budget: self.budget,
            leased: p.leased,
            runs: p.runs,
            leases_granted: p.leases_granted,
            admission_waits: p.admission_waits,
            peak_leased: p.peak_leased,
            peak_runs: p.peak_runs,
        }
    }

    /// Leases between `min` and `want` bytes from the pool, blocking
    /// until at least `min` (clamped to the budget) is free. Grants as
    /// much of `want` as currently fits so a lone run still gets full
    /// headroom, while concurrent runs split the pool.
    #[must_use]
    pub fn acquire(self: &Arc<Self>, want: u64, min: u64) -> GovernorLease {
        let min = min.clamp(1, self.budget);
        let want = want.clamp(min, self.budget);
        let mut pool = self.pool.lock().expect("shared governor pool");
        let mut waited = false;
        while self.budget - pool.leased < min {
            waited = true;
            pool = self.freed.wait(pool).expect("shared governor pool");
        }
        if waited {
            pool.admission_waits += 1;
        }
        let granted = want.min(self.budget - pool.leased);
        pool.leased += granted;
        pool.runs += 1;
        pool.leases_granted += 1;
        pool.peak_leased = pool.peak_leased.max(pool.leased);
        pool.peak_runs = pool.peak_runs.max(pool.runs);
        GovernorLease {
            gov: Arc::clone(self),
            bytes: granted,
        }
    }
}

/// An RAII memory carve-out from a [`SharedGovernor`]: the leased bytes
/// return to the pool (waking blocked acquirers) on drop.
#[derive(Debug)]
pub struct GovernorLease {
    gov: Arc<SharedGovernor>,
    bytes: u64,
}

impl GovernorLease {
    /// Bytes this lease carved out of the pool.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for GovernorLease {
    fn drop(&mut self) {
        let mut pool = self.gov.pool.lock().expect("shared governor pool");
        pool.leased = pool.leased.saturating_sub(self.bytes);
        pool.runs = pool.runs.saturating_sub(1);
        drop(pool);
        self.gov.freed.notify_all();
    }
}

/// Estimated bytes of every vertex's output (declared source formats,
/// the annotation's chosen output format for computes) and the largest
/// standalone footprint (a vertex's inputs plus its output) — what a
/// run asks the shared pool for and the least it can work with.
fn estimate_run_bytes(graph: &ComputeGraph, annotation: &Annotation) -> (u64, u64) {
    let n = graph.len();
    let mut est = vec![0u64; n];
    for (id, node) in graph.iter() {
        let format = match &node.kind {
            NodeKind::Source { format } => *format,
            NodeKind::Compute { .. } => {
                annotation
                    .choice(id)
                    .expect("checked by the prologue")
                    .output_format
            }
        };
        est[id.index()] = format.total_bytes(&node.mtype).max(0.0) as u64;
    }
    let total: u64 = est.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let mut min_need = 0u64;
    for (id, node) in graph.iter() {
        if !matches!(node.kind, NodeKind::Compute { .. }) {
            continue;
        }
        let mut need = est[id.index()];
        let mut inputs: Vec<usize> = node.inputs.iter().map(|i| i.index()).collect();
        inputs.sort_unstable();
        inputs.dedup();
        for u in inputs {
            need = need.saturating_add(est[u]);
        }
        min_need = min_need.max(need);
    }
    (total, min_need.max(1))
}

/// Hedging state: per-vertex start instants and winner/hedged flags,
/// plus the adaptive runtime mean used when no predictions are given.
struct HedgeState {
    factor: f64,
    min_deadline: Duration,
    predicted: Option<Arc<Vec<f64>>>,
    started: Vec<Mutex<Option<Instant>>>,
    /// First completion (primary or duplicate) wins this CAS and is the
    /// only one allowed to store the output and advance consumers.
    winner: Vec<AtomicBool>,
    /// Set once when a duplicate is launched; never hedge twice.
    hedged: Vec<AtomicBool>,
    /// Set when the duplicate won the CAS.
    won_v: Vec<AtomicBool>,
    launched: AtomicU64,
    won: AtomicU64,
    /// `(sum_seconds, count)` of completed implementations — the
    /// adaptive prediction fallback.
    completed: Mutex<(f64, u32)>,
    shutdown: AtomicBool,
}

struct RunState {
    graph: Arc<ComputeGraph>,
    annotation: Arc<Annotation>,
    registry: Arc<ImplRegistry>,
    obs: Obs,
    /// One entry per in-edge of each consumer (duplicates kept so a
    /// vertex feeding the same consumer twice decrements twice).
    consumer_edges: Vec<Vec<NodeId>>,
    /// Vertices whose buffers are never retired.
    retained: Vec<bool>,
    slots: Vec<Mutex<Option<Arc<DistRelation>>>>,
    /// Unfinished inputs per vertex; a vertex is scheduled on the 1 → 0
    /// transition.
    pending: Vec<AtomicUsize>,
    /// Un-executed consumer edges per vertex; the buffer is retired on
    /// the 1 → 0 transition.
    uses: Vec<AtomicUsize>,
    meta: Vec<Mutex<VertexMeta>>,
    /// First failure by lowest vertex id (deterministic across
    /// completion orders); `failed` lets in-flight jobs stop early.
    error: Mutex<Option<(NodeId, ExecError)>>,
    failed: AtomicBool,
    resident: AtomicU64,
    peak: AtomicU64,
    running: AtomicUsize,
    max_running: AtomicUsize,
    gov: Option<Governor>,
    hedge: Option<HedgeState>,
    delays_ms: Option<Arc<Vec<u64>>>,
    /// Remote vertex-execution backend; when set, chosen
    /// implementations run through it instead of in-process.
    remote: Option<Arc<dyn crate::exec::RemoteVertexExec>>,
}

/// Runs the annotated graph through the pipelined scheduler.
///
/// Under [`ExecOptions::retain_values`] every vertex's value survives
/// the run; otherwise buffers are retired as their last consumer
/// finishes and only sink values come back.
pub(crate) fn run_pipelined(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
    obs: &Obs,
    options: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    let started = Instant::now();
    let n = graph.len();
    let retain_all = options.retain_values;
    let sources = prologue(graph, annotation, inputs)?;

    let mut consumer_edges: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    let mut uses = vec![0usize; n];
    for (id, node) in graph.iter() {
        indegree[id.index()] = node.inputs.len();
        for input in &node.inputs {
            consumer_edges[input.index()].push(id);
            uses[input.index()] += 1;
        }
    }
    let mut retained = vec![retain_all; n];
    for s in graph.sinks() {
        retained[s.index()] = true;
    }

    // Lease a carve-out from the shared pool (if any) before admitting
    // anything: concurrent executions split one budget instead of each
    // assuming it owns the machine. The lease is held for the whole
    // run and released (waking blocked acquirers) on every exit path.
    let lease_wait = Instant::now();
    let lease = options.shared_governor.as_ref().map(|sg| {
        let (want, min_need) = estimate_run_bytes(graph, annotation);
        sg.acquire(want, min_need)
    });
    let lease_wait_us = lease
        .as_ref()
        .map_or(0, |_| lease_wait.elapsed().as_micros() as u64);
    let effective_budget = match (&lease, options.mem_budget) {
        (None, budget) => budget,
        (Some(l), None) => Some(l.bytes()),
        (Some(l), Some(b)) => Some(b.min(l.bytes())),
    };

    let gov = match effective_budget {
        None => None,
        Some(budget) => {
            let spill = SpillManager::new(options.scratch_dir.clone())
                .map_err(|e| ExecError::Internal(format!("spill scratch setup failed: {e}")))?;
            let mut est_out = vec![0u64; n];
            for (id, node) in graph.iter() {
                if matches!(node.kind, NodeKind::Compute { .. }) {
                    let choice = annotation.choice(id).expect("checked by the prologue");
                    est_out[id.index()] =
                        choice.output_format.total_bytes(&node.mtype).max(0.0) as u64;
                }
            }
            Some(Governor {
                budget,
                spill,
                inner: Mutex::new(GovInner {
                    ready: Vec::new(),
                    inflight: 0,
                    reserved: 0,
                    pinned: vec![0; n],
                    tickets: (0..n).map(|_| None).collect(),
                    stored_bytes: vec![0; n],
                    est_out,
                    vertex_spills: vec![0; n],
                    spills: 0,
                    spilled_bytes: 0,
                    reloads: 0,
                    reloaded_bytes: 0,
                    admission_waits: 0,
                }),
            })
        }
    };
    let hedge = options.hedge.as_ref().map(|h| HedgeState {
        factor: h.factor,
        min_deadline: Duration::from_millis(h.min_deadline_ms.max(1)),
        predicted: h.predicted_seconds.clone(),
        started: (0..n).map(|_| Mutex::new(None)).collect(),
        winner: (0..n).map(|_| AtomicBool::new(false)).collect(),
        hedged: (0..n).map(|_| AtomicBool::new(false)).collect(),
        won_v: (0..n).map(|_| AtomicBool::new(false)).collect(),
        launched: AtomicU64::new(0),
        won: AtomicU64::new(0),
        completed: Mutex::new((0.0, 0)),
        shutdown: AtomicBool::new(false),
    });

    let pool = Pool::global();
    let pool_before = pool.stats();
    let state = Arc::new(RunState {
        graph: Arc::new(graph.clone()),
        annotation: Arc::new(annotation.clone()),
        registry: Arc::new(registry.clone()),
        obs: obs.clone(),
        consumer_edges,
        retained,
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        pending: indegree.into_iter().map(AtomicUsize::new).collect(),
        uses: uses.into_iter().map(AtomicUsize::new).collect(),
        meta: (0..n).map(|_| Mutex::new(VertexMeta::default())).collect(),
        error: Mutex::new(None),
        failed: AtomicBool::new(false),
        resident: AtomicU64::new(0),
        peak: AtomicU64::new(0),
        running: AtomicUsize::new(0),
        max_running: AtomicUsize::new(0),
        gov,
        hedge,
        delays_ms: options.straggler_delays_ms.clone(),
        remote: options.remote.clone(),
    });

    // Store the seeded sources, then sweep the vertices that are ready
    // before any compute ran.
    for (i, rel) in sources.into_iter().enumerate() {
        if let Some(rel) = rel {
            let id = NodeId(i as u32);
            store_output(&state, id, rel, 0.0, Vec::new());
            for c in &state.consumer_edges[i] {
                state.pending[c.index()].fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    let group = pool.group();
    let initially_ready: Vec<NodeId> = compute_vertices(graph)
        .filter(|id| state.pending[id.index()].load(Ordering::Acquire) == 0)
        .collect();
    match &state.gov {
        None => {
            for id in initially_ready {
                spawn_vertex(&state, &group, id);
            }
        }
        Some(gov) => {
            gov.inner.lock().unwrap().ready.extend(initially_ready);
            pump(&state, &group);
        }
    }

    // The straggler monitor runs on its own thread so a fully-occupied
    // pool can still be hedged; it spawns duplicates into the same
    // group.
    let monitor = state.hedge.as_ref().map(|_| {
        let st = Arc::clone(&state);
        let g = group.clone();
        std::thread::Builder::new()
            .name("matopt-hedge".to_string())
            .spawn(move || monitor_loop(&st, &g))
            .expect("spawn hedge monitor")
    });
    let mut waited = group.wait();
    if let Some(h) = &state.hedge {
        h.shutdown.store(true, Ordering::Release);
    }
    if let Some(m) = monitor {
        let _ = m.join();
        // The monitor may have spawned a duplicate in the window after
        // the first wait returned; drain it so the state Arc is unique.
        let drained = group.wait();
        waited = waited.and(drained);
    }

    settle(&state, waited)?;

    // Rehydrate retained buffers that ended the run on scratch, so the
    // caller sees exactly what an ungoverned run returns. The tickets
    // are independent, so the reads, decodes and checksums fan out over
    // the pool (the caller helps while it waits, so a single-threaded
    // pool runs them inline); a failure resolves to the lowest vertex
    // id, as everywhere else.
    if let Some(gov) = &state.gov {
        let tickets: Vec<(usize, SpillTicket)> = {
            let mut inner = gov.inner.lock().unwrap();
            (0..n)
                .filter_map(|u| inner.tickets[u].take().map(|t| (u, t)))
                .collect()
        };
        for (u, ticket) in tickets {
            let st = Arc::clone(&state);
            group.spawn(move || rehydrate(&st, u, &ticket));
        }
        settle(&state, group.wait())?;
    }

    let max_concurrency = state.max_running.load(Ordering::Acquire).max(1);
    let peak = state.peak.load(Ordering::Acquire);
    let mut governor = collect_governor_stats(&state, n);
    governor.lease_bytes = lease.as_ref().map_or(0, GovernorLease::bytes);
    governor.lease_wait_us = lease_wait_us;
    let delta = pool.stats().since(&pool_before);
    obs.record(Subsystem::Sched, "pipeline", || {
        vec![
            ("vertices", n.into()),
            ("parallelism", pool.parallelism().into()),
            ("max_concurrency", max_concurrency.into()),
            ("peak_resident_bytes", (peak as i64).into()),
            ("retain_all", retain_all.into()),
            ("pool_tasks", (delta.tasks as i64).into()),
            ("pool_steals", (delta.steals as i64).into()),
            ("pool_batches", (delta.batches as i64).into()),
            ("mem_budget", (effective_budget.unwrap_or(0) as i64).into()),
            ("spills", (governor.spills as i64).into()),
            ("spilled_bytes", (governor.spilled_bytes as i64).into()),
            ("reloads", (governor.reloads as i64).into()),
            ("admission_waits", (governor.admission_waits as i64).into()),
            ("hedges_launched", (governor.hedges_launched as i64).into()),
            ("hedges_won", (governor.hedges_won as i64).into()),
        ]
    });
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Sched, "pool_tasks", delta.tasks);
        m.add(Subsystem::Sched, "pool_steals", delta.steals);
        m.add(Subsystem::Sched, "spills", governor.spills);
        m.add(Subsystem::Sched, "spilled_bytes", governor.spilled_bytes);
        m.add(
            Subsystem::Sched,
            "admission_waits",
            governor.admission_waits,
        );
        m.add(
            Subsystem::Sched,
            "hedges_launched",
            governor.hedges_launched,
        );
        m.add(Subsystem::Sched, "hedges_won", governor.hedges_won);
        // High-water gauge: the largest peak any run has reached since
        // the registry was created.
        let g = m.gauge(Subsystem::Sched, "peak_resident_bytes");
        if g.value() < peak as f64 {
            g.set(peak as f64);
        }
    }

    let state = Arc::try_unwrap(state)
        .map_err(|_| ExecError::Internal("scheduler state still shared after wait".to_string()))?;
    let mut out = ExecOutcome {
        parallelism: pool.parallelism(),
        max_concurrency,
        peak_resident_bytes: peak,
        governor,
        pool: delta,
        ..ExecOutcome::default()
    };
    for meta in state.meta {
        let m = meta.into_inner().unwrap();
        out.vertex_seconds.push(m.seconds);
        out.transform_seconds.push(m.transform_seconds);
        out.vertex_chunks.push(m.chunks);
        out.vertex_resident_bytes.push(m.bytes);
    }
    let slots = state
        .slots
        .into_iter()
        .map(|s| s.into_inner().unwrap())
        .collect();
    Ok(epilogue(graph, slots, out, started))
}

fn collect_governor_stats(state: &RunState, n: usize) -> GovernorStats {
    let mut g = GovernorStats::default();
    if let Some(gov) = &state.gov {
        let inner = gov.inner.lock().unwrap();
        g.spills = inner.spills;
        g.spilled_bytes = inner.spilled_bytes;
        g.reloads = inner.reloads;
        g.reloaded_bytes = inner.reloaded_bytes;
        g.admission_waits = inner.admission_waits;
        g.vertex_spills = inner.vertex_spills.clone();
    }
    if let Some(h) = &state.hedge {
        g.hedges_launched = h.launched.load(Ordering::Acquire);
        g.hedges_won = h.won.load(Ordering::Acquire);
        g.vertex_hedges = (0..n)
            .map(|i| {
                if h.won_v[i].load(Ordering::Acquire) {
                    HedgeMark::Won
                } else if h.hedged[i].load(Ordering::Acquire) {
                    HedgeMark::Launched
                } else {
                    HedgeMark::None
                }
            })
            .collect();
    }
    g
}

/// The verdict of a finished wave of jobs: the recorded failure (lowest
/// vertex id) if any job failed, else a job panic, else success.
fn settle(state: &RunState, waited: Result<(), String>) -> Result<(), ExecError> {
    if let Some((_, e)) = state.error.lock().unwrap().take() {
        return Err(e);
    }
    waited.map_err(|detail| ExecError::Internal(format!("scheduler job panicked: {detail}")))
}

/// Records a failure against the lowest failing vertex id
/// (deterministic across completion orders) and flips the `failed`
/// flag so in-flight jobs and the pump stop early.
fn record_failure(state: &RunState, v: NodeId, e: ExecError) {
    state.failed.store(true, Ordering::Release);
    let mut slot = state.error.lock().unwrap();
    match &*slot {
        Some((u, _)) if u.index() <= v.index() => {}
        _ => *slot = Some((v, e)),
    }
}

fn spill_failure(graph: &ComputeGraph, v: NodeId, e: SpillError) -> ExecError {
    match e {
        SpillError::Corrupt(detail) => ExecError::SpillCorrupted {
            vertex: v,
            label: vertex_label(graph, v),
            detail,
        },
        SpillError::Io(io) => ExecError::Internal(format!("spill I/O failed for vertex {v}: {io}")),
    }
}

/// Reloads one retained buffer that ended the run on scratch back into
/// its slot (checksums verified) and drops its scratch file.
fn rehydrate(state: &RunState, u: usize, ticket: &SpillTicket) {
    let gov = state.gov.as_ref().expect("tickets imply a governor");
    let back = gov.spill.reload(ticket);
    gov.spill.remove(ticket);
    match back {
        Ok(rel) => {
            *state.slots[u].lock().unwrap() = Some(Arc::new(rel));
            let mut inner = gov.inner.lock().unwrap();
            inner.reloads += 1;
            inner.reloaded_bytes += ticket.bytes;
            drop(inner);
            state.obs.record(Subsystem::Sched, "reload", || {
                vec![
                    ("vertex", u.into()),
                    ("bytes", (ticket.bytes as i64).into()),
                    ("rehydrate", true.into()),
                ]
            });
        }
        Err(e) => {
            let v = NodeId(u as u32);
            record_failure(state, v, spill_failure(&state.graph, v, e));
        }
    }
}

/// Queues vertex `v` as a pool job in `group`; the job schedules
/// follow-on ready consumers into the same group.
fn spawn_vertex(state: &Arc<RunState>, group: &TaskGroup, v: NodeId) {
    let st = Arc::clone(state);
    let g = group.clone();
    group.spawn(move || run_vertex_job(&st, &g, v, false));
}

/// The vertex ids of `v`'s inputs, deduplicated.
fn unique_inputs(state: &RunState, v: NodeId) -> Vec<usize> {
    let mut out: Vec<usize> = state
        .graph
        .node(v)
        .inputs
        .iter()
        .map(|i| i.index())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Bytes that must newly fit for `v` to run: its estimated output plus
/// reloads of any spilled inputs (resident inputs are already counted).
fn need_bytes(state: &RunState, inner: &GovInner, v: NodeId) -> u64 {
    let mut need = inner.est_out[v.index()];
    for u in unique_inputs(state, v) {
        if let Some(t) = &inner.tickets[u] {
            need = need.saturating_add(t.bytes);
        }
    }
    need
}

/// The true standalone footprint of `v`: all its inputs plus its
/// estimated output — the infeasibility test of the deadlock guard.
fn full_need(state: &RunState, inner: &GovInner, v: NodeId) -> u64 {
    let mut need = inner.est_out[v.index()];
    for u in unique_inputs(state, v) {
        let bytes = inner.tickets[u]
            .as_ref()
            .map_or(inner.stored_bytes[u], |t| t.bytes);
        need = need.saturating_add(bytes);
    }
    need
}

/// Resident bytes running `v` would release: inputs whose last consumer
/// refcounts `v` retires (and that are resident and not retained).
fn freed_bytes(state: &RunState, inner: &GovInner, v: NodeId) -> u64 {
    let node = state.graph.node(v);
    let mut freed = 0u64;
    for u in unique_inputs(state, v) {
        if state.retained[u] || inner.tickets[u].is_some() {
            continue;
        }
        let mult = node.inputs.iter().filter(|i| i.index() == u).count();
        if state.uses[u].load(Ordering::Acquire) == mult {
            freed = freed.saturating_add(inner.stored_bytes[u]);
        }
    }
    freed
}

/// Spill policy: coldest first — lowest pending-consumer count, then
/// largest bytes, then lowest id. Pinned (in-flight inputs), already
/// spilled, empty, and excluded vertices are skipped.
fn pick_spill_victim(state: &RunState, inner: &GovInner, exclude: &[usize]) -> Option<usize> {
    let mut best: Option<(usize, u64, usize)> = None;
    for u in 0..state.slots.len() {
        if inner.pinned[u] > 0
            || inner.tickets[u].is_some()
            || inner.stored_bytes[u] == 0
            || exclude.contains(&u)
            || state.slots[u].lock().unwrap().is_none()
        {
            continue;
        }
        let uses = state.uses[u].load(Ordering::Acquire);
        let bytes = inner.stored_bytes[u];
        let better = match best {
            None => true,
            Some((bu, bb, _)) => uses < bu || (uses == bu && bytes > bb),
        };
        if better {
            best = Some((uses, bytes, u));
        }
    }
    best.map(|(_, _, u)| u)
}

/// Serializes vertex `u`'s buffer to scratch and drops it from memory.
/// A slot raced empty by a concurrent retire is a no-op.
fn do_spill(state: &RunState, gov: &Governor, inner: &mut GovInner, u: usize) -> Result<(), ()> {
    let Some(rel) = state.slots[u].lock().unwrap().take() else {
        return Ok(());
    };
    match gov.spill.spill(&rel) {
        Ok(ticket) => {
            let bytes = ticket.bytes;
            state.resident.fetch_sub(bytes, Ordering::AcqRel);
            inner.tickets[u] = Some(ticket);
            inner.vertex_spills[u] += 1;
            inner.spills += 1;
            inner.spilled_bytes += bytes;
            state.obs.record(Subsystem::Sched, "spill", || {
                vec![("vertex", u.into()), ("bytes", (bytes as i64).into())]
            });
            Ok(())
        }
        Err(e) => {
            // Put the buffer back so results stay correct even though
            // the run is failing.
            *state.slots[u].lock().unwrap() = Some(rel);
            record_failure(
                state,
                NodeId(u as u32),
                spill_failure(&state.graph, NodeId(u as u32), e),
            );
            Err(())
        }
    }
}

/// Reloads `v`'s spilled inputs (verifying checksums), pins its inputs,
/// reserves its output bytes, and spawns it. Must be called with the
/// governor lock held and `v` already removed from `ready`.
fn admit(
    state: &Arc<RunState>,
    gov: &Governor,
    inner: &mut GovInner,
    group: &TaskGroup,
    v: NodeId,
) -> Result<(), ()> {
    for u in unique_inputs(state, v) {
        if let Some(ticket) = inner.tickets[u].take() {
            let back = gov.spill.reload(&ticket);
            gov.spill.remove(&ticket);
            match back {
                Ok(rel) => {
                    let bytes = ticket.bytes;
                    *state.slots[u].lock().unwrap() = Some(Arc::new(rel));
                    let resident = state.resident.fetch_add(bytes, Ordering::AcqRel) + bytes;
                    state.peak.fetch_max(resident, Ordering::AcqRel);
                    inner.reloads += 1;
                    inner.reloaded_bytes += bytes;
                    state.obs.record(Subsystem::Sched, "reload", || {
                        vec![("vertex", u.into()), ("bytes", (bytes as i64).into())]
                    });
                }
                Err(e) => {
                    record_failure(
                        state,
                        NodeId(u as u32),
                        spill_failure(&state.graph, NodeId(u as u32), e),
                    );
                    return Err(());
                }
            }
        }
        inner.pinned[u] += 1;
    }
    inner.reserved = inner.reserved.saturating_add(inner.est_out[v.index()]);
    inner.inflight += 1;
    spawn_vertex(state, group, v);
    Ok(())
}

/// The admission pump: admits every ready vertex that fits the budget
/// (best retirement score first), spilling cold buffers when pressed,
/// and applies the deadlock guard when nothing is in flight. Runs after
/// seeding and after every completion.
fn pump(state: &Arc<RunState>, group: &TaskGroup) {
    let Some(gov) = &state.gov else { return };
    let mut inner = gov.inner.lock().unwrap();
    if state.failed.load(Ordering::Acquire) {
        inner.ready.clear();
        return;
    }
    loop {
        if inner.ready.is_empty() {
            return;
        }
        let used = state.resident.load(Ordering::Acquire) + inner.reserved;
        // Best admissible vertex: most freed bytes, then smallest need,
        // then lowest id.
        let mut best: Option<(u64, u64, usize, usize)> = None; // (freed, need, id, pos)
        for (pos, &v) in inner.ready.iter().enumerate() {
            let need = need_bytes(state, &inner, v);
            if used.saturating_add(need) > gov.budget {
                continue;
            }
            let freed = freed_bytes(state, &inner, v);
            let key = (freed, need, v.index());
            let better = match best {
                None => true,
                Some((bf, bn, bi, _)) => {
                    key.0 > bf || (key.0 == bf && (key.1 < bn || (key.1 == bn && key.2 < bi)))
                }
            };
            if better {
                best = Some((freed, need, v.index(), pos));
            }
        }
        if let Some((_, _, _, pos)) = best {
            let v = inner.ready.swap_remove(pos);
            if admit(state, gov, &mut inner, group, v).is_err() {
                inner.ready.clear();
                return;
            }
            continue;
        }

        // Nothing fits. Target the smallest-need ready vertex and spill
        // cold buffers (never its own inputs) until it fits.
        let (mut pos, mut cv) = (0usize, inner.ready[0]);
        let mut cneed = need_bytes(state, &inner, cv);
        for (i, &v) in inner.ready.iter().enumerate().skip(1) {
            let need = need_bytes(state, &inner, v);
            if need < cneed || (need == cneed && v.index() < cv.index()) {
                pos = i;
                cv = v;
                cneed = need;
            }
        }
        let keep = unique_inputs(state, cv);
        loop {
            let used = state.resident.load(Ordering::Acquire) + inner.reserved;
            if used.saturating_add(need_bytes(state, &inner, cv)) <= gov.budget {
                break;
            }
            let Some(victim) = pick_spill_victim(state, &inner, &keep) else {
                break;
            };
            if do_spill(state, gov, &mut inner, victim).is_err() {
                inner.ready.clear();
                return;
            }
        }
        let used = state.resident.load(Ordering::Acquire) + inner.reserved;
        let need = need_bytes(state, &inner, cv);
        if used.saturating_add(need) <= gov.budget {
            continue; // re-enter the scoring loop with the new headroom
        }
        if inner.inflight == 0 {
            let full = full_need(state, &inner, cv);
            if full > gov.budget {
                record_failure(
                    state,
                    cv,
                    ExecError::MemBudgetInfeasible {
                        vertex: cv,
                        label: vertex_label(&state.graph, cv),
                        need: full,
                        budget: gov.budget,
                    },
                );
                inner.ready.clear();
                return;
            }
            // Deadlock guard: always admit at least one minimal vertex
            // so the run progresses (estimate drift can land here even
            // though the true footprint fits).
            let v = inner.ready.swap_remove(pos);
            if admit(state, gov, &mut inner, group, v).is_err() {
                inner.ready.clear();
                return;
            }
            continue;
        }
        // Backpressure: wait for an in-flight completion to re-pump.
        inner.admission_waits += 1;
        let waiting = inner.ready.len();
        state.obs.record(Subsystem::Sched, "admission_wait", || {
            vec![
                ("ready", waiting.into()),
                ("resident_plus_reserved", (used as i64).into()),
            ]
        });
        return;
    }
}

/// The armed deadline for vertex `i`, or `None` when no prediction is
/// available yet.
fn hedge_deadline(h: &HedgeState, i: usize) -> Option<Duration> {
    let pred = h
        .predicted
        .as_ref()
        .and_then(|p| p.get(i).copied())
        .filter(|s| s.is_finite() && *s > 0.0)
        .or_else(|| {
            let (sum, count) = *h.completed.lock().unwrap();
            (count > 0).then(|| sum / f64::from(count))
        })?;
    Some(Duration::from_secs_f64((h.factor * pred).max(0.0)).max(h.min_deadline))
}

/// Watches running vertices and spawns a duplicate for any that overrun
/// their deadline. Runs until the scheduler signals shutdown.
fn monitor_loop(state: &Arc<RunState>, group: &TaskGroup) {
    let h = state.hedge.as_ref().expect("monitor requires hedge state");
    let computes: Vec<NodeId> = compute_vertices(&state.graph).collect();
    while !h.shutdown.load(Ordering::Acquire) {
        for &v in &computes {
            let i = v.index();
            if h.winner[i].load(Ordering::Acquire) || h.hedged[i].load(Ordering::Acquire) {
                continue;
            }
            let Some(deadline) = hedge_deadline(h, i) else {
                continue;
            };
            let overrun = h.started[i]
                .lock()
                .unwrap()
                .is_some_and(|t0| t0.elapsed() >= deadline);
            if overrun && !h.hedged[i].swap(true, Ordering::AcqRel) {
                h.launched.fetch_add(1, Ordering::AcqRel);
                state.obs.record(Subsystem::Sched, "hedge_launched", || {
                    vec![
                        ("vertex", i.into()),
                        ("deadline_ms", (deadline.as_millis() as i64).into()),
                    ]
                });
                let st = Arc::clone(state);
                let g = group.clone();
                group.spawn(move || run_vertex_job(&st, &g, v, true));
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn run_vertex_job(state: &Arc<RunState>, group: &TaskGroup, v: NodeId, hedge_attempt: bool) {
    if state.failed.load(Ordering::Acquire) {
        return;
    }
    if let Some(h) = &state.hedge {
        if h.winner[v.index()].load(Ordering::Acquire) {
            return; // stale duplicate; the race is already decided
        }
        if !hedge_attempt {
            *h.started[v.index()].lock().unwrap() = Some(Instant::now());
        }
    }
    // Injected straggler delay (test/chaos hook): primaries only, in
    // 1 ms slices so a winning hedge aborts the straggler promptly.
    if !hedge_attempt {
        if let Some(delays) = &state.delays_ms {
            let d = delays.get(v.index()).copied().unwrap_or(0);
            if d > 0 {
                let until = Instant::now() + Duration::from_millis(d);
                loop {
                    if let Some(h) = &state.hedge {
                        if h.winner[v.index()].load(Ordering::Acquire) {
                            return; // lost to the hedge mid-straggle
                        }
                    }
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    std::thread::sleep((until - now).min(Duration::from_millis(1)));
                }
            }
        }
    }
    let running = state.running.fetch_add(1, Ordering::AcqRel) + 1;
    state.max_running.fetch_max(running, Ordering::AcqRel);
    let result = compute_vertex(state, v);
    state.running.fetch_sub(1, Ordering::AcqRel);
    if let Some(h) = &state.hedge {
        if h.winner[v.index()]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Lost the race: discard the duplicate's result *and* any
            // error (a loser can observe inputs the winner already
            // retired). Determinism is unaffected — kernels are
            // bit-deterministic, so a discarded success was identical.
            return;
        }
        *h.started[v.index()].lock().unwrap() = None;
        if hedge_attempt {
            h.won.fetch_add(1, Ordering::AcqRel);
            h.won_v[v.index()].store(true, Ordering::Release);
            state.obs.record(Subsystem::Sched, "hedge_won", || {
                vec![("vertex", v.index().into())]
            });
        }
        if let Ok(out) = &result {
            let mut c = h.completed.lock().unwrap();
            c.0 += out.impl_seconds;
            c.1 += 1;
        }
    }
    match result {
        Ok(out) => {
            store_output(state, v, out.rel, out.impl_seconds, out.transform_seconds);
            finish_vertex(state, group, v);
        }
        Err(e) => record_failure(state, v, e),
    }
}

/// Post-completion bookkeeping for the winning execution of `v`:
/// retires consumed inputs, unpins, and schedules newly-ready
/// consumers (through the pump when governed).
fn finish_vertex(state: &Arc<RunState>, group: &TaskGroup, v: NodeId) {
    retire_inputs(state, v);
    let mut newly_ready = Vec::new();
    for &c in &state.consumer_edges[v.index()] {
        if state.pending[c.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
            newly_ready.push(c);
        }
    }
    match &state.gov {
        None => {
            for c in newly_ready {
                spawn_vertex(state, group, c);
            }
        }
        Some(gov) => {
            {
                let mut inner = gov.inner.lock().unwrap();
                inner.inflight = inner.inflight.saturating_sub(1);
                for u in unique_inputs(state, v) {
                    inner.pinned[u] = inner.pinned[u].saturating_sub(1);
                }
                inner.ready.extend(newly_ready);
            }
            pump(state, group);
        }
    }
}

/// Runs the shared vertex step against the run's slots. The caller
/// stores the result (exactly once, even when the vertex was hedged).
fn compute_vertex(state: &RunState, v: NodeId) -> Result<StepOutput, ExecError> {
    let choice = state
        .annotation
        .choice(v)
        .ok_or_else(|| missing_choice(&state.graph, v))?;
    let env = StepEnv {
        graph: &state.graph,
        registry: &state.registry,
        obs: &state.obs,
        remote: state.remote.as_deref(),
    };
    run_step(&env, v, choice, state.graph.node(v).mtype, |u| {
        state.slots[u.index()].lock().unwrap().clone()
    })
}

fn store_output(
    state: &Arc<RunState>,
    v: NodeId,
    rel: Arc<DistRelation>,
    isecs: f64,
    tsecs: Vec<f64>,
) {
    let bytes = rel.total_bytes() as u64;
    let chunks = rel.chunks.len();
    *state.slots[v.index()].lock().unwrap() = Some(rel);
    let resident = state.resident.fetch_add(bytes, Ordering::AcqRel) + bytes;
    state.peak.fetch_max(resident, Ordering::AcqRel);
    {
        let mut m = state.meta[v.index()].lock().unwrap();
        m.seconds = isecs;
        m.transform_seconds = tsecs;
        m.chunks = chunks;
        m.bytes = bytes;
    }
    if let Some(gov) = &state.gov {
        let mut inner = gov.inner.lock().unwrap();
        inner.stored_bytes[v.index()] = bytes;
        if matches!(state.graph.node(v).kind, NodeKind::Compute { .. }) {
            // The actual bytes are charged to `resident` now; release
            // the admission-time reservation.
            inner.reserved = inner.reserved.saturating_sub(inner.est_out[v.index()]);
        }
    }
}

/// Drops each input buffer whose last consumer edge just finished,
/// unless the vertex is retained (a sink, or everything under
/// `retain_all`). A retired vertex that was spilled instead drops its
/// scratch file.
fn retire_inputs(state: &Arc<RunState>, v: NodeId) {
    for input in &state.graph.node(v).inputs {
        let u = input.index();
        if state.retained[u] {
            continue;
        }
        if state.uses[u].fetch_sub(1, Ordering::AcqRel) == 1 {
            let taken = state.slots[u].lock().unwrap().take();
            if let Some(rel) = taken {
                state
                    .resident
                    .fetch_sub(rel.total_bytes() as u64, Ordering::AcqRel);
            } else if let Some(gov) = &state.gov {
                let mut inner = gov.inner.lock().unwrap();
                if let Some(t) = inner.tickets[u].take() {
                    gov.spill.remove(&t);
                }
            }
        }
    }
}
