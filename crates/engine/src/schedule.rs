//! The pipelined DAG scheduler: ready-queue execution of an annotated
//! plan on the shared work-stealing pool, for runs without a memory
//! budget (a budgeted run walks inline; see [`crate::step`]).
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
//!   are tracked either way;
//! * with [`crate::ExecOptions::remote`] set, each vertex's
//!   implementation runs through the backend, several at once.
//!
//! Determinism: every vertex reads fully-materialized inputs and every
//! chunk batch preserves item order, so the pipelined executor is
//! bit-identical to the inline walk regardless of completion order
//! (the `pipeline.rs` tests pin this).

use crate::exec::{
    compute_vertices, missing_choice, record_run, ExecOptions, ExecOutcome, RemoteVertexExec,
};
use crate::impl_exec::ExecError;
use crate::step::{epilogue, prologue, run_step, StepEnv, StepOutput};
use crate::value::DistRelation;
use matopt_core::{Annotation, ComputeGraph, ImplRegistry, NodeId};
use matopt_obs::Obs;
use matopt_pool::{Pool, TaskGroup};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-vertex measurements, written once by the job that ran the
/// vertex.
#[derive(Default)]
struct VertexMeta {
    seconds: f64,
    transform_seconds: Vec<f64>,
    chunks: usize,
    bytes: u64,
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
    /// Remote vertex-execution backend; when set, chosen
    /// implementations run through it instead of in-process.
    remote: Option<Arc<dyn RemoteVertexExec>>,
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
        remote: options.remote.clone(),
    });

    // Store the seeded sources, then spawn the vertices that are ready
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
    // Collected before the first spawn: a spawned vertex may finish
    // and release its consumers while this sweep is still running.
    let ready: Vec<NodeId> = compute_vertices(graph)
        .filter(|id| state.pending[id.index()].load(Ordering::Acquire) == 0)
        .collect();
    let group = pool.group();
    for id in ready {
        spawn_vertex(&state, &group, id);
    }
    let waited = group.wait();
    if let Some((_, e)) = state.error.lock().unwrap().take() {
        return Err(e);
    }
    waited.map_err(|detail| ExecError::Internal(format!("scheduler job panicked: {detail}")))?;

    let state = Arc::try_unwrap(state)
        .map_err(|_| ExecError::Internal("scheduler state still shared after wait".to_string()))?;
    let mut out = ExecOutcome {
        parallelism: pool.parallelism(),
        max_concurrency: state.max_running.load(Ordering::Acquire).max(1),
        peak_resident_bytes: state.peak.load(Ordering::Acquire),
        pool: pool.stats().since(&pool_before),
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
    let out = epilogue(graph, slots, out, started);
    record_run(obs, "pipeline", &out, None, retain_all);
    Ok(out)
}

/// Records a failure against the lowest failing vertex id
/// (deterministic across completion orders) and flips the `failed`
/// flag so in-flight jobs stop early.
fn record_failure(state: &RunState, v: NodeId, e: ExecError) {
    state.failed.store(true, Ordering::Release);
    let mut slot = state.error.lock().unwrap();
    match &*slot {
        Some((u, _)) if u.index() <= v.index() => {}
        _ => *slot = Some((v, e)),
    }
}

/// Queues vertex `v` as a pool job in `group`; the job schedules
/// follow-on ready consumers into the same group.
fn spawn_vertex(state: &Arc<RunState>, group: &TaskGroup, v: NodeId) {
    let st = Arc::clone(state);
    let g = group.clone();
    group.spawn(move || run_vertex_job(&st, &g, v));
}

fn run_vertex_job(state: &Arc<RunState>, group: &TaskGroup, v: NodeId) {
    if state.failed.load(Ordering::Acquire) {
        return;
    }
    let running = state.running.fetch_add(1, Ordering::AcqRel) + 1;
    state.max_running.fetch_max(running, Ordering::AcqRel);
    let result = compute_vertex(state, v);
    state.running.fetch_sub(1, Ordering::AcqRel);
    match result {
        Ok(out) => {
            store_output(state, v, out.rel, out.impl_seconds, out.transform_seconds);
            retire_inputs(state, v);
            for &c in &state.consumer_edges[v.index()] {
                if state.pending[c.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                    spawn_vertex(state, group, c);
                }
            }
        }
        Err(e) => record_failure(state, v, e),
    }
}

/// Runs the shared vertex step against the run's slots.
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
    let mut m = state.meta[v.index()].lock().unwrap();
    m.seconds = isecs;
    m.transform_seconds = tsecs;
    m.chunks = chunks;
    m.bytes = bytes;
}

/// Drops each input buffer whose last consumer edge just finished,
/// unless the vertex is retained (a sink, or everything under
/// `retain_all`).
fn retire_inputs(state: &Arc<RunState>, v: NodeId) {
    for input in &state.graph.node(v).inputs {
        let u = input.index();
        if state.retained[u] {
            continue;
        }
        if state.uses[u].fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(rel) = state.slots[u].lock().unwrap().take() {
                state
                    .resident
                    .fetch_sub(rel.total_bytes() as u64, Ordering::AcqRel);
            }
        }
    }
}
