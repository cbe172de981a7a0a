//! The real executor: runs an annotated compute graph over concrete
//! distributed relations, chunk by chunk, measuring per-step wall time.
//!
//! Used at laptop scale to (a) prove that every type-correct annotation
//! of a graph computes identical numbers, and (b) collect the
//! installation-time calibration measurements the learned cost model is
//! fitted from (§7).
//!
//! There is one vertex step ([`crate::step`]) and two drivers of it.
//! [`execute_plan`] / [`execute_plan_with`] run an unbudgeted plan on
//! the pooled pipeline in [`crate::schedule`]: ready vertices are pool
//! jobs. A run with a memory budget — [`ExecOptions::mem_budget`] or a
//! [`crate::SharedGovernor`] lease — walks inline instead, one vertex
//! in flight, with the memory governor of [`crate::step`] around each
//! step. [`execute_plan_serial`] is the inline walk with no options —
//! the reference both are property-tested bit-identical against.

use crate::impl_exec::ExecError;
use crate::schedule::run_pipelined;
use crate::step::run_inline;
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, ImplRegistry, MatrixType, NodeId, NodeKind, Op, PhysFormat, Strategy,
};
use matopt_obs::{Obs, Subsystem};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The result of executing an annotated plan.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// The values at every sink vertex.
    pub sinks: HashMap<NodeId, DistRelation>,
    /// The value computed at every retained vertex (sources included) —
    /// useful when intermediate results are themselves deliverables, as
    /// in the blocked-inverse workload whose quadrants feed each other.
    /// Holds every vertex under [`ExecOptions::retain_values`]
    /// (the [`execute_plan`] default), sinks only otherwise.
    pub values: HashMap<NodeId, DistRelation>,
    /// Wall seconds each compute vertex's implementation took.
    pub vertex_seconds: Vec<f64>,
    /// Wall seconds each in-edge transformation took, per vertex.
    pub transform_seconds: Vec<Vec<f64>>,
    /// Chunks in each vertex's output relation.
    pub vertex_chunks: Vec<usize>,
    /// Bytes of each vertex's output relation when it was materialized.
    pub vertex_resident_bytes: Vec<u64>,
    /// Worker parallelism of the pool the plan was scheduled on.
    pub parallelism: usize,
    /// Highest number of vertices in flight at once during the run.
    pub max_concurrency: usize,
    /// Peak bytes resident across all live vertex buffers.
    pub peak_resident_bytes: u64,
    /// What the memory governor did during the run (all zero when the
    /// run had no budget).
    pub governor: GovernorStats,
    /// Pool counter delta for this run: tasks, steals, and busy time
    /// (under the inline walk, the chunk batches its kernels fanned
    /// out).
    pub pool: matopt_pool::PoolStats,
    /// Total wall seconds.
    pub total_seconds: f64,
}

/// Counters from the memory governor. All zero (and `vertex_spills`
/// empty) when the run had no budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorStats {
    /// Buffers written to scratch under memory pressure.
    pub spills: u64,
    /// Resident bytes freed by those spills.
    pub spilled_bytes: u64,
    /// Spilled buffers read back for an admitted consumer.
    pub reloads: u64,
    /// Bytes re-charged by those reloads.
    pub reloaded_bytes: u64,
    /// Always 0: a budgeted run walks with one vertex in flight, so
    /// nothing ever waits for admission. Kept until the benchmark stops
    /// reading it.
    pub admission_waits: u64,
    /// Bytes this run leased from its [`crate::SharedGovernor`] pool
    /// (0 when the run was not pool-governed).
    pub lease_bytes: u64,
    /// Microseconds the run waited to acquire its shared-pool lease.
    pub lease_wait_us: u64,
    /// Spill count per vertex (empty when the budget is off).
    pub vertex_spills: Vec<u32>,
}

/// Knobs for [`execute_plan_with`].
///
/// No option picks the driver: a run with a budget (`mem_budget` or
/// `shared_governor`) walks inline under the memory governor, any other
/// run goes through the pooled pipeline, and `retain_values`,
/// `scratch_dir` and `remote` apply to both. A fault-injected run
/// ([`crate::execute_fault_tolerant`]) walks inline under every
/// option, and retires nothing before its end.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Keep every vertex's value alive for [`ExecOutcome::values`]
    /// (default). When `false`, a vertex's buffer is dropped as soon as
    /// its last consumer finishes — peak residency shrinks to the live
    /// frontier and only sink values come back.
    pub retain_values: bool,
    /// Resident-byte budget for the run (`None` = unbounded). With a
    /// budget the run walks inline and spills cold buffers to scratch
    /// before any vertex whose output would overflow it; see the `step`
    /// module docs.
    pub mem_budget: Option<u64>,
    /// Where spill files go. `None` uses
    /// [`matopt_core::default_scratch_dir`].
    pub scratch_dir: Option<PathBuf>,
    /// Shared memory pool (`None` = this run governs itself). When set,
    /// the run leases a memory carve-out from the pool before its first
    /// vertex and walks inline with the carve-out as its budget;
    /// concurrent executions holding the same `Arc` split one budget.
    /// Composes with [`ExecOptions::mem_budget`]: the effective per-run
    /// budget is the smaller of the lease and the explicit budget.
    pub shared_governor: Option<Arc<crate::SharedGovernor>>,
    /// Remote vertex-execution backend (`None` = run every kernel
    /// in-process). When set, the driver still owns the DAG —
    /// dependency tracking, transforms, buffer retirement, spills — but
    /// each vertex's chosen implementation is handed to the backend,
    /// which is free to ship it across a process boundary. The worker
    /// fleet (`matopt-worker`) is the canonical implementation:
    /// supervision, restart, and lineage re-dispatch all live behind
    /// this one seam.
    pub remote: Option<Arc<dyn RemoteVertexExec>>,
}

/// A vertex-execution backend living outside the calling process.
///
/// The contract is bit-exactness: given the same strategy, op, inputs,
/// and output shape, the backend must return exactly the relation
/// [`execute_impl`](crate::execute_impl) would have produced locally —
/// the chaos suite holds implementations to that across real `SIGKILL`
/// schedules. A backend that cannot produce the value (worker dead
/// beyond its restart budget, no survivors) must return a structured
/// [`ExecError`] such as [`ExecError::WorkerLost`] — never hang.
pub trait RemoteVertexExec: Send + Sync + std::fmt::Debug {
    /// Executes one vertex's chosen implementation remotely and returns
    /// the output relation, which the run stores as is.
    ///
    /// `inputs` are already transformed into the formats the chosen
    /// implementation expects. An identity edge passes its producer's
    /// `Arc` through unchanged and a transformed edge is a new one, so
    /// `Arc` identity names a *value*: a backend may substitute a value
    /// it already holds — the fleet's worker-side cache — exactly when
    /// an input is `Arc::ptr_eq` to one it shipped or returned, and
    /// must not key on `input_vertices` (the producing vertex of each
    /// input, same order), which one value per consumer format shares.
    ///
    /// # Errors
    /// [`ExecError`] when the value cannot be produced.
    #[allow(clippy::too_many_arguments)]
    fn execute_remote(
        &self,
        vertex: NodeId,
        label: &str,
        strategy: Strategy,
        op: &Op,
        inputs: &[Arc<DistRelation>],
        input_vertices: &[NodeId],
        out_type: MatrixType,
        out_format: PhysFormat,
    ) -> Result<Arc<DistRelation>, ExecError>;
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            retain_values: true,
            mem_budget: None,
            scratch_dir: None,
            shared_governor: None,
            remote: None,
        }
    }
}

/// Executes an annotated graph on concrete inputs through the pooled
/// pipeline with default [`ExecOptions`] and no observability.
///
/// `inputs` must contain one relation per source vertex. A source whose
/// relation arrives in a different format than the graph declares is
/// re-materialized (the declared format is authoritative).
///
/// # Errors
/// [`ExecError`] when the annotation is incomplete or inconsistent with
/// the data. Run [`matopt_core::validate`] first for typed errors.
pub fn execute_plan(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
) -> Result<ExecOutcome, ExecError> {
    execute_plan_with(
        graph,
        annotation,
        inputs,
        registry,
        &Obs::disabled(),
        ExecOptions::default(),
    )
}

/// [`execute_plan`] with observability and explicit [`ExecOptions`]:
/// wraps the run in an `execute_plan` span and emits one `impl` span per
/// compute vertex, one `transform` span per non-identity in-edge (both
/// under [`Subsystem::Executor`]), and one [`Subsystem::Sched`] summary
/// record named after the driver (`pipeline` or `inline_walk`). With a
/// disabled handle the instrumentation is a pointer check per site.
///
/// # Errors
/// Same contract as [`execute_plan`].
pub fn execute_plan_with(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
    obs: &Obs,
    options: ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    let _run = obs.span_with(Subsystem::Executor, "execute_plan", || {
        vec![
            ("vertices", graph.len().into()),
            ("compute_vertices", graph.compute_count().into()),
        ]
    });
    if options.mem_budget.is_some() || options.shared_governor.is_some() {
        run_inline(graph, annotation, inputs, registry, obs, &options)
    } else {
        run_pipelined(graph, annotation, inputs, registry, obs, &options)
    }
}

/// The inline walk with no policy around it: vertices in id order, one
/// in flight, every value retained. It is the reference the pooled
/// pipeline and the budgeted walk are property-tested bit-identical
/// against, the benchmark's oracle, and the front door's degraded mode.
///
/// # Errors
/// Same contract as [`execute_plan`].
pub fn execute_plan_serial(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
) -> Result<ExecOutcome, ExecError> {
    run_inline(
        graph,
        annotation,
        inputs,
        registry,
        &Obs::disabled(),
        &ExecOptions::default(),
    )
}

/// A driver's one [`Subsystem::Sched`] summary record and its counters
/// and high-water gauge.
pub(crate) fn record_run(
    obs: &Obs,
    driver: &'static str,
    out: &ExecOutcome,
    budget: Option<u64>,
    retain_all: bool,
) {
    let (gov, pool) = (&out.governor, &out.pool);
    let peak = out.peak_resident_bytes;
    obs.record(Subsystem::Sched, driver, || {
        vec![
            ("vertices", out.vertex_seconds.len().into()),
            ("parallelism", out.parallelism.into()),
            ("max_concurrency", out.max_concurrency.into()),
            ("peak_resident_bytes", (peak as i64).into()),
            ("retain_all", retain_all.into()),
            ("pool_tasks", (pool.tasks as i64).into()),
            ("pool_steals", (pool.steals as i64).into()),
            ("pool_batches", (pool.batches as i64).into()),
            ("mem_budget", (budget.unwrap_or(0) as i64).into()),
            ("spills", (gov.spills as i64).into()),
            ("spilled_bytes", (gov.spilled_bytes as i64).into()),
            ("reloads", (gov.reloads as i64).into()),
        ]
    });
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Sched, "pool_tasks", pool.tasks);
        m.add(Subsystem::Sched, "pool_steals", pool.steals);
        m.add(Subsystem::Sched, "spills", gov.spills);
        m.add(Subsystem::Sched, "spilled_bytes", gov.spilled_bytes);
        // High-water gauge: the largest peak any run has reached since
        // the registry was created.
        let g = m.gauge(Subsystem::Sched, "peak_resident_bytes");
        if g.value() < peak as f64 {
            g.set(peak as f64);
        }
    }
}

/// The compute vertices of `graph` in id (hence topological) order —
/// the inline walk's schedule.
pub(crate) fn compute_vertices(graph: &ComputeGraph) -> impl Iterator<Item = NodeId> + '_ {
    graph
        .iter()
        .filter(|(_, node)| matches!(node.kind, NodeKind::Compute { .. }))
        .map(|(id, _)| id)
}

/// Evaluates the graph on plain dense matrices with no layout logic at
/// all — the ground-truth reference every annotation is checked
/// against.
pub fn reference_eval(
    graph: &ComputeGraph,
    inputs: &HashMap<NodeId, matopt_kernels::DenseMatrix>,
) -> Result<HashMap<NodeId, matopt_kernels::DenseMatrix>, ExecError> {
    let mut values = reference_eval_values(graph, inputs)?;
    let mut out = HashMap::new();
    for sink in graph.sinks() {
        out.insert(sink, values[sink.index()].take().expect("computed"));
    }
    Ok(out)
}

/// Like [`reference_eval`] but returns the value of *every* vertex, not
/// just the sinks — gradient checkers need interior values (a gradient
/// vertex consumed by an SGD update is not a sink).
///
/// # Errors
/// Same as [`reference_eval`].
pub fn reference_eval_all(
    graph: &ComputeGraph,
    inputs: &HashMap<NodeId, matopt_kernels::DenseMatrix>,
) -> Result<HashMap<NodeId, matopt_kernels::DenseMatrix>, ExecError> {
    let values = reference_eval_values(graph, inputs)?;
    Ok(values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (NodeId(i as u32), v.expect("computed")))
        .collect())
}

fn reference_eval_values(
    graph: &ComputeGraph,
    inputs: &HashMap<NodeId, matopt_kernels::DenseMatrix>,
) -> Result<Vec<Option<matopt_kernels::DenseMatrix>>, ExecError> {
    use matopt_core::Op;
    let mut values: Vec<Option<matopt_kernels::DenseMatrix>> = vec![None; graph.len()];
    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Source { .. } => {
                values[id.index()] = Some(
                    inputs
                        .get(&id)
                        .ok_or_else(|| missing_input(graph, id))?
                        .clone(),
                );
            }
            NodeKind::Compute { op } => {
                let arg = |j: usize| values[node.inputs[j].index()].as_ref().expect("topo");
                let out = match op {
                    Op::MatMul => arg(0).matmul(arg(1)),
                    Op::Add => arg(0).add(arg(1)),
                    Op::Sub => arg(0).sub(arg(1)),
                    Op::Hadamard => arg(0).hadamard(arg(1)),
                    Op::ScalarMul(alpha) => arg(0).scale(*alpha),
                    Op::Transpose => arg(0).transpose(),
                    Op::Relu => arg(0).relu(),
                    Op::ReluGrad => arg(0).relu_grad(),
                    Op::Softmax => arg(0).softmax_rows(),
                    Op::Sigmoid => arg(0).sigmoid(),
                    Op::Exp => arg(0).exp(),
                    Op::Neg => arg(0).neg(),
                    Op::RowSums => arg(0).row_sums(),
                    Op::ColSums => arg(0).col_sums(),
                    Op::Inverse => arg(0)
                        .inverse()
                        .map_err(|e| ExecError::Internal(e.to_string()))?,
                    Op::BroadcastAddRow => arg(0).add_row_broadcast(arg(1)),
                    Op::SumAll | Op::FrobeniusNorm => {
                        let frob = matches!(op, Op::FrobeniusNorm);
                        let total = arg(0).data().iter().fold(0.0, |acc, v| {
                            if frob {
                                acc + v * v
                            } else {
                                acc + v
                            }
                        });
                        let mut s = matopt_kernels::DenseMatrix::zeros(1, 1);
                        s.set(0, 0, if frob { total.sqrt() } else { total });
                        s
                    }
                };
                values[id.index()] = Some(out);
            }
        }
    }
    Ok(values)
}

/// Builds the diagnosable missing-source error: names the vertex by id
/// *and* graph label so fault logs and chaos-test failures say which
/// matrix was absent.
pub(crate) fn missing_input(graph: &ComputeGraph, id: NodeId) -> ExecError {
    let label = graph
        .node(id)
        .name
        .clone()
        .unwrap_or_else(|| format!("source {}", id.index()));
    ExecError::MissingInput { vertex: id, label }
}

/// The vertex's graph label, falling back to the vertex id's rendering
/// when the graph left it unnamed.
pub(crate) fn vertex_label(graph: &ComputeGraph, id: NodeId) -> String {
    graph
        .node(id)
        .name
        .clone()
        .unwrap_or_else(|| id.to_string())
}

/// Builds the unannotated-vertex error with both id and label.
pub(crate) fn missing_choice(graph: &ComputeGraph, id: NodeId) -> ExecError {
    ExecError::MissingChoice {
        vertex: id,
        label: vertex_label(graph, id),
    }
}
