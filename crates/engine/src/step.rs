//! The one vertex step, and the two ends of a run that frame it.
//!
//! Executing an annotated graph is one thing (§3–4 of the paper): apply
//! the chosen transformation `T` on each in-edge, then the chosen
//! implementation `I` at the vertex. Every executor in this crate is a
//! *driver* that decides which vertex runs next and calls [`run_step`];
//! none of them transforms an edge or invokes a kernel itself. A run is
//! staged so each phase consumes the previous one's outputs:
//!
//! * **prologue** ([`prologue`]) — the annotation is complete and every
//!   source is seeded into its slot in the declared format (the pooled
//!   driver then takes its memory lease);
//! * **execution** — a driver calls [`run_step`] per vertex: the pooled
//!   pipeline in [`crate::schedule`], or the [`InlineWalk`] below;
//! * **epilogue** ([`epilogue`]) — slots and per-vertex measurements
//!   become an [`ExecOutcome`].
//!
//! [`InlineWalk`] is the second driver: vertices in id order on the
//! calling thread, one in flight. It is
//! [`crate::execute_plan_serial`] as is, and — with a fault policy or a
//! sparsity-drift rule wrapped around the same loop — the live-injector
//! half of [`crate::execute_fault_tolerant`] and
//! [`crate::execute_adaptive_planned`], which both re-plan through
//! [`InlineWalk::replan`].

use crate::exec::{
    compute_vertices, missing_choice, missing_input, vertex_label, ExecOutcome, RemoteVertexExec,
};
use crate::impl_exec::{execute_impl, ExecError};
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, NodeKind,
    PlanContext, TransformKind, VertexChoice,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext, OptError};
use matopt_pool::{Pool, PoolStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A vertex's value while a run is in progress; `None` before it is
/// computed, after it is retired, or while it is lost to a crash.
pub(crate) type Slot = Option<Arc<DistRelation>>;

/// Prologue: fails on the first unannotated compute vertex in id order
/// before any kernel runs, then seeds every source from the caller's
/// `inputs`. The declared source format is authoritative — a relation
/// that arrives in another layout is re-materialized, one that already
/// matches is copied as is.
pub(crate) fn prologue(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
) -> Result<Vec<Slot>, ExecError> {
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::Compute { .. }) && annotation.choice(id).is_none() {
            return Err(missing_choice(graph, id));
        }
    }
    let mut slots: Vec<Slot> = vec![None; graph.len()];
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let rel = inputs
                .get(&id)
                .ok_or_else(|| missing_input(graph, id))?
                .reformat(*format)
                .map_err(|e| ExecError::Internal(e.to_string()))?;
            slots[id.index()] = Some(Arc::new(rel));
        }
    }
    Ok(slots)
}

/// What the step needs besides the vertex and its choice.
pub(crate) struct StepEnv<'a> {
    /// The graph whose ids name the vertex and its inputs.
    pub graph: &'a ComputeGraph,
    pub registry: &'a ImplRegistry,
    pub obs: &'a Obs,
    /// When set, the chosen implementation runs through this backend
    /// instead of in-process.
    pub remote: Option<&'a dyn RemoteVertexExec>,
}

/// One executed vertex: its output and what the step measured.
pub(crate) struct StepOutput {
    pub rel: Arc<DistRelation>,
    /// Wall seconds of the implementation.
    pub impl_seconds: f64,
    /// Wall seconds per in-edge transform.
    pub transform_seconds: Vec<f64>,
}

/// Runs vertex `v`: transforms each input per `choice` (identity edges
/// are `Arc` bumps), then runs the chosen implementation to produce an
/// `out_type` relation in the chosen output format. Emits one
/// `transform` span per non-identity edge and one `impl` span, and
/// records the implementation's wall time in its `kernel_us_<impl>`
/// histogram. `input` resolves an input vertex to its current value.
pub(crate) fn run_step(
    env: &StepEnv<'_>,
    v: NodeId,
    choice: &VertexChoice,
    out_type: MatrixType,
    input: impl Fn(NodeId) -> Slot,
) -> Result<StepOutput, ExecError> {
    let node = env.graph.node(v);
    let NodeKind::Compute { op } = &node.kind else {
        return Err(ExecError::Internal(format!(
            "vertex {v} is not a compute vertex"
        )));
    };
    let mut transformed: Vec<Arc<DistRelation>> = Vec::with_capacity(node.inputs.len());
    let mut transform_seconds = Vec::with_capacity(node.inputs.len());
    for (edge, (u, t)) in node
        .inputs
        .iter()
        .zip(choice.input_transforms.iter())
        .enumerate()
    {
        let src = input(*u).ok_or_else(|| {
            ExecError::Internal(format!("input {u} of vertex {v} not materialized"))
        })?;
        let t0 = Instant::now();
        let moved = if t.kind == TransformKind::Identity {
            // Free, so the trace stays quiet about it.
            src
        } else {
            let _span = env.obs.span_with(Subsystem::Executor, "transform", || {
                vec![
                    ("vertex", v.index().into()),
                    ("edge", edge.into()),
                    ("kind", format!("{:?}", t.kind).into()),
                    ("to", t.to.to_string().into()),
                ]
            });
            Arc::new(
                src.reformat(t.to)
                    .map_err(|e| ExecError::Internal(e.to_string()))?,
            )
        };
        transform_seconds.push(t0.elapsed().as_secs_f64());
        transformed.push(moved);
    }
    let impl_def = env.registry.get(choice.impl_id);
    let _span = env.obs.span_with(Subsystem::Executor, "impl", || {
        vec![
            ("vertex", v.index().into()),
            ("label", vertex_label(env.graph, v).into()),
            ("op", format!("{op:?}").into()),
            ("impl", impl_def.name.into()),
            ("out_format", choice.output_format.to_string().into()),
        ]
    });
    let t0 = Instant::now();
    let rel = match env.remote {
        Some(remote) => remote.execute_remote(
            v,
            &vertex_label(env.graph, v),
            impl_def.strategy,
            op,
            &transformed,
            &node.inputs,
            out_type,
            choice.output_format,
        )?,
        None => Arc::new(
            execute_impl(
                impl_def.strategy,
                op,
                &transformed,
                out_type,
                choice.output_format,
            )
            .map_err(|e| e.at_vertex(v, &vertex_label(env.graph, v)))?,
        ),
    };
    let impl_seconds = t0.elapsed().as_secs_f64();
    if let Some(m) = env.obs.metrics() {
        // Per-implementation kernel latency; vertex granularity, so the
        // registry lookup is noise next to the kernel itself.
        m.observe(
            Subsystem::Executor,
            &format!("kernel_us_{}", impl_def.name),
            (impl_seconds * 1e6) as u64,
        );
    }
    Ok(StepOutput {
        rel,
        impl_seconds,
        transform_seconds,
    })
}

/// Epilogue: turns the slots into owned values and completes the
/// outcome a driver has filled with its measurements (everything but
/// `sinks`, `values` and `total_seconds`). Each slot's `Arc` is
/// normally unique by now and moves out; only a value still aliased
/// elsewhere pays a clone.
pub(crate) fn epilogue(
    graph: &ComputeGraph,
    slots: Vec<Slot>,
    mut out: ExecOutcome,
    started: Instant,
) -> ExecOutcome {
    for (i, slot) in slots.into_iter().enumerate() {
        if let Some(rel) = slot {
            out.values
                .insert(NodeId(i as u32), Arc::unwrap_or_clone(rel));
        }
    }
    for s in graph.sinks() {
        out.sinks.insert(s, out.values[&s].clone());
    }
    out.total_seconds = started.elapsed().as_secs_f64();
    out
}

/// The plan in force after a re-plan: the suffix graph (executed
/// vertices turned into sources carrying their measured type), where
/// each original vertex sits in it, and its annotation.
struct Suffix {
    graph: ComputeGraph,
    idmap: Vec<NodeId>,
    plan: Annotation,
}

/// The inline driver: vertices in id order on the calling thread, one
/// in flight, every value retained until [`InlineWalk::finish`].
///
/// Determinism needs no argument beyond the loop itself: id order is a
/// topological order, so each step reads fully materialized inputs, and
/// nothing else runs between two steps.
///
/// The caller owns the loop — `for` each compute vertex in id order,
/// [`run`](InlineWalk::run) then [`store`](InlineWalk::store) — so a
/// fault policy can run a vertex several times, lose and restore
/// earlier values, or [`replan`](InlineWalk::replan) between steps.
pub(crate) struct InlineWalk<'a> {
    /// Always in-process: the walk never sets `remote`.
    env: StepEnv<'a>,
    annotation: &'a Annotation,
    /// `None` until the first re-plan; then `annotation` is history.
    suffix: Option<Suffix>,
    /// First vertex id planned by the plan in force (0 until a re-plan).
    epoch_start: usize,
    slots: Vec<Slot>,
    /// The outcome so far: per-vertex measurements, no values yet.
    out: ExecOutcome,
    pool_before: PoolStats,
    started: Instant,
}

impl<'a> InlineWalk<'a> {
    /// Runs the prologue and returns a walk positioned before the first
    /// compute vertex.
    pub fn start(
        graph: &'a ComputeGraph,
        annotation: &'a Annotation,
        inputs: &HashMap<NodeId, DistRelation>,
        registry: &'a ImplRegistry,
        obs: &'a Obs,
    ) -> Result<Self, ExecError> {
        let started = Instant::now();
        let pool = Pool::global();
        let pool_before = pool.stats();
        let slots = prologue(graph, annotation, inputs)?;
        let n = graph.len();
        let mut out = ExecOutcome {
            vertex_seconds: vec![0.0; n],
            transform_seconds: vec![Vec::new(); n],
            vertex_chunks: vec![0; n],
            vertex_resident_bytes: vec![0; n],
            parallelism: pool.parallelism(),
            max_concurrency: 1,
            ..ExecOutcome::default()
        };
        for (i, slot) in slots.iter().enumerate() {
            if let Some(rel) = slot {
                out.vertex_chunks[i] = rel.chunks.len();
                out.vertex_resident_bytes[i] = rel.total_bytes() as u64;
            }
        }
        Ok(InlineWalk {
            env: StepEnv {
                graph,
                registry,
                obs,
                remote: None,
            },
            annotation,
            suffix: None,
            epoch_start: 0,
            slots,
            out,
            pool_before,
            started,
        })
    }

    /// The value currently held for `v`.
    pub fn value(&self, v: NodeId) -> Option<&Arc<DistRelation>> {
        self.slots[v.index()].as_ref()
    }

    /// The choice and output type the plan in force assigns to `v` —
    /// after a re-plan, the type re-inferred from measured statistics.
    fn planned(&self, v: NodeId) -> Option<(&VertexChoice, MatrixType)> {
        match &self.suffix {
            None => Some((self.annotation.choice(v)?, self.env.graph.node(v).mtype)),
            Some(s) => {
                let id = s.idmap[v.index()];
                Some((s.plan.choice(id)?, s.graph.node(id).mtype))
            }
        }
    }

    /// Executes `v` against the current values without storing the
    /// result (the caller may discard an attempt).
    pub fn run(&self, v: NodeId) -> Result<StepOutput, ExecError> {
        let (choice, out_type) = self
            .planned(v)
            .ok_or_else(|| missing_choice(self.env.graph, v))?;
        run_step(&self.env, v, choice, out_type, |u| {
            self.slots[u.index()].clone()
        })
    }

    /// Stores `v`'s output and measurements.
    pub fn store(&mut self, v: NodeId, out: StepOutput) {
        let i = v.index();
        self.out.vertex_seconds[i] = out.impl_seconds;
        self.out.transform_seconds[i] = out.transform_seconds;
        self.out.vertex_chunks[i] = out.rel.chunks.len();
        self.out.vertex_resident_bytes[i] = out.rel.total_bytes() as u64;
        self.slots[i] = Some(out.rel);
    }

    /// Replaces (or, with `None`, loses) the value held for `v` without
    /// touching its measurements — crash recovery's two moves.
    pub fn set_value(&mut self, v: NodeId, rel: Slot) {
        self.slots[v.index()] = rel;
    }

    /// Compute vertices below `v` that the plan in force has executed:
    /// what one plan epoch has materialized so far.
    pub fn epoch_computes_below(&self, v: NodeId) -> Vec<NodeId> {
        compute_vertices(self.env.graph)
            .filter(|u| (self.epoch_start..v.index()).contains(&u.index()))
            .collect()
    }

    /// Re-plans everything from vertex id `from` on: every vertex below
    /// it that an un-executed vertex still reads becomes a source with
    /// its *measured* type and current format, later vertices are
    /// re-typed from those statistics, and the frontier DP runs on that
    /// suffix graph under `ctx`. Starts a new plan epoch at `from`.
    pub fn replan(
        &mut self,
        from: usize,
        ctx: &PlanContext<'_>,
        catalog: &FormatCatalog,
        model: &CostModel,
        beam: usize,
    ) -> Result<(), OptError> {
        let (graph, idmap) = rebuild_suffix(self.env.graph, from, &self.slots);
        let plan =
            frontier_dp_beam(&graph, &OptContext::new(ctx, catalog, model), beam)?.annotation;
        self.suffix = Some(Suffix { graph, idmap, plan });
        self.epoch_start = from;
        Ok(())
    }

    /// Epilogue. Everything was retained, so the peak is the total.
    pub fn finish(mut self) -> ExecOutcome {
        self.out.peak_resident_bytes = self.out.vertex_resident_bytes.iter().sum();
        self.out.pool = Pool::global().stats().since(&self.pool_before);
        epilogue(self.env.graph, self.slots, self.out, self.started)
    }
}

/// Builds the suffix graph of a walk that has executed every vertex id
/// below `from`: each executed vertex that an un-executed one still
/// reads becomes a source carrying its *measured* type and current
/// physical format; un-executed sources keep their declared type and
/// format; un-executed compute vertices are re-added with types
/// re-inferred from the corrected statistics.
///
/// Returns the new graph plus a map from original vertex ids to ids in
/// it (entries for fully-consumed vertices keep their original id and
/// are never consulted).
fn rebuild_suffix(
    graph: &ComputeGraph,
    from: usize,
    values: &[Slot],
) -> (ComputeGraph, Vec<NodeId>) {
    let consumers = graph.consumers();
    let mut g2 = ComputeGraph::new();
    let mut map: Vec<NodeId> = graph.iter().map(|(id, _)| id).collect();
    for (id, node) in graph.iter() {
        let name = node.name.as_deref();
        if id.index() < from {
            if consumers[id.index()].iter().any(|c| c.index() >= from) {
                let rel = values[id.index()].as_ref().expect("executed");
                let measured = MatrixType {
                    sparsity: rel.measured_sparsity().max(f64::MIN_POSITIVE),
                    ..rel.mtype
                };
                map[id.index()] = g2.add_source_named(measured, rel.format, name);
            }
            continue;
        }
        map[id.index()] = match &node.kind {
            NodeKind::Source { format } => g2.add_source_named(node.mtype, *format, name),
            NodeKind::Compute { op } => {
                let remapped: Vec<NodeId> = node.inputs.iter().map(|i| map[i.index()]).collect();
                g2.add_op_named(*op, &remapped, name)
                    .expect("re-typing a valid graph succeeds")
            }
        };
    }
    (g2, map)
}
