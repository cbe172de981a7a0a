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
//!   source is seeded into its slot in the declared format;
//! * **execution** — a driver calls [`run_step`] per vertex: the pooled
//!   pipeline in [`crate::schedule`], or the [`InlineWalk`] below;
//! * **epilogue** ([`epilogue`]) — slots and per-vertex measurements
//!   become an [`ExecOutcome`].
//!
//! [`InlineWalk`] is the second driver: vertices in id order, one in
//! flight (its kernels still fan out over the pool).
//! [`InlineWalk::start`] is the one way to begin a walk and the one
//! place [`ExecOptions`] are applied. Its one loop,
//! [`InlineWalk::drive`], is [`crate::execute_plan_serial`] as is, every
//! run with a memory budget ([`run_inline`]), and — with a fault policy
//! or a sparsity-drift rule as the step —
//! [`crate::execute_fault_tolerant`] and
//! [`crate::execute_adaptive_planned`], which both re-plan through
//! [`InlineWalk::replan`]. [`InlineWalk::finish`] records every walk
//! exactly once: one `inline_walk` [`Subsystem::Sched`] record and its
//! spill, pool and peak metrics.
//!
//! # Memory governor
//!
//! A budgeted walk (an [`ExecOptions::mem_budget`], a
//! [`SharedGovernor`] lease, or both — the smaller wins) governs memory
//! around each step. Before each run of vertex `v` ([`InlineWalk::run`]:
//! a first attempt, a retry or a crash replay):
//!
//! * cold buffers are spilled to scratch until `resident + est_out(v) +
//!   reloads(v)` fits the budget, where `est_out(v)` is the output size
//!   the annotation's format implies (exact for dense formats) and
//!   `reloads(v)` the bytes of `v`'s spilled inputs. The victim has the
//!   fewest remaining consumers, then the most bytes, then the lowest
//!   id, and is never an input of `v` (see [`crate::spill`] for the
//!   scratch store and its checksummed format);
//! * if it still does not fit, everything but `v`'s inputs is on
//!   scratch, so `v`'s inputs plus its output exceed the budget on
//!   their own: the run fails with [`ExecError::MemBudgetInfeasible`]
//!   (an output larger than its estimate is charged after the fact,
//!   and can lift the peak past the budget);
//! * `v`'s spilled inputs are reloaded with both checksums verified —
//!   damage is [`ExecError::SpillCorrupted`], never a wrong number.
//!
//! After `v` runs, inputs whose last consumer it was are retired unless
//! retained (a fault-injected walk retires only at the end, since crash
//! replay may read any earlier value). Retained buffers still on scratch at the end are
//! rehydrated, fanned out over the pool, so callers see exactly the
//! values an unbudgeted run returns; peak accounting stops before that.
//! Every spill and reload is a [`Subsystem::Sched`] record (a spill's
//! names its extent), and the wall time the walk spends in them is
//! [`GovernorStats::spill_us`](crate::GovernorStats::spill_us) and
//! [`reload_us`](crate::GovernorStats::reload_us).

use crate::adaptive::AdaptiveError;
use crate::exec::{
    compute_vertices, missing_choice, missing_input, record_run, vertex_label, ExecOptions,
    ExecOutcome, RemoteVertexExec,
};
use crate::impl_exec::{checked_plan, execute_impl, ExecError};
use crate::spill::{SpillError, SpillManager, SpillTicket};
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, NodeKind,
    PlanContext, TransformKind, VertexChoice,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_pool::{Pool, PoolStats};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
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
    let at_v = |e: ExecError| e.at_vertex(v, &vertex_label(env.graph, v));
    let (strategy, out_format) = (impl_def.strategy, choice.output_format);
    let rel = match env.remote {
        Some(remote) => {
            // Refuse a mislabelled vertex here, as `execute_impl` does
            // in-process, before anything crosses the wire.
            checked_plan(strategy, op, &transformed, out_type, out_format).map_err(at_v)?;
            remote.execute_remote(
                v,
                &vertex_label(env.graph, v),
                strategy,
                op,
                &transformed,
                &node.inputs,
                out_type,
                out_format,
            )?
        }
        None => {
            Arc::new(execute_impl(strategy, op, &transformed, out_type, out_format).map_err(at_v)?)
        }
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

/// The inline driver: vertices in id order, one in flight.
///
/// Determinism needs no argument beyond the loop itself: id order is a
/// topological order, so each step reads fully materialized inputs, and
/// nothing else runs between two steps. Spills round-trip bit-exactly,
/// so a budget cannot change a number either.
///
/// [`drive`](InlineWalk::drive) is the loop; its step closure may run a
/// vertex several times, lose and replay earlier values, or
/// [`replan`](InlineWalk::replan) before it returns the output to store.
pub(crate) struct InlineWalk<'a> {
    env: StepEnv<'a>,
    annotation: &'a Annotation,
    /// `None` until the first re-plan; then `annotation` is history.
    suffix: Option<Suffix>,
    /// First vertex id planned by the plan in force (0 until a re-plan).
    epoch_start: usize,
    slots: Vec<Slot>,
    /// Vertices whose values are never retired: everything by default,
    /// the sinks only when the caller streams.
    retained: Vec<bool>,
    /// `false` when nothing is retired before [`finish`](Self::finish).
    retire_early: bool,
    /// [`ExecOptions::retain_values`], for the run's record.
    retain_all: bool,
    /// Consumer edges per vertex not yet run (one per edge, so a vertex
    /// read twice by one consumer counts twice).
    uses: Vec<usize>,
    /// Bytes of every value in `slots`.
    resident: u64,
    /// Present when the run has a memory budget.
    gov: Option<WalkGovernor>,
    /// The outcome so far: per-vertex measurements, no values yet.
    out: ExecOutcome,
    pool_before: PoolStats,
    started: Instant,
}

/// A budgeted walk's budget and its spills (its counters live in
/// the outcome's [`GovernorStats`](crate::GovernorStats)).
struct WalkGovernor {
    budget: u64,
    /// Shared with the rehydrate fan-out.
    spill: Arc<SpillManager>,
    /// Receipt per spilled vertex, `None` while resident or retired.
    tickets: Vec<Option<SpillTicket>>,
    /// The shared-pool carve-out the budget came from, if any.
    _lease: Option<GovernorLease>,
}

impl<'a> InlineWalk<'a> {
    /// Runs the prologue and returns a walk positioned before the first
    /// compute vertex, governed by `options` — the one place they are
    /// applied: which values are retained, [`ExecOptions::remote`], the
    /// [`SharedGovernor`] lease (held until [`finish`](Self::finish)),
    /// the budget and its scratch store. With `retire_early` false the
    /// walk keeps every value for crash replay until `finish`, which
    /// then drops what the options do not retain.
    pub fn start(
        graph: &'a ComputeGraph,
        annotation: &'a Annotation,
        inputs: &HashMap<NodeId, DistRelation>,
        registry: &'a ImplRegistry,
        obs: &'a Obs,
        options: &'a ExecOptions,
        retire_early: bool,
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
        let resident = out.vertex_resident_bytes.iter().sum();
        out.peak_resident_bytes = resident;
        let mut uses = vec![0; n];
        for (_, node) in graph.iter() {
            for u in &node.inputs {
                uses[u.index()] += 1;
            }
        }
        let mut retained = vec![options.retain_values; n];
        for s in graph.sinks() {
            retained[s.index()] = true;
        }
        // Lease a carve-out from the shared pool (if any) before the first
        // vertex: concurrent runs split one budget instead of each assuming
        // it owns the machine. The lease returns to the pool (waking
        // blocked acquirers) when the walk ends, on every exit path.
        let lease_wait = Instant::now();
        let lease = options.shared_governor.as_ref().map(|sg| {
            let retires: Vec<bool> = retained.iter().map(|&r| retire_early && !r).collect();
            let (want, min_need) = estimate_run_bytes(graph, annotation, &retires);
            sg.acquire(want, min_need)
        });
        if let Some(l) = &lease {
            out.governor.lease_bytes = l.bytes();
            out.governor.lease_wait_us = lease_wait.elapsed().as_micros() as u64;
        }
        // The smaller of the explicit budget and the lease, when either exists.
        let budget = (options.mem_budget.into_iter())
            .chain(lease.as_ref().map(GovernorLease::bytes))
            .min();
        let gov = match budget {
            Some(budget) => {
                out.governor.vertex_spills = vec![0; n];
                Some(WalkGovernor {
                    budget,
                    spill: Arc::new(SpillManager::new(options.scratch_dir.clone()).map_err(
                        |e| ExecError::Internal(format!("spill scratch setup failed: {e}")),
                    )?),
                    tickets: vec![None; n],
                    _lease: lease,
                })
            }
            None => None,
        };
        Ok(InlineWalk {
            env: StepEnv {
                graph,
                registry,
                obs,
                remote: options.remote.as_deref(),
            },
            annotation,
            suffix: None,
            epoch_start: 0,
            slots,
            retained,
            retire_early,
            retain_all: options.retain_values,
            uses,
            resident,
            gov,
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

    /// The one inline loop: for each compute vertex in id order, call
    /// `step` (`walk.run(v)` at its simplest) with the vertex's step
    /// index, store what it returns, and retire the inputs it was the
    /// last consumer of.
    pub fn drive<E: From<ExecError>>(
        &mut self,
        mut step: impl FnMut(&mut Self, usize, NodeId) -> Result<StepOutput, E>,
    ) -> Result<(), E> {
        let graph = self.env.graph;
        for (i, v) in compute_vertices(graph).enumerate() {
            let out = step(self, i, v)?;
            self.store(v, out);
            for u in &graph.node(v).inputs {
                let u = u.index();
                self.uses[u] -= 1;
                if self.uses[u] == 0 && self.retire_early {
                    self.retire(u);
                }
            }
        }
        Ok(())
    }

    /// Drops `u`'s value, resident or on scratch, unless it is retained.
    fn retire(&mut self, u: usize) {
        if self.retained[u] {
            return;
        }
        self.set_value(NodeId(u as u32), None);
        if let Some(gov) = &mut self.gov {
            if let Some(t) = gov.tickets[u].take() {
                gov.spill.remove(&t);
            }
        }
    }

    /// Executes `v` against the current values after the governor's
    /// turn for it, without storing the result (the caller may discard
    /// an attempt). Every run of a vertex — first attempt, retry, crash
    /// replay — comes through here.
    pub fn run(&mut self, v: NodeId) -> Result<StepOutput, ExecError> {
        self.make_room(v)?;
        let (choice, out_type) = self
            .planned(v)
            .ok_or_else(|| missing_choice(self.env.graph, v))?;
        run_step(&self.env, v, choice, out_type, |u| {
            self.slots[u.index()].clone()
        })
    }

    /// Stores `v`'s output and measurements.
    fn store(&mut self, v: NodeId, out: StepOutput) {
        let i = v.index();
        self.out.vertex_seconds[i] = out.impl_seconds;
        self.out.transform_seconds[i] = out.transform_seconds;
        self.out.vertex_chunks[i] = out.rel.chunks.len();
        self.out.vertex_resident_bytes[i] = out.rel.total_bytes() as u64;
        self.set_value(v, Some(out.rel));
    }

    /// Replaces (or, with `None`, loses) the value held for `v` without
    /// touching its measurements — crash recovery's two moves, and
    /// every residency change of the governor.
    pub fn set_value(&mut self, v: NodeId, rel: Slot) {
        let bytes = |s: &Slot| s.as_ref().map_or(0, |r| r.total_bytes() as u64);
        let slot = &mut self.slots[v.index()];
        self.resident = self.resident - bytes(slot) + bytes(&rel);
        *slot = rel;
        self.out.peak_resident_bytes = self.out.peak_resident_bytes.max(self.resident);
    }

    /// The governor's turn before `v` runs: spill until `v`'s output
    /// and reloads fit, fail if `v` cannot fit at all, reload its
    /// spilled inputs.
    fn make_room(&mut self, v: NodeId) -> Result<(), ExecError> {
        let Some(gov) = &self.gov else {
            return Ok(());
        };
        let (choice, out_type) = self
            .planned(v)
            .ok_or_else(|| missing_choice(self.env.graph, v))?;
        let est_out = choice.output_format.total_bytes(&out_type) as u64;
        let inputs = distinct_inputs(self.env.graph, v);
        let reloads: u64 = inputs
            .iter()
            .filter_map(|&u| gov.tickets[u].as_ref())
            .map(|t| t.bytes)
            .sum();
        let (budget, need) = (gov.budget, est_out + reloads);
        while self.resident + need > budget {
            let Some(victim) = self.victim(&inputs) else {
                break;
            };
            self.spill(victim)?;
        }
        // Out of victims means only `v`'s inputs are resident: what
        // is left is `v`'s own footprint, inputs plus output.
        if self.resident + need > budget {
            return Err(ExecError::MemBudgetInfeasible {
                vertex: v,
                label: vertex_label(self.env.graph, v),
                need: self.resident + need,
                budget,
            });
        }
        for u in inputs {
            self.reload(u)?;
        }
        Ok(())
    }

    /// The coldest resident buffer outside `keep`: fewest remaining
    /// consumers, then most bytes, then lowest id.
    fn victim(&self, keep: &[usize]) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(u, _)| !keep.contains(u))
            .filter_map(|(u, s)| Some((u, s.as_ref()?.total_bytes() as u64)))
            .filter(|&(_, bytes)| bytes > 0)
            .min_by_key(|&(u, bytes)| (self.uses[u], std::cmp::Reverse(bytes), u))
            .map(|(u, _)| u)
    }

    /// Writes `u`'s buffer to scratch and drops it from memory.
    fn spill(&mut self, u: usize) -> Result<(), ExecError> {
        let id = NodeId(u as u32);
        let rel = self.slots[u].clone().expect("victims are resident");
        let gov = self.gov.as_mut().expect("spills imply a governor");
        let t0 = Instant::now();
        let ticket = gov
            .spill
            .spill(&rel)
            .map_err(|e| spill_failure(self.env.graph, id, e))?;
        let (bytes, offset, len) = (ticket.bytes, ticket.offset, ticket.len);
        gov.tickets[u] = Some(ticket);
        let stats = &mut self.out.governor;
        stats.spill_us += t0.elapsed().as_micros() as u64;
        stats.spills += 1;
        stats.spilled_bytes += bytes;
        stats.vertex_spills[u] += 1;
        self.set_value(id, None);
        self.env.obs.record(Subsystem::Sched, "spill", || {
            vec![
                ("vertex", u.into()),
                ("bytes", (bytes as i64).into()),
                ("offset", (offset as i64).into()),
                ("stream_bytes", (len as i64).into()),
            ]
        });
        Ok(())
    }

    /// Reads `u` back from scratch if it is there, checksums verified.
    fn reload(&mut self, u: usize) -> Result<(), ExecError> {
        let id = NodeId(u as u32);
        let gov = self.gov.as_mut().expect("reloads imply a governor");
        let Some(ticket) = gov.tickets[u].take() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let back = gov.spill.reload(&ticket);
        gov.spill.remove(&ticket);
        self.out.governor.reload_us += t0.elapsed().as_micros() as u64;
        let rel = back.map_err(|e| spill_failure(self.env.graph, id, e))?;
        self.out.governor.reloads += 1;
        self.out.governor.reloaded_bytes += ticket.bytes;
        self.set_value(id, Some(Arc::new(rel)));
        self.env.obs.record(Subsystem::Sched, "reload", || {
            vec![
                ("vertex", u.into()),
                ("bytes", (ticket.bytes as i64).into()),
            ]
        });
        Ok(())
    }

    /// Compute vertices below `v` that the plan in force has executed
    /// and that are resident (not on scratch): what a crash can lose.
    pub fn epoch_resident_below(&self, v: NodeId) -> Vec<NodeId> {
        compute_vertices(self.env.graph)
            .filter(|u| (self.epoch_start..v.index()).contains(&u.index()))
            .filter(|u| self.slots[u.index()].is_some())
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
    ) -> Result<(), AdaptiveError> {
        let (graph, idmap) = rebuild_suffix(self.env.graph, from, |u| self.peek(u))?;
        let plan = frontier_dp_beam(&graph, &OptContext::new(ctx, catalog, model), beam)
            .map_err(AdaptiveError::Opt)?
            .annotation;
        self.suffix = Some(Suffix { graph, idmap, plan });
        self.epoch_start = from;
        Ok(())
    }

    /// `u`'s value; a spilled one is read back without being charged.
    fn peek(&self, u: NodeId) -> Result<Arc<DistRelation>, ExecError> {
        if let Some(rel) = &self.slots[u.index()] {
            return Ok(Arc::clone(rel));
        }
        let (gov, ticket) = (self.gov.as_ref())
            .and_then(|g| Some((g, g.tickets[u.index()].as_ref()?)))
            .expect("a value the suffix reads is resident or spilled");
        let rel = (gov.spill.reload(ticket)).map_err(|e| spill_failure(self.env.graph, u, e))?;
        Ok(Arc::new(rel))
    }

    /// Epilogue: drops what is not retained, rehydrates retained values
    /// still on scratch (fanned out over the pool; a failure resolves
    /// to the lowest vertex id), returns the lease, builds the outcome
    /// and records the run — once per walk, whatever its step did.
    pub fn finish(mut self) -> Result<ExecOutcome, ExecError> {
        let pool = Pool::global();
        let budget = self.gov.as_ref().map(|g| g.budget);
        for u in 0..self.slots.len() {
            self.retire(u);
        }
        if let Some(gov) = self.gov.take() {
            let tickets: Arc<Vec<(usize, SpillTicket)>> = Arc::new(
                (gov.tickets.into_iter().enumerate())
                    .filter_map(|(u, t)| Some((u, t?)))
                    .collect(),
            );
            let (spill, todo) = (Arc::clone(&gov.spill), Arc::clone(&tickets));
            let t0 = Instant::now();
            let back = pool
                .try_map(tickets.len(), move |i| {
                    let back = spill.reload(&todo[i].1);
                    spill.remove(&todo[i].1);
                    back
                })
                .map_err(|detail| ExecError::Internal(format!("rehydrate panicked: {detail}")))?;
            self.out.governor.reload_us += t0.elapsed().as_micros() as u64;
            for ((u, ticket), rel) in tickets.iter().zip(back) {
                let id = NodeId(*u as u32);
                let rel = rel.map_err(|e| spill_failure(self.env.graph, id, e))?;
                // After the peak: the values are being handed back.
                self.slots[*u] = Some(Arc::new(rel));
                self.out.governor.reloads += 1;
                self.out.governor.reloaded_bytes += ticket.bytes;
                self.env.obs.record(Subsystem::Sched, "reload", || {
                    vec![
                        ("vertex", (*u).into()),
                        ("bytes", (ticket.bytes as i64).into()),
                        ("rehydrate", true.into()),
                    ]
                });
            }
        }
        self.out.pool = pool.stats().since(&self.pool_before);
        let (obs, retain_all) = (self.env.obs, self.retain_all);
        let out = epilogue(self.env.graph, self.slots, self.out, self.started);
        record_run(obs, "inline_walk", &out, budget, retain_all);
        Ok(out)
    }
}

/// Runs a plan on the inline walk under `options`: in-process or through
/// [`ExecOptions::remote`], every value retained or only the sinks, and
/// governed when the run has a budget. [`crate::execute_plan_serial`]
/// is this with default options.
pub(crate) fn run_inline(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
    obs: &Obs,
    options: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    let mut walk = InlineWalk::start(graph, annotation, inputs, registry, obs, options, true)?;
    walk.drive(|walk, _, v| walk.run(v))?;
    walk.finish()
}

/// Live accounting of a [`SharedGovernor`] pool, and the counter
/// snapshot [`SharedGovernor::stats`] returns.
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
/// A run with [`ExecOptions::shared_governor`] set leases a memory
/// carve-out from this pool before its first vertex, then walks inline
/// with the carve-out as its budget (see the module docs). It asks for
/// its walk's estimated peak: every output when it retains every value,
/// the peak under retirement when it keeps only its sinks. The lease
/// is released when the run finishes, waking
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
    pool: Mutex<SharedGovernorStats>,
    freed: Condvar,
}

impl SharedGovernor {
    /// A pool with `budget` total bytes (minimum 1).
    #[must_use]
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(SharedGovernor {
            pool: Mutex::new(SharedGovernorStats {
                budget: budget.max(1),
                ..SharedGovernorStats::default()
            }),
            freed: Condvar::new(),
        })
    }

    /// Bytes currently leased to running executions.
    #[must_use]
    pub fn leased(&self) -> u64 {
        self.pool.lock().expect("shared governor pool").leased
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SharedGovernorStats {
        *self.pool.lock().expect("shared governor pool")
    }

    /// Leases between `min` and `want` bytes from the pool, blocking
    /// until at least `min` (clamped to the budget) is free. Grants as
    /// much of `want` as currently fits so a lone run still gets full
    /// headroom, while concurrent runs split the pool.
    #[must_use]
    pub fn acquire(self: &Arc<Self>, want: u64, min: u64) -> GovernorLease {
        let mut pool = self.pool.lock().expect("shared governor pool");
        let budget = pool.budget;
        let (min, mut waited) = (min.clamp(1, budget), false);
        while budget - pool.leased < min {
            waited = true;
            pool = self.freed.wait(pool).expect("shared governor pool");
        }
        if waited {
            pool.admission_waits += 1;
        }
        let granted = want.clamp(min, budget).min(budget - pool.leased);
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

/// What a run asks the shared pool for and the least it can work with,
/// from each vertex's estimated output bytes (declared source formats,
/// the annotation's chosen output format for computes): the id-order
/// walk's peak when every `retires[u]` value is dropped after its last
/// consumer runs (every output, when none is), and the largest
/// standalone footprint (a vertex's inputs plus its output).
fn estimate_run_bytes(
    graph: &ComputeGraph,
    annotation: &Annotation,
    retires: &[bool],
) -> (u64, u64) {
    let est: Vec<u64> = (graph.iter())
        .map(|(id, node)| {
            let format = match &node.kind {
                NodeKind::Source { format } => *format,
                NodeKind::Compute { .. } => {
                    let choice = annotation.choice(id);
                    choice.expect("checked by the prologue").output_format
                }
            };
            format.total_bytes(&node.mtype).max(0.0) as u64
        })
        .collect();
    let mut uses = vec![0usize; est.len()];
    for (_, node) in graph.iter() {
        for u in &node.inputs {
            uses[u.index()] += 1;
        }
    }
    let mut resident: u64 = graph.sources().iter().map(|s| est[s.index()]).sum();
    let mut peak = resident;
    for v in compute_vertices(graph) {
        resident = resident.saturating_add(est[v.index()]);
        peak = peak.max(resident);
        for u in &graph.node(v).inputs {
            let u = u.index();
            uses[u] -= 1;
            if uses[u] == 0 && retires[u] {
                resident -= est[u];
            }
        }
    }
    let footprint = |v: NodeId| {
        let inputs = distinct_inputs(graph, v).into_iter();
        inputs.fold(est[v.index()], |need, u| need.saturating_add(est[u]))
    };
    let min_need = compute_vertices(graph).map(footprint).max().unwrap_or(0);
    (peak, min_need.max(1))
}

/// `v`'s input vertices, each once, in id order.
fn distinct_inputs(graph: &ComputeGraph, v: NodeId) -> Vec<usize> {
    let mut inputs: Vec<usize> = graph.node(v).inputs.iter().map(|u| u.index()).collect();
    inputs.sort_unstable();
    inputs.dedup();
    inputs
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
    value: impl Fn(NodeId) -> Result<Arc<DistRelation>, ExecError>,
) -> Result<(ComputeGraph, Vec<NodeId>), ExecError> {
    let consumers = graph.consumers();
    let mut g2 = ComputeGraph::new();
    let mut map: Vec<NodeId> = graph.iter().map(|(id, _)| id).collect();
    for (id, node) in graph.iter() {
        let name = node.name.as_deref();
        if id.index() < from {
            if consumers[id.index()].iter().any(|c| c.index() >= from) {
                let rel = value(id)?;
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
    Ok((g2, map))
}
