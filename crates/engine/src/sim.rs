//! The analytic simulator: evaluates an annotated plan at paper scale
//! against the cluster model, producing a wall-clock estimate or the
//! runtime failure the paper reports as "Fail".
//!
//! The simulator deliberately accepts plans that the optimizer would
//! refuse to generate: the hand-written and all-tile baselines of §8.2
//! build such plans, run them, and crash "typically due to too much
//! intermediate data" — which is exactly what [`SimOutcome::Failed`]
//! models (per-worker RAM for pinned data, per-worker scratch space for
//! spilled intermediates).

use matopt_core::{
    Annotation, ComputeGraph, NodeId, NodeKind, PlanContext, PlanError, RecoveryPolicy,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};

/// Why a simulated run crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// A worker needed more RAM than it has (e.g. broadcasting an
    /// oversized matrix).
    OutOfMemory,
    /// Cumulative spilled intermediate data exceeded a worker's scratch
    /// space.
    OutOfDisk,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::OutOfMemory => write!(f, "out of memory"),
            FailReason::OutOfDisk => write!(f, "out of intermediate-data space"),
        }
    }
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimOutcome {
    /// The plan finished in the estimated number of seconds.
    Finished {
        /// Estimated wall-clock seconds.
        seconds: f64,
    },
    /// The plan crashed at the given vertex.
    Failed {
        /// First vertex to exceed a resource.
        vertex: NodeId,
        /// Which resource was exceeded.
        reason: FailReason,
    },
}

impl SimOutcome {
    /// The estimated seconds, if the run finished.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            SimOutcome::Finished { seconds } => Some(*seconds),
            SimOutcome::Failed { .. } => None,
        }
    }

    /// `true` when the run crashed.
    pub fn failed(&self) -> bool {
        matches!(self, SimOutcome::Failed { .. })
    }
}

impl std::fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimOutcome::Finished { seconds } => write!(f, "{}", format_hms(*seconds)),
            SimOutcome::Failed { .. } => write!(f, "Fail"),
        }
    }
}

/// Renders seconds in the paper's `H:MM:SS` / `MM:SS` table style.
pub fn format_hms(seconds: f64) -> String {
    let total = seconds.round() as u64;
    let h = total / 3600;
    let m = (total % 3600) / 60;
    let s = total % 60;
    if h > 0 {
        format!("{h}:{m:02}:{s:02}")
    } else {
        format!("{m:02}:{s:02}")
    }
}

/// A per-vertex simulation record.
#[derive(Debug, Clone)]
pub struct SimStep {
    /// The vertex.
    pub vertex: NodeId,
    /// Estimated seconds for the implementation at this vertex.
    pub impl_seconds: f64,
    /// Estimated seconds for the in-edge transformations.
    pub transform_seconds: f64,
}

/// The full simulation report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Finished-or-failed plus the total estimate.
    pub outcome: SimOutcome,
    /// Per-vertex breakdown (up to the failure point, if any).
    pub steps: Vec<SimStep>,
}

/// Simulates an annotated plan on the cluster in `ctx`, using `model`
/// to turn features into seconds.
///
/// ```
/// use matopt_core::*;
/// use matopt_cost::CostModel;
/// use matopt_engine::simulate_plan;
/// use matopt_opt::{frontier_dp, OptContext};
///
/// let mut g = ComputeGraph::new();
/// let a = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::Tile { side: 1000 });
/// let b = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::Tile { side: 1000 });
/// let _p = g.add_op(Op::MatMul, &[a, b]).unwrap();
///
/// let registry = ImplRegistry::paper_default();
/// let catalog = FormatCatalog::paper_default().dense_only();
/// let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
/// let model = CostModel::analytical();
/// let plan = frontier_dp(&g, &OptContext::new(&ctx, &catalog, &model)).unwrap();
/// let report = simulate_plan(&g, &plan.annotation, &ctx, &model).unwrap();
/// assert!(report.outcome.seconds().unwrap() > 0.0);
/// ```
///
/// # Errors
/// Returns a [`PlanError`] when the annotation is not even type-correct
/// with resource limits lifted (a genuinely malformed plan, as opposed
/// to one that merely crashes).
pub fn simulate_plan(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<SimReport, PlanError> {
    simulate_plan_traced(graph, annotation, ctx, model, &Obs::disabled())
}

/// [`simulate_plan`] with observability: wraps the run in a
/// `simulate_plan` span ([`Subsystem::Simulator`]) and emits one
/// `sim_step` record per vertex carrying the cost breakdown (predicted
/// implementation and transformation seconds, under
/// [`Subsystem::CostModel`] since those numbers *are* the model's
/// predictions), plus a `sim_fail` record at the crash point, if any.
///
/// # Errors
/// Same contract as [`simulate_plan`].
pub fn simulate_plan_traced(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    obs: &Obs,
) -> Result<SimReport, PlanError> {
    let _run = obs.span_with(Subsystem::Simulator, "simulate_plan", || {
        vec![
            ("vertices", graph.len().into()),
            ("workers", (ctx.cluster.workers as i64).into()),
        ]
    });
    let real = ctx.cluster;
    // Features are computed with limits lifted; the limits are then
    // enforced here so we can report *where* the plan dies.
    let unlimited = PlanContext {
        registry: ctx.registry,
        transforms: ctx.transforms,
        cluster: real.with_unlimited_resources(),
    };
    let breakdown = matopt_core::plan_features(graph, annotation, &unlimited)?;

    let mut steps = Vec::new();
    let mut total = 0.0;
    // Spilled intermediates accumulate on worker scratch space across
    // the plan (SimSQL materializes between jobs); model that as a
    // cluster-wide pool.
    let mut spilled_bytes = 0.0f64;
    for (id, node) in graph.iter() {
        let NodeKind::Compute { op } = &node.kind else {
            continue;
        };
        let choice = annotation.choice(id).expect("validated");
        // Re-evaluate to recover the per-worker memory need.
        let mut transformed = Vec::new();
        for (input, t) in node.inputs.iter().zip(choice.input_transforms.iter()) {
            transformed.push((graph.node(*input).mtype, t.to));
        }
        let impl_def = ctx.registry.get(choice.impl_id);
        let eval = impl_def
            .evaluate(op, &transformed, &unlimited.cluster)
            .expect("validated against unlimited cluster");

        let mut transform_seconds = 0.0;
        for (t, f) in choice
            .input_transforms
            .iter()
            .zip(breakdown.transform_features[id.index()].iter())
        {
            transform_seconds += model.transform_time(t.kind, f, &real);
        }
        let impl_seconds = model.impl_time(op.kind(), &eval.features, &real);
        // The per-step breakdown is the cost model speaking: export it
        // under its subsystem so predicted-vs-observed joins are easy.
        obs.record(Subsystem::CostModel, "sim_step", || {
            vec![
                ("vertex", id.index().into()),
                ("op", format!("{op:?}").into()),
                ("impl_seconds", impl_seconds.into()),
                ("transform_seconds", transform_seconds.into()),
                ("mem_per_worker", eval.mem_per_worker.into()),
            ]
        });

        if eval.mem_per_worker > real.worker_ram_bytes {
            obs.record(Subsystem::Simulator, "sim_fail", || {
                vec![
                    ("vertex", id.index().into()),
                    ("reason", "out_of_memory".into()),
                ]
            });
            steps.push(SimStep {
                vertex: id,
                impl_seconds,
                transform_seconds,
            });
            return Ok(SimReport {
                outcome: SimOutcome::Failed {
                    vertex: id,
                    reason: FailReason::OutOfMemory,
                },
                steps,
            });
        }
        // Scratch pressure comes from *shuffle partials*, not from the
        // operator's own output (which is accounted as a normal
        // materialized relation): charge the excess of intermediate
        // bytes over the output size.
        let out_bytes = choice.output_format.total_bytes(&node.mtype);
        let op_spill = (eval.features.inter_bytes - out_bytes).max(0.0);
        if real.reclaim_scratch {
            // In-memory engines release scratch per operator: only the
            // largest single operator's footprint matters.
            spilled_bytes = spilled_bytes.max(op_spill);
        } else {
            spilled_bytes += op_spill;
        }
        if spilled_bytes / real.workers as f64 > real.worker_disk_bytes {
            obs.record(Subsystem::Simulator, "sim_fail", || {
                vec![
                    ("vertex", id.index().into()),
                    ("reason", "out_of_disk".into()),
                ]
            });
            steps.push(SimStep {
                vertex: id,
                impl_seconds,
                transform_seconds,
            });
            return Ok(SimReport {
                outcome: SimOutcome::Failed {
                    vertex: id,
                    reason: FailReason::OutOfDisk,
                },
                steps,
            });
        }

        total += impl_seconds + transform_seconds;
        steps.push(SimStep {
            vertex: id,
            impl_seconds,
            transform_seconds,
        });
    }
    obs.gauge(Subsystem::Simulator, "estimated_seconds", total);
    Ok(SimReport {
        outcome: SimOutcome::Finished { seconds: total },
        steps,
    })
}

/// The expected-runtime simulation under a cluster failure model.
#[derive(Debug, Clone)]
pub struct RecoverySimReport {
    /// The recovery policy the expectation was computed for.
    pub policy: RecoveryPolicy,
    /// The fault-free simulation this builds on.
    pub base: SimReport,
    /// Expected outcome: [`SimOutcome::Finished`] carrying the expected
    /// seconds *including recovery*, or the base run's failure
    /// unchanged (resource crashes are terminal in the simulator).
    pub outcome: SimOutcome,
    /// Expected seconds lost to stragglers and crash recovery (the
    /// expected total minus the fault-free total).
    pub expected_overhead_seconds: f64,
}

/// Simulates an annotated plan and returns its *expected* runtime under
/// the cluster's failure model ([`matopt_core::Cluster`] crash and
/// straggler rates) and `policy`.
///
/// Per compute vertex with fault-free time `t`: stragglers inflate it
/// to `t' = t × straggler_inflation`, and a crash during the vertex has
/// probability `p = crash_probability(t')` (Poisson over the whole
/// cluster). The policies then differ by what a crash costs:
///
/// * **restart** — the whole prefix is lost: `Tᵢ = (Tᵢ₋₁ + t'ᵢ)/(1−pᵢ)`;
/// * **checkpoint** — only the vertex re-runs, plus a per-vertex
///   checkpoint write of the output: `E = t'/(1−p) + write`;
/// * **lineage** — the vertex re-runs plus the expected replay of lost
///   ancestors (a crash loses half of one worker's resident
///   intermediates): `E = t'/(1−p) + p/(1−p) × ½·Σ_anc t'ⱼ / workers`.
///
/// With zero fault rates every policy returns exactly the fault-free
/// estimate, so enabling the machinery changes nothing until rates are
/// configured. This prices a plan that is already chosen: planning
/// itself is fault-free, and nothing re-ranks plans by this
/// expectation.
///
/// # Errors
/// Same contract as [`simulate_plan`].
pub fn simulate_plan_with_recovery(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    policy: RecoveryPolicy,
) -> Result<RecoverySimReport, PlanError> {
    let base = simulate_plan(graph, annotation, ctx, model)?;
    let cluster = ctx.cluster;
    if base.outcome.failed() {
        let outcome = base.outcome;
        return Ok(RecoverySimReport {
            policy,
            base,
            outcome,
            expected_overhead_seconds: 0.0,
        });
    }
    let fault_free: f64 = base
        .steps
        .iter()
        .map(|s| s.impl_seconds + s.transform_seconds)
        .sum();
    let ancestors = graph.ancestor_sets();
    let inflation = cluster.straggler_inflation();
    // Straggler-inflated per-vertex times, indexed by graph position
    // (zero for sources).
    let mut inflated = vec![0.0f64; graph.len()];
    for s in &base.steps {
        inflated[s.vertex.index()] = (s.impl_seconds + s.transform_seconds) * inflation;
    }
    let workers = cluster.workers as f64;
    let mut expected = 0.0f64;
    for s in &base.steps {
        let t = inflated[s.vertex.index()];
        let p = cluster.crash_probability(t).min(1.0 - 1e-12);
        let survival = 1.0 - p;
        expected = match policy {
            // Every crash at this vertex restarts the whole plan: the
            // prefix expectation and this vertex must both survive.
            RecoveryPolicy::Restart => (expected + t) / survival,
            RecoveryPolicy::Checkpoint => {
                // Checkpoints are only written under a live failure
                // model, so zero rates cost zero.
                let write = if cluster.has_fault_model() {
                    let out_bytes = annotation
                        .choice(s.vertex)
                        .map(|c| c.output_format.total_bytes(&graph.node(s.vertex).mtype))
                        .unwrap_or(0.0);
                    out_bytes / (cluster.inter_bytes_per_sec * workers).max(1.0)
                } else {
                    0.0
                };
                expected + t / survival + write
            }
            RecoveryPolicy::Lineage => {
                let anc = &ancestors[s.vertex.index()];
                let replay: f64 = (0..graph.len())
                    .filter(|j| anc.contains(*j))
                    .map(|j| inflated[j])
                    .sum::<f64>()
                    * 0.5
                    / workers.max(1.0);
                expected + t / survival + (p / survival) * replay
            }
        };
    }
    let outcome = SimOutcome::Finished { seconds: expected };
    Ok(RecoverySimReport {
        policy,
        base,
        outcome,
        expected_overhead_seconds: (expected - fault_free).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_formatting_matches_paper_tables() {
        assert_eq!(format_hms(59.0), "00:59");
        assert_eq!(format_hms(75.0), "01:15");
        assert_eq!(format_hms(3600.0 + 25.0 * 60.0 + 34.0), "1:25:34");
        assert_eq!(format_hms(0.4), "00:00");
    }
}
