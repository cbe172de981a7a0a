//! Plan explanation: a human-readable account of an annotated compute
//! graph — which implementation runs at each vertex, which
//! transformations move data on each edge, what each step is estimated
//! to cost, and where the resources go.
//!
//! This is the library form of a query plan's `EXPLAIN`: the
//! `explain`-style binaries in `matopt-bench` are thin wrappers over
//! [`explain_plan`].

use crate::exec::{execute_plan_with, ExecOptions, ExecOutcome, HedgeMark};
use crate::faults::FaultInjector;
use crate::impl_exec::ExecError;
use crate::recovery::{execute_fault_tolerant, FtConfig, FtOutcome, InjectedFault};
use crate::sim::{simulate_plan, SimOutcome};
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, NodeId, NodeKind, PhysFormat, PlanContext, PlanError,
    Transform, TransformKind,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use std::collections::HashMap;

/// One explained step: a compute vertex with its choices and costs.
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// The vertex.
    pub vertex: NodeId,
    /// Human-readable vertex label (`name` or the id).
    pub label: String,
    /// The atomic computation, e.g. `MatMul`.
    pub op: String,
    /// The chosen implementation's registry name.
    pub impl_name: &'static str,
    /// Transformation applied on each in-edge.
    pub transforms: Vec<Transform>,
    /// The output physical implementation.
    pub output_format: PhysFormat,
    /// Estimated seconds for the implementation.
    pub impl_seconds: f64,
    /// Estimated seconds for the edge transformations.
    pub transform_seconds: f64,
    /// Shapes of the inputs, for display.
    pub input_shapes: Vec<String>,
}

/// A full plan explanation.
#[derive(Debug, Clone)]
pub struct PlanExplanation {
    /// Overall outcome (estimated total or the failure).
    pub outcome: SimOutcome,
    /// Steps in topological order (up to the failure point).
    pub steps: Vec<ExplainStep>,
}

impl PlanExplanation {
    /// The steps sorted by descending total cost — "where does the time
    /// go".
    pub fn hotspots(&self) -> Vec<&ExplainStep> {
        let mut v: Vec<&ExplainStep> = self.steps.iter().collect();
        v.sort_by(|a, b| {
            (b.impl_seconds + b.transform_seconds)
                .total_cmp(&(a.impl_seconds + a.transform_seconds))
        });
        v
    }

    /// Count of non-identity transformations in the plan.
    pub fn transform_count(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.transforms.iter())
            .filter(|t| t.kind != TransformKind::Identity)
            .count()
    }
}

impl std::fmt::Display for PlanExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan outcome: {}", self.outcome)?;
        for s in &self.steps {
            writeln!(
                f,
                "  {:>5} {:<22} {:<28} -> {:<14} impl {:>9.2}s  trans {:>8.2}s  [{}]",
                s.vertex.to_string(),
                s.label,
                s.impl_name,
                s.output_format.to_string(),
                s.impl_seconds,
                s.transform_seconds,
                s.input_shapes.join(" x "),
            )?;
            for t in &s.transforms {
                if t.kind != TransformKind::Identity {
                    writeln!(f, "        edge: {t}")?;
                }
            }
        }
        Ok(())
    }
}

/// Explains an annotated plan: simulates it on the context's cluster
/// and pairs each step with its choices.
///
/// # Errors
/// Returns a [`PlanError`] when the annotation is not type-correct.
pub fn explain_plan(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<PlanExplanation, PlanError> {
    let report = simulate_plan(graph, annotation, ctx, model)?;
    let mut steps = Vec::new();
    for step in &report.steps {
        let node = graph.node(step.vertex);
        let NodeKind::Compute { op } = &node.kind else {
            continue;
        };
        let choice = annotation.choice(step.vertex).expect("validated");
        steps.push(ExplainStep {
            vertex: step.vertex,
            label: node.name.clone().unwrap_or_else(|| step.vertex.to_string()),
            op: format!("{op:?}"),
            impl_name: ctx.registry.get(choice.impl_id).name,
            transforms: choice.input_transforms.clone(),
            output_format: choice.output_format,
            impl_seconds: step.impl_seconds,
            transform_seconds: step.transform_seconds,
            input_shapes: node
                .inputs
                .iter()
                .map(|i| graph.node(*i).mtype.to_string())
                .collect(),
        });
    }
    Ok(PlanExplanation {
        outcome: report.outcome,
        steps,
    })
}

/// One `EXPLAIN ANALYZE` row: the estimated step joined with what the
/// real executor measured for the same vertex.
#[derive(Debug, Clone)]
pub struct AnalyzedStep {
    /// The estimate side (implementation, transforms, predicted
    /// seconds).
    pub estimate: ExplainStep,
    /// Measured wall seconds of the implementation.
    pub actual_impl_seconds: f64,
    /// Measured wall seconds of the in-edge transformations.
    pub actual_transform_seconds: f64,
    /// Retries spent at this vertex under fault injection (0 on the
    /// fault-free path).
    pub retries: u32,
    /// Crash recoveries that replayed this vertex.
    pub recoveries: u32,
    /// Seconds spent on backoff, straggling, and replay at this vertex.
    pub recovery_seconds: f64,
}

impl AnalyzedStep {
    /// Total estimated seconds for this step.
    pub fn estimated_total(&self) -> f64 {
        self.estimate.impl_seconds + self.estimate.transform_seconds
    }

    /// Total measured seconds for this step.
    pub fn actual_total(&self) -> f64 {
        self.actual_impl_seconds + self.actual_transform_seconds
    }

    /// Estimate / actual, with the denominator clamped away from zero
    /// so instantaneous steps yield a large finite ratio instead of
    /// infinity. A ratio near the cluster-to-laptop speed gap is
    /// expected when estimating at paper scale; on a matched cluster
    /// model it approaches 1.
    pub fn ratio(&self) -> f64 {
        self.estimated_total() / self.actual_total().max(1e-9)
    }
}

/// The result of `EXPLAIN ANALYZE`: estimates joined with measurements
/// from a real [`execute_plan`](crate::execute_plan) run.
#[derive(Debug)]
pub struct PlanAnalysis {
    /// The simulated outcome (estimate side).
    pub outcome: SimOutcome,
    /// Per-vertex estimate/measurement rows, topological order.
    pub steps: Vec<AnalyzedStep>,
    /// Total measured wall seconds of the real run.
    pub measured_total_seconds: f64,
    /// Faults that fired during the run (empty on the fault-free path).
    pub faults: Vec<InjectedFault>,
    /// Total retries across the run.
    pub total_retries: u32,
    /// Total crash recoveries across the run.
    pub total_recoveries: u32,
    /// Total seconds spent recovering.
    pub total_recovery_seconds: f64,
    /// The executor outcome, so callers can inspect the sink values.
    pub exec: ExecOutcome,
}

impl std::fmt::Display for PlanAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EXPLAIN ANALYZE  (estimated: {}, measured: {:.3}s, parallelism: {}, \
             max-concurrency: {}, peak-resident-bytes: {})",
            self.outcome,
            self.measured_total_seconds,
            self.exec.parallelism,
            self.exec.max_concurrency,
            self.exec.peak_resident_bytes,
        )?;
        let gov = &self.exec.governor;
        if gov.spills > 0 || gov.reloads > 0 || gov.admission_waits > 0 || gov.hedges_launched > 0 {
            writeln!(
                f,
                "  governor: spilled {} buffers ({} B), reloaded {} ({} B), \
                 admission-waits {}, hedges launched {}, won {}",
                gov.spills,
                gov.spilled_bytes,
                gov.reloads,
                gov.reloaded_bytes,
                gov.admission_waits,
                gov.hedges_launched,
                gov.hedges_won,
            )?;
        }
        let pool = &self.exec.pool;
        if pool.tasks > 0 {
            let capacity = self.measured_total_seconds * self.exec.parallelism as f64;
            let util = if capacity > 0.0 {
                100.0 * pool.busy_seconds() / capacity
            } else {
                0.0
            };
            writeln!(
                f,
                "  pool: {} workers, {} tasks ({} steals), busy {:.3}s, utilization {:.1}%",
                self.exec.parallelism,
                pool.tasks,
                pool.steals,
                pool.busy_seconds(),
                util,
            )?;
        }
        writeln!(
            f,
            "  {:>5} {:<22} {:<28} {:>12} {:>12} {:>10} {:>7} {:>12} {:>8} {:>6} {:>10} {:>7} {:>6}",
            "vertex",
            "label",
            "impl",
            "est (s)",
            "actual (s)",
            "est/act",
            "chunks",
            "res (B)",
            "retries",
            "recov",
            "rec (s)",
            "spills",
            "hedge"
        )?;
        for s in &self.steps {
            let v = s.estimate.vertex.index();
            let hedge = match gov.vertex_hedges.get(v).copied().unwrap_or_default() {
                HedgeMark::None => "-",
                HedgeMark::Launched => "dup",
                HedgeMark::Won => "won",
            };
            writeln!(
                f,
                "  {:>5} {:<22} {:<28} {:>12.4} {:>12.4} {:>10.2} {:>7} {:>12} {:>8} {:>6} {:>10.4} {:>7} {:>6}",
                s.estimate.vertex.to_string(),
                s.estimate.label,
                s.estimate.impl_name,
                s.estimated_total(),
                s.actual_total(),
                s.ratio(),
                self.exec.vertex_chunks.get(v).copied().unwrap_or(0),
                self.exec.vertex_resident_bytes.get(v).copied().unwrap_or(0),
                s.retries,
                s.recoveries,
                s.recovery_seconds,
                gov.vertex_spills.get(v).copied().unwrap_or(0),
                hedge,
            )?;
            for t in &s.estimate.transforms {
                if t.kind != TransformKind::Identity {
                    writeln!(f, "        edge: {t}")?;
                }
            }
        }
        if !self.faults.is_empty() {
            writeln!(
                f,
                "injected faults ({} fired, {} retries, {} recoveries, {:.4}s recovering):",
                self.faults.len(),
                self.total_retries,
                self.total_recoveries,
                self.total_recovery_seconds,
            )?;
            for fault in &self.faults {
                writeln!(
                    f,
                    "    step {:>3} @ vertex {:>3}: {}",
                    fault.step,
                    fault.vertex.to_string(),
                    fault.kind
                )?;
            }
        }
        Ok(())
    }
}

/// `EXPLAIN ANALYZE`: explains the plan under the cost model, then
/// actually runs it with [`execute_plan_with`] on `inputs` and joins
/// each estimated step with the measured per-vertex seconds. Memory
/// budgets, spill-to-disk and hedged straggler re-execution in
/// `options` all apply, and the analysis carries the governor's
/// counters plus per-vertex spill and hedge columns in the rendered
/// table.
///
/// The estimate side is computed against `ctx`'s cluster; for
/// meaningful ratios pass a cluster model matching the machine the run
/// happens on. Each joined row is also emitted as a
/// [`Subsystem::CostModel`] `residual` record on `obs` (predicted vs
/// observed seconds per vertex).
///
/// # Errors
/// [`ExecError`] when the annotation is malformed (plan errors are
/// reported through the same type) or the execution fails — including
/// [`ExecError::MemBudgetInfeasible`] when one vertex cannot fit the
/// budget even with everything else spilled.
pub fn explain_analyze(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    options: ExecOptions,
    obs: &Obs,
) -> Result<PlanAnalysis, ExecError> {
    let explanation = explain_plan(graph, annotation, ctx, model)
        .map_err(|e| ExecError::Internal(format!("plan error: {e}")))?;
    let exec = execute_plan_with(graph, annotation, inputs, ctx.registry, obs, options)?;
    let run = FtOutcome::fault_free(exec, graph.len());
    Ok(join_analysis(explanation, run, obs))
}

/// Joins the estimate side with the measured side and the run's
/// recovery stats, emitting one `residual` record per row.
fn join_analysis(explanation: PlanExplanation, run: FtOutcome, obs: &Obs) -> PlanAnalysis {
    let exec = run.exec;
    let mut steps = Vec::new();
    for est in explanation.steps {
        let v = est.vertex;
        let pv = run.per_vertex[v.index()];
        let step = AnalyzedStep {
            estimate: est,
            actual_impl_seconds: exec.vertex_seconds[v.index()],
            actual_transform_seconds: exec.transform_seconds[v.index()].iter().sum(),
            retries: pv.retries,
            recoveries: pv.recoveries,
            recovery_seconds: pv.recovery_seconds,
        };
        obs.record(Subsystem::CostModel, "residual", || {
            vec![
                ("vertex", v.index().into()),
                ("impl", step.estimate.impl_name.into()),
                ("predicted_seconds", step.estimated_total().into()),
                ("observed_seconds", step.actual_total().into()),
                ("ratio", step.ratio().into()),
            ]
        });
        steps.push(step);
    }
    PlanAnalysis {
        outcome: explanation.outcome,
        steps,
        measured_total_seconds: exec.total_seconds,
        faults: run.faults,
        total_retries: run.retries,
        total_recoveries: run.recoveries,
        total_recovery_seconds: run.recovery_seconds,
        exec,
    }
}

/// `EXPLAIN ANALYZE` under fault injection: like [`explain_analyze`],
/// but the run goes through
/// [`execute_fault_tolerant`] with `injector`'s
/// schedule, and the analysis rows carry each vertex's retries,
/// recoveries, and recovery seconds, with the fired faults summarized
/// below the table.
///
/// The estimate side describes the *original* plan; if degradation
/// re-planned the suffix, the measured side reflects the re-planned
/// implementations (the `replans` count is in the obs stream).
///
/// # Errors
/// Same contract as [`explain_analyze`], plus
/// [`ExecError::RetryBudgetExhausted`] when the schedule outruns the
/// budget.
#[allow(clippy::too_many_arguments)]
pub fn explain_analyze_with_faults(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    injector: FaultInjector,
    config: &FtConfig,
    options: ExecOptions,
    obs: &Obs,
) -> Result<PlanAnalysis, ExecError> {
    let explanation = explain_plan(graph, annotation, ctx, model)
        .map_err(|e| ExecError::Internal(format!("plan error: {e}")))?;
    let run = execute_fault_tolerant(
        graph, annotation, inputs, ctx, catalog, model, injector, config, options, obs,
    )?;
    Ok(join_analysis(explanation, run, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{
        Cluster, ComputeGraph, ImplRegistry, MatrixType, Op, PhysFormat, VertexChoice,
    };
    use matopt_cost::CostModel;

    #[test]
    fn explanation_lists_steps_and_hotspots() {
        let reg = ImplRegistry::paper_default();
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
        let b = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
        let c = g.add_op_named(Op::MatMul, &[a, b], Some("prod")).unwrap();
        let _r = g.add_op(Op::Relu, &[c]).unwrap();
        let mut ann = Annotation::empty(&g);
        ann.set(
            c,
            VertexChoice {
                impl_id: reg.by_name("mm_single_local").unwrap().id,
                input_transforms: vec![
                    Transform::identity(PhysFormat::SingleTuple),
                    Transform::identity(PhysFormat::SingleTuple),
                ],
                output_format: PhysFormat::SingleTuple,
            },
        );
        ann.set(
            matopt_core::NodeId(3),
            VertexChoice {
                impl_id: reg.by_name("relu_map").unwrap().id,
                input_transforms: vec![Transform::identity(PhysFormat::SingleTuple)],
                output_format: PhysFormat::SingleTuple,
            },
        );
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
        let model = CostModel::analytical();
        let ex = explain_plan(&g, &ann, &ctx, &model).unwrap();
        assert_eq!(ex.steps.len(), 2);
        assert_eq!(ex.steps[0].label, "prod");
        assert_eq!(ex.steps[0].impl_name, "mm_single_local");
        // The matmul dominates; hotspots put it first.
        assert_eq!(ex.hotspots()[0].impl_name, "mm_single_local");
        assert_eq!(ex.transform_count(), 0);
        let text = ex.to_string();
        assert!(text.contains("mm_single_local"));
        assert!(text.contains("plan outcome"));
    }
}
