//! The concrete baseline personas of §8.2: the hand-written plans
//! "derived from the code used for the FFNN experiments for a published
//! paper \[23\]", the all-tile heuristic, and the three recruited experts
//! of Experiment 4 (Figure 8).

use crate::greedy::{
    greedy_plan, shuffle_only_strategies, systemds_catalog, tile_only_catalog, GreedyConfig,
};
use matopt_core::{Annotation, ComputeGraph, FormatCatalog, PhysFormat, PlanContext};
use matopt_cost::CostModel;
use matopt_opt::OptError;

/// The all-tile heuristic: "simply tile everything with 1K × 1K
/// matrices". Plans without memory checks (it happily builds plans
/// whose intermediate data later crashes the run, as in Figures 6–7).
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when even tiles cannot express a
/// vertex.
pub fn all_tile_plan(
    graph: &ComputeGraph,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<Annotation, OptError> {
    greedy_plan(
        graph,
        ctx,
        model,
        &GreedyConfig {
            catalog: tile_only_catalog(),
            count_transform_cost: false,
            respect_memory: false,
            forbidden: shuffle_only_strategies(),
            // Prefer tiles; fall back to single-tuple only when a
            // matrix cannot be tiled at all (e.g. tiny bias vectors).
            format_preference: Some(vec![
                PhysFormat::Tile { side: 1000 },
                PhysFormat::SingleTuple,
            ]),
        },
    )
}

/// The hand-written expert plan: a competent programmer choosing the
/// locally-cheapest implementation per operation — broadcast-aware, but
/// with no global view of downstream transformation costs and no
/// memory model of the target cluster. The paper's hand-written FFNN
/// code (derived from \[23\]) behaves exactly like this: excellent at 10
/// workers, dead at 5 (Figure 7).
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when the graph cannot be planned.
pub fn hand_written_plan(
    graph: &ComputeGraph,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<Annotation, OptError> {
    greedy_plan(
        graph,
        ctx,
        model,
        &GreedyConfig {
            catalog: FormatCatalog::paper_default().dense_only(),
            count_transform_cost: false,
            respect_memory: false,
            forbidden: shuffle_only_strategies(),
            format_preference: None,
        },
    )
}

/// Distributed-ML expertise of a recruited programmer (Experiment 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expertise {
    /// "works in ML applications": plans naively — single tuples and
    /// simple strips, no cost awareness; first attempt crashes.
    Low,
    /// "works in federated learning": cost-aware but only for the
    /// operation at hand; avoids broadcast joins; first attempt
    /// crashes.
    Medium,
    /// "works in high-performance distributed ML": locally optimal,
    /// broadcast-aware and memory-aware — nearly matches the
    /// auto-generated plan.
    High,
}

/// An expert's submission: the plan that ultimately ran, plus whether
/// the first attempt had to be re-designed after crashing (the `*`
/// annotations of Figure 8).
#[derive(Debug, Clone)]
pub struct ExpertPlan {
    /// The final, runnable annotation.
    pub annotation: Annotation,
    /// `true` when the expert's first labeling produced a plan that
    /// failed and had to be revised.
    pub first_attempt_failed: bool,
}

/// Produces the plan a recruited expert of the given level submits
/// (Experiment 4, Figure 8).
///
/// Low/medium personas first plan without memory awareness; when that
/// plan is infeasible on the actual cluster, they "update the labeling"
/// — re-plan with memory checks — and the failure is reported.
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when even the revised plan is
/// impossible.
pub fn expert_plan(
    graph: &ComputeGraph,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    level: Expertise,
) -> Result<ExpertPlan, OptError> {
    let cfg = |respect_memory: bool| match level {
        Expertise::Low => GreedyConfig {
            catalog: FormatCatalog::new(vec![
                PhysFormat::SingleTuple,
                PhysFormat::RowStrip { height: 1000 },
                PhysFormat::Tile { side: 1000 },
            ]),
            count_transform_cost: false,
            respect_memory,
            forbidden: shuffle_only_strategies(),
            format_preference: Some(vec![
                PhysFormat::SingleTuple,
                PhysFormat::RowStrip { height: 1000 },
                PhysFormat::Tile { side: 1000 },
            ]),
        },
        Expertise::Medium => GreedyConfig {
            catalog: FormatCatalog::paper_default().dense_only(),
            count_transform_cost: false,
            respect_memory,
            forbidden: shuffle_only_strategies(),
            format_preference: None,
        },
        Expertise::High => GreedyConfig {
            catalog: FormatCatalog::paper_default().dense_only(),
            count_transform_cost: true,
            respect_memory,
            forbidden: Vec::new(),
            format_preference: None,
        },
    };

    if level == Expertise::High {
        let annotation = greedy_plan(graph, ctx, model, &cfg(true))?;
        return Ok(ExpertPlan {
            annotation,
            first_attempt_failed: false,
        });
    }
    // Lower expertise: the first labeling ignores memory limits. If it
    // is infeasible on the real cluster, the expert revises it.
    let first = greedy_plan(graph, ctx, model, &cfg(false))?;
    let feasible = matopt_core::validate(graph, &first, ctx).is_ok();
    if feasible {
        Ok(ExpertPlan {
            annotation: first,
            first_attempt_failed: false,
        })
    } else {
        let revised = greedy_plan(graph, ctx, model, &cfg(true))?;
        Ok(ExpertPlan {
            annotation: revised,
            first_attempt_failed: true,
        })
    }
}

/// The SystemDS-like planner (§9): independent per-operator choice over
/// SystemDS's layouts (1000-blocks, single-tuple, triples, CSR blocks),
/// sparsity-aware, but with *no* transformation-cost integration and no
/// global layout optimization.
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when the graph cannot be planned.
pub fn systemds_plan(
    graph: &ComputeGraph,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<Annotation, OptError> {
    greedy_plan(
        graph,
        ctx,
        model,
        &GreedyConfig {
            catalog: systemds_catalog(),
            count_transform_cost: false,
            respect_memory: true,
            forbidden: Vec::new(),
            format_preference: None,
        },
    )
}
