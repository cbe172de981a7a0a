//! Greedy per-vertex planners: the family of "choose locally, never
//! globally" strategies that the paper's baselines — hand-written
//! plans, the all-tile heuristic, the recruited experts (Experiment 4),
//! and SystemDS-style per-operator optimization (§9) — all instantiate.
//!
//! Unlike the dynamic programs, a greedy planner fixes each vertex's
//! implementation given only the already-fixed formats of its
//! producers. Its knobs control what each baseline persona knows:
//! which formats it considers, whether it accounts for transformation
//! costs, and whether it respects memory limits while planning.

use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, NodeKind, PhysFormat, PlanContext, Strategy,
    VertexChoice,
};
use matopt_cost::CostModel;
use matopt_opt::{transform_cost, vertex_options, OptError};

/// How a greedy persona scores and restricts its per-vertex choices.
pub struct GreedyConfig {
    /// Formats the persona considers for intermediates.
    pub catalog: FormatCatalog,
    /// Whether transformation costs enter the per-vertex score. The key
    /// behavioural difference from the paper's optimizer — SystemDS
    /// "does not integrate the costs of transformations between the
    /// various layouts into the optimization problem" (§9).
    pub count_transform_cost: bool,
    /// Whether the persona checks memory feasibility while planning
    /// (`false` models programmers whose first attempt crashes).
    pub respect_memory: bool,
    /// Implementation strategies the persona refuses to use (e.g. a
    /// programmer who does not know about broadcast joins).
    pub forbidden: Vec<Strategy>,
    /// When set, the persona does not score at all: it walks this
    /// preference list and takes the first feasible option whose output
    /// format matches (naive planning).
    pub format_preference: Option<Vec<PhysFormat>>,
}

/// Builds a greedy plan over `graph`.
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when a vertex has no acceptable option
/// under the persona's restrictions.
pub fn greedy_plan(
    graph: &ComputeGraph,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    cfg: &GreedyConfig,
) -> Result<Annotation, OptError> {
    let plan_cluster = if cfg.respect_memory {
        ctx.cluster
    } else {
        ctx.cluster.with_unlimited_resources()
    };
    let plan_ctx = PlanContext {
        registry: ctx.registry,
        transforms: ctx.transforms,
        cluster: plan_cluster,
    };
    let mut ann = Annotation::empty(graph);
    let mut formats: Vec<Option<PhysFormat>> =
        graph.iter().map(|(_, n)| n.source_format()).collect();
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::Source { .. }) {
            continue;
        }
        let extra: Vec<Vec<PhysFormat>> = node
            .inputs
            .iter()
            .map(|i| formats[i.index()].into_iter().collect())
            .collect();
        let options = vertex_options(graph, id, &cfg.catalog, &plan_ctx, model, &extra);
        // Attach transforms from the fixed producer formats; drop
        // unreachable or forbidden options.
        let mut scored = Vec::new();
        for o in options {
            if cfg
                .forbidden
                .contains(&plan_ctx.registry.get(o.impl_id).strategy)
            {
                continue;
            }
            let mut ts = Vec::with_capacity(node.inputs.len());
            let mut tcost = 0.0;
            let mut ok = true;
            for (j, input) in node.inputs.iter().enumerate() {
                let Some(from) = formats[input.index()] else {
                    ok = false;
                    break;
                };
                let m = graph.node(*input).mtype;
                match transform_cost(&m, from, o.pin[j], &plan_ctx, model) {
                    Some((t, c)) => {
                        ts.push(t);
                        tcost += c;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let score = if cfg.count_transform_cost {
                o.impl_cost + tcost
            } else {
                o.impl_cost
            };
            scored.push((o, ts, score));
        }
        if scored.is_empty() {
            return Err(OptError::NoFeasiblePlan(id));
        }
        let (o, ts, _) = match &cfg.format_preference {
            Some(prefs) => prefs
                .iter()
                .find_map(|p| scored.iter().find(|(o, _, _)| o.out_format == *p))
                .unwrap_or(&scored[0]),
            None => scored
                .iter()
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .expect("non-empty"),
        };
        formats[id.index()] = Some(o.out_format);
        ann.set(
            id,
            VertexChoice {
                impl_id: o.impl_id,
                input_transforms: ts.clone(),
                output_format: o.out_format,
            },
        );
    }
    Ok(ann)
}

/// A catalog restricted to 1000-tiles plus single-tuple fallback — what
/// the all-tile heuristic works with.
pub fn tile_only_catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::Tile { side: 1000 },
        PhysFormat::SingleTuple,
    ])
}

/// The SystemDS-like catalog (§9): "two layouts for dense matrices:
/// block matrix (stored as 1000 × 1000 blocks), and single-tuple
/// matrix", plus its sparse layouts (triples and CSR blocks).
pub fn systemds_catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::Tile { side: 1000 },
        PhysFormat::SingleTuple,
        PhysFormat::Coo,
        PhysFormat::CsrTile { side: 1000 },
        PhysFormat::CsrSingle,
    ])
}

/// `true` for the broadcast-style matmul strategies an expert without
/// distributed-systems depth would not reach for.
pub fn broadcast_strategies() -> Vec<Strategy> {
    vec![
        Strategy::MmBcastSingleColstrip,
        Strategy::MmRowstripBcastSingle,
        Strategy::MmTileBcast,
        Strategy::MmColstripRowstripOuter,
    ]
}

/// The strategies a tile-oriented SQL programmer (the paper's published
/// hand-written FFNN code, expressed as tiled relations with shuffle
/// joins and group-by SUM aggregations) does not use: broadcast joins
/// plus the no-aggregation cross join of the paper's "alternative
/// implementation".
pub fn shuffle_only_strategies() -> Vec<Strategy> {
    let mut v = broadcast_strategies();
    v.push(Strategy::MmRowstripColstripCross);
    v
}
