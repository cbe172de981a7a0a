//! Shared machinery for the three optimizers: candidate-format
//! enumeration, per-vertex implementation options, and transformation
//! costing.

use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplId, MatrixType, NodeId, NodeKind, PhysFormat,
    PlanContext, Transform,
};
use matopt_cost::CostModel;
use matopt_obs::Obs;

/// Why optimization failed.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The graph is not tree-shaped but a tree-only algorithm was asked.
    NotTreeShaped,
    /// No type-correct annotation exists for a vertex on this cluster
    /// (e.g. every implementation is memory-infeasible).
    NoFeasiblePlan(NodeId),
    /// The optimizer exceeded its time budget (used to reproduce the
    /// "Fail" rows of Figure 13 for the brute-force algorithm).
    Timeout,
    /// The graph needs more of something than the frontier DP's compact
    /// indices can address: more than `limit` `what`.
    TooLarge {
        /// What ran out (e.g. "distinct physical formats").
        what: &'static str,
        /// How many of them the DP can index.
        limit: u64,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::NotTreeShaped => write!(f, "graph is not tree-shaped"),
            OptError::NoFeasiblePlan(v) => write!(f, "no feasible plan for vertex {v}"),
            OptError::Timeout => write!(f, "optimization time budget exceeded"),
            OptError::TooLarge { what, limit } => {
                write!(f, "graph exceeds the frontier DP's limit of {limit} {what}")
            }
        }
    }
}

impl std::error::Error for OptError {}

/// The result of optimization: the annotation and its estimated cost.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen type-correct annotation `G*`.
    pub annotation: matopt_core::Annotation,
    /// Its total estimated cost (seconds under the cost model).
    pub cost: f64,
    /// Joint-table entries dropped by the beam cap, summed over every
    /// vertex step. Zero means the search was exact: brute force and
    /// tree DP always report 0, and [`crate::frontier_dp_beam`] reports
    /// 0 whenever no table exceeded the cap.
    pub beam_truncated: usize,
    /// True when the optimizer's wall-clock budget expired mid-search:
    /// the annotation is the best *complete* plan found before the
    /// deadline, not a proven optimum. Always false for the DP
    /// algorithms (they have no budget).
    pub timed_out: bool,
    /// Wall-clock seconds the search itself took. Plan caches weight
    /// entries by the optimizer time a hit saves, so every algorithm
    /// measures and reports its own cost of planning.
    pub opt_seconds: f64,
}

impl Optimized {
    /// `"exact"` when the search ran to completion without truncation,
    /// `"beamed"` when the beam cap dropped states, `"budget-exceeded"`
    /// when the time budget cut the search short — the label experiment
    /// harnesses report next to plan costs.
    pub fn exactness(&self) -> &'static str {
        if self.timed_out {
            "budget-exceeded"
        } else if self.beam_truncated == 0 {
            "exact"
        } else {
            "beamed"
        }
    }
}

/// One way to run a compute vertex: an implementation together with the
/// physical formats it wants on each in-edge (after transformation),
/// the output format that results, and the implementation's own cost.
///
/// Options are independent of where the inputs *come from* — the
/// transformation costs from the producers' formats to `pin` are added
/// by each algorithm separately.
#[derive(Debug, Clone)]
pub struct VertexOption {
    /// The implementation.
    pub impl_id: ImplId,
    /// Required (post-transformation) input format per in-edge.
    pub pin: Vec<PhysFormat>,
    /// Resulting output format `i.f(...)`.
    pub out_format: PhysFormat,
    /// Cost of executing the implementation itself.
    pub impl_cost: f64,
}

/// Enumerates every `(implementation, input-format combination)` a
/// compute vertex accepts.
///
/// `extra_in_formats[j]` extends the candidate set for input `j` beyond
/// the catalog — used to offer the formats the producer is actually able
/// to emit (implementation outputs are not always catalog members, e.g.
/// a reduction over 2500-tiles emits 2500-strips).
pub fn vertex_options(
    graph: &ComputeGraph,
    v: NodeId,
    catalog: &FormatCatalog,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    extra_in_formats: &[Vec<PhysFormat>],
) -> Vec<VertexOption> {
    let node = graph.node(v);
    let NodeKind::Compute { op } = &node.kind else {
        return Vec::new();
    };
    let in_types: Vec<MatrixType> = node.inputs.iter().map(|i| graph.node(*i).mtype).collect();
    // Candidate format domain per input.
    let mut domains: Vec<Vec<PhysFormat>> = Vec::with_capacity(in_types.len());
    for (j, mt) in in_types.iter().enumerate() {
        let mut d = catalog.candidates(mt, &ctx.cluster);
        if let Some(extra) = extra_in_formats.get(j) {
            for f in extra {
                if !d.contains(f) {
                    d.push(*f);
                }
            }
        }
        domains.push(d);
    }

    let mut options = Vec::new();
    if domains.iter().any(|d| d.is_empty()) {
        return options;
    }
    // The output type depends on the input types only.
    let Ok(out_type) = op.output_type(&in_types) else {
        return options;
    };
    // The current combination, advanced in place; an option copies its
    // formats out only when some implementation accepts them.
    let mut combo = vec![0usize; domains.len()];
    let mut inputs: Vec<(MatrixType, PhysFormat)> = in_types
        .iter()
        .zip(&domains)
        .map(|(mt, d)| (*mt, d[0]))
        .collect();
    'outer: loop {
        for impl_def in ctx.registry.impls_for(op.kind()) {
            if let Some(eval) = impl_def.evaluate_typed(op, &inputs, &out_type, &ctx.cluster) {
                let impl_cost = model.impl_time(op.kind(), &eval.features, &ctx.cluster);
                options.push(VertexOption {
                    impl_id: impl_def.id,
                    pin: inputs.iter().map(|(_, f)| *f).collect(),
                    out_format: eval.out_format,
                    impl_cost,
                });
            }
        }
        // Advance the mixed-radix counter.
        for d in 0..domains.len() {
            combo[d] += 1;
            if combo[d] < domains[d].len() {
                inputs[d].1 = domains[d][combo[d]];
                continue 'outer;
            }
            combo[d] = 0;
            inputs[d].1 = domains[d][0];
        }
        break;
    }
    options
}

/// Cost of moving a matrix of type `m` from `from` to `to` under the
/// model, with the transformation that does it; `None` when no single
/// transformation applies.
pub fn transform_cost(
    m: &MatrixType,
    from: PhysFormat,
    to: PhysFormat,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Option<(Transform, f64)> {
    let t = ctx.transforms.find(m, from, to)?;
    let features = ctx.transforms.features(m, from, t, &ctx.cluster);
    Some((t, model.transform_time(t.kind, &features, &ctx.cluster)))
}

/// All output formats a vertex can possibly produce — the union of the
/// `out_format`s of its options. Used to seed downstream vertices'
/// `extra_in_formats`.
pub fn producible_formats(options: &[VertexOption]) -> Vec<PhysFormat> {
    let mut v: Vec<PhysFormat> = Vec::new();
    for o in options {
        if !v.contains(&o.out_format) {
            v.push(o.out_format);
        }
    }
    v
}

/// Convenience bundle the optimizers take.
pub struct OptContext<'a> {
    /// Registry + transforms + cluster.
    pub plan: &'a PlanContext<'a>,
    /// Formats to search over.
    pub catalog: &'a FormatCatalog,
    /// Model turning features into seconds.
    pub model: &'a CostModel,
    /// Event pipeline; disabled by default ([`OptContext::new`]), so
    /// instrumentation costs one pointer check per call site.
    pub obs: Obs,
}

impl<'a> OptContext<'a> {
    /// Builds an optimizer context with observability disabled.
    pub fn new(
        plan: &'a PlanContext<'a>,
        catalog: &'a FormatCatalog,
        model: &'a CostModel,
    ) -> Self {
        OptContext {
            plan,
            catalog,
            model,
            obs: Obs::disabled(),
        }
    }

    /// Builds an optimizer context that emits events to `obs`.
    pub fn with_obs(
        plan: &'a PlanContext<'a>,
        catalog: &'a FormatCatalog,
        model: &'a CostModel,
        obs: Obs,
    ) -> Self {
        OptContext {
            plan,
            catalog,
            model,
            obs,
        }
    }

    /// The target cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.plan.cluster
    }
}
