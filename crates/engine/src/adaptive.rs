//! Adaptive re-optimization — the future-work proposal of §7,
//! implemented: "During execution of the plan, it is easy to compute
//! the sparsity of each intermediate result. If the relative error in
//! estimated sparsity exceeds some value (say 1.2), then execution can
//! be halted, and the remaining plan re-optimized. This is analogous to
//! re-optimization methods used in relational databases to deal with
//! the problem of compounding estimation errors."
//!
//! [`execute_adaptive`] runs an optimized plan vertex by vertex,
//! measuring the true sparsity of every intermediate. When the measured
//! value diverges from the estimate by more than the configured
//! relative error (in Sommer et al.'s ratio sense, where 1.0 is
//! perfect), the remaining computation is re-planned: everything already
//! computed becomes a source with its *measured* type and its current
//! physical format, downstream types are re-inferred from the corrected
//! statistics, and the optimizer runs again on the suffix.

use crate::exec::{compute_vertices, ExecOptions};
use crate::impl_exec::ExecError;
use crate::step::InlineWalk;
use crate::value::{Block, DistRelation};
use matopt_core::{Annotation, ComputeGraph, FormatCatalog, NodeId, PlanContext};
use matopt_cost::CostModel;
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext, OptError};
use std::collections::HashMap;

/// Configuration of the adaptive executor.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Re-optimize when `max(est, meas) / min(est, meas)` exceeds this
    /// (the paper suggests 1.2; 1.0 would re-optimize on any error).
    pub relative_error_threshold: f64,
    /// Beam width for the re-optimization runs.
    pub beam: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            relative_error_threshold: 1.2,
            beam: 2000,
        }
    }
}

/// What the adaptive executor did.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Values at the original graph's sinks.
    pub sinks: HashMap<NodeId, DistRelation>,
    /// How many times the remaining plan was re-optimized.
    pub reoptimizations: usize,
    /// The vertices whose sparsity misestimates triggered each
    /// re-optimization.
    pub triggered_at: Vec<NodeId>,
    /// The *measured* density of every vertex, indexed by vertex id
    /// (sources report their provided relation's density). Callers that
    /// run the same graph repeatedly — the training loop — feed these
    /// back via [`matopt_core::ComputeGraph::with_measured_sparsities`]
    /// so the next optimization plans against observed statistics.
    pub measured: Vec<f64>,
}

/// Errors from adaptive execution.
#[derive(Debug)]
pub enum AdaptiveError {
    /// The executor failed.
    Exec(ExecError),
    /// A re-optimization found no feasible plan.
    Opt(OptError),
}

impl std::fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveError::Exec(e) => write!(f, "execution error: {e}"),
            AdaptiveError::Opt(e) => write!(f, "re-optimization error: {e}"),
        }
    }
}

impl std::error::Error for AdaptiveError {}

impl From<ExecError> for AdaptiveError {
    fn from(e: ExecError) -> Self {
        AdaptiveError::Exec(e)
    }
}

impl DistRelation {
    /// The observed fraction of non-zero entries across all chunks.
    pub fn measured_sparsity(&self) -> f64 {
        let total = self.mtype.entries();
        if total == 0.0 {
            return 0.0;
        }
        let nnz: f64 = self
            .chunks
            .iter()
            .map(|c| match &c.block {
                Block::Dense(d) => d.data().iter().filter(|v| **v != 0.0).count() as f64,
                Block::Csr(s) => s.nnz() as f64,
                Block::Coo(c) => c.nnz() as f64,
            })
            .sum();
        (nnz / total).clamp(0.0, 1.0)
    }
}

/// Sommer-style relative error between an estimated and a measured
/// density (1.0 = perfect).
fn relative_error(est: f64, meas: f64) -> f64 {
    let eps = 1e-12;
    let (a, b) = (est.max(eps), meas.max(eps));
    (a / b).max(b / a)
}

/// Executes `graph` with mid-flight re-optimization on sparsity
/// misestimates.
///
/// The initial plan is produced internally with the same optimizer the
/// re-planning uses, so callers provide only the inputs and the
/// optimization context.
///
/// # Errors
/// [`AdaptiveError`] when execution fails or a re-optimization finds no
/// plan.
pub fn execute_adaptive(
    graph: &ComputeGraph,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    config: AdaptiveConfig,
) -> Result<AdaptiveOutcome, AdaptiveError> {
    let octx = OptContext::new(ctx, catalog, model);
    let plan = frontier_dp_beam(graph, &octx, config.beam)
        .map_err(AdaptiveError::Opt)?
        .annotation;
    let obs = Obs::disabled();
    execute_adaptive_planned(graph, inputs, ctx, catalog, model, config, &plan, &obs)
}

/// [`execute_adaptive`] starting from a *caller-supplied* initial
/// annotation instead of running the optimizer first, with
/// observability.
///
/// This is the entry point for plan reuse across repeated executions of
/// the same graph (the training loop's epoch cache): the first run pays
/// for a full optimization, later ones hand the cached annotation
/// straight to the executor. A drifted run re-plans its suffix and
/// reports it in [`AdaptiveOutcome::reoptimizations`] and
/// [`AdaptiveOutcome::measured`], which the caller folds into the
/// graph's statistics before it plans again.
///
/// The run is the inline walk ([`crate::execute_plan_serial`]'s loop)
/// with the drift rule applied after each vertex; a drift re-plans the
/// suffix before the next vertex runs.
///
/// # Errors
/// [`AdaptiveError`] when execution fails or a re-optimization finds no
/// plan.
#[allow(clippy::too_many_arguments)]
pub fn execute_adaptive_planned(
    graph: &ComputeGraph,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    config: AdaptiveConfig,
    initial_plan: &Annotation,
    obs: &Obs,
) -> Result<AdaptiveOutcome, AdaptiveError> {
    let options = ExecOptions::default();
    let mut walk = InlineWalk::start(
        graph,
        initial_plan,
        inputs,
        ctx.registry,
        obs,
        &options,
        true,
    )?;
    let mut measured = vec![0.0; graph.len()];
    for s in graph.sources() {
        measured[s.index()] = walk.value(s).map_or(0.0, |rel| rel.measured_sparsity());
    }
    let mut triggered_at = Vec::new();
    let last = compute_vertices(graph).last();
    // Where the next vertex's re-plan starts, once a drift is seen.
    let mut replan_from = None;

    walk.drive(|walk, _, v| {
        if let Some(from) = replan_from.take() {
            walk.replan(from, ctx, catalog, model, config.beam)?;
        }
        let out = walk.run(v)?;
        // The step types its output as the plan in force estimated it.
        let est = out.rel.mtype.sparsity;
        let meas = out.rel.measured_sparsity();
        measured[v.index()] = meas;
        if Some(v) != last && relative_error(est, meas) > config.relative_error_threshold {
            // Halt and re-plan the suffix with corrected stats once `v`
            // is stored.
            triggered_at.push(v);
            replan_from = Some(v.index() + 1);
        }
        Ok::<_, AdaptiveError>(out)
    })?;

    Ok(AdaptiveOutcome {
        sinks: walk.finish()?.sinks,
        reoptimizations: triggered_at.len(),
        triggered_at,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{Cluster, ImplRegistry, MatrixType, Op, PhysFormat};
    use matopt_cost::CostModel;
    use matopt_kernels::{random_dense_normal, seeded_rng};

    fn catalog() -> FormatCatalog {
        FormatCatalog::new(vec![
            PhysFormat::SingleTuple,
            PhysFormat::Tile { side: 8 },
            PhysFormat::RowStrip { height: 8 },
            PhysFormat::CsrTile { side: 8 },
            PhysFormat::CsrSingle,
        ])
    }

    /// Hadamard of two *identically patterned* sparse matrices: the
    /// independence estimate (d²) is badly wrong (true density d), so
    /// the adaptive executor must re-optimize — and still produce the
    /// right numbers.
    #[test]
    fn correlated_sparsity_triggers_reoptimization() {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
        let model = CostModel::analytical();

        let mut g = ComputeGraph::new();
        let d = 0.05;
        let x = g.add_source(
            MatrixType::sparse(32, 32, d),
            PhysFormat::CsrTile { side: 8 },
        );
        let y = g.add_source(
            MatrixType::sparse(32, 32, d),
            PhysFormat::CsrTile { side: 8 },
        );
        let h = g.add_op(Op::Hadamard, &[x, y]).unwrap();
        let w = g.add_source(MatrixType::dense(32, 16), PhysFormat::Tile { side: 8 });
        let prod = g.add_op(Op::MatMul, &[h, w]).unwrap();
        let _out = g.add_op(Op::Relu, &[prod]).unwrap();

        // Identical pattern for x and y.
        let mut rng = seeded_rng(17);
        let base = random_dense_normal(32, 32, &mut rng).map(|v| if v > 1.6 { v } else { 0.0 });
        let wdat = random_dense_normal(32, 16, &mut rng);
        let mut inputs = HashMap::new();
        inputs.insert(
            x,
            DistRelation::from_dense(&base, PhysFormat::CsrTile { side: 8 }).unwrap(),
        );
        inputs.insert(
            y,
            DistRelation::from_dense(&base, PhysFormat::CsrTile { side: 8 }).unwrap(),
        );
        inputs.insert(
            w,
            DistRelation::from_dense(&wdat, PhysFormat::Tile { side: 8 }).unwrap(),
        );

        let out = execute_adaptive(
            &g,
            &inputs,
            &ctx,
            &catalog(),
            &model,
            AdaptiveConfig::default(),
        )
        .expect("adaptive run succeeds");
        assert_eq!(
            out.reoptimizations, 1,
            "exactly the d^2-vs-d Hadamard misestimate triggers a re-plan"
        );
        assert_eq!(out.triggered_at, vec![h]);

        // Numerically identical to the reference.
        let expect = base.hadamard(&base).matmul(&wdat).relu();
        let sink = *out.sinks.keys().next().unwrap();
        assert!(out.sinks[&sink].to_dense().approx_eq(&expect, 1e-9));
    }

    /// Accurate estimates never trigger a re-plan.
    #[test]
    fn accurate_estimates_run_straight_through() {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
        let model = CostModel::analytical();
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(24, 24), PhysFormat::Tile { side: 8 });
        let b = g.add_source(MatrixType::dense(24, 24), PhysFormat::Tile { side: 8 });
        let p = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let _s = g.add_op(Op::Sigmoid, &[p]).unwrap();

        let mut rng = seeded_rng(5);
        let da = random_dense_normal(24, 24, &mut rng);
        let db = random_dense_normal(24, 24, &mut rng);
        let mut inputs = HashMap::new();
        inputs.insert(
            a,
            DistRelation::from_dense(&da, PhysFormat::Tile { side: 8 }).unwrap(),
        );
        inputs.insert(
            b,
            DistRelation::from_dense(&db, PhysFormat::Tile { side: 8 }).unwrap(),
        );

        let out = execute_adaptive(
            &g,
            &inputs,
            &ctx,
            &catalog(),
            &model,
            AdaptiveConfig::default(),
        )
        .expect("runs");
        assert_eq!(out.reoptimizations, 0);
        let expect = da.matmul(&db).sigmoid();
        let sink = *out.sinks.keys().next().unwrap();
        assert!(out.sinks[&sink].to_dense().approx_eq(&expect, 1e-9));
    }

    #[test]
    fn relative_error_is_symmetric_and_one_at_perfection() {
        assert!((relative_error(0.5, 0.5) - 1.0).abs() < 1e-12);
        assert!((relative_error(0.1, 0.2) - 2.0).abs() < 1e-12);
        assert!((relative_error(0.2, 0.1) - 2.0).abs() < 1e-12);
        assert!(relative_error(0.0, 0.5) > 1e6);
    }
}

#[cfg(test)]
mod threshold_tests {
    use super::*;
    use matopt_core::{Cluster, ImplRegistry, MatrixType, Op, PhysFormat};
    use matopt_cost::CostModel;
    use matopt_kernels::{random_dense_normal, seeded_rng};
    use std::collections::HashMap;

    /// A permissive threshold never re-plans; a paranoid threshold of
    /// 1.0 re-plans on essentially every estimation error; the default
    /// sits in between — and all three produce identical numbers.
    #[test]
    fn threshold_controls_replan_frequency_not_results() {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
        let model = CostModel::analytical();
        let catalog = FormatCatalog::new(vec![
            PhysFormat::SingleTuple,
            PhysFormat::Tile { side: 8 },
            PhysFormat::CsrTile { side: 8 },
            PhysFormat::CsrSingle,
        ]);

        // Two correlated-pattern Hadamards in sequence: two chances to
        // misestimate.
        let mut g = ComputeGraph::new();
        let d = 0.06;
        let x = g.add_source(
            MatrixType::sparse(32, 32, d),
            PhysFormat::CsrTile { side: 8 },
        );
        let y = g.add_source(
            MatrixType::sparse(32, 32, d),
            PhysFormat::CsrTile { side: 8 },
        );
        let h1 = g.add_op(Op::Hadamard, &[x, y]).unwrap();
        let h2 = g.add_op(Op::Hadamard, &[h1, x]).unwrap();
        let w = g.add_source(MatrixType::dense(32, 8), PhysFormat::Tile { side: 8 });
        let _p = g.add_op(Op::MatMul, &[h2, w]).unwrap();

        let mut rng = seeded_rng(29);
        let base = random_dense_normal(32, 32, &mut rng).map(|v| if v > 1.5 { v } else { 0.0 });
        let wdat = random_dense_normal(32, 8, &mut rng);
        let mut inputs = HashMap::new();
        inputs.insert(
            x,
            DistRelation::from_dense(&base, PhysFormat::CsrTile { side: 8 }).unwrap(),
        );
        inputs.insert(
            y,
            DistRelation::from_dense(&base, PhysFormat::CsrTile { side: 8 }).unwrap(),
        );
        inputs.insert(
            w,
            DistRelation::from_dense(&wdat, PhysFormat::Tile { side: 8 }).unwrap(),
        );

        let run = |threshold: f64| {
            execute_adaptive(
                &g,
                &inputs,
                &ctx,
                &catalog,
                &model,
                AdaptiveConfig {
                    relative_error_threshold: threshold,
                    beam: 1000,
                },
            )
            .expect("runs")
        };
        let lax = run(1e9);
        let default = run(1.2);
        let strict = run(1.0 + 1e-9);
        assert_eq!(lax.reoptimizations, 0);
        assert!(default.reoptimizations >= 1);
        assert!(strict.reoptimizations >= default.reoptimizations);

        let expect = base.hadamard(&base).hadamard(&base).matmul(&wdat);
        for out in [&lax, &default, &strict] {
            let sink = *out.sinks.keys().next().unwrap();
            assert!(out.sinks[&sink].to_dense().approx_eq(&expect, 1e-9));
        }
    }
}
