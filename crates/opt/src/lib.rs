//! # matopt-opt
//!
//! The three plan optimizers of the paper:
//!
//! * [`brute_force`] — Algorithm 2: exhaustive branch-and-bound
//!   enumeration (exact, exponential; reproduces the "Fail > budget"
//!   rows of Figure 13);
//! * [`tree_dp`] — Algorithm 3: the Felsenstein-style dynamic program
//!   for tree-shaped graphs (`O(n·|P|·|I|·|V|)`);
//! * [`frontier_dp`] — Algorithm 4: the frontier dynamic program for
//!   general DAGs, maintaining joint cost tables over equivalence
//!   classes of frontier vertices that share ancestors
//!   (`O(n·|P|^c·|I|·|V|)` for class size `c`).
//!
//! All three return an [`Optimized`] carrying a type-correct
//! [`matopt_core::Annotation`] and its estimated cost; on the same
//! input they agree on the optimal cost (tree DP on trees, frontier DP
//! and brute force everywhere), which the test-suite verifies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod brute;
mod common;
mod common_tests;
mod frontier;
mod trace;
mod tree;

pub use brute::brute_force;
pub use common::{
    producible_formats, transform_cost, vertex_options, OptContext, OptError, Optimized,
    VertexOption,
};
pub use frontier::{frontier_dp, frontier_dp_beam};
pub use trace::{frontier_classes, max_class_size, FrontierSnapshot};
pub use tree::tree_dp;

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{
        validate, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, Op, PhysFormat,
        PlanContext,
    };
    use matopt_cost::{plan_cost, CostModel};

    fn ctx_bits() -> (ImplRegistry, FormatCatalog, CostModel) {
        (
            ImplRegistry::paper_default(),
            FormatCatalog::paper_default(),
            CostModel::analytical(),
        )
    }

    /// A two-multiply chain: (A × B) × C, tree-shaped.
    fn chain_graph() -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(100, 10_000),
            PhysFormat::RowStrip { height: 100 },
        );
        let b = g.add_source(
            MatrixType::dense(10_000, 100),
            PhysFormat::ColStrip { width: 100 },
        );
        let c = g.add_source(
            MatrixType::dense(100, 100_000),
            PhysFormat::ColStrip { width: 1000 },
        );
        let ab = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let _abc = g.add_op(Op::MatMul, &[ab, c]).unwrap();
        g
    }

    /// A diamond with a shared intermediate: not tree-shaped.
    fn shared_graph() -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
        let b = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
        let t = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let u = g.add_op(Op::Relu, &[t]).unwrap();
        let w = g.add_op(Op::Neg, &[t]).unwrap();
        let _o = g.add_op(Op::Add, &[u, w]).unwrap();
        g
    }

    #[test]
    fn tree_dp_produces_valid_optimal_plan() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let g = chain_graph();
        let opt = tree_dp(&g, &octx).unwrap();
        validate(&g, &opt.annotation, &plan_ctx).unwrap();
        // The DP's claimed cost matches independent re-costing.
        let recost = plan_cost(&g, &opt.annotation, &plan_ctx, &model).unwrap();
        assert!(
            (recost - opt.cost).abs() < 1e-6 * opt.cost.max(1.0),
            "claimed {} recosted {}",
            opt.cost,
            recost
        );
    }

    #[test]
    fn tree_dp_rejects_dags() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        assert_eq!(
            tree_dp(&shared_graph(), &octx).unwrap_err(),
            OptError::NotTreeShaped
        );
    }

    #[test]
    fn all_three_agree_on_a_tree() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let g = chain_graph();
        let t = tree_dp(&g, &octx).unwrap();
        let f = frontier_dp(&g, &octx).unwrap();
        let b = brute_force(&g, &octx, None).unwrap();
        assert!((t.cost - f.cost).abs() < 1e-6 * t.cost);
        assert!((t.cost - b.cost).abs() < 1e-6 * t.cost);
    }

    #[test]
    fn frontier_matches_brute_on_shared_dag() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let g = shared_graph();
        let f = frontier_dp(&g, &octx).unwrap();
        let b = brute_force(&g, &octx, None).unwrap();
        validate(&g, &f.annotation, &plan_ctx).unwrap();
        assert!(
            (f.cost - b.cost).abs() < 1e-6 * f.cost.max(1.0),
            "frontier {} vs brute {}",
            f.cost,
            b.cost
        );
        let recost = plan_cost(&g, &f.annotation, &plan_ctx, &model).unwrap();
        assert!((recost - f.cost).abs() < 1e-6 * f.cost.max(1.0));
    }

    #[test]
    fn brute_force_times_out() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        // A chain long enough that a zero budget must trip.
        let mut g = ComputeGraph::new();
        let mut cur = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::SingleTuple);
        for _ in 0..6 {
            let m = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::SingleTuple);
            cur = g.add_op(Op::MatMul, &[cur, m]).unwrap();
        }
        let r = brute_force(&g, &octx, Some(std::time::Duration::ZERO));
        assert_eq!(r.unwrap_err(), OptError::Timeout);
    }

    #[test]
    fn brute_force_tiny_budget_returns_valid_partial_result() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        // A chain long enough that full enumeration takes far longer
        // than the budget, while the first depth-first descent (which
        // yields a complete plan) finishes within it.
        let mut g = ComputeGraph::new();
        let mut cur = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
        for _ in 0..9 {
            let m = g.add_source(MatrixType::dense(2000, 2000), PhysFormat::SingleTuple);
            cur = g.add_op(Op::MatMul, &[cur, m]).unwrap();
        }
        let opt = brute_force(&g, &octx, Some(std::time::Duration::from_millis(5)))
            .expect("budget-exceeded path returns the best plan so far, not a hang or error");
        assert!(opt.timed_out, "a 5 ms budget cannot finish a 9-chain");
        assert_eq!(opt.exactness(), "budget-exceeded");
        assert!(opt.cost.is_finite() && opt.cost > 0.0);
        // The partial result is a complete, type-correct annotation.
        validate(&g, &opt.annotation, &plan_ctx).unwrap();
        let recost = plan_cost(&g, &opt.annotation, &plan_ctx, &model).unwrap();
        assert!(
            (recost - opt.cost).abs() < 1e-6 * opt.cost.max(1.0),
            "claimed {} recosted {}",
            opt.cost,
            recost
        );
    }

    #[test]
    fn infeasible_vertex_is_reported() {
        let (reg, cat, model) = ctx_bits();
        // A cluster so tiny nothing fits.
        let mut cl = Cluster::simsql_like(2);
        cl.worker_ram_bytes = 1.0;
        cl.worker_disk_bytes = 1.0;
        let plan_ctx = PlanContext::new(&reg, cl);
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(10_000, 10_000), PhysFormat::SingleTuple);
        let b = g.add_source(MatrixType::dense(10_000, 10_000), PhysFormat::SingleTuple);
        let _ = g.add_op(Op::MatMul, &[a, b]).unwrap();
        assert!(matches!(
            frontier_dp(&g, &octx),
            Err(OptError::NoFeasiblePlan(_))
        ));
    }

    #[test]
    fn optimizer_avoids_single_tuple_for_oversized_output() {
        // A multiply whose output (100K × 100K = 80 GB) cannot live in
        // one tuple: the plan must produce a chunked format.
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(100_000, 1000),
            PhysFormat::RowStrip { height: 1000 },
        );
        let b = g.add_source(
            MatrixType::dense(1000, 100_000),
            PhysFormat::ColStrip { width: 1000 },
        );
        let o = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let opt = frontier_dp(&g, &octx).unwrap();
        let fmt = opt.annotation.format_of(&g, o).unwrap();
        assert_ne!(fmt, PhysFormat::SingleTuple);
        validate(&g, &opt.annotation, &plan_ctx).unwrap();
    }

    #[test]
    fn beam_truncation_is_counted_and_reported() {
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let g = shared_graph();

        let exact = frontier_dp(&g, &octx).unwrap();
        assert_eq!(exact.beam_truncated, 0);
        assert_eq!(exact.exactness(), "exact");

        let beamed = frontier_dp_beam(&g, &octx, 1).unwrap();
        assert!(
            beamed.beam_truncated > 0,
            "a width-1 beam must drop joint states on a shared DAG"
        );
        assert_eq!(beamed.exactness(), "beamed");
        validate(&g, &beamed.annotation, &plan_ctx).unwrap();
        // Truncation can only hurt: the beamed plan is never cheaper.
        assert!(beamed.cost >= exact.cost - 1e-9 * exact.cost);
    }

    #[test]
    fn frontier_dp_emits_optimizer_events() {
        use matopt_obs::{EventKind, MemorySink, Obs, Subsystem};
        use std::sync::Arc;

        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let sink = Arc::new(MemorySink::new());
        let octx = OptContext::with_obs(&plan_ctx, &cat, &model, Obs::new(Arc::clone(&sink)));
        let g = shared_graph();
        let opt = frontier_dp_beam(&g, &octx, 1).unwrap();

        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| e.name == "frontier_dp" && matches!(e.kind, EventKind::SpanBegin)));
        let steps = events
            .iter()
            .filter(|e| e.name == "frontier_step" && matches!(e.kind, EventKind::SpanBegin))
            .count();
        // One step span per compute vertex (shared_graph has 4).
        assert_eq!(steps, 4);
        let truncated: f64 = events
            .iter()
            .filter(|e| e.name == "beam_truncated")
            .map(|e| match e.kind {
                EventKind::Counter { value } => value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(truncated as usize, opt.beam_truncated);
        assert!(events.iter().all(|e| e.subsystem == Subsystem::Optimizer));
    }

    #[test]
    fn hadamard_square_of_shared_input_works() {
        // Two edges from the same producer into one vertex.
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(5000, 5000),
            PhysFormat::Tile { side: 1000 },
        );
        let _sq = g.add_op(Op::Hadamard, &[a, a]).unwrap();
        let f = frontier_dp(&g, &octx).unwrap();
        validate(&g, &f.annotation, &plan_ctx).unwrap();
        let b = brute_force(&g, &octx, None).unwrap();
        assert!((f.cost - b.cost).abs() < 1e-9 * f.cost.max(1.0));
    }

    #[test]
    fn frontier_dp_refuses_more_formats_than_it_can_index() {
        // Format ids are 16 bits wide: 70,000 sources in distinct tile
        // formats are past the limit, and the DP says so instead of
        // panicking.
        let (reg, cat, model) = ctx_bits();
        let plan_ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let octx = OptContext::new(&plan_ctx, &cat, &model);
        let mut g = ComputeGraph::new();
        for side in 1..=70_000 {
            g.add_source(MatrixType::dense(100, 100), PhysFormat::Tile { side });
        }
        let err = frontier_dp_beam(&g, &octx, 4000).unwrap_err();
        assert_eq!(
            err,
            OptError::TooLarge {
                what: "distinct physical formats",
                limit: 65_536,
            }
        );
        assert_eq!(
            err.to_string(),
            "graph exceeds the frontier DP's limit of 65536 distinct physical formats"
        );
    }
}
