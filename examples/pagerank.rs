//! PageRank over a sparse transition matrix: the optimizer keeps the
//! web graph in a CSR layout through every power iteration, and the
//! damped iteration converges to the same ranks a plain evaluation
//! produces.
//!
//! Run with: `cargo run --release -p matopt-bench --example pagerank`

use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeKind, Op, PhysFormat,
    PlanContext,
};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan, simulate_plan, DistRelation};
use matopt_graphs::pagerank_graph;
use matopt_kernels::{random_sparse_csr, seeded_rng, DenseMatrix};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn main() {
    let registry = ImplRegistry::paper_default();
    let model = CostModel::analytical();

    // --- Paper scale: a million-page web graph, simulated ---------------
    let p = pagerank_graph(1_000_000, 1e-5, 0.85, 5).expect("builds");
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let full_catalog = FormatCatalog::paper_default();
    let octx = OptContext::new(&ctx, &full_catalog, &model);
    let plan = frontier_dp_beam(&p.graph, &octx, 2000).expect("plannable");
    let report = simulate_plan(&p.graph, &plan.annotation, &ctx, &model).unwrap();
    println!(
        "5 PageRank iterations over a 1M-page graph (10 workers): estimated {}",
        report.outcome
    );
    // Every multiply stays sparse.
    for (id, node) in p.graph.iter() {
        if node.op().map(|o| o.kind()) == Some(matopt_core::OpKind::MatMul) {
            let s = registry
                .get(plan.annotation.choice(id).unwrap().impl_id)
                .strategy;
            println!("  {} uses {:?}", node.name.clone().unwrap_or_default(), s);
        }
    }

    // --- Toy scale: execute for real and converge ------------------------
    let n = 64usize;
    let iters = 30usize;
    let alpha = 0.85;
    let mut rng = seeded_rng(21);
    // Random adjacency, column-normalized to a transition matrix (with
    // uniform columns for dangling pages).
    let adj =
        random_sparse_csr(n, n, 0.08, &mut rng)
            .to_dense()
            .map(|v| if v != 0.0 { 1.0 } else { 0.0 });
    let mut transition = DenseMatrix::zeros(n, n);
    for c in 0..n {
        let col_sum: f64 = (0..n).map(|r| adj.get(r, c)).sum();
        for r in 0..n {
            let v = if col_sum > 0.0 {
                adj.get(r, c) / col_sum
            } else {
                1.0 / n as f64
            };
            transition.set(r, c, v);
        }
    }

    let mut g = ComputeGraph::new();
    let t = g.add_source(
        MatrixType::sparse(n as u64, n as u64, 0.1),
        PhysFormat::CsrTile { side: 8 },
    );
    let r0 = g.add_source(MatrixType::dense(n as u64, 1), PhysFormat::SingleTuple);
    let u = g.add_source(MatrixType::dense(n as u64, 1), PhysFormat::SingleTuple);
    let mut r = r0;
    for _ in 0..iters {
        let pr = g.add_op(Op::MatMul, &[t, r]).unwrap();
        let damped = g.add_op(Op::ScalarMul(alpha), &[pr]).unwrap();
        let tele = g.add_op(Op::ScalarMul(1.0 - alpha), &[u]).unwrap();
        r = g.add_op(Op::Add, &[damped, tele]).unwrap();
    }

    let toy_cluster = Cluster::simsql_like(4);
    let toy_ctx = PlanContext::new(&registry, toy_cluster);
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 8 },
        PhysFormat::CsrTile { side: 8 },
        PhysFormat::CsrSingle,
    ]);
    let toy_octx = OptContext::new(&toy_ctx, &catalog, &model);
    let toy_plan = frontier_dp_beam(&g, &toy_octx, 2000).expect("plannable");

    let uniform = DenseMatrix::from_fn(n, 1, |_, _| 1.0 / n as f64);
    let mut inputs = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let data = if id == t { &transition } else { &uniform };
            inputs.insert(id, DistRelation::from_dense(data, *format).unwrap());
        }
    }
    let out = execute_plan(&g, &toy_plan.annotation, &inputs, &registry).expect("executes");
    let ranks = out.sinks.values().next().unwrap().to_dense();
    let total: f64 = ranks.data().iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "ranks must stay a distribution");
    // Fixed-point check: one more damped step changes nothing.
    let next = transition
        .matmul(&ranks)
        .scale(alpha)
        .add(&uniform.scale(1.0 - alpha));
    let drift = next.frobenius_distance(&ranks);
    println!("\ntoy 64-page graph after {iters} executed iterations:");
    println!("  rank mass {total:.12}, fixed-point drift {drift:.2e}");
    assert!(drift < 1e-6, "power iteration should have converged");
    println!(
        "  converged; top rank {:.4}",
        ranks.data().iter().cloned().fold(0.0, f64::max)
    );
}
