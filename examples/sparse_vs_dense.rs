//! Sparsity exploitation (§7, Figure 12): the same logical computation
//! over a one-hot-style sparse batch, planned with and without sparse
//! layouts, executed for real, and simulated at paper scale.
//!
//! Run with: `cargo run --release -p matopt-bench --example sparse_vs_dense`

use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeKind, Op, PhysFormat,
    PlanContext,
};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan, simulate_plan, DistRelation};
use matopt_graphs::{ffnn_train_step_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, random_sparse_csr, seeded_rng};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn main() {
    let registry = ImplRegistry::paper_default();
    let model = CostModel::analytical();

    // --- Laptop scale: X·W over a 2%-dense batch -------------------------
    let mut g = ComputeGraph::new();
    let x = g.add_source_named(
        MatrixType::sparse(32, 64, 0.02),
        PhysFormat::CsrTile { side: 8 },
        Some("X"),
    );
    let w = g.add_source_named(
        MatrixType::dense(64, 16),
        PhysFormat::Tile { side: 8 },
        Some("W"),
    );
    let xw = g.add_op(Op::MatMul, &[x, w]).unwrap();
    let _act = g.add_op(Op::Relu, &[xw]).unwrap();

    let cluster = Cluster::plinycompute_like(4);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 8 },
        PhysFormat::CsrTile { side: 8 },
        PhysFormat::CsrSingle,
        PhysFormat::Coo,
    ]);
    let octx = OptContext::new(&ctx, &catalog, &model);
    let sparse_plan = frontier_dp_beam(&g, &octx, 2000).expect("plan");

    let dense_catalog = catalog.dense_only();
    let octx_dense = OptContext::new(&ctx, &dense_catalog, &model);
    let dense_plan = frontier_dp_beam(&g, &octx_dense, 2000).expect("plan");
    println!(
        "estimated cost with sparse layouts: {:.4}s, dense-constrained: {:.4}s ({:.1}x)",
        sparse_plan.cost,
        dense_plan.cost,
        dense_plan.cost / sparse_plan.cost
    );

    // Execute both plans on the same data and confirm identical results.
    let mut rng = seeded_rng(5);
    let xd = random_sparse_csr(32, 64, 0.02, &mut rng).to_dense();
    let wd = random_dense_normal(64, 16, &mut rng);
    let mut inputs = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d = if id == x { &xd } else { &wd };
            inputs.insert(id, DistRelation::from_dense(d, *format).unwrap());
        }
    }
    let sparse_out = execute_plan(&g, &sparse_plan.annotation, &inputs, &registry).unwrap();
    let dense_out = execute_plan(&g, &dense_plan.annotation, &inputs, &registry).unwrap();
    for (sink, rel) in &sparse_out.sinks {
        assert!(rel
            .to_dense()
            .approx_eq(&dense_out.sinks[sink].to_dense(), 1e-9));
    }
    println!("both plans computed identical activations");

    // --- Paper scale: the Figure 12 sparse/dense gap ---------------------
    println!("\nFigure 12 (10K batch, layer 4000, 2 workers; paper: 1:34 dense vs 0:50 sparse):");
    let pc2 = Cluster::plinycompute_like(2);
    let pc_ctx = PlanContext::new(&registry, pc2);

    let dense_cfg = FfnnConfig::amazoncat(10_000, 4000, false);
    let gd = ffnn_train_step_graph(dense_cfg).unwrap().graph;
    let dense_cat = FormatCatalog::paper_default().dense_only();
    let od = OptContext::new(&pc_ctx, &dense_cat, &model);
    let pd = frontier_dp_beam(&gd, &od, 4000).unwrap();
    let sim_d = simulate_plan(&gd, &pd.annotation, &pc_ctx, &model).unwrap();

    let sparse_cfg = FfnnConfig::amazoncat(10_000, 4000, true);
    let gs = ffnn_train_step_graph(sparse_cfg).unwrap().graph;
    let full_cat = FormatCatalog::paper_default();
    let os = OptContext::new(&pc_ctx, &full_cat, &model);
    let ps = frontier_dp_beam(&gs, &os, 4000).unwrap();
    let sim_s = simulate_plan(&gs, &ps.annotation, &pc_ctx, &model).unwrap();
    println!("  dense-constrained : {}", sim_d.outcome);
    println!("  sparsity enabled  : {}", sim_s.outcome);
}
