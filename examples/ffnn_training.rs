//! A feed-forward network training step, optimized and executed.
//!
//! Run with: `cargo run --release -p matopt-bench --example ffnn_training`
//!
//! Builds the paper's FFNN forward+backprop compute graph (§8.2) at
//! laptop scale, optimizes it with the frontier DP, executes the plan
//! on the chunk-level engine, and verifies that the updated weights
//! match a plain single-node evaluation of the same dataflow. Also
//! simulates the same *logical* computation at the paper's scale to
//! show the auto/hand-written/all-tile comparison of Figure 6.

use matopt_baselines::{all_tile_plan, hand_written_plan};
use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PhysFormat, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan, reference_eval, simulate_plan, DistRelation};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn main() {
    let registry = ImplRegistry::paper_default();
    let model = CostModel::analytical();

    // --- Laptop-scale training step, executed for real -----------------
    let cfg = FfnnConfig {
        batch: 24,
        features: 60,
        hidden: 16,
        labels: 8,
        input_sparsity: 1.0,
        learning_rate: 0.05,
        input_format: PhysFormat::RowStrip { height: 8 },
        w1_format: PhysFormat::Tile { side: 8 },
        w_format: PhysFormat::Tile { side: 8 },
    };
    let ffnn = ffnn_w2_update_graph(cfg).expect("type-correct network");
    let g = &ffnn.graph;

    let cluster = Cluster::simsql_like(4);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 8 },
        PhysFormat::ColStrip { width: 8 },
    ]);
    let octx = OptContext::new(&ctx, &catalog, &model);
    let plan = frontier_dp_beam(g, &octx, 2000).expect("optimizable");
    println!(
        "optimized the {}-vertex backprop graph (estimated cost {:.3}s)",
        g.len(),
        plan.cost
    );

    let mut rng = seeded_rng(42);
    let mut rels = HashMap::new();
    let mut dense = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            rels.insert(id, DistRelation::from_dense(&d, *format).unwrap());
            dense.insert(id, d);
        }
    }
    let out = execute_plan(g, &plan.annotation, &rels, &registry).expect("executes");
    let reference = reference_eval(g, &dense).expect("reference");
    for (sink, rel) in &out.sinks {
        assert!(
            rel.to_dense().approx_eq(&reference[sink], 1e-9),
            "distributed training step diverged from the reference at {sink}"
        );
    }
    println!(
        "updated W2/W3 match the single-node reference ({} sinks verified, {:.1} ms wall)",
        out.sinks.len(),
        out.total_seconds * 1e3
    );

    // --- Paper-scale what-if: Figure 6's 10K row -------------------------
    let paper_cfg = FfnnConfig::simsql_experiment(10_000);
    let paper_g = ffnn_w2_update_graph(paper_cfg).unwrap().graph;
    let paper_cluster = Cluster::simsql_like(10);
    let paper_ctx = PlanContext::new(&registry, paper_cluster);
    let paper_catalog = FormatCatalog::paper_default().dense_only();
    let paper_octx = OptContext::new(&paper_ctx, &paper_catalog, &model);
    let auto = frontier_dp_beam(&paper_g, &paper_octx, 4000).unwrap();
    let auto_sim = simulate_plan(&paper_g, &auto.annotation, &paper_ctx, &model).unwrap();
    let hand = hand_written_plan(&paper_g, &paper_ctx, &model).unwrap();
    let hand_sim = simulate_plan(&paper_g, &hand, &paper_ctx, &model).unwrap();
    let tiles = all_tile_plan(&paper_g, &paper_ctx, &model).unwrap();
    let tile_sim = simulate_plan(&paper_g, &tiles, &paper_ctx, &model).unwrap();
    println!("\nat paper scale (hidden 10K, 10 workers; paper: 6:15 / 10:06 / 9:01):");
    println!("  auto-generated : {}", auto_sim.outcome);
    println!("  hand-written   : {}", hand_sim.outcome);
    println!("  all-tile       : {}", tile_sim.outcome);
}
