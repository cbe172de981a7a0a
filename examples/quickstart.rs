//! Quickstart: declare a computation, let the optimizer pick the
//! physical design, execute it for real, and compare plans.
//!
//! Run with: `cargo run --release -p matopt-bench --example quickstart`
//!
//! This walks the paper's §2 story end to end on a laptop-sized
//! instance of `matA × matB × matC`:
//! 1. build a *logical* compute graph (no physical decisions),
//! 2. ask the frontier DP (Algorithm 4) for the optimal annotation,
//! 3. execute the annotated plan on the real chunk-level engine,
//! 4. check the numbers against a plain single-node evaluation, and
//! 5. show what a naive all-tile plan would have cost instead.

use matopt_baselines::all_tile_plan;
use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeKind, Op, PhysFormat,
    PlanContext,
};
use matopt_cost::{plan_cost, CostModel};
use matopt_engine::{execute_plan, reference_eval, DistRelation};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_opt::{frontier_dp, OptContext};
use std::collections::HashMap;

fn main() {
    // --- 1. A logical computation: (A × B) × C -------------------------
    // Only the *source* storage is given (as in the paper, inputs arrive
    // in whatever format the data was loaded in).
    let mut g = ComputeGraph::new();
    let a = g.add_source_named(
        MatrixType::dense(40, 400),
        PhysFormat::RowStrip { height: 4 },
        Some("matA"),
    );
    let b = g.add_source_named(
        MatrixType::dense(400, 40),
        PhysFormat::ColStrip { width: 4 },
        Some("matB"),
    );
    let c = g.add_source_named(
        MatrixType::dense(40, 4000),
        PhysFormat::ColStrip { width: 400 },
        Some("matC"),
    );
    let ab = g.add_op_named(Op::MatMul, &[a, b], Some("matAB")).unwrap();
    let abc = g
        .add_op_named(Op::MatMul, &[ab, c], Some("matABC"))
        .unwrap();

    // --- 2. Optimize ----------------------------------------------------
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(5);
    let ctx = PlanContext::new(&registry, cluster);
    let model = CostModel::analytical();
    // A laptop-scale catalog (the paper-default catalog works the same
    // way at cluster scale).
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
        PhysFormat::ColStrip { width: 400 },
    ]);
    let octx = OptContext::new(&ctx, &catalog, &model);
    let best = frontier_dp(&g, &octx).expect("plan found");

    println!("optimizer chose (estimated cost {:.3}s):", best.cost);
    for (id, node) in g.iter() {
        match &node.kind {
            NodeKind::Source { format } => {
                println!(
                    "  {:8} source         stays {format}",
                    node.name.clone().unwrap_or_default()
                );
            }
            NodeKind::Compute { .. } => {
                let choice = best.annotation.choice(id).unwrap();
                println!(
                    "  {:8} {} -> {}  (transforms: {})",
                    node.name.clone().unwrap_or_else(|| id.to_string()),
                    registry.get(choice.impl_id).name,
                    choice.output_format,
                    choice
                        .input_transforms
                        .iter()
                        .map(|t| format!("{t}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
        }
    }

    // --- 3. Execute for real --------------------------------------------
    let mut rng = seeded_rng(7);
    let mut inputs = HashMap::new();
    let mut dense_inputs = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(id, DistRelation::from_dense(&d, *format).unwrap());
            dense_inputs.insert(id, d);
        }
    }
    let out = execute_plan(&g, &best.annotation, &inputs, &registry).expect("executes");

    // --- 4. Verify against a plain evaluation ----------------------------
    let reference = reference_eval(&g, &dense_inputs).expect("reference");
    let got = out.sinks[&abc].to_dense();
    let want = &reference[&abc];
    assert!(got.approx_eq(want, 1e-9), "plan result mismatch!");
    println!(
        "\nexecuted {}x{} result matches the reference evaluation (|err| < 1e-9)",
        got.rows(),
        got.cols()
    );

    // --- 5. Compare with a heuristic plan ---------------------------------
    let tiles = all_tile_plan(&g, &ctx, &model).expect("all-tile plan");
    let unlimited = PlanContext {
        registry: &registry,
        transforms: ctx.transforms,
        cluster: cluster.with_unlimited_resources(),
    };
    let tile_cost = plan_cost(&g, &tiles, &unlimited, &model).unwrap();
    println!(
        "all-tile heuristic would cost {:.3}s — {:.1}x the optimized plan",
        tile_cost,
        tile_cost / best.cost
    );
}
