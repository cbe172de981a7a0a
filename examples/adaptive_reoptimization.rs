//! Adaptive mid-flight re-optimization — the paper's §7 future-work
//! proposal, implemented and demonstrated.
//!
//! Run with: `cargo run --release -p matopt-bench --example adaptive_reoptimization`
//!
//! The workload multiplies the Hadamard product of two sparse matrices
//! with a dense model matrix. The optimizer's independence estimate
//! says the product of two 5%-dense matrices is 0.25%-dense; but the
//! two inputs share their non-zero pattern, so the true density is 5% —
//! a Sommer-style relative error of 20. The adaptive executor notices
//! the misestimate the moment the Hadamard is computed, halts, replans
//! the remaining operators with the *measured* statistics, and
//! finishes — numerically identical to the plain reference.

use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, Op, PhysFormat, PlanContext,
};
use matopt_cost::CostModel;
use matopt_engine::{execute_adaptive, AdaptiveConfig, DistRelation};
use matopt_kernels::{random_dense_normal, seeded_rng};
use std::collections::HashMap;

fn main() {
    let registry = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 8 },
        PhysFormat::CsrTile { side: 8 },
        PhysFormat::CsrSingle,
    ]);

    // relu((X ∘ Y) · W) with X and Y sharing their sparsity pattern.
    let mut g = ComputeGraph::new();
    let d = 0.05;
    let x = g.add_source_named(
        MatrixType::sparse(48, 48, d),
        PhysFormat::CsrTile { side: 8 },
        Some("X"),
    );
    let y = g.add_source_named(
        MatrixType::sparse(48, 48, d),
        PhysFormat::CsrTile { side: 8 },
        Some("Y"),
    );
    let h = g.add_op_named(Op::Hadamard, &[x, y], Some("X∘Y")).unwrap();
    let w = g.add_source_named(
        MatrixType::dense(48, 24),
        PhysFormat::Tile { side: 8 },
        Some("W"),
    );
    let p = g
        .add_op_named(Op::MatMul, &[h, w], Some("(X∘Y)·W"))
        .unwrap();
    let _out = g.add_op_named(Op::Relu, &[p], Some("activations")).unwrap();

    println!(
        "estimated density of X∘Y under independence: {:.4} (true: {:.2})",
        g.node(h).mtype.sparsity,
        d
    );

    // Identical patterns.
    let mut rng = seeded_rng(11);
    let base = random_dense_normal(48, 48, &mut rng).map(|v| if v > 1.6 { v } else { 0.0 });
    let wdat = random_dense_normal(48, 24, &mut rng);
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

    let outcome = execute_adaptive(
        &g,
        &inputs,
        &ctx,
        &catalog,
        &model,
        AdaptiveConfig::default(),
    )
    .expect("adaptive run succeeds");

    println!(
        "re-optimizations: {} (triggered at {:?})",
        outcome.reoptimizations,
        outcome
            .triggered_at
            .iter()
            .map(|v| g.node(*v).name.clone().unwrap_or_else(|| v.to_string()))
            .collect::<Vec<_>>()
    );
    let expect = base.hadamard(&base).matmul(&wdat).relu();
    let sink = *outcome.sinks.keys().next().unwrap();
    assert!(outcome.sinks[&sink].to_dense().approx_eq(&expect, 1e-9));
    println!("result verified against the plain single-node evaluation");
}
