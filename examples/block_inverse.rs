//! The two-level block-wise matrix inverse (§8.2, Figure 9) at laptop
//! scale: build the blocked-formula DAG, optimize it, execute it, and
//! verify the result actually inverts the matrix.
//!
//! Run with: `cargo run --release -p matopt-bench --example block_inverse`

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PhysFormat, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan, DistRelation};
use matopt_graphs::two_level_inverse_graph;
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn main() {
    // A 32×32 outer matrix: 16×16 quadrants, with the A quadrant itself
    // inverted from 4/12 sub-blocks — the same two-level structure the
    // paper runs at 20K/10K/2K.
    let half = 16u64;
    let a_split = 4u64;
    let inv = two_level_inverse_graph(half, a_split).expect("builds");
    let g = &inv.graph;
    println!(
        "two-level blocked inverse graph: {} vertices, {} sources, tree-shaped: {}",
        g.len(),
        g.sources().len(),
        g.is_tree_shaped()
    );

    // Generate one well-conditioned 32×32 matrix and carve the source
    // blocks out of it.
    let n = (2 * half) as usize;
    let mut rng = seeded_rng(3);
    let mut m = random_dense_normal(n, n, &mut rng);
    for i in 0..n {
        let v = m.get(i, i) + n as f64;
        m.set(i, i, v);
    }
    // Source layout (see `two_level_inverse_graph`): A11 A12 A21 A22 of
    // the top-left quadrant, then B (split into B1/B2 rows), C (split
    // into C1/C2 columns), then D.
    let h = half as usize;
    let s = a_split as usize;
    let blocks: Vec<DenseMatrix> = vec![
        m.block(0, 0, s, s),         // A11
        m.block(0, s, s, h - s),     // A12
        m.block(s, 0, h - s, s),     // A21
        m.block(s, s, h - s, h - s), // A22
        m.block(0, h, s, h),         // B1
        m.block(s, h, h - s, h),     // B2
        m.block(h, 0, h, s),         // C1
        m.block(h, s, h, h - s),     // C2
        m.block(h, h, h, h),         // D
    ];
    let mut inputs = HashMap::new();
    for (src, block) in g.sources().into_iter().zip(blocks) {
        let fmt = g.node(src).source_format().unwrap();
        inputs.insert(src, DistRelation::from_dense(&block, fmt).unwrap());
    }

    // Optimize + execute.
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(4);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
    ]);
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &catalog, &model);
    let plan = frontier_dp_beam(g, &octx, 2000).expect("optimizable");
    println!("optimized (estimated cost {:.3}s)", plan.cost);
    let out = execute_plan(g, &plan.annotation, &inputs, &registry).expect("executes");

    // Reassemble the inverse from the quadrant sinks and verify
    // M · M⁻¹ = I.
    let (abar, bbar, cbar, dbar) = &inv.quadrants;
    let mut result = DenseMatrix::zeros(n, n);
    let mut place = |vertex: matopt_core::NodeId, r0: usize, c0: usize| {
        let rel = &out.values[&vertex];
        result.set_block(r0, c0, &rel.to_dense());
    };
    // Ā quadrant cells (2×2 conformal grid over the top-left).
    place(abar.parts[0][0], 0, 0);
    place(abar.parts[0][1], 0, s);
    place(abar.parts[1][0], s, 0);
    place(abar.parts[1][1], s, s);
    // B̄ (top-right), C̄ (bottom-left), D̄ (bottom-right).
    place(bbar.parts[0][0], 0, h);
    place(bbar.parts[1][0], s, h);
    place(cbar.parts[0][0], h, 0);
    place(cbar.parts[0][1], h, s);
    place(dbar.parts[0][0], h, h);

    let product = m.matmul(&result);
    let identity = DenseMatrix::identity(n);
    let err = product.frobenius_distance(&identity);
    assert!(err < 1e-6, "M * Minv deviates from I by {err}");
    println!("verified M x Minv = I (Frobenius error {err:.2e})");
    // The graph shares A^-1 across many consumers: confirm the DAG
    // structure paid off.
    let compute_vertices = g
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Compute { .. }))
        .count();
    println!("{compute_vertices} compute vertices, A^-1 sub-blocks computed once and reused");
}
