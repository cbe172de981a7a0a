//! Small-scale *real* execution of the paper's workload graphs: the
//! same DAG shapes as the evaluation section, at laptop dimensions,
//! optimized, executed chunk-by-chunk, and verified against plain
//! single-node evaluation. This is the correctness complement to the
//! simulated figures in EXPERIMENTS.md.

use matopt_core::{
    Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, NodeKind, PhysFormat,
    PlanContext,
};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan, reference_eval, DistRelation};
use matopt_graphs::{ffnn_full_pass_graph, ExprBuilder, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn small_catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
    ])
}

fn run_and_verify(g: &ComputeGraph, seed: u64) {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(4);
    let ctx = PlanContext::new(&registry, cluster);
    let model = CostModel::analytical();
    let catalog = small_catalog();
    let octx = OptContext::new(&ctx, &catalog, &model);
    let plan = frontier_dp_beam(g, &octx, 2000).expect("optimizable");

    let mut rng = seeded_rng(seed);
    let mut rels: HashMap<NodeId, DistRelation> = HashMap::new();
    let mut dense: HashMap<NodeId, DenseMatrix> = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let mut d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            if node.mtype.is_square() {
                for i in 0..node.mtype.rows as usize {
                    let v = d.get(i, i) + 3.0 * node.mtype.rows as f64;
                    d.set(i, i, v);
                }
            }
            rels.insert(id, DistRelation::from_dense(&d, *format).unwrap());
            dense.insert(id, d);
        }
    }
    let out = execute_plan(g, &plan.annotation, &rels, &registry).expect("executes");
    let expect = reference_eval(g, &dense).expect("reference");
    for (sink, rel) in &out.sinks {
        let got = rel.to_dense();
        assert!(
            got.approx_eq(&expect[sink], 1e-8),
            "sink {sink} diverged (err {})",
            got.frobenius_distance(&expect[sink])
        );
    }
}

/// The full 57-vertex FFNN training graph — forward, backprop with
/// weight updates, and a second forward pass — executes to exactly the
/// reference values under the optimizer's plan.
#[test]
fn full_ffnn_training_graph_runs_correctly() {
    let cfg = FfnnConfig {
        batch: 16,
        features: 24,
        hidden: 12,
        labels: 8,
        input_sparsity: 1.0,
        learning_rate: 0.05,
        input_format: PhysFormat::RowStrip { height: 4 },
        w1_format: PhysFormat::Tile { side: 4 },
        w_format: PhysFormat::Tile { side: 4 },
    };
    let f = ffnn_full_pass_graph(cfg).expect("type-correct");
    assert_eq!(f.graph.len(), 57);
    run_and_verify(&f.graph, 101);
}

/// The §8.2 six-matrix chain DAG — including the `T1`/`T2` sharing that
/// forces the frontier algorithm — at toy dimensions.
#[test]
fn shared_chain_dag_runs_correctly() {
    // Same shape as Figure 4 Set 1, scaled by 1/1250.
    let b = ExprBuilder::new();
    let dims = [(8u64, 24u64), (24, 40), (40, 1), (1, 40), (40, 8), (40, 8)];
    let names = ["A", "B", "C", "D", "E", "F"];
    let srcs: Vec<_> = dims
        .iter()
        .zip(names.iter())
        .map(|((r, c), n)| {
            b.source(
                n,
                MatrixType::dense(*r, *c),
                if r * c <= 64 {
                    PhysFormat::SingleTuple
                } else {
                    PhysFormat::Tile { side: 4 }
                },
            )
        })
        .collect();
    let t1 = srcs[0] * srcs[1];
    let t2 = srcs[2] * srcs[3];
    let _o = ((t1 * srcs[4]).t() * (t1 * t2)) * (t2 * srcs[5]);
    // (the transpose keeps the dims conformable at this toy scale)
    let g = b.finish();
    assert!(!g.is_tree_shaped());
    run_and_verify(&g, 202);
}

/// The motivating example (§2.1), with the two hand implementations and
/// the optimizer's plan all executing to identical values.
#[test]
fn motivating_example_all_plans_agree_numerically() {
    use matopt_core::{Annotation, Op, Transform, TransformKind, VertexChoice};
    let registry = ImplRegistry::paper_default();
    let mut g = ComputeGraph::new();
    let a = g.add_source(
        MatrixType::dense(10, 40),
        PhysFormat::RowStrip { height: 2 },
    );
    let bsrc = g.add_source(MatrixType::dense(40, 10), PhysFormat::ColStrip { width: 2 });
    let c = g.add_source(
        MatrixType::dense(10, 100),
        PhysFormat::ColStrip { width: 20 },
    );
    let ab = g.add_op(Op::MatMul, &[a, bsrc]).unwrap();
    let abc = g.add_op(Op::MatMul, &[ab, c]).unwrap();

    let tile2 = PhysFormat::Tile { side: 2 };
    let cross = registry.by_name("mm_rowstrip_colstrip_cross").unwrap().id;
    let mut impl1 = Annotation::empty(&g);
    impl1.set(
        ab,
        VertexChoice {
            impl_id: cross,
            input_transforms: vec![
                Transform::identity(PhysFormat::RowStrip { height: 2 }),
                Transform::identity(PhysFormat::ColStrip { width: 2 }),
            ],
            output_format: tile2,
        },
    );
    impl1.set(
        abc,
        VertexChoice {
            impl_id: registry.by_name("mm_tile_shuffle").unwrap().id,
            input_transforms: vec![
                Transform::identity(tile2),
                Transform {
                    kind: TransformKind::ColStripToTile,
                    to: tile2,
                },
            ],
            output_format: tile2,
        },
    );
    let mut impl2 = Annotation::empty(&g);
    impl2.set(
        ab,
        VertexChoice {
            impl_id: cross,
            input_transforms: vec![
                Transform::identity(PhysFormat::RowStrip { height: 2 }),
                Transform::identity(PhysFormat::ColStrip { width: 2 }),
            ],
            output_format: tile2,
        },
    );
    impl2.set(
        abc,
        VertexChoice {
            impl_id: registry.by_name("mm_bcast_single_colstrip").unwrap().id,
            input_transforms: vec![
                Transform {
                    kind: TransformKind::GatherToSingle,
                    to: PhysFormat::SingleTuple,
                },
                Transform::identity(PhysFormat::ColStrip { width: 20 }),
            ],
            output_format: PhysFormat::ColStrip { width: 20 },
        },
    );

    let mut rng = seeded_rng(7);
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
    let expect = &reference_eval(&g, &dense).unwrap()[&abc];
    for ann in [&impl1, &impl2] {
        let out = execute_plan(&g, ann, &rels, &registry).unwrap();
        assert!(out.sinks[&abc].to_dense().approx_eq(expect, 1e-9));
    }
}

/// The logistic-regression gradient step (sigmoid + shared design
/// matrix) optimizes and executes correctly at toy scale.
#[test]
fn logistic_regression_step_runs_correctly() {
    use matopt_graphs::{logistic_regression_step, RegressionConfig};
    let cfg = RegressionConfig {
        rows: 24,
        features: 16,
        input_sparsity: 1.0,
        learning_rate: 0.1,
        x_format: PhysFormat::RowStrip { height: 8 },
    };
    let r = logistic_regression_step(cfg).expect("type-correct");
    run_and_verify(&r.graph, 303);
}

/// PageRank's sparse power iteration: the optimizer keeps the sparse
/// transition matrix in a CSR layout across iterations, and the result
/// matches the reference.
#[test]
fn pagerank_iterations_run_correctly_and_stay_sparse() {
    use matopt_graphs::pagerank_graph;
    // Build a toy variant by hand (the library builder is paper-scale
    // with 1000-tiles; here we re-chunk at 8).
    let p = pagerank_graph(1_000_000, 1e-5, 0.85, 2).expect("builds");
    assert_eq!(p.graph.compute_count(), 8);

    // Paper-scale planning: the sparse transition matrix must stay in a
    // sparse layout for the matmuls rather than being densified
    // (an n×n dense blowup would be 8 TB).
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let model = CostModel::analytical();
    let catalog = FormatCatalog::paper_default();
    let octx = OptContext::new(&ctx, &catalog, &model);
    let plan = frontier_dp_beam(&p.graph, &octx, 2000).expect("plannable");
    for (id, node) in p.graph.iter() {
        if node.op().map(|o| o.kind()) == Some(matopt_core::OpKind::MatMul) {
            let choice = plan.annotation.choice(id).unwrap();
            let strategy = registry.get(choice.impl_id).strategy;
            assert!(
                matches!(
                    strategy,
                    matopt_core::Strategy::MmCsrTileTile
                        | matopt_core::Strategy::MmCsrSingleSingle
                        | matopt_core::Strategy::MmCooDenseShuffle
                ),
                "P·r must use a sparse multiply, got {strategy:?}"
            );
        }
    }

    // Toy-scale real execution via the same graph shape.
    let mut g = ComputeGraph::new();
    let t = g.add_source(
        matopt_core::MatrixType::sparse(24, 24, 0.1),
        PhysFormat::CsrTile { side: 8 },
    );
    let r0 = g.add_source(
        matopt_core::MatrixType::dense(24, 1),
        PhysFormat::SingleTuple,
    );
    let u = g.add_source(
        matopt_core::MatrixType::dense(24, 1),
        PhysFormat::SingleTuple,
    );
    let mut r = r0;
    for _ in 0..2 {
        let pr = g.add_op(matopt_core::Op::MatMul, &[t, r]).unwrap();
        let damped = g.add_op(matopt_core::Op::ScalarMul(0.85), &[pr]).unwrap();
        let tele = g.add_op(matopt_core::Op::ScalarMul(0.15), &[u]).unwrap();
        r = g.add_op(matopt_core::Op::Add, &[damped, tele]).unwrap();
    }
    run_and_verify(&g, 404);
}
