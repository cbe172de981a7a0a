//! End-to-end engine tests: optimized plans and randomly sampled
//! type-correct annotations all execute to the same numbers as a plain
//! single-node reference evaluation.

use matopt_core::{
    validate, Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId,
    NodeKind, Op, PhysFormat, PlanContext, VertexChoice,
};
use matopt_cost::{AnalyticalCostModel, LearnedCostModel};
use matopt_engine::{execute_plan, reference_eval, DistRelation};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp, transform_cost, vertex_options, OptContext};
use proptest::prelude::*;
use std::collections::HashMap;

/// A small-scale catalog so tiny test matrices still have several
/// feasible layouts.
fn small_catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::RowStrip { height: 8 },
        PhysFormat::ColStrip { width: 4 },
        PhysFormat::ColStrip { width: 8 },
        PhysFormat::Coo,
        PhysFormat::CsrSingle,
        PhysFormat::CsrTile { side: 4 },
    ])
}

fn fixtures() -> (ImplRegistry, Cluster) {
    (ImplRegistry::paper_default(), Cluster::simsql_like(4))
}

/// Builds dense inputs for every source and returns both chunked and
/// plain views.
fn make_inputs(
    graph: &ComputeGraph,
    seed: u64,
) -> (HashMap<NodeId, DistRelation>, HashMap<NodeId, DenseMatrix>) {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    let mut dense = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let mut d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            // Keep inverse inputs well conditioned.
            if node.mtype.is_square() {
                for i in 0..node.mtype.rows as usize {
                    let v = d.get(i, i) + node.mtype.rows as f64 * 2.0;
                    d.set(i, i, v);
                }
            }
            rels.insert(id, DistRelation::from_dense(&d, *format).unwrap());
            dense.insert(id, d);
        }
    }
    (rels, dense)
}

fn check_plan_matches_reference(graph: &ComputeGraph, annotation: &Annotation, seed: u64) {
    let (reg, _) = fixtures();
    let (rels, dense) = make_inputs(graph, seed);
    let out = execute_plan(graph, annotation, &rels, &reg).expect("plan executes");
    let expect = reference_eval(graph, &dense).expect("reference evaluates");
    for (sink, rel) in &out.sinks {
        let got = rel.to_dense();
        let want = &expect[sink];
        assert!(
            got.approx_eq(want, 1e-9),
            "sink {sink} diverged; max err {}",
            got.frobenius_distance(want)
        );
    }
}

/// A mixed workload touching matmul, elementwise, softmax, transpose,
/// reductions, and bias addition.
fn mixed_graph() -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let x = g.add_source(
        MatrixType::dense(12, 20),
        PhysFormat::RowStrip { height: 4 },
    );
    let w = g.add_source(MatrixType::dense(20, 16), PhysFormat::Tile { side: 8 });
    let b = g.add_source(MatrixType::dense(1, 16), PhysFormat::SingleTuple);
    let xw = g.add_op(Op::MatMul, &[x, w]).unwrap();
    let a = g.add_op(Op::BroadcastAddRow, &[xw, b]).unwrap();
    let h = g.add_op(Op::Relu, &[a]).unwrap();
    let s = g.add_op(Op::Softmax, &[h]).unwrap();
    let t = g.add_op(Op::Transpose, &[s]).unwrap();
    let _sums = g.add_op(Op::RowSums, &[t]).unwrap();
    g
}

#[test]
fn optimized_plan_executes_to_reference_values() {
    let (reg, cl) = fixtures();
    let ctx = PlanContext::new(&reg, cl);
    let cat = small_catalog();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let g = mixed_graph();
    let opt = frontier_dp(&g, &octx).expect("optimizable");
    validate(&g, &opt.annotation, &ctx).expect("type-correct");
    check_plan_matches_reference(&g, &opt.annotation, 99);
}

#[test]
fn inverse_graph_executes_to_reference_values() {
    let (reg, cl) = fixtures();
    let ctx = PlanContext::new(&reg, cl);
    let cat = small_catalog();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let mut g = ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(16, 16), PhysFormat::Tile { side: 4 });
    let inv = g.add_op(Op::Inverse, &[a]).unwrap();
    let _id = g.add_op(Op::MatMul, &[a, inv]).unwrap();
    let opt = frontier_dp(&g, &octx).expect("optimizable");
    check_plan_matches_reference(&g, &opt.annotation, 5);
}

#[test]
fn shared_intermediate_graph_executes_correctly() {
    let (reg, cl) = fixtures();
    let ctx = PlanContext::new(&reg, cl);
    let cat = small_catalog();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let mut g = ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(10, 10), PhysFormat::SingleTuple);
    let b = g.add_source(MatrixType::dense(10, 10), PhysFormat::Tile { side: 4 });
    let t = g.add_op(Op::MatMul, &[a, b]).unwrap();
    let u = g.add_op(Op::Relu, &[t]).unwrap();
    let v = g.add_op(Op::Neg, &[t]).unwrap();
    let _o = g.add_op(Op::Add, &[u, v]).unwrap();
    let opt = frontier_dp(&g, &octx).expect("optimizable");
    check_plan_matches_reference(&g, &opt.annotation, 7);
}

#[test]
fn sparse_input_plans_execute_correctly() {
    // A sparse batch times a dense model: the optimizer may pick CSR or
    // COO layouts; the numbers must still match.
    let (reg, cl) = fixtures();
    let ctx = PlanContext::new(&reg, cl);
    let cat = small_catalog();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &cat, &model);
    let mut g = ComputeGraph::new();
    let x = g.add_source(
        MatrixType::sparse(12, 16, 0.2),
        PhysFormat::CsrTile { side: 4 },
    );
    let w = g.add_source(MatrixType::dense(16, 8), PhysFormat::Tile { side: 4 });
    let xw = g.add_op(Op::MatMul, &[x, w]).unwrap();
    let _r = g.add_op(Op::Relu, &[xw]).unwrap();
    let opt = frontier_dp(&g, &octx).expect("optimizable");

    // Build sparse-ish input data by thresholding.
    let (reg2, _) = fixtures();
    let mut rng = seeded_rng(31);
    let mut rels = HashMap::new();
    let mut dense = HashMap::new();
    for (id, node) in g.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d0 =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            let d = if node.mtype.sparsity < 1.0 {
                d0.map(|v| if v > 0.9 { v } else { 0.0 })
            } else {
                d0
            };
            rels.insert(id, DistRelation::from_dense(&d, *format).unwrap());
            dense.insert(id, d);
        }
    }
    let out = execute_plan(&g, &opt.annotation, &rels, &reg2).unwrap();
    let expect = reference_eval(&g, &dense).unwrap();
    for (sink, rel) in &out.sinks {
        assert!(rel.to_dense().approx_eq(&expect[sink], 1e-9));
    }
}

#[test]
fn calibration_fits_a_usable_learned_model() {
    use matopt_cost::CostModel;
    let cl = Cluster::simsql_like(4);
    let small = matopt_core::CostFeatures {
        cpu_flops: 1e6,
        local_flops: 0.0,
        net_bytes: 1e4,
        inter_bytes: 1e4,
        tuples: 4.0,
        ops: 1.0,
    };
    let big = matopt_core::CostFeatures {
        cpu_flops: 1e9,
        local_flops: 0.0,
        net_bytes: 1e7,
        inter_bytes: 1e7,
        tuples: 400.0,
        ops: 2.0,
    };
    // The samples are wall-clock micro-benchmarks at tiny scales; on a
    // machine busy running the rest of the suite a noise spike can tip
    // the flops coefficient negative, so allow a bounded re-measure.
    let mut last = (0.0, 0.0);
    for seed in [17, 18, 19] {
        let samples =
            matopt_engine::collect_samples(&[32, 48, 64, 96], seed, &cl, &Obs::disabled());
        assert!(samples.len() > 20, "got {} samples", samples.len());
        let learned = LearnedCostModel::fit(&samples);
        assert!(learned.specialized_models() >= 3);
        // The learned model must order a big multiply above a small one.
        let ts = learned.impl_time(matopt_core::OpKind::MatMul, &small, &cl);
        let tb = learned.impl_time(matopt_core::OpKind::MatMul, &big, &cl);
        if tb > ts {
            return;
        }
        last = (tb, ts);
    }
    panic!(
        "learned model inverted on every attempt: big {} <= small {}",
        last.0, last.1
    );
}

/// Builds a random type-correct annotation by picking uniformly among
/// each vertex's feasible options, in topological order.
fn random_annotation(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    picks: &mut impl FnMut(usize) -> usize,
) -> Option<Annotation> {
    let mut ann = Annotation::empty(graph);
    let mut formats: Vec<Option<PhysFormat>> =
        graph.iter().map(|(_, n)| n.source_format()).collect();
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::Source { .. }) {
            continue;
        }
        let extra: Vec<Vec<PhysFormat>> = node
            .inputs
            .iter()
            .map(|i| formats[i.index()].into_iter().collect())
            .collect();
        let options = vertex_options(graph, id, octx.catalog, octx.plan, octx.model, &extra);
        // Keep only options reachable from the producers' formats.
        let feasible: Vec<_> = options
            .into_iter()
            .filter_map(|o| {
                let mut ts = Vec::new();
                for (j, input) in node.inputs.iter().enumerate() {
                    let from = formats[input.index()]?;
                    let m = graph.node(*input).mtype;
                    let (t, _) = transform_cost(&m, from, o.pin[j], octx.plan, octx.model)?;
                    ts.push(t);
                }
                Some((o, ts))
            })
            .collect();
        if feasible.is_empty() {
            return None;
        }
        let (o, ts) = &feasible[picks(feasible.len())];
        formats[id.index()] = Some(o.out_format);
        ann.set(
            id,
            VertexChoice {
                impl_id: o.impl_id,
                input_transforms: ts.clone(),
                output_format: o.out_format,
            },
        );
    }
    Some(ann)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE core soundness property: any sampled type-correct annotation
    /// of the mixed workload computes exactly the reference values.
    #[test]
    fn any_type_correct_annotation_matches_reference(seed in 0u64..5000) {
        let (reg, cl) = fixtures();
        let ctx = PlanContext::new(&reg, cl);
        let cat = small_catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = mixed_graph();
        let mut rng = seeded_rng(seed);
        let mut pick = |n: usize| {
            use rand::RngExt;
            rng.random_range(0..n)
        };
        if let Some(ann) = random_annotation(&g, &octx, &mut pick) {
            validate(&g, &ann, &ctx).expect("sampled annotation type-correct");
            check_plan_matches_reference(&g, &ann, seed);
        }
    }

    /// The DP optimum never costs more than a sampled annotation.
    #[test]
    fn dp_cost_lower_bounds_sampled_plans(seed in 0u64..5000) {
        let (reg, cl) = fixtures();
        let ctx = PlanContext::new(&reg, cl);
        let cat = small_catalog();
        let model = AnalyticalCostModel;
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = mixed_graph();
        let best = frontier_dp(&g, &octx).unwrap();
        let mut rng = seeded_rng(seed);
        let mut pick = |n: usize| {
            use rand::RngExt;
            rng.random_range(0..n)
        };
        if let Some(ann) = random_annotation(&g, &octx, &mut pick) {
            let cost = matopt_cost::plan_cost(&g, &ann, &ctx, &model).unwrap();
            prop_assert!(
                best.cost <= cost * (1.0 + 1e-9),
                "DP {} > sampled {}",
                best.cost,
                cost
            );
        }
    }
}
