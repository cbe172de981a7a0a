//! Property-based cross-validation of the three optimization
//! algorithms: on randomly generated small compute DAGs, the frontier
//! dynamic program must find exactly the brute-force optimum, the tree
//! DP must agree on tree-shaped graphs, and beam truncation must be
//! harmless at generous widths.

use matopt_core::{
    validate, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId, Op,
    PhysFormat, PlanContext,
};
use matopt_cost::{plan_cost, CostModel};
use matopt_opt::{brute_force, frontier_dp, frontier_dp_beam, tree_dp, OptContext};
use proptest::prelude::*;

fn catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 1000 },
        PhysFormat::Tile { side: 2500 },
        PhysFormat::RowStrip { height: 1000 },
        PhysFormat::ColStrip { width: 1000 },
    ])
}

/// Random DAG generator: each new vertex applies a random op to random
/// existing vertices with compatible types. Square matrices keep every
/// binary op applicable.
fn random_dag(ops: Vec<u8>, shared: bool) -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let m = MatrixType::dense(10_000, 10_000);
    let a = g.add_source(m, PhysFormat::SingleTuple);
    let b = g.add_source(m, PhysFormat::Tile { side: 1000 });
    let mut pool: Vec<NodeId> = vec![a, b];
    for (i, code) in ops.iter().enumerate() {
        let x = pool[(*code as usize * 7 + i) % pool.len()];
        let y = pool[(*code as usize * 13 + i * 3) % pool.len()];
        let v = match code % 6 {
            0 => g.add_op(Op::MatMul, &[x, y]).unwrap(),
            1 => g.add_op(Op::Add, &[x, y]).unwrap(),
            2 => g.add_op(Op::Relu, &[x]).unwrap(),
            3 => g.add_op(Op::Transpose, &[x]).unwrap(),
            4 => g.add_op(Op::Hadamard, &[x, y]).unwrap(),
            _ => g.add_op(Op::Neg, &[x]).unwrap(),
        };
        if shared {
            pool.push(v);
        } else {
            // Linear chain: consume the previous result only.
            pool = vec![v];
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Frontier DP == brute force on small shared DAGs.
    #[test]
    fn frontier_equals_brute(ops in prop::collection::vec(0u8..12, 2..5)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = CostModel::analytical();
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, true);
        let f = frontier_dp(&g, &octx).expect("frontier plan");
        let b = brute_force(&g, &octx, None).expect("brute plan");
        prop_assert!(
            (f.cost - b.cost).abs() <= 1e-6 * f.cost.max(1.0),
            "frontier {} vs brute {}",
            f.cost,
            b.cost
        );
        validate(&g, &f.annotation, &ctx).expect("type-correct");
        // The claimed optimum re-costs identically.
        let recost = plan_cost(&g, &f.annotation, &ctx, &model).unwrap();
        prop_assert!((recost - f.cost).abs() <= 1e-6 * f.cost.max(1.0));
    }

    /// Tree DP == frontier DP == brute force on chains.
    #[test]
    fn tree_chain_agreement(ops in prop::collection::vec(0u8..12, 2..6)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = CostModel::analytical();
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, false);
        prop_assume!(g.is_tree_shaped());
        let t = tree_dp(&g, &octx).expect("tree plan");
        let f = frontier_dp(&g, &octx).expect("frontier plan");
        let b = brute_force(&g, &octx, None).expect("brute plan");
        prop_assert!((t.cost - f.cost).abs() <= 1e-6 * t.cost.max(1.0));
        prop_assert!((t.cost - b.cost).abs() <= 1e-6 * t.cost.max(1.0));
    }

    /// A generous beam changes nothing on these graphs.
    #[test]
    fn beam_is_harmless_at_width(ops in prop::collection::vec(0u8..12, 2..5)) {
        let reg = ImplRegistry::paper_default();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let cat = catalog();
        let model = CostModel::analytical();
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = random_dag(ops, true);
        let exact = frontier_dp(&g, &octx).expect("exact");
        let beamed = frontier_dp_beam(&g, &octx, 4000).expect("beamed");
        prop_assert!((exact.cost - beamed.cost).abs() <= 1e-9 * exact.cost.max(1.0));
    }
}

/// Widening the beam never worsens the plan on the FFNN backprop graph,
/// where it actually truncates. (Not a theorem: a wider beam keeps a
/// superset at one step only, so this pins the behaviour on this
/// graph.) The comparison is repeatable because the planner is — joint
/// tables are ordered vectors and every tie goes to the candidate
/// generated earliest, see `planning_is_deterministic_at_paper_scale`.
#[test]
fn beam_widening_is_monotone_on_ffnn() {
    use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
    let reg = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
    let cat = FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &cat, &model);
    let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(10_000))
        .unwrap()
        .graph;
    let mut last = f64::INFINITY;
    for beam in [50usize, 500, 5000] {
        let cost = frontier_dp_beam(&g, &octx, beam).unwrap().cost;
        assert!(
            cost <= last * 1.0 + 1e-9,
            "beam {beam} worsened the plan: {cost} > {last}"
        );
        last = cost;
    }
}

/// Planning the same graph again gives the same plan, bit for bit: same
/// annotation, same truncation count, same cost. Joint tables are
/// ordered vectors and ties go to the candidate generated earliest, so
/// nothing may depend on a hash map's iteration order — every `HashMap`
/// instance gets a fresh `RandomState`, so one process is enough to
/// catch it.
#[test]
fn planning_is_deterministic_at_paper_scale() {
    use matopt_graphs::{ffnn_full_pass_graph_autodiff, two_level_inverse_graph, FfnnConfig};
    let reg = ImplRegistry::extended();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
    let cat = FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &cat, &model);
    let graphs = [
        ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(80_000))
            .unwrap()
            .graph,
        two_level_inverse_graph(10_000, 2_000).unwrap().graph,
    ];
    for g in &graphs {
        let first = frontier_dp_beam(g, &octx, 4000).unwrap();
        assert!(
            first.beam_truncated > 0,
            "the beam must bite for ties to matter"
        );
        for _ in 0..2 {
            let again = frontier_dp_beam(g, &octx, 4000).unwrap();
            assert_eq!(again.annotation, first.annotation);
            assert_eq!(again.beam_truncated, first.beam_truncated);
            assert_eq!(again.cost.to_bits(), first.cost.to_bits());
        }
    }
}

/// Planning forward and backward as one graph never loses to planning
/// them apart. "Apart" is what a system without joint planning does:
/// the forward prefix optimized alone, then the tape optimized with
/// every forward vertex it consumes arriving as a source fixed in the
/// format the forward-only plan chose. The joint plan sees the gradient
/// consumers when it picks those boundary formats, so per scale it may
/// tie but not cost more, and over the scales it is strictly cheaper.
#[test]
fn joint_training_plan_never_costs_more_than_forward_plus_backward() {
    use matopt_core::{DiffRole, NodeKind};
    use matopt_graphs::{ffnn_training_graph, FfnnConfig};
    use std::collections::HashMap;

    const BEAM: usize = 200;
    let reg = ImplRegistry::extended();
    let model = CostModel::analytical();
    let laptop = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 16 },
        PhysFormat::RowStrip { height: 16 },
    ]);
    let paper = FormatCatalog::paper_default().dense_only();
    let (mut total_joint, mut total_separate) = (0.0, 0.0);
    for (cfg, workers, cat) in [
        (FfnnConfig::laptop(16), 4, &laptop),
        (FfnnConfig::laptop(32), 4, &laptop),
        (FfnnConfig::simsql_experiment(40), 10, &paper),
    ] {
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(workers));
        let octx = OptContext::new(&ctx, cat, &model);
        let t = ffnn_training_graph(cfg).unwrap();
        let joint = frontier_dp_beam(&t.graph, &octx, BEAM).unwrap().cost;

        // Autodiff appends the tape after the forward pass: roles are a
        // Forward|Shared prefix of length k, then Backward only.
        let k = t
            .roles
            .iter()
            .position(|r| *r == DiffRole::Backward)
            .unwrap();
        assert!(t.roles[k..].iter().all(|r| *r == DiffRole::Backward));

        let mut fwd = ComputeGraph::new();
        for (_, node) in t.graph.iter().take(k) {
            match &node.kind {
                NodeKind::Source { format } => {
                    fwd.add_source_named(node.mtype, *format, node.name.as_deref());
                }
                NodeKind::Compute { .. } => {
                    fwd.add_op_named(node.op().unwrap(), &node.inputs, node.name.as_deref())
                        .unwrap();
                }
            }
        }
        let fwd_plan = frontier_dp_beam(&fwd, &octx, BEAM).unwrap();

        let mut bwd = ComputeGraph::new();
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for (id, node) in t.graph.iter().skip(k) {
            let inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|input| {
                    *map.entry(*input).or_insert_with(|| {
                        assert!(input.index() < k, "only boundary vertices are unmapped");
                        let src = t.graph.node(*input);
                        let format = match src.kind {
                            NodeKind::Source { format } => format,
                            NodeKind::Compute { .. } => {
                                fwd_plan.annotation.choices[input.index()]
                                    .as_ref()
                                    .unwrap()
                                    .output_format
                            }
                        };
                        bwd.add_source_named(src.mtype, format, src.name.as_deref())
                    })
                })
                .collect();
            let mapped = bwd
                .add_op_named(node.op().unwrap(), &inputs, node.name.as_deref())
                .unwrap();
            map.insert(id, mapped);
        }
        let separate = fwd_plan.cost + frontier_dp_beam(&bwd, &octx, BEAM).unwrap().cost;

        assert!(
            joint <= separate * (1.0 + 1e-9),
            "hidden {}: joint {joint} vs separate {separate}",
            cfg.hidden
        );
        total_joint += joint;
        total_separate += separate;
    }
    assert!(
        total_joint < total_separate,
        "joint {total_joint} vs separate {total_separate}"
    );
}
