//! Golden tests for the simulator's `Fail` outcomes (§8.2–8.3): plans
//! that over-broadcast must die with `OutOfMemory`, spill-heavy
//! all-tile plans must die with `OutOfDisk`, and both must report the
//! *first* vertex that crossed the limit.

use matopt_core::{
    Annotation, Cluster, ComputeGraph, ImplRegistry, MatrixType, NodeId, Op, PhysFormat,
    PlanContext, Transform, VertexChoice,
};
use matopt_cost::CostModel;
use matopt_engine::{simulate_plan, FailReason, SimOutcome};

/// Annotates `id` with the named implementation, identity transforms at
/// the given input formats, and the given output format.
fn choose(
    annotation: &mut Annotation,
    registry: &ImplRegistry,
    id: NodeId,
    impl_name: &str,
    input_formats: &[PhysFormat],
    output_format: PhysFormat,
) {
    let def = registry
        .by_name(impl_name)
        .unwrap_or_else(|| panic!("registry has {impl_name}"));
    annotation.set(
        id,
        VertexChoice {
            impl_id: def.id,
            input_transforms: input_formats
                .iter()
                .map(|f| Transform::identity(*f))
                .collect(),
            output_format,
        },
    );
}

/// A single 80k x 80k matmul forced onto `mm_single_local`: gathering
/// both operands (and the product) on one worker needs ~150 GB against
/// the 68 GB SimSQL worker, so the simulator must fail with
/// `OutOfMemory` at that vertex.
#[test]
fn over_broadcast_plan_fails_out_of_memory() {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(10);
    let model = CostModel::analytical();

    let mut g = ComputeGraph::new();
    let single = PhysFormat::SingleTuple;
    let a = g.add_source(MatrixType::dense(80_000, 80_000), single);
    let b = g.add_source(MatrixType::dense(80_000, 80_000), single);
    let mm = g.add_op(Op::MatMul, &[a, b]).expect("well-typed");

    let mut annotation = Annotation::empty(&g);
    choose(
        &mut annotation,
        &registry,
        mm,
        "mm_single_local",
        &[single, single],
        single,
    );

    let ctx = PlanContext::new(&registry, cluster);
    let report = simulate_plan(&g, &annotation, &ctx, &model).expect("simulates");
    match report.outcome {
        SimOutcome::Failed { vertex, reason } => {
            assert_eq!(vertex, mm, "must fail at the matmul itself");
            assert_eq!(reason, FailReason::OutOfMemory);
        }
        other => panic!("expected an out-of-memory failure, got {other:?}"),
    }
    assert!(report.outcome.failed());
    assert_eq!(report.outcome.seconds(), None);
    // The report stops at the failing step.
    assert_eq!(report.steps.last().map(|s| s.vertex), Some(mm));
}

/// A chain of tile-shuffle matmuls over 60k x 60k operands: each one
/// spills ~1.7 TB of partial tiles to worker scratch, and SimSQL never
/// reclaims scratch between jobs, so the *second* matmul pushes the
/// per-worker spill past the 300 GB disk and the simulator must fail
/// with `OutOfDisk` there — not at the first matmul, and not at the
/// end of the plan.
#[test]
fn spill_heavy_all_tile_plan_fails_out_of_disk_at_first_offender() {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(10);
    let model = CostModel::analytical();

    let tile = PhysFormat::Tile { side: 1_000 };
    let mut g = ComputeGraph::new();
    let n = 60_000;
    let a = g.add_source(MatrixType::dense(n, n), tile);
    let b = g.add_source(MatrixType::dense(n, n), tile);
    let c = g.add_source(MatrixType::dense(n, n), tile);
    let ab = g.add_op(Op::MatMul, &[a, b]).expect("well-typed");
    let abc = g.add_op(Op::MatMul, &[ab, c]).expect("well-typed");

    let mut annotation = Annotation::empty(&g);
    for id in [ab, abc] {
        choose(
            &mut annotation,
            &registry,
            id,
            "mm_tile_shuffle",
            &[tile, tile],
            tile,
        );
    }

    let ctx = PlanContext::new(&registry, cluster);
    let report = simulate_plan(&g, &annotation, &ctx, &model).expect("simulates");
    match report.outcome {
        SimOutcome::Failed { vertex, reason } => {
            assert_eq!(
                vertex, abc,
                "scratch must survive the first matmul and overflow at the second"
            );
            assert_eq!(reason, FailReason::OutOfDisk);
        }
        other => panic!("expected an out-of-disk failure, got {other:?}"),
    }
    assert_eq!(report.steps.last().map(|s| s.vertex), Some(abc));
}

/// The same spill-heavy plan on a scratch-reclaiming cluster
/// (PlinyCompute profile) survives: only the largest single operator's
/// footprint counts, and one matmul's spill fits on disk.
#[test]
fn scratch_reclaiming_cluster_survives_the_spill_heavy_plan() {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::plinycompute_like(10);
    let model = CostModel::analytical();

    let tile = PhysFormat::Tile { side: 1_000 };
    let mut g = ComputeGraph::new();
    let n = 60_000;
    let a = g.add_source(MatrixType::dense(n, n), tile);
    let b = g.add_source(MatrixType::dense(n, n), tile);
    let c = g.add_source(MatrixType::dense(n, n), tile);
    let ab = g.add_op(Op::MatMul, &[a, b]).expect("well-typed");
    let abc = g.add_op(Op::MatMul, &[ab, c]).expect("well-typed");

    let mut annotation = Annotation::empty(&g);
    for id in [ab, abc] {
        choose(
            &mut annotation,
            &registry,
            id,
            "mm_tile_shuffle",
            &[tile, tile],
            tile,
        );
    }

    let ctx = PlanContext::new(&registry, cluster);
    let report = simulate_plan(&g, &annotation, &ctx, &model).expect("simulates");
    assert!(
        !report.outcome.failed(),
        "reclaimed scratch must keep the plan alive, got {:?}",
        report.outcome
    );
}

/// On a cluster with no failure model, the expected-runtime simulation
/// is *exactly* the fault-free simulation — zero rates must not perturb
/// `simulate_plan`'s numbers by even an ulp.
#[test]
fn zero_fault_rates_leave_the_simulation_unchanged() {
    use matopt_engine::simulate_plan_with_recovery;
    use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
    use matopt_opt::{frontier_dp_beam, OptContext};

    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = matopt_core::FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(32))
        .expect("well-typed")
        .graph;
    let opt = frontier_dp_beam(&graph, &OptContext::new(&ctx, &catalog, &model), 2000)
        .expect("optimizable");

    let base = simulate_plan(&graph, &opt.annotation, &ctx, &model).expect("simulates");
    for policy in [
        matopt_core::RecoveryPolicy::Restart,
        matopt_core::RecoveryPolicy::Checkpoint,
        matopt_core::RecoveryPolicy::Lineage,
    ] {
        let r = simulate_plan_with_recovery(&graph, &opt.annotation, &ctx, &model, policy)
            .expect("simulates");
        assert_eq!(
            r.expected_overhead_seconds, 0.0,
            "{policy}: spurious overhead"
        );
        assert_eq!(
            r.outcome.seconds(),
            base.outcome.seconds(),
            "{policy}: zero rates changed the estimate"
        );
    }
}

/// With a failure model attached, every policy costs extra, and
/// restart (which replays the whole prefix on each crash) is the most
/// pessimistic of the three.
#[test]
fn fault_rates_add_policy_ordered_overhead() {
    use matopt_engine::simulate_plan_with_recovery;
    use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
    use matopt_opt::{frontier_dp_beam, OptContext};

    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(10).with_fault_rates(0.5, 0.05, 4.0);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = matopt_core::FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(32))
        .expect("well-typed")
        .graph;
    let opt = frontier_dp_beam(&graph, &OptContext::new(&ctx, &catalog, &model), 2000)
        .expect("optimizable");

    let overhead = |policy| {
        simulate_plan_with_recovery(&graph, &opt.annotation, &ctx, &model, policy)
            .expect("simulates")
            .expected_overhead_seconds
    };
    let restart = overhead(matopt_core::RecoveryPolicy::Restart);
    let checkpoint = overhead(matopt_core::RecoveryPolicy::Checkpoint);
    let lineage = overhead(matopt_core::RecoveryPolicy::Lineage);
    assert!(restart > 0.0 && checkpoint > 0.0 && lineage > 0.0);
    assert!(
        restart > checkpoint && restart > lineage,
        "restart ({restart:.2}s) must be the most pessimistic policy \
         (checkpoint {checkpoint:.2}s, lineage {lineage:.2}s)"
    );
}

/// `FailReason` renders exactly the §8 failure phrasing, and a failed
/// outcome renders as the tables' "Fail" cell.
#[test]
fn fail_reason_display_snapshots() {
    assert_eq!(FailReason::OutOfMemory.to_string(), "out of memory");
    assert_eq!(
        FailReason::OutOfDisk.to_string(),
        "out of intermediate-data space"
    );
    let failed = SimOutcome::Failed {
        vertex: NodeId(7),
        reason: FailReason::OutOfMemory,
    };
    assert_eq!(failed.to_string(), "Fail");
}
