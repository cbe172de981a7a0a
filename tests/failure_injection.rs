//! Failure injection: shrink cluster resources and check that (a) the
//! simulator reports the right runtime failures, and (b) the optimizer
//! routes around infeasible implementations rather than producing
//! plans that would crash.

use matopt_baselines::all_tile_plan;
use matopt_bench::Env;
use matopt_core::{Cluster, ComputeGraph, FormatCatalog, MatrixType, Op, PhysFormat, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{simulate_plan, FailReason, SimOutcome};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_opt::{frontier_dp_beam, OptContext, OptError};

/// Shrinking scratch space makes previously-fine shuffle plans die of
/// intermediate data, and the optimizer's plan adapts.
#[test]
fn shrinking_disk_kills_shuffle_plans() {
    let env = Env::new();
    let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(40_000))
        .unwrap()
        .graph;
    let mut cluster = Cluster::simsql_like(10);
    let ctx = env.ctx(cluster);
    let tiles = all_tile_plan(&g, &ctx, &env.model).unwrap();
    // Fine at the real 300 GB...
    assert!(!env.simulate(&g, &tiles, cluster).failed());
    // ...but dead at 20 GB scratch per worker.
    cluster.worker_disk_bytes = 20e9;
    match env.simulate(&g, &tiles, cluster) {
        SimOutcome::Failed { reason, .. } => assert_eq!(reason, FailReason::OutOfDisk),
        SimOutcome::Finished { .. } => panic!("expected an out-of-disk failure"),
    }
    // The optimizer still finds a plan that survives the tiny disk.
    let auto = env
        .auto_plan(&g, cluster, &FormatCatalog::paper_default().dense_only())
        .expect("plan exists");
    assert!(!env.simulate(&g, &auto.annotation, cluster).failed());
}

/// Shrinking RAM makes broadcast-style plans infeasible; the optimizer
/// either avoids them or honestly reports that no plan exists.
#[test]
fn shrinking_ram_disables_broadcasts() {
    let registry = matopt_core::ImplRegistry::paper_default();
    let model = CostModel::analytical();
    let mut g = ComputeGraph::new();
    let a = g.add_source(
        MatrixType::dense(100_000, 10_000),
        PhysFormat::RowStrip { height: 1000 },
    );
    let b = g.add_source(MatrixType::dense(10_000, 10_000), PhysFormat::SingleTuple);
    let _o = g.add_op(Op::MatMul, &[a, b]).unwrap();

    // With normal RAM the optimizer broadcasts the 800 MB single matrix.
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let cat = FormatCatalog::paper_default().dense_only();
    let octx = OptContext::new(&ctx, &cat, &model);
    let plan = frontier_dp_beam(&g, &octx, 2000).unwrap();
    let chosen = registry
        .get(
            plan.annotation
                .choice(matopt_core::NodeId(2))
                .unwrap()
                .impl_id,
        )
        .strategy;
    assert!(
        matches!(
            chosen,
            matopt_core::Strategy::MmRowstripBcastSingle | matopt_core::Strategy::MmTileBcast
        ),
        "expected a broadcast join, got {chosen:?}"
    );

    // With 500 MB of RAM per worker the broadcast no longer fits; the
    // optimizer must switch to a partitioned strategy.
    let mut tiny = cluster;
    tiny.worker_ram_bytes = 0.5e9;
    let tiny_ctx = PlanContext::new(&registry, tiny);
    let tiny_octx = OptContext::new(&tiny_ctx, &cat, &model);
    match frontier_dp_beam(&g, &tiny_octx, 2000) {
        Ok(plan) => {
            let s = registry
                .get(
                    plan.annotation
                        .choice(matopt_core::NodeId(2))
                        .unwrap()
                        .impl_id,
                )
                .strategy;
            assert!(
                !matches!(
                    s,
                    matopt_core::Strategy::MmRowstripBcastSingle
                        | matopt_core::Strategy::MmTileBcast
                        | matopt_core::Strategy::MmBcastSingleColstrip
                ),
                "broadcast chosen despite tiny RAM: {s:?}"
            );
        }
        Err(OptError::NoFeasiblePlan(_)) => {} // also acceptable
        Err(e) => panic!("unexpected optimizer error: {e}"),
    }
}

/// A malformed plan (missing annotation) is a typed error, not a crash.
#[test]
fn incomplete_annotation_is_a_plan_error() {
    let env = Env::new();
    let mut g = ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(1000, 1000), PhysFormat::SingleTuple);
    let _r = g.add_op(Op::Relu, &[a]).unwrap();
    let empty = matopt_core::Annotation::empty(&g);
    let ctx = env.ctx(Cluster::simsql_like(2));
    assert!(simulate_plan(&g, &empty, &ctx, &env.model).is_err());
}

/// The `with_unlimited_resources` escape hatch used by baseline
/// planners never leaks into feasibility checks of the real cluster.
#[test]
fn unlimited_planning_then_limited_simulation() {
    let env = Env::new();
    let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(160_000))
        .unwrap()
        .graph;
    let cluster = Cluster::simsql_like(10);
    let ctx = env.ctx(cluster);
    // all_tile plans against unlimited resources internally...
    let tiles = all_tile_plan(&g, &ctx, &env.model).unwrap();
    // ...and the plan is judged against the *real* cluster here.
    assert!(env.simulate(&g, &tiles, cluster).failed());
}
