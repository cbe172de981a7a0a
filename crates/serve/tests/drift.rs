//! Sparsity drift at the service boundary: an adaptive execution that
//! has to re-plan poisons the one cached entry it started from.

use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, Op, PhysFormat};
use matopt_cost::CostModel;
use matopt_engine::{reference_eval, AdaptiveConfig, DistRelation};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_serve::{PlanService, PlanSource, ServeConfig};
use std::collections::HashMap;

/// Hadamard of two *identically patterned* sparse matrices: the
/// independence estimate (d²) the cached plan was costed under is badly
/// wrong (true density d), so the adaptive run re-plans its suffix —
/// and that is proof the cached entry must not be served again.
#[test]
fn adaptive_replan_poisons_the_cached_entry_it_started_from() {
    let csr = PhysFormat::CsrTile { side: 8 };
    let tile = PhysFormat::Tile { side: 8 };
    let service = PlanService::new(
        ImplRegistry::paper_default(),
        FormatCatalog::new(vec![
            PhysFormat::SingleTuple,
            tile,
            PhysFormat::RowStrip { height: 8 },
            csr,
            PhysFormat::CsrSingle,
        ]),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        ServeConfig::default(),
    );

    let mut g = ComputeGraph::new();
    let x = g.add_source(MatrixType::sparse(32, 32, 0.05), csr);
    let y = g.add_source(MatrixType::sparse(32, 32, 0.05), csr);
    let h = g.add_op(Op::Hadamard, &[x, y]).unwrap();
    let w = g.add_source(MatrixType::dense(32, 16), tile);
    let prod = g.add_op(Op::MatMul, &[h, w]).unwrap();
    let out = g.add_op(Op::Relu, &[prod]).unwrap();

    let mut rng = seeded_rng(17);
    let base = random_dense_normal(32, 32, &mut rng).map(|v| if v > 1.6 { v } else { 0.0 });
    let wdat = random_dense_normal(32, 16, &mut rng);
    let dense = HashMap::from([(x, base.clone()), (y, base), (w, wdat)]);
    let inputs: HashMap<_, _> = dense
        .iter()
        .map(|(id, d)| {
            let format = if *id == w { tile } else { csr };
            (*id, DistRelation::from_dense(d, format).unwrap())
        })
        .collect();

    assert_eq!(service.plan(&g).expect("plan").source, PlanSource::Miss);
    let run = service
        .execute_adaptive(&g, &inputs, AdaptiveConfig::default())
        .expect("adaptive run succeeds");
    assert_eq!(run.reoptimizations, 1, "exactly the Hadamard misestimate");
    assert_eq!(run.triggered_at, vec![h]);
    let stats = service.stats();
    assert_eq!(stats.hits, 1, "the run started from the cached plan");
    assert_eq!(stats.cache.poisoned, 1);
    assert_eq!(service.plan(&g).expect("plan").source, PlanSource::Miss);

    let expect = reference_eval(&g, &dense).expect("reference");
    assert!(run.sinks[&out].to_dense().approx_eq(&expect[&out], 1e-9));
}
