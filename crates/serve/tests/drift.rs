//! Drift telemetry at the service boundary. Cost-model drift:
//! sustained out-of-band measured/predicted ratios bump the plan-cache
//! epoch exactly once, stale plans re-optimize, and recalibration
//! re-arms the monitor. Sparsity drift: an adaptive execution that has
//! to re-plan poisons the one cached entry it started from.

use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, Op, PhysFormat};
use matopt_cost::{CostModel, DriftConfig};
use matopt_engine::{reference_eval, AdaptiveConfig, DistRelation};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{MetricsRegistry, Obs, RingSink, Subsystem};
use matopt_serve::{PlanService, PlanSource, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn drift_config() -> DriftConfig {
    DriftConfig {
        ewma_alpha: 0.5,
        baseline_window: 3,
        min_observations: 4,
        band: 0.5,
    }
}

fn metered_service() -> PlanService {
    let config = ServeConfig {
        drift: drift_config(),
        ..Default::default()
    };
    let obs = Obs::with_metrics(Arc::new(RingSink::new(1024)), MetricsRegistry::new());
    PlanService::with_obs(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        config,
        obs,
    )
}

#[test]
fn sustained_drift_bumps_epoch_exactly_once_and_forces_a_replan() {
    let service = metered_service();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(8))
        .expect("ffnn graph")
        .graph;

    let planned = service.plan(&graph).expect("plan");
    assert_eq!(planned.source, PlanSource::Miss);
    let fp = planned.fingerprint;
    let epoch0 = service.cache().epoch();

    // In-band warmup: baseline ratio ≈ 2× predicted.
    let predicted = planned.plan.cost;
    for _ in 0..3 {
        assert!(!service.observe_runtime(fp, predicted, predicted * 2.0));
    }
    assert_eq!(service.cache().epoch(), epoch0);
    assert_eq!(service.plan(&graph).expect("plan").source, PlanSource::Hit);

    // Perturbed kernel timing: measurements land at 3× the calibrated
    // baseline. Exactly one bump, no matter how long it persists.
    let mut bumps = 0;
    for _ in 0..40 {
        if service.observe_runtime(fp, predicted, predicted * 6.0) {
            bumps += 1;
        }
    }
    assert_eq!(bumps, 1, "drift must latch after the first event");
    assert_eq!(service.cache().epoch(), epoch0 + 1);

    // The cached plan was born in the old epoch: next request re-plans.
    let replanned = service.plan(&graph).expect("plan");
    assert_eq!(replanned.source, PlanSource::Miss);
    assert_eq!(replanned.fingerprint, fp);
    assert_eq!(
        replanned.plan.cost, planned.plan.cost,
        "same graph, same model: the re-plan is bit-equal in cost"
    );
    assert_eq!(
        replanned.plan.annotation, planned.plan.annotation,
        "re-planning is an optimization event, never a semantic one"
    );

    // The drift event is visible in the metrics registry and the event
    // stream.
    let snap = service.metrics_snapshot().expect("metrics enabled");
    assert_eq!(snap.counter(Subsystem::CostModel, "drift_events"), Some(1));
    let events = service.obs().metrics().is_some();
    assert!(events);

    // Recalibration re-arms: a fresh baseline forms at the new ratio
    // and a further shift can fire again.
    service.recalibrate(CostModel::analytical());
    for _ in 0..3 {
        assert!(!service.observe_runtime(fp, predicted, predicted * 6.0));
    }
    let refired = (0..40).any(|_| service.observe_runtime(fp, predicted, predicted * 24.0));
    assert!(refired, "recalibrate must re-arm the latch");
}

#[test]
fn concurrent_observers_bump_the_epoch_exactly_once() {
    // The front door feeds observe_runtime from every execution worker.
    // N threads hammering the same fingerprint with drifted timings must
    // collapse to exactly one epoch bump (one re-plan storm averted) and
    // leave the monitor's EWMA coherent, not torn across writers.
    const THREADS: usize = 8;
    const ROUNDS: usize = 100;

    let service = metered_service();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(8))
        .expect("ffnn graph")
        .graph;
    let planned = service.plan(&graph).expect("plan");
    let fp = planned.fingerprint;
    let predicted = planned.plan.cost;
    let epoch0 = service.cache().epoch();

    // Serial in-band warmup establishes the baseline deterministically.
    for _ in 0..3 {
        assert!(!service.observe_runtime(fp, predicted, predicted * 2.0));
    }

    let bumps = std::sync::atomic::AtomicU32::new(0);
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let service = &service;
            let bumps = &bumps;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    if service.observe_runtime(fp, predicted, predicted * 6.0) {
                        bumps.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        bumps.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "{THREADS} racing observers must share one drift latch"
    );
    assert_eq!(
        service.cache().epoch(),
        epoch0 + 1,
        "exactly one epoch bump"
    );
    let snap = service.metrics_snapshot().expect("metrics enabled");
    assert_eq!(snap.counter(Subsystem::CostModel, "drift_events"), Some(1));

    // Still latched: a later serial observer cannot re-fire.
    for _ in 0..20 {
        assert!(!service.observe_runtime(fp, predicted, predicted * 6.0));
    }
    assert_eq!(service.cache().epoch(), epoch0 + 1);
}

#[test]
fn stable_ratios_never_invalidate_even_far_from_unity() {
    let service = metered_service();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(8))
        .expect("ffnn graph")
        .graph;
    let planned = service.plan(&graph).expect("plan");
    let epoch0 = service.cache().epoch();

    // A constant 50× gap between modeled-cluster predictions and
    // laptop wall time is calibration scale, not drift.
    for _ in 0..100 {
        assert!(!service.observe_runtime(
            planned.fingerprint,
            planned.plan.cost,
            planned.plan.cost * 50.0
        ));
    }
    assert_eq!(service.cache().epoch(), epoch0);
    assert_eq!(service.plan(&graph).expect("plan").source, PlanSource::Hit);
}

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
