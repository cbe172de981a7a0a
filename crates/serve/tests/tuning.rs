//! The measured throughput curve at the service boundary: there is no
//! dedicated entry point — a curve reaches a running service as a
//! [`CurveCostModel`] through [`PlanService::recalibrate`], the same
//! single-epoch-bump invalidation path every other model swap uses.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::{plan_cost, AnalyticalCostModel, CurveCostModel, ThroughputCurve};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_serve::{PlanService, PlanSource, ServeConfig};

/// A contrast curve: the measured shape of a throughput curve
/// exaggerated to paper scale — per-worker GEMMs below ~10¹⁰ flops run
/// far below the nominal rate, so strategies that shard a big product
/// into many small per-worker pieces get costed honestly instead of
/// optimistically. Synthetic on purpose: the test is about the plan
/// changing deterministically, not about this machine's rates.
fn contrast_model() -> CurveCostModel {
    CurveCostModel::new(ThroughputCurve::from_samples(&[(1e10, 0.05), (2e11, 32.0)]))
}

#[test]
fn recalibrating_under_a_curve_bumps_the_epoch_once_and_changes_the_plan() {
    let cluster = Cluster::simsql_like(10);
    let registry = ImplRegistry::paper_default();
    let service = PlanService::new(
        registry.clone(),
        FormatCatalog::paper_default().dense_only(),
        cluster,
        Box::new(AnalyticalCostModel),
        ServeConfig::default(),
    );
    // Plan-only: the paper-scale graph holds tens of gigabytes of sources.
    let graph = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(80))
        .expect("ffnn graph")
        .graph;

    let flat = service.plan(&graph).expect("plan under the flat model");
    assert_eq!(flat.source, PlanSource::Miss);
    assert_eq!(service.plan(&graph).expect("plan").source, PlanSource::Hit);

    let epoch0 = service.cache().epoch();
    service.recalibrate(Box::new(contrast_model()));
    assert_eq!(
        service.cache().epoch(),
        epoch0 + 1,
        "one model swap = exactly one epoch bump"
    );

    // Every cached plan was costed under the flat rate: re-plan.
    let curved = service.plan(&graph).expect("plan under the curve");
    assert_eq!(curved.source, PlanSource::Miss);
    assert_eq!(curved.fingerprint, flat.fingerprint);
    assert_ne!(
        curved.plan.annotation, flat.plan.annotation,
        "the contrast curve must change the chosen plan"
    );

    // Annotation inequality alone can be a tie-break artifact between
    // equal-cost plans; the decisive check is that the flat-model plan
    // is strictly worse once re-costed under the curve.
    let ctx = PlanContext::new(&registry, cluster);
    let model = contrast_model();
    let flat_under = plan_cost(&graph, &flat.plan.annotation, &ctx, &model).expect("re-cost");
    let curved_under = plan_cost(&graph, &curved.plan.annotation, &ctx, &model).expect("cost");
    assert!(
        flat_under > curved_under * 1.01,
        "flat plan {flat_under:.1}s vs curved plan {curved_under:.1}s under the curve"
    );
}
