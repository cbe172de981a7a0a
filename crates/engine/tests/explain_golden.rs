//! Golden-output tests for `explain_plan` / `explain_analyze` on the
//! laptop-scale FFNN weight-update graph: the step labels, transform
//! names, and estimate/measurement ratios the CLI prints must stay
//! present and well-formed.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext, TransformKind};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::{explain_analyze, explain_plan, DistRelation, ExecOptions};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{EventKind, MemorySink, Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::sync::Arc;

fn laptop_plan() -> (
    matopt_core::ComputeGraph,
    matopt_core::Annotation,
    ImplRegistry,
) {
    let registry = ImplRegistry::paper_default();
    let ffnn = ffnn_w2_update_graph(FfnnConfig::laptop(32)).expect("type-correct");
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::paper_default().dense_only();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &catalog, &model);
    let opt = frontier_dp_beam(&ffnn.graph, &octx, 4000).expect("optimizes");
    assert_eq!(opt.beam_truncated, 0, "laptop graph must stay exact");
    assert_eq!(opt.exactness(), "exact");
    (ffnn.graph, opt.annotation, registry)
}

#[test]
fn explain_plan_golden_labels_and_transforms() {
    let (graph, annotation, registry) = laptop_plan();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
    let model = AnalyticalCostModel;
    let ex = explain_plan(&graph, &annotation, &ctx, &model).expect("explains");

    // One step per compute vertex, in topological order.
    let compute = graph
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Compute { .. }))
        .count();
    assert_eq!(ex.steps.len(), compute);
    assert!(ex.steps.windows(2).all(|w| w[0].vertex.0 < w[1].vertex.0));

    // The named weight-update vertices keep their labels.
    let labels: Vec<&str> = ex.steps.iter().map(|s| s.label.as_str()).collect();
    assert!(labels.contains(&"W2'"), "labels: {labels:?}");
    assert!(labels.contains(&"W3'"), "labels: {labels:?}");
    for s in &ex.steps {
        assert!(!s.label.is_empty());
        assert!(!s.impl_name.is_empty());
        assert!(s.impl_seconds.is_finite() && s.impl_seconds >= 0.0);
        assert!(s.transform_seconds.is_finite() && s.transform_seconds >= 0.0);
    }

    // At least one real reformat is part of the plan, and its transform
    // name shows up in the rendered explanation.
    assert!(ex.transform_count() >= 1);
    let text = ex.to_string();
    assert!(text.contains("plan outcome"));
    assert!(text.contains("edge:"));
    let has_named_transform = ex
        .steps
        .iter()
        .flat_map(|s| s.transforms.iter())
        .any(|t| t.kind != TransformKind::Identity && text.contains(&format!("{:?}", t.kind)));
    assert!(has_named_transform, "transform names missing from:\n{text}");
}

#[test]
fn explain_analyze_golden_ratios_and_residual_events() {
    let (graph, annotation, registry) = laptop_plan();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
    let model = AnalyticalCostModel;

    let mut rng = seeded_rng(7);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(
                id,
                DistRelation::from_dense(&d, *format).expect("chunkable"),
            );
        }
    }

    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(Arc::clone(&sink));
    let options = ExecOptions::default();
    let analysis =
        explain_analyze(&graph, &annotation, &inputs, &ctx, &model, options, &obs).expect("runs");

    assert!(!analysis.steps.is_empty());
    assert!(analysis.measured_total_seconds > 0.0);
    for s in &analysis.steps {
        assert!(
            s.ratio().is_finite() && s.ratio() > 0.0,
            "bad ratio for {}: {}",
            s.estimate.label,
            s.ratio()
        );
        assert!(s.actual_total() >= 0.0);
    }

    let text = analysis.to_string();
    assert!(text.contains("EXPLAIN ANALYZE"));
    assert!(text.contains("est/act"));
    assert!(text.contains("W2'"));

    // The run leaves a residual record per step plus executor spans.
    let events = sink.take();
    let residuals = events
        .iter()
        .filter(|e| e.subsystem == Subsystem::CostModel && e.name == "residual")
        .count();
    assert_eq!(residuals, analysis.steps.len());
    assert!(events.iter().any(|e| {
        e.subsystem == Subsystem::Executor
            && e.name == "impl"
            && matches!(e.kind, EventKind::SpanBegin)
    }));
}
