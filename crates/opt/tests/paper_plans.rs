//! The plans of the five paper-scale graph families, pinned bit for bit.
//!
//! Each family is planned the way a `PlanService` miss plans it (the
//! extended registry, the paper's dense catalog, a ten-worker
//! SimSQL-like cluster) at two beam widths. The cost bits, the number
//! of joint states the beam dropped, and a digest of the whole
//! annotation must not move: a change to how Algorithm 4 evaluates its
//! recurrence may make it faster, never give a different answer.

use matopt_core::{
    fnv1a_64, format_words, Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry,
    PlanContext,
};
use matopt_cost::CostModel;
use matopt_graphs::{
    ffnn_full_pass_graph_autodiff, ffnn_train_step_graph_autodiff, ffnn_training_graph,
    ffnn_w2_update_graph_autodiff, two_level_inverse_graph, FfnnConfig,
};
use matopt_opt::{frontier_dp_beam, OptContext};

/// One family's graph at its base size.
fn family(name: &str) -> ComputeGraph {
    match name {
        "inverse" => two_level_inverse_graph(10_000, 2_000).map(|g| g.graph),
        "ffnn_w2" => {
            ffnn_w2_update_graph_autodiff(FfnnConfig::simsql_experiment(80_000)).map(|g| g.graph)
        }
        "ffnn_full" => {
            ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(80_000)).map(|g| g.graph)
        }
        "ffnn_training" => {
            ffnn_training_graph(FfnnConfig::simsql_experiment(80_000)).map(|g| g.graph)
        }
        "amazoncat" => ffnn_train_step_graph_autodiff(FfnnConfig::amazoncat(1000, 4000, false))
            .map(|g| g.graph),
        other => panic!("unknown family {other}"),
    }
    .expect("well-typed")
}

/// FNV-1a over every compute vertex's choice, in vertex order: its
/// index, implementation id, output format, and each in-edge's
/// transformation (kind and target format).
fn digest(graph: &ComputeGraph, annotation: &Annotation) -> u64 {
    let mut words = Vec::new();
    for (id, _) in graph.iter() {
        let Some(choice) = annotation.choice(id) else {
            continue;
        };
        words.push(id.index() as u64);
        words.push(u64::from(choice.impl_id.0));
        words.extend(format_words(choice.output_format));
        words.push(choice.input_transforms.len() as u64);
        for t in &choice.input_transforms {
            words.push(t.kind as u64);
            words.extend(format_words(t.to));
        }
    }
    fnv1a_64(&words)
}

/// `(family, beam, cost bits, beam_truncated, annotation digest)`. The
/// constants were computed by the planner's earlier, sort-based beam
/// selection: every later rewrite must reproduce them exactly.
#[rustfmt::skip]
const PINS: [(&str, usize, u64, usize, u64); 10] = [
    ("inverse",       64,   0x408604bf69446739, 14_092,  0x187491398f7fbce9),
    ("ffnn_w2",       64,   0x40964ba093cb8f67, 7_619,   0xdc2cdf13e38a79c0),
    ("ffnn_full",     64,   0x40a84a44fdf69948, 18_905,  0xbe1b9b10965ff913),
    ("ffnn_training", 64,   0x40a21443d0891408, 15_194,  0x988a970cb67c9c3a),
    ("amazoncat",     64,   0x407d2856a3901287, 12_410,  0x0ccc4286dce4f2a3),
    ("inverse",       4000, 0x40857d98bac710ca, 660_059, 0x48c9e2e209c7e35e),
    ("ffnn_w2",       4000, 0x40964ba093cb8f67, 161_972, 0xdc2cdf13e38a79c0),
    ("ffnn_full",     4000, 0x40a8389513fbbe4b, 686_477, 0x481cd3581fd4a06b),
    ("ffnn_training", 4000, 0x40a21443d0891408, 634_790, 0x988a970cb67c9c3a),
    ("amazoncat",     4000, 0x407d2856a3901287, 480_218, 0x0ccc4286dce4f2a3),
];

#[test]
fn the_five_paper_families_plan_exactly_as_pinned() {
    let registry = ImplRegistry::extended();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
    let catalog = FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &catalog, &model);
    for (name, beam, cost_bits, truncated, annotation) in PINS {
        let graph = family(name);
        let plan = frontier_dp_beam(&graph, &octx, beam).expect("plans");
        assert_eq!(
            (
                plan.cost.to_bits(),
                plan.beam_truncated,
                digest(&graph, &plan.annotation)
            ),
            (cost_bits, truncated, annotation),
            "{name} at beam {beam}: (cost bits, beam_truncated, annotation digest)"
        );
    }
}
