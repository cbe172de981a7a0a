//! Ablation studies over the optimizer's design choices, quantifying
//! the claims DESIGN.md calls out:
//!
//! 1. **Transform-cost integration** — the paper's key idea vs.
//!    SystemDS-style per-operator choice (§9): greedy planning with and
//!    without transformation costs in the objective, vs. the global DP.
//! 2. **Format-catalog size** — plan quality under the 10-, 16- and
//!    19-format catalogs of §8.4.
//! 3. **Beam width** — the `frontier_dp_beam` approximation knob: plan
//!    cost, planning time and dropped joint states as the joint-table
//!    cap varies, on the five paper-scale graph families.
//! 4. **Cost model** — plans chosen under the learned (regression)
//!    model vs. the analytic model, cross-scored.
//!
//! Run with: `cargo run --release -p matopt-bench --bin ablation`

use matopt_baselines::GreedyConfig;
use matopt_bench::{Env, FigTable};
use matopt_core::{Cluster, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::{plan_cost, CostModel, LearnedCostModel};
use matopt_engine::collect_samples;
use matopt_graphs::{
    ffnn_full_pass_graph_autodiff, ffnn_train_step_graph_autodiff, ffnn_training_graph,
    ffnn_w2_update_graph, ffnn_w2_update_graph_autodiff, matmul_chain_graph,
    two_level_inverse_graph, FfnnConfig, SizeSet,
};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use std::time::Instant;

fn main() {
    let env = Env::new();
    println!("{}", transform_cost_ablation(&env));
    println!("{}", catalog_ablation(&env));
    println!("{}", beam_ablation(&env));
    println!("{}", cost_model_ablation(&env));
}

/// How much of the optimizer's win comes from integrating
/// transformation costs and from global (vs. greedy) optimization?
fn transform_cost_ablation(env: &Env) -> FigTable {
    let cluster = Cluster::simsql_like(10);
    let ctx = env.ctx(cluster);
    let catalog = FormatCatalog::paper_default().dense_only();
    let workloads: Vec<(&str, matopt_core::ComputeGraph)> = vec![
        (
            "ffnn_w2_80K",
            ffnn_w2_update_graph(FfnnConfig::simsql_experiment(80_000))
                .unwrap()
                .graph,
        ),
        (
            "chain_set1",
            matmul_chain_graph(SizeSet::Set1, &cluster).unwrap().graph,
        ),
        (
            "inverse_2level",
            two_level_inverse_graph(10_000, 2_000).unwrap().graph,
        ),
    ];
    let mut rows = Vec::new();
    for (name, g) in &workloads {
        let greedy = |count_transform_cost: bool| -> f64 {
            let cfg = GreedyConfig {
                catalog: catalog.clone(),
                count_transform_cost,
                respect_memory: false,
                forbidden: Vec::new(),
                format_preference: None,
            };
            let ann = matopt_baselines::greedy_plan(g, &ctx, &env.model, &cfg).expect("plans");
            let unlimited = PlanContext {
                registry: ctx.registry,
                transforms: ctx.transforms,
                cluster: cluster.with_unlimited_resources(),
            };
            plan_cost(g, &ann, &unlimited, &env.model).expect("costs")
        };
        let octx = OptContext::new(&ctx, &catalog, &env.model);
        let dp = frontier_dp_beam(g, &octx, 4000).expect("plans").cost;
        let g_with = greedy(true);
        let g_without = greedy(false);
        rows.push(vec![
            name.to_string(),
            format!("{dp:.0}s"),
            format!("{g_with:.0}s ({:.2}x)", g_with / dp),
            format!("{g_without:.0}s ({:.2}x)", g_without / dp),
        ]);
    }
    FigTable {
        id: "Ablation 1",
        title: "Transform-cost integration: global DP vs greedy (with/without transform costs in the objective)",
        header: vec![
            "workload".into(),
            "global DP".into(),
            "greedy + transform costs".into(),
            "greedy, impl costs only (SystemDS-style)".into(),
        ],
        rows,
        notes: vec!["costs are model estimates on a 10-worker SimSQL-like cluster".into()],
    }
}

/// Plan quality as the format catalog shrinks (§8.4's catalogs).
fn catalog_ablation(env: &Env) -> FigTable {
    let cluster = Cluster::simsql_like(10);
    let catalogs = [
        ("single/block (10)", FormatCatalog::single_block()),
        (
            "single/strip/block (16)",
            FormatCatalog::single_strip_block(),
        ),
        ("all formats (19)", FormatCatalog::paper_default()),
    ];
    // A sparse-content workload whose input arrives *densely stored*:
    // exploiting the sparsity requires converting to a CSR layout, which
    // only the 19-format catalog offers. A dense workload shows the
    // (small) value of strips beyond blocks.
    let mut sparse_cfg = FfnnConfig::amazoncat(10_000, 4000, true);
    sparse_cfg.input_format = matopt_core::PhysFormat::ColStrip { width: 1000 };
    let sparse_g = matopt_graphs::ffnn_train_step_graph(sparse_cfg)
        .unwrap()
        .graph;
    let dense_g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(80_000))
        .unwrap()
        .graph;
    let mut rows = Vec::new();
    for (label, cat) in &catalogs {
        let pc = Cluster::plinycompute_like(5);
        let sparse_cost = env
            .auto_plan(&sparse_g, pc, cat)
            .map(|p| format!("{:.0}s", p.est_cost))
            .unwrap_or_else(|e| e.to_string());
        let dense_cost = env
            .auto_plan(&dense_g, cluster, cat)
            .map(|p| format!("{:.0}s", p.est_cost))
            .unwrap_or_else(|e| e.to_string());
        rows.push(vec![label.to_string(), dense_cost, sparse_cost]);
    }
    FigTable {
        id: "Ablation 2",
        title: "Format-catalog size vs plan quality",
        header: vec![
            "catalog".into(),
            "dense FFNN 80K (SimSQL, 10w)".into(),
            "sparse FFNN 10K batch (PC, 5w)".into(),
        ],
        rows,
        notes: vec![
            "the sparse-content workload (dense-stored input) needs the 19-format catalog's CSR layouts; the dense one gains little beyond blocks".into(),
        ],
    }
}

/// Beam width vs plan cost, planning time and dropped joint states on
/// the five paper-scale graph families the benchmark's `plan_miss`
/// workload plans, under the context `matopt serve` plans them in.
fn beam_ablation(env: &Env) -> FigTable {
    let cluster = Cluster::simsql_like(10);
    let registry = ImplRegistry::extended();
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::paper_default().dense_only();
    let octx = OptContext::new(&ctx, &catalog, &env.model);
    let ffnn = FfnnConfig::simsql_experiment(80_000);
    let families: Vec<(&str, matopt_core::ComputeGraph)> = vec![
        (
            "inverse",
            two_level_inverse_graph(10_000, 2_000).unwrap().graph,
        ),
        (
            "ffnn_w2",
            ffnn_w2_update_graph_autodiff(ffnn).unwrap().graph,
        ),
        (
            "ffnn_full",
            ffnn_full_pass_graph_autodiff(ffnn).unwrap().graph,
        ),
        ("ffnn_training", ffnn_training_graph(ffnn).unwrap().graph),
        (
            "amazoncat",
            ffnn_train_step_graph_autodiff(FfnnConfig::amazoncat(1000, 4000, false))
                .unwrap()
                .graph,
        ),
    ];
    let mut rows = Vec::new();
    for (name, g) in &families {
        for beam in [250usize, 1000, 4000, 16_000, 64_000] {
            let t0 = Instant::now();
            let plan = frontier_dp_beam(g, &octx, beam).expect("plans");
            rows.push(vec![
                name.to_string(),
                beam.to_string(),
                format!("{:.3}s", plan.cost),
                format!("{:.3}s", t0.elapsed().as_secs_f64()),
                plan.beam_truncated.to_string(),
            ]);
        }
    }
    FigTable {
        id: "Ablation 3",
        title: "Beam width on the five paper-scale graph families (every one truncates at every width)",
        header: vec![
            "graph".into(),
            "beam".into(),
            "plan cost".into(),
            "planning time".into(),
            "joint states dropped".into(),
        ],
        rows,
        notes: vec![
            "the serving default is 4000: flat for the FFNN families, 3.4% above beam 16000 on the two-level inverse".into(),
        ],
    }
}

/// Do the learned and analytic cost models choose compatible plans?
fn cost_model_ablation(env: &Env) -> FigTable {
    // Calibrate the learned model from real micro-benchmark runs.
    let cluster = Cluster::simsql_like(4);
    let samples = collect_samples(&[32, 64, 96, 128], 23, &cluster, &Obs::disabled());
    let learned = LearnedCostModel::fit(&samples);
    let ctx = env.ctx(cluster);
    let catalog = FormatCatalog::new(vec![
        matopt_core::PhysFormat::SingleTuple,
        matopt_core::PhysFormat::Tile { side: 8 },
        matopt_core::PhysFormat::RowStrip { height: 8 },
        matopt_core::PhysFormat::ColStrip { width: 8 },
    ]);
    // A laptop-scale workload (the learned model was trained at this
    // scale, so its predictions are interpolations, not extrapolations).
    let cfg = FfnnConfig {
        batch: 64,
        features: 96,
        hidden: 32,
        labels: 16,
        input_sparsity: 1.0,
        learning_rate: 0.05,
        input_format: matopt_core::PhysFormat::RowStrip { height: 8 },
        w1_format: matopt_core::PhysFormat::Tile { side: 8 },
        w_format: matopt_core::PhysFormat::Tile { side: 8 },
    };
    let g = ffnn_w2_update_graph(cfg).unwrap().graph;
    let with = |model: &dyn CostModel| -> (f64, matopt_core::Annotation) {
        let octx = OptContext::new(&ctx, &catalog, model);
        let p = frontier_dp_beam(&g, &octx, 2000).expect("plans");
        (p.cost, p.annotation)
    };
    let (analytic_cost, analytic_plan) = with(&env.model);
    let (learned_cost, learned_plan) = with(&learned);
    // Cross-score: the learned model's plan, priced by the analytic
    // model (and vice versa) — agreement means the regression learned
    // the same trade-offs.
    let analytic_of_learned = plan_cost(&g, &learned_plan, &ctx, &env.model).unwrap();
    let learned_of_analytic = plan_cost(&g, &analytic_plan, &ctx, &learned).unwrap();
    FigTable {
        id: "Ablation 4",
        title: "Learned (regression) vs analytic cost model, laptop-scale FFNN",
        header: vec!["quantity".into(), "value".into()],
        rows: vec![
            vec!["analytic model: own plan cost".into(), format!("{analytic_cost:.4}s")],
            vec!["learned model: own plan cost".into(), format!("{learned_cost:.4}s")],
            vec![
                "learned plan scored by analytic model".into(),
                format!(
                    "{analytic_of_learned:.4}s ({:.2}x the analytic optimum)",
                    analytic_of_learned / analytic_cost
                ),
            ],
            vec![
                "analytic plan scored by learned model".into(),
                format!("{learned_of_analytic:.4}s"),
            ],
            vec![
                "calibration samples".into(),
                format!("{} (specialized regressions: {})", samples.len(), learned.specialized_models()),
            ],
        ],
        notes: vec![
            "the learned model is fitted from real executor runs (collect_samples) via the library's own LU solver".into(),
        ],
    }
}
