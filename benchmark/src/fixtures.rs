//! Generated inputs shared by the workloads and the layer probes:
//! graphs, plans, seeded matrices, serial references and the
//! correctness oracle. Everything the product sees is built here from
//! `--seed`; the product never sees the seed itself.

use matopt_core::{
    validate, Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId,
    NodeKind, Op, PhysFormat, PlanContext,
};
use matopt_cost::{plan_cost, AnalyticalCostModel};
use matopt_engine::{execute_plan_serial, DistRelation, ExecOutcome};
use matopt_graphs::{
    ffnn_full_pass_graph_autodiff, ffnn_train_step_graph_autodiff, ffnn_training_graph,
    ffnn_w2_update_graph, ffnn_w2_update_graph_autodiff, two_level_inverse_graph, FfnnConfig,
};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_opt::{frontier_dp_beam, OptContext, Optimized};
use std::collections::HashMap;

/// Beam width `matopt serve` and `matopt plan` run with.
pub const BEAM: usize = 4000;

/// SplitMix64: the benchmark's own seeded stream for request order and
/// size perturbations (matrix payloads use the product's `seeded_rng`).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Registry, cost model and cluster the laptop-scale execution cases
/// are planned against (as `bench_pr3`/`bench_pr4` planned them).
pub struct ExecEnv {
    pub registry: ImplRegistry,
    pub model: AnalyticalCostModel,
    pub cluster: Cluster,
}

impl ExecEnv {
    pub fn new() -> Self {
        ExecEnv {
            registry: ImplRegistry::extended(),
            model: AnalyticalCostModel,
            cluster: Cluster::simsql_like(4),
        }
    }

    pub fn ctx(&self) -> PlanContext<'_> {
        PlanContext::new(&self.registry, self.cluster)
    }
}

/// One graph ready to execute: plan, inputs, and the serial reference
/// its sinks must match bit for bit.
pub struct ExecCase {
    pub name: &'static str,
    pub graph: ComputeGraph,
    pub plan: Optimized,
    pub inputs: HashMap<NodeId, DistRelation>,
    /// `to_bits` of every sink of `execute_plan_serial`, by sink id.
    pub reference: Vec<(NodeId, Vec<u64>)>,
}

fn bits(rel: &DistRelation) -> Vec<u64> {
    rel.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

/// The sinks of `outcome` as comparable bit patterns.
pub fn sink_bits(graph: &ComputeGraph, outcome: &ExecOutcome) -> Vec<(NodeId, Vec<u64>)> {
    graph
        .sinks()
        .into_iter()
        .map(|s| (s, outcome.sinks.get(&s).map(bits).unwrap_or_default()))
        .collect()
}

/// The oracle for executions: every sink `to_bits`-equal to the serial
/// reference.
pub fn sinks_match(
    reference: &[(NodeId, Vec<u64>)],
    sinks: &HashMap<NodeId, DistRelation>,
) -> bool {
    reference.iter().all(|(sink, want)| {
        sinks.get(sink).is_some_and(|rel| {
            let got = rel.to_dense();
            got.data().len() == want.len()
                && got.data().iter().zip(want).all(|(g, w)| g.to_bits() == *w)
        })
    })
}

/// The oracle for plans: the annotation is type-correct and re-costs to
/// the cost the optimizer claimed (within 1e-6 relative).
pub fn plan_checks_out(
    graph: &ComputeGraph,
    plan: &Optimized,
    ctx: &PlanContext<'_>,
    model: &AnalyticalCostModel,
) -> bool {
    validate(graph, &plan.annotation, ctx).is_ok()
        && plan_cost(graph, &plan.annotation, ctx, model)
            .is_ok_and(|c| (c - plan.cost).abs() <= 1e-6 * plan.cost.abs().max(1.0))
}

/// Seeded dense inputs for every source; square sources get a boosted
/// diagonal so the inverse graphs stay well conditioned.
pub fn make_inputs(graph: &ComputeGraph, seed: u64) -> HashMap<NodeId, DistRelation> {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let (rows, cols) = (node.mtype.rows as usize, node.mtype.cols as usize);
            let mut d = random_dense_normal(rows, cols, &mut rng);
            if node.mtype.is_square() {
                for i in 0..rows {
                    let v = d.get(i, i) + rows as f64 * 2.0;
                    d.set(i, i, v);
                }
            }
            let rel = DistRelation::from_dense(&d, *format).expect("source format chunks its type");
            rels.insert(id, rel);
        }
    }
    rels
}

/// `ffnn_w2_512`: batch 256, 512 features, 512 hidden, all `Tile{128}`.
pub fn ffnn_w2_512_graph() -> ComputeGraph {
    let tile = PhysFormat::Tile { side: 128 };
    let cfg = FfnnConfig {
        input_format: tile,
        w1_format: tile,
        w_format: tile,
        batch: 256,
        features: 512,
        hidden: 512,
        ..FfnnConfig::laptop(512)
    };
    ffnn_w2_update_graph(cfg).expect("well-typed").graph
}

/// `chain_512`: six 512² `Tile{128}` sources, seven multiplies sharing
/// T1 and T2 (the §8.2 chain's sharing structure at laptop scale).
pub fn chain_512_graph() -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let mt = MatrixType::dense(512, 512);
    let fmt = PhysFormat::Tile { side: 128 };
    let s: Vec<NodeId> = ["A", "B", "C", "D", "E", "F"]
        .iter()
        .map(|name| g.add_source_named(mt, fmt, Some(name)))
        .collect();
    let mm = |g: &mut ComputeGraph, a, b, name| {
        g.add_op_named(Op::MatMul, &[a, b], name)
            .expect("square multiply")
    };
    let t1 = mm(&mut g, s[0], s[1], Some("T1"));
    let t2 = mm(&mut g, s[2], s[3], Some("T2"));
    let t1e = mm(&mut g, t1, s[4], None);
    let t1t2 = mm(&mut g, t1, t2, None);
    let left = mm(&mut g, t1e, t1t2, None);
    let t2f = mm(&mut g, t2, s[5], None);
    mm(&mut g, left, t2f, Some("O"));
    g
}

pub fn inverse_128_graph() -> ComputeGraph {
    two_level_inverse_graph(128, 32).expect("well-typed").graph
}

pub fn ffnn_train_64_graph() -> ComputeGraph {
    ffnn_training_graph(FfnnConfig::laptop(64))
        .expect("well-typed")
        .graph
}

pub fn ffnn_small_graph(hidden: u64) -> ComputeGraph {
    ffnn_w2_update_graph_autodiff(FfnnConfig::laptop(hidden))
        .expect("well-typed")
        .graph
}

/// The format catalog each laptop graph is planned over (the ones the
/// earlier per-PR benches used for the same graphs).
fn exec_catalog(name: &str) -> FormatCatalog {
    let formats = |side: u64| {
        vec![
            PhysFormat::SingleTuple,
            PhysFormat::Tile { side },
            PhysFormat::RowStrip { height: side },
            PhysFormat::ColStrip { width: side },
        ]
    };
    match name {
        "chain_512" => FormatCatalog::new(formats(128)),
        "inverse_128" => {
            let mut f = formats(32);
            f.insert(2, PhysFormat::Tile { side: 64 });
            FormatCatalog::new(f)
        }
        _ => FormatCatalog::paper_default().dense_only(),
    }
}

/// Plans `graph`, generates its inputs from `seed`, and computes the
/// serial reference.
pub fn exec_case(env: &ExecEnv, name: &'static str, graph: ComputeGraph, seed: u64) -> ExecCase {
    let ctx = env.ctx();
    let catalog = exec_catalog(name);
    let octx = OptContext::new(&ctx, &catalog, &env.model);
    let plan = frontier_dp_beam(&graph, &octx, BEAM).expect("laptop graph is optimizable");
    let inputs = make_inputs(&graph, seed);
    let reference = serial_reference(env, &graph, &plan.annotation, &inputs);
    ExecCase {
        name,
        graph,
        plan,
        inputs,
        reference,
    }
}

/// Sink bits of the strictly serial walk — the oracle's ground truth.
pub fn serial_reference(
    env: &ExecEnv,
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
) -> Vec<(NodeId, Vec<u64>)> {
    let out = execute_plan_serial(graph, annotation, inputs, &env.registry)
        .expect("serial reference runs");
    sink_bits(graph, &out)
}

/// The five paper-scale graph families of `plan_miss`, in request
/// order. `r` perturbs one dimension so no two requests of a run share
/// a fingerprint; the steps are small enough (≤ 0.6 % over a run) that
/// optimizer work per request stays put across seeds.
pub const PAPER_FAMILIES: [&str; 5] = [
    "inverse",
    "ffnn_w2",
    "ffnn_full",
    "ffnn_training",
    "amazoncat",
];

pub fn paper_graph(family: &str, r: u64) -> ComputeGraph {
    match family {
        "inverse" => two_level_inverse_graph(10_000 + r, 2_000).map(|g| g.graph),
        "ffnn_w2" => ffnn_w2_update_graph_autodiff(FfnnConfig::simsql_experiment(80_000 + 8 * r))
            .map(|g| g.graph),
        "ffnn_full" => ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(80_000 + 8 * r))
            .map(|g| g.graph),
        "ffnn_training" => {
            ffnn_training_graph(FfnnConfig::simsql_experiment(80_000 + 8 * r)).map(|g| g.graph)
        }
        "amazoncat" => ffnn_train_step_graph_autodiff(FfnnConfig::amazoncat(1000, 4000 + r, false))
            .map(|g| g.graph),
        other => panic!("unknown paper graph family {other}"),
    }
    .expect("well-typed")
}
