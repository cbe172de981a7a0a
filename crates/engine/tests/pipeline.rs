//! Driver equivalence harness: the pool-driven,
//! out-of-topological-order executor ([`execute_plan`]) must produce
//! sink values **bit-identical** to the inline id-order walk
//! ([`execute_plan_serial`]) on every plan — completion order,
//! `Arc`-shared identity edges, and buffer retirement must never leak
//! into the numbers — and so must every other way of driving the shared
//! vertex step: the budgeted walk (half the unbudgeted peak, retaining
//! every value or only the sinks), the fault-tolerant executor
//! (disabled injector, and a seeded live fault schedule, unbudgeted and
//! streaming under half the peak) and the adaptive executor under a
//! threshold that never fires.
//!
//! The harness optimizes and runs 64 seeded random DAGs (square dense
//! matrices; matmuls, elementwise ops, transposes, scalings) plus the
//! two named workloads the rest of the suite leans on, comparing every
//! sink elementwise by `f64::to_bits`. The chaos harness in `chaos.rs`
//! covers fault injection in depth; `reference_eval` stays the
//! independent ground truth (`end_to_end.rs`).

use matopt_core::{
    BackoffPolicy, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, NodeId,
    NodeKind, Op, PhysFormat, PlanContext, TransformKind,
};
use matopt_cost::CostModel;
use matopt_engine::{
    execute_adaptive_planned, execute_fault_tolerant, execute_plan, execute_plan_serial,
    execute_plan_with, parse_fault_spec, AdaptiveConfig, DistRelation, ExecOptions, FaultInjector,
    FtConfig,
};
use matopt_graphs::{ffnn_w2_update_graph, two_level_inverse_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{EventKind, MemorySink, MetricValue, MetricsRegistry, Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64, locally: the structural draws must not depend on any
/// library's RNG evolution.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A random DAG over square dense matrices: every vertex is `n`×`n`, so
/// any operand combination type-checks and the structure can be drawn
/// freely. Ops are limited to kernels whose chunk accumulation order is
/// fixed, because the harness demands bit equality, not approximation.
fn random_square_dag(seed: u64, n: u64) -> ComputeGraph {
    let mut rng = Mix(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut g = ComputeGraph::new();
    let mtype = MatrixType::dense(n, n);
    let n_sources = 2 + rng.below(2);
    let mut pool: Vec<NodeId> = (0..n_sources)
        .map(|_| g.add_source(mtype, PhysFormat::Tile { side: 4 }))
        .collect();
    let n_computes = 5 + rng.below(6);
    for _ in 0..n_computes {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let v = match rng.below(8) {
            0 => g.add_op(Op::MatMul, &[a, b]),
            1 => g.add_op(Op::Add, &[a, b]),
            2 => g.add_op(Op::Sub, &[a, b]),
            3 => g.add_op(Op::Hadamard, &[a, b]),
            4 => g.add_op(Op::Transpose, &[a]),
            5 => g.add_op(Op::Relu, &[a]),
            6 => g.add_op(Op::Sigmoid, &[a]),
            _ => g.add_op(Op::ScalarMul(0.5), &[a]),
        }
        .expect("square dense ops are always well-typed");
        pool.push(v);
    }
    g
}

fn dense_inputs(graph: &ComputeGraph, seed: u64) -> HashMap<NodeId, DistRelation> {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let mut d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            if node.mtype.is_square() {
                for i in 0..node.mtype.rows as usize {
                    let v = d.get(i, i) + node.mtype.rows as f64 * 2.0;
                    d.set(i, i, v);
                }
            }
            rels.insert(id, DistRelation::from_dense(&d, *format).unwrap());
        }
    }
    rels
}

fn bits(rel: &DistRelation) -> Vec<u64> {
    rel.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

/// A drift threshold no misestimate reaches: the adaptive executor
/// runs the plan it was handed straight through.
fn never_replan() -> AdaptiveConfig {
    AdaptiveConfig {
        relative_error_threshold: f64::INFINITY,
        beam: 400,
    }
}

/// Asserts every sink of `graph` is elementwise bit-identical between
/// the inline walk and every other driver of the same plan: the pooled
/// pipeline, the walk under half the pipeline's peak as its budget
/// (retaining everything, and streaming), the fault-tolerant executor
/// with a disabled injector and
/// under the seeded fault schedule `seed` (crashes, stragglers,
/// transient errors, corruptions — no `oom`, which re-plans), also
/// streaming under that budget, and the adaptive executor when it
/// never re-plans. Returns the budgeted runs' spill count.
fn assert_pipeline_matches_serial(
    tag: &str,
    graph: &ComputeGraph,
    annotation: &matopt_core::Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    registry: &ImplRegistry,
    catalog: &FormatCatalog,
    seed: u64,
) -> u64 {
    let piped = execute_plan(graph, annotation, inputs, registry)
        .unwrap_or_else(|e| panic!("{tag}: pipelined run failed: {e}"));
    let serial = execute_plan_serial(graph, annotation, inputs, registry)
        .unwrap_or_else(|e| panic!("{tag}: serial run failed: {e}"));
    // The pipelined run retains every vertex by default, like the
    // serial walk.
    assert_eq!(piped.values.len(), serial.values.len(), "{tag}: values");
    assert!(piped.max_concurrency >= 1);
    assert!(piped.peak_resident_bytes > 0);

    let ctx = PlanContext::new(registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    let obs = Obs::disabled();
    let ft = FtConfig {
        retry: BackoffPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_attempts: 10,
        },
        ..FtConfig::default()
    };
    let budget = piped.peak_resident_bytes / 2;
    let mut runs = vec![("pipelined", piped.sinks)];
    let mut spills = 0;
    for (driver, retain_values) in [
        ("budgeted, retaining", true),
        ("budgeted, streaming", false),
    ] {
        let options = ExecOptions {
            retain_values,
            mem_budget: Some(budget),
            ..ExecOptions::default()
        };
        let run = execute_plan_with(graph, annotation, inputs, registry, &obs, options)
            .unwrap_or_else(|e| panic!("{tag}: {driver} run failed: {e}"));
        assert!(
            run.peak_resident_bytes <= budget,
            "{tag}: {driver} over budget"
        );
        spills += run.governor.spills;
        runs.push((driver, run.sinks));
    }
    let live = || FaultInjector::random(seed, graph.compute_count(), 2, 2);
    let streaming = ExecOptions {
        retain_values: false,
        mem_budget: Some(budget),
        ..ExecOptions::default()
    };
    for (driver, injector, options) in [
        (
            "fault-tolerant, disabled injector",
            FaultInjector::disabled(),
            ExecOptions::default(),
        ),
        (
            "fault-tolerant, live injector",
            live(),
            ExecOptions::default(),
        ),
        (
            "fault-tolerant, live injector, budgeted streaming",
            live(),
            streaming,
        ),
    ] {
        let budgeted = options.mem_budget.is_some();
        let run = execute_fault_tolerant(
            graph, annotation, inputs, &ctx, catalog, &model, injector, &ft, options, &obs,
        )
        .unwrap_or_else(|e| panic!("{tag}: {driver} run failed: {e}"));
        assert_eq!(run.replans, 0, "{tag}: {driver} re-planned");
        if budgeted {
            assert!(
                run.exec.peak_resident_bytes <= budget,
                "{tag}: {driver} over budget"
            );
            assert_eq!(
                run.exec.values.len(),
                run.exec.sinks.len(),
                "{tag}: {driver} returned more than its sinks"
            );
            spills += run.exec.governor.spills;
        }
        runs.push((driver, run.exec.sinks));
    }
    let adaptive = execute_adaptive_planned(
        graph,
        inputs,
        &ctx,
        catalog,
        &model,
        never_replan(),
        annotation,
        &obs,
    )
    .unwrap_or_else(|e| panic!("{tag}: adaptive run failed: {e}"));
    assert_eq!(adaptive.reoptimizations, 0, "{tag}: adaptive re-planned");
    runs.push(("adaptive", adaptive.sinks));

    for (driver, sinks) in &runs {
        assert_eq!(
            sinks.len(),
            serial.sinks.len(),
            "{tag}: {driver} sink set differs"
        );
        for (sink, rel) in &serial.sinks {
            assert_eq!(
                bits(&sinks[sink]),
                bits(rel),
                "{tag}: sink {sink} differs between the {driver} run and the serial walk"
            );
        }
    }
    spills
}

fn optimize(
    graph: &ComputeGraph,
    registry: &ImplRegistry,
    catalog: &FormatCatalog,
) -> matopt_core::Annotation {
    let ctx = PlanContext::new(registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    frontier_dp_beam(graph, &OptContext::new(&ctx, catalog, &model), 400)
        .expect("optimizable")
        .annotation
}

#[test]
fn pipelined_executor_is_bit_identical_on_64_random_dags() {
    let registry = ImplRegistry::paper_default();
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
    ]);
    let mut spills = 0;
    for seed in 0..64u64 {
        let graph = random_square_dag(seed, 12);
        let annotation = optimize(&graph, &registry, &catalog);
        let inputs = dense_inputs(&graph, 0xDA6 ^ seed);
        spills += assert_pipeline_matches_serial(
            &format!("dag#{seed}"),
            &graph,
            &annotation,
            &inputs,
            &registry,
            &catalog,
            seed,
        );
    }
    assert!(spills > 0, "no budgeted run spilled");
}

#[test]
fn pipelined_executor_matches_serial_on_named_workloads() {
    let registry = ImplRegistry::paper_default();
    let ffnn = ffnn_w2_update_graph(FfnnConfig::laptop(16))
        .expect("well-typed")
        .graph;
    let inverse = two_level_inverse_graph(16, 4).expect("well-typed").graph;
    let dense = FormatCatalog::paper_default().dense_only();
    let small = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::Tile { side: 8 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
    ]);
    for (tag, graph, catalog) in [("ffnn", ffnn, dense), ("inverse", inverse, small)] {
        let annotation = optimize(&graph, &registry, &catalog);
        let inputs = dense_inputs(&graph, 0xC0FFEE);
        let spills = assert_pipeline_matches_serial(
            tag,
            &graph,
            &annotation,
            &inputs,
            &registry,
            &catalog,
            0xFA17,
        );
        assert!(spills > 0, "{tag}: no budgeted run spilled");
    }
}

/// With retention off, non-sink buffers are retired as their consumers
/// finish: the outcome exposes only sink values, the sinks still match
/// the serial run exactly, and peak residency never exceeds the
/// retain-everything run's.
#[test]
fn streaming_retirement_keeps_sinks_exact_and_shrinks_residency() {
    let registry = ImplRegistry::paper_default();
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 4 },
        PhysFormat::RowStrip { height: 4 },
    ]);
    for seed in [3u64, 17, 40] {
        let graph = random_square_dag(seed, 12);
        let annotation = optimize(&graph, &registry, &catalog);
        let inputs = dense_inputs(&graph, 0xBEEF ^ seed);
        let retained = execute_plan(&graph, &annotation, &inputs, &registry).expect("runs");
        let streamed = execute_plan_with(
            &graph,
            &annotation,
            &inputs,
            &registry,
            &Obs::disabled(),
            ExecOptions {
                retain_values: false,
                ..Default::default()
            },
        )
        .expect("runs");
        assert_eq!(streamed.values.len(), streamed.sinks.len());
        for (sink, rel) in &retained.sinks {
            assert_eq!(
                streamed.sinks[sink].to_dense().data(),
                rel.to_dense().data(),
                "seed {seed}: sink {sink} differs under streaming retirement"
            );
        }
        assert!(
            streamed.peak_resident_bytes <= retained.peak_resident_bytes,
            "seed {seed}: streaming peak {} exceeds retained peak {}",
            streamed.peak_resident_bytes,
            retained.peak_resident_bytes
        );
    }
}

/// Every driver runs the same instrumented step: on the FFNN update,
/// the pooled pipeline, a budgeted walk at half the pipeline's peak, a
/// live-injector run (a 1x straggler at step 0, so nothing is
/// recomputed) and an adaptive run that never re-plans each emit one `impl` span per compute vertex and one `transform`
/// span per non-identity in-edge, and feed the same `kernel_us_<impl>`
/// histograms the same number of observations.
#[test]
fn every_driver_emits_the_same_spans_and_kernel_histograms() {
    let registry = ImplRegistry::paper_default();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(16))
        .expect("well-typed")
        .graph;
    let catalog = FormatCatalog::paper_default().dense_only();
    let annotation = optimize(&graph, &registry, &catalog);
    let inputs = dense_inputs(&graph, 0xC0FFEE);
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();

    let transforms = graph
        .iter()
        .filter_map(|(id, _)| annotation.choice(id))
        .flat_map(|c| c.input_transforms.iter())
        .filter(|t| t.kind != TransformKind::Identity)
        .count();
    assert!(transforms > 0, "the plan must reformat at least one edge");

    // (impl spans, transform spans, observations per kernel histogram)
    type Seen = (usize, usize, Vec<(String, u64)>);
    let observe = |run: &dyn Fn(&Obs)| -> Seen {
        let sink = Arc::new(MemorySink::new());
        let metrics = MetricsRegistry::new();
        run(&Obs::with_metrics(Arc::clone(&sink), Arc::clone(&metrics)));
        let events = sink.take();
        let spans = |name: &str| {
            events
                .iter()
                .filter(|e| {
                    e.subsystem == Subsystem::Executor
                        && e.name == name
                        && matches!(e.kind, EventKind::SpanBegin)
                })
                .count()
        };
        let kernels = metrics
            .snapshot()
            .metrics
            .iter()
            .filter(|m| m.subsystem == Subsystem::Executor && m.name.starts_with("kernel_us_"))
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => (m.name.clone(), h.count()),
                other => panic!("{} is not a histogram: {other:?}", m.name),
            })
            .collect();
        (spans("impl"), spans("transform"), kernels)
    };

    let pooled = observe(&|obs| {
        let options = ExecOptions::default();
        execute_plan_with(&graph, &annotation, &inputs, &registry, obs, options).expect("runs");
    });
    let peak = execute_plan(&graph, &annotation, &inputs, &registry)
        .expect("runs")
        .peak_resident_bytes;
    let budgeted = observe(&|obs| {
        let options = ExecOptions {
            mem_budget: Some(peak / 2),
            ..ExecOptions::default()
        };
        let out =
            execute_plan_with(&graph, &annotation, &inputs, &registry, obs, options).expect("runs");
        assert!(out.governor.spills > 0, "half the peak must spill");
    });
    let live = observe(&|obs| {
        let injector = parse_fault_spec("slow@0x1", 1, graph.compute_count()).expect("parses");
        execute_fault_tolerant(
            &graph,
            &annotation,
            &inputs,
            &ctx,
            &catalog,
            &model,
            injector,
            &FtConfig::default(),
            ExecOptions::default(),
            obs,
        )
        .expect("runs");
    });
    let adaptive = observe(&|obs| {
        let config = never_replan();
        execute_adaptive_planned(
            &graph,
            &inputs,
            &ctx,
            &catalog,
            &model,
            config,
            &annotation,
            obs,
        )
        .expect("runs");
    });

    assert_eq!(pooled.0, graph.compute_count(), "pooled impl spans");
    assert_eq!(pooled.1, transforms, "pooled transform spans");
    let total: u64 = pooled.2.iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, graph.compute_count(), "kernel observations");
    assert_eq!(budgeted, pooled, "budgeted walk vs pooled run");
    assert_eq!(live, pooled, "live-injector run vs pooled run");
    assert_eq!(adaptive, pooled, "adaptive run vs pooled run");
}
