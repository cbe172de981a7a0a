//! The fleet's worker caches hold *values*, not vertices: a producer
//! read in two physical formats, a fleet reused across input sets, and
//! two runs sharing one fleet at once all stay bit-exact against the
//! serial in-process walk; a long-lived fleet's caches stop growing; a
//! kernel that fails on a worker, or a vertex whose annotated output
//! format its type rule does not give, is the vertex's error, not a
//! death.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use matopt_core::{
    Annotation, BackoffPolicy, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType,
    NodeId, NodeKind, Op, PhysFormat, PlanContext, Strategy, Transform, TransformKind,
    VertexChoice,
};
use matopt_cost::CostModel;
use matopt_engine::{
    execute_fault_tolerant, execute_plan, execute_plan_serial, execute_plan_with, parse_fault_spec,
    DistRelation, ExecError, ExecOptions, ExecOutcome, FtConfig, RemoteVertexExec,
};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_worker::{FleetConfig, WorkerFleet};

fn fleet_config(workers: u32) -> FleetConfig {
    FleetConfig {
        workers,
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 8,
        restart: BackoffPolicy {
            base_ms: 5,
            cap_ms: 40,
            max_attempts: 6,
        },
        worker_bin: std::path::PathBuf::from(env!("CARGO_BIN_EXE_matopt-workerd")),
        obs: None,
        seed: 0xfa1_0e5,
    }
}

fn fleet(workers: u32) -> Arc<WorkerFleet> {
    WorkerFleet::spawn(fleet_config(workers)).expect("fleet spawns")
}

fn plan(graph: &ComputeGraph, catalog: &FormatCatalog) -> Annotation {
    let registry = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, catalog, &model);
    frontier_dp_beam(graph, &octx, 2000)
        .expect("optimizable")
        .annotation
}

fn inputs(graph: &ComputeGraph, seed: u64) -> HashMap<NodeId, DistRelation> {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            rels.insert(id, DistRelation::from_dense(&d, *format).expect("source"));
        }
    }
    rels
}

/// Every sink of the serial in-process walk, as bits.
fn serial_sinks(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
) -> HashMap<NodeId, DenseMatrix> {
    execute_plan_serial(graph, annotation, inputs, &ImplRegistry::paper_default())
        .expect("serial walk")
        .sinks
        .into_iter()
        .map(|(id, rel)| (id, rel.to_dense()))
        .collect()
}

/// Runs the plan on `fleet` under `mem_budget`.
fn remote_run(
    fleet: &Arc<WorkerFleet>,
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    mem_budget: Option<u64>,
) -> ExecOutcome {
    execute_plan_with(
        graph,
        annotation,
        inputs,
        &ImplRegistry::paper_default(),
        &Obs::disabled(),
        ExecOptions {
            mem_budget,
            remote: Some(Arc::clone(fleet) as Arc<dyn RemoteVertexExec>),
            ..ExecOptions::default()
        },
    )
    .expect("remote run")
}

/// Runs the plan on `fleet`; `true` iff every sink equals `want` bit
/// for bit.
fn remote_matches(
    fleet: &Arc<WorkerFleet>,
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    want: &HashMap<NodeId, DenseMatrix>,
) -> bool {
    same_bits(&remote_run(fleet, graph, annotation, inputs, None), want)
}

/// `true` iff every sink of `out` equals `want` bit for bit.
fn same_bits(out: &ExecOutcome, want: &HashMap<NodeId, DenseMatrix>) -> bool {
    out.sinks.len() == want.len()
        && out.sinks.iter().all(|(id, rel)| {
            want.get(id).is_some_and(|w| {
                let got = rel.to_dense();
                got.data().len() == w.data().len()
                    && got
                        .data()
                        .iter()
                        .zip(w.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

/// Producers whose consumers receive them in more than one format.
fn multi_format_producers(graph: &ComputeGraph, annotation: &Annotation) -> usize {
    let format_of = |u: NodeId| match &graph.node(u).kind {
        NodeKind::Source { format } => *format,
        NodeKind::Compute { .. } => annotation.choice(u).expect("annotated").output_format,
    };
    let mut delivered: HashMap<NodeId, Vec<PhysFormat>> = HashMap::new();
    for (v, node) in graph.iter() {
        let Some(choice) = annotation.choice(v) else {
            continue;
        };
        for (u, t) in node.inputs.iter().zip(&choice.input_transforms) {
            let to = if t.kind == TransformKind::Identity {
                format_of(*u)
            } else {
                t.to
            };
            let seen = delivered.entry(*u).or_default();
            if !seen.contains(&to) {
                seen.push(to);
            }
        }
    }
    delivered.values().filter(|f| f.len() > 1).count()
}

/// `ffnn_w2` at `batch × features → hidden`, every source in
/// `Tile{side}`, planned over the dense catalog.
fn ffnn_w2(batch: u64, features: u64, hidden: u64, side: u64) -> (ComputeGraph, Annotation) {
    let tile = PhysFormat::Tile { side };
    let cfg = FfnnConfig {
        input_format: tile,
        w1_format: tile,
        w_format: tile,
        batch,
        features,
        hidden,
        ..FfnnConfig::laptop(hidden)
    };
    let graph = ffnn_w2_update_graph(cfg).expect("well-typed").graph;
    let annotation = plan(&graph, &FormatCatalog::paper_default().dense_only());
    (graph, annotation)
}

/// The benchmark's fan-out probe graph, `ffnn_w2_512`: its plan reads
/// five producers in more than one format, and a vertex-keyed cache
/// returned wrong sinks on a third to a half of one-shot runs.
fn ffnn_w2_512() -> (ComputeGraph, Annotation) {
    ffnn_w2(256, 512, 512, 128)
}

/// The same family small enough to run many times.
fn ffnn_w2_128() -> (ComputeGraph, Annotation) {
    ffnn_w2(64, 128, 128, 32)
}

/// Six `Tile{128}` 512² sources, seven multiplies sharing `T1` and `T2`
/// — the benchmark's bytes-bound fleet graph.
fn chain_512() -> (ComputeGraph, Annotation) {
    let mut g = ComputeGraph::new();
    let mt = MatrixType::dense(512, 512);
    let fmt = PhysFormat::Tile { side: 128 };
    let s: Vec<NodeId> = (0..6).map(|_| g.add_source(mt, fmt)).collect();
    let mut mm = |a, b| g.add_op(Op::MatMul, &[a, b]).expect("square multiply");
    let t1 = mm(s[0], s[1]);
    let t2 = mm(s[2], s[3]);
    let t1e = mm(t1, s[4]);
    let t1t2 = mm(t1, t2);
    let left = mm(t1e, t1t2);
    let t2f = mm(t2, s[5]);
    mm(left, t2f);
    let formats = vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 128 },
        PhysFormat::RowStrip { height: 128 },
        PhysFormat::ColStrip { width: 128 },
    ];
    let annotation = plan(&g, &FormatCatalog::new(formats));
    (g, annotation)
}

/// The worker cache used to be keyed by producing vertex, so a producer
/// shipped in one format was served, as `Cached`, to a consumer that
/// wanted another: sinks diverged or a worker panicked.
#[test]
fn a_producer_read_in_two_formats_is_bit_exact_every_time() {
    let (graph, annotation) = ffnn_w2_512();
    assert!(
        multi_format_producers(&graph, &annotation) > 0,
        "the plan no longer reads any producer in two formats"
    );
    let inputs = inputs(&graph, 11);
    let want = serial_sinks(&graph, &annotation, &inputs);
    for run in 0..8 {
        let fleet = fleet(2);
        assert!(
            remote_matches(&fleet, &graph, &annotation, &inputs, &want),
            "one-shot run {run} diverged from the serial walk"
        );
        fleet.shutdown();
    }
}

/// A reused fleet used to serve a later run the earlier run's values,
/// cached under the same vertex ids.
#[test]
fn one_fleet_runs_three_input_sets_bit_exact() {
    let (graph, annotation) = ffnn_w2_128();
    let fleet = fleet(2);
    for seed in [21, 22, 23] {
        let inputs = inputs(&graph, seed);
        let want = serial_sinks(&graph, &annotation, &inputs);
        assert!(
            remote_matches(&fleet, &graph, &annotation, &inputs, &want),
            "input set {seed} diverged on a reused fleet"
        );
    }
    fleet.shutdown();
}

#[test]
fn two_runs_sharing_a_fleet_at_once_are_both_bit_exact() {
    let (graph, annotation) = ffnn_w2_128();
    let fleet = fleet(2);
    let cases: Vec<_> = [31, 32]
        .into_iter()
        .map(|seed| {
            let inputs = inputs(&graph, seed);
            let want = serial_sinks(&graph, &annotation, &inputs);
            (inputs, want)
        })
        .collect();
    let start = std::sync::Barrier::new(cases.len());
    std::thread::scope(|scope| {
        for (inputs, want) in &cases {
            let (fleet, graph, annotation, start) = (&fleet, &graph, &annotation, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..3 {
                    assert!(
                        remote_matches(fleet, graph, annotation, inputs, want),
                        "concurrent run diverged in round {round}"
                    );
                }
            });
        }
    });
    fleet.shutdown();
}

/// A budgeted run walks inline and spills; through a fleet, a spilled
/// and reloaded value is a new `Arc`, so the workers are shipped it
/// again rather than served a stale copy.
#[test]
fn a_budgeted_run_spills_and_stays_bit_exact_through_a_fleet() {
    let (graph, annotation) = ffnn_w2_128();
    let inputs = inputs(&graph, 41);
    let want = serial_sinks(&graph, &annotation, &inputs);
    let registry = ImplRegistry::paper_default();
    let peak = execute_plan(&graph, &annotation, &inputs, &registry)
        .expect("unbudgeted run")
        .peak_resident_bytes;
    let fleet = fleet(2);
    let out = remote_run(&fleet, &graph, &annotation, &inputs, Some(peak / 2));
    fleet.shutdown();
    assert!(out.governor.spills > 0, "half the peak never spilled");
    assert!(same_bits(&out, &want), "budgeted remote run diverged");
}

/// A fault-injected run reads the same options: its vertices, replays
/// included, run on the fleet, under half the peak, bit-exact.
#[test]
fn a_fault_injected_run_executes_on_the_fleet_and_stays_bit_exact() {
    let (graph, annotation) = ffnn_w2_128();
    let inputs = inputs(&graph, 43);
    let want = serial_sinks(&graph, &annotation, &inputs);
    let registry = ImplRegistry::paper_default();
    let peak = execute_plan(&graph, &annotation, &inputs, &registry)
        .expect("unbudgeted run")
        .peak_resident_bytes;
    let injector = parse_fault_spec("crash@3,flaky@4x2,crash@5", 9, graph.compute_count())
        .expect("spec parses");
    let fleet = fleet(2);
    let catalog = FormatCatalog::paper_default().dense_only();
    let run = execute_fault_tolerant(
        &graph,
        &annotation,
        &inputs,
        &PlanContext::new(&registry, Cluster::simsql_like(4)),
        &catalog,
        &CostModel::analytical(),
        injector,
        &FtConfig::default(),
        ExecOptions {
            mem_budget: Some(peak / 2),
            remote: Some(Arc::clone(&fleet) as Arc<dyn RemoteVertexExec>),
            ..ExecOptions::default()
        },
        &Obs::disabled(),
    )
    .expect("fault-tolerant remote run");
    let tasks = fleet.stats().tasks_ok;
    fleet.shutdown();
    assert!(run.recoveries > 0, "no crash was recovered");
    assert!(tasks > 0, "no vertex ran on the fleet");
    assert!(run.exec.governor.spills > 0, "half the peak never spilled");
    assert!(same_bits(&run.exec, &want), "faulted remote run diverged");
}

/// Values every run has dropped leave the workers with the next frame,
/// so twenty runs leave no more behind than one run holds.
#[test]
fn a_long_lived_fleet_stops_growing() {
    let (graph, annotation) = ffnn_w2_128();
    let fleet = fleet(2);
    for seed in 0..20 {
        let inputs = inputs(&graph, 100 + seed);
        let want = serial_sinks(&graph, &annotation, &inputs);
        assert!(remote_matches(&fleet, &graph, &annotation, &inputs, &want));
    }
    let held = fleet.stats().held_values;
    assert!(
        held <= graph.len() as u64,
        "{held} values held after 20 runs of a {}-vertex graph",
        graph.len()
    );
    fleet.shutdown();
}

/// A kernel that panics on a worker used to kill the daemon; the fleet
/// then walked every slot through its restart budget into `WorkerLost`.
#[test]
fn a_failing_kernel_is_the_vertex_error_not_a_worker_death() {
    let fleet = fleet(2);
    let single = |rows, cols| {
        let d = DenseMatrix::from_fn(rows, cols, |i, j| (i + 2 * j) as f64);
        Arc::new(DistRelation::from_dense(&d, PhysFormat::SingleTuple).expect("relation"))
    };
    let started = Instant::now();
    let result = fleet.execute_remote(
        NodeId(5),
        "bad_product",
        Strategy::MmSingleLocal,
        &Op::MatMul,
        &[single(4, 3), single(4, 3)],
        &[NodeId(1), NodeId(2)],
        MatrixType::dense(4, 3),
        PhysFormat::SingleTuple,
    );
    let took = started.elapsed();
    match result {
        Err(ExecError::KernelPanic {
            vertex: Some(NodeId(5)),
            label: Some(label),
            detail,
        }) => assert_eq!(label, "bad_product", "{detail}"),
        other => panic!("expected the vertex's kernel error, got {other:?}"),
    }
    assert!(took < Duration::from_secs(1), "took {took:?}");
    assert_eq!(fleet.stats().deaths, 0);
    assert_eq!(fleet.alive(), 2);

    let (graph, annotation) = chain_512();
    let inputs = inputs(&graph, 7);
    let want = serial_sinks(&graph, &annotation, &inputs);
    assert!(remote_matches(&fleet, &graph, &annotation, &inputs, &want));
    assert_eq!(fleet.stats().deaths, 0);
    fleet.shutdown();
}

/// A hand-built annotation whose output format the type rule does not
/// give (RowStrip{128} × ColStrip{100} has no square output tiles) is
/// refused before it is dispatched, with the error an in-process run
/// returns: nothing is shipped, no worker dies, and the fleet runs the
/// next plan bit-exact.
#[test]
fn a_mislabelled_annotation_is_the_vertex_error_not_a_worker_death() {
    let fleet = fleet(2);
    let registry = ImplRegistry::paper_default();
    let (rows, cols) = (
        PhysFormat::RowStrip { height: 128 },
        PhysFormat::ColStrip { width: 100 },
    );
    let mut g = ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(256, 256), rows);
    let b = g.add_source(MatrixType::dense(256, 256), cols);
    let c = g.add_op_named(Op::MatMul, &[a, b], Some("C")).unwrap();
    let mut ann = Annotation::empty(&g);
    ann.set(
        c,
        VertexChoice {
            impl_id: registry.by_name("mm_rowstrip_colstrip_cross").unwrap().id,
            input_transforms: vec![Transform::identity(rows), Transform::identity(cols)],
            output_format: PhysFormat::Tile { side: 128 },
        },
    );
    let err = execute_plan_with(
        &g,
        &ann,
        &inputs(&g, 11),
        &registry,
        &Obs::disabled(),
        ExecOptions {
            remote: Some(Arc::clone(&fleet) as Arc<dyn RemoteVertexExec>),
            ..ExecOptions::default()
        },
    )
    .expect_err("a mislabelled vertex must not run");
    match &err {
        ExecError::TypeRuleMismatch {
            vertex: Some(v),
            label: Some(l),
            strategy: Strategy::MmRowstripColstripCross,
            inputs,
            requested: PhysFormat::Tile { side: 128 },
            derived: None,
        } => {
            assert_eq!((*v, l.as_str()), (c, "C"));
            assert_eq!(inputs, &[rows, cols]);
        }
        other => panic!("expected the vertex's type-rule error, got {other:?}"),
    }
    assert_eq!(fleet.stats().held_values, 0, "nothing was shipped");
    assert_eq!(fleet.stats().deaths, 0);
    assert_eq!(fleet.alive(), 2);

    let (graph, annotation) = chain_512();
    let inputs = inputs(&graph, 7);
    let want = serial_sinks(&graph, &annotation, &inputs);
    assert!(remote_matches(&fleet, &graph, &annotation, &inputs, &want));
    assert_eq!(fleet.stats().deaths, 0);
    fleet.shutdown();
}

/// Spawn and shutdown wait on events, not on the heartbeat: with a 2 s
/// interval the monitor waits 2 s between checks, and shutdown must not
/// wait that out.
#[test]
fn spawn_and_shutdown_do_not_wait_out_a_heartbeat() {
    let started = Instant::now();
    let fleet = WorkerFleet::spawn(FleetConfig {
        heartbeat_interval: Duration::from_secs(2),
        ..fleet_config(2)
    })
    .expect("fleet spawns");
    let spawn = started.elapsed();
    assert_eq!(fleet.alive(), 2);
    // Let the monitor thread start and enter its first wait, as it has
    // in any fleet that has done some work.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    fleet.shutdown();
    let took = spawn + started.elapsed();
    assert!(took < Duration::from_millis(500), "took {took:?}");
    assert_eq!(fleet.alive(), 0);
}
