//! Seeded chaos harness for the fault-tolerant executor: random fault
//! schedules (worker crashes, stragglers, transient kernel errors,
//! corrupted chunks) are injected into real runs of the FFNN training
//! step and the two-level blocked inverse, and every run must finish
//! with sink values **bit-identical** to the fault-free execution of
//! the same plan, without ever exceeding the per-vertex retry budget.
//!
//! Degradation (resource exhaustion → shrink the cluster → re-plan the
//! suffix) is tested separately with approximate equality, because the
//! re-planned suffix may pick different implementations whose
//! floating-point rounding differs.

use matopt_core::{
    Annotation, BackoffPolicy, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId,
    NodeKind, PhysFormat, PlanContext, RecoveryPolicy,
};
use matopt_cost::CostModel;
use matopt_engine::{
    execute_fault_tolerant, execute_plan, execute_plan_with, parse_fault_spec, DistRelation,
    ExecOptions, FaultInjector, FtConfig, FtOutcome, SharedGovernor,
};
use matopt_graphs::{ffnn_w2_update_graph, two_level_inverse_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One chaos workload: an optimized plan, its inputs, and the sink
/// values of a fault-free run — the ground truth every chaotic run
/// must reproduce exactly.
struct Workload {
    name: &'static str,
    graph: ComputeGraph,
    annotation: Annotation,
    catalog: FormatCatalog,
    inputs: HashMap<NodeId, DistRelation>,
    baseline: HashMap<NodeId, DenseMatrix>,
}

const WORKERS: usize = 4;

fn make_inputs(graph: &ComputeGraph, seed: u64) -> HashMap<NodeId, DistRelation> {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let mut d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            // Keep inverse inputs well conditioned.
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

fn build_workload(name: &'static str, graph: ComputeGraph, catalog: FormatCatalog) -> Workload {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(WORKERS);
    let ctx = PlanContext::new(&registry, cluster);
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &catalog, &model);
    let opt = frontier_dp_beam(&graph, &octx, 2000).expect("optimizable");
    let inputs = make_inputs(&graph, 0xC0FFEE);
    let baseline = execute_plan(&graph, &opt.annotation, &inputs, &registry)
        .expect("fault-free run succeeds")
        .sinks
        .into_iter()
        .map(|(id, rel)| (id, rel.to_dense()))
        .collect();
    Workload {
        name,
        graph,
        annotation: opt.annotation,
        catalog,
        inputs,
        baseline,
    }
}

fn workloads() -> &'static [Workload] {
    static CELL: OnceLock<Vec<Workload>> = OnceLock::new();
    CELL.get_or_init(|| {
        let ffnn = ffnn_w2_update_graph(FfnnConfig::laptop(16))
            .expect("well-typed")
            .graph;
        let inverse = two_level_inverse_graph(16, 4).expect("well-typed").graph;
        let small = FormatCatalog::new(vec![
            PhysFormat::SingleTuple,
            PhysFormat::Tile { side: 4 },
            PhysFormat::Tile { side: 8 },
            PhysFormat::RowStrip { height: 4 },
            PhysFormat::ColStrip { width: 4 },
        ]);
        vec![
            build_workload(
                "ffnn-small",
                ffnn,
                FormatCatalog::paper_default().dense_only(),
            ),
            build_workload("blocked-inverse", inverse, small),
        ]
    })
}

/// A retry budget generous enough that no random schedule (at most
/// three transient failures per event) can exhaust it; the harness
/// asserts the executor never comes close.
fn chaos_config(policy: RecoveryPolicy) -> FtConfig {
    FtConfig {
        policy,
        retry: BackoffPolicy {
            base_ms: 1,
            cap_ms: 4,
            max_attempts: 10,
        },
    }
}

fn run_chaotic(w: &Workload, injector: FaultInjector, config: &FtConfig) -> FtOutcome {
    run_chaotic_with(w, injector, config, ExecOptions::default())
}

fn run_chaotic_with(
    w: &Workload,
    injector: FaultInjector,
    config: &FtConfig,
    options: ExecOptions,
) -> FtOutcome {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(WORKERS);
    let ctx = PlanContext::new(&registry, cluster);
    execute_fault_tolerant(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &ctx,
        &w.catalog,
        &CostModel::analytical(),
        injector,
        config,
        options,
        &Obs::disabled(),
    )
    .expect("fault-tolerant run succeeds")
}

/// Asserts the chaotic run reproduced the fault-free sinks bit for bit
/// and stayed inside the retry budget.
fn assert_recovered_exactly(w: &Workload, out: &FtOutcome, config: &FtConfig, seed: u64) {
    assert_eq!(
        out.exec.sinks.len(),
        w.baseline.len(),
        "{} seed {seed}: sink set changed",
        w.name
    );
    for (sink, rel) in &out.exec.sinks {
        assert!(
            rel.to_dense() == w.baseline[sink],
            "{} seed {seed}: sink {sink} diverged from the fault-free run",
            w.name
        );
    }
    for (i, vr) in out.per_vertex.iter().enumerate() {
        assert!(
            vr.retries <= config.retry.max_attempts,
            "{} seed {seed}: vertex {i} spent {} retries against a budget of {}",
            w.name,
            vr.retries,
            config.retry.max_attempts
        );
    }
    assert_eq!(out.replans, 0, "{} seed {seed}: unexpected re-plan", w.name);
}

/// The capstone: 64 seeded random fault schedules per workload (128
/// total), rotating through all three recovery policies. Every run
/// must end with exactly the fault-free sink values.
#[test]
fn random_fault_schedules_recover_to_exact_sink_values() {
    let policies = [
        RecoveryPolicy::Restart,
        RecoveryPolicy::Checkpoint,
        RecoveryPolicy::Lineage,
    ];
    for w in workloads() {
        for seed in 0..64u64 {
            let policy = policies[(seed % 3) as usize];
            let config = chaos_config(policy);
            let n_faults = 1 + (seed as usize % 3);
            let injector = FaultInjector::random(seed, w.graph.compute_count(), n_faults, 2);
            let out = run_chaotic(w, injector, &config);
            assert_recovered_exactly(w, &out, &config, seed);
        }
    }
}

/// The same seed must produce the same fault sequence and the same
/// retry/recovery counts — chaos is reproducible by construction.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let w = &workloads()[0];
    let config = chaos_config(RecoveryPolicy::Lineage);
    let steps = w.graph.compute_count();
    let a = run_chaotic(w, FaultInjector::random(7, steps, 3, 2), &config);
    let b = run_chaotic(w, FaultInjector::random(7, steps, 3, 2), &config);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.recoveries, b.recoveries);
    assert!(!a.faults.is_empty(), "seed 7 must fire at least one fault");
}

/// An empty schedule is a strict no-op: identical sinks, zero faults,
/// zero retries, zero recoveries.
#[test]
fn empty_schedule_changes_nothing() {
    for w in workloads() {
        let config = chaos_config(RecoveryPolicy::Checkpoint);
        let out = run_chaotic(w, FaultInjector::from_schedule(0, vec![]), &config);
        assert_recovered_exactly(w, &out, &config, 0);
        assert!(out.faults.is_empty());
        assert_eq!(out.retries, 0);
        assert_eq!(out.recoveries, 0);
    }
}

/// A checkpoint is durable, so a crash under `checkpoint` loses only
/// the in-flight vertex, which runs once anyway: at 60% of the peak, a
/// crash at any step leaves the sinks, the governor's spills and
/// reloads, and the peak exactly as the empty schedule has them.
#[test]
fn a_checkpointed_crash_costs_the_governor_nothing() {
    let w = &workloads()[1];
    let peak = run_with_options(w, ExecOptions::default()).peak_resident_bytes;
    let options = ExecOptions {
        mem_budget: Some(peak * 60 / 100),
        ..ExecOptions::default()
    };
    let config = chaos_config(RecoveryPolicy::Checkpoint);
    let calm = run_chaotic_with(
        w,
        FaultInjector::from_schedule(1, vec![]),
        &config,
        options.clone(),
    );
    assert!(calm.exec.governor.spills > 0, "the budget must bind");
    let steps = w.graph.compute_count();
    for step in 0..steps {
        let crash = parse_fault_spec(&format!("crash@{step}"), 1, steps).expect("spec parses");
        let run = run_chaotic_with(w, crash, &config, options.clone());
        assert_recovered_exactly(w, &run, &config, 1);
        assert_eq!(run.recoveries, 1, "crash@{step}");
        let (got, want) = (&run.exec.governor, &calm.exec.governor);
        assert_eq!(
            (got.spills, got.reloads),
            (want.spills, want.reloads),
            "crash@{step}: spills and reloads"
        );
        assert!(
            run.exec.peak_resident_bytes <= calm.exec.peak_resident_bytes,
            "crash@{step}: peak {} over the calm run's {}",
            run.exec.peak_resident_bytes,
            calm.exec.peak_resident_bytes
        );
    }
}

/// Explicit crash schedules under every recovery policy, parsed from
/// the CLI's spec grammar.
#[test]
fn parsed_crash_specs_recover_under_every_policy() {
    for w in workloads() {
        for policy in [
            RecoveryPolicy::Restart,
            RecoveryPolicy::Checkpoint,
            RecoveryPolicy::Lineage,
        ] {
            let injector = parse_fault_spec(
                "crash@1,flaky@2x2,corrupt@3,slow@0x2",
                11,
                w.graph.compute_count(),
            )
            .expect("spec parses");
            let config = chaos_config(policy);
            let out = run_chaotic(w, injector, &config);
            assert_recovered_exactly(w, &out, &config, 11);
            assert_eq!(out.faults.len(), 4, "all four scheduled faults fire");
            assert!(out.recoveries >= 1, "the crash must trigger a recovery");
            assert!(out.retries >= 2, "the transient fault must retry");
        }
    }
}

/// Resource exhaustion degrades the cluster and re-plans the suffix,
/// also under 45% of the peak, where a value the suffix starts from is
/// on scratch when the re-plan reads its measured type; the re-planned
/// run still computes the right answer (approximately — different
/// implementations round differently).
#[test]
fn resource_exhaustion_degrades_and_replans() {
    let w = &workloads()[0];
    let peak = run_with_options(w, ExecOptions::default()).peak_resident_bytes;
    for mem_budget in [None, Some(peak * 45 / 100)] {
        let injector =
            parse_fault_spec("oom@4x2", 3, w.graph.compute_count()).expect("spec parses");
        let config = chaos_config(RecoveryPolicy::Lineage);
        let options = ExecOptions {
            mem_budget,
            ..ExecOptions::default()
        };
        let out = run_chaotic_with(w, injector, &config, options);
        assert!(out.replans >= 1, "degradation must re-plan the suffix");
        assert_eq!(out.exec.sinks.len(), w.baseline.len());
        for (sink, rel) in &out.exec.sinks {
            let got = rel.to_dense();
            let want = &w.baseline[sink];
            assert!(
                got.approx_eq(want, 1e-6),
                "sink {sink} diverged after degradation under {mem_budget:?}; err {}",
                got.frobenius_distance(want)
            );
        }
    }
}

/// An exhausted retry budget surfaces as `RetryBudgetExhausted` naming
/// the vertex, instead of looping forever or panicking.
#[test]
fn retry_budget_exhaustion_is_a_clean_error() {
    let w = &workloads()[0];
    let injector = parse_fault_spec("flaky@2x9", 5, w.graph.compute_count()).expect("spec parses");
    let config = FtConfig {
        policy: RecoveryPolicy::Lineage,
        retry: BackoffPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_attempts: 3,
        },
    };
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(WORKERS);
    let ctx = PlanContext::new(&registry, cluster);
    let err = execute_fault_tolerant(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &ctx,
        &w.catalog,
        &CostModel::analytical(),
        injector,
        &config,
        ExecOptions::default(),
        &Obs::disabled(),
    )
    .expect_err("nine consecutive failures must exhaust a budget of three");
    let msg = err.to_string();
    assert!(
        msg.contains("retry budget exhausted"),
        "unexpected error: {msg}"
    );
}

fn run_with_options(w: &Workload, options: ExecOptions) -> matopt_engine::ExecOutcome {
    let registry = ImplRegistry::paper_default();
    execute_plan_with(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &registry,
        &Obs::disabled(),
        options,
    )
    .expect("governed run succeeds")
}

fn assert_sinks_bit_exact(w: &Workload, out: &matopt_engine::ExecOutcome, tag: &str) {
    assert_eq!(out.sinks.len(), w.baseline.len(), "{tag}: sink set changed");
    for (sink, rel) in &out.sinks {
        assert!(
            rel.to_dense() == w.baseline[sink],
            "{tag}: sink {sink} diverged from the fault-free run"
        );
    }
}

/// The memory-pressure matrix: budget ∈ {unbounded, 75%, 50% of the
/// measured unbounded peak, a shared pool of 50%}, on both workloads,
/// fault-free and under seeded live fault schedules with every recovery
/// policy. Every cell must reproduce the fault-free sinks bit for bit
/// within its budget, every run in the pool column must hold a lease,
/// and both 50% columns must provably engage the spill path, faulted
/// runs included.
#[test]
fn memory_pressure_matrix_is_bit_exact() {
    let policies = [
        RecoveryPolicy::Restart,
        RecoveryPolicy::Checkpoint,
        RecoveryPolicy::Lineage,
    ];
    for w in workloads() {
        let peak = run_with_options(w, ExecOptions::default()).peak_resident_bytes;
        let steps = w.graph.compute_count();
        for (col, budget, pool) in [
            ("unbounded", None, None),
            ("75%", Some((peak as f64 * 0.75) as u64), None),
            ("50%", Some((peak as f64 * 0.5) as u64), None),
            ("pool 50%", None, Some(SharedGovernor::new(peak / 2))),
        ] {
            let options = ExecOptions {
                mem_budget: budget,
                shared_governor: pool.clone(),
                ..Default::default()
            };
            let limit = budget.or(pool.as_ref().map(|p| p.stats().budget));
            let leased = |out: &matopt_engine::ExecOutcome, what: &str| {
                if pool.is_some() {
                    assert!(
                        out.governor.lease_bytes > 0,
                        "{} {col}: {what} took no lease",
                        w.name
                    );
                }
            };
            let out = run_with_options(w, options.clone());
            assert_sinks_bit_exact(w, &out, &format!("{} {col}", w.name));
            leased(&out, "the fault-free run");
            if let Some(limit) = limit {
                assert!(
                    out.peak_resident_bytes <= limit,
                    "{} {col}: fault-free run over budget",
                    w.name
                );
            }
            let (mut faulted_spills, mut recoveries) = (0, 0);
            for (i, policy) in policies.into_iter().enumerate() {
                let config = chaos_config(policy);
                let seed = 0x5EED + i as u64;
                let schedules = [
                    FaultInjector::random(seed, steps, 3, 2),
                    parse_fault_spec("crash@2,flaky@3x2,corrupt@4,crash@6", seed, steps)
                        .expect("spec parses"),
                ];
                for injector in schedules {
                    let run = run_chaotic_with(w, injector, &config, options.clone());
                    assert_recovered_exactly(w, &run, &config, seed);
                    leased(&run.exec, "a faulted run");
                    if let Some(limit) = limit {
                        assert!(
                            run.exec.peak_resident_bytes <= limit,
                            "{} {col} {policy}: faulted run over budget",
                            w.name
                        );
                    }
                    faulted_spills += run.exec.governor.spills;
                    recoveries += run.recoveries;
                }
            }
            assert!(recoveries > 0, "{} {col}: no crash recovered", w.name);
            match col {
                "unbounded" => assert_eq!(
                    out.governor.spills + faulted_spills,
                    0,
                    "{}: spilled without a budget",
                    w.name
                ),
                "50%" | "pool 50%" => {
                    assert!(
                        out.governor.spills > 0,
                        "{}: the {col} column never spilled",
                        w.name
                    );
                    assert!(
                        faulted_spills > 0,
                        "{}: no faulted run in the {col} column spilled",
                        w.name
                    );
                }
                _ => {}
            }
        }
    }
}

/// Stragglers compose with transient-fault retries in the
/// fault-tolerant driver: a slowed vertex waits out its delay while a
/// flaky vertex retries, and the sinks still match exactly.
#[test]
fn stragglers_compose_with_retries_under_faults() {
    for w in workloads() {
        let injector =
            parse_fault_spec("slow@1x8,flaky@2x2", 13, w.graph.compute_count()).expect("parses");
        let config = chaos_config(RecoveryPolicy::Lineage);
        let out = run_chaotic(w, injector, &config);
        assert_recovered_exactly(w, &out, &config, 13);
        assert!(out.retries >= 2, "{}: the flaky vertex must retry", w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form of the capstone: any seed, fault count, and
    /// policy still recovers to bit-identical sinks within budget.
    #[test]
    fn any_random_schedule_recovers_exactly(
        seed in 0u64..1_000_000,
        n_faults in 1usize..4,
        policy_ix in 0usize..3,
    ) {
        let policies = [
            RecoveryPolicy::Restart,
            RecoveryPolicy::Checkpoint,
            RecoveryPolicy::Lineage,
        ];
        let w = &workloads()[(seed % 2) as usize];
        let config = chaos_config(policies[policy_ix]);
        let injector = FaultInjector::random(seed, w.graph.compute_count(), n_faults, 3);
        let out = run_chaotic(w, injector, &config);
        for (sink, rel) in &out.exec.sinks {
            prop_assert!(
                rel.to_dense() == w.baseline[sink],
                "{} seed {seed}: sink {sink} diverged",
                w.name
            );
        }
        for vr in &out.per_vertex {
            prop_assert!(vr.retries <= config.retry.max_attempts);
        }
    }
}
