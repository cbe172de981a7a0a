//! Shared-governor harness: concurrent executions drawing from one
//! admission/memory pool must split the budget, never oversubscribe
//! it, and stay bit-identical to ungoverned runs.
//!
//! Pinned properties:
//!
//! 1. **Bit-exactness** — a pool-governed run produces the same sinks
//!    and values as an ungoverned run, alone or with contention.
//! 2. **No oversubscription** — `leased` never exceeds the pool budget
//!    while N threads hammer it, and every lease is returned (leased
//!    drains to zero).
//! 3. **Serialization under pressure** — a pool sized for one run at a
//!    time forces concurrent runs to wait (`admission_waits > 0`)
//!    rather than overlap carve-outs.
//! 4. **Too-big graphs degrade, not die** — a run whose footprint
//!    exceeds the pool is granted the whole pool and finishes via the
//!    per-run spill path.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions, SharedGovernor};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::sync::Arc;

struct Workload {
    graph: matopt_core::ComputeGraph,
    annotation: matopt_core::Annotation,
    inputs: HashMap<matopt_core::NodeId, DistRelation>,
    registry: ImplRegistry,
}

fn ffnn_workload(hidden: u64, seed: u64) -> Workload {
    let registry = ImplRegistry::paper_default();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(hidden))
        .expect("well-typed")
        .graph;
    let catalog = FormatCatalog::paper_default().dense_only();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    let annotation = frontier_dp_beam(&graph, &OptContext::new(&ctx, &catalog, &model), 400)
        .expect("optimizable")
        .annotation;
    let mut rng = seeded_rng(seed);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(id, DistRelation::from_dense(&d, *format).unwrap());
        }
    }
    Workload {
        graph,
        annotation,
        inputs,
        registry,
    }
}

fn run(w: &Workload, options: ExecOptions) -> matopt_engine::ExecOutcome {
    execute_plan_with(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &w.registry,
        &Obs::disabled(),
        options,
    )
    .expect("run succeeds")
}

#[test]
fn pool_governed_run_is_bit_exact() {
    let w = ffnn_workload(24, 0x51ED);
    let free = run(&w, ExecOptions::default());
    let pool = SharedGovernor::new(free.peak_resident_bytes.max(1) * 2);
    let governed = run(
        &w,
        ExecOptions {
            shared_governor: Some(Arc::clone(&pool)),
            ..Default::default()
        },
    );
    assert!(governed.governor.lease_bytes > 0, "run must hold a lease");
    for (sink, rel) in &free.sinks {
        assert_eq!(&governed.sinks[sink], rel, "sink {sink} diverged");
    }
    for (id, rel) in &free.values {
        assert_eq!(&governed.values[id], rel, "value {id} diverged");
    }
    let stats = pool.stats();
    assert_eq!(stats.leases_granted, 1);
    assert_eq!(stats.leased, 0, "lease must be returned");
    assert_eq!(stats.runs, 0);
}

#[test]
fn concurrent_runs_share_one_pool_without_oversubscription() {
    let w = ffnn_workload(16, 0xC0DE);
    let free = run(&w, ExecOptions::default());
    // Room for roughly two carve-outs at once: real contention, no
    // failure path.
    let budget = free.peak_resident_bytes.max(1) * 2;
    let pool = SharedGovernor::new(budget);
    let threads = 6;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let pool = Arc::clone(&pool);
            let w = &w;
            let free = &free;
            handles.push(scope.spawn(move || {
                let out = run(
                    w,
                    ExecOptions {
                        shared_governor: Some(Arc::clone(&pool)),
                        ..Default::default()
                    },
                );
                for (sink, rel) in &free.sinks {
                    assert_eq!(&out.sinks[sink], rel, "sink {sink} diverged");
                }
                assert!(out.governor.lease_bytes > 0);
                assert!(out.governor.lease_bytes <= budget);
                // The pool invariant, observed live from inside a run.
                assert!(pool.leased() <= budget, "pool oversubscribed");
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.leases_granted, threads as u64);
    assert_eq!(stats.leased, 0, "all leases returned");
    assert!(stats.peak_leased <= budget);
}

#[test]
fn tight_pool_serializes_concurrent_runs() {
    let w = ffnn_workload(16, 0xFA11);
    let free = run(&w, ExecOptions::default());
    // Exactly one full-retention run fits: the second run must wait
    // for the first lease to come back.
    let pool = SharedGovernor::new(free.peak_resident_bytes.max(1));
    let threads = 4;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let pool = Arc::clone(&pool);
            let w = &w;
            handles.push(scope.spawn(move || {
                run(
                    w,
                    ExecOptions {
                        shared_governor: Some(Arc::clone(&pool)),
                        ..Default::default()
                    },
                )
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
    });
    let stats = pool.stats();
    assert!(
        stats.admission_waits > 0,
        "a pool sized for one run must make later runs wait: {stats:?}"
    );
    assert_eq!(stats.leased, 0);
}

#[test]
fn run_bigger_than_pool_spills_instead_of_failing() {
    let w = ffnn_workload(24, 0xB16);
    let free = run(&w, ExecOptions::default());
    // A pool a fraction of the run's peak: the lease is clamped to the
    // whole pool and the per-run governor spills to fit.
    let pool = SharedGovernor::new((free.peak_resident_bytes / 2).max(1));
    let out = run(
        &w,
        ExecOptions {
            shared_governor: Some(Arc::clone(&pool)),
            ..Default::default()
        },
    );
    assert!(out.governor.spills > 0, "tight carve-out must spill");
    for (sink, rel) in &free.sinks {
        assert_eq!(&out.sinks[sink], rel, "sink {sink} diverged");
    }
}

#[test]
fn explicit_budget_composes_with_pool_lease() {
    let w = ffnn_workload(16, 0x77);
    let free = run(&w, ExecOptions::default());
    let pool = SharedGovernor::new(free.peak_resident_bytes.max(1) * 4);
    let explicit = (free.peak_resident_bytes / 2).max(1);
    let out = run(
        &w,
        ExecOptions {
            mem_budget: Some(explicit),
            shared_governor: Some(Arc::clone(&pool)),
            ..Default::default()
        },
    );
    // The effective budget is min(lease, explicit): the explicit
    // budget is tighter, so the spill path engages exactly as it
    // would without the pool.
    assert!(out.governor.spills > 0, "explicit budget must still bind");
    for (sink, rel) in &free.sinks {
        assert_eq!(&out.sinks[sink], rel, "sink {sink} diverged");
    }
}
