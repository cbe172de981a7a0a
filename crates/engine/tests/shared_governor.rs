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
//!    time never has two runs holding leases at once, however the
//!    concurrent runs overlap in time.
//! 4. **Too-big graphs degrade, not die** — a run whose footprint
//!    exceeds the pool is granted the whole pool and finishes via the
//!    per-run spill path.
//! 5. **Streaming runs lease what they use** — a run that retains only
//!    its sinks asks for its walk's peak under retirement, so two fit
//!    a pool of twice that peak at once.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions, SharedGovernor};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{Event, Obs, Sink, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    run_observed(w, options, &Obs::disabled())
}

fn run_observed(w: &Workload, options: ExecOptions, obs: &Obs) -> matopt_engine::ExecOutcome {
    execute_plan_with(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &w.registry,
        obs,
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
    // Exactly one full-retention run fits: each run asks for all of it,
    // so a second run cannot hold a lease until the first returns its.
    let budget = free.peak_resident_bytes.max(1);
    let pool = SharedGovernor::new(budget);
    let threads = 4;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let pool = Arc::clone(&pool);
            let (w, free) = (&w, &free);
            handles.push(scope.spawn(move || {
                let out = run(
                    w,
                    ExecOptions {
                        shared_governor: Some(Arc::clone(&pool)),
                        ..Default::default()
                    },
                );
                assert_eq!(
                    out.governor.lease_bytes, budget,
                    "a run got less than the pool"
                );
                for (sink, rel) in &free.sinks {
                    assert_eq!(&out.sinks[sink], rel, "sink {sink} diverged");
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
    });
    let stats = pool.stats();
    assert_eq!(
        stats.peak_runs, 1,
        "two runs held leases at once: {stats:?}"
    );
    assert!(stats.peak_leased <= budget, "{stats:?}");
    assert_eq!(stats.leases_granted, threads as u64, "{stats:?}");
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

/// Starts a second run at the first kernel of the run it watches — so
/// the first holds its lease throughout — and waits a bounded time for
/// the second to finish.
struct SecondRun {
    work: Arc<Workload>,
    options: ExecOptions,
    started: AtomicBool,
    /// Whether the second run finished while the first was waiting.
    overlapped: Arc<AtomicBool>,
    handle: Arc<Mutex<Option<JoinHandle<matopt_engine::ExecOutcome>>>>,
}

impl Sink for SecondRun {
    fn record(&self, event: Event) {
        if event.subsystem != Subsystem::Executor
            || event.name != "impl"
            || self.started.swap(true, Ordering::SeqCst)
        {
            return;
        }
        let (work, options) = (Arc::clone(&self.work), self.options.clone());
        let (done, finished) = mpsc::channel();
        *self.handle.lock().unwrap() = Some(std::thread::spawn(move || {
            let out = run(&work, options);
            let _ = done.send(());
            out
        }));
        let overlapped = finished.recv_timeout(Duration::from_secs(10)).is_ok();
        self.overlapped.store(overlapped, Ordering::SeqCst);
    }
}

#[test]
fn two_streaming_runs_share_a_pool_of_twice_their_peak() {
    let w = Arc::new(ffnn_workload(16, 0xD0A1));
    let streaming = ExecOptions {
        retain_values: false,
        ..Default::default()
    };
    // The id-order walk's peak, never governed: a budget nothing reaches.
    let free = run(
        &w,
        ExecOptions {
            mem_budget: Some(u64::MAX),
            ..streaming.clone()
        },
    );
    let peak = free.peak_resident_bytes;
    assert_eq!(free.governor.spills, 0);
    let pool = SharedGovernor::new(2 * peak);
    let options = ExecOptions {
        shared_governor: Some(Arc::clone(&pool)),
        ..streaming
    };
    let (overlapped, handle) = (Arc::default(), Arc::default());
    let first = run_observed(
        &w,
        options.clone(),
        &Obs::new(SecondRun {
            work: Arc::clone(&w),
            options,
            started: AtomicBool::new(false),
            overlapped: Arc::clone(&overlapped),
            handle: Arc::clone(&handle),
        }),
    );
    let second = (handle.lock().unwrap().take())
        .expect("the first run started the second")
        .join()
        .expect("second run");
    let stats = pool.stats();
    assert!(
        overlapped.load(Ordering::SeqCst),
        "the second run waited for the first: {stats:?}"
    );
    assert_eq!(
        (stats.admission_waits, stats.peak_runs),
        (0, 2),
        "{stats:?}"
    );
    for out in [&first, &second] {
        assert!(
            out.governor.lease_bytes >= peak,
            "lease {} < peak {peak}",
            out.governor.lease_bytes
        );
        assert_eq!(out.governor.spills, 0);
        assert_eq!(out.sinks, free.sinks, "bit-exact sinks");
    }
}
