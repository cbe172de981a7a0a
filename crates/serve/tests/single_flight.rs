//! Single-flight coalescing: N concurrent misses on one fingerprint
//! run the optimizer exactly once, and everyone shares the same
//! `Arc<Optimized>`.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry};
use matopt_cost::CostModel;
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_obs::{
    EventKind, HistogramSnapshot, MemorySink, MetricsRegistry, Obs, RingSink, Subsystem,
};
use matopt_serve::{PlanService, PlanSource, ServeConfig};
use std::sync::{Arc, Barrier};

fn service(sink: &Arc<MemorySink>, config: ServeConfig) -> PlanService {
    PlanService::with_obs(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        config,
        Obs::new(Arc::clone(sink)),
    )
}

#[test]
fn concurrent_misses_coalesce_onto_one_optimizer_run() {
    const CLIENTS: usize = 8;
    let sink = Arc::new(MemorySink::new());
    let service = service(&sink, ServeConfig::default());
    let graph = matopt_graphs::motivating_graph().expect("builds").graph;
    let barrier = Barrier::new(CLIENTS);

    let planned: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.plan(&graph).expect("plan succeeds")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    // Exactly one optimizer run, observable three independent ways.
    let stats = service.stats();
    assert_eq!(stats.optimize_runs, 1, "optimizer ran more than once");
    assert_eq!(stats.misses, 1, "more than one leader");
    assert_eq!(
        stats.hits + stats.coalesced,
        (CLIENTS - 1) as u64,
        "every non-leader must be served from the flight or the cache"
    );
    assert_eq!(stats.requests, CLIENTS as u64);

    // The obs stream agrees: one frontier_dp span began.
    let frontier_runs = sink
        .snapshot()
        .iter()
        .filter(|e| {
            e.subsystem == Subsystem::Optimizer
                && e.name == "frontier_dp"
                && matches!(e.kind, EventKind::SpanBegin)
        })
        .count();
    assert_eq!(frontier_runs, 1, "obs saw {frontier_runs} optimizer runs");

    // Everyone holds literally the same plan.
    let first = &planned[0].plan;
    for p in &planned {
        assert!(Arc::ptr_eq(first, &p.plan), "plans are not shared");
        assert_eq!(p.fingerprint, planned[0].fingerprint);
    }
    // And exactly one of them was the leader.
    let leaders = planned
        .iter()
        .filter(|p| p.source == PlanSource::Miss)
        .count();
    assert_eq!(leaders, 1);

    // A later request is a plain cache hit.
    let again = service.plan(&graph).expect("plan succeeds");
    assert_eq!(again.source, PlanSource::Hit);
    assert!(Arc::ptr_eq(first, &again.plan));
}

#[test]
fn cache_disabled_runs_the_optimizer_every_time() {
    let sink = Arc::new(MemorySink::new());
    let service = service(
        &sink,
        ServeConfig {
            cache_enabled: false,
            ..ServeConfig::default()
        },
    );
    let graph = matopt_graphs::motivating_graph().expect("builds").graph;
    for _ in 0..3 {
        let planned = service.plan(&graph).expect("plan succeeds");
        assert_eq!(planned.source, PlanSource::Miss);
    }
    let stats = service.stats();
    assert_eq!(stats.optimize_runs, 3);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.cache_entries, 0, "disabled cache must stay empty");
}

#[test]
fn queue_depth_admission_rejects_excess_misses() {
    // Depth 0 means no optimization may even start.
    let sink = Arc::new(MemorySink::new());
    let service = service(
        &sink,
        ServeConfig {
            max_queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    let graph = matopt_graphs::motivating_graph().expect("builds").graph;
    let err = service.plan(&graph).expect_err("must be rejected");
    assert!(matches!(
        err,
        matopt_serve::ServeError::Overloaded { depth: 0 }
    ));
    assert_eq!(service.stats().admission_rejects, 1);
}

#[test]
fn invalidation_epochs_force_replans() {
    let sink = Arc::new(MemorySink::new());
    let service = service(&sink, ServeConfig::default());
    let graph = matopt_graphs::motivating_graph().expect("builds").graph;

    let a = service.plan(&graph).expect("plan");
    assert_eq!(a.source, PlanSource::Miss);
    assert_eq!(service.plan(&graph).expect("plan").source, PlanSource::Hit);

    // A calibration update starts a new epoch; same cluster, same
    // fingerprint, but the cached plan may no longer be optimal.
    service.recalibrate(CostModel::analytical());
    let b = service.plan(&graph).expect("plan");
    assert_eq!(b.source, PlanSource::Miss, "stale epoch must re-plan");

    // Degrading the cluster changes the fingerprint itself.
    service.degrade();
    let c = service.plan(&graph).expect("plan");
    assert_eq!(c.source, PlanSource::Miss);
    assert_ne!(c.fingerprint, b.fingerprint);
    assert_eq!(service.stats().optimize_runs, 3);
}

/// A concurrent soak over a repeating workload mix: at least nine in
/// ten requests are served without an optimizer run, the cache only
/// ever serves what the optimizer would have produced, and the
/// wait-free registry counters and latency histograms are the same
/// events as the service's locked accounting — they agree exactly.
#[test]
fn concurrent_soak_serves_the_optimizers_plans_and_the_registry_reconciles() {
    const CLIENTS: usize = 8;
    const WORKLOADS: usize = 8;
    const TOTAL: usize = 256;
    let graphs: Vec<_> = (0..WORKLOADS)
        .map(|i| {
            ffnn_w2_update_graph(FfnnConfig::laptop(8 + 2 * i as u64))
                .expect("well-typed")
                .graph
        })
        .collect();
    let uncached = service(
        &Arc::new(MemorySink::new()),
        ServeConfig {
            cache_enabled: false,
            ..ServeConfig::default()
        },
    );
    let direct: Vec<_> = graphs
        .iter()
        .map(|g| uncached.plan(g).expect("optimizer plans").plan)
        .collect();

    let service = PlanService::with_obs(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        ServeConfig::default(),
        Obs::with_metrics(Arc::new(RingSink::new(4096)), MetricsRegistry::new()),
    );
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (service, graphs, direct, barrier) = (&service, &graphs, &direct, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in (client..TOTAL).step_by(CLIENTS) {
                    let w = i % WORKLOADS;
                    let served = service.plan(&graphs[w]).expect("no request may error");
                    assert_eq!(served.plan.cost.to_bits(), direct[w].cost.to_bits());
                    assert_eq!(served.plan.annotation, direct[w].annotation);
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.requests, TOTAL as u64);
    assert_eq!(stats.hits + stats.misses + stats.coalesced, TOTAL as u64);
    assert_eq!(stats.optimize_runs, stats.misses, "only a miss optimizes");
    assert!(stats.misses >= WORKLOADS as u64);
    // Only the first request per workload has to miss (a request that
    // checked the cache just before its leader published may lead a
    // second run; it is rare, so the bound is the serving contract's).
    assert!(
        (stats.hits + stats.coalesced) as f64 >= 0.9 * TOTAL as f64,
        "{stats:?}"
    );

    let snap = service.metrics_snapshot().expect("metrics enabled");
    let counter = |name: &str| snap.counter(Subsystem::Serve, name).unwrap_or(0);
    assert_eq!(counter("requests"), stats.requests);
    assert_eq!(counter("hits"), stats.hits);
    assert_eq!(counter("misses"), stats.misses);
    assert_eq!(counter("coalesced"), stats.coalesced);
    let mut timed = HistogramSnapshot::default();
    for name in ["latency_hit_us", "latency_miss_us", "latency_coalesced_us"] {
        if let Some(h) = snap.histogram(Subsystem::Serve, name) {
            timed.merge(h);
        }
    }
    assert_eq!(timed.count(), TOTAL as u64, "every request is timed");
}
