//! Overhead of the fault-tolerant execution path with injection
//! disabled.
//!
//! The acceptance bar is that [`execute_fault_tolerant`] with a
//! [`FaultInjector::disabled`] injector costs < 2% versus the plain
//! [`execute_plan`] path. With injection off the wrapper is one
//! injector branch and one obs span around the same pooled run — and
//! crucially *no* checkpoint clones, which are only taken when a live
//! injector makes them worth paying for.
//!
//! * `execute/plain` — the laptop FFNN weight update through the
//!   ordinary executor;
//! * `execute/fault_tolerant_disabled` — the same run through the
//!   fault-tolerant wrapper with injection off, which is what a caller
//!   pays for keeping the recovery machinery permanently in the path;
//! * `execute/fault_tolerant_checkpoint_disabled` — the same, under
//!   the checkpoint policy, pinning that disabled injection skips the
//!   checkpoint clones too.
//!
//! The final `recovery overhead budget` line compares median run times
//! directly and reports OK/OVER against the 2% budget.

use criterion::{criterion_group, Criterion};
use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext, RecoveryPolicy};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::{
    execute_fault_tolerant, execute_plan, DistRelation, ExecOptions, FaultInjector, FtConfig,
};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::time::{Duration, Instant};

struct Fixture {
    graph: matopt_core::ComputeGraph,
    annotation: matopt_core::Annotation,
    registry: ImplRegistry,
    catalog: FormatCatalog,
    inputs: HashMap<matopt_core::NodeId, DistRelation>,
}

fn fixture() -> Fixture {
    let registry = ImplRegistry::paper_default();
    let ffnn = ffnn_w2_update_graph(FfnnConfig::laptop(32)).expect("type-correct");
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&registry, cluster);
    let catalog = FormatCatalog::paper_default().dense_only();
    let model = AnalyticalCostModel;
    let octx = OptContext::new(&ctx, &catalog, &model);
    let opt = frontier_dp_beam(&ffnn.graph, &octx, 4000).expect("optimizes");

    let mut rng = seeded_rng(42);
    let mut inputs = HashMap::new();
    for (id, node) in ffnn.graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(
                id,
                DistRelation::from_dense(&d, *format).expect("chunkable"),
            );
        }
    }
    Fixture {
        graph: ffnn.graph,
        annotation: opt.annotation,
        registry,
        catalog,
        inputs,
    }
}

fn run_ft(fx: &Fixture, policy: RecoveryPolicy) {
    let cluster = Cluster::simsql_like(10);
    let ctx = PlanContext::new(&fx.registry, cluster);
    let config = FtConfig {
        policy,
        ..FtConfig::default()
    };
    execute_fault_tolerant(
        &fx.graph,
        &fx.annotation,
        &fx.inputs,
        &ctx,
        &fx.catalog,
        &AnalyticalCostModel,
        FaultInjector::disabled(),
        &config,
        ExecOptions::default(),
        &Obs::disabled(),
    )
    .expect("executes");
}

fn bench_execute(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("recovery_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    g.bench_function("execute/plain", |b| {
        b.iter(|| {
            execute_plan(&fx.graph, &fx.annotation, &fx.inputs, &fx.registry).expect("executes")
        })
    });
    g.bench_function("execute/fault_tolerant_disabled", |b| {
        b.iter(|| run_ft(&fx, RecoveryPolicy::Lineage))
    });
    g.bench_function("execute/fault_tolerant_checkpoint_disabled", |b| {
        b.iter(|| run_ft(&fx, RecoveryPolicy::Checkpoint))
    });
    g.finish();
}

/// Direct budget check: best-of-N fault-tolerant-disabled run time
/// against the best-of-N plain run time, with the two paths measured
/// interleaved so machine drift hits both equally. The minimum is the
/// right estimator here: scheduler noise only ever *adds* time, so the
/// floor is the honest cost of each path.
fn overhead_budget_report() {
    let fx = fixture();
    let reps = 40;
    // Warm both paths once so neither pays first-touch costs.
    execute_plan(&fx.graph, &fx.annotation, &fx.inputs, &fx.registry).expect("executes");
    run_ft(&fx, RecoveryPolicy::Lineage);

    let mut plain = f64::INFINITY;
    let mut ft = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        execute_plan(&fx.graph, &fx.annotation, &fx.inputs, &fx.registry).expect("executes");
        plain = plain.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        run_ft(&fx, RecoveryPolicy::Lineage);
        ft = ft.min(t.elapsed().as_secs_f64());
    }

    let overhead = ft / plain - 1.0;
    println!(
        "recovery overhead budget: plain {:.3} ms, fault-tolerant(disabled) {:.3} ms -> {:+.3}% (budget 2%) -> {}",
        plain * 1e3,
        ft * 1e3,
        overhead * 100.0,
        if overhead < 0.02 { "OK" } else { "OVER" }
    );
}

criterion_group!(benches, bench_execute);

fn main() {
    benches();
    overhead_budget_report();
}
