//! Overhead of the observability layer on the real executor.
//!
//! The acceptance bar is that a *disabled* sink costs < 2% versus an
//! uninstrumented executor. The instrumented code path with
//! `Obs::disabled()` IS the only path production callers run, so the
//! comparison here is threefold:
//!
//! * `execute/disabled` — the laptop FFNN weight update through the
//!   instrumented executor with the no-op sink;
//! * `execute/enabled_memory` — the same run with every event captured
//!   in a [`MemorySink`], bounding what tracing costs when it is on;
//! * `primitive/*` — the raw per-call price of a disabled
//!   `span_with` + `record` pair against an empty loop, which is the
//!   entire per-event overhead the disabled path can possibly add.
//!
//! The final `overhead budget` line multiplies the measured disabled
//! per-call cost by the number of instrumentation points the executor
//! actually hits and reports it as a fraction of the measured run time.

use criterion::{black_box, criterion_group, Criterion};
use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{MemorySink, Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Fixture {
    graph: matopt_core::ComputeGraph,
    annotation: matopt_core::Annotation,
    registry: ImplRegistry,
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
        inputs,
    }
}

fn bench_execute(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    let disabled = Obs::disabled();
    g.bench_function("execute/disabled", |b| {
        b.iter(|| {
            execute_plan_with(
                &fx.graph,
                &fx.annotation,
                &fx.inputs,
                &fx.registry,
                &disabled,
                ExecOptions::default(),
            )
            .expect("executes")
        })
    });

    let sink = Arc::new(MemorySink::new());
    let enabled = Obs::new(Arc::clone(&sink));
    g.bench_function("execute/enabled_memory", |b| {
        b.iter(|| {
            let out = execute_plan_with(
                &fx.graph,
                &fx.annotation,
                &fx.inputs,
                &fx.registry,
                &enabled,
                ExecOptions::default(),
            )
            .expect("executes");
            sink.take(); // keep the sink from growing across iterations
            out
        })
    });

    g.bench_function("primitive/disabled_span_record", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                let _s = disabled.span_with(Subsystem::Executor, "impl", || {
                    vec![("vertex", (i as i64).into())]
                });
                disabled.record(Subsystem::Executor, "step", || {
                    vec![("value", (i as f64).into())]
                });
            }
        })
    });
    g.bench_function("primitive/baseline_empty_loop", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                black_box(i);
            }
        })
    });
    g.finish();
}

/// Direct budget check: disabled-path cost per instrumentation point ×
/// points hit per run, as a share of the measured run time.
fn overhead_budget_report() {
    let fx = fixture();
    let disabled = Obs::disabled();

    // Per-call cost of the disabled span+record pair.
    let calls = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..calls {
        let _s = disabled.span_with(Subsystem::Executor, "impl", || {
            vec![("vertex", (i as i64).into())]
        });
        disabled.record(Subsystem::Executor, "step", || {
            vec![("value", (i as f64).into())]
        });
    }
    let per_call = t0.elapsed().as_secs_f64() / calls as f64;

    // Instrumentation points one run hits: count the enabled events.
    let sink = Arc::new(MemorySink::new());
    let enabled = Obs::new(Arc::clone(&sink));
    execute_plan_with(
        &fx.graph,
        &fx.annotation,
        &fx.inputs,
        &fx.registry,
        &enabled,
        ExecOptions::default(),
    )
    .expect("executes");
    let points = sink.take().len() as f64;

    // Median-of-5 run time on the disabled path.
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            execute_plan_with(
                &fx.graph,
                &fx.annotation,
                &fx.inputs,
                &fx.registry,
                &disabled,
                ExecOptions::default(),
            )
            .expect("executes");
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    let run = runs[2];

    let share = per_call * points / run;
    println!(
        "overhead budget: {points:.0} instrumentation points x {:.1} ns = {:.3}% of a {:.3} ms run (budget 2%) -> {}",
        per_call * 1e9,
        share * 100.0,
        run * 1e3,
        if share < 0.02 { "OK" } else { "OVER" }
    );
}

criterion_group!(benches, bench_execute);

fn main() {
    benches();
    overhead_budget_report();
}
