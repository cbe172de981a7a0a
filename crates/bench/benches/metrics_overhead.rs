//! Overhead of the aggregate-metrics layer on the real executor.
//!
//! The metrics registry rides on [`Obs`]: every instrumentation site
//! first asks `obs.metrics()` and does nothing when no registry is
//! attached, so the *disabled* path — what `matopt plan` runs — pays
//! exactly one `Option` check per site. The acceptance bar is that
//! this costs < 2% versus the same run without a registry, measured
//! three ways:
//!
//! * `execute/no_registry` — the laptop FFNN weight update through the
//!   pipelined executor with a disabled `Obs` (no sink, no registry);
//! * `execute/metered` — the same run with a live registry and a
//!   bounded ring sink, bounding what metering costs when it is on;
//! * `primitive/*` — the raw per-call price of the disabled registry
//!   check, a wait-free counter add, and a histogram record.
//!
//! The final `metrics overhead budget` line multiplies the measured
//! disabled per-check cost by the number of metric updates one metered
//! run actually performs and reports it as a fraction of run time —
//! the same accounting `obs_overhead` uses for the event stream.

use criterion::{black_box, criterion_group, Criterion};
use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{MetricValue, MetricsRegistry, Obs, RingSink, Subsystem};
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

fn metered_obs() -> Obs {
    Obs::with_metrics(Arc::new(RingSink::new(4096)), MetricsRegistry::new())
}

fn bench_execute(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("metrics_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    let disabled = Obs::disabled();
    g.bench_function("execute/no_registry", |b| {
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

    let metered = metered_obs();
    g.bench_function("execute/metered", |b| {
        b.iter(|| {
            execute_plan_with(
                &fx.graph,
                &fx.annotation,
                &fx.inputs,
                &fx.registry,
                &metered,
                ExecOptions::default(),
            )
            .expect("executes")
        })
    });

    g.bench_function("primitive/disabled_registry_check", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..1000u64 {
                if black_box(&disabled).metrics().is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    let registry = MetricsRegistry::new();
    let counter = registry.counter(Subsystem::Executor, "bench");
    let histogram = registry.histogram(Subsystem::Executor, "bench_us");
    g.bench_function("primitive/counter_add", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                counter.add(black_box(i) & 1);
            }
        })
    });
    g.bench_function("primitive/histogram_record", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                histogram.record(black_box(i));
            }
        })
    });
    g.finish();
}

/// Direct budget check: disabled-path cost per registry check × metric
/// updates one metered run performs, as a share of the run time.
fn metrics_budget_report() {
    let fx = fixture();
    let disabled = Obs::disabled();

    // Per-call cost of the disabled `obs.metrics()` check — the entire
    // price a registry-less run pays per instrumentation site.
    let calls = 1_000_000u64;
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..calls {
        if black_box(&disabled).metrics().is_some() {
            hits += 1;
        }
    }
    black_box(hits);
    let per_call = t0.elapsed().as_secs_f64() / calls as f64;

    // Metric updates one run performs: every histogram sample is one
    // `observe`, and each counter/gauge in the snapshot is written once
    // per pipeline run.
    let metered = metered_obs();
    execute_plan_with(
        &fx.graph,
        &fx.annotation,
        &fx.inputs,
        &fx.registry,
        &metered,
        ExecOptions::default(),
    )
    .expect("executes");
    let snapshot = metered.metrics().expect("registry attached").snapshot();
    let points: u64 = snapshot
        .metrics
        .iter()
        .map(|m| match &m.value {
            MetricValue::Histogram(h) => h.count(),
            MetricValue::Counter(_) | MetricValue::Gauge(_) => 1,
        })
        .sum();

    // Median-of-5 run time without a registry.
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

    let share = per_call * points as f64 / run;
    println!(
        "metrics overhead budget: {points} metric updates x {:.1} ns disabled check = {:.3}% of a {:.3} ms run (budget 2%) -> {}",
        per_call * 1e9,
        share * 100.0,
        run * 1e3,
        if share < 0.02 { "OK" } else { "OVER" }
    );
}

criterion_group!(benches, bench_execute);

fn main() {
    benches();
    metrics_budget_report();
}
