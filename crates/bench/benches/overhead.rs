//! The six disabled-path overhead budgets (< 2% each), one report line
//! per mechanism; CI greps the lines and fails on any `-> OVER`.
//!
//! ```sh
//! cargo bench -p matopt-bench --bench overhead
//! ```
//!
//! Every mechanism that lives permanently in the request path must be
//! free when it is switched off. All six are measured on one fixture —
//! the laptop FFNN weight update, planned once — two ways:
//!
//! * **ratio** (`recovery`, `governor`, `serve`, `tenancy`): best-of-40
//!   wall clock of the path with the mechanism present-but-disabled
//!   against the path without it, the two interleaved so machine drift
//!   hits both equally. The minimum is the right estimator: scheduler
//!   noise only ever *adds* time, so the floor is each path's honest cost.
//! * **share** (`metrics`, and the event stream's unprefixed `overhead
//!   budget` line): the measured per-call price of the disabled check
//!   × the number of instrumentation points one enabled run actually
//!   hits, as a fraction of the median-of-5 disabled run time.

use matopt_core::{
    Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, NodeKind, PlanContext,
    RecoveryPolicy,
};
use matopt_cost::CostModel;
use matopt_engine::{
    execute_fault_tolerant, execute_plan, execute_plan_with, DistRelation, ExecOptions,
    FaultInjector, FtConfig,
};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{MemorySink, MetricValue, MetricsRegistry, Obs, RingSink, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_serve::{
    ExecRequest, FrontDoor, FrontDoorConfig, PlanService, ServeConfig, TenancyConfig,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BEAM: usize = 4000;

struct Fixture {
    graph: ComputeGraph,
    annotation: Annotation,
    registry: ImplRegistry,
    catalog: FormatCatalog,
    inputs: HashMap<NodeId, DistRelation>,
}

impl Fixture {
    fn new() -> Fixture {
        let registry = ImplRegistry::paper_default();
        let graph = ffnn_w2_update_graph(FfnnConfig::laptop(32))
            .expect("type-correct")
            .graph;
        let catalog = FormatCatalog::paper_default().dense_only();
        let annotation = {
            let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
            let model = CostModel::analytical();
            let octx = OptContext::new(&ctx, &catalog, &model);
            frontier_dp_beam(&graph, &octx, BEAM)
                .expect("optimizes")
                .annotation
        };
        let mut rng = seeded_rng(42);
        let mut inputs = HashMap::new();
        for (id, node) in graph.iter() {
            if let NodeKind::Source { format } = &node.kind {
                let d = random_dense_normal(
                    node.mtype.rows as usize,
                    node.mtype.cols as usize,
                    &mut rng,
                );
                inputs.insert(
                    id,
                    DistRelation::from_dense(&d, *format).expect("chunkable"),
                );
            }
        }
        Fixture {
            graph,
            annotation,
            registry,
            catalog,
            inputs,
        }
    }

    fn run_plain(&self) {
        execute_plan(&self.graph, &self.annotation, &self.inputs, &self.registry)
            .expect("executes");
    }

    fn run_with(&self, obs: &Obs) {
        execute_plan_with(
            &self.graph,
            &self.annotation,
            &self.inputs,
            &self.registry,
            obs,
            ExecOptions::default(),
        )
        .expect("executes");
    }

    fn service(&self, cluster: Cluster, config: ServeConfig) -> PlanService {
        PlanService::new(
            ImplRegistry::paper_default(),
            self.catalog.clone(),
            cluster,
            CostModel::analytical(),
            config,
        )
    }
}

/// Ratio budget: warms both paths once, then takes the best of 40
/// interleaved runs of each and prints `<name> overhead budget: ...`.
fn ratio_budget(name: &str, base_label: &str, base: impl Fn(), with_label: &str, with: impl Fn()) {
    base();
    with();
    let (mut best_base, mut best_with) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..40 {
        let t = Instant::now();
        base();
        best_base = best_base.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        with();
        best_with = best_with.min(t.elapsed().as_secs_f64());
    }
    let overhead = best_with / best_base - 1.0;
    println!(
        "{name} overhead budget: {base_label} {:.3} ms, {with_label} {:.3} ms -> {:+.3}% (budget 2%) -> {}",
        best_base * 1e3,
        best_with * 1e3,
        overhead * 100.0,
        if overhead < 0.02 { "OK" } else { "OVER" }
    );
}

/// Share budget: `points` disabled checks at `per_call` seconds each
/// as a fraction of the median-of-5 disabled run. `what` names the
/// points and the price: `<points> <what[0]> x <ns> ns<what[1]>`.
fn share_budget(label: &str, points: u64, what: [&str; 2], per_call: f64, fx: &Fixture) {
    let disabled = Obs::disabled();
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            fx.run_with(&disabled);
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    let run = runs[2];
    let share = per_call * points as f64 / run;
    println!(
        "{label}: {points} {} x {:.1} ns{} = {:.3}% of a {:.3} ms run (budget 2%) -> {}",
        what[0],
        per_call * 1e9,
        what[1],
        share * 100.0,
        run * 1e3,
        if share < 0.02 { "OK" } else { "OVER" }
    );
}

/// `execute_fault_tolerant` with a disabled injector against the plain
/// executor: one injector branch and one span, no checkpoint clones.
fn recovery(fx: &Fixture) {
    let ctx = PlanContext::new(&fx.registry, Cluster::simsql_like(10));
    let config = FtConfig {
        policy: RecoveryPolicy::Lineage,
        ..FtConfig::default()
    };
    ratio_budget(
        "recovery",
        "plain",
        || fx.run_plain(),
        "fault-tolerant(disabled)",
        || {
            execute_fault_tolerant(
                &fx.graph,
                &fx.annotation,
                &fx.inputs,
                &ctx,
                &fx.catalog,
                &CostModel::analytical(),
                FaultInjector::disabled(),
                &config,
                ExecOptions::default(),
                &Obs::disabled(),
            )
            .expect("executes");
        },
    );
}

/// `execute_plan_with` with no budget against the plain executor: the
/// one budget check that picks the driver.
fn governor(fx: &Fixture) {
    ratio_budget(
        "governor",
        "plain",
        || fx.run_plain(),
        "governor(disabled)",
        || fx.run_with(&Obs::disabled()),
    );
}

/// `PlanService::plan` with the cache off against `frontier_dp_beam`
/// called as a library function: no fingerprint, a few counter bumps.
fn serve(fx: &Fixture) {
    let uncached = fx.service(
        Cluster::simsql_like(10),
        ServeConfig {
            cache_enabled: false,
            beam: BEAM,
            ..ServeConfig::default()
        },
    );
    let model = CostModel::analytical();
    ratio_budget(
        "serve",
        "direct",
        || {
            let ctx = PlanContext::new(&fx.registry, Cluster::simsql_like(10));
            let octx = OptContext::new(&ctx, &fx.catalog, &model);
            frontier_dp_beam(&fx.graph, &octx, BEAM).expect("optimizes");
        },
        "serve(cache-disabled)",
        || {
            uncached.plan(&fx.graph).expect("plans");
        },
    );
}

/// `FrontDoor::execute` with tenancy disabled against a cache-hit plan
/// executed straight on the engine with the front door's own options
/// (`retain_values: false` — a server only needs the sinks).
fn tenancy(fx: &Fixture) {
    let service = Arc::new(fx.service(Cluster::simsql_like(4), ServeConfig::default()));
    let front = FrontDoor::new(
        Arc::clone(&service),
        FrontDoorConfig {
            tenancy: TenancyConfig::disabled(),
            ..FrontDoorConfig::default()
        },
    );
    ratio_budget(
        "tenancy",
        "direct",
        || {
            let planned = service.plan(&fx.graph).expect("plan");
            execute_plan_with(
                &fx.graph,
                &planned.plan.annotation,
                &fx.inputs,
                service.registry(),
                service.obs(),
                ExecOptions {
                    retain_values: false,
                    ..Default::default()
                },
            )
            .expect("executes");
        },
        "front door(disabled)",
        || {
            front
                .execute(&ExecRequest {
                    tenant: "solo",
                    graph: &fx.graph,
                    inputs: &fx.inputs,
                    input_key: 1,
                    deadline: None,
                })
                .expect("executes");
        },
    );
}

/// The disabled `obs.metrics()` check × the metric updates one metered
/// run performs (every histogram sample is one update; each counter or
/// gauge in the snapshot is written once per run).
fn metrics(fx: &Fixture) {
    let disabled = Obs::disabled();
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

    let metered = Obs::with_metrics(Arc::new(RingSink::new(4096)), MetricsRegistry::new());
    fx.run_with(&metered);
    let snapshot = metered.metrics().expect("registry attached").snapshot();
    let points: u64 = snapshot
        .metrics
        .iter()
        .map(|m| match &m.value {
            MetricValue::Histogram(h) => h.count(),
            MetricValue::Counter(_) | MetricValue::Gauge(_) => 1,
        })
        .sum();
    let what = ["metric updates", " disabled check"];
    share_budget("metrics overhead budget", points, what, per_call, fx);
}

/// The disabled `span_with` + `record` pair × the events one traced
/// run emits.
fn obs(fx: &Fixture) {
    let disabled = Obs::disabled();
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

    let sink = Arc::new(MemorySink::new());
    fx.run_with(&Obs::new(Arc::clone(&sink)));
    let points = sink.take().len() as u64;
    let what = ["instrumentation points", ""];
    share_budget("overhead budget", points, what, per_call, fx);
}

fn main() {
    let fx = Fixture::new();
    recovery(&fx);
    governor(&fx);
    serve(&fx);
    tenancy(&fx);
    metrics(&fx);
    obs(&fx);
}
