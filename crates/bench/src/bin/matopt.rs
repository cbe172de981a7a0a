//! `matopt` — command-line front end to the optimizer.
//!
//! ```text
//! matopt formats                         list the physical-format catalog
//! matopt impls                           list the 38 operator implementations
//! matopt plan <workload> [options]       optimize a workload and report the plan
//! matopt train <workload> [options]      run the multi-epoch training loop on a
//!                                        laptop-scale FFNN: autodiff-derived
//!                                        joint forward+backward graph, plan
//!                                        cached across epochs (re-optimized
//!                                        only when measured sparsity
//!                                        recalibrates the graph), per-epoch
//!                                        loss and cache-hit reporting
//! matopt serve [options]                 serve plan requests over stdin/stdout
//! matopt stats <workload> [options]      run a workload with the metrics
//!                                        registry enabled and print the
//!                                        Prometheus exposition (or --json)
//! matopt tune [options]                  probe the packed GEMM kernel's
//!                                        throughput across flop volumes,
//!                                        print the measured curve, and
//!                                        optionally persist it as
//!                                        kernels.tune
//! matopt fleet-chaos [options]           soak the supervised worker fleet:
//!                                        seeded SIGKILL schedules against
//!                                        real worker processes, every run
//!                                        checked bit-exact against the
//!                                        serial in-process reference
//!
//! workloads:
//!   ffnn:<hidden>            FFNN fwd + backprop-to-W2 (SimSQL experiments)
//!   ffnn-full:<hidden>       FFNN fwd + backprop + fwd (57-vertex graph)
//!   ffnn-small:<hidden>      laptop-scale FFNN the real executor can run
//!   ffnn-train:<hidden>      laptop-scale FFNN *training* graph: forward
//!                            pass, autodiff tape, SGD updates for every
//!                            parameter, and a scalar monitoring loss
//!   amazoncat:<batch>:<layer>[:sparse]   system-comparison FFNN
//!   chain:<1|2|3>            six-matrix multiplication chain, size set N
//!   inverse                  two-level block-wise inverse
//!   motivating               the section-2.1 example
//!
//! options:
//!   --workers N              cluster size (default 10)
//!   --engine simsql|pc       cluster profile (default simsql)
//!   --catalog all|dense|ssb|sb   format catalog (default dense)
//!   --explain                print the per-vertex plan breakdown
//!   --analyze                EXPLAIN ANALYZE: run the plan for real on
//!                            random inputs and join estimated with
//!                            measured per-vertex seconds (small dense
//!                            workloads only, e.g. ffnn-small:32)
//!   --trace-out <path>       write optimizer/simulator/executor events
//!                            as a Chrome trace (chrome://tracing,
//!                            Perfetto), or JSONL if <path> ends .jsonl
//!   --sql                    print the plan as SQL
//!   --dot                    print the annotated plan as Graphviz DOT
//!   --inject <spec>          inject faults while executing (--analyze):
//!                            crash@S, slow@SxF, flaky@SxN,
//!                            corrupt@S[:C], oom@SxN, random:N —
//!                            comma-separated; S is the 0-based compute
//!                            step
//!   --fault-seed N           seed for the fault injector (default 42)
//!   --recovery P             recovery policy: restart|checkpoint|lineage
//!                            (default lineage)
//!   --crash-rate R           expected worker crashes per worker-hour; adds
//!                            an expected-runtime-under-recovery report
//!   --straggler-rate R       fraction of vertices hit by stragglers
//!   --mem-budget SIZE        resident-byte budget for --analyze (e.g.
//!                            512M, 2G); the run walks one vertex at a
//!                            time and spills cold buffers to scratch
//!                            files when the next would exceed it
//!   --worker-procs N         execute --analyze vertices on N supervised
//!                            worker *processes* (forked matopt-workerd
//!                            daemons): heartbeat liveness, bounded
//!                            jittered-backoff restart, redispatch to
//!                            survivors on death. Incompatible with
//!                            --inject (the fleet has its own fault
//!                            machinery; see matopt fleet-chaos)
//!   --cache-dir <path>       reuse plans across invocations: warm the
//!                            plan cache from <path>/plans.mcache before
//!                            optimizing and persist it back afterwards
//!   --tune-dir <path>        plan under the measured throughput curve in
//!                            <path>/kernels.tune instead of the flat
//!                            flop rate (write one with matopt tune)
//!   --metrics-dump <path>    write the metrics-registry snapshot after
//!                            the run: Prometheus text, or JSON if
//!                            <path> ends .json
//!
//! train options (workload must be ffnn-small:<hidden> or
//! ffnn-train:<hidden> — both name the same laptop-scale training graph):
//!   --epochs N               epochs to run (default 3)
//!   --lr L                   SGD learning rate (default 0.01)
//!   --workers N              cluster size (default 4)
//!   --engine simsql|pc       cluster profile (default simsql)
//!   --beam N                 optimizer beam width (default 300)
//!   --checkpoint <path>      resume from <path> when it exists, and
//!                            rewrite it after every epoch (a corrupt
//!                            checkpoint file is an error, not a silent
//!                            fresh start)
//!   --dot                    print the forward/backward-tagged training
//!                            graph as Graphviz DOT and exit
//!
//! serve options:
//!   --workers N / --engine / --catalog    as for plan
//!   --deadline-ms N          reject requests that would wait longer
//!   --max-queue N            admission cap on concurrent optimizer runs
//!                            (default 64)
//!   --beam N                 optimizer beam width (default 4000)
//!   --cache-dir <path>       warm the cache on start, persist on EOF
//!   --no-cache               disable the plan cache (every request
//!                            runs the optimizer; responses carry a
//!                            zero fingerprint)
//!   --metrics-dump <path>    periodically (and on EOF) write the live
//!                            metrics snapshot: Prometheus text, or
//!                            JSON if <path> ends .json
//!   --serve-threads N        request worker threads (default 1);
//!                            responses stay in request order
//!   --tune-dir <path>        plan under the measured throughput curve in
//!                            <path>/kernels.tune: recalibrates the
//!                            service on start (bumps the plan-cache
//!                            epoch once)
//!
//! fleet-chaos options:
//!   --schedules N            seeded kill schedules to run (default 8)
//!   --seed S                 base seed (default 0x5eed0000); schedule i
//!                            uses seed S+i
//!   --workers N              worker processes per schedule (default 4)
//!
//! `matopt serve` drains gracefully on SIGTERM/SIGINT: admission stops,
//! every request already read off stdin is still answered, the plan
//! cache and metrics snapshot are persisted, and the process exits 0.
//!
//! tune options:
//!   --json                   machine-readable curve on stdout
//!   --out <path>             persist the curve to <path>/kernels.tune,
//!                            then reload and verify it (the
//!                            persisted-then-reloaded line goes to stderr)
//!
//! `matopt serve` reads one JSON request per line from stdin and writes
//! one JSON response per line to stdout. A request either names a
//! workload ({"id": 1, "workload": "ffnn-small:32"}) or inlines a graph
//! ({"id": 2, "graph": {"sources": [...], "ops": [...]}}); the response
//! carries the plan fingerprint, cost, and cache source (hit, miss, or
//! coalesced). A `{"op": "stats"}` line answers with live counters and
//! latency percentiles; `{"op": "drain"}` stops admitting (later
//! requests get error responses) and `{"op": "shutdown"}` stops the
//! session — both finish in-flight work, flush --metrics-dump, and
//! exit 0. The server always runs with the metrics registry enabled,
//! buffering events in a bounded ring (old events are dropped, never
//! the request path). Statistics go to stderr on EOF.
//! ```

use matopt_bench::{AutoPlan, Env, DEFAULT_BEAM};
use matopt_core::{
    training_to_dot, write_atomic, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId,
    NodeKind, PhysFormat, PlanContext, RecoveryPolicy,
};
use matopt_cost::{CostModel, ThroughputCurve};
use matopt_engine::{
    explain_analyze, explain_analyze_with_faults, explain_plan, parse_fault_spec, render_sql,
    simulate_plan_traced, simulate_plan_with_recovery, AdaptiveConfig, DistRelation,
    EpochPlanSource, ExecOptions, FtConfig, RemoteVertexExec, SimOutcome, TrainCheckpoint,
    TrainConfig, TrainSpec,
};
use matopt_graphs::{ffnn_training_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::{export, MemorySink, MetricsRegistry, Obs, RingSink};
use matopt_serve::{serve_lines, PlanService, ServeConfig, ServeSession};
use matopt_worker::{
    default_worker_bin, derive_schedule, install_termination_handler, run_schedule,
    termination_requested, FleetConfig, WorkerFleet,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `--analyze` actually executes the plan, so refuse workloads whose
/// sources alone would exceed this many bytes of dense payload.
const ANALYZE_BYTE_BUDGET: u64 = 2 << 30;

/// Event-ring capacity for `matopt serve`: enough recent events for a
/// post-mortem without letting a long-lived server grow without bound.
const SERVE_RING_CAPACITY: usize = 8192;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().map_or(("", &[][..]), |(c, r)| (c, r));
    let run = match cmd {
        "formats" => cmd_formats(),
        "impls" => cmd_impls(),
        "plan" => cmd_plan(rest),
        "train" => cmd_train(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "tune" => cmd_tune(rest),
        "fleet-chaos" => cmd_fleet_chaos(rest),
        _ => {
            eprintln!(
                "usage: matopt <formats|impls|plan|train|serve|stats|tune|fleet-chaos> ...  (see --help in the source header)"
            );
            Ok(2)
        }
    };
    std::process::exit(run.unwrap_or_else(|Exit(code, problem)| {
        eprintln!("{cmd}: {problem}");
        code
    }));
}

/// How a subcommand fails: the exit code, and the message `main` prints
/// to stderr after the subcommand's name.
struct Exit(i32, String);

/// Exit 2: the command line is wrong.
fn usage(problem: impl std::fmt::Display) -> Exit {
    Exit(2, problem.to_string())
}

/// Exit 1: the command line was fine and the run failed.
fn failed(problem: impl std::fmt::Display) -> Exit {
    Exit(1, problem.to_string())
}

/// One subcommand's options. Each `flag` / `value*` call takes its
/// option (every occurrence; the last value wins) out of the argument
/// list; `finish` then reports the first value that did not parse, or
/// the first argument no call claimed, as a [`usage`] error.
struct Opts<'a> {
    args: Vec<&'a str>,
    error: Option<String>,
}

impl<'a> Opts<'a> {
    fn new(args: &'a [String]) -> Self {
        Opts {
            args: args.iter().map(String::as_str).collect(),
            error: None,
        }
    }

    /// `true` when the valueless option `name` was given.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| *a != name);
        self.args.len() != before
    }

    /// The value following `name`, through `parse`; a missing or
    /// unparsable one is the error `"<name> expects <what>"`.
    fn value_with<T>(
        &mut self,
        name: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        let mut last = None;
        while let Some(i) = self.args.iter().position(|a| *a == name) {
            self.args.remove(i);
            last = (i < self.args.len())
                .then(|| self.args.remove(i))
                .and_then(&parse);
            if last.is_none() {
                self.error
                    .get_or_insert_with(|| format!("{name} expects {what}"));
            }
        }
        last
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str, what: &str) -> Option<T> {
        self.value_with(name, what, |s| s.parse().ok())
    }

    /// [`Opts::value`] that also rejects values failing `accept`.
    fn value_where<T: std::str::FromStr>(
        &mut self,
        name: &str,
        what: &str,
        accept: impl Fn(&T) -> bool,
    ) -> Option<T> {
        self.value_with(name, what, |s| s.parse().ok().filter(&accept))
    }

    fn finish(self) -> Result<(), Exit> {
        let unknown = || Some(format!("unknown option {}", self.args.first()?));
        self.error
            .or_else(unknown)
            .map_or(Ok(()), |p| Err(usage(p)))
    }
}

/// What `--engine` and `--catalog` accept ([`cluster_and_catalog`]).
const ENGINES: &str = "simsql|pc";
const CATALOGS: &str = "all|dense|ssb|sb";

fn cmd_formats() -> Result<i32, Exit> {
    let catalog = FormatCatalog::paper_default();
    println!("the {}-format catalog:", catalog.len());
    for f in catalog.formats() {
        let class = if f.is_sparse() { "sparse" } else { "dense" };
        println!("  {:<16} {class}", f.to_string());
    }
    Ok(0)
}

/// The CLI's experiment environment: the paper's 38 implementations
/// plus the reduction kernels that training-loss workloads
/// (`ffnn-train:<h>`) need. A strict superset — graphs without
/// reduction vertices plan exactly as under the paper registry. The
/// cost model's curve is empty — term for term the analytical model —
/// until `--tune-dir` swaps a measured one in.
fn cli_env() -> Env {
    Env {
        registry: ImplRegistry::extended(),
        model: CostModel::analytical(),
    }
}

/// `--tune-dir` for `plan` and `serve` alike: the cost model over the
/// measured curve in `<dir>/kernels.tune`, announced on stderr. A
/// missing or damaged file, or one in an earlier format, is exit code 1
/// with the path in the message.
fn load_curve_model(dir: &str) -> Result<CostModel, Exit> {
    let curve =
        ThroughputCurve::load(Path::new(dir)).map_err(|e| failed(format!("--tune-dir: {e}")))?;
    eprintln!(
        "cost model: measured curve ({} points, peak {:.1} GF/s)",
        curve.points().len(),
        curve.peak_gflops()
    );
    Ok(CostModel::with_curve(curve))
}

fn cmd_impls() -> Result<i32, Exit> {
    let env = cli_env();
    println!("{} atomic computation implementations:", env.registry.len());
    for i in env.registry.all() {
        println!("  {:<28} {:?} [{:?}]", i.name, i.op, i.strategy);
    }
    Ok(0)
}

fn cmd_plan(args: &[String]) -> Result<i32, Exit> {
    let (workload, options) = args
        .split_first()
        .ok_or_else(|| usage("missing workload"))?;
    let mut o = Opts::new(options);
    let workers = o.value("--workers", "a worker count").unwrap_or(10usize);
    let engine = o.value("--engine", ENGINES).unwrap_or("simsql".to_string());
    let catalog_name = o
        .value("--catalog", CATALOGS)
        .unwrap_or("dense".to_string());
    let explain = o.flag("--explain");
    let mut analyze = o.flag("--analyze");
    let trace_out: Option<String> = o.value("--trace-out", "a path");
    let sql = o.flag("--sql");
    let dot = o.flag("--dot");
    let inject: Option<String> = o.value("--inject", "a fault spec, e.g. crash@3");
    let fault_seed = o.value("--fault-seed", "an integer seed").unwrap_or(42u64);
    let recovery: RecoveryPolicy = o
        .value("--recovery", "restart|checkpoint|lineage")
        .unwrap_or_default();
    let crash_rate = o
        .value("--crash-rate", "a rate, e.g. 0.5")
        .unwrap_or(0.0f64);
    let straggler_rate = o
        .value("--straggler-rate", "a fraction, e.g. 0.1")
        .unwrap_or(0.0f64);
    let mem_budget: Option<String> = o.value("--mem-budget", "a size, e.g. 512M");
    let worker_procs = o.value_where("--worker-procs", "a process count >= 1", |n: &u32| *n >= 1);
    let cache_dir: Option<String> = o.value("--cache-dir", "a directory path");
    let tune_dir: Option<String> = o.value("--tune-dir", "a directory path");
    let metrics_dump: Option<String> = o.value("--metrics-dump", "a path");
    o.finish()?;
    let mem_budget = mem_budget
        .map(|s| matopt_core::parse_byte_size(&s))
        .transpose()
        .map_err(|e| usage(format!("--mem-budget: {e}")))?;

    let (mut cluster, catalog) =
        cluster_and_catalog(&engine, &catalog_name, workers).map_err(usage)?;
    if crash_rate > 0.0 || straggler_rate > 0.0 {
        cluster = cluster.with_fault_rates(crash_rate, straggler_rate, 4.0);
    }
    let graph = build_workload(workload, &cluster).map_err(usage)?;

    // `--inject`, `--mem-budget` and `--worker-procs` only have an
    // effect on the real executor, so they imply `--analyze`.
    if inject.is_some() || mem_budget.is_some() || worker_procs.is_some() {
        analyze = true;
    }
    // The simulated injector and the real process fleet are different
    // fault machines; running both at once would blame each other's
    // failures. The fleet soak lives under `matopt fleet-chaos`.
    if worker_procs.is_some() && inject.is_some() {
        return Err(usage(
            "--worker-procs cannot combine with --inject (try matopt fleet-chaos)",
        ));
    }

    let mut env = cli_env();
    if let Some(dir) = &tune_dir {
        env.model = load_curve_model(dir)?;
    }

    // One in-memory sink feeds every subsystem; `--analyze` without
    // `--trace-out` still runs traced, the events just stay unread.
    // `--metrics-dump` additionally attaches the aggregate registry.
    let sink = Arc::new(MemorySink::new());
    let registry = metrics_dump.is_some().then(MetricsRegistry::new);
    let obs = match &registry {
        Some(r) => Obs::with_metrics(Arc::clone(&sink), Arc::clone(r)),
        None if trace_out.is_some() || analyze => Obs::new(Arc::clone(&sink)),
        None => Obs::disabled(),
    };

    let ctx = env.ctx(cluster);
    let plan = match &cache_dir {
        Some(dir) => {
            plan_with_cache(dir, &graph, cluster, &catalog, &env, obs.clone()).map_err(failed)?
        }
        None => env
            .auto_plan_traced(&graph, cluster, &catalog, obs.clone())
            .map_err(|e| failed(format!("optimization failed: {e}")))?,
    };
    let outcome = match simulate_plan_traced(&graph, &plan.annotation, &ctx, &env.model, &obs) {
        Ok(report) => report.outcome,
        Err(_) => SimOutcome::Failed {
            vertex: matopt_core::NodeId(0),
            reason: matopt_engine::FailReason::OutOfMemory,
        },
    };
    println!(
        "optimized {} vertices in {:.2}s ({} search); estimated runtime {}",
        graph.len(),
        plan.opt_seconds,
        plan.exactness(),
        outcome
    );
    if plan.beam_truncated > 0 {
        println!(
            "  beam truncated {} joint-table entries; widen the beam for an exact search",
            plan.beam_truncated
        );
    }
    if cluster.has_fault_model() {
        println!(
            "expected runtime under recovery (crash rate {crash_rate}/worker-hour, \
             straggler rate {straggler_rate}):"
        );
        for policy in [
            RecoveryPolicy::Restart,
            RecoveryPolicy::Checkpoint,
            RecoveryPolicy::Lineage,
        ] {
            match simulate_plan_with_recovery(&graph, &plan.annotation, &ctx, &env.model, policy) {
                Ok(r) => println!(
                    "  {:<12} {} (+{:.2}s recovery overhead)",
                    policy.to_string(),
                    r.outcome,
                    r.expected_overhead_seconds
                ),
                Err(e) => eprintln!("  {policy}: recovery simulation failed: {e}"),
            }
        }
    }
    if explain {
        match explain_plan(&graph, &plan.annotation, &ctx, &env.model) {
            Ok(ex) => print!("{ex}"),
            Err(e) => eprintln!("explain failed: {e}"),
        }
    }
    if analyze {
        let faults = inject.as_deref().map(|spec| (spec, fault_seed, recovery));
        if let Err(msg) = run_analyze(
            &graph,
            &plan.annotation,
            &env,
            &ctx,
            &catalog,
            faults,
            mem_budget,
            worker_procs,
            &obs,
        ) {
            eprintln!("analyze: {msg}");
            return Ok(1);
        }
    }
    if sql {
        match render_sql(&graph, &plan.annotation, &ctx) {
            Ok(s) => print!("{s}"),
            Err(e) => eprintln!("sql rendering failed: {e}"),
        }
    }
    if dot {
        print!(
            "{}",
            matopt_core::annotated_to_dot(&graph, &plan.annotation, &env.registry)
        );
    }
    if let Some(path) = trace_out {
        let events = sink.take();
        let body = if path.ends_with(".jsonl") {
            export::jsonl(&events)
        } else {
            export::chrome_trace_json(&events)
        };
        std::fs::write(&path, body).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        println!("wrote {} trace events to {path}", events.len());
    }
    if let (Some(path), Some(r)) = (&metrics_dump, &registry) {
        write_metrics_dump(&r.snapshot(), path).map_err(failed)?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(0)
}

/// Writes a registry snapshot to `path`: JSON when the path ends
/// `.json`, Prometheus text otherwise.
fn write_metrics_dump(snapshot: &matopt_obs::MetricsSnapshot, path: &str) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        snapshot.to_json()
    } else {
        snapshot.prometheus()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `plan --cache-dir`: answer from a persisted plan cache when the
/// workload's fingerprint matches, falling back to (and recording) a
/// fresh optimizer run otherwise. A warmed annotation is re-validated
/// against the graph before use; a failing one is poisoned and
/// re-planned rather than trusted. Under a measured curve the service
/// is recalibrated after the warm, as `serve --tune-dir` does: plans
/// persisted under the flat rate are re-costed, not served.
fn plan_with_cache(
    dir: &str,
    graph: &ComputeGraph,
    cluster: Cluster,
    catalog: &FormatCatalog,
    env: &Env,
    obs: Obs,
) -> Result<AutoPlan, String> {
    let service = PlanService::with_obs(
        env.registry.clone(),
        catalog.clone(),
        cluster,
        CostModel::analytical(),
        ServeConfig {
            beam: DEFAULT_BEAM,
            ..ServeConfig::default()
        },
        obs,
    );
    let dir = Path::new(dir);
    let report = service
        .warm_from_dir(dir)
        .map_err(|e| format!("--cache-dir {}: {e}", dir.display()))?;
    if report.loaded > 0 || report.corrupt > 0 {
        eprintln!(
            "plan cache: warmed {} entries from {} ({} corrupt skipped)",
            report.loaded,
            dir.display(),
            report.corrupt
        );
    }
    if env.model.curve().is_some_and(|c| !c.is_empty()) {
        service.recalibrate(env.model.clone());
    }
    let mut planned = service
        .plan(graph)
        .map_err(|e| format!("optimization failed: {e}"))?;
    if matopt_core::validate(graph, &planned.plan.annotation, &env.ctx(cluster)).is_err() {
        service.cache().poison(planned.fingerprint);
        planned = service
            .plan(graph)
            .map_err(|e| format!("re-optimization failed: {e}"))?;
    }
    eprintln!(
        "plan cache: {} (fingerprint {})",
        planned.source.as_str(),
        planned.fingerprint
    );
    match service.persist_to_dir(dir) {
        Ok(n) => eprintln!("plan cache: persisted {n} entries to {}", dir.display()),
        Err(e) => eprintln!("plan cache: could not persist to {}: {e}", dir.display()),
    }
    Ok(AutoPlan {
        annotation: planned.plan.annotation.clone(),
        est_cost: planned.plan.cost,
        opt_seconds: planned.plan.opt_seconds,
        beam_truncated: planned.plan.beam_truncated,
    })
}

/// `matopt train`: the multi-epoch training loop as an operator
/// command. Builds the autodiff-derived joint forward+backward FFNN
/// graph, plans it once, and reuses the cached plan every later epoch
/// (recalibrating the graph's statistics after the first epoch's
/// measured sparsities come in, so the cache stays drift-free). Prints
/// one greppable line per epoch and a monotonicity verdict at the end.
fn cmd_train(args: &[String]) -> Result<i32, Exit> {
    let (workload, options) = args
        .split_first()
        .ok_or_else(|| usage("missing workload (try ffnn-small:32)"))?;
    let mut o = Opts::new(options);
    let epochs = o
        .value_where("--epochs", "a count >= 1", |n: &usize| *n >= 1)
        .unwrap_or(3);
    let lr = o.value_where("--lr", "a finite rate > 0, e.g. 0.01", |l: &f64| {
        l.is_finite() && *l > 0.0
    });
    let workers = o.value("--workers", "a worker count").unwrap_or(4usize);
    let engine = o.value("--engine", ENGINES).unwrap_or("simsql".to_string());
    let beam = o
        .value_where("--beam", "a width >= 1", |n: &usize| *n >= 1)
        .unwrap_or(300);
    let checkpoint: Option<String> = o.value("--checkpoint", "a file path");
    let dot = o.flag("--dot");
    o.finish()?;

    // Training runs the real executor, so only the laptop-scale graph
    // is accepted; `ffnn-small:<h>` and `ffnn-train:<h>` both name it.
    let hidden = match workload.split_once(':') {
        Some(("ffnn-small" | "ffnn-train", h)) => h
            .parse::<u64>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| usage(format!("{workload}: hidden size must be an integer >= 1")))?,
        _ => {
            return Err(usage(format!(
                "unsupported workload {workload}; training runs for real and \
                 accepts ffnn-small:<hidden> or ffnn-train:<hidden> only"
            )))
        }
    };
    let mut ffnn = FfnnConfig::laptop(hidden);
    if let Some(l) = lr {
        ffnn.learning_rate = l;
    }
    let t = ffnn_training_graph(ffnn)
        .map_err(|e| usage(format!("cannot build the training graph: {e}")))?;
    if dot {
        print!("{}", training_to_dot(&t.graph, &t.roles));
        return Ok(0);
    }

    // The catalog is fixed below (laptop-scale chunkings); only the
    // engine name is the user's to get wrong.
    let (cluster, _) = cluster_and_catalog(&engine, "dense", workers).map_err(usage)?;
    // The loss tape ends in scalar reductions, so planning needs the
    // extended registry (paper's 38 impls + the reduction kernels).
    let registry = ImplRegistry::extended();
    let ctx = PlanContext::new(&registry, cluster);
    // Laptop-scale chunkings: the graph's sources arrive as 16-strips
    // and 16-tiles, so the catalog offers exactly those plus the
    // scalar format the reductions produce.
    let catalog = FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 16 },
        PhysFormat::RowStrip { height: 16 },
    ]);

    let inputs = train_inputs(&t.graph, t.y).map_err(failed)?;
    let spec = TrainSpec {
        graph: t.graph,
        params: t.weights.iter().chain(t.biases.iter()).copied().collect(),
        updated: t
            .updated_weights
            .iter()
            .chain(t.updated_biases.iter())
            .copied()
            .collect(),
        loss: t.loss,
    };
    let config = TrainConfig {
        epochs,
        adaptive: AdaptiveConfig {
            beam,
            ..AdaptiveConfig::default()
        },
    };

    // `--checkpoint`: resume when the file exists; a corrupt file is an
    // error (resuming from garbage would silently fork the trajectory).
    let resume = match &checkpoint {
        Some(path) if Path::new(path).exists() => {
            let ck = std::fs::read(path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| TrainCheckpoint::decode(&bytes).map_err(|e| e.to_string()))
                .map_err(|e| failed(format!("--checkpoint {path}: {e}")))?;
            println!(
                "resuming from {path}: {} epochs already done, last loss {:.9e}",
                ck.epoch,
                ck.losses.last().copied().unwrap_or(f64::NAN)
            );
            Some(ck)
        }
        _ => None,
    };

    println!(
        "training {workload}: {} vertices, {} parameters, {epochs} epochs, lr {}, beam {beam}",
        spec.graph.len(),
        spec.params.len(),
        lr.unwrap_or(0.01),
    );
    let ck_error: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let on_epoch = |stats: &matopt_engine::EpochStats, ck: &TrainCheckpoint| {
        let source = match stats.plan {
            EpochPlanSource::CacheHit => "plan hit".to_string(),
            EpochPlanSource::Optimized => format!(
                "plan miss (optimized in {:.3}s, est cost {:.3}s)",
                stats.opt_seconds, stats.plan_cost
            ),
        };
        let drift = if stats.recalibrated {
            format!(
                "  [drift: recalibrated statistics, re-warmed cache in {:.3}s]",
                stats.opt_seconds
            )
        } else {
            String::new()
        };
        println!(
            "epoch {}: loss {:.9e}  {source}{drift}",
            stats.epoch, stats.loss
        );
        if let Some(path) = &checkpoint {
            if let Err(e) = persist_checkpoint(path, ck) {
                *ck_error.borrow_mut() = Some(e);
            }
        }
    };
    let started = std::time::Instant::now();
    let run = matopt_engine::train_resumable(
        &spec,
        &inputs,
        &ctx,
        &catalog,
        &CostModel::analytical(),
        &config,
        resume.as_ref(),
        Some(&on_epoch),
    )
    .map_err(failed)?;
    if let Some(e) = ck_error.into_inner() {
        return Err(failed(e));
    }
    println!(
        "trained {epochs} epochs in {:.2}s: {} plan hits, {} drift invalidations, \
         final loss {:.9e}",
        started.elapsed().as_secs_f64(),
        run.cache_hits,
        run.cache_invalidations,
        run.losses().last().copied().unwrap_or(f64::NAN)
    );
    if run.monotone_non_increasing() {
        println!("train: loss monotone non-increasing over {epochs} epochs");
        Ok(0)
    } else {
        Err(failed(format!(
            "loss INCREASED between epochs: {:?} (try a smaller --lr)",
            run.losses()
        )))
    }
}

/// Deterministic laptop-scale training inputs: seeded normal data,
/// 0.1-scaled seeded normal parameters (keeps the softmax away from
/// saturation), and row-stochastic one-hot labels so the fused
/// softmax+cross-entropy seed is the exact descent direction.
fn train_inputs(
    graph: &ComputeGraph,
    labels: NodeId,
) -> Result<HashMap<NodeId, DistRelation>, String> {
    let mut rng = seeded_rng(42);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let (r, c) = (node.mtype.rows as usize, node.mtype.cols as usize);
            let d = if id == labels {
                let mut m = DenseMatrix::zeros(r, c);
                for row in 0..r {
                    m.set(row, (row * 7 + 3) % c, 1.0);
                }
                m
            } else {
                random_dense_normal(r, c, &mut rng).map(|v| v * 0.1)
            };
            let rel = DistRelation::from_dense(&d, *format).map_err(|e| {
                format!(
                    "cannot chunk source {}: {e}",
                    node.name.as_deref().unwrap_or(&id.to_string())
                )
            })?;
            inputs.insert(id, rel);
        }
    }
    Ok(inputs)
}

/// Replaces the checkpoint file atomically, so a kill mid-write leaves
/// the previous epoch's checkpoint to resume from.
fn persist_checkpoint(path: &str, ck: &TrainCheckpoint) -> Result<(), String> {
    let path = Path::new(path);
    let problem = |e: &dyn std::fmt::Display| format!("--checkpoint {}: {e}", path.display());
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|name| name.to_str())
        .ok_or_else(|| problem(&"not a file path"))?;
    write_atomic(dir, name, &ck.encode()).map_err(|e| problem(&e))
}

fn cmd_serve(args: &[String]) -> Result<i32, Exit> {
    let mut o = Opts::new(args);
    let workers = o.value("--workers", "a worker count").unwrap_or(10usize);
    let engine = o.value("--engine", ENGINES).unwrap_or("simsql".to_string());
    let catalog_name = o
        .value("--catalog", CATALOGS)
        .unwrap_or("dense".to_string());
    let deadline_ms: Option<u64> = o.value("--deadline-ms", "milliseconds");
    let max_queue = o.value("--max-queue", "a count").unwrap_or(64usize);
    let beam = o.value("--beam", "a width").unwrap_or(DEFAULT_BEAM);
    let cache_dir: Option<String> = o.value("--cache-dir", "a directory path");
    let tune_dir: Option<String> = o.value("--tune-dir", "a directory path");
    let cache_enabled = !o.flag("--no-cache");
    let metrics_dump: Option<String> = o.value("--metrics-dump", "a path");
    let serve_threads = o
        .value_where("--serve-threads", "a count >= 1", |n: &usize| *n >= 1)
        .unwrap_or(1);
    o.finish()?;

    let (cluster, catalog) = cluster_and_catalog(&engine, &catalog_name, workers).map_err(usage)?;
    let config = ServeConfig {
        cache_enabled,
        deadline: deadline_ms.map(Duration::from_millis),
        max_queue_depth: max_queue,
        beam,
    };
    // The server is long-lived, so events go to a bounded ring (old
    // events are dropped, never the request path) and the aggregate
    // metrics registry is always on — it is what answers `stats` ops.
    let ring = Arc::new(RingSink::new(SERVE_RING_CAPACITY));
    let obs = Obs::with_metrics(Arc::clone(&ring), MetricsRegistry::new());
    let service = PlanService::with_obs(
        ImplRegistry::extended(),
        catalog,
        cluster,
        CostModel::analytical(),
        config,
        obs,
    );
    if let Some(dir) = &cache_dir {
        let report = service
            .warm_from_dir(Path::new(dir))
            .map_err(|e| failed(format!("--cache-dir {dir}: {e}")))?;
        eprintln!(
            "serve: warmed {} cached plans from {dir} ({} corrupt skipped)",
            report.loaded, report.corrupt
        );
    }
    // Recalibrate after the cache warm: the swap bumps the plan-cache
    // epoch, so plans warmed under the flat rate are re-costed on
    // demand.
    if let Some(dir) = &tune_dir {
        service.recalibrate(load_curve_model(dir)?);
    }

    // SIGTERM/SIGINT drain: admission stops, everything already read
    // off stdin is still answered, then the shared epilogue (cache
    // persist, final metrics dump) runs exactly once
    // and the process exits 0 — even while the reader thread is still
    // parked in a blocking stdin read.
    install_termination_handler();
    let session = ServeSession::new();
    let epilogue_ran = std::sync::atomic::AtomicBool::new(false);
    let epilogue = || {
        if epilogue_ran.swap(true, std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        if let Some(dir) = &cache_dir {
            match service.persist_to_dir(Path::new(dir)) {
                Ok(n) => eprintln!("serve: persisted {n} cached plans to {dir}"),
                Err(e) => eprintln!("serve: could not persist cache to {dir}: {e}"),
            }
        }
        if let Some(path) = &metrics_dump {
            if let Some(snap) = service.metrics_snapshot() {
                match write_metrics_dump(&snap, path) {
                    Ok(()) => eprintln!("serve: wrote final metrics snapshot to {path}"),
                    Err(msg) => eprintln!("serve: {msg}"),
                }
            }
        }
        if ring.dropped() > 0 {
            eprintln!(
                "serve: event ring (capacity {SERVE_RING_CAPACITY}) dropped {} old events",
                ring.dropped()
            );
        }
    };

    // `--metrics-dump` runs a sidecar thread that rewrites the dump
    // file every few seconds while the serve loop owns stdin/stdout.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        if let Some(path) = &metrics_dump {
            scope.spawn(|| {
                let mut ticks = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(250));
                    ticks += 1;
                    if ticks.is_multiple_of(20) {
                        if let Some(snap) = service.metrics_snapshot() {
                            if let Err(msg) = write_metrics_dump(&snap, path) {
                                eprintln!("serve: {msg}");
                            }
                        }
                    }
                }
            });
        }
        // Signal watcher: polls the handler's flag because a signal
        // cannot safely do the drain itself, then exits the process
        // once every in-flight response has been flushed.
        scope.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if termination_requested() {
                    eprintln!(
                        "serve: termination signal received; draining \
                         (answering everything already read)"
                    );
                    session.request_stop();
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while session.in_flight() > 0 && std::time::Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    eprintln!(
                        "serve: drained; {} requests read, {} responses written",
                        session.requests_read(),
                        session.responses_written()
                    );
                    epilogue();
                    std::process::exit(0);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let stdin = std::io::stdin();
        // `Stdout` (not `StdoutLock`) so the writer half can live on
        // the serve loop's writer thread.
        let mut stdout = std::io::stdout();
        let result = serve_lines(&service, stdin.lock(), &mut stdout, serve_threads, &session);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        result
    });
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: I/O error: {e}");
            epilogue();
            return Ok(1);
        }
    };
    epilogue();
    let stats = service.stats();
    eprintln!(
        "serve: {} requests ({} ok, {} errors){}; {} hits, {} misses, {} coalesced; \
         {} optimizer runs totalling {:.3}s; cache holds {} plans ({} bytes)",
        summary.requests,
        summary.ok,
        summary.errors,
        if summary.clean_shutdown {
            "; clean shutdown"
        } else {
            ""
        },
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.optimize_runs,
        stats.optimize_seconds,
        stats.cache_entries,
        stats.cache_bytes
    );
    // An orderly shutdown/drain exits 0 even when some requests were
    // error responses: the operator asked the session to end and it
    // ended with every response delivered.
    if summary.clean_shutdown {
        return Ok(0);
    }
    Ok(i32::from(summary.errors > 0))
}

/// `matopt fleet-chaos`: the kill harness as an operator command.
/// Derives seeded SIGKILL schedules (kill-at-dispatch, kill
/// mid-result-stream, heartbeat mutes), runs each against a real
/// multi-process fleet, and checks every sink bit-exact against the
/// serial in-process reference. Exits nonzero on any divergence.
fn cmd_fleet_chaos(args: &[String]) -> Result<i32, Exit> {
    let mut o = Opts::new(args);
    let schedules = o
        .value_where("--schedules", "a count >= 1", |n: &u64| *n >= 1)
        .unwrap_or(8);
    let seed = o
        .value_with("--seed", "an integer (0x-prefix ok)", parse_seed)
        .unwrap_or(0x5eed_0000);
    let workers = o
        .value_where("--workers", "a count >= 1", |n: &u32| *n >= 1)
        .unwrap_or(4);
    o.finish()?;
    let worker_bin = default_worker_bin().map_err(failed)?;
    println!(
        "fleet-chaos: {schedules} schedules, {workers} workers each, base seed {seed:#x}, \
         daemon {}",
        worker_bin.display()
    );
    let mut mismatches = 0u64;
    for s in 0..schedules {
        let schedule = derive_schedule(seed.wrapping_add(s), workers);
        let cfg = FleetConfig {
            workers,
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_misses: 8,
            restart: matopt_core::BackoffPolicy {
                base_ms: 5,
                cap_ms: 40,
                max_attempts: 6,
            },
            worker_bin: worker_bin.clone(),
            obs: None,
            on_death: None,
            seed: seed.wrapping_add(s) ^ 0xc4a0_5000,
        };
        match run_schedule(&schedule, cfg) {
            Ok(r) => {
                println!(
                    "recovered seed={:#x} workload={} kills={} mid_stream={} deaths={} \
                     redispatches={} restarts={} bit_exact={}",
                    r.seed,
                    r.workload,
                    r.kills,
                    r.mid_stream_kills,
                    r.deaths,
                    r.redispatches,
                    r.restarts,
                    r.bit_exact
                );
                if !r.bit_exact {
                    mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("fleet-chaos: seed {:#x}: {e}", seed.wrapping_add(s));
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        return Err(failed(format!(
            "{mismatches} of {schedules} schedules diverged"
        )));
    }
    println!("fleet-chaos: all {schedules} schedules recovered bit-exact");
    Ok(0)
}

/// Parses a seed: decimal, or hexadecimal with an `0x` prefix.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// `--analyze`: materialise random dense inputs for every source, run
/// the plan on the real executor, and print the estimate/measurement
/// join. Guarded so paper-scale workloads fail fast instead of
/// allocating hundreds of gigabytes.
#[allow(clippy::too_many_arguments)]
fn run_analyze(
    graph: &ComputeGraph,
    annotation: &matopt_core::Annotation,
    env: &Env,
    ctx: &matopt_core::PlanContext<'_>,
    catalog: &FormatCatalog,
    faults: Option<(&str, u64, RecoveryPolicy)>,
    mem_budget: Option<u64>,
    worker_procs: Option<u32>,
    obs: &Obs,
) -> Result<(), String> {
    let inputs = dense_inputs(graph)?;
    if let Some(budget) = mem_budget {
        println!("memory budget: {budget} bytes (spilling to scratch when exceeded)");
    }
    // `--worker-procs`: fork a supervised fleet and hand every vertex's
    // chosen implementation across the process boundary. The fleet
    // shares the run's metrics registry so liveness gauges land in
    // `--metrics-dump` alongside the executor's own counters.
    let fleet = match worker_procs {
        Some(n) => {
            let mut cfg = FleetConfig::standard(n).map_err(|e| format!("--worker-procs: {e}"))?;
            cfg.obs = obs.metrics().cloned();
            let fleet = WorkerFleet::spawn(cfg).map_err(|e| format!("--worker-procs: {e}"))?;
            println!(
                "worker fleet: {n} supervised processes (heartbeat liveness, bounded restart)"
            );
            Some(fleet)
        }
        None => None,
    };
    let remote: Option<Arc<dyn RemoteVertexExec>> =
        fleet.clone().map(|f| f as Arc<dyn RemoteVertexExec>);
    let options = ExecOptions {
        mem_budget,
        remote,
        ..ExecOptions::default()
    };
    let analysis = match faults {
        Some((spec, seed, policy)) => {
            let injector = parse_fault_spec(spec, seed, graph.compute_count())?;
            let config = FtConfig {
                policy,
                ..FtConfig::default()
            };
            println!("injecting faults ({spec}, seed {seed}) under the {policy} recovery policy:");
            explain_analyze_with_faults(
                graph, annotation, &inputs, ctx, catalog, &env.model, injector, &config, options,
                obs,
            )
            .map_err(|e| format!("fault-tolerant execution failed: {e}"))?
        }
        None => explain_analyze(graph, annotation, &inputs, ctx, &env.model, options, obs)
            .map_err(|e| format!("execution failed: {e}"))?,
    };
    print!("{analysis}");
    if let Some(fleet) = fleet {
        let fs = fleet.stats();
        println!(
            "fleet: {} tasks executed remotely; {} spawns, {} deaths ({} by heartbeat \
             silence), {} restarts, {} redispatches",
            fs.tasks_ok, fs.spawns, fs.deaths, fs.heartbeat_deaths, fs.restarts, fs.redispatches
        );
        fleet.shutdown();
    }
    Ok(())
}

/// Materialises a random dense input relation per source, refusing
/// sparse sources and paper-scale payloads (real execution only
/// accepts laptop-scale graphs).
fn dense_inputs(
    graph: &ComputeGraph,
) -> Result<HashMap<matopt_core::NodeId, DistRelation>, String> {
    let mut bytes = 0u64;
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            if format.is_sparse() {
                return Err(format!(
                    "source {} uses sparse format {format}; --analyze generates dense \
                     payloads only (try ffnn-small:<hidden>)",
                    node.name.as_deref().unwrap_or(&id.to_string()),
                ));
            }
        }
        bytes = bytes.saturating_add(node.mtype.rows.saturating_mul(node.mtype.cols) * 8);
    }
    if bytes > ANALYZE_BYTE_BUDGET {
        return Err(format!(
            "workload holds ~{} GiB of dense matrices; --analyze runs the plan for real \
             and only accepts laptop-scale graphs (try ffnn-small:<hidden>)",
            bytes >> 30
        ));
    }

    let mut rng = seeded_rng(42);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            let rel = DistRelation::from_dense(&d, *format).map_err(|e| {
                format!(
                    "cannot chunk source {}: {e}",
                    node.name.as_deref().unwrap_or(&id.to_string()),
                )
            })?;
            inputs.insert(id, rel);
        }
    }
    Ok(inputs)
}

/// `matopt stats <workload>`: optimize and execute the workload with
/// the metrics registry attached, print the human-readable analysis to
/// stderr, and emit the registry snapshot on stdout (Prometheus text,
/// or JSON with `--json`) — a one-shot, pipe-friendly view of exactly
/// what a metered `matopt serve` would expose.
fn cmd_stats(args: &[String]) -> Result<i32, Exit> {
    let (workload, options) = args
        .split_first()
        .ok_or_else(|| usage("missing workload (try ffnn-small:16)"))?;
    let mut o = Opts::new(options);
    let workers = o.value("--workers", "a worker count").unwrap_or(10usize);
    let engine = o.value("--engine", ENGINES).unwrap_or("simsql".to_string());
    let catalog_name = o
        .value("--catalog", CATALOGS)
        .unwrap_or("dense".to_string());
    let json = o.flag("--json");
    o.finish()?;

    let (cluster, catalog) = cluster_and_catalog(&engine, &catalog_name, workers).map_err(usage)?;
    let graph = build_workload(workload, &cluster).map_err(usage)?;

    let registry = MetricsRegistry::new();
    let ring = Arc::new(RingSink::new(4096));
    let obs = Obs::with_metrics(Arc::clone(&ring), Arc::clone(&registry));
    let env = cli_env();
    let ctx = env.ctx(cluster);
    let plan = env
        .auto_plan_traced(&graph, cluster, &catalog, obs.clone())
        .map_err(|e| failed(format!("optimization failed: {e}")))?;
    let inputs = dense_inputs(&graph).map_err(failed)?;
    let analysis = explain_analyze(
        &graph,
        &plan.annotation,
        &inputs,
        &ctx,
        &env.model,
        ExecOptions::default(),
        &obs,
    )
    .map_err(|e| failed(format!("execution failed: {e}")))?;
    // Human-readable join to stderr; machine-readable exposition on
    // stdout so `matopt stats ... | promtool check metrics` works.
    eprint!("{analysis}");
    let snapshot = registry.snapshot();
    if json {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.prometheus());
    }
    Ok(0)
}

/// The cluster profile and format catalog the `--engine` / `--catalog`
/// options name.
///
/// # Errors
/// An unknown name, with the valid ones — never a silent default.
fn cluster_and_catalog(
    engine: &str,
    catalog: &str,
    workers: usize,
) -> Result<(Cluster, FormatCatalog), String> {
    let cluster = match engine {
        "simsql" => Cluster::simsql_like(workers),
        "pc" | "plinycompute" => Cluster::plinycompute_like(workers),
        other => return Err(format!("unknown --engine {other:?}; expected simsql|pc")),
    };
    let catalog = match catalog {
        "all" => FormatCatalog::paper_default(),
        "dense" => FormatCatalog::paper_default().dense_only(),
        "ssb" => FormatCatalog::single_strip_block(),
        "sb" => FormatCatalog::single_block(),
        other => {
            return Err(format!(
                "unknown --catalog {other:?}; expected all|dense|ssb|sb"
            ))
        }
    };
    Ok((cluster, catalog))
}

/// Workload specs are shared with the serving protocol so a `plan`
/// invocation and a `{"workload": ...}` request build identical graphs
/// (and therefore identical cache fingerprints).
fn build_workload(spec: &str, cluster: &Cluster) -> Result<ComputeGraph, String> {
    matopt_serve::protocol::workload_graph(spec, cluster)
}

/// `matopt tune`: probe the packed GEMM kernel's throughput curve,
/// print its points, and optionally persist it as `kernels.tune` —
/// reloading and verifying it so a smoke run proves the round trip,
/// not just the write.
fn cmd_tune(args: &[String]) -> Result<i32, Exit> {
    let mut o = Opts::new(args);
    let json = o.flag("--json");
    let out: Option<String> = o.value("--out", "a directory path");
    o.finish()?;

    let started = std::time::Instant::now();
    let curve = ThroughputCurve::measure();
    let secs = started.elapsed().as_secs_f64();

    if json {
        let points: Vec<String> = curve
            .points()
            .iter()
            .map(|(f, g)| format!("[{f:.0},{g:.3}]"))
            .collect();
        println!(
            "{{\"curve\":[{}],\"peak_gflops\":{:.3},\"probe_seconds\":{secs:.3}}}",
            points.join(","),
            curve.peak_gflops()
        );
    } else {
        println!(
            "measured {} curve points in {secs:.2}s (peak {:.2} GFLOP/s):",
            curve.points().len(),
            curve.peak_gflops()
        );
        for (flops, gflops) in curve.points() {
            println!("  {flops:>12.3e} flops  {gflops:7.2} GFLOP/s");
        }
    }

    if let Some(dir) = &out {
        let dir = Path::new(dir);
        curve
            .save(dir)
            .map_err(|e| failed(format!("cannot persist to {}: {e}", dir.display())))?;
        let reloaded =
            ThroughputCurve::load(dir).map_err(|e| failed(format!("cannot reload {e}")))?;
        let verified = reloaded == curve;
        eprintln!(
            "tune: persisted-then-reloaded {} points from {} -- {}",
            reloaded.points().len(),
            dir.display(),
            if verified { "verified" } else { "MISMATCH" }
        );
        if !verified {
            return Ok(1);
        }
    }
    Ok(0)
}
