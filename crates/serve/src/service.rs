//! [`PlanService`]: the long-lived concurrent planning front end.
//!
//! A request is a compute graph; the response is an optimized plan.
//! The service fingerprints the request ([`crate::fingerprint`]),
//! consults the shared [`PlanCache`], and on a miss runs the frontier
//! DP exactly once per fingerprint no matter how many clients ask
//! concurrently — the *single-flight* discipline: the first miss
//! becomes the leader and optimizes; every concurrent miss on the same
//! fingerprint parks on the leader's flight and receives the same
//! `Arc<Optimized>` (or the same error) when it lands.
//!
//! Backpressure reuses the admission vocabulary of the PR 4 governor:
//! a request that would push the number of in-flight optimizations past
//! [`ServeConfig::max_queue_depth`] is rejected up front with
//! [`ServeError::Overloaded`] rather than queued unboundedly, and a
//! request whose [`ServeConfig::deadline`] expires while parked returns
//! [`ServeError::DeadlineExceeded`] without cancelling the leader (the
//! plan still lands in the cache for the next asker).

use crate::flight::{Joined, SingleFlight};
use crate::{fingerprint, Fingerprint, PlanCache, ServeConfig};
use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, PlanContext};
use matopt_cost::{CostModel, DriftMonitor};
use matopt_engine::{
    execute_adaptive_planned, execute_plan_with, AdaptiveConfig, AdaptiveError, AdaptiveOutcome,
    DistRelation, ExecError, ExecOptions, ExecOutcome, FaultInjector, FtConfig, FtOutcome,
};
use matopt_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext, OptError, Optimized};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request: `depth` optimizations
    /// were already in flight, at the configured queue-depth cap.
    Overloaded {
        /// In-flight optimizations at rejection time.
        depth: usize,
    },
    /// The request's deadline expired before a plan landed.
    DeadlineExceeded,
    /// The optimizer itself failed.
    Opt(OptError),
    /// The request was malformed (protocol front end).
    BadRequest(String),
    /// The tenant's in-flight quota was exhausted (front door).
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
    },
    /// The executor failed (message form so coalesced executions can
    /// share one error).
    Exec(String),
    /// The service is draining: in-flight work finishes, new work is
    /// refused.
    Draining,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: {depth} optimizations in flight")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Opt(e) => write!(f, "optimization failed: {e}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "quota exceeded for tenant {tenant}")
            }
            ServeError::Exec(msg) => write!(f, "execution failed: {msg}"),
            ServeError::Draining => write!(f, "draining: not admitting new work"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Straight out of the cache.
    Hit,
    /// This request ran the optimizer.
    Miss,
    /// Another in-flight request ran the optimizer; this one waited.
    Coalesced,
}

impl PlanSource {
    /// Stable lowercase label (obs attributes, protocol responses).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanSource::Hit => "hit",
            PlanSource::Miss => "miss",
            PlanSource::Coalesced => "coalesced",
        }
    }
}

/// A served plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The optimized plan (shared with the cache and with every
    /// coalesced requester).
    pub plan: Arc<Optimized>,
    /// The request's fingerprint. Zero when the service runs with the
    /// cache disabled: nothing consumes it there, and skipping the
    /// canonicalization keeps the uncached path as cheap as calling
    /// the optimizer directly (compute one on demand with
    /// [`PlanService::fingerprint`] if needed).
    pub fingerprint: Fingerprint,
    /// Hit, miss, or coalesced.
    pub source: PlanSource,
    /// Wall-clock service latency for this request.
    pub latency: Duration,
}

/// Counter snapshot from [`PlanService::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Plan requests received.
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that ran the optimizer.
    pub misses: u64,
    /// Requests that waited on another request's optimizer run.
    pub coalesced: u64,
    /// Requests rejected by queue-depth admission control.
    pub admission_rejects: u64,
    /// Requests that timed out waiting for a plan.
    pub deadline_expired: u64,
    /// Times the optimizer actually ran.
    pub optimize_runs: u64,
    /// Total wall-clock seconds spent inside the optimizer.
    pub optimize_seconds: f64,
    /// Cache-level counters (evictions, stale drops, poisons, ...).
    pub cache: crate::CacheCounters,
    /// Live cached plans.
    pub cache_entries: usize,
    /// Estimated cached bytes.
    pub cache_bytes: u64,
}

/// Pre-resolved metric handles for the request hot path: every
/// per-request update is a wait-free atomic op, with no registry name
/// lookup. Built once in [`PlanService::with_obs`] when the `Obs`
/// handle carries a [`matopt_obs::MetricsRegistry`].
struct ServeMetrics {
    requests: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    admission_rejects: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    evictions: Arc<Counter>,
    poisoned: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    latency_hit_us: Arc<Histogram>,
    latency_miss_us: Arc<Histogram>,
    latency_coalesced_us: Arc<Histogram>,
    drift_events: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: &matopt_obs::MetricsRegistry) -> Self {
        let s = Subsystem::Serve;
        ServeMetrics {
            requests: registry.counter(s, "requests"),
            hits: registry.counter(s, "hits"),
            misses: registry.counter(s, "misses"),
            coalesced: registry.counter(s, "coalesced"),
            admission_rejects: registry.counter(s, "admission_rejects"),
            deadline_expired: registry.counter(s, "deadline_expired"),
            evictions: registry.counter(s, "cache_evictions"),
            poisoned: registry.counter(s, "cache_poisoned"),
            queue_depth: registry.gauge(s, "queue_depth"),
            latency_hit_us: registry.histogram(s, "latency_hit_us"),
            latency_miss_us: registry.histogram(s, "latency_miss_us"),
            latency_coalesced_us: registry.histogram(s, "latency_coalesced_us"),
            drift_events: registry.counter(Subsystem::CostModel, "drift_events"),
        }
    }

    fn latency(&self, source: PlanSource) -> &Histogram {
        match source {
            PlanSource::Hit => &self.latency_hit_us,
            PlanSource::Miss => &self.latency_miss_us,
            PlanSource::Coalesced => &self.latency_coalesced_us,
        }
    }
}

/// The concurrent plan service. See the module docs for the request
/// pipeline; construction takes ownership of the registry, catalog,
/// cluster, and cost model so the service can outlive any caller and be
/// shared across threads (`&PlanService` is `Sync`).
pub struct PlanService {
    registry: ImplRegistry,
    catalog: FormatCatalog,
    cluster: RwLock<Cluster>,
    model: RwLock<CostModel>,
    cache: PlanCache,
    inflight: SingleFlight<Fingerprint, Arc<Optimized>>,
    config: ServeConfig,
    obs: Obs,
    metrics: Option<ServeMetrics>,
    drift: DriftMonitor,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    admission_rejects: AtomicU64,
    deadline_expired: AtomicU64,
    optimize_runs: AtomicU64,
    optimize_micros: AtomicU64,
}

impl PlanService {
    /// Builds a service with observability disabled.
    pub fn new(
        registry: ImplRegistry,
        catalog: FormatCatalog,
        cluster: Cluster,
        model: impl Into<CostModel>,
        config: ServeConfig,
    ) -> Self {
        Self::with_obs(registry, catalog, cluster, model, config, Obs::disabled())
    }

    /// Builds a service that emits [`Subsystem::Serve`] events to `obs`.
    pub fn with_obs(
        registry: ImplRegistry,
        catalog: FormatCatalog,
        cluster: Cluster,
        model: impl Into<CostModel>,
        config: ServeConfig,
        obs: Obs,
    ) -> Self {
        let metrics = obs.metrics().map(|m| ServeMetrics::new(m));
        PlanService {
            registry,
            catalog,
            cluster: RwLock::new(cluster),
            model: RwLock::new(model.into()),
            cache: PlanCache::new(config.cache),
            inflight: SingleFlight::new(),
            drift: DriftMonitor::new(config.drift),
            config,
            obs,
            metrics,
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            optimize_runs: AtomicU64::new(0),
            optimize_micros: AtomicU64::new(0),
        }
    }

    /// The service's implementation registry.
    pub fn registry(&self) -> &ImplRegistry {
        &self.registry
    }

    /// The service's format catalog.
    pub fn catalog(&self) -> &FormatCatalog {
        &self.catalog
    }

    /// The cluster requests are currently planned against.
    pub fn cluster(&self) -> Cluster {
        *self.cluster.read().expect("cluster lock")
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The plan cache (for persistence and inspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The service's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The fingerprint `plan` would use for `graph` right now.
    pub fn fingerprint(&self, graph: &ComputeGraph) -> Fingerprint {
        let cluster = self.cluster.read().expect("cluster lock");
        fingerprint(graph, &cluster, &self.catalog)
    }

    /// Swaps the cost model (a calibration update landed) and starts a
    /// new cache epoch: every plan costed under the old model is stale.
    /// Drift baselines are re-armed: they were learned against the old
    /// model's predictions.
    pub fn recalibrate(&self, model: impl Into<CostModel>) {
        *self.model.write().expect("model lock") = model.into();
        self.drift.reset();
        let epoch = self.cache.bump_epoch();
        self.obs.record(Subsystem::Serve, "invalidate", || {
            vec![
                ("reason", "recalibrate".into()),
                ("epoch", (epoch as i64).into()),
            ]
        });
    }

    /// Replaces the cluster (reconfiguration) and starts a new cache
    /// epoch.
    pub fn set_cluster(&self, cluster: Cluster) {
        *self.cluster.write().expect("cluster lock") = cluster;
        let epoch = self.cache.bump_epoch();
        self.obs.record(Subsystem::Serve, "invalidate", || {
            vec![
                ("reason", "set_cluster".into()),
                ("epoch", (epoch as i64).into()),
            ]
        });
    }

    /// Halves the cluster ([`Cluster::degraded`]) and starts a new
    /// cache epoch — the serving-side mirror of the degraded-cluster
    /// re-planning experiment.
    pub fn degrade(&self) {
        let degraded = self.cluster().degraded();
        self.set_cluster(degraded);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            optimize_runs: self.optimize_runs.load(Ordering::Relaxed),
            optimize_seconds: self.optimize_micros.load(Ordering::Relaxed) as f64 / 1e6,
            cache: self.cache.counters(),
            cache_entries: self.cache.entries(),
            cache_bytes: self.cache.bytes(),
        }
    }

    /// Serves a plan for `graph`: fingerprint → cache → single-flight
    /// optimize.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] under admission control,
    /// [`ServeError::DeadlineExceeded`] past the configured deadline,
    /// [`ServeError::Opt`] when the optimizer fails.
    pub fn plan(&self, graph: &ComputeGraph) -> Result<Planned, ServeError> {
        let started = Instant::now();
        let deadline_at = self.config.deadline.map(|d| started + d);
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }

        let (fp, result) = if self.config.cache_enabled {
            let fp = self.fingerprint(graph);
            (fp, self.plan_cached(graph, fp, deadline_at))
        } else {
            // Cache disabled: the honest uncached baseline — every
            // request pays the optimizer, with no coalescing to hide
            // behind. Nothing consumes a fingerprint on this path and
            // canonicalization is not free, so none is computed: the
            // `overhead` bench gates this path at < 2% over calling
            // the optimizer directly.
            let result = self.optimize(graph).map(|plan| (plan, PlanSource::Miss));
            (Fingerprint(0), result)
        };

        let latency = started.elapsed();
        match result {
            Ok((plan, source)) => {
                let counter = match source {
                    PlanSource::Hit => &self.hits,
                    PlanSource::Miss => &self.misses,
                    PlanSource::Coalesced => &self.coalesced,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    match source {
                        PlanSource::Hit => m.hits.inc(),
                        PlanSource::Miss => m.misses.inc(),
                        PlanSource::Coalesced => m.coalesced.inc(),
                    }
                    m.latency(source).record(latency.as_micros() as u64);
                }
                self.obs.counter(Subsystem::Serve, source.as_str(), 1.0);
                self.obs.record(Subsystem::Serve, "request", || {
                    vec![
                        ("fingerprint", fp.hex().into()),
                        ("source", source.as_str().into()),
                        ("latency_us", (latency.as_micros() as i64).into()),
                        ("cost", plan.cost.into()),
                    ]
                });
                Ok(Planned {
                    plan,
                    fingerprint: fp,
                    source,
                    latency,
                })
            }
            Err(err) => {
                match &err {
                    ServeError::Overloaded { .. } => {
                        self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &self.metrics {
                            m.admission_rejects.inc();
                        }
                        self.obs.counter(Subsystem::Serve, "admission_reject", 1.0);
                    }
                    ServeError::DeadlineExceeded => {
                        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &self.metrics {
                            m.deadline_expired.inc();
                        }
                        self.obs.counter(Subsystem::Serve, "deadline_expired", 1.0);
                    }
                    _ => {}
                }
                self.obs.record(Subsystem::Serve, "request_error", || {
                    vec![
                        ("fingerprint", fp.hex().into()),
                        ("error", err.to_string().into()),
                    ]
                });
                Err(err)
            }
        }
    }

    fn plan_cached(
        &self,
        graph: &ComputeGraph,
        fp: Fingerprint,
        deadline_at: Option<Instant>,
    ) -> Result<(Arc<Optimized>, PlanSource), ServeError> {
        if let Some(plan) = self.cache.get(fp) {
            return Ok((plan, PlanSource::Hit));
        }

        // Single flight: first miss on a fingerprint leads, the rest
        // park on its flight.
        let joined = self.inflight.join(fp, |depth| {
            if depth >= self.config.max_queue_depth {
                return Err(ServeError::Overloaded { depth });
            }
            Ok(())
        })?;
        let leader = match joined {
            Joined::Follower(flight) => {
                return flight
                    .wait(deadline_at)
                    .map(|plan| (plan, PlanSource::Coalesced));
            }
            Joined::Leader(leader) => leader,
        };
        self.obs
            .gauge(Subsystem::Serve, "queue_depth", leader.depth as f64);
        if let Some(m) = &self.metrics {
            m.queue_depth.set(leader.depth as f64);
        }

        // Capture the epoch *before* optimizing: if an invalidation
        // lands mid-optimize, the inserted entry is born stale instead
        // of outliving the event it should have died to.
        let epoch = self.cache.epoch();
        let outcome = if deadline_at.is_some_and(|at| Instant::now() >= at) {
            Err(ServeError::DeadlineExceeded)
        } else {
            self.optimize(graph)
        };
        if let Ok(plan) = &outcome {
            let evicted = self.cache.insert(fp, Arc::clone(plan), epoch);
            if evicted > 0 {
                self.obs
                    .counter(Subsystem::Serve, "evicted", evicted as f64);
                if let Some(m) = &self.metrics {
                    m.evictions.add(evicted as u64);
                }
            }
        }
        let depth = leader.publish(outcome.clone());
        if let Some(m) = &self.metrics {
            m.queue_depth.set(depth as f64);
        }
        outcome.map(|plan| (plan, PlanSource::Miss))
    }

    /// Runs the frontier DP under the current model + cluster.
    fn optimize(&self, graph: &ComputeGraph) -> Result<Arc<Optimized>, ServeError> {
        let cluster = self.cluster();
        let model = self.model.read().expect("model lock");
        let ctx = PlanContext::new(&self.registry, cluster);
        let octx = OptContext::with_obs(&ctx, &self.catalog, &model, self.obs.clone());
        let opt = frontier_dp_beam(graph, &octx, self.config.beam).map_err(ServeError::Opt)?;
        self.optimize_runs.fetch_add(1, Ordering::Relaxed);
        self.optimize_micros
            .fetch_add((opt.opt_seconds * 1e6) as u64, Ordering::Relaxed);
        Ok(Arc::new(opt))
    }

    /// Executes a served plan on concrete inputs through the pipelined
    /// executor (the `matopt-pool` fan-out).
    ///
    /// # Errors
    /// [`ExecError`] from the executor.
    pub fn execute(
        &self,
        graph: &ComputeGraph,
        planned: &Planned,
        inputs: &HashMap<NodeId, DistRelation>,
    ) -> Result<ExecOutcome, ExecError> {
        let outcome = execute_plan_with(
            graph,
            &planned.plan.annotation,
            inputs,
            &self.registry,
            &self.obs,
            ExecOptions::default(),
        )?;
        if planned.fingerprint != Fingerprint(0) {
            self.observe_runtime(
                planned.fingerprint,
                planned.plan.cost,
                outcome.total_seconds,
            );
        }
        Ok(outcome)
    }

    /// Plans `graph` while bypassing the cache, single-flight, and
    /// admission machinery entirely: a fresh optimizer run under the
    /// *current* model and cluster, every time. This is the front
    /// door's degraded path — when the circuit breaker has implicated
    /// the cached fast path, answers must not depend on it. The result
    /// carries [`Fingerprint`]`(0)` and is never inserted into the
    /// cache.
    ///
    /// # Errors
    /// [`ServeError::Opt`] when the optimizer fails.
    pub fn plan_bypass(&self, graph: &ComputeGraph) -> Result<Planned, ServeError> {
        let started = Instant::now();
        let plan = self.optimize(graph)?;
        Ok(Planned {
            plan,
            fingerprint: Fingerprint(0),
            source: PlanSource::Miss,
            latency: started.elapsed(),
        })
    }

    /// Executes a served plan through the fault-tolerant executor,
    /// borrowing the service's registry, catalog, cluster, and cost
    /// model for recovery re-planning. Runtime drift feedback is the
    /// caller's job (the outcome's `total_seconds` plus
    /// [`PlanService::observe_runtime`]): fault-injected timings would
    /// poison the drift baseline if fed indiscriminately.
    ///
    /// # Errors
    /// [`ExecError`] when the run fails beyond recovery.
    pub fn execute_fault_tolerant(
        &self,
        graph: &ComputeGraph,
        planned: &Planned,
        inputs: &HashMap<NodeId, DistRelation>,
        injector: FaultInjector,
        config: &FtConfig,
        options: ExecOptions,
    ) -> Result<FtOutcome, ExecError> {
        let cluster = self.cluster();
        let model = self.model.read().expect("model lock");
        let ctx = PlanContext::new(&self.registry, cluster);
        matopt_engine::execute_fault_tolerant(
            graph,
            &planned.plan.annotation,
            inputs,
            &ctx,
            &self.catalog,
            &model,
            injector,
            config,
            options,
            &self.obs,
        )
    }

    /// Feeds one (predicted, measured) runtime pair into the drift
    /// monitor for `fp`. [`PlanService::execute`] calls this
    /// automatically; callers that execute served plans themselves (or
    /// measure elsewhere) feed it directly.
    ///
    /// When the per-fingerprint EWMA of measured/predicted drifts out
    /// of band for `config.drift.min_observations` consecutive
    /// observations, the service emits a [`Subsystem::CostModel`] drift
    /// record, bumps the cache epoch (every cached plan was costed by a
    /// model now proven out of calibration), and returns `true` — once
    /// per fingerprint until [`PlanService::recalibrate`] re-arms the
    /// monitor.
    pub fn observe_runtime(&self, fp: Fingerprint, predicted: f64, measured: f64) -> bool {
        let Some(event) = self.drift.observe(fp.0, predicted, measured) else {
            return false;
        };
        let epoch = self.cache.bump_epoch();
        if let Some(m) = &self.metrics {
            m.drift_events.inc();
        }
        self.obs.record(Subsystem::CostModel, "drift", || {
            vec![
                ("fingerprint", fp.hex().into()),
                ("baseline", event.baseline.into()),
                ("ewma", event.ewma.into()),
                ("drift", event.drift.into()),
                ("observations", (i64::from(event.observations)).into()),
                ("epoch", (epoch as i64).into()),
            ]
        });
        true
    }

    /// Pull-model metrics snapshot: refreshes the gauges only a reader
    /// can compute cheaply (cache size, epoch, pool busy time), then
    /// snapshots the whole registry. `None` when the service was built
    /// without a metrics registry.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let registry = self.obs.metrics()?;
        registry.set_gauge(
            Subsystem::Serve,
            "cache_entries",
            self.cache.entries() as f64,
        );
        registry.set_gauge(Subsystem::Serve, "cache_bytes", self.cache.bytes() as f64);
        registry.set_gauge(Subsystem::Serve, "cache_epoch", self.cache.epoch() as f64);
        let pool = matopt_pool::Pool::global();
        let stats = pool.stats();
        registry.set_gauge(Subsystem::Sched, "pool_workers", pool.workers() as f64);
        registry.set_gauge(Subsystem::Sched, "pool_busy_seconds", stats.busy_seconds());
        Some(registry.snapshot())
    }

    /// Adaptive execution of the plan the service serves for `graph`,
    /// with cache feedback: when measured statistics force a suffix
    /// re-plan, the cached plan was planned from statistics now proven
    /// wrong, so the entry is poisoned — the next request re-optimizes
    /// instead of inheriting the misestimate.
    ///
    /// # Errors
    /// Everything [`PlanService::plan`] returns, [`ServeError::Opt`]
    /// when a re-plan finds no plan, [`ServeError::Exec`] from the
    /// executor.
    pub fn execute_adaptive(
        &self,
        graph: &ComputeGraph,
        inputs: &HashMap<NodeId, DistRelation>,
        config: AdaptiveConfig,
    ) -> Result<AdaptiveOutcome, ServeError> {
        let planned = self.plan(graph)?;
        let fp = planned.fingerprint;
        let cluster = self.cluster();
        let model = self.model.read().expect("model lock");
        let ctx = PlanContext::new(&self.registry, cluster);
        let hook = |vertex: NodeId| {
            if self.cache.poison(fp) {
                if let Some(m) = &self.metrics {
                    m.poisoned.inc();
                }
                self.obs.record(Subsystem::Serve, "poisoned", || {
                    vec![
                        ("fingerprint", fp.hex().into()),
                        ("vertex", vertex.index().into()),
                    ]
                });
            }
        };
        execute_adaptive_planned(
            graph,
            inputs,
            &ctx,
            &self.catalog,
            &model,
            config,
            &planned.plan.annotation,
            Some(&hook),
            &self.obs,
        )
        .map_err(|e| match e {
            AdaptiveError::Opt(e) => ServeError::Opt(e),
            AdaptiveError::Exec(e) => ServeError::Exec(e.to_string()),
        })
    }
}
