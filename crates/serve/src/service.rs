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
use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::CostModel;
use matopt_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext, OptError, Optimized};
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
/// lookup. The one count of every served fact: built once in
/// [`PlanService::with_obs`] on the `Obs` handle's registry, or on a
/// private one when the handle carries none, and read back by
/// [`PlanService::stats`].
struct ServeMetrics {
    requests: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    admission_rejects: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    evictions: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    latency_hit_us: Arc<Histogram>,
    latency_miss_us: Arc<Histogram>,
    latency_coalesced_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let s = Subsystem::Serve;
        ServeMetrics {
            requests: registry.counter(s, "requests"),
            hits: registry.counter(s, "hits"),
            misses: registry.counter(s, "misses"),
            coalesced: registry.counter(s, "coalesced"),
            admission_rejects: registry.counter(s, "admission_rejects"),
            deadline_expired: registry.counter(s, "deadline_expired"),
            evictions: registry.counter(s, "cache_evictions"),
            queue_depth: registry.gauge(s, "queue_depth"),
            latency_hit_us: registry.histogram(s, "latency_hit_us"),
            latency_miss_us: registry.histogram(s, "latency_miss_us"),
            latency_coalesced_us: registry.histogram(s, "latency_coalesced_us"),
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
    metrics: ServeMetrics,
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
        let metrics =
            ServeMetrics::new(&obs.metrics().cloned().unwrap_or_else(MetricsRegistry::new));
        PlanService {
            registry,
            catalog,
            cluster: RwLock::new(cluster),
            model: RwLock::new(model.into()),
            cache: PlanCache::default(),
            inflight: SingleFlight::new(),
            config,
            obs,
            metrics,
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
    pub fn recalibrate(&self, model: impl Into<CostModel>) {
        *self.model.write().expect("model lock") = model.into();
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

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let m = &self.metrics;
        ServeStats {
            requests: m.requests.value(),
            hits: m.hits.value(),
            misses: m.misses.value(),
            coalesced: m.coalesced.value(),
            admission_rejects: m.admission_rejects.value(),
            deadline_expired: m.deadline_expired.value(),
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
        self.metrics.requests.inc();

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
                let m = &self.metrics;
                match source {
                    PlanSource::Hit => m.hits.inc(),
                    PlanSource::Miss => m.misses.inc(),
                    PlanSource::Coalesced => m.coalesced.inc(),
                }
                m.latency(source).record(latency.as_micros() as u64);
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
                    ServeError::Overloaded { .. } => self.metrics.admission_rejects.inc(),
                    ServeError::DeadlineExceeded => self.metrics.deadline_expired.inc(),
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
        // A previous leader may have inserted and published between the
        // cache probe above and the join: look again before optimizing,
        // or the optimizer runs twice for one fingerprint.
        if let Some(plan) = self.cache.get(fp) {
            leader.publish(Ok(Arc::clone(&plan)));
            return Ok((plan, PlanSource::Hit));
        }
        self.metrics.queue_depth.set(leader.depth as f64);

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
            self.metrics.evictions.add(evicted as u64);
        }
        let depth = leader.publish(outcome.clone());
        self.metrics.queue_depth.set(depth as f64);
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
}
