//! # matopt-serve
//!
//! The concurrent plan-serving subsystem: the optimizer and engine of
//! the paper, repackaged as a long-lived service that answers "plan
//! this graph on this cluster" requests from many clients at once.
//!
//! Optimizing a plan costs real time (the frontier DP over a 57-vertex
//! FFNN graph is milliseconds to seconds depending on catalog and
//! beam), while *serving* an already-optimized plan costs microseconds
//! — so the subsystem is built around recognizing that two requests are
//! the same planning problem:
//!
//! * [`fingerprint`] — an isomorphism-stable 128-bit key over (graph,
//!   cluster, bucketed sparsity statistics, format catalog), built on
//!   the canonical labeling in `matopt-core`. Two `ExprBuilder`
//!   programs that build the same DAG in different vertex orders hit
//!   the same cache line.
//! * [`PlanCache`] — a sharded concurrent map fingerprint →
//!   `Arc<Optimized>` with cost-aware eviction (entries are weighted by
//!   the optimizer seconds a hit saves, decayed by recency) and
//!   epoch-based invalidation: a new cost model or a new cluster — the
//!   only inputs that change a plan — bumps an epoch instead of walking
//!   the cache.
//! * [`PlanService`] — the request pipeline: single-flight coalescing
//!   (concurrent misses on one fingerprint run the optimizer exactly
//!   once) and deadline and queue-depth backpressure in the engine
//!   governor's admission vocabulary. The service plans; [`FrontDoor`]
//!   executes (quotas, fair queueing, deadline shedding, batching, the
//!   shared memory pool), every request with the cached plan on one
//!   execution path.
//! * [`serve_lines`] — the `matopt serve` front end, one loop for every
//!   thread count: JSON-lines over stdin/stdout ([`protocol`] documents
//!   the request grammar); [`respond`] answers one line in-process.
//! * [`save_cache`]/[`load_cache`] — `matopt plan --cache-dir`
//!   persistence with dual FNV-1a checksums; a corrupt entry is a
//!   cache miss, never a wrong plan.
//!
//! Everything is observable under [`matopt_obs::Subsystem::Serve`]:
//! request, error and invalidation records in the event
//! stream, and one set of counters, gauges and latency histograms in
//! the metrics registry (request/hit/miss/coalesced/reject counts,
//! queue depth, evictions) that [`PlanService::stats`] reads back.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod fingerprint;
mod flight;
mod front;
mod persist;
pub mod protocol;
mod server;
mod service;
mod tenant;

pub use cache::{plan_bytes, CacheCounters, PlanCache};
pub use fingerprint::{fingerprint, sparsity_bucket, Fingerprint};
pub use front::{ExecRequest, ExecResponse, FrontDoor, FrontDoorConfig, FrontStats};
pub use persist::{load_cache, save_cache, LoadReport, CACHE_FILE, LOCK_FILE};
pub use server::{respond, serve_lines, stats_line, ServeSession, ServeSummary};
pub use service::{PlanService, PlanSource, Planned, ServeError, ServeStats};
pub use tenant::{TenancyConfig, TenantConfig, TenantStats};

/// Configuration of a [`PlanService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// `false` disables the cache *and* single-flight coalescing —
    /// every request pays the optimizer. The honest uncached baseline
    /// for benchmarks, and an escape hatch if a cache bug is ever
    /// suspected in production.
    pub cache_enabled: bool,
    /// Per-request deadline (`None` = wait forever). Applies to time
    /// parked behind another request's optimizer run as well as to a
    /// request's own run.
    pub deadline: Option<std::time::Duration>,
    /// Admission cap: a miss that would start more than this many
    /// concurrent optimizer runs is rejected with
    /// [`ServeError::Overloaded`] instead of queued.
    pub max_queue_depth: usize,
    /// Beam width for the frontier DP (the CLI default).
    pub beam: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_enabled: true,
            deadline: None,
            max_queue_depth: 64,
            beam: 4000,
        }
    }
}
