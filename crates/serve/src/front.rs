//! The multi-tenant front door: one admission point fusing plan
//! serving and execution serving.
//!
//! [`FrontDoor`] wraps a [`PlanService`] and adds everything a hostile
//! production workload needs that the bare service does not have:
//!
//! * **Per-tenant quotas** — each tenant (a named client population)
//!   carries a cap on requests in flight; the request past the cap is
//!   rejected with the structured [`ServeError::QuotaExceeded`] naming
//!   the tenant, so one runaway client cannot monopolize the service.
//! * **Weighted fair queueing** — when more executions arrive than the
//!   configured concurrency, waiters queue per-tenant and are admitted
//!   by virtual-time fair queueing: a tenant with weight 2 drains
//!   twice as fast as weight 1, and no tenant starves.
//! * **Deadline-aware load shedding** — queued work whose deadline has
//!   already passed is dropped with [`ServeError::DeadlineExceeded`]
//!   instead of executing uselessly; the global queue is bounded and
//!   overflow is rejected with [`ServeError::Overloaded`].
//! * **Plan-aware execution batching** — execute requests with the
//!   same plan fingerprint *and* the same declared input key coalesce
//!   into one run (the execution-side generalization of the planner's
//!   single-flight): the leader executes, followers share the
//!   `Arc<ExecOutcome>`. Kernels are bit-deterministic, so a batched
//!   answer is bit-identical to an unbatched one — the soak bench
//!   asserts exactly that.
//! * **Shared-pool governance** — executions draw memory carve-outs
//!   from one [`SharedGovernor`] pool (a governed run walks inline and
//!   spills within its carve-out).
//! * **Circuit breaker** — fault recoveries, execution failures and
//!   worker deaths feed a [`CircuitBreaker`]; a storm trips it and,
//!   until probes close it again, the front door runs each request
//!   in-process (never on an attached fleet), one at a time and
//!   unbatched. It is the same path otherwise: the cached plan, the
//!   tenant's slot and budget, the shared pool. See the `breaker`
//!   module docs for the state machine.
//!
//! Every request goes through the quota and WFQ layers; a deployment
//! that wants neither sets quotas no tenant reaches.

use crate::breaker::{BreakerConfig, BreakerDecision, BreakerState, BreakerStats, CircuitBreaker};
use crate::flight::{Joined, SingleFlight};
use crate::tenant::{TenancyConfig, TenantConfig, TenantStats};
use crate::{Fingerprint, PlanService, Planned, ServeError};
use matopt_core::{ComputeGraph, NodeId, PlanContext};
use matopt_engine::{
    execute_fault_tolerant, execute_plan_with, DistRelation, ExecError, ExecOptions, ExecOutcome,
    FaultInjector, FtConfig, RemoteVertexExec, SharedGovernor, SharedGovernorStats,
};
use matopt_obs::{Histogram, Subsystem};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Front-door tuning.
#[derive(Debug, Clone)]
pub struct FrontDoorConfig {
    /// Per-tenant quotas and weights.
    pub tenancy: TenancyConfig,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Executions allowed to run concurrently; the rest queue under
    /// weighted fair queueing.
    pub exec_concurrency: usize,
    /// Bound on queued executions across all tenants; overflow is
    /// rejected with [`ServeError::Overloaded`].
    pub max_queued: usize,
    /// Byte budget of the shared execution memory pool (`None` = no
    /// pool; each run governs itself).
    pub shared_pool_bytes: Option<u64>,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            tenancy: TenancyConfig::default(),
            breaker: BreakerConfig::default(),
            exec_concurrency: matopt_pool::Pool::global().parallelism().max(2),
            max_queued: 256,
            shared_pool_bytes: None,
        }
    }
}

/// One execution request presented at the front door.
#[derive(Debug)]
pub struct ExecRequest<'a> {
    /// The requesting tenant (any name; unknown tenants get the
    /// default quota).
    pub tenant: &'a str,
    /// The compute graph to execute.
    pub graph: &'a ComputeGraph,
    /// One relation per source vertex.
    pub inputs: &'a HashMap<NodeId, DistRelation>,
    /// Caller-declared identity of `inputs`: two requests may batch
    /// into one run only when both their plan fingerprints *and* their
    /// input keys match. Callers that cannot prove input identity must
    /// pass distinct keys.
    pub input_key: u64,
    /// Drop-dead time: queued work past this instant is shed, and
    /// batched followers stop waiting.
    pub deadline: Option<Instant>,
}

/// A served execution.
#[derive(Debug, Clone)]
pub struct ExecResponse {
    /// The execution outcome (shared with every batched follower).
    pub outcome: Arc<ExecOutcome>,
    /// The plan that ran.
    pub planned: Planned,
    /// `true` when this request was answered by another request's run.
    pub batched: bool,
    /// `true` when the breaker was open and this request ran
    /// in-process, one run at a time.
    pub degraded: bool,
    /// Fault recoveries performed during the run (fault-injected runs
    /// only).
    pub recoveries: u32,
    /// End-to-end front-door latency for this request.
    pub latency: Duration,
}

/// Counter snapshot from [`FrontDoor::stats`].
#[derive(Debug, Clone)]
pub struct FrontStats {
    /// Execute requests presented (admitted or not).
    pub exec_requests: u64,
    /// Execute requests answered successfully.
    pub exec_ok: u64,
    /// Execute requests that failed (optimizer or executor).
    pub exec_errors: u64,
    /// Requests answered from another request's batched run.
    pub batched: u64,
    /// Runs actually executed (batch leaders + unbatched).
    pub flights: u64,
    /// Requests rejected by per-tenant quota.
    pub quota_rejects: u64,
    /// Requests rejected because the wait queue was full.
    pub overloaded: u64,
    /// Queued executions shed past their deadline.
    pub shed: u64,
    /// Times an execution had to queue behind the concurrency cap.
    pub queued_waits: u64,
    /// Worker-process deaths reported by an attached fleet (each one
    /// also counts into the breaker's storm window).
    pub worker_deaths: u64,
    /// Breaker counters.
    pub breaker: BreakerStats,
    /// Breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Shared-pool counters (`None` when no pool is configured).
    pub pool: Option<SharedGovernorStats>,
}

/// Wait states of a queued execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    Pending,
    Admitted,
    Shed,
}

/// One queued execution waiting for a concurrency slot.
struct Waiter {
    /// WFQ virtual finish tag; smallest tag is admitted first.
    tag: f64,
    /// FIFO tie-break for equal tags.
    seq: u64,
    deadline: Option<Instant>,
    state: Mutex<WaitState>,
    admitted: Condvar,
}

/// Per-tenant live accounting (under the scheduler lock).
struct TenantState {
    config: TenantConfig,
    inflight: usize,
    /// WFQ virtual finish time of the tenant's most recent arrival.
    vfinish: f64,
    requests: u64,
    ok: u64,
    quota_rejects: u64,
    shed: u64,
    errors: u64,
    batched: u64,
    latency_us: Histogram,
}

impl TenantState {
    fn new(config: TenantConfig) -> Self {
        TenantState {
            config,
            inflight: 0,
            vfinish: 0.0,
            requests: 0,
            ok: 0,
            quota_rejects: 0,
            shed: 0,
            errors: 0,
            batched: 0,
            latency_us: Histogram::default(),
        }
    }
}

/// Scheduler state: tenants, the WFQ wait queue, and the running
/// count, all under one lock (decisions are quick; the work they gate
/// runs outside it).
struct Sched {
    running: usize,
    vclock: f64,
    next_seq: u64,
    draining: bool,
    queue: Vec<Arc<Waiter>>,
    tenants: HashMap<String, TenantState>,
}

/// The multi-tenant front door. See the module docs.
pub struct FrontDoor {
    service: Arc<PlanService>,
    config: FrontDoorConfig,
    breaker: CircuitBreaker,
    shared: Option<Arc<SharedGovernor>>,
    sched: Mutex<Sched>,
    /// Batched executions in flight: followers with the same
    /// (fingerprint, input key) share the leader's outcome and the plan
    /// that produced it.
    flights: SingleFlight<(Fingerprint, u64), (Arc<ExecOutcome>, Planned)>,
    /// Serializes executions while the breaker is open.
    serial: Mutex<()>,
    exec_requests: AtomicU64,
    exec_ok: AtomicU64,
    exec_errors: AtomicU64,
    batched: AtomicU64,
    flights_led: AtomicU64,
    quota_rejects: AtomicU64,
    overloaded: AtomicU64,
    shed: AtomicU64,
    queued_waits: AtomicU64,
    /// Remote vertex-execution backend for admitted runs (`None` =
    /// in-process kernels). Attached after construction because the
    /// fleet usually wants a death observer pointing back at this very
    /// front door.
    remote: Mutex<Option<Arc<dyn RemoteVertexExec>>>,
    worker_deaths: AtomicU64,
}

impl FrontDoor {
    /// Builds a front door over `service`.
    #[must_use]
    pub fn new(service: Arc<PlanService>, config: FrontDoorConfig) -> Self {
        let shared = config.shared_pool_bytes.map(SharedGovernor::new);
        let breaker = CircuitBreaker::new(config.breaker);
        FrontDoor {
            service,
            breaker,
            shared,
            sched: Mutex::new(Sched {
                running: 0,
                vclock: 0.0,
                next_seq: 0,
                draining: false,
                queue: Vec::new(),
                tenants: HashMap::new(),
            }),
            flights: SingleFlight::new(),
            serial: Mutex::new(()),
            config,
            exec_requests: AtomicU64::new(0),
            exec_ok: AtomicU64::new(0),
            exec_errors: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            flights_led: AtomicU64::new(0),
            quota_rejects: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queued_waits: AtomicU64::new(0),
            remote: Mutex::new(None),
            worker_deaths: AtomicU64::new(0),
        }
    }

    /// Routes every subsequent execution's kernels through `backend`
    /// (the worker fleet). Planned work in flight keeps whatever
    /// backend it started with.
    pub fn attach_remote(&self, backend: Arc<dyn RemoteVertexExec>) {
        *self.remote.lock().expect("front remote") = Some(backend);
    }

    /// Records one worker-process death. Deaths feed the breaker's
    /// storm window exactly like fault-recovery storms: a worker-death
    /// storm (crash-looping fleet) trips the breaker, and requests run
    /// in-process one at a time rather than ride a dying fleet.
    pub fn record_worker_death(&self) {
        self.worker_deaths.fetch_add(1, Ordering::Relaxed);
        self.breaker.record_storm_event();
    }

    /// The circuit breaker (state inspection; the bench asserts trips).
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Stops admitting new work: every subsequent [`FrontDoor::plan`]
    /// or [`FrontDoor::execute`] is rejected with
    /// [`ServeError::Draining`]. Work already admitted finishes
    /// normally.
    pub fn drain(&self) {
        self.sched.lock().expect("front sched").draining = true;
    }

    /// True once [`FrontDoor::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.sched.lock().expect("front sched").draining
    }

    /// [`FrontDoor::drain`], then blocks until every admitted
    /// execution — including remote waves running on a worker fleet —
    /// has finished, or `timeout` elapses. Returns `true` when the
    /// door went fully idle; `false` on timeout (work still in
    /// flight). The caller can then shut its fleet down knowing no
    /// wave still depends on the workers.
    pub fn drain_and_wait(&self, timeout: Duration) -> bool {
        self.drain();
        let deadline = Instant::now() + timeout;
        loop {
            let idle = {
                let sched = self.sched.lock().expect("front sched");
                sched.running == 0 && sched.queue.is_empty()
            };
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Serves a plan through the tenant's quota: fingerprint → cache →
    /// single-flight, exactly like [`PlanService::plan`], with
    /// admission and per-tenant accounting in front.
    ///
    /// # Errors
    /// [`ServeError::QuotaExceeded`] past the tenant's in-flight cap,
    /// [`ServeError::Draining`] after [`FrontDoor::drain`], plus
    /// everything [`PlanService::plan`] returns.
    pub fn plan(&self, tenant: &str, graph: &ComputeGraph) -> Result<Planned, ServeError> {
        let started = Instant::now();
        let guard = self.admit_tenant(tenant)?;
        let result = self.service.plan(graph);
        self.settle_tenant(
            guard,
            started,
            &result.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        result
    }

    /// Executes `req.graph` on `req.inputs` through the full front
    /// door: quota → breaker → batching → fair queueing → execution
    /// (pooled, or walked inline under the run's memory budget).
    ///
    /// # Errors
    /// [`ServeError::QuotaExceeded`], [`ServeError::Overloaded`],
    /// [`ServeError::DeadlineExceeded`] (queued past deadline),
    /// [`ServeError::Draining`], [`ServeError::Opt`] from planning, or
    /// [`ServeError::Exec`] from the executor.
    pub fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecResponse, ServeError> {
        self.execute_inner(req, None)
    }

    /// [`FrontDoor::execute`] under seeded fault injection: the run
    /// goes through the fault-tolerant executor, recoveries feed the
    /// circuit breaker, and the response reports how many faults were
    /// recovered. The chaos soak drives storms through this entry
    /// point.
    ///
    /// # Errors
    /// Same contract as [`FrontDoor::execute`].
    pub fn execute_with_faults(
        &self,
        req: &ExecRequest<'_>,
        injector: FaultInjector,
        ft: &FtConfig,
    ) -> Result<ExecResponse, ServeError> {
        self.execute_inner(req, Some((injector, ft)))
    }

    fn execute_inner(
        &self,
        req: &ExecRequest<'_>,
        faults: Option<(FaultInjector, &FtConfig)>,
    ) -> Result<ExecResponse, ServeError> {
        let started = Instant::now();
        self.exec_requests.fetch_add(1, Ordering::Relaxed);
        let guard = self.admit_tenant(req.tenant)?;
        let decision = self.breaker.decision();
        let degraded = decision == BreakerDecision::Degraded;
        let result = self.execute_normal(req, started, faults, degraded);
        if decision == BreakerDecision::Probe {
            self.breaker.probe_result(result.is_ok());
        }
        match &result {
            Ok(resp) => {
                self.exec_ok.fetch_add(1, Ordering::Relaxed);
                if resp.batched {
                    self.batched.fetch_add(1, Ordering::Relaxed);
                    self.note_batched(req.tenant);
                }
            }
            Err(e) => {
                self.exec_errors.fetch_add(1, Ordering::Relaxed);
                if matches!(e, ServeError::DeadlineExceeded) {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.settle_tenant(
            guard,
            started,
            &result.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        result
    }

    /// The one execution path: cached plan, batching, fair queueing,
    /// governed execution. A `degraded` request (breaker open) neither
    /// batches nor runs on the fleet, and waits for the previous
    /// degraded run to finish before it takes a slot.
    fn execute_normal(
        &self,
        req: &ExecRequest<'_>,
        started: Instant,
        faults: Option<(FaultInjector, &FtConfig)>,
        degraded: bool,
    ) -> Result<ExecResponse, ServeError> {
        let planned = self.service.plan(req.graph)?;
        // A zero fingerprint means the cache is disabled: nothing to key
        // a batch on.
        let batchable = !degraded && planned.fingerprint != Fingerprint(0);
        let leader = if batchable {
            let key = (planned.fingerprint, req.input_key);
            match self.flights.join(key, |_| Ok(()))? {
                Joined::Follower(flight) => {
                    // The answer is already being computed.
                    let (outcome, planned) = flight.wait(req.deadline)?;
                    return Ok(ExecResponse {
                        outcome,
                        planned,
                        batched: true,
                        degraded: false,
                        recoveries: 0,
                        latency: started.elapsed(),
                    });
                }
                Joined::Leader(leader) => Some(leader),
            }
        } else {
            None
        };

        // Leader (or unbatched) path: take a concurrency slot under
        // weighted fair queueing, run, publish.
        let outcome = {
            let _one_at_a_time = degraded.then(|| self.serial.lock().expect("front serial"));
            self.admit_slot(req.tenant, req.deadline).and_then(|slot| {
                let r = self.run_leader(req, &planned, faults, degraded);
                drop(slot);
                r
            })
        };
        if let Some(leader) = leader {
            leader.publish(
                outcome
                    .as_ref()
                    .map(|(out, _)| (Arc::clone(out), planned.clone()))
                    .map_err(Clone::clone),
            );
        }
        outcome.map(|(outcome, recoveries)| ExecResponse {
            outcome,
            planned,
            batched: false,
            degraded,
            recoveries,
            latency: started.elapsed(),
        })
    }

    /// Runs the plan (holding a concurrency slot) and feeds fault
    /// recoveries and execution errors to the breaker. A fault-injected
    /// run goes through the fault-tolerant executor, which re-plans
    /// recoveries under the service's current cluster and cost model.
    /// A `degraded` run stays in-process.
    fn run_leader(
        &self,
        req: &ExecRequest<'_>,
        planned: &Planned,
        faults: Option<(FaultInjector, &FtConfig)>,
        degraded: bool,
    ) -> Result<(Arc<ExecOutcome>, u32), ServeError> {
        self.flights_led.fetch_add(1, Ordering::Relaxed);
        let options = ExecOptions {
            retain_values: false,
            mem_budget: self.config.tenancy.for_tenant(req.tenant).mem_bytes,
            shared_governor: self.shared.clone(),
            remote: if degraded {
                None
            } else {
                self.remote.lock().expect("front remote").clone()
            },
            ..ExecOptions::default()
        };
        let result: Result<(ExecOutcome, u32), ExecError> = match faults {
            None => execute_plan_with(
                req.graph,
                &planned.plan.annotation,
                req.inputs,
                self.service.registry(),
                self.service.obs(),
                options,
            )
            .map(|out| (out, 0)),
            Some((injector, ft)) => execute_fault_tolerant(
                req.graph,
                &planned.plan.annotation,
                req.inputs,
                &PlanContext::new(self.service.registry(), self.service.cluster()),
                self.service.catalog(),
                &self.service.model(),
                injector,
                ft,
                options,
                self.service.obs(),
            )
            .map(|run| {
                let recoveries = run.recoveries + run.retries + run.replans;
                // Every recovery is a storm signal: this is the
                // serve-side view of the Subsystem::Faults
                // counters.
                for _ in 0..recoveries {
                    self.breaker.record_storm_event();
                }
                (run.exec, recoveries)
            }),
        };
        let result = result.map_err(|e| ServeError::Exec(e.to_string()));
        match result {
            Ok((outcome, recoveries)) => Ok((Arc::new(outcome), recoveries)),
            Err(e) => {
                self.breaker.record_storm_event();
                self.service
                    .obs()
                    .record(Subsystem::Serve, "exec_error", || {
                        vec![
                            ("tenant", req.tenant.to_string().into()),
                            ("error", e.to_string().into()),
                        ]
                    });
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Tenant admission
    // ------------------------------------------------------------------

    /// Quota check + in-flight accounting. Returns a guard token the
    /// caller must hand back through [`FrontDoor::settle_tenant`].
    fn admit_tenant<'t>(&self, tenant: &'t str) -> Result<TenantGuard<'t>, ServeError> {
        let mut sched = self.sched.lock().expect("front sched");
        if sched.draining {
            return Err(ServeError::Draining);
        }
        let config = self.config.tenancy.for_tenant(tenant);
        let state = sched
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(config));
        if state.inflight >= state.config.max_inflight {
            state.quota_rejects += 1;
            self.quota_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QuotaExceeded {
                tenant: tenant.to_string(),
            });
        }
        state.inflight += 1;
        state.requests += 1;
        Ok(TenantGuard { tenant })
    }

    /// Releases the tenant's in-flight slot and records the request's
    /// outcome and latency.
    fn settle_tenant(
        &self,
        guard: TenantGuard<'_>,
        started: Instant,
        result: &Result<(), ServeError>,
    ) {
        let mut sched = self.sched.lock().expect("front sched");
        if let Some(state) = sched.tenants.get_mut(guard.tenant) {
            state.inflight = state.inflight.saturating_sub(1);
            match result {
                Ok(()) => {
                    state.ok += 1;
                    state
                        .latency_us
                        .record(started.elapsed().as_micros() as u64);
                }
                Err(ServeError::DeadlineExceeded) => state.shed += 1,
                Err(_) => state.errors += 1,
            }
        }
    }

    /// Notes that a request was answered by another request's run (for
    /// per-tenant batching counters).
    fn note_batched(&self, tenant: &str) {
        let mut sched = self.sched.lock().expect("front sched");
        if let Some(state) = sched.tenants.get_mut(tenant) {
            state.batched += 1;
        }
    }

    // ------------------------------------------------------------------
    // Weighted-fair-queueing slot admission
    // ------------------------------------------------------------------

    /// Takes a concurrency slot, queueing under WFQ when the cap is
    /// reached.
    fn admit_slot(
        &self,
        tenant: &str,
        deadline: Option<Instant>,
    ) -> Result<SlotGuard<'_>, ServeError> {
        let waiter = {
            let mut sched = self.sched.lock().expect("front sched");
            if sched.running < self.config.exec_concurrency && sched.queue.is_empty() {
                sched.running += 1;
                return Ok(SlotGuard { front: self });
            }
            if sched.queue.len() >= self.config.max_queued {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth: sched.queue.len(),
                });
            }
            // Shed immediately if the deadline is already gone: queued
            // work past its deadline must never occupy a slot. (Per-
            // tenant and global shed counters move at settlement.)
            if deadline.is_some_and(|at| Instant::now() >= at) {
                return Err(ServeError::DeadlineExceeded);
            }
            let weight = f64::from(self.config.tenancy.for_tenant(tenant).weight.max(1));
            let seq = sched.next_seq;
            sched.next_seq += 1;
            let vclock = sched.vclock;
            let state = sched
                .tenants
                .entry(tenant.to_string())
                .or_insert_with(|| TenantState::new(self.config.tenancy.for_tenant(tenant)));
            let tag = vclock.max(state.vfinish) + 1.0 / weight;
            state.vfinish = tag;
            let waiter = Arc::new(Waiter {
                tag,
                seq,
                deadline,
                state: Mutex::new(WaitState::Pending),
                admitted: Condvar::new(),
            });
            sched.queue.push(Arc::clone(&waiter));
            self.queued_waits.fetch_add(1, Ordering::Relaxed);
            waiter
        };

        // Park until admitted, shed, or past deadline.
        let mut state = waiter.state.lock().expect("waiter state");
        loop {
            match *state {
                WaitState::Admitted => {
                    return Ok(SlotGuard { front: self });
                }
                WaitState::Shed => return Err(ServeError::DeadlineExceeded),
                WaitState::Pending => {}
            }
            match waiter.deadline {
                None => state = waiter.admitted.wait(state).expect("waiter state"),
                Some(at) => {
                    let Some(remaining) = at.checked_duration_since(Instant::now()) else {
                        // Timed out while queued: remove ourselves
                        // (unless a release admitted us in the race).
                        drop(state);
                        return self.shed_self(&waiter);
                    };
                    let (guard, _timeout) = waiter
                        .admitted
                        .wait_timeout(state, remaining)
                        .expect("waiter state");
                    state = guard;
                }
            }
        }
    }

    /// Removes a timed-out waiter from the queue. If a release raced
    /// us and already granted the slot, the grant wins only if the
    /// deadline still holds — otherwise the slot is handed straight
    /// back.
    fn shed_self(&self, waiter: &Arc<Waiter>) -> Result<SlotGuard<'_>, ServeError> {
        let mut sched = self.sched.lock().expect("front sched");
        let current = *waiter.state.lock().expect("waiter state");
        match current {
            WaitState::Admitted => {
                // Admitted in the race but the deadline has passed:
                // give the slot back and shed anyway.
                drop(sched);
                self.release_slot();
                Err(ServeError::DeadlineExceeded)
            }
            WaitState::Shed => Err(ServeError::DeadlineExceeded),
            WaitState::Pending => {
                sched.queue.retain(|w| !Arc::ptr_eq(w, waiter));
                *waiter.state.lock().expect("waiter state") = WaitState::Shed;
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Returns a concurrency slot and admits the fairest waiters:
    /// expired waiters are shed, then the smallest virtual-finish tag
    /// wins until the cap is reached.
    fn release_slot(&self) {
        let mut sched = self.sched.lock().expect("front sched");
        sched.running = sched.running.saturating_sub(1);
        let now = Instant::now();
        // Deadline-aware load shedding: drop queued work that is
        // already dead before it can waste a slot.
        let mut idx = 0;
        while idx < sched.queue.len() {
            let expired = sched.queue[idx].deadline.is_some_and(|at| now >= at);
            if expired {
                // The shed waiter wakes, returns DeadlineExceeded, and
                // its settlement moves the shed counters.
                let w = sched.queue.remove(idx);
                *w.state.lock().expect("waiter state") = WaitState::Shed;
                w.admitted.notify_all();
            } else {
                idx += 1;
            }
        }
        while sched.running < self.config.exec_concurrency {
            // Smallest (tag, seq) is the WFQ winner.
            let Some(best) = sched
                .queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.tag
                        .partial_cmp(&b.tag)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let w = sched.queue.remove(best);
            sched.vclock = sched.vclock.max(w.tag);
            sched.running += 1;
            *w.state.lock().expect("waiter state") = WaitState::Admitted;
            w.admitted.notify_all();
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FrontStats {
        FrontStats {
            exec_requests: self.exec_requests.load(Ordering::Relaxed),
            exec_ok: self.exec_ok.load(Ordering::Relaxed),
            exec_errors: self.exec_errors.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            flights: self.flights_led.load(Ordering::Relaxed),
            quota_rejects: self.quota_rejects.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queued_waits: self.queued_waits.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            breaker: self.breaker.stats(),
            breaker_state: self.breaker.state(),
            pool: self.shared.as_ref().map(|p| p.stats()),
        }
    }

    /// Per-tenant accounting, sorted by tenant name.
    #[must_use]
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let sched = self.sched.lock().expect("front sched");
        let mut out: Vec<TenantStats> = sched
            .tenants
            .iter()
            .map(|(name, s)| TenantStats {
                name: name.clone(),
                config: s.config,
                requests: s.requests,
                ok: s.ok,
                quota_rejects: s.quota_rejects,
                shed: s.shed,
                errors: s.errors,
                batched: s.batched,
                inflight: s.inflight,
                latency_us: s.latency_us.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Token for a tenant's in-flight slot (returned via `settle_tenant`;
/// not RAII because settling also records the outcome).
struct TenantGuard<'t> {
    tenant: &'t str,
}

/// RAII concurrency slot: returning it admits the fairest waiter.
struct SlotGuard<'f> {
    front: &'f FrontDoor,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.front.release_slot();
    }
}
