//! Fault-tolerant plan execution: retries with bounded exponential
//! backoff, restart, durable per-vertex checkpoints, lineage replay, and
//! degradation-aware re-planning.
//!
//! [`execute_fault_tolerant`] is a fault policy around the inline walk
//! ([`crate::step`]), driven by a [`FaultInjector`]:
//!
//! * **transient kernel errors** retry the vertex after exponential
//!   backoff with seeded jitter, up to `FtConfig::retry.max_attempts`;
//! * **corrupted chunks** are caught by a checksum over the vertex's
//!   output (only computed while a corruption fault is pending) and
//!   recomputed;
//! * **worker crashes** lose the in-flight vertex and, per the
//!   [`RecoveryPolicy`], what else was resident in this plan epoch (a
//!   value spilled to scratch survives): restart-from-scratch loses and
//!   replays every such vertex; under per-vertex checkpointing every
//!   completed output is durable, so only the in-flight vertex is lost;
//!   lineage replay loses a seeded random subset and recomputes it from
//!   the nearest surviving ancestors;
//! * **resource exhaustion**, after two repeats, shrinks the
//!   [`Cluster`](matopt_core::Cluster) and re-plans the remaining
//!   suffix exactly as [`crate::execute_adaptive`] does —
//!   already-computed values become plan inputs pinned in driver
//!   storage.
//!
//! Vertices run one at a time in id order on the calling thread, so
//! fault preambles, PRNG draws and replay happen in one sequence per
//! seed, and "materialized so far" is simply "lower id". The walk reads
//! the same [`ExecOptions`] as any other run, and retires nothing before
//! its end: replay may read any earlier value. A run that wants no
//! faults calls [`crate::execute_plan_with`].
//!
//! Every fault, retry, and recovery emits a record under
//! [`Subsystem::Faults`].

use crate::adaptive::AdaptiveError;
use crate::exec::{vertex_label, ExecOptions, ExecOutcome};
use crate::faults::{corrupt_chunk, relation_checksum, FaultInjector, FaultKind};
use crate::impl_exec::ExecError;
use crate::step::InlineWalk;
use crate::value::DistRelation;
use matopt_core::{
    Annotation, BackoffPolicy, ComputeGraph, FormatCatalog, NodeId, PlanContext, RecoveryPolicy,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Resource-style failures at one vertex before the cluster is
/// degraded and the suffix re-planned.
const DEGRADE_AFTER: u32 = 2;

/// Beam width for degradation re-planning.
const DEGRADE_BEAM: usize = 2000;

/// The fault policy of [`execute_fault_tolerant`]. How the run itself
/// is governed (budget, shared pool, remote) is the [`ExecOptions`]
/// passed beside it.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// How crashes are recovered.
    pub policy: RecoveryPolicy,
    /// Backoff and retry budget for transient faults: `max_attempts`
    /// retries per vertex before [`ExecError::RetryBudgetExhausted`],
    /// delays doubling from `base_ms` up to `cap_ms`, plus jitter of up
    /// to one base delay from the injector's seeded PRNG.
    pub retry: BackoffPolicy,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            policy: RecoveryPolicy::default(),
            retry: BackoffPolicy {
                base_ms: 1,
                cap_ms: 8,
                max_attempts: 4,
            },
        }
    }
}

/// Per-vertex recovery bookkeeping, indexed like the graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexRecovery {
    /// Retries spent at this vertex (transient faults, corruption
    /// recomputes, resource failures).
    pub retries: u32,
    /// Crash recoveries that replayed this vertex.
    pub recoveries: u32,
    /// Seconds spent on backoff, straggling, and replay at this vertex.
    pub recovery_seconds: f64,
}

/// A fault that actually fired during the run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Compute-step index the fault fired at.
    pub step: usize,
    /// The vertex executing when it fired.
    pub vertex: NodeId,
    /// What went wrong.
    pub kind: FaultKind,
}

/// The result of a fault-tolerant run: the execution outcome plus what
/// recovery did on the way.
#[derive(Debug, Clone)]
pub struct FtOutcome {
    /// The run itself. Sinks are identical to the fault-free run's for
    /// any crash/transient/corruption schedule (degradation re-plans
    /// may pick different implementations, which changes floating-point
    /// rounding); per-vertex seconds are those of the *successful*
    /// attempt, and `total_seconds` includes all recovery work.
    pub exec: ExecOutcome,
    /// Total retries across the run.
    pub retries: u32,
    /// Total crash recoveries.
    pub recoveries: u32,
    /// Degradation re-plans performed.
    pub replans: u32,
    /// Every fault that fired, in firing order.
    pub faults: Vec<InjectedFault>,
    /// Seconds spent recovering (backoff + straggling + replay).
    pub recovery_seconds: f64,
    /// Per-vertex breakdown of the above.
    pub per_vertex: Vec<VertexRecovery>,
}

impl FtOutcome {
    /// A run no fault touched.
    pub(crate) fn fault_free(exec: ExecOutcome, vertices: usize) -> Self {
        FtOutcome {
            exec,
            retries: 0,
            recoveries: 0,
            replans: 0,
            faults: Vec::new(),
            recovery_seconds: 0.0,
            per_vertex: vec![VertexRecovery::default(); vertices],
        }
    }

    /// Charges `seconds` of recovery work to vertex `v`.
    fn recovering(&mut self, v: NodeId, seconds: f64) {
        self.recovery_seconds += seconds;
        self.per_vertex[v.index()].recovery_seconds += seconds;
    }

    /// Counts one retry at vertex `v`.
    fn retry(&mut self, v: NodeId) {
        self.retries += 1;
        self.per_vertex[v.index()].retries += 1;
    }
}

/// Executes an annotated graph under fault injection, recovering every
/// fault the injector fires.
///
/// The run walks inline under `options`. `ctx`/`catalog`/`model` are
/// only consulted when degradation forces a re-plan of the remaining
/// suffix.
///
/// # Errors
/// [`ExecError`] on malformed plans, and
/// [`ExecError::RetryBudgetExhausted`] when one vertex's faults outrun
/// `config.retry.max_attempts`.
#[allow(clippy::too_many_arguments)]
pub fn execute_fault_tolerant(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    mut injector: FaultInjector,
    config: &FtConfig,
    options: ExecOptions,
    obs: &Obs,
) -> Result<FtOutcome, ExecError> {
    let _run = obs.span_with(Subsystem::Faults, "execute_fault_tolerant", || {
        vec![
            ("vertices", graph.len().into()),
            ("policy", config.policy.as_str().into()),
            ("scheduled_faults", injector.pending().len().into()),
        ]
    });
    let mut walk = InlineWalk::start(graph, annotation, inputs, ctx.registry, obs, &options)?;
    walk.retire_at_finish();
    let mut cluster = ctx.cluster;
    // The exec half is filled in by the walk's epilogue.
    let mut ft = FtOutcome::fault_free(ExecOutcome::default(), graph.len());

    // Fault schedules address vertices by compute-step index in id
    // order, which is the order the walk runs them in.
    walk.drive(|walk, step, v| {
        let mut pending_transient = 0u32;
        let mut corrupt_hints: Vec<usize> = Vec::new();
        for kind in injector.take(step) {
            obs.record(Subsystem::Faults, "fault_injected", || {
                vec![
                    ("step", step.into()),
                    ("vertex", v.index().into()),
                    ("kind", kind.to_string().into()),
                ]
            });
            ft.faults.push(InjectedFault {
                step,
                vertex: v,
                kind,
            });
            match kind {
                FaultKind::Straggler { slowdown } => {
                    // A slow worker stretches the step; model it with a
                    // capped real delay.
                    let delay_ms = (slowdown.min(20.0) * 0.5).ceil() as u64;
                    let t0 = Instant::now();
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    ft.recovering(v, t0.elapsed().as_secs_f64());
                }
                FaultKind::TransientKernelError { failures } => pending_transient += failures,
                FaultKind::CorruptedChunk { chunk } => corrupt_hints.push(chunk),
                FaultKind::WorkerCrash => {
                    let dt = recover_crash(
                        walk,
                        v,
                        config.policy,
                        &mut injector,
                        &mut ft.per_vertex,
                        obs,
                    )?;
                    ft.recoveries += 1;
                    ft.per_vertex[v.index()].recoveries += 1;
                    ft.recovering(v, dt);
                }
                FaultKind::ResourceExhaustion { repeats } => {
                    for done in 1..=repeats.min(DEGRADE_AFTER) {
                        ft.retry(v);
                        let dt = backoff(&config.retry, done, &mut injector, v, "resources", obs);
                        ft.recovering(v, dt);
                    }
                    if repeats >= DEGRADE_AFTER {
                        // Degrade and re-plan the suffix on the shrunken
                        // cluster; everything below `v` is a pinned
                        // input of the new plan.
                        let before = cluster.workers;
                        cluster = cluster.degraded();
                        let ctx2 = PlanContext::new(ctx.registry, cluster);
                        (walk.replan(v.index(), &ctx2, catalog, model, DEGRADE_BEAM)).map_err(
                            |e| match e {
                                AdaptiveError::Exec(e) => e,
                                AdaptiveError::Opt(e) => ExecError::Internal(format!(
                                    "re-planning after degradation failed: {e}"
                                )),
                            },
                        )?;
                        ft.replans += 1;
                        obs.record(Subsystem::Faults, "degraded", || {
                            vec![
                                ("vertex", v.index().into()),
                                ("workers_before", (before as i64).into()),
                                ("workers_after", (cluster.workers as i64).into()),
                            ]
                        });
                    }
                }
            }
        }

        // Attempt loop: transient failures and corruption recomputes
        // burn the per-vertex retry budget.
        let mut attempt = 0u32;
        let out = loop {
            if config.retry.exhausted(attempt) {
                return Err(ExecError::RetryBudgetExhausted {
                    vertex: v,
                    label: vertex_label(graph, v),
                    attempts: attempt,
                });
            }
            if pending_transient > 0 {
                pending_transient -= 1;
                attempt += 1;
                ft.retry(v);
                let dt = backoff(&config.retry, attempt, &mut injector, v, "transient", obs);
                ft.recovering(v, dt);
                continue;
            }
            let out = walk.run(v)?;
            if let Some(hint) = corrupt_hints.pop() {
                // Corruption "in transit": checksum the honest output,
                // corrupt a chunk of the received copy, detect the
                // mismatch. A corruption with no representable effect
                // (e.g. an empty chunk) leaves the relation intact.
                let mut received = (*out.rel).clone();
                corrupt_chunk(&mut received, hint);
                if relation_checksum(&received) != relation_checksum(&out.rel) {
                    attempt += 1;
                    ft.retry(v);
                    obs.record(Subsystem::Faults, "corruption_detected", || {
                        vec![("vertex", v.index().into()), ("chunk", hint.into())]
                    });
                    // The wasted attempt is recovery time.
                    ft.recovering(v, out.impl_seconds);
                    continue;
                }
            }
            break out;
        };
        Ok(out)
    })?;

    ft.exec = walk.finish()?;
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Faults, "faults_injected", ft.faults.len() as u64);
        m.add(Subsystem::Faults, "retries", u64::from(ft.retries));
        m.add(Subsystem::Faults, "recoveries", u64::from(ft.recoveries));
        m.add(Subsystem::Faults, "replans", u64::from(ft.replans));
    }
    Ok(ft)
}

/// Sleeps the bounded-exponential-backoff delay for retry number
/// `attempt` (1-based) with jitter from the injector's PRNG, emits the
/// retry record, and returns the seconds slept.
fn backoff(
    retry: &BackoffPolicy,
    attempt: u32,
    injector: &mut FaultInjector,
    vertex: NodeId,
    cause: &str,
    obs: &Obs,
) -> f64 {
    // The policy is shared with the cache DirLock and the worker-fleet
    // restart supervisor; the jitter word comes from the injector's
    // seeded PRNG so chaos runs stay reproducible.
    let ms = retry.delay_ms(attempt, injector.rng().next_u64());
    let delay = Duration::from_millis(ms);
    obs.record(Subsystem::Faults, "retry", || {
        vec![
            ("vertex", vertex.index().into()),
            ("attempt", attempt.into()),
            ("backoff_ms", (ms as i64).into()),
            ("cause", cause.to_string().into()),
        ]
    });
    let t0 = Instant::now();
    std::thread::sleep(delay);
    t0.elapsed().as_secs_f64()
}

/// Loses the crash's victim set and replays every lost vertex,
/// returning the seconds spent.
///
/// `v` itself is not stored yet, so it is always lost; the step runs it
/// afterwards as usual. The victim pool below `v` is what this plan
/// epoch has materialized and holds in memory: the resident compute
/// vertices with lower id (values from earlier epochs are pinned in
/// driver storage, spilled ones are on scratch). A checkpointed value
/// is durable, so under [`RecoveryPolicy::Checkpoint`] the pool is
/// empty.
fn recover_crash(
    walk: &mut InlineWalk<'_>,
    v: NodeId,
    policy: RecoveryPolicy,
    injector: &mut FaultInjector,
    per_vertex: &mut [VertexRecovery],
    obs: &Obs,
) -> Result<f64, ExecError> {
    let t0 = Instant::now();
    let lost = match policy {
        // Restart-from-scratch throws the whole epoch away.
        RecoveryPolicy::Restart => walk.epoch_resident_below(v),
        RecoveryPolicy::Checkpoint => Vec::new(),
        // One worker's memory is gone: a seeded coin flip per resident
        // intermediate.
        RecoveryPolicy::Lineage => {
            let mut lost = walk.epoch_resident_below(v);
            lost.retain(|_| injector.rng().next_f64() < 0.5);
            lost
        }
    };
    for u in &lost {
        walk.set_value(*u, None);
    }
    // Replay in id order: each lost vertex's inputs are either
    // survivors or lost-but-earlier (already brought back).
    for u in &lost {
        let out = walk.run(*u)?;
        walk.set_value(*u, Some(out.rel));
        per_vertex[u.index()].recoveries += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    obs.record(Subsystem::Faults, "recovery", || {
        vec![
            ("policy", policy.as_str().into()),
            ("lost", lost.len().into()),
            ("seconds", dt.into()),
        ]
    });
    Ok(dt)
}
