//! Fault-tolerant plan execution: retries with bounded exponential
//! backoff, per-vertex checkpointing, lineage replay, and degradation-
//! aware re-planning.
//!
//! [`execute_fault_tolerant`] is a fault policy around the inline walk
//! ([`crate::step`]), driven by a [`FaultInjector`]:
//!
//! * **transient kernel errors** retry the vertex after exponential
//!   backoff with seeded jitter, up to `FtConfig::retry.max_attempts`;
//! * **corrupted chunks** are caught by a checksum over the vertex's
//!   output (only computed while a corruption fault is pending) and
//!   recomputed;
//! * **worker crashes** lose the in-flight vertex plus a seeded random
//!   subset of this plan epoch's materialized intermediates, then
//!   recover per the [`RecoveryPolicy`]: restart-from-scratch replays
//!   every lost vertex, per-vertex checkpointing restores from the
//!   checkpoint store, lineage replay recomputes only the lost vertices
//!   from their nearest surviving ancestors;
//! * **resource exhaustion**, after [`FtConfig::degrade_after`]
//!   repeats, shrinks the [`Cluster`](matopt_core::Cluster) and
//!   re-plans the remaining suffix exactly as
//!   [`crate::execute_adaptive`] does — already-computed values become
//!   plan inputs pinned in driver storage.
//!
//! With a **disabled injector** there is no policy to apply and the
//! call *is* [`crate::execute_plan_with`]: the fault-free path pays no
//! per-vertex fault branch (pinned under 2% by the `overhead` bench).
//! With a **live injector** vertices run one at a time in id order on
//! the calling thread, so fault preambles, PRNG draws and replay happen
//! in one sequence per seed, and "materialized so far" is simply
//! "lower id".
//!
//! Every fault, retry, and recovery emits a record under
//! [`Subsystem::Faults`].

use crate::exec::{execute_plan_with, vertex_label, ExecOptions, ExecOutcome};
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
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fault policy of [`execute_fault_tolerant`]. How the run itself
/// is governed (budget, shared pool, remote, hedge) is the [`ExecOptions`]
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
    /// Resource-style failures at one vertex before the cluster is
    /// degraded and the suffix re-planned.
    pub degrade_after: u32,
    /// Beam width for degradation re-planning.
    pub beam: usize,
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
            degrade_after: 2,
            beam: 2000,
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
    /// attempt, and `total_seconds` includes all recovery work. Under a
    /// live injector `governor` carries only the simulated hedge
    /// counters.
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
    /// Seconds spent writing checkpoints.
    pub checkpoint_seconds: f64,
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
            checkpoint_seconds: 0.0,
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
/// With a [`FaultInjector::disabled`] injector this is
/// [`crate::execute_plan_with`] under `options`. With a live injector
/// the run walks inline, which reads only `options.hedge` (see
/// [`ExecOptions`]). `ctx`/`catalog`/`model` are only consulted when
/// degradation forces a re-plan of the remaining suffix.
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
    if !injector.is_enabled() {
        let exec = execute_plan_with(graph, annotation, inputs, ctx.registry, obs, options)?;
        return Ok(FtOutcome::fault_free(exec, graph.len()));
    }

    let mut walk = InlineWalk::start(graph, annotation, inputs, ctx.registry, obs)?;
    let mut cluster = ctx.cluster;
    let mut checkpoints: HashMap<usize, Arc<DistRelation>> = HashMap::new();
    // Simulated hedges: each one is launched and wins in the same breath.
    let mut hedges = 0u64;
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
                    // capped real delay. With hedging on, the duplicate
                    // completes at the hedge deadline (factor × the
                    // 0.5 ms unit step time) and the straggler is
                    // abandoned — the delay shrinks to the deadline
                    // when that beats waiting out the slowdown.
                    let mut delay_ms = (slowdown.min(20.0) * 0.5).ceil() as u64;
                    if let Some(h) = &options.hedge {
                        let deadline_ms = ((h.factor * 0.5).ceil() as u64).max(1);
                        if deadline_ms < delay_ms {
                            hedges += 1;
                            obs.record(Subsystem::Faults, "hedge_won", || {
                                vec![
                                    ("vertex", v.index().into()),
                                    ("straggler_ms", (delay_ms as i64).into()),
                                    ("hedged_ms", (deadline_ms as i64).into()),
                                ]
                            });
                            delay_ms = deadline_ms;
                        }
                    }
                    let t0 = Instant::now();
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    ft.recovering(v, t0.elapsed().as_secs_f64());
                }
                FaultKind::TransientKernelError { failures } => pending_transient += failures,
                FaultKind::CorruptedChunk { chunk } => corrupt_hints.push(chunk),
                // A real process kill is simulated in-process as a
                // worker crash: same loss set, same lineage-replay
                // recovery. The fleet harness (`matopt-worker`) maps it
                // to an actual SIGKILL instead.
                FaultKind::WorkerCrash | FaultKind::ProcessKill { .. } => {
                    let dt = recover_crash(
                        walk,
                        v,
                        config.policy,
                        &mut injector,
                        &checkpoints,
                        &mut ft.per_vertex,
                        obs,
                    )?;
                    ft.recoveries += 1;
                    ft.per_vertex[v.index()].recoveries += 1;
                    ft.recovering(v, dt);
                }
                FaultKind::ResourceExhaustion { repeats } => {
                    for done in 1..=repeats {
                        ft.retry(v);
                        let dt = backoff(&config.retry, done, &mut injector, v, "resources", obs);
                        ft.recovering(v, dt);
                        if done >= config.degrade_after {
                            // Degrade and re-plan the suffix on the
                            // shrunken cluster; everything below `v` is
                            // a pinned input of the new plan.
                            let before = cluster.workers;
                            cluster = cluster.degraded();
                            let ctx2 = PlanContext::new(ctx.registry, cluster);
                            walk.replan(v.index(), &ctx2, catalog, model, config.beam)
                                .map_err(|e| {
                                    ExecError::Internal(format!(
                                        "re-planning after degradation failed: {e}"
                                    ))
                                })?;
                            ft.replans += 1;
                            obs.record(Subsystem::Faults, "degraded", || {
                                vec![
                                    ("vertex", v.index().into()),
                                    ("workers_before", (before as i64).into()),
                                    ("workers_after", (cluster.workers as i64).into()),
                                ]
                            });
                            break;
                        }
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

        // Checkpoint completed vertices *after* fault handling, so a
        // crash at this step never sees its own output checkpointed.
        if config.policy == RecoveryPolicy::Checkpoint {
            let t0 = Instant::now();
            checkpoints.insert(v.index(), Arc::clone(&out.rel));
            ft.checkpoint_seconds += t0.elapsed().as_secs_f64();
        }
        Ok(out)
    })?;

    ft.exec = walk.finish()?;
    ft.exec.governor.hedges_launched = hedges;
    ft.exec.governor.hedges_won = hedges;
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Faults, "faults_injected", ft.faults.len() as u64);
        m.add(Subsystem::Faults, "retries", u64::from(ft.retries));
        m.add(Subsystem::Faults, "recoveries", u64::from(ft.recoveries));
        m.add(Subsystem::Faults, "replans", u64::from(ft.replans));
        m.add(Subsystem::Faults, "hedges_won", hedges);
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

/// Loses the crash's victim set and brings every lost vertex back per
/// `policy`, returning the seconds spent.
///
/// The victim pool is what this plan epoch has materialized: the
/// compute vertices with lower id than the crashing vertex `v` (values
/// from earlier epochs are pinned in driver storage; `v` itself is not
/// stored yet, so it is implicitly lost too).
fn recover_crash(
    walk: &mut InlineWalk<'_>,
    v: NodeId,
    policy: RecoveryPolicy,
    injector: &mut FaultInjector,
    checkpoints: &HashMap<usize, Arc<DistRelation>>,
    per_vertex: &mut [VertexRecovery],
    obs: &Obs,
) -> Result<f64, ExecError> {
    let t0 = Instant::now();
    let mut lost = walk.epoch_computes_below(v);
    if policy != RecoveryPolicy::Restart {
        // Restart-from-scratch throws the whole epoch away; otherwise
        // one worker's memory is gone: a seeded coin flip per resident
        // intermediate.
        lost.retain(|_| injector.rng().next_f64() < 0.5);
    }
    for u in &lost {
        walk.set_value(*u, None);
    }
    let mut restored = 0usize;
    // Replay in id order: each lost vertex's inputs are either
    // survivors or lost-but-earlier (already brought back).
    for u in &lost {
        if policy == RecoveryPolicy::Checkpoint {
            if let Some(ck) = checkpoints.get(&u.index()) {
                walk.set_value(*u, Some(Arc::clone(ck)));
                restored += 1;
                continue;
            }
        }
        let out = walk.run(*u)?;
        walk.set_value(*u, Some(out.rel));
        per_vertex[u.index()].recoveries += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    obs.record(Subsystem::Faults, "recovery", || {
        vec![
            ("policy", policy.as_str().into()),
            ("lost", lost.len().into()),
            ("restored_from_checkpoint", restored.into()),
            ("recomputed", (lost.len() - restored).into()),
            ("seconds", dt.into()),
        ]
    });
    Ok(dt)
}
