//! Fault-tolerant plan execution: retries with bounded exponential
//! backoff, per-vertex checkpointing, lineage replay, and degradation-
//! aware re-planning.
//!
//! [`execute_fault_tolerant`] is [`crate::execute_plan`] wrapped in a
//! recovery loop driven by a [`FaultInjector`]:
//!
//! * **transient kernel errors** retry the vertex after exponential
//!   backoff with seeded jitter, up to [`RetryConfig::max_retries`];
//! * **corrupted chunks** are caught by an FNV checksum over the
//!   vertex's output (only computed while a corruption fault is
//!   pending) and recomputed;
//! * **worker crashes** lose the in-flight vertex plus a seeded random
//!   subset of this plan epoch's materialized intermediates, then
//!   recover per the [`RecoveryPolicy`]: restart-from-scratch replays
//!   every lost vertex, per-vertex checkpointing restores from the
//!   checkpoint store, lineage replay recomputes only the lost vertices
//!   from their nearest surviving ancestors;
//! * **resource exhaustion**, after [`FtConfig::degrade_after`]
//!   repeats, shrinks the [`Cluster`](matopt_core::Cluster) and
//!   re-optimizes the remaining suffix with the same machinery
//!   [`crate::execute_adaptive`] uses — already-computed values become
//!   plan inputs pinned in driver storage.
//!
//! Since the pipelined-scheduler rework the executor is no longer a
//! strict topological walk:
//!
//! * with a **disabled injector** the run delegates wholesale to the
//!   same pipelined scheduler [`crate::execute_plan`] uses, so the
//!   fault-free path pays no per-vertex fault branches at all (pinned
//!   under 2% by the `recovery_overhead` bench);
//! * with a **live injector** vertices execute in *antichain waves*
//!   (same-depth vertices have no mutual data dependencies). Within a
//!   wave, vertices with scheduled faults run first, serially in id
//!   order, so fault handling and PRNG draws stay deterministic per
//!   seed; the remaining clean vertices of the wave then run as one
//!   concurrent pool batch. Vertices therefore complete out of
//!   topological order, and recovery tracks the *done set* explicitly
//!   instead of assuming every lower-id vertex is materialized.
//!
//! Every fault, retry, and recovery emits a record under
//! [`Subsystem::Faults`].

use crate::adaptive::rebuild_suffix;
use crate::exec::{
    missing_choice, missing_input, unshare, vertex_label, ExecOptions, GovernorStats, HedgeConfig,
};
use crate::faults::{corrupt_chunk, relation_checksum, FaultInjector, FaultKind};
use crate::impl_exec::{execute_impl_shared, ExecError};
use crate::schedule::run_pipelined;
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, NodeKind, PlanContext,
    RecoveryPolicy, TransformKind,
};
use matopt_cost::CostModel;
use matopt_obs::{Obs, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_pool::Pool;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded exponential backoff for transient faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Retries allowed per vertex before
    /// [`ExecError::RetryBudgetExhausted`].
    pub max_retries: u32,
    /// First backoff delay, in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds (jitter of up to one base delay
    /// is added on top, drawn from the injector's seeded PRNG).
    pub max_backoff_ms: u64,
}

impl RetryConfig {
    /// The equivalent shared backoff policy: same base, cap, and
    /// budget, with the delay arithmetic (and its bounded-total-wait
    /// property test) hoisted into `matopt-core`.
    #[must_use]
    pub fn policy(&self) -> matopt_core::BackoffPolicy {
        matopt_core::BackoffPolicy {
            base_ms: self.base_backoff_ms,
            cap_ms: self.max_backoff_ms,
            max_attempts: self.max_retries,
        }
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 4,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
        }
    }
}

/// Configuration of the fault-tolerant executor.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// How crashes are recovered.
    pub policy: RecoveryPolicy,
    /// Backoff/retry limits for transient faults.
    pub retry: RetryConfig,
    /// Resource-style failures at one vertex before the cluster is
    /// degraded and the suffix re-planned.
    pub degrade_after: u32,
    /// Beam width for degradation re-planning.
    pub beam: usize,
    /// Memory budget in bytes (`None` = unbounded). The fault-free fast
    /// path governs with spill-to-disk exactly like
    /// [`crate::execute_plan_with`]; the live-injector path retains
    /// every value for crash recovery, so it instead throttles wave
    /// admission to keep projected residency within budget.
    pub mem_budget: Option<u64>,
    /// Scratch directory for spilled buffers (fast path only; `None` =
    /// [`matopt_core::default_scratch_dir`]).
    pub scratch_dir: Option<PathBuf>,
    /// Hedged straggler re-execution (`None` = off). Composes with
    /// retries: a hedge bounds the straggler delay, while transient
    /// faults still burn the retry budget.
    pub hedge: Option<HedgeConfig>,
    /// Shared admission/memory pool (`None` = self-governed). Fault-free
    /// fast-path runs lease a carve-out exactly like
    /// [`crate::execute_plan_with`]; the live-injector path ignores it
    /// (crash recovery retains every value and throttles wave admission
    /// instead).
    pub shared_governor: Option<std::sync::Arc<crate::SharedGovernor>>,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            policy: RecoveryPolicy::default(),
            retry: RetryConfig::default(),
            degrade_after: 2,
            beam: 2000,
            mem_budget: None,
            scratch_dir: None,
            hedge: None,
            shared_governor: None,
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

/// The result of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtOutcome {
    /// Values at the graph's sinks — identical to the fault-free run's
    /// for any crash/transient/corruption schedule (degradation
    /// re-plans may pick different implementations, which changes
    /// floating-point rounding).
    pub sinks: HashMap<NodeId, DistRelation>,
    /// The value computed at every vertex.
    pub values: HashMap<NodeId, DistRelation>,
    /// Wall seconds per vertex for the *successful* attempt.
    pub vertex_seconds: Vec<f64>,
    /// Wall seconds per in-edge transform for the successful attempt.
    pub transform_seconds: Vec<Vec<f64>>,
    /// Chunks in each vertex's output relation.
    pub vertex_chunks: Vec<usize>,
    /// Bytes of each vertex's output relation.
    pub vertex_resident_bytes: Vec<u64>,
    /// Worker parallelism of the pool the run was scheduled on.
    pub parallelism: usize,
    /// Highest number of vertices in flight at once.
    pub max_concurrency: usize,
    /// Peak bytes resident across all live vertex buffers (the
    /// fault-tolerant executor retains everything, so this is the
    /// total).
    pub peak_resident_bytes: u64,
    /// Total wall seconds including all recovery work.
    pub total_seconds: f64,
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
    /// Spill/backpressure/hedging counters. The fast path reports the
    /// pipelined governor's full stats; the live-injector path fills
    /// the admission-wait and hedge counters.
    pub governor: GovernorStats,
    /// Pool counter delta for this run (tasks, steals, busy time).
    pub pool: matopt_pool::PoolStats,
}

/// Executes an annotated graph under fault injection, recovering every
/// fault the injector fires.
///
/// With a [`FaultInjector::disabled`] injector this behaves exactly
/// like [`crate::execute_plan`] (same values, near-zero overhead).
/// `ctx`/`catalog`/`model` are only consulted when degradation forces a
/// re-plan of the remaining suffix.
///
/// # Errors
/// [`ExecError`] on malformed plans, and
/// [`ExecError::RetryBudgetExhausted`] when one vertex's faults outrun
/// [`RetryConfig::max_retries`].
#[allow(clippy::too_many_arguments)]
pub fn execute_fault_tolerant(
    graph: &ComputeGraph,
    annotation: &Annotation,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &dyn CostModel,
    mut injector: FaultInjector,
    config: &FtConfig,
    obs: &Obs,
) -> Result<FtOutcome, ExecError> {
    let _run = obs.span_with(Subsystem::Faults, "execute_fault_tolerant", || {
        vec![
            ("vertices", graph.len().into()),
            ("policy", config.policy.as_str().into()),
            ("scheduled_faults", injector.pending().len().into()),
        ]
    });
    let start = Instant::now();
    let pool_before = Pool::global().stats();
    let registry = ctx.registry;

    // Fault-free fast path: the whole run is one pipelined-scheduler
    // execution — identical to `execute_plan`, zero fault bookkeeping.
    if !injector.is_enabled() {
        let options = ExecOptions {
            mem_budget: config.mem_budget,
            scratch_dir: config.scratch_dir.clone(),
            hedge: config.hedge.clone(),
            shared_governor: config.shared_governor.clone(),
            ..ExecOptions::default()
        };
        let mut out = run_pipelined(graph, annotation, inputs, registry, obs, true, &options)?;
        // Take each slot so the `Arc` is unique and `unshare` moves
        // instead of deep-copying every retained value.
        let mut all = HashMap::new();
        for (id, _) in graph.iter() {
            if let Some(rel) = out.values[id.index()].take() {
                all.insert(id, unshare(rel));
            }
        }
        let sinks = graph
            .sinks()
            .into_iter()
            .map(|s| (s, all[&s].clone()))
            .collect();
        return Ok(FtOutcome {
            sinks,
            values: all,
            vertex_seconds: out.vertex_seconds,
            transform_seconds: out.transform_seconds,
            vertex_chunks: out.vertex_chunks,
            vertex_resident_bytes: out.vertex_resident_bytes,
            parallelism: out.parallelism,
            max_concurrency: out.max_concurrency,
            peak_resident_bytes: out.peak_resident_bytes,
            total_seconds: start.elapsed().as_secs_f64(),
            retries: 0,
            recoveries: 0,
            replans: 0,
            faults: Vec::new(),
            recovery_seconds: 0.0,
            checkpoint_seconds: 0.0,
            per_vertex: vec![VertexRecovery::default(); graph.len()],
            governor: out.governor,
            pool: out.pool,
        });
    }

    let n = graph.len();
    let mut cluster = ctx.cluster;
    // `Arc`s so clean-wave pool closures can share the plan state.
    let graph_arc = Arc::new(graph.clone());
    let registry_arc = Arc::new(registry.clone());
    let mut cur_graph: Arc<ComputeGraph> = Arc::clone(&graph_arc);
    let mut cur_plan: Arc<Annotation> = Arc::new(annotation.clone());
    let mut idmap: Arc<Vec<NodeId>> = Arc::new(graph.iter().map(|(id, _)| id).collect());

    let order: Vec<NodeId> = graph.iter().map(|(id, _)| id).collect();
    let consumers = graph.consumers();
    let mut values: Vec<Option<Arc<DistRelation>>> = vec![None; n];
    // Compute vertices materialized in the *current* plan epoch — the
    // crash victim pool. Reset on re-plan: earlier epochs' values are
    // pinned in driver storage. A done-set (not a topological prefix)
    // because waves complete vertices out of id order.
    let mut epoch_done: Vec<bool> = vec![false; n];
    let mut checkpoints: HashMap<usize, Arc<DistRelation>> = HashMap::new();

    let mut vertex_seconds = vec![0.0; n];
    let mut transform_seconds: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut vertex_chunks = vec![0usize; n];
    let mut vertex_resident_bytes = vec![0u64; n];
    let mut per_vertex = vec![VertexRecovery::default(); n];
    let mut faults: Vec<InjectedFault> = Vec::new();
    let (mut retries, mut recoveries, mut replans) = (0u32, 0u32, 0u32);
    let (mut recovery_seconds, mut checkpoint_seconds) = (0.0f64, 0.0f64);
    let (mut resident, mut max_concurrency) = (0u64, 1usize);
    let mut governor = GovernorStats::default();

    // Fault schedules address vertices by compute-step index in
    // topological id order (the serial executor's numbering), not by
    // completion order.
    let mut step_of = vec![usize::MAX; n];
    let mut level = vec![0usize; n];
    {
        let mut cs = 0usize;
        for (id, node) in graph.iter() {
            level[id.index()] = node
                .inputs
                .iter()
                .map(|i| level[i.index()] + 1)
                .max()
                .unwrap_or(0);
            if matches!(node.kind, NodeKind::Compute { .. }) {
                step_of[id.index()] = cs;
                cs += 1;
            }
        }
    }

    // Seed the sources.
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let rel = inputs.get(&id).ok_or_else(|| missing_input(graph, id))?;
            let rel = if rel.format == *format {
                rel.clone()
            } else {
                rel.reformat(*format)
                    .map_err(|e| ExecError::Internal(e.to_string()))?
            };
            vertex_chunks[id.index()] = rel.chunks.len();
            let bytes = rel.total_bytes() as u64;
            vertex_resident_bytes[id.index()] = bytes;
            resident += bytes;
            values[id.index()] = Some(Arc::new(rel));
        }
    }

    // Antichain waves of compute vertices, by dependency depth.
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut waves: Vec<Vec<NodeId>> = vec![Vec::new(); max_level + 1];
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::Compute { .. }) {
            waves[level[id.index()]].push(id);
        }
    }

    for wave in waves.iter().filter(|w| !w.is_empty()) {
        // Vertices with faults scheduled at their step run first,
        // serially in id order: fault preambles, PRNG draws, and
        // recovery all happen in a deterministic sequence. The clean
        // remainder of the wave then runs as one concurrent batch.
        let fault_steps: HashSet<usize> = injector.pending().iter().map(|e| e.step).collect();
        let (faulted, clean): (Vec<NodeId>, Vec<NodeId>) = wave
            .iter()
            .copied()
            .partition(|v| fault_steps.contains(&step_of[v.index()]));

        for &v in &faulted {
            let step = step_of[v.index()];
            let fired = injector.take(step);
            let mut pending_transient = 0u32;
            let mut corrupt_hints: Vec<usize> = Vec::new();
            for kind in fired {
                obs.record(Subsystem::Faults, "fault_injected", || {
                    vec![
                        ("step", step.into()),
                        ("vertex", v.index().into()),
                        ("kind", kind.to_string().into()),
                    ]
                });
                faults.push(InjectedFault {
                    step,
                    vertex: v,
                    kind,
                });
                match kind {
                    FaultKind::Straggler { slowdown } => {
                        // A slow worker stretches the step; model it
                        // with a capped real delay. With hedging on,
                        // the duplicate completes at the hedge deadline
                        // (factor × the 0.5 ms unit step time) and the
                        // straggler is abandoned — the delay shrinks to
                        // the deadline when that beats waiting out the
                        // slowdown.
                        let delay_ms = (slowdown.min(20.0) * 0.5).ceil() as u64;
                        let slept_ms = match &config.hedge {
                            Some(h) => {
                                let deadline_ms = ((h.factor * 0.5).ceil() as u64).max(1);
                                if deadline_ms < delay_ms {
                                    governor.hedges_launched += 1;
                                    governor.hedges_won += 1;
                                    obs.record(Subsystem::Faults, "hedge_won", || {
                                        vec![
                                            ("vertex", v.index().into()),
                                            ("straggler_ms", (delay_ms as i64).into()),
                                            ("hedged_ms", (deadline_ms as i64).into()),
                                        ]
                                    });
                                    deadline_ms
                                } else {
                                    delay_ms
                                }
                            }
                            None => delay_ms,
                        };
                        let t0 = Instant::now();
                        std::thread::sleep(Duration::from_millis(slept_ms));
                        let dt = t0.elapsed().as_secs_f64();
                        recovery_seconds += dt;
                        per_vertex[v.index()].recovery_seconds += dt;
                    }
                    FaultKind::TransientKernelError { failures } => {
                        pending_transient += failures;
                    }
                    FaultKind::CorruptedChunk { chunk } => corrupt_hints.push(chunk),
                    // A real process kill is simulated in-process as a
                    // worker crash: same loss set, same lineage-replay
                    // recovery. The fleet harness (`matopt-worker`)
                    // maps it to an actual SIGKILL instead.
                    FaultKind::WorkerCrash | FaultKind::ProcessKill { .. } => {
                        let dt = recover_crash(
                            graph,
                            &epoch_done,
                            config.policy,
                            &mut injector,
                            &mut values,
                            &checkpoints,
                            |u, vals| {
                                run_vertex(graph, u, &cur_graph, &idmap, &cur_plan, registry, vals)
                            },
                            &mut per_vertex,
                            obs,
                        )?;
                        recoveries += 1;
                        per_vertex[v.index()].recoveries += 1;
                        recovery_seconds += dt;
                        per_vertex[v.index()].recovery_seconds += dt;
                    }
                    FaultKind::ResourceExhaustion { repeats } => {
                        for done in 1..=repeats {
                            retries += 1;
                            per_vertex[v.index()].retries += 1;
                            let dt =
                                backoff(&config.retry, done, &mut injector, v, "resources", obs);
                            recovery_seconds += dt;
                            per_vertex[v.index()].recovery_seconds += dt;
                            if done >= config.degrade_after {
                                // Degrade and re-plan the suffix on
                                // the shrunken cluster. Everything
                                // materialized so far (any wave) is a
                                // pinned input of the new plan.
                                let before = cluster.workers;
                                cluster = cluster.degraded();
                                let executed: Vec<NodeId> = order
                                    .iter()
                                    .copied()
                                    .filter(|u| values[u.index()].is_some())
                                    .collect();
                                let (g2, map2) =
                                    rebuild_suffix(graph, &executed, &values, &consumers);
                                let ctx2 = PlanContext::new(registry, cluster);
                                let plan2 = frontier_dp_beam(
                                    &g2,
                                    &OptContext::new(&ctx2, catalog, model),
                                    config.beam,
                                )
                                .map_err(|e| {
                                    ExecError::Internal(format!(
                                        "re-planning after degradation failed: {e}"
                                    ))
                                })?
                                .annotation;
                                cur_graph = Arc::new(g2);
                                idmap = Arc::new(map2);
                                cur_plan = Arc::new(plan2);
                                epoch_done = vec![false; n];
                                replans += 1;
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

            // Attempt loop: transient failures and corruption
            // recomputes burn the per-vertex retry budget.
            let mut attempt = 0u32;
            let out = loop {
                if attempt > config.retry.max_retries {
                    return Err(ExecError::RetryBudgetExhausted {
                        vertex: v,
                        label: vertex_label(graph, v),
                        attempts: attempt,
                    });
                }
                if pending_transient > 0 {
                    pending_transient -= 1;
                    attempt += 1;
                    retries += 1;
                    per_vertex[v.index()].retries += 1;
                    let dt = backoff(&config.retry, attempt, &mut injector, v, "transient", obs);
                    recovery_seconds += dt;
                    per_vertex[v.index()].recovery_seconds += dt;
                    continue;
                }
                let (out, tsecs, isecs) =
                    run_vertex(graph, v, &cur_graph, &idmap, &cur_plan, registry, &values)?;
                if let Some(hint) = corrupt_hints.pop() {
                    // Corruption "in transit": checksum the honest
                    // output, corrupt a chunk, detect the mismatch.
                    let want = relation_checksum(&out);
                    let mut received = out;
                    corrupt_chunk(&mut received, hint);
                    if relation_checksum(&received) != want {
                        attempt += 1;
                        retries += 1;
                        per_vertex[v.index()].retries += 1;
                        obs.record(Subsystem::Faults, "corruption_detected", || {
                            vec![("vertex", v.index().into()), ("chunk", hint.into())]
                        });
                        // The wasted attempt is recovery time.
                        recovery_seconds += isecs;
                        per_vertex[v.index()].recovery_seconds += isecs;
                        continue;
                    }
                    // Corruption had no representable effect (e.g.
                    // an empty chunk): the relation is intact.
                    vertex_seconds[v.index()] = isecs;
                    transform_seconds[v.index()] = tsecs;
                    break received;
                }
                vertex_seconds[v.index()] = isecs;
                transform_seconds[v.index()] = tsecs;
                break out;
            };

            // Checkpoint completed vertices *after* fault handling,
            // so a crash at this step never sees its own output
            // checkpointed.
            let out = Arc::new(out);
            if config.policy == RecoveryPolicy::Checkpoint {
                let t0 = Instant::now();
                checkpoints.insert(v.index(), Arc::clone(&out));
                checkpoint_seconds += t0.elapsed().as_secs_f64();
            }
            vertex_chunks[v.index()] = out.chunks.len();
            let bytes = out.total_bytes() as u64;
            vertex_resident_bytes[v.index()] = bytes;
            resident += bytes;
            values[v.index()] = Some(out);
            epoch_done[v.index()] = true;
        }

        if clean.is_empty() {
            continue;
        }
        // Concurrent batches over the wave's clean vertices: inputs all
        // live in earlier waves, so a snapshot of the value slots
        // (reference bumps) is a consistent read view. With a memory
        // budget, each batch is the longest prefix whose *estimated*
        // output bytes keep projected residency within budget (always
        // at least one vertex so the wave progresses) — the
        // fault-tolerant path retains every value for crash recovery,
        // so it throttles admission instead of spilling.
        let mut rest: &[NodeId] = &clean;
        while !rest.is_empty() {
            let take = match config.mem_budget {
                None => rest.len(),
                Some(budget) => {
                    let mut take = 0usize;
                    let mut projected = resident;
                    for &v in rest {
                        let cur_id = idmap[v.index()];
                        let est = cur_plan.choice(cur_id).map_or(0u64, |c| {
                            c.output_format
                                .total_bytes(&cur_graph.node(cur_id).mtype)
                                .max(0.0) as u64
                        });
                        if take > 0 && projected.saturating_add(est) > budget {
                            break;
                        }
                        projected = projected.saturating_add(est);
                        take += 1;
                    }
                    take
                }
            };
            let batch_ids = rest[..take].to_vec();
            rest = &rest[take..];
            if !rest.is_empty() {
                governor.admission_waits += 1;
                obs.record(Subsystem::Sched, "admission_wait", || {
                    vec![
                        ("ready", rest.len().into()),
                        ("resident_plus_reserved", (resident as i64).into()),
                    ]
                });
            }
            max_concurrency = max_concurrency.max(batch_ids.len());
            let snapshot: Arc<Vec<Option<Arc<DistRelation>>>> = Arc::new(values.clone());
            let batch: Arc<Vec<NodeId>> = Arc::new(batch_ids.clone());
            let (g, cg, im, pl, rg) = (
                Arc::clone(&graph_arc),
                Arc::clone(&cur_graph),
                Arc::clone(&idmap),
                Arc::clone(&cur_plan),
                Arc::clone(&registry_arc),
            );
            let results = Pool::global()
                .try_map(batch_ids.len(), move |i| {
                    run_vertex(&g, batch[i], &cg, &im, &pl, &rg, &snapshot)
                })
                .map_err(|detail| ExecError::KernelPanic {
                    vertex: None,
                    label: None,
                    detail,
                })?;
            for (&v, res) in batch_ids.iter().zip(results) {
                let (out, tsecs, isecs) = res?;
                vertex_seconds[v.index()] = isecs;
                transform_seconds[v.index()] = tsecs;
                let out = Arc::new(out);
                if config.policy == RecoveryPolicy::Checkpoint {
                    let t0 = Instant::now();
                    checkpoints.insert(v.index(), Arc::clone(&out));
                    checkpoint_seconds += t0.elapsed().as_secs_f64();
                }
                vertex_chunks[v.index()] = out.chunks.len();
                let bytes = out.total_bytes() as u64;
                vertex_resident_bytes[v.index()] = bytes;
                resident += bytes;
                values[v.index()] = Some(out);
                epoch_done[v.index()] = true;
            }
        }
    }

    let mut all = HashMap::new();
    for (id, _) in graph.iter() {
        all.insert(id, unshare(values[id.index()].take().expect("computed")));
    }
    let sinks = graph
        .sinks()
        .into_iter()
        .map(|s| (s, all[&s].clone()))
        .collect();
    obs.counter(Subsystem::Faults, "faults_fired", faults.len() as f64);
    obs.counter(Subsystem::Faults, "retries", f64::from(retries));
    obs.counter(Subsystem::Faults, "recoveries", f64::from(recoveries));
    if let Some(m) = obs.metrics() {
        m.add(Subsystem::Faults, "faults_injected", faults.len() as u64);
        m.add(Subsystem::Faults, "retries", u64::from(retries));
        m.add(Subsystem::Faults, "recoveries", u64::from(recoveries));
        m.add(Subsystem::Faults, "replans", u64::from(replans));
        m.add(Subsystem::Faults, "hedges_won", governor.hedges_won);
    }
    Ok(FtOutcome {
        sinks,
        values: all,
        vertex_seconds,
        transform_seconds,
        vertex_chunks,
        vertex_resident_bytes,
        parallelism: Pool::global().parallelism(),
        max_concurrency,
        peak_resident_bytes: resident,
        total_seconds: start.elapsed().as_secs_f64(),
        retries,
        recoveries,
        replans,
        faults,
        recovery_seconds,
        checkpoint_seconds,
        per_vertex,
        governor,
        pool: Pool::global().stats().since(&pool_before),
    })
}

/// Sleeps the bounded-exponential-backoff delay for retry number
/// `attempt` (1-based) with jitter from the injector's PRNG, emits the
/// retry record, and returns the seconds slept.
fn backoff(
    retry: &RetryConfig,
    attempt: u32,
    injector: &mut FaultInjector,
    vertex: NodeId,
    cause: &str,
    obs: &Obs,
) -> f64 {
    // Delay arithmetic lives in `matopt_core::BackoffPolicy` (shared
    // with the cache DirLock and the worker-fleet restart supervisor);
    // the jitter word comes from the injector's seeded PRNG so chaos
    // runs stay reproducible.
    let ms = retry.policy().delay_ms(attempt, injector.rng().next_u64());
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
/// `policy`, returning the seconds spent. `recompute` replays one
/// vertex from the current values (its inputs are guaranteed present
/// because replay runs in id — hence topological — order).
///
/// The victim pool is the *done set* of this plan epoch: with wave
/// execution the crashing vertex may be handled while lower-id vertices
/// of its wave are still unexecuted, so "materialized" is tracked
/// explicitly rather than inferred from topological position.
#[allow(clippy::too_many_arguments)]
fn recover_crash(
    graph: &ComputeGraph,
    epoch_done: &[bool],
    policy: RecoveryPolicy,
    injector: &mut FaultInjector,
    values: &mut [Option<Arc<DistRelation>>],
    checkpoints: &HashMap<usize, Arc<DistRelation>>,
    recompute: impl Fn(
        NodeId,
        &[Option<Arc<DistRelation>>],
    ) -> Result<(DistRelation, Vec<f64>, f64), ExecError>,
    per_vertex: &mut [VertexRecovery],
    obs: &Obs,
) -> Result<f64, ExecError> {
    let t0 = Instant::now();
    // Victims: this epoch's already-materialized compute vertices. The
    // in-flight vertex isn't stored yet, so it is implicitly lost too.
    let candidates: Vec<NodeId> = graph
        .iter()
        .map(|(id, _)| id)
        .filter(|u| {
            epoch_done[u.index()]
                && matches!(graph.node(*u).kind, NodeKind::Compute { .. })
                && values[u.index()].is_some()
        })
        .collect();
    let lost: Vec<NodeId> = match policy {
        // Restart-from-scratch throws the whole epoch away.
        RecoveryPolicy::Restart => candidates,
        // Otherwise one worker's memory is gone: a seeded coin flip per
        // resident intermediate.
        _ => candidates
            .into_iter()
            .filter(|_| injector.rng().next_f64() < 0.5)
            .collect(),
    };
    for u in &lost {
        values[u.index()] = None;
    }
    let mut restored = 0usize;
    let mut recomputed = 0usize;
    // Replay in id order: each lost vertex's inputs are either
    // survivors or lost-but-earlier (already brought back).
    for u in &lost {
        if policy == RecoveryPolicy::Checkpoint {
            if let Some(ck) = checkpoints.get(&u.index()) {
                values[u.index()] = Some(Arc::clone(ck));
                restored += 1;
                continue;
            }
        }
        let (out, _, _) = recompute(*u, values)?;
        values[u.index()] = Some(Arc::new(out));
        per_vertex[u.index()].recoveries += 1;
        recomputed += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    obs.record(Subsystem::Faults, "recovery", || {
        vec![
            ("policy", policy.as_str().into()),
            ("lost", lost.len().into()),
            ("restored_from_checkpoint", restored.into()),
            ("recomputed", recomputed.into()),
            ("seconds", dt.into()),
        ]
    });
    Ok(dt)
}

/// Transforms a vertex's inputs per the current plan's choice and runs
/// its implementation, returning the output, per-edge transform
/// seconds, and implementation seconds. Identity edges share the input
/// by reference (`Arc` bump) instead of deep-copying it.
fn run_vertex(
    graph: &ComputeGraph,
    v: NodeId,
    cur_graph: &ComputeGraph,
    idmap: &[NodeId],
    plan: &Annotation,
    registry: &ImplRegistry,
    values: &[Option<Arc<DistRelation>>],
) -> Result<(DistRelation, Vec<f64>, f64), ExecError> {
    let node = graph.node(v);
    let NodeKind::Compute { op } = &node.kind else {
        return Err(ExecError::Internal(format!(
            "vertex {v} is not a compute vertex"
        )));
    };
    let cur_id = idmap[v.index()];
    let choice = plan
        .choice(cur_id)
        .ok_or_else(|| missing_choice(graph, v))?;
    let mut transformed: Vec<Arc<DistRelation>> = Vec::with_capacity(node.inputs.len());
    let mut tsecs = Vec::with_capacity(node.inputs.len());
    for (input, t) in node.inputs.iter().zip(choice.input_transforms.iter()) {
        let src = values[input.index()].as_ref().ok_or_else(|| {
            ExecError::Internal(format!(
                "input {input} of vertex {v} unavailable during recovery"
            ))
        })?;
        let t0 = Instant::now();
        let moved = if t.kind == TransformKind::Identity {
            Arc::clone(src)
        } else {
            Arc::new(
                src.reformat(t.to)
                    .map_err(|e| ExecError::Internal(e.to_string()))?,
            )
        };
        tsecs.push(t0.elapsed().as_secs_f64());
        transformed.push(moved);
    }
    let strategy = registry.get(choice.impl_id).strategy;
    let out_type = cur_graph.node(cur_id).mtype;
    let t0 = Instant::now();
    let out = execute_impl_shared(strategy, op, &transformed, out_type, choice.output_format)
        .map_err(|e| e.at_vertex(v, &vertex_label(graph, v)))?;
    Ok((out, tsecs, t0.elapsed().as_secs_f64()))
}
