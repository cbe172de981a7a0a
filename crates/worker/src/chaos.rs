//! Seeded SIGKILL chaos harness for the worker fleet.
//!
//! Each schedule is derived deterministically from a seed: a workload
//! (FFNN weight update or two-level blocked inverse), a set of kill
//! events (a fleet dispatch offset — the worker that receives that
//! dispatch dies — and whether the kill must land *mid-result-stream*
//! so the coordinator sees a torn, checksummed frame), and an optional
//! heartbeat mute (a simulated hang). The run
//! executes the optimized plan through a real [`WorkerFleet`] while
//! the kills fire, then compares every sink bit-for-bit against the
//! serial in-process reference of the same plan.

use std::collections::HashMap;
use std::sync::Arc;

use matopt_core::{
    Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, NodeKind, PhysFormat,
    PlanContext, SplitMix64,
};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_serial, execute_plan_with, DistRelation, ExecOptions};
use matopt_graphs::{ffnn_w2_update_graph, two_level_inverse_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};

use crate::fleet::{FleetConfig, WorkerFleet};

/// One deterministic kill event within a schedule. The victim is
/// whichever worker receives the dispatch: the dispatcher keeps a chain
/// of vertices on the worker that holds their inputs, so a kill armed
/// on a fixed worker may never fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// How many further fleet dispatches go out before the one whose
    /// receiver is SIGKILLed (0 = the very next one).
    pub after_dispatches: u64,
    /// When true, the victim's task stalls mid-result-frame so the
    /// SIGKILL lands while a half-written frame sits on the wire — the
    /// torn frame must be rejected by checksum, never misdecoded.
    pub mid_stream: bool,
}

/// One seeded chaos schedule.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// The seed this schedule was derived from.
    pub seed: u64,
    /// Which workload runs: 0 = FFNN weight update, 1 = blocked inverse.
    pub workload: u8,
    /// The kills, in firing order.
    pub kills: Vec<KillEvent>,
    /// When set, this worker's heartbeats are muted at run start (a
    /// simulated hang the monitor must detect).
    pub mute_worker: Option<u32>,
}

/// The outcome of one chaos schedule.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The schedule that ran.
    pub seed: u64,
    /// Human-readable workload name.
    pub workload: &'static str,
    /// Kills injected.
    pub kills: usize,
    /// Of which mid-result-stream.
    pub mid_stream_kills: usize,
    /// Worker deaths the fleet declared (kills + hang detections).
    pub deaths: u64,
    /// Lineage redispatches to surviving workers.
    pub redispatches: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Every sink matched the serial reference bit-for-bit.
    pub bit_exact: bool,
}

/// Derives the deterministic schedule for `seed` over a fleet of
/// `workers` processes. Roughly every third schedule includes a
/// mid-result-stream kill; every eighth mutes a worker's heartbeats.
/// A [`SplitMix64`] stream of the seed is the harness's only
/// randomness.
#[must_use]
pub fn derive_schedule(seed: u64, workers: u32) -> ChaosSchedule {
    let mut rng = SplitMix64::new(seed ^ 0xc4a0_5c4a_05c4_a05c);
    let workload = rng.below(2) as u8;
    let n_kills = 1 + rng.below(3) as usize;
    let mut kills = Vec::with_capacity(n_kills);
    for i in 0..n_kills {
        kills.push(KillEvent {
            after_dispatches: rng.below(4),
            // Guarantee mid-stream coverage across the suite: every
            // schedule whose seed ≡ 0 (mod 3) tears its first kill.
            mid_stream: (seed.is_multiple_of(3) && i == 0) || rng.below(4) == 0,
        });
    }
    let mute_worker = if seed % 8 == 7 {
        Some(rng.below(u64::from(workers.max(1))) as u32)
    } else {
        None
    };
    ChaosSchedule {
        seed,
        workload,
        kills,
        mute_worker,
    }
}

/// A chaos workload: an optimized plan plus inputs and the serial
/// in-process reference sinks.
struct Workload {
    name: &'static str,
    graph: ComputeGraph,
    annotation: Annotation,
    inputs: HashMap<NodeId, DistRelation>,
    baseline: HashMap<NodeId, DenseMatrix>,
}

fn make_inputs(graph: &ComputeGraph, seed: u64) -> HashMap<NodeId, DistRelation> {
    let mut rng = seeded_rng(seed);
    let mut rels = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let mut d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            // Keep inverse inputs well conditioned.
            if node.mtype.is_square() {
                for i in 0..node.mtype.rows as usize {
                    let v = d.get(i, i) + node.mtype.rows as f64 * 2.0;
                    d.set(i, i, v);
                }
            }
            rels.insert(
                id,
                DistRelation::from_dense(&d, *format).expect("source relation"),
            );
        }
    }
    rels
}

fn build_workload(name: &'static str, graph: ComputeGraph, catalog: &FormatCatalog) -> Workload {
    let registry = ImplRegistry::paper_default();
    let cluster = Cluster::simsql_like(4);
    let ctx = PlanContext::new(&registry, cluster);
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, catalog, &model);
    let opt = frontier_dp_beam(&graph, &octx, 2000).expect("optimizable");
    let inputs = make_inputs(&graph, 0xC0FFEE);
    let baseline = execute_plan_serial(&graph, &opt.annotation, &inputs, &registry)
        .expect("serial reference run succeeds")
        .sinks
        .into_iter()
        .map(|(id, rel)| (id, rel.to_dense()))
        .collect();
    Workload {
        name,
        graph,
        annotation: opt.annotation,
        inputs,
        baseline,
    }
}

fn workload_for(index: u8) -> Workload {
    match index {
        0 => {
            let graph = ffnn_w2_update_graph(FfnnConfig::laptop(16))
                .expect("well-typed")
                .graph;
            build_workload(
                "ffnn-small",
                graph,
                &FormatCatalog::paper_default().dense_only(),
            )
        }
        _ => {
            let graph = two_level_inverse_graph(16, 4).expect("well-typed").graph;
            let small = FormatCatalog::new(vec![
                PhysFormat::SingleTuple,
                PhysFormat::Tile { side: 4 },
                PhysFormat::Tile { side: 8 },
                PhysFormat::RowStrip { height: 4 },
                PhysFormat::ColStrip { width: 4 },
            ]);
            build_workload("blocked-inverse", graph, &small)
        }
    }
}

/// Runs one schedule through a fresh fleet and verifies bit-exactness.
///
/// # Errors
/// A string when the fleet cannot be spawned or the chaotic run dies
/// with an execution error (schedules are designed to stay within the
/// restart budget; exhausting it is a harness bug worth surfacing).
pub fn run_schedule(schedule: &ChaosSchedule, cfg: FleetConfig) -> Result<ChaosReport, String> {
    let wl = workload_for(schedule.workload);
    let fleet = WorkerFleet::spawn(cfg).map_err(|e| e.to_string())?;
    // Arm the kills before dispatch begins.
    let mut mid_stream_kills = 0;
    let mut stall = SplitMix64::new(schedule.seed ^ 0x57a1_157a_1157_a115);
    for kill in &schedule.kills {
        if kill.mid_stream {
            mid_stream_kills += 1;
            // Stall a deterministic subset of compute vertices so the
            // victim is mid-result-frame when the SIGKILL fires.
            for (id, node) in wl.graph.iter() {
                if !matches!(node.kind, NodeKind::Source { .. }) && stall.below(2) == 0 {
                    fleet.stall_vertex(id.0, 40);
                }
            }
        }
        fleet.kill_at_dispatch(kill.after_dispatches);
    }
    if let Some(w) = schedule.mute_worker {
        fleet.mute_heartbeats(w);
    }
    let registry = ImplRegistry::paper_default();
    let options = ExecOptions {
        remote: Some(Arc::clone(&fleet) as Arc<dyn matopt_engine::RemoteVertexExec>),
        ..ExecOptions::default()
    };
    let outcome = execute_plan_with(
        &wl.graph,
        &wl.annotation,
        &wl.inputs,
        &registry,
        &Obs::disabled(),
        options,
    );
    let stats = fleet.stats();
    fleet.shutdown();
    let outcome = outcome.map_err(|e| format!("chaotic run failed: {e}"))?;
    let mut bit_exact = true;
    for (id, rel) in &outcome.sinks {
        let got = rel.to_dense();
        match wl.baseline.get(id) {
            Some(want) if *want == got => {}
            _ => bit_exact = false,
        }
    }
    if outcome.sinks.len() != wl.baseline.len() {
        bit_exact = false;
    }
    Ok(ChaosReport {
        seed: schedule.seed,
        workload: wl.name,
        kills: schedule.kills.len(),
        mid_stream_kills,
        deaths: stats.deaths,
        redispatches: stats.redispatches,
        restarts: stats.restarts,
        bit_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedules of seeds 0..8, pinned to what the harness's own
    /// SplitMix64 step drew before it shared `matopt-core`'s.
    #[test]
    fn derived_schedules_are_pinned() {
        /// (workload, [(after_dispatches, mid_stream)], mute_worker)
        type Pinned = (u8, &'static [(u64, bool)], Option<u32>);
        let want: [Pinned; 8] = [
            (1, &[(3, true), (1, true)], None),
            (1, &[(0, false), (2, false), (3, false)], None),
            (1, &[(1, false), (2, false)], None),
            (1, &[(3, true)], None),
            (0, &[(3, false), (2, true)], None),
            (1, &[(2, false), (3, false)], None),
            (0, &[(1, true)], None),
            (0, &[(0, false), (3, false), (1, false)], Some(2)),
        ];
        for (seed, (workload, kills, mute_worker)) in want.into_iter().enumerate() {
            let s = derive_schedule(seed as u64, 4);
            let got: Vec<(u64, bool)> = s
                .kills
                .iter()
                .map(|k| (k.after_dispatches, k.mid_stream))
                .collect();
            assert_eq!(
                (s.workload, got.as_slice(), s.mute_worker),
                (workload, kills, mute_worker),
                "seed {seed}"
            );
        }
    }
}
