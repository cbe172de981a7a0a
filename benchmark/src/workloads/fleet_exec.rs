//! `fleet_exec`: one-shot remote runs, each exactly what
//! `matopt plan --analyze --worker-procs 2` does — spawn a two-worker
//! fleet, execute through it, shut it down.

use crate::fixtures::{
    chain_512_graph, exec_case, inverse_128_graph, sinks_match, ExecCase, ExecEnv,
};
use crate::harness::{timed, ObsConfig, OpRecord, SetupInfo, Workload};
use crate::trace::Tracer;
use matopt_core::NodeId;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions, RemoteVertexExec};
use matopt_obs::Obs;
use matopt_worker::{FleetConfig, FleetStats, WorkerFleet};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub const WORKERS: u32 = 2;

/// What one spawn → execute → shutdown run returned and cost.
pub struct RemoteRun {
    pub sinks: Option<HashMap<NodeId, DistRelation>>,
    pub spawn_ms: f64,
    pub exec_ms: f64,
    pub shutdown_ms: f64,
    pub stats: FleetStats,
}

impl RemoteRun {
    pub fn total_ms(&self) -> f64 {
        self.spawn_ms + self.exec_ms + self.shutdown_ms
    }
}

/// One one-shot remote run of `case` on a fresh fleet. One fleet per
/// run is deliberate: a reused fleet returns stale results today
/// (`worker.reuse_mismatch_share`).
pub fn remote_run(
    env: &ExecEnv,
    case: &ExecCase,
    obs: &Obs,
    registry: Option<Arc<matopt_obs::MetricsRegistry>>,
    tr: &mut Tracer,
) -> RemoteRun {
    let tok = tr.begin("worker", "WorkerFleet::spawn");
    let t = Instant::now();
    let fleet = FleetConfig::standard(WORKERS)
        .and_then(|mut cfg| {
            cfg.obs = registry;
            WorkerFleet::spawn(cfg)
        })
        .expect("matopt-workerd is built next to this binary and spawns");
    let spawn_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(tok);

    let tok = tr.begin("engine", "execute_plan_with(remote)");
    let t = Instant::now();
    let out = execute_plan_with(
        &case.graph,
        &case.plan.annotation,
        &case.inputs,
        &env.registry,
        obs,
        ExecOptions {
            remote: Some(Arc::clone(&fleet) as Arc<dyn RemoteVertexExec>),
            ..ExecOptions::default()
        },
    );
    let exec_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(tok);

    let stats = fleet.stats();
    let tok = tr.begin("worker", "WorkerFleet::shutdown");
    let t = Instant::now();
    fleet.shutdown();
    let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(tok);

    RemoteRun {
        sinks: out.ok().map(|o| o.sinks),
        spawn_ms,
        exec_ms,
        shutdown_ms,
        stats,
    }
}

pub struct FleetExec {
    env: ExecEnv,
    /// `chain_512` (bytes-bound) and `inverse_128` (dispatch-bound):
    /// the two graphs verified bit-exact on a fleet.
    cases: Vec<ExecCase>,
    obs: Obs,
    registry: Option<Arc<matopt_obs::MetricsRegistry>>,
    stash: Vec<RemoteRun>,
}

impl FleetExec {
    pub fn setup(seed: u64, obs: &ObsConfig) -> (Self, SetupInfo) {
        let env = ExecEnv::new();
        let (graphs, build_s) = timed(|| {
            [
                ("chain_512", chain_512_graph()),
                ("inverse_128", inverse_128_graph()),
            ]
        });
        let cases = graphs
            .into_iter()
            .zip(0u64..)
            .map(|((name, graph), i)| exec_case(&env, name, graph, seed.wrapping_mul(31) + i))
            .collect();
        let mut w = FleetExec {
            env,
            cases,
            obs: obs.obs_or(Obs::disabled()),
            registry: obs.registry(),
            stash: Vec::new(),
        };
        // One warm-up round: page in the worker binary, warm loopback.
        let mut ops = Vec::new();
        w.round(&mut Tracer::off(), &mut ops);
        w.stash.clear();
        obs.drain();
        (
            w,
            SetupInfo {
                graph_build_ms: build_s * 1e3,
            },
        )
    }
}

impl Workload for FleetExec {
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64 {
        let mut round_ms = 0.0;
        let mut ok = true;
        for case in &self.cases {
            let run = remote_run(&self.env, case, &self.obs, self.registry.clone(), tr);
            round_ms += run.total_ms();
            ok &= run.sinks.is_some();
            self.stash.push(run);
        }
        ops.push(OpRecord {
            kind: 0,
            ms: round_ms,
            ok,
        });
        round_ms / 1e3
    }

    fn verify(&mut self, tr: &mut Tracer, ops: &mut [OpRecord], first: usize) {
        let tok = tr.begin("oracle", "sinks_match");
        for (case, run) in self.cases.iter().zip(self.stash.drain(..)) {
            let good = run.sinks.is_some_and(|s| sinks_match(&case.reference, &s));
            ops[first].ok &= good;
        }
        tr.end(tok);
    }

    fn limits_ms(&self) -> &'static [f64] {
        &[725.0]
    }

    fn plan_cost_s(&self) -> f64 {
        self.cases.iter().map(|c| c.plan.cost).sum()
    }

    fn serial(&self) -> bool {
        true
    }
}
