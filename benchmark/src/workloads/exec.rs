//! `exec_dense` and `exec_spill`: pre-made plans through
//! `execute_plan_with`, unbudgeted and under half the resident peak.

use crate::fixtures::{
    chain_512_graph, exec_case, ffnn_train_64_graph, ffnn_w2_512_graph, inverse_128_graph,
    sinks_match, ExecCase, ExecEnv,
};
use crate::harness::{timed, ObsConfig, OpRecord, SetupInfo, Workload};
use crate::trace::Tracer;
use matopt_core::NodeId;
use matopt_engine::{execute_plan_with, DistRelation, ExecOptions, ExecOutcome};
use matopt_obs::Obs;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Executions of each case per `exec_dense` round, by case index: the
/// first half of a round is GEMM- and pool-bound (two 512-wide graphs),
/// the second half per-vertex-overhead-bound (40 runs of two ~50-vertex
/// graphs over small blocks).
pub const DENSE_ROUND: [(usize, usize); 4] = [(0, 1), (1, 1), (2, 8), (3, 32)];

/// Warm-up rounds counted in `setup_s` (pool spin-up, allocator, page
/// cache of the scratch directory).
const WARMUP_ROUNDS: usize = 3;

/// The four laptop-scale cases of `exec_dense`, in [`DENSE_ROUND`]
/// order. Returns the milliseconds spent building graphs too.
pub fn dense_cases(env: &ExecEnv, seed: u64) -> (Vec<ExecCase>, f64) {
    let (graphs, build_s) = timed(|| {
        [
            ("ffnn_w2_512", ffnn_w2_512_graph()),
            ("chain_512", chain_512_graph()),
            ("inverse_128", inverse_128_graph()),
            ("ffnn_train_64", ffnn_train_64_graph()),
        ]
    });
    let cases = graphs
        .into_iter()
        .zip(0u64..)
        .map(|((name, graph), i)| exec_case(env, name, graph, seed.wrapping_mul(31) + i))
        .collect();
    (cases, build_s * 1e3)
}

/// One `execute_plan_with` call under a span; returns the outcome and
/// the call's milliseconds.
pub fn run_case(
    env: &ExecEnv,
    case: &ExecCase,
    obs: &Obs,
    options: ExecOptions,
    tr: &mut Tracer,
) -> (Option<ExecOutcome>, f64) {
    let tok = tr.begin("engine", "execute_plan_with");
    let t = Instant::now();
    let out = execute_plan_with(
        &case.graph,
        &case.plan.annotation,
        &case.inputs,
        &env.registry,
        obs,
        options,
    );
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(tok);
    (out.ok(), ms)
}

type Sinks = HashMap<NodeId, DistRelation>;

pub struct ExecDense {
    env: ExecEnv,
    cases: Vec<ExecCase>,
    obs: Obs,
    /// `(case, sinks)` of the last round, `None` for a failed run.
    stash: Vec<(usize, Option<Sinks>)>,
}

impl ExecDense {
    pub fn setup(seed: u64, obs: &ObsConfig) -> (Self, SetupInfo) {
        let env = ExecEnv::new();
        let (cases, graph_build_ms) = dense_cases(&env, seed);
        let mut w = ExecDense {
            env,
            cases,
            obs: obs.obs_or(Obs::disabled()),
            stash: Vec::new(),
        };
        let mut ops = Vec::new();
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut Tracer::off(), &mut ops);
            w.stash.clear();
        }
        obs.drain();
        (w, SetupInfo { graph_build_ms })
    }
}

impl Workload for ExecDense {
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64 {
        let mut round_ms = 0.0;
        let mut ok = true;
        for (idx, reps) in DENSE_ROUND {
            for _ in 0..reps {
                let (out, ms) = run_case(
                    &self.env,
                    &self.cases[idx],
                    &self.obs,
                    ExecOptions::default(),
                    tr,
                );
                round_ms += ms;
                ok &= out.is_some();
                // Keep only the sinks: the client drops everything else
                // before its next request, as a real caller would.
                self.stash.push((idx, out.map(|o| o.sinks)));
            }
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
        for (idx, sinks) in self.stash.drain(..) {
            let good = sinks.is_some_and(|s| sinks_match(&self.cases[idx].reference, &s));
            ops[first].ok &= good;
        }
        tr.end(tok);
    }

    fn limits_ms(&self) -> &'static [f64] {
        &[310.0]
    }

    fn plan_cost_s(&self) -> f64 {
        self.cases.iter().map(|c| c.plan.cost).sum()
    }

    fn serial(&self) -> bool {
        false
    }
}

pub struct ExecSpill {
    env: ExecEnv,
    case: ExecCase,
    obs: Obs,
    budget: u64,
    scratch: PathBuf,
    stash: Option<Sinks>,
}

impl ExecSpill {
    /// `scratch` is a run-local directory inside the checkout; it is
    /// removed on teardown.
    pub fn setup(seed: u64, obs: &ObsConfig, scratch: PathBuf) -> (Self, SetupInfo) {
        let env = ExecEnv::new();
        let (graph, build_s) = timed(ffnn_w2_512_graph);
        let case = exec_case(&env, "ffnn_w2_512", graph, seed.wrapping_mul(31));
        // The budget is half the resident peak of an unbudgeted run of
        // the same plan on the same inputs, measured here.
        let (unbudgeted, _) = run_case(
            &env,
            &case,
            &Obs::disabled(),
            ExecOptions::default(),
            &mut Tracer::off(),
        );
        let peak = unbudgeted
            .expect("unbudgeted run succeeds")
            .peak_resident_bytes;
        std::fs::create_dir_all(&scratch).expect("scratch directory inside the checkout");
        let mut w = ExecSpill {
            env,
            case,
            obs: obs.obs_or(Obs::disabled()),
            budget: peak / 2,
            scratch,
            stash: None,
        };
        let mut ops = Vec::new();
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut Tracer::off(), &mut ops);
        }
        obs.drain();
        (
            w,
            SetupInfo {
                graph_build_ms: build_s * 1e3,
            },
        )
    }

    fn options(&self) -> ExecOptions {
        ExecOptions {
            mem_budget: Some(self.budget),
            scratch_dir: Some(self.scratch.clone()),
            ..ExecOptions::default()
        }
    }
}

impl Workload for ExecSpill {
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64 {
        let (out, ms) = run_case(&self.env, &self.case, &self.obs, self.options(), tr);
        ops.push(OpRecord {
            kind: 0,
            ms,
            // A budget that never engaged the spill path would measure
            // the wrong thing: count it as a failure.
            ok: out.as_ref().is_some_and(|o| o.governor.spills > 0),
        });
        self.stash = out.map(|o| o.sinks);
        ms / 1e3
    }

    fn verify(&mut self, tr: &mut Tracer, ops: &mut [OpRecord], first: usize) {
        let tok = tr.begin("oracle", "sinks_match");
        let good = self
            .stash
            .take()
            .is_some_and(|s| sinks_match(&self.case.reference, &s));
        ops[first].ok &= good;
        tr.end(tok);
    }

    fn limits_ms(&self) -> &'static [f64] {
        &[310.0]
    }

    fn plan_cost_s(&self) -> f64 {
        self.case.plan.cost
    }

    fn serial(&self) -> bool {
        false
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
