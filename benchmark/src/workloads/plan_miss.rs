//! `plan_miss`: never-seen paper-scale graphs through
//! `PlanService::plan`, so every request pays fingerprint, single-flight
//! and the full frontier DP, and no kernel, engine or wire code runs.

use crate::fixtures::{paper_graph, plan_checks_out, SplitMix, BEAM, PAPER_FAMILIES};
use crate::harness::{timed, ObsConfig, OpRecord, SetupInfo, Workload};
use crate::trace::Tracer;
use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::AnalyticalCostModel;
use matopt_graphs::{ffnn_w2_update_graph_autodiff, FfnnConfig};
use matopt_serve::{PlanService, PlanSource, Planned, ServeConfig};
use std::time::Instant;

/// The service exactly as `matopt serve` builds it by default.
pub fn paper_service(obs: matopt_obs::Obs) -> PlanService {
    PlanService::with_obs(
        ImplRegistry::extended(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(10),
        Box::new(AnalyticalCostModel),
        ServeConfig {
            beam: BEAM,
            ..ServeConfig::default()
        },
        obs,
    )
}

pub struct PlanMiss {
    service: PlanService,
    rng: SplitMix,
    /// Size offset of rounds after the first; the first round is the
    /// same five requests for every seed so `plan_cost_s` repeats
    /// exactly.
    offset: u64,
    round: u64,
    quick: bool,
    /// `Optimized.cost` of the first round's answers, by family (summed
    /// in family order, whatever order the seed issued them in).
    first_round_cost: [f64; 5],
    /// `(graph, answer)` of the last round, in op order.
    stash: Vec<(ComputeGraph, Option<Planned>)>,
}

impl PlanMiss {
    pub fn setup(seed: u64, obs: &ObsConfig, quick: bool) -> (Self, SetupInfo) {
        let mut rng = SplitMix::new(seed ^ 0x706c_616e);
        let service = paper_service(obs.obs_or(matopt_obs::Obs::disabled()));
        // Fixed warm-up: one paper-scale miss at a size no round uses,
        // so the first measured request does not also pay first-touch
        // costs.
        let (warm, build_s) = timed(|| {
            ffnn_w2_update_graph_autodiff(FfnnConfig::simsql_experiment(70_000))
                .expect("well-typed")
                .graph
        });
        service.plan(&warm).expect("warm-up miss plans");
        let offset = 1 + rng.below(64) * 8;
        obs.drain();
        let w = PlanMiss {
            service,
            rng,
            offset,
            round: 0,
            quick,
            first_round_cost: [0.0; 5],
            stash: Vec::new(),
        };
        (
            w,
            SetupInfo {
                graph_build_ms: build_s * 1e3,
            },
        )
    }
}

impl Workload for PlanMiss {
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64 {
        let r = if self.round == 0 {
            0
        } else {
            self.offset + self.round
        };
        // Request generation (outside the timed sections): this round's
        // five graphs in a seeded order. `--quick` keeps the two
        // cheapest families.
        let mut order: Vec<usize> = if self.quick {
            vec![1, 4]
        } else {
            (0..PAPER_FAMILIES.len()).collect()
        };
        self.rng.shuffle(&mut order);
        let graphs: Vec<(usize, ComputeGraph)> = order
            .into_iter()
            .map(|f| (f, paper_graph(PAPER_FAMILIES[f], r)))
            .collect();

        let mut round_ms = 0.0;
        for (family, graph) in graphs {
            let tok = tr.begin("serve", "PlanService::plan");
            let t = Instant::now();
            let planned = self.service.plan(&graph);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(tok);
            round_ms += ms;
            let planned = planned.ok();
            if self.round == 0 {
                self.first_round_cost[family] = planned.as_ref().map_or(f64::NAN, |p| p.plan.cost);
            }
            ops.push(OpRecord {
                kind: family as u8,
                ms,
                ok: planned
                    .as_ref()
                    .is_some_and(|p| p.source == PlanSource::Miss),
            });
            self.stash.push((graph, planned));
        }
        self.round += 1;
        round_ms / 1e3
    }

    fn verify(&mut self, tr: &mut Tracer, ops: &mut [OpRecord], first: usize) {
        let tok = tr.begin("oracle", "validate+plan_cost");
        let ctx = PlanContext::new(self.service.registry(), self.service.cluster());
        for (i, (graph, planned)) in self.stash.drain(..).enumerate() {
            let good = planned
                .is_some_and(|p| plan_checks_out(&graph, &p.plan, &ctx, &AnalyticalCostModel));
            ops[first + i].ok &= good;
        }
        tr.end(tok);
    }

    fn limits_ms(&self) -> &'static [f64] {
        // inverse, ffnn_w2, ffnn_full, ffnn_training, amazoncat
        &[3750.0, 1250.0, 4450.0, 4200.0, 3050.0]
    }

    fn plan_cost_s(&self) -> f64 {
        self.first_round_cost.iter().sum()
    }

    fn serial(&self) -> bool {
        true
    }
}
