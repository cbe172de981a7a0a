//! # matopt-baselines
//!
//! The comparison systems of the paper's evaluation:
//!
//! * [`all_tile_plan`] — "simply tiling every matrix in 1K × 1K
//!   chunks" (§8.2);
//! * [`hand_written_plan`] — the competent hand plan "derived from the
//!   code used ... for a published paper \[23\]";
//! * [`expert_plan`] — the three recruited-programmer personas of
//!   Experiment 4 (low / medium / high distributed-ML expertise, with
//!   the low/medium first attempts crashing and being re-designed);
//! * [`systemds_plan`] — SystemDS-style per-operator layout choice with
//!   sparsity support but no transformation-cost integration (§9);
//! * [`simulate_pytorch_ffnn`] — the data-parallel PyTorch baseline of
//!   §8.3, modeled from its strategy (full model on every worker;
//!   sync cost growing with the cluster).
//!
//! All planners deliberately reuse the same format/implementation
//! machinery as the optimizer, differing only in *what they know* —
//! which is precisely the paper's experimental design.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod greedy;
mod personas;
mod pytorch;

pub use greedy::{
    broadcast_strategies, greedy_plan, systemds_catalog, tile_only_catalog, GreedyConfig,
};
pub use personas::{
    all_tile_plan, expert_plan, hand_written_plan, systemds_plan, ExpertPlan, Expertise,
};
pub use pytorch::{simulate_pytorch_ffnn, PyTorchProfile};

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{validate, Cluster, FormatCatalog, ImplRegistry, PlanContext};
    use matopt_cost::{plan_cost, CostModel};
    use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
    use matopt_opt::{frontier_dp, OptContext};

    #[test]
    fn baselines_plan_the_ffnn_and_cost_at_least_the_optimum() {
        let reg = ImplRegistry::paper_default();
        let cl = Cluster::simsql_like(10);
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let cat = FormatCatalog::paper_default().dense_only();
        let octx = OptContext::new(&ctx, &cat, &model);
        let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(10_000))
            .unwrap()
            .graph;

        let unlimited_early = PlanContext {
            registry: &reg,
            transforms: ctx.transforms,
            cluster: cl.with_unlimited_resources(),
        };
        let auto = frontier_dp(&g, &octx).unwrap();
        let hand = hand_written_plan(&g, &ctx, &model).unwrap();
        validate(&g, &hand, &unlimited_early).unwrap();
        let hand_cost = plan_cost(&g, &hand, &unlimited_early, &model).unwrap();
        assert!(
            auto.cost <= hand_cost * (1.0 + 1e-9),
            "auto {} must not exceed hand {}",
            auto.cost,
            hand_cost
        );

        // The all-tile plan is constructible (memory-unchecked) and
        // costs at least the hand plan's on this workload.
        let tiles = all_tile_plan(&g, &ctx, &model).unwrap();
        let unlimited = PlanContext {
            registry: &reg,
            transforms: ctx.transforms,
            cluster: cl.with_unlimited_resources(),
        };
        validate(&g, &tiles, &unlimited).unwrap();
        let tile_cost = plan_cost(&g, &tiles, &unlimited, &model).unwrap();
        assert!(auto.cost <= tile_cost);
    }

    #[test]
    fn expert_quality_orders_by_expertise() {
        let reg = ImplRegistry::paper_default();
        let cl = Cluster::simsql_like(10);
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let g = ffnn_w2_update_graph(FfnnConfig::simsql_experiment(10_000))
            .unwrap()
            .graph;
        let unlimited = PlanContext {
            registry: &reg,
            transforms: ctx.transforms,
            cluster: cl.with_unlimited_resources(),
        };
        let cost_of = |ann: &matopt_core::Annotation| {
            plan_cost(&g, ann, &unlimited, &model).expect("plannable")
        };
        let low = expert_plan(&g, &ctx, &model, Expertise::Low).unwrap();
        let med = expert_plan(&g, &ctx, &model, Expertise::Medium).unwrap();
        let high = expert_plan(&g, &ctx, &model, Expertise::High).unwrap();
        let (cl_, cm, ch) = (
            cost_of(&low.annotation),
            cost_of(&med.annotation),
            cost_of(&high.annotation),
        );
        assert!(
            ch <= cm && cm <= cl_,
            "expected high ≤ medium ≤ low, got {ch} / {cm} / {cl_}"
        );
        assert!(!high.first_attempt_failed);
    }

    #[test]
    fn systemds_plan_is_type_correct() {
        let reg = ImplRegistry::paper_default();
        let cl = Cluster::plinycompute_like(5);
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let g = ffnn_w2_update_graph(FfnnConfig::amazoncat(1000, 4000, false))
            .unwrap()
            .graph;
        let plan = systemds_plan(&g, &ctx, &model).unwrap();
        validate(&g, &plan, &ctx).unwrap();
    }
}
