//! Unit tests for the shared optimizer machinery (`common.rs`): option
//! enumeration, producible formats, and transformation costing. Kept in
//! a separate module to keep `common.rs` focused.

#[cfg(test)]
mod tests {
    use crate::{producible_formats, transform_cost, vertex_options};
    use matopt_core::{
        Cluster, ComputeGraph, FormatCatalog, ImplRegistry, MatrixType, Op, PhysFormat, PlanContext,
    };
    use matopt_cost::CostModel;

    fn setup() -> (ImplRegistry, Cluster) {
        (ImplRegistry::paper_default(), Cluster::simsql_like(10))
    }

    #[test]
    fn options_cover_every_acceptable_impl_for_a_matmul() {
        let (reg, cl) = setup();
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let cat = FormatCatalog::paper_default().dense_only();
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::SingleTuple);
        let b = g.add_source(MatrixType::dense(20_000, 20_000), PhysFormat::SingleTuple);
        let v = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let opts = vertex_options(&g, v, &cat, &ctx, &model, &[vec![], vec![]]);
        assert!(!opts.is_empty());
        // Only matmul implementations ever appear.
        for o in &opts {
            assert_eq!(reg.get(o.impl_id).op, matopt_core::OpKind::MatMul);
            assert_eq!(o.pin.len(), 2);
            assert!(o.impl_cost >= 0.0);
        }
        // Several distinct strategies are on offer (shuffle, broadcast,
        // cross, local...).
        let mut strategies: Vec<_> = opts.iter().map(|o| reg.get(o.impl_id).strategy).collect();
        strategies.sort_by_key(|s| format!("{s:?}"));
        strategies.dedup();
        assert!(strategies.len() >= 4, "got {strategies:?}");
    }

    #[test]
    fn extra_in_formats_extend_the_domain() {
        let (reg, cl) = setup();
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        // An empty catalog: options exist only through the extra
        // producer-offered format.
        let cat = FormatCatalog::new(vec![]);
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(4000, 4000),
            PhysFormat::Tile { side: 1000 },
        );
        let v = g.add_op(Op::Relu, &[a]).unwrap();
        let none = vertex_options(&g, v, &cat, &ctx, &model, &[vec![]]);
        assert!(none.is_empty());
        let some = vertex_options(
            &g,
            v,
            &cat,
            &ctx,
            &model,
            &[vec![PhysFormat::Tile { side: 1000 }]],
        );
        assert!(!some.is_empty());
        assert!(some
            .iter()
            .all(|o| o.pin[0] == PhysFormat::Tile { side: 1000 }));
    }

    #[test]
    fn producible_formats_dedupe() {
        let (reg, cl) = setup();
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let cat = FormatCatalog::paper_default().dense_only();
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(20_000, 20_000),
            PhysFormat::Tile { side: 1000 },
        );
        let v = g.add_op(Op::Relu, &[a]).unwrap();
        let opts = vertex_options(&g, v, &cat, &ctx, &model, &[vec![]]);
        let formats = producible_formats(&opts);
        let mut dedup = formats.clone();
        dedup.dedup();
        assert_eq!(formats.len(), dedup.len());
        assert!(!formats.is_empty());
    }

    #[test]
    fn transform_cost_is_zero_for_identity_and_positive_otherwise() {
        let (reg, cl) = setup();
        let ctx = PlanContext::new(&reg, cl);
        let model = CostModel::analytical();
        let m = MatrixType::dense(10_000, 10_000);
        let tile = PhysFormat::Tile { side: 1000 };
        let (t, c) = transform_cost(&m, tile, tile, &ctx, &model).unwrap();
        assert_eq!(t.kind, matopt_core::TransformKind::Identity);
        assert_eq!(c, 0.0);
        let (_, c2) = transform_cost(&m, tile, PhysFormat::SingleTuple, &ctx, &model).unwrap();
        assert!(c2 > 0.0);
        // Unreachable pair.
        assert!(transform_cost(
            &MatrixType::sparse(10_000, 10_000, 1e-3),
            PhysFormat::Coo,
            PhysFormat::RowStrip { height: 100 },
            &ctx,
            &model
        )
        .is_none());
    }

    #[test]
    fn memory_limits_shrink_the_option_set() {
        let (reg, _) = setup();
        let model = CostModel::analytical();
        let cat = FormatCatalog::paper_default().dense_only();
        let mut g = ComputeGraph::new();
        let a = g.add_source(
            MatrixType::dense(40_000, 40_000),
            PhysFormat::Tile { side: 1000 },
        );
        let b = g.add_source(
            MatrixType::dense(40_000, 40_000),
            PhysFormat::Tile { side: 1000 },
        );
        let v = g.add_op(Op::MatMul, &[a, b]).unwrap();

        let roomy_ctx = PlanContext::new(&reg, Cluster::simsql_like(10));
        let roomy = vertex_options(&g, v, &cat, &roomy_ctx, &model, &[vec![], vec![]]).len();
        let mut tiny = Cluster::simsql_like(10);
        tiny.worker_ram_bytes = 1e9; // broadcasting 12.8 GB no longer fits
        let tiny_ctx = PlanContext::new(&reg, tiny);
        let constrained = vertex_options(&g, v, &cat, &tiny_ctx, &model, &[vec![], vec![]]).len();
        assert!(
            constrained < roomy,
            "tiny RAM must prune options: {constrained} vs {roomy}"
        );
    }
}
