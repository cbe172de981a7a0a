//! The cost model (§7): mapping analytic feature vectors to running time.

use crate::curves::ThroughputCurve;
use crate::regression::{fit_ridge, LinearModel, N_FEATURES};
use matopt_core::{
    plan_features, Annotation, Cluster, ComputeGraph, CostFeatures, NodeKind, OpKind, PlanContext,
    PlanError, TransformKind,
};
use std::collections::HashMap;

/// What a cost sample or prediction is about: one atomic computation
/// kind or one transformation kind. The paper performs "a regression
/// ... for each operation"; this key is the per-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKey {
    /// An atomic computation implementation of this kind.
    Op(OpKind),
    /// A physical matrix transformation of this kind.
    Transform(TransformKind),
}

/// The cost model of §7: analytic features mapped linearly to the
/// estimated seconds an implementation or transformation takes on the
/// cluster passed with each call. The coefficients come from one of
/// two sources.
///
/// **Rates** ([`CostModel::analytical`], [`CostModel::with_curve`]):
/// each feature is divided by the matching cluster rate and the
/// per-operator setup cost is added —
///
/// * CPU: critical-path flops at the per-worker flop rate;
/// * network: busiest-NIC bytes at NIC bandwidth;
/// * intermediates: total bytes at the aggregate materialization rate;
/// * tuples: total count at the per-tuple overhead, spread over workers;
/// * ops: fixed setup each.
///
/// A non-empty [`ThroughputCurve`] scales the flop rate of
/// `OpKind::MatMul` by the curve's relative throughput at the
/// operator's flop volume. `cpu_flops` is the per-worker critical-path
/// flop count — the same granularity the probe times — so
/// `relative(cpu_flops)` looks up where on the throughput cliff the
/// operator's chunks sit. Every other operator, every transformation,
/// and everything under an empty curve uses the closed form.
///
/// **Fitted** ([`CostModel::fit`]): per-operation linear regressions
/// over the analytic features, fitted from installation-time benchmark
/// runs, with a global fallback for operations that were never
/// measured. The cluster argument is ignored: the rates are in the
/// coefficients.
///
/// The cluster is an argument rather than part of the model because
/// one model prices plans for several clusters — re-planning a suffix
/// on [`Cluster::degraded`] uses the same coefficients.
#[derive(Debug, Clone)]
pub struct CostModel {
    coefficients: Coefficients,
}

#[derive(Debug, Clone)]
enum Coefficients {
    Rates {
        curve: ThroughputCurve,
    },
    Fitted {
        per_key: HashMap<CostKey, LinearModel>,
        fallback: LinearModel,
    },
}

/// The analytical model under its former type name, kept only so the
/// benchmark under `benchmark/` builds unmodified. Everything else
/// writes `CostModel`.
pub type AnalyticalCostModel = CostModel;

/// The analytical model under its former unit-struct value name, kept
/// only so the benchmark under `benchmark/` builds unmodified.
/// Everything else writes [`CostModel::analytical`].
#[allow(non_upper_case_globals)]
pub const AnalyticalCostModel: CostModel = CostModel::analytical();

/// Unboxes a model; kept only so the benchmark under `benchmark/`, which
/// hands `PlanService` a `Box`, builds unmodified.
impl From<Box<CostModel>> for CostModel {
    fn from(model: Box<CostModel>) -> CostModel {
        *model
    }
}

/// One calibration observation: the features of a benchmark run and its
/// measured wall-clock seconds.
#[derive(Debug, Clone, Copy)]
pub struct CostSample {
    /// What ran.
    pub key: CostKey,
    /// Its analytic features.
    pub features: CostFeatures,
    /// Measured seconds.
    pub seconds: f64,
}

/// Minimum samples required before a per-operation regression is
/// trusted over the global fallback.
const MIN_SAMPLES_PER_KEY: usize = 4;

/// The closed form: every feature divided by its cluster rate.
fn rates_time(f: &CostFeatures, cluster: &Cluster) -> f64 {
    let w = cluster.workers as f64;
    f.cpu_flops / cluster.flops_per_sec
        + f.local_flops / cluster.single_thread_flops_per_sec
        + f.net_bytes / cluster.net_bytes_per_sec
        + f.inter_bytes / (cluster.inter_bytes_per_sec * w)
        + f.tuples * cluster.tuple_overhead_sec / w
        + f.ops * cluster.op_setup_sec
}

/// One fitted regression's prediction. Negative predictions can arise
/// from extrapolation; clamp to a nonnegative time.
fn predict(model: &LinearModel, f: &CostFeatures) -> f64 {
    model.predict(&f.as_regression_row()).max(0.0)
}

impl CostModel {
    /// The closed-form model: the rates form with an empty curve.
    pub const fn analytical() -> CostModel {
        CostModel::with_curve(ThroughputCurve::empty())
    }

    /// The rates form with MatMul's flop rate scaled by `curve`; an
    /// empty curve is [`CostModel::analytical`].
    pub const fn with_curve(curve: ThroughputCurve) -> CostModel {
        CostModel {
            coefficients: Coefficients::Rates { curve },
        }
    }

    /// Fits the model from calibration samples: one ridge regression
    /// per [`CostKey`] with at least four samples, plus a global
    /// fallback over all of them.
    ///
    /// # Panics
    /// Panics when `samples` is empty.
    pub fn fit(samples: &[CostSample]) -> CostModel {
        assert!(!samples.is_empty(), "need calibration samples");
        let rows = |subset: &[&CostSample]| -> (Vec<[f64; N_FEATURES]>, Vec<f64>) {
            (
                subset
                    .iter()
                    .map(|s| s.features.as_regression_row())
                    .collect(),
                subset.iter().map(|s| s.seconds).collect(),
            )
        };
        let all: Vec<&CostSample> = samples.iter().collect();
        let (xs, ys) = rows(&all);
        let fallback = fit_ridge(&xs, &ys, 1e-6);

        let mut by_key: HashMap<CostKey, Vec<&CostSample>> = HashMap::new();
        for s in samples {
            by_key.entry(s.key).or_default().push(s);
        }
        let per_key = by_key
            .into_iter()
            .filter(|(_, v)| v.len() >= MIN_SAMPLES_PER_KEY)
            .map(|(k, v)| {
                let (xs, ys) = rows(&v);
                (k, fit_ridge(&xs, &ys, 1e-6))
            })
            .collect();
        CostModel {
            coefficients: Coefficients::Fitted { per_key, fallback },
        }
    }

    /// Estimated seconds for an atomic computation implementation.
    pub fn impl_time(&self, op: OpKind, features: &CostFeatures, cluster: &Cluster) -> f64 {
        match &self.coefficients {
            Coefficients::Rates { curve } => {
                if op != OpKind::MatMul || curve.is_empty() || features.cpu_flops <= 0.0 {
                    return rates_time(features, cluster);
                }
                let rel = curve.relative(features.cpu_flops);
                let mut scaled = *cluster;
                scaled.flops_per_sec = cluster.flops_per_sec * rel;
                rates_time(features, &scaled)
            }
            Coefficients::Fitted { per_key, fallback } => {
                predict(per_key.get(&CostKey::Op(op)).unwrap_or(fallback), features)
            }
        }
    }

    /// Estimated seconds for a physical matrix transformation.
    pub fn transform_time(
        &self,
        kind: TransformKind,
        features: &CostFeatures,
        cluster: &Cluster,
    ) -> f64 {
        match &self.coefficients {
            Coefficients::Rates { .. } => rates_time(features, cluster),
            Coefficients::Fitted { per_key, fallback } => predict(
                per_key.get(&CostKey::Transform(kind)).unwrap_or(fallback),
                features,
            ),
        }
    }

    /// The rates form's throughput curve (empty for the closed form);
    /// `None` for a fitted model.
    pub fn curve(&self) -> Option<&ThroughputCurve> {
        match &self.coefficients {
            Coefficients::Rates { curve } => Some(curve),
            Coefficients::Fitted { .. } => None,
        }
    }

    /// Number of per-operation regressions fitted (zero for the rates
    /// form).
    pub fn specialized_models(&self) -> usize {
        match &self.coefficients {
            Coefficients::Rates { .. } => 0,
            Coefficients::Fitted { per_key, .. } => per_key.len(),
        }
    }
}

/// Total estimated cost of an annotated plan: the sum over vertex and
/// edge costs of §4.3, `Cost(G') = Σ v.c + Σ e.c`.
///
/// ```
/// use matopt_core::*;
/// use matopt_cost::{plan_cost, CostModel};
///
/// let registry = ImplRegistry::paper_default();
/// let mut g = ComputeGraph::new();
/// let a = g.add_source(MatrixType::dense(1000, 1000), PhysFormat::SingleTuple);
/// let r = g.add_op(Op::Relu, &[a]).unwrap();
/// let mut ann = Annotation::empty(&g);
/// ann.set(r, VertexChoice {
///     impl_id: registry.by_name("relu_map").unwrap().id,
///     input_transforms: vec![Transform::identity(PhysFormat::SingleTuple)],
///     output_format: PhysFormat::SingleTuple,
/// });
/// let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
/// let cost = plan_cost(&g, &ann, &ctx, &CostModel::analytical()).unwrap();
/// assert!(cost > 0.0);
/// ```
///
/// # Errors
/// Returns a [`PlanError`] when the annotation is not type-correct.
pub fn plan_cost(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
    model: &CostModel,
) -> Result<f64, PlanError> {
    let breakdown = plan_features(graph, annotation, ctx)?;
    let mut total = 0.0;
    for (id, node) in graph.iter() {
        let NodeKind::Compute { op } = &node.kind else {
            continue;
        };
        if let Some(f) = &breakdown.impl_features[id.index()] {
            total += model.impl_time(op.kind(), f, &ctx.cluster);
        }
        let choice = annotation.choice(id).expect("validated");
        for (t, f) in choice
            .input_transforms
            .iter()
            .zip(breakdown.transform_features[id.index()].iter())
        {
            total += model.transform_time(t.kind, f, &ctx.cluster);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{ALL_OP_KINDS, ALL_TRANSFORM_KINDS};

    fn feat(flops: f64, net: f64, inter: f64, tuples: f64, ops: f64) -> CostFeatures {
        CostFeatures {
            cpu_flops: flops,
            local_flops: 0.0,
            net_bytes: net,
            inter_bytes: inter,
            tuples,
            ops,
        }
    }

    #[test]
    fn analytical_model_reads_off_unit_cluster() {
        let m = CostModel::analytical();
        let c = Cluster::unit_test(1);
        let f = feat(2.0, 3.0, 5.0, 7.0, 0.0);
        // flops + net + inter + tuples with all rates 1 and 1 worker.
        assert_eq!(m.impl_time(OpKind::MatMul, &f, &c), 2.0 + 3.0 + 5.0 + 7.0);
    }

    #[test]
    fn analytical_model_spreads_tuples_and_inter_over_workers() {
        let m = CostModel::analytical();
        let c = Cluster::unit_test(10);
        let f = feat(0.0, 0.0, 10.0, 20.0, 0.0);
        assert_eq!(m.impl_time(OpKind::Add, &f, &c), 1.0 + 2.0);
    }

    #[test]
    fn op_setup_is_per_operator() {
        let m = CostModel::analytical();
        let mut c = Cluster::unit_test(1);
        c.op_setup_sec = 8.0;
        let f = feat(0.0, 0.0, 0.0, 0.0, 3.0);
        assert_eq!(m.impl_time(OpKind::MatMul, &f, &c), 24.0);
    }

    #[test]
    fn learned_model_recovers_synthetic_rates() {
        // Generate samples from a ground-truth linear law and check the
        // fitted model ranks plans like the truth does.
        let truth = |f: &CostFeatures| f.cpu_flops / 1e10 + f.net_bytes / 1e9 + f.ops * 2.0;
        let mut samples = Vec::new();
        for i in 1..40u32 {
            let f = feat(
                i as f64 * 1e11,
                i as f64 * 7e8 % 5e9,
                0.0,
                i as f64 * 100.0,
                (i % 3) as f64 + 1.0,
            );
            samples.push(CostSample {
                key: CostKey::Op(OpKind::MatMul),
                features: f,
                seconds: truth(&f),
            });
        }
        let model = CostModel::fit(&samples);
        assert_eq!(model.specialized_models(), 1);
        let c = Cluster::unit_test(1);
        let cheap = feat(1e11, 1e8, 0.0, 100.0, 1.0);
        let pricey = feat(9e11, 4e9, 0.0, 900.0, 3.0);
        let p_cheap = model.impl_time(OpKind::MatMul, &cheap, &c);
        let p_pricey = model.impl_time(OpKind::MatMul, &pricey, &c);
        assert!(p_cheap < p_pricey);
        assert!((p_cheap - truth(&cheap)).abs() / truth(&cheap) < 0.05);
    }

    #[test]
    fn learned_model_falls_back_for_unmeasured_ops() {
        let samples: Vec<CostSample> = (1..10)
            .map(|i| CostSample {
                key: CostKey::Op(OpKind::MatMul),
                features: feat(i as f64 * 1e9, 0.0, 0.0, 0.0, 1.0),
                seconds: i as f64,
            })
            .collect();
        let model = CostModel::fit(&samples);
        let c = Cluster::unit_test(1);
        // Relu was never measured: prediction must come from the global
        // fallback, not panic.
        let t = model.impl_time(OpKind::Relu, &feat(5e9, 0.0, 0.0, 0.0, 1.0), &c);
        assert!(t > 0.0);
    }

    #[test]
    fn predictions_are_clamped_nonnegative() {
        let samples: Vec<CostSample> = (1..8)
            .map(|i| CostSample {
                key: CostKey::Op(OpKind::Add),
                features: feat(i as f64, 0.0, 0.0, 0.0, 1.0),
                seconds: 1.0,
            })
            .collect();
        let model = CostModel::fit(&samples);
        let c = Cluster::unit_test(1);
        let t = model.impl_time(OpKind::Add, &feat(0.0, 0.0, 0.0, 0.0, 0.0), &c);
        assert!(t >= 0.0);
    }

    /// Reference copy of the closed form as the separate analytical
    /// model computed it.
    fn reference_analytical(f: &CostFeatures, cluster: &Cluster) -> f64 {
        let w = cluster.workers as f64;
        f.cpu_flops / cluster.flops_per_sec
            + f.local_flops / cluster.single_thread_flops_per_sec
            + f.net_bytes / cluster.net_bytes_per_sec
            + f.inter_bytes / (cluster.inter_bytes_per_sec * w)
            + f.tuples * cluster.tuple_overhead_sec / w
            + f.ops * cluster.op_setup_sec
    }

    /// Reference copy of the separate curve model's implementation time.
    fn reference_curve(
        curve: &ThroughputCurve,
        op: OpKind,
        f: &CostFeatures,
        cluster: &Cluster,
    ) -> f64 {
        if op != OpKind::MatMul || curve.is_empty() || f.cpu_flops <= 0.0 {
            return reference_analytical(f, cluster);
        }
        let rel = curve.relative(f.cpu_flops);
        let mut scaled = *cluster;
        scaled.flops_per_sec = cluster.flops_per_sec * rel;
        reference_analytical(f, &scaled)
    }

    /// Reference copy of the separate learned model: its fit, then its
    /// prediction.
    fn reference_learned(samples: &[CostSample]) -> impl Fn(CostKey, &CostFeatures) -> f64 {
        let fit = |subset: Vec<&CostSample>| {
            let xs: Vec<_> = subset
                .iter()
                .map(|s| s.features.as_regression_row())
                .collect();
            let ys: Vec<_> = subset.iter().map(|s| s.seconds).collect();
            fit_ridge(&xs, &ys, 1e-6)
        };
        let fallback = fit(samples.iter().collect());
        let mut by_key: HashMap<CostKey, Vec<&CostSample>> = HashMap::new();
        for s in samples {
            by_key.entry(s.key).or_default().push(s);
        }
        let per_key: HashMap<CostKey, LinearModel> = by_key
            .into_iter()
            .filter(|(_, v)| v.len() >= MIN_SAMPLES_PER_KEY)
            .map(|(k, v)| (k, fit(v)))
            .collect();
        move |key, f| {
            let model = per_key.get(&key).unwrap_or(&fallback);
            model.predict(&f.as_regression_row()).max(0.0)
        }
    }

    #[test]
    fn one_model_is_bit_equal_to_the_three_reference_formulas() {
        let vector = |[cpu_flops, local_flops, net_bytes, inter_bytes, tuples, ops]: [f64; 6]| {
            CostFeatures {
                cpu_flops,
                local_flops,
                net_bytes,
                inter_bytes,
                tuples,
                ops,
            }
        };
        let vectors = [
            vector([3.7e12, 1.3e9, 2.9e10, 7.1e10, 4.1e5, 3.0]),
            vector([2.3e7, 5.9e6, 1.7e8, 3.3e7, 97.0, 1.0]),
            vector([0.0, 4.4e8, 6.1e9, 8.8e9, 1.9e4, 2.0]),
        ];
        let clusters = [
            Cluster::simsql_like(10),
            Cluster::plinycompute_like(10),
            Cluster::simsql_like(10).degraded(),
        ];
        let curve = ThroughputCurve::from_samples(&[(1e6, 3.25), (2.7e8, 19.0), (9.1e8, 22.5)]);
        let rates = [
            (CostModel::analytical(), ThroughputCurve::empty()),
            (CostModel::with_curve(curve.clone()), curve),
        ];
        // MatMul and Identity get their own regressions; every other key
        // falls back to the global one.
        let samples: Vec<CostSample> = (1..=12u32)
            .flat_map(|i| {
                let x = f64::from(i);
                let features = feat(x * 1e9, x * 3e7, x * 5e7, x * 11.0, 1.0 + x % 3.0);
                [
                    (CostKey::Op(OpKind::MatMul), x * 0.7 + (x * 1.3) % 2.0),
                    (CostKey::Transform(TransformKind::Identity), x * 0.2),
                ]
                .map(|(key, seconds)| CostSample {
                    key,
                    features,
                    seconds,
                })
            })
            .collect();
        let fitted = CostModel::fit(&samples);
        let reference_fitted = reference_learned(&samples);
        assert_eq!(fitted.specialized_models(), 2);

        let keys = ALL_OP_KINDS.map(CostKey::Op).into_iter();
        for key in keys.chain(ALL_TRANSFORM_KINDS.map(CostKey::Transform)) {
            for (f, c) in vectors
                .iter()
                .flat_map(|f| clusters.iter().map(move |c| (f, c)))
            {
                let time = |model: &CostModel| match key {
                    CostKey::Op(op) => model.impl_time(op, f, c),
                    CostKey::Transform(kind) => model.transform_time(kind, f, c),
                };
                for (model, curve) in &rates {
                    let want = match key {
                        CostKey::Op(op) => reference_curve(curve, op, f, c),
                        CostKey::Transform(_) => reference_analytical(f, c),
                    };
                    let points = curve.points().len();
                    let why = format!("rates, {points}-point curve, {key:?} {f:?} {c:?}");
                    assert_eq!(time(model).to_bits(), want.to_bits(), "{why}");
                }
                let want = reference_fitted(key, f);
                assert_eq!(
                    time(&fitted).to_bits(),
                    want.to_bits(),
                    "fitted {key:?} {f:?}"
                );
            }
        }
    }
}
