//! Installation-time calibration (§7): "our implementation runs a set
//! of benchmark computations for which it collects the running time,
//! and then it uses the ... analytically-computed features along with
//! those running times as input into a regression that is performed for
//! each operation."
//!
//! [`collect_samples`] executes a curated set of single-operation
//! micro-benchmarks on the real executor across several sizes and
//! layouts, pairing each measured wall time with its analytic feature
//! vector. [`matopt_cost::CostModel::fit`] turns the samples
//! into the learned cost model.

use crate::exec::execute_plan;
use crate::value::DistRelation;
use matopt_core::{
    Annotation, Cluster, ComputeGraph, ImplRegistry, MatrixType, NodeId, Op, PhysFormat,
    PlanContext, Transform, VertexChoice,
};
use matopt_cost::{CostKey, CostSample};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_obs::{Obs, Subsystem};
use std::collections::HashMap;
use std::time::Instant;

/// One calibration micro-benchmark: a single op over inputs of the
/// given shapes, each stored in the given format, run through the named
/// implementation.
struct MicroBench {
    op: Op,
    impl_name: &'static str,
    shapes: Vec<(usize, usize)>,
    formats: Vec<PhysFormat>,
}

fn curated(scale: usize) -> Vec<MicroBench> {
    let s = scale; // base edge length
    let tile = PhysFormat::Tile {
        side: (s / 4) as u64,
    };
    let rs = PhysFormat::RowStrip {
        height: (s / 4) as u64,
    };
    let cs = PhysFormat::ColStrip {
        width: (s / 4) as u64,
    };
    let single = PhysFormat::SingleTuple;
    vec![
        MicroBench {
            op: Op::MatMul,
            impl_name: "mm_single_local",
            shapes: vec![(s, s), (s, s)],
            formats: vec![single, single],
        },
        MicroBench {
            op: Op::MatMul,
            impl_name: "mm_tile_shuffle",
            shapes: vec![(s, s), (s, s)],
            formats: vec![tile, tile],
        },
        MicroBench {
            op: Op::MatMul,
            impl_name: "mm_rowstrip_bcast_single",
            shapes: vec![(s, s), (s, s / 2)],
            formats: vec![rs, single],
        },
        MicroBench {
            op: Op::MatMul,
            impl_name: "mm_rowstrip_colstrip_cross",
            shapes: vec![(s, s), (s, s)],
            formats: vec![rs, cs],
        },
        MicroBench {
            op: Op::Add,
            impl_name: "add_copart",
            shapes: vec![(s, s), (s, s)],
            formats: vec![tile, tile],
        },
        MicroBench {
            op: Op::Hadamard,
            impl_name: "hadamard_copart",
            shapes: vec![(s, s), (s, s)],
            formats: vec![tile, tile],
        },
        MicroBench {
            op: Op::Relu,
            impl_name: "relu_map",
            shapes: vec![(s, s)],
            formats: vec![tile],
        },
        MicroBench {
            op: Op::Softmax,
            impl_name: "softmax_rowaligned",
            shapes: vec![(s, s)],
            formats: vec![rs],
        },
        MicroBench {
            op: Op::Transpose,
            impl_name: "transpose_chunkwise",
            shapes: vec![(s, s)],
            formats: vec![tile],
        },
        MicroBench {
            op: Op::RowSums,
            impl_name: "rowsums_tile_shuffle",
            shapes: vec![(s, s)],
            formats: vec![tile],
        },
        MicroBench {
            op: Op::Inverse,
            impl_name: "inv_single_local",
            shapes: vec![(s / 2, s / 2)],
            formats: vec![single],
        },
    ]
}

/// Runs the calibration suite at several scales and returns the
/// `(features, measured seconds)` samples for the regression, covering
/// both implementations and transformations.
///
/// `scales` are base matrix edge lengths (e.g. `[128, 256, 384]`);
/// `seed` fixes the generated payloads. Under [`Subsystem::Calibration`]
/// the suite is wrapped in a `calibrate` span, each scale in a
/// `calibration_scale` span, and every measurement emits one
/// `calib_sample` record.
pub fn collect_samples(
    scales: &[usize],
    seed: u64,
    cluster: &Cluster,
    obs: &Obs,
) -> Vec<CostSample> {
    let _run = obs.span_with(Subsystem::Calibration, "calibrate", || {
        vec![
            ("scales", scales.len().into()),
            ("seed", (seed as i64).into()),
        ]
    });
    let registry = ImplRegistry::paper_default();
    let ctx = PlanContext::new(&registry, *cluster);
    let mut rng = seeded_rng(seed);
    let mut samples = Vec::new();

    for &scale in scales {
        let _scale_span = obs.span_with(Subsystem::Calibration, "calibration_scale", || {
            vec![("scale", scale.into())]
        });
        for bench in curated(scale) {
            let impl_def = registry
                .by_name(bench.impl_name)
                .expect("curated impl exists");
            // Build the one-op graph.
            let mut g = ComputeGraph::new();
            let mut src_ids: Vec<NodeId> = Vec::new();
            let mut data: HashMap<NodeId, DistRelation> = HashMap::new();
            for ((r, c), fmt) in bench.shapes.iter().zip(bench.formats.iter()) {
                let mt = MatrixType::dense(*r as u64, *c as u64);
                let id = g.add_source(mt, *fmt);
                let dense = calibration_matrix(*r, *c, bench.op, &mut rng);
                data.insert(
                    id,
                    DistRelation::from_dense(&dense, *fmt).expect("chunkable"),
                );
                src_ids.push(id);
            }
            let v = g.add_op(bench.op, &src_ids).expect("type-correct bench");

            // Evaluate features + output format for the chosen impl.
            let inputs: Vec<(MatrixType, PhysFormat)> = bench
                .shapes
                .iter()
                .zip(bench.formats.iter())
                .map(|((r, c), f)| (MatrixType::dense(*r as u64, *c as u64), *f))
                .collect();
            let Some(eval) = impl_def.evaluate(&bench.op, &inputs, &ctx.cluster) else {
                continue;
            };
            let mut ann = Annotation::empty(&g);
            ann.set(
                v,
                VertexChoice {
                    impl_id: impl_def.id,
                    input_transforms: bench
                        .formats
                        .iter()
                        .map(|f| Transform::identity(*f))
                        .collect(),
                    output_format: eval.out_format,
                },
            );

            let t0 = Instant::now();
            if execute_plan(&g, &ann, &data, &registry).is_err() {
                continue;
            }
            let seconds = t0.elapsed().as_secs_f64();
            obs.record(Subsystem::Calibration, "calib_sample", || {
                vec![
                    ("op", format!("{:?}", bench.op.kind()).into()),
                    ("impl", bench.impl_name.into()),
                    ("scale", scale.into()),
                    ("seconds", seconds.into()),
                ]
            });
            samples.push(CostSample {
                key: CostKey::Op(bench.op.kind()),
                features: eval.features,
                seconds,
            });
        }

        // Transformation samples: reformat a matrix through a few
        // representative moves and time them.
        let dense = random_dense_normal(scale, scale, &mut rng);
        let m = MatrixType::dense(scale as u64, scale as u64);
        let tile = PhysFormat::Tile {
            side: (scale / 4) as u64,
        };
        let moves = [
            (tile, PhysFormat::SingleTuple),
            (PhysFormat::SingleTuple, tile),
            (
                tile,
                PhysFormat::RowStrip {
                    height: (scale / 4) as u64,
                },
            ),
            (
                PhysFormat::RowStrip {
                    height: (scale / 4) as u64,
                },
                PhysFormat::ColStrip {
                    width: (scale / 4) as u64,
                },
            ),
        ];
        for (from, to) in moves {
            let Some(t) = ctx.transforms.find(&m, from, to) else {
                continue;
            };
            let features = ctx.transforms.features(&m, from, t, &ctx.cluster);
            let rel = DistRelation::from_dense(&dense, from).expect("chunkable");
            let t0 = Instant::now();
            let _ = rel.reformat(to).expect("reformat");
            let seconds = t0.elapsed().as_secs_f64();
            obs.record(Subsystem::Calibration, "calib_sample", || {
                vec![
                    ("transform", format!("{:?}", t.kind).into()),
                    ("scale", scale.into()),
                    ("seconds", seconds.into()),
                ]
            });
            samples.push(CostSample {
                key: CostKey::Transform(t.kind),
                features,
                seconds,
            });
        }
    }
    samples
}

/// Inverse needs a well-conditioned input; everything else takes plain
/// normal data.
fn calibration_matrix(rows: usize, cols: usize, op: Op, rng: &mut impl rand::Rng) -> DenseMatrix {
    let mut d = random_dense_normal(rows, cols, rng);
    if matches!(op, Op::Inverse) {
        for i in 0..rows.min(cols) {
            let v = d.get(i, i) + rows as f64;
            d.set(i, i, v);
        }
    }
    d
}
