//! Per-implementation execution tests: every one of the 38 atomic
//! computation implementations is run directly over concrete chunked
//! relations and checked against the dense reference kernel — including
//! the strategies the optimizer rarely picks (outer-product matmul,
//! COO matmul, the two-round tiled softmax, the distributed
//! Gauss–Jordan inverse).

use matopt_core::{ImplRegistry, MatrixType, Op, PhysFormat, Strategy};
use matopt_engine::{execute_impl, Block, DistRelation};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use std::sync::Arc;

fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    random_dense_normal(rows, cols, &mut seeded_rng(seed))
}

fn sparse(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    dense(rows, cols, seed).map(|v| if v > 0.8 { v } else { 0.0 })
}

fn rel(d: &DenseMatrix, f: PhysFormat) -> DistRelation {
    DistRelation::from_dense(d, f).expect("chunkable")
}

fn mt(d: &DenseMatrix) -> MatrixType {
    MatrixType {
        rows: d.rows() as u64,
        cols: d.cols() as u64,
        sparsity: d.measured_sparsity(),
    }
}

/// Runs `strategy` on the given inputs/formats and checks the assembled
/// result against `expect`. The executor is handed the output format the
/// optimizer's type specification gives (`evaluate` on the extended
/// registry), which must be `out_format`: optimizer and executor agree.
fn check(
    strategy: Strategy,
    op: Op,
    data: &[(&DenseMatrix, PhysFormat)],
    out_format: PhysFormat,
    expect: &DenseMatrix,
) {
    let rels: Vec<Arc<DistRelation>> = data.iter().map(|(d, f)| Arc::new(rel(d, *f))).collect();
    let reg = ImplRegistry::extended();
    let impl_def = reg
        .all()
        .iter()
        .find(|d| d.strategy == strategy && d.op == op.kind())
        .expect("registered");
    let typed: Vec<(MatrixType, PhysFormat)> = rels.iter().map(|r| (r.mtype, r.format)).collect();
    let eval = impl_def
        .evaluate(&op, &typed, &matopt_core::Cluster::simsql_like(10))
        .unwrap_or_else(|| panic!("{strategy:?} rejects {typed:?}"));
    assert_eq!(
        eval.out_format, out_format,
        "{strategy:?}: optimizer output format"
    );
    let out_type = MatrixType {
        rows: expect.rows() as u64,
        cols: expect.cols() as u64,
        sparsity: expect.measured_sparsity(),
    };
    let out = execute_impl(strategy, &op, &rels, out_type, eval.out_format).expect("executes");
    assert_eq!(out.format, out_format, "output format mismatch");
    assert!(
        out.to_dense().approx_eq(expect, 1e-9),
        "{strategy:?} diverged from reference"
    );
}

#[test]
fn mm_single_local() {
    let (a, b) = (dense(9, 13, 1), dense(13, 7, 2));
    check(
        Strategy::MmSingleLocal,
        Op::MatMul,
        &[(&a, PhysFormat::SingleTuple), (&b, PhysFormat::SingleTuple)],
        PhysFormat::SingleTuple,
        &a.matmul(&b),
    );
}

#[test]
fn mm_bcast_single_colstrip() {
    let (a, b) = (dense(6, 10, 3), dense(10, 20, 4));
    check(
        Strategy::MmBcastSingleColstrip,
        Op::MatMul,
        &[
            (&a, PhysFormat::SingleTuple),
            (&b, PhysFormat::ColStrip { width: 4 }),
        ],
        PhysFormat::ColStrip { width: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn mm_rowstrip_bcast_single() {
    let (a, b) = (dense(20, 10, 5), dense(10, 6, 6));
    check(
        Strategy::MmRowstripBcastSingle,
        Op::MatMul,
        &[
            (&a, PhysFormat::RowStrip { height: 4 }),
            (&b, PhysFormat::SingleTuple),
        ],
        PhysFormat::RowStrip { height: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn mm_rowstrip_colstrip_cross() {
    let (a, b) = (dense(12, 30, 7), dense(30, 12, 8));
    check(
        Strategy::MmRowstripColstripCross,
        Op::MatMul,
        &[
            (&a, PhysFormat::RowStrip { height: 4 }),
            (&b, PhysFormat::ColStrip { width: 4 }),
        ],
        PhysFormat::Tile { side: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn mm_tile_shuffle_and_bcast() {
    let (a, b) = (dense(12, 20, 9), dense(20, 8, 10));
    for strategy in [Strategy::MmTileShuffle, Strategy::MmTileBcast] {
        check(
            strategy,
            Op::MatMul,
            &[
                (&a, PhysFormat::Tile { side: 4 }),
                (&b, PhysFormat::Tile { side: 4 }),
            ],
            PhysFormat::Tile { side: 4 },
            &a.matmul(&b),
        );
    }
}

#[test]
fn mm_tile_shuffle_ragged_edges() {
    // Dimensions that do not divide the tile side.
    let (a, b) = (dense(11, 17, 11), dense(17, 9, 12));
    check(
        Strategy::MmTileShuffle,
        Op::MatMul,
        &[
            (&a, PhysFormat::Tile { side: 4 }),
            (&b, PhysFormat::Tile { side: 4 }),
        ],
        PhysFormat::Tile { side: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn mm_colstrip_rowstrip_outer() {
    let (a, b) = (dense(7, 20, 13), dense(20, 9, 14));
    check(
        Strategy::MmColstripRowstripOuter,
        Op::MatMul,
        &[
            (&a, PhysFormat::ColStrip { width: 4 }),
            (&b, PhysFormat::RowStrip { height: 4 }),
        ],
        PhysFormat::SingleTuple,
        &a.matmul(&b),
    );
}

#[test]
fn mm_csrtile_tile() {
    let (a, b) = (sparse(12, 16, 15), dense(16, 8, 16));
    check(
        Strategy::MmCsrTileTile,
        Op::MatMul,
        &[
            (&a, PhysFormat::CsrTile { side: 4 }),
            (&b, PhysFormat::Tile { side: 4 }),
        ],
        PhysFormat::Tile { side: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn mm_csrsingle_single() {
    let (a, b) = (sparse(10, 14, 17), dense(14, 5, 18));
    check(
        Strategy::MmCsrSingleSingle,
        Op::MatMul,
        &[(&a, PhysFormat::CsrSingle), (&b, PhysFormat::SingleTuple)],
        PhysFormat::SingleTuple,
        &a.matmul(&b),
    );
}

#[test]
fn mm_coo_dense_shuffle() {
    let (a, b) = (sparse(10, 16, 19), dense(16, 12, 20));
    check(
        Strategy::MmCooDenseShuffle,
        Op::MatMul,
        &[(&a, PhysFormat::Coo), (&b, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &a.matmul(&b),
    );
}

#[test]
fn elementwise_copart_and_local() {
    let (a, b) = (dense(10, 12, 21), dense(10, 12, 22));
    for (op, expect) in [
        (Op::Add, a.add(&b)),
        (Op::Sub, a.sub(&b)),
        (Op::Hadamard, a.hadamard(&b)),
    ] {
        check(
            Strategy::EwCopart,
            op,
            &[
                (&a, PhysFormat::Tile { side: 4 }),
                (&b, PhysFormat::Tile { side: 4 }),
            ],
            PhysFormat::Tile { side: 4 },
            &expect,
        );
        check(
            Strategy::EwSingleLocal,
            op,
            &[(&a, PhysFormat::SingleTuple), (&b, PhysFormat::SingleTuple)],
            PhysFormat::SingleTuple,
            &expect,
        );
    }
}

#[test]
fn add_coo_dense_copart() {
    let (a, b) = (sparse(9, 12, 23), dense(9, 12, 24));
    check(
        Strategy::AddCooDenseCopart,
        Op::Add,
        &[(&a, PhysFormat::Coo), (&b, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &a.add(&b),
    );
}

#[test]
fn hadamard_csr_dense_copart() {
    let (a, b) = (sparse(8, 12, 25), dense(8, 12, 26));
    check(
        Strategy::HadamardCsrDenseCopart,
        Op::Hadamard,
        &[
            (&a, PhysFormat::CsrTile { side: 4 }),
            (&b, PhysFormat::Tile { side: 4 }),
        ],
        PhysFormat::CsrTile { side: 4 },
        &a.hadamard(&b),
    );
}

#[test]
fn bias_bcast_across_layouts() {
    let a = dense(10, 12, 27);
    let bias = dense(1, 12, 28);
    let expect = a.add_row_broadcast(&bias);
    for fmt in [
        PhysFormat::Tile { side: 4 },
        PhysFormat::RowStrip { height: 4 },
        PhysFormat::ColStrip { width: 4 },
        PhysFormat::SingleTuple,
    ] {
        check(
            Strategy::BiasBcast,
            Op::BroadcastAddRow,
            &[(&a, fmt), (&bias, PhysFormat::SingleTuple)],
            fmt,
            &expect,
        );
    }
}

#[test]
fn unary_maps_dense_and_sparse() {
    let a = dense(9, 11, 29);
    let cases: Vec<(Op, DenseMatrix)> = vec![
        (Op::Relu, a.relu()),
        (Op::ReluGrad, a.relu_grad()),
        (Op::Sigmoid, a.sigmoid()),
        (Op::Exp, a.exp()),
        (Op::Neg, a.neg()),
        (Op::ScalarMul(2.5), a.scale(2.5)),
    ];
    for (op, expect) in &cases {
        check(
            Strategy::UnaryMap,
            *op,
            &[(&a, PhysFormat::Tile { side: 4 })],
            PhysFormat::Tile { side: 4 },
            expect,
        );
    }
    // Zero-preserving maps over sparse payloads.
    let s = sparse(9, 11, 30);
    for (op, expect) in [
        (Op::Relu, s.relu()),
        (Op::Neg, s.neg()),
        (Op::ScalarMul(-1.5), s.scale(-1.5)),
    ] {
        check(
            Strategy::UnaryMap,
            op,
            &[(&s, PhysFormat::CsrTile { side: 4 })],
            PhysFormat::CsrTile { side: 4 },
            &expect,
        );
        check(
            Strategy::UnaryMap,
            op,
            &[(&s, PhysFormat::Coo)],
            PhysFormat::Coo,
            &expect,
        );
    }
}

#[test]
fn softmax_both_implementations() {
    let a = dense(10, 14, 31);
    let expect = a.softmax_rows();
    check(
        Strategy::SoftmaxRowAligned,
        Op::Softmax,
        &[(&a, PhysFormat::RowStrip { height: 4 })],
        PhysFormat::RowStrip { height: 4 },
        &expect,
    );
    check(
        Strategy::SoftmaxTileTwoRound,
        Op::Softmax,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &expect,
    );
}

#[test]
fn transpose_all_three_implementations() {
    let a = dense(10, 14, 32);
    check(
        Strategy::TransposeChunkwise,
        Op::Transpose,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &a.transpose(),
    );
    check(
        Strategy::TransposeChunkwise,
        Op::Transpose,
        &[(&a, PhysFormat::RowStrip { height: 4 })],
        PhysFormat::ColStrip { width: 4 },
        &a.transpose(),
    );
    let s = sparse(10, 14, 33);
    check(
        Strategy::TransposeCoo,
        Op::Transpose,
        &[(&s, PhysFormat::Coo)],
        PhysFormat::Coo,
        &s.transpose(),
    );
    check(
        Strategy::TransposeCsrSingle,
        Op::Transpose,
        &[(&s, PhysFormat::CsrSingle)],
        PhysFormat::CsrSingle,
        &s.transpose(),
    );
    check(
        Strategy::TransposeCsrSingle,
        Op::Transpose,
        &[(&s, PhysFormat::CsrTile { side: 4 })],
        PhysFormat::CsrTile { side: 4 },
        &s.transpose(),
    );
}

#[test]
fn reductions_all_implementations() {
    let a = dense(12, 10, 34);
    check(
        Strategy::ReduceRowAligned,
        Op::RowSums,
        &[(&a, PhysFormat::RowStrip { height: 4 })],
        PhysFormat::RowStrip { height: 4 },
        &a.row_sums(),
    );
    check(
        Strategy::ReduceColAligned,
        Op::ColSums,
        &[(&a, PhysFormat::ColStrip { width: 5 })],
        PhysFormat::ColStrip { width: 5 },
        &a.col_sums(),
    );
    check(
        Strategy::ReduceTileShuffle,
        Op::RowSums,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::RowStrip { height: 4 },
        &a.row_sums(),
    );
    check(
        Strategy::ReduceTileShuffle,
        Op::ColSums,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::ColStrip { width: 4 },
        &a.col_sums(),
    );
    let s = sparse(12, 10, 35);
    check(
        Strategy::ReduceCoo,
        Op::RowSums,
        &[(&s, PhysFormat::Coo)],
        PhysFormat::SingleTuple,
        &s.row_sums(),
    );
    check(
        Strategy::ReduceCoo,
        Op::ColSums,
        &[(&s, PhysFormat::Coo)],
        PhysFormat::SingleTuple,
        &s.col_sums(),
    );
}

#[test]
fn inverse_both_implementations() {
    let n = 12;
    let mut a = dense(n, n, 36);
    for i in 0..n {
        let v = a.get(i, i) + 2.0 * n as f64;
        a.set(i, i, v);
    }
    let expect = a.inverse().unwrap();
    check(
        Strategy::InvSingleLocal,
        Op::Inverse,
        &[(&a, PhysFormat::SingleTuple)],
        PhysFormat::SingleTuple,
        &expect,
    );
    check(
        Strategy::InvTileGaussJordan,
        Op::Inverse,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &expect,
    );
}

#[test]
fn gauss_jordan_handles_ragged_last_block() {
    // 10 is not a multiple of the tile side 4: the last diagonal block
    // is 2×2.
    let n = 10;
    let mut a = dense(n, n, 37);
    for i in 0..n {
        let v = a.get(i, i) + 2.0 * n as f64;
        a.set(i, i, v);
    }
    check(
        Strategy::InvTileGaussJordan,
        Op::Inverse,
        &[(&a, PhysFormat::Tile { side: 4 })],
        PhysFormat::Tile { side: 4 },
        &a.inverse().unwrap(),
    );
}

/// Every registered implementation is *reachable*: `accepts` returns a
/// format for at least one realistic input configuration — there are no
/// dead entries in the registry.
#[test]
fn no_dead_implementations() {
    let reg = ImplRegistry::paper_default();
    let cl = matopt_core::Cluster::simsql_like(10);
    let dense_m = MatrixType::dense(20_000, 20_000);
    let sparse_m = MatrixType::sparse(20_000, 20_000, 1e-3);
    let vec_m = MatrixType::dense(1, 20_000);
    let formats = [
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 1000 },
        PhysFormat::RowStrip { height: 1000 },
        PhysFormat::ColStrip { width: 1000 },
        PhysFormat::Coo,
        PhysFormat::CsrSingle,
        PhysFormat::CsrTile { side: 1000 },
    ];
    for impl_def in reg.all() {
        let op = match impl_def.op {
            matopt_core::OpKind::MatMul => Op::MatMul,
            matopt_core::OpKind::Add => Op::Add,
            matopt_core::OpKind::Sub => Op::Sub,
            matopt_core::OpKind::Hadamard => Op::Hadamard,
            matopt_core::OpKind::ScalarMul => Op::ScalarMul(2.0),
            matopt_core::OpKind::Transpose => Op::Transpose,
            matopt_core::OpKind::Relu => Op::Relu,
            matopt_core::OpKind::ReluGrad => Op::ReluGrad,
            matopt_core::OpKind::Softmax => Op::Softmax,
            matopt_core::OpKind::Sigmoid => Op::Sigmoid,
            matopt_core::OpKind::Exp => Op::Exp,
            matopt_core::OpKind::Neg => Op::Neg,
            matopt_core::OpKind::RowSums => Op::RowSums,
            matopt_core::OpKind::ColSums => Op::ColSums,
            matopt_core::OpKind::Inverse => Op::Inverse,
            matopt_core::OpKind::BroadcastAddRow => Op::BroadcastAddRow,
            matopt_core::OpKind::SumAll => Op::SumAll,
            matopt_core::OpKind::FrobeniusNorm => Op::FrobeniusNorm,
        };
        let arity = op.arity();
        let mut reachable = false;
        'search: for m1 in [dense_m, sparse_m] {
            for f1 in formats {
                if arity == 1 {
                    if impl_def.accepts(&op, &[(m1, f1)], &cl).is_some() {
                        reachable = true;
                        break 'search;
                    }
                } else {
                    let second_types = if op.kind() == matopt_core::OpKind::BroadcastAddRow {
                        vec![vec_m]
                    } else {
                        vec![dense_m, sparse_m]
                    };
                    for m2 in &second_types {
                        for f2 in formats {
                            if impl_def.accepts(&op, &[(m1, f1), (*m2, f2)], &cl).is_some() {
                                reachable = true;
                                break 'search;
                            }
                        }
                    }
                }
            }
        }
        assert!(reachable, "implementation {} is unreachable", impl_def.name);
    }
}

/// The assembled output of a strategy honours ragged chunk grids in
/// both dimensions simultaneously.
#[test]
fn ragged_everything_roundtrip() {
    let a = dense(13, 19, 38);
    let b = dense(19, 11, 39);
    check(
        Strategy::MmTileShuffle,
        Op::MatMul,
        &[
            (&a, PhysFormat::Tile { side: 5 }),
            (&b, PhysFormat::Tile { side: 5 }),
        ],
        PhysFormat::Tile { side: 5 },
        &a.matmul(&b),
    );
    let bias = dense(1, 11, 40);
    let prod = a.matmul(&b);
    check(
        Strategy::BiasBcast,
        Op::BroadcastAddRow,
        &[
            (&prod, PhysFormat::Tile { side: 5 }),
            (&bias, PhysFormat::SingleTuple),
        ],
        PhysFormat::Tile { side: 5 },
        &prod.add_row_broadcast(&bias),
    );
}

/// `mt` helper consistency (exercises the helper used above).
#[test]
fn helper_consistency() {
    let d = sparse(6, 6, 41);
    let m = mt(&d);
    assert_eq!(m.rows, 6);
    assert!(m.sparsity < 1.0);
}

/// Error paths: missing inputs and missing annotations surface as typed
/// errors, not panics.
#[test]
fn executor_error_paths() {
    use matopt_engine::{execute_plan, ExecError};
    use std::collections::HashMap;
    let reg = ImplRegistry::paper_default();
    let mut g = matopt_core::ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(8, 8), PhysFormat::SingleTuple);
    let r = g.add_op(Op::Relu, &[a]).unwrap();

    // No input relation for the source.
    let ann = {
        let mut ann = matopt_core::Annotation::empty(&g);
        ann.set(
            r,
            matopt_core::VertexChoice {
                impl_id: reg.by_name("relu_map").unwrap().id,
                input_transforms: vec![matopt_core::Transform::identity(PhysFormat::SingleTuple)],
                output_format: PhysFormat::SingleTuple,
            },
        );
        ann
    };
    let empty_inputs: HashMap<matopt_core::NodeId, DistRelation> = HashMap::new();
    let err = execute_plan(&g, &ann, &empty_inputs, &reg).unwrap_err();
    match &err {
        ExecError::MissingInput { vertex, label } => {
            assert_eq!(*vertex, a);
            assert!(!label.is_empty());
        }
        other => panic!("expected MissingInput, got {other:?}"),
    }
    // The message names the vertex so fault logs are diagnosable.
    let msg = err.to_string();
    assert!(msg.contains("source vertex"), "got {msg:?}");

    // Missing annotation for the compute vertex.
    let mut inputs = HashMap::new();
    inputs.insert(
        a,
        DistRelation::from_dense(&dense(8, 8, 50), PhysFormat::SingleTuple).unwrap(),
    );
    let unannotated = matopt_core::Annotation::empty(&g);
    assert!(matches!(
        execute_plan(&g, &unannotated, &inputs, &reg),
        Err(ExecError::MissingChoice { .. })
    ));
}

/// Inputs arriving in the wrong layout are re-materialized to the
/// declared source format before execution.
#[test]
fn source_inputs_are_reformatted_to_declared_storage() {
    use matopt_engine::execute_plan;
    use std::collections::HashMap;
    let reg = ImplRegistry::paper_default();
    let mut g = matopt_core::ComputeGraph::new();
    let a = g.add_source(MatrixType::dense(12, 12), PhysFormat::Tile { side: 4 });
    let r = g.add_op(Op::Relu, &[a]).unwrap();
    let mut ann = matopt_core::Annotation::empty(&g);
    ann.set(
        r,
        matopt_core::VertexChoice {
            impl_id: reg.by_name("relu_map").unwrap().id,
            input_transforms: vec![matopt_core::Transform::identity(PhysFormat::Tile {
                side: 4,
            })],
            output_format: PhysFormat::Tile { side: 4 },
        },
    );
    let d = dense(12, 12, 51);
    // Provide the input as a single tuple even though the graph says
    // 4-tiles.
    let mut inputs = HashMap::new();
    inputs.insert(
        a,
        DistRelation::from_dense(&d, PhysFormat::SingleTuple).unwrap(),
    );
    let out = execute_plan(&g, &ann, &inputs, &reg).unwrap();
    assert!(out.sinks[&r].to_dense().approx_eq(&d.relu(), 1e-12));
}

/// Runs a matmul strategy and returns its output relation.
fn run_matmul(
    strategy: Strategy,
    a: &DistRelation,
    b: &DistRelation,
    out_format: PhysFormat,
) -> DistRelation {
    let out_type = MatrixType::dense(a.mtype.rows, b.mtype.cols);
    let inputs = [Arc::new(a.clone()), Arc::new(b.clone())];
    execute_impl(strategy, &Op::MatMul, &inputs, out_type, out_format).expect("executes")
}

/// Asserts every output chunk carries exactly the bits `expect(row, col)`
/// gives for its grid key.
fn assert_chunk_bits(what: &str, out: &DistRelation, expect: impl Fn(u64, u64) -> DenseMatrix) {
    assert!(!out.chunks.is_empty(), "{what}: no chunks");
    for c in &out.chunks {
        let want = expect(c.row, c.col);
        let got = c.block.as_dense();
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}: chunk ({}, {}) shape",
            c.row,
            c.col
        );
        let bits = |d: &DenseMatrix| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(got) == bits(&want),
            "{what}: chunk ({}, {}) differs in its bits",
            c.row,
            c.col
        );
    }
}

/// Test-local oracle of a tile join: output tile `(i, j)` is the first
/// product `A_ik × B_kj` (ascending k) plus each later one in turn with
/// `add_assign`, every product a fresh `matmul` (or CSR `matmul_dense`).
fn per_pair_tile(a: &DistRelation, b: &DistRelation, i: u64, j: u64) -> DenseMatrix {
    let kb = a.chunks.iter().map(|c| c.col).max().unwrap() + 1;
    let mut acc: Option<DenseMatrix> = None;
    for k in 0..kb {
        let (Some(ac), Some(bc)) = (a.chunk_at(i, k), b.chunk_at(k, j)) else {
            continue;
        };
        let bd = bc.block.as_dense();
        let partial = match &ac.block {
            Block::Dense(d) => d.matmul(bd),
            Block::Csr(s) => s.matmul_dense(bd),
            Block::Coo(_) => unreachable!("tile joins take dense or CSR tiles"),
        };
        match &mut acc {
            None => acc = Some(partial),
            Some(prev) => prev.add_assign(&partial),
        }
    }
    acc.expect("contraction non-empty")
}

/// The tile joins pack each tile once per vertex; their output must
/// still be bit-for-bit the per-pair fold — on 128-tiles (every product
/// packed) and on 100-tiles, whose 12-wide edge products fall under the
/// packing gate and take the reference kernel's arithmetic.
#[test]
fn tile_joins_are_bit_identical_to_the_per_pair_fold() {
    let (a, b) = (dense(512, 512, 60), dense(512, 512, 61));
    // Shuffle and broadcast run the same join; one side each.
    for (side, strategy) in [(128, Strategy::MmTileShuffle), (100, Strategy::MmTileBcast)] {
        let f = PhysFormat::Tile { side };
        let (ra, rb) = (rel(&a, f), rel(&b, f));
        let out = run_matmul(strategy, &ra, &rb, f);
        assert_chunk_bits(&format!("{strategy:?} Tile{{{side}}}"), &out, |i, j| {
            per_pair_tile(&ra, &rb, i, j)
        });
    }
    let (s, d) = (sparse(300, 200, 62), dense(200, 260, 63));
    let (rs, rd) = (
        rel(&s, PhysFormat::CsrTile { side: 64 }),
        rel(&d, PhysFormat::Tile { side: 64 }),
    );
    let out = run_matmul(
        Strategy::MmCsrTileTile,
        &rs,
        &rd,
        PhysFormat::Tile { side: 64 },
    );
    assert_chunk_bits("CsrTile × Tile", &out, |i, j| {
        per_pair_tile(&rs, &rd, i, j)
    });
}

/// The strip cross join and both broadcast joins pack each strip (and
/// the broadcast matrix) once; every output chunk must still be the
/// plain `matmul` of its pair. 256² against 128-wide strips is 16.8
/// Mflop per broadcast product, so those also fan out over the pool.
#[test]
fn strip_and_broadcast_joins_are_bit_identical_to_per_pair_matmul() {
    let (a, b) = (dense(256, 256, 64), dense(256, 256, 65));
    let rows = rel(&a, PhysFormat::RowStrip { height: 128 });
    let cols = rel(&b, PhysFormat::ColStrip { width: 100 });
    let strip_a = |i: u64| rows.chunk_at(i, 0).unwrap().block.as_dense().clone();
    let strip_b = |j: u64| cols.chunk_at(0, j).unwrap().block.as_dense().clone();

    let out = run_matmul(
        Strategy::MmRowstripColstripCross,
        &rows,
        &cols,
        PhysFormat::Tile { side: 128 },
    );
    assert_chunk_bits("cross", &out, |i, j| strip_a(i).matmul(&strip_b(j)));

    let single_a = rel(&a, PhysFormat::SingleTuple);
    let out = run_matmul(
        Strategy::MmBcastSingleColstrip,
        &single_a,
        &cols,
        PhysFormat::ColStrip { width: 100 },
    );
    assert_chunk_bits("single × colstrips", &out, |_, j| a.matmul(&strip_b(j)));

    let single_b = rel(&b, PhysFormat::SingleTuple);
    let out = run_matmul(
        Strategy::MmRowstripBcastSingle,
        &rows,
        &single_b,
        PhysFormat::RowStrip { height: 128 },
    );
    assert_chunk_bits("rowstrips × single", &out, |i, _| strip_a(i).matmul(&b));
}

/// The outer-product join sums full-size products in place; the bits
/// are those of a fold with a fresh `add` per strip pair.
#[test]
fn outer_product_join_sums_in_strip_order() {
    let (a, b) = (dense(96, 300, 66), dense(300, 80, 67));
    let ra = rel(&a, PhysFormat::ColStrip { width: 64 });
    let rb = rel(&b, PhysFormat::RowStrip { height: 64 });
    let out = run_matmul(
        Strategy::MmColstripRowstripOuter,
        &ra,
        &rb,
        PhysFormat::SingleTuple,
    );
    assert_chunk_bits("outer", &out, |_, _| {
        ra.chunks.iter().fold(DenseMatrix::zeros(96, 80), |acc, c| {
            let bs = rb.chunk_at(c.col, 0).unwrap().block.as_dense();
            acc.add(&c.block.as_dense().matmul(bs))
        })
    });
}
